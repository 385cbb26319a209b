//! Scoped-thread scatter/gather shared by the parallel paths (bit-width
//! DSE, multi-pipeline runs, multi-IP compilation, and the serving lane
//! runner behind sharded replay and population serving).
//!
//! The scheduler is a deterministic work-stealing chunk queue: items are
//! pre-split into contiguous chunks dealt round-robin onto per-worker
//! deques; each worker drains its own deque from the front and, when
//! empty, steals whole chunks from the *back* of its neighbours in a
//! fixed scan order. Stealing balances skewed item costs (one slow
//! tenant/shard no longer pins a whole contiguous slice to one thread)
//! while the schedule stays execution-only: results are gathered by item
//! index, so any worker count and any steal interleaving return the
//! identical vector.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Mutex;

/// Runs `f` over every item on a bounded scoped-thread pool (at most
/// `available_parallelism` workers, so a long item list cannot
/// oversubscribe the host) and gathers the results in input order. A
/// panic in any `f` propagates when the scope closes.
pub(crate) fn scoped_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism().map_or(1, |c| c.get());
    scoped_map_with(items, workers, f)
}

/// [`scoped_map`] with an explicit pool size: exactly
/// `workers.clamp(1, items.len())` threads share the chunk deques. The
/// pool size is execution-only — results are gathered in input order
/// whatever the steal interleaving, so any worker count returns the
/// identical vector.
pub(crate) fn scoped_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    // Chunk granularity: aim for ~8 steals' worth of slack per worker so
    // the deques have something to steal, floor 1 so short lists still
    // split.
    let chunk = (n / (workers * 8)).max(1);
    let deques: Vec<Mutex<VecDeque<Range<usize>>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    // Deal chunks round-robin so every worker starts with local work and
    // the initial ownership is a pure function of (n, workers).
    let mut start = 0usize;
    let mut w = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        // lint:allow(panic-in-lib): chunk deque mutexes cannot be poisoned before the scope spawns
        deques[w].lock().expect("deque lock").push_back(start..end);
        start = end;
        w = (w + 1) % workers;
    }
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let f = &f;
            scope.spawn(move || loop {
                // Own deque first (front: cache-warm FIFO order) …
                // lint:allow(panic-in-lib): a poisoned deque lock means a sibling worker already panicked
                let mut job = deques[me].lock().expect("own deque lock").pop_front();
                if job.is_none() {
                    // … then steal whole chunks from the back of the
                    // victims, scanning neighbours in a fixed order.
                    for step in 1..workers {
                        let victim = (me + step) % workers;
                        // lint:allow(panic-in-lib): a poisoned deque lock means a sibling worker already panicked
                        let stolen = deques[victim].lock().expect("victim deque lock").pop_back();
                        if stolen.is_some() {
                            job = stolen;
                            break;
                        }
                    }
                }
                let Some(range) = job else { break };
                for i in range {
                    let r = f(&items[i]);
                    // lint:allow(panic-in-lib): rx is dropped only after the scope joins every worker
                    tx.send((i, r)).expect("gather receiver outlives the scope");
                }
            });
        }
    });
    drop(tx);
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(n, || None);
    for (i, r) in rx {
        results[i] = Some(r);
    }
    results
        .into_iter()
        // lint:allow(panic-in-lib): the deques cover 0..n exactly once, so every index arrives before rx closes
        .map(|r| r.expect("every item was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<usize> = (0..32).collect();
        let out = scoped_map(&items, |&i| i * 2);
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_empty_output() {
        let out: Vec<u32> = scoped_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_worker_counts_agree_with_default() {
        // The pool size is an execution knob, never a semantic one:
        // every worker count (including a degenerate 0, clamped to 1,
        // and a pool far wider than the item list) gathers the same
        // in-order result vector.
        let items: Vec<usize> = (0..64).collect();
        let expect: Vec<usize> = items.iter().map(|&i| i * i).collect();
        for workers in [0usize, 1, 2, 3, 64, 1000] {
            let out = scoped_map_with(&items, workers, |&i| i * i);
            assert_eq!(out, expect, "workers = {workers}");
        }
        assert_eq!(scoped_map(&items, |&i| i * i), expect);
    }

    #[test]
    fn item_count_beyond_core_count_completes() {
        // More items than any plausible worker pool: the bounded pool
        // must still process every item exactly once, in order.
        let items: Vec<usize> = (0..500).collect();
        let out = scoped_map(&items, |&i| i + 1);
        assert_eq!(out, (1..=500).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_item_costs_still_gather_in_order() {
        // One pathologically slow item: stealing must redistribute the
        // rest without perturbing the gathered order.
        let items: Vec<usize> = (0..40).collect();
        let out = scoped_map_with(&items, 4, |&i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3
        });
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_dealing_covers_every_index_exactly_once() {
        // Mirror the dealing loop: for a spread of (n, workers) shapes
        // the round-robin chunk split must partition 0..n exactly.
        for n in [1usize, 2, 7, 8, 9, 63, 64, 65, 500] {
            for workers in [1usize, 2, 3, 8, 64] {
                let workers = workers.clamp(1, n);
                let chunk = (n / (workers * 8)).max(1);
                let mut seen = vec![0u32; n];
                let mut start = 0usize;
                while start < n {
                    let end = (start + chunk).min(n);
                    for slot in &mut seen[start..end] {
                        *slot += 1;
                    }
                    start = end;
                }
                assert!(seen.iter().all(|&c| c == 1), "n={n} workers={workers}");
            }
        }
    }
}
