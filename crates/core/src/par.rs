//! Scoped-thread scatter/gather shared by the parallel paths (bit-width
//! DSE, multi-pipeline runs, multi-IP compilation, and the population
//! lane runner).
//!
//! The scheduler is one atomic claim counter: each worker claims the
//! next unclaimed item index with `fetch_add` until the list runs out,
//! keeping its own `(index, result)` pairs. A slow item holds up only
//! the worker that claimed it, while the others keep claiming. The
//! schedule is execution-only: the pairs are joined and sorted back
//! into item order, so any worker count and any claim interleaving
//! return the identical vector.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every item on a bounded scoped-thread pool (at most
/// `available_parallelism` workers, so a long item list cannot
/// oversubscribe the host) and gathers the results in input order. A
/// panic in any `f` propagates to the caller.
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
/// `workers.clamp(1, items.len())` threads share the claim counter. The
/// pool size is execution-only — results are sorted back into input
/// order whatever the claim interleaving, so any worker count returns
/// the identical vector.
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
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, n))
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        // `Relaxed` suffices: the counter publishes no
                        // data, each `fetch_add` still hands out a
                        // distinct index, and the results reach the
                        // caller through `join`, which synchronises.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        claimed.push((i, f(item)));
                    }
                    claimed
                })
            })
            .collect();
        let mut pairs = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(claimed) => pairs.extend(claimed),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        pairs
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, r)| r).collect()
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
        // One pathologically slow item: the other workers keep claiming
        // the rest without perturbing the gathered order.
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
    #[should_panic(expected = "item 5 failed")]
    fn a_panicking_item_panics_the_caller() {
        // A worker's panic is re-raised on the calling thread with its
        // original payload once the pool is joined.
        let items: Vec<usize> = (0..16).collect();
        scoped_map_with(&items, 2, |&i| {
            assert_ne!(i, 5, "item 5 failed");
            i
        });
    }
}
