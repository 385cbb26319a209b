//! The host-speed probe: how much co-tenants of a shared host are slowing
//! this core right now.
//!
//! On a host whose cores are shared with other machines, a serving call
//! can run up to twice as slowly for seconds to minutes at a time, with
//! the thread on the CPU the whole while: the co-tenants compete for the
//! core's execution units and caches, so neither CPU time nor scheduler
//! delay shows it. A fixed loop timed beside each call does: its slowdown
//! against its time on a quiet core scales the call's rate back to what a
//! quiet core gives. The loop mixes integer multiply chains with hashed
//! updates of a 1 MiB table. On the reference host, under co-tenant load,
//! the log of its time correlated with the log of the serving call's at
//! r = 0.5-0.9 per run, with slopes of 0.8 (`population_64x16`) to 1.1-1.9
//! (`line_1m`, `fleet_12`): the scaling removes most, not all, of a
//! slowdown.
//!
//! The loop is the benchmark's own code, so a change to the program moves
//! the scaled rate exactly as it moves the raw one.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time on a quiet core of the reference host (2 vCPUs of a
/// Xeon with AVX-512 and 2 MiB of L2 per core), in seconds: about the
/// fastest probes seen there over several minutes of runs.
pub const QUIET_PROBE_S: f64 = 0.0054;

/// How many times slower than a quiet core the host ran the work between
/// two probes, from the probe times on either side of it.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / QUIET_PROBE_S
}

/// Iterations of the integer chain.
const CHAIN_STEPS: u64 = 300_000;

/// Iterations of the table updates (eight hashed lanes each).
const TABLE_STEPS: u64 = 300_000;

/// The probe's working state: the hashed table it updates.
pub(crate) struct HostProbe {
    table: Vec<u32>,
}

impl HostProbe {
    /// A probe whose table is already touched, so its first timing pays
    /// no page faults.
    pub(crate) fn new() -> Self {
        let mut probe = HostProbe {
            table: vec![1; 1 << 18],
        };
        probe.time();
        probe
    }

    /// Runs the loop once and returns its time in seconds.
    pub(crate) fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(integer_chain(black_box(CHAIN_STEPS)));
        black_box(table_updates(&mut self.table, black_box(TABLE_STEPS)));
        t0.elapsed().as_secs_f64()
    }
}

/// Eight multiply-rotate chains with a data-dependent branch into a small
/// table.
fn integer_chain(steps: u64) -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut counts = [0u32; 4096];
    for i in 0..steps {
        for (k, x) in lanes.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(k as u32 + 5)
                ^ i;
        }
        let j = (lanes[0] >> 52) as usize;
        if lanes[1] & 1 == 0 {
            counts[j] = counts[j].wrapping_add(1);
        } else {
            counts[j ^ 7] ^= lanes[2] as u32;
        }
    }
    lanes.iter().fold(0, |a, &x| a ^ x) ^ u64::from(black_box(counts)[17])
}

/// Eight independent hashed read-modify-writes into `table` per step.
fn table_updates(table: &mut [u32], steps: u64) -> u64 {
    let mask = table.len() - 1;
    let mut lanes = [1u64, 3, 5, 7, 11, 13, 17, 19];
    for i in 0..steps {
        for lane in lanes.iter_mut() {
            *lane = (*lane ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let j = (*lane >> 40) as usize & mask;
            table[j] = table[j].wrapping_add(*lane as u32 | 1);
        }
    }
    lanes.iter().fold(0, |a, &x| a ^ x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time_and_repeats_its_work() {
        let mut a = HostProbe::new();
        let mut b = HostProbe::new();
        assert!(a.time() > 0.0);
        b.time();
        assert_eq!(a.table, b.table);
        assert_eq!(integer_chain(1_000), integer_chain(1_000));
        assert!((slowdown(QUIET_PROBE_S, 3.0 * QUIET_PROBE_S) - 2.0).abs() < 1e-12);
    }
}
