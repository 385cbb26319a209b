//! Synthetic vehicle traffic model.
//!
//! Production cars broadcast a fixed catalogue of periodic CAN messages.
//! Payload bytes follow recognisable idioms: 4-bit *alive counters*, XOR
//! *checksum* bytes, big-endian sensor values that random-walk within a
//! physical range, and slowly toggling flag bytes. The Car Hacking capture
//! (a Hyundai YF Sonata) shows exactly this structure, and it is what a
//! per-frame IDS learns as "normal".
//!
//! [`VehicleModel::sonata`] provides a ~20-message catalogue with the same
//! identifier spread and bus load shape as the published capture. The
//! model splits into several [`VehicleSource`]s (one per transmitting ECU)
//! so bus arbitration between ECUs is exercised realistically.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use canids_can::bus::TrafficSource;
use canids_can::frame::{CanFrame, CanId};
use canids_can::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A payload byte idiom within a periodic message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// A counter in the low bits of `byte`, incremented each transmission
    /// modulo `modulus` (the classic automotive alive counter).
    AliveCounter {
        /// Payload byte index.
        byte: usize,
        /// Counter modulus (16 for a nibble counter).
        modulus: u8,
    },
    /// Big-endian 16-bit sensor value at `byte_hi..=byte_hi+1` performing
    /// a bounded random walk.
    RandomWalk {
        /// Index of the high byte.
        byte_hi: usize,
        /// Inclusive lower bound of the physical value.
        min: u16,
        /// Inclusive upper bound of the physical value.
        max: u16,
        /// Maximum per-transmission step.
        max_step: u16,
    },
    /// Flag bits in `byte & mask` that toggle every `period_frames`
    /// transmissions.
    ToggleFlags {
        /// Payload byte index.
        byte: usize,
        /// Bits that toggle.
        mask: u8,
        /// Toggle period in transmissions.
        period_frames: u32,
    },
    /// XOR checksum of all other payload bytes stored into `byte`
    /// (applied after every other signal).
    ChecksumXor {
        /// Payload byte index receiving the checksum.
        byte: usize,
    },
}

/// Static description of one periodic message.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageSpec {
    /// 11-bit identifier.
    pub id: u16,
    /// Nominal transmission period.
    pub period: SimTime,
    /// Uniform release jitter as a fraction of the period (e.g. `0.02`).
    pub jitter_frac: f64,
    /// Data length code (payload bytes).
    pub dlc: u8,
    /// Base payload; signals mutate it per transmission.
    pub base: [u8; 8],
    /// Payload byte idioms.
    pub signals: Vec<Signal>,
}

impl MessageSpec {
    /// Creates a spec with no signals (constant payload).
    pub fn constant(id: u16, period: SimTime, dlc: u8, base: [u8; 8]) -> Self {
        MessageSpec {
            id,
            period,
            jitter_frac: 0.02,
            dlc,
            base,
            signals: Vec::new(),
        }
    }

    /// Adds a signal to the spec (builder style).
    pub fn with_signal(mut self, signal: Signal) -> Self {
        self.signals.push(signal);
        self
    }
}

/// The whole-vehicle message catalogue.
///
/// # Example
///
/// ```
/// use canids_dataset::vehicle::VehicleModel;
///
/// let model = VehicleModel::sonata();
/// assert!(model.specs().len() >= 18);
/// assert!(model.message_ids().contains(&0x316)); // engine RPM
/// // Aggregate rate is in the ballpark of a real capture (~1 kframe/s).
/// let rate = model.aggregate_rate_hz();
/// assert!(rate > 500.0 && rate < 2500.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VehicleModel {
    specs: Vec<MessageSpec>,
}

impl VehicleModel {
    /// Builds a model from explicit message specs.
    pub fn new(specs: Vec<MessageSpec>) -> Self {
        VehicleModel { specs }
    }

    /// The default catalogue, shaped after the Car-Hacking capture vehicle
    /// (identifier spread 0x130..0x5A0, fast powertrain messages at 10 ms,
    /// body/comfort messages at 100 ms+).
    pub fn sonata() -> Self {
        use Signal::*;
        let ms = SimTime::from_millis;
        let specs = vec![
            // Powertrain, 10 ms.
            MessageSpec::constant(0x316, ms(10), 8, [0x05, 0x20, 0, 0, 0x10, 0x27, 0x00, 0x7F])
                .with_signal(RandomWalk {
                    byte_hi: 2,
                    min: 600,
                    max: 6500,
                    max_step: 60,
                })
                .with_signal(AliveCounter {
                    byte: 6,
                    modulus: 16,
                })
                .with_signal(ChecksumXor { byte: 7 }),
            MessageSpec::constant(
                0x43F,
                ms(10),
                8,
                [0x01, 0x45, 0x60, 0xFF, 0x65, 0x00, 0x00, 0x00],
            )
            .with_signal(ToggleFlags {
                byte: 0,
                mask: 0x0F,
                period_frames: 180,
            })
            .with_signal(AliveCounter {
                byte: 5,
                modulus: 16,
            }),
            MessageSpec::constant(
                0x260,
                ms(10),
                8,
                [0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 0,
                min: 0,
                max: 28000,
                max_step: 120,
            })
            .with_signal(AliveCounter {
                byte: 6,
                modulus: 16,
            })
            .with_signal(ChecksumXor { byte: 7 }),
            MessageSpec::constant(
                0x2C0,
                ms(10),
                8,
                [0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 1,
                min: 0,
                max: 255 * 16,
                max_step: 40,
            }),
            MessageSpec::constant(0x130, ms(10), 6, [0x08, 0x80, 0x00, 0xFF, 0x00, 0x00, 0, 0])
                .with_signal(RandomWalk {
                    byte_hi: 1,
                    min: 0x7000,
                    max: 0x9000,
                    max_step: 48,
                })
                .with_signal(AliveCounter {
                    byte: 4,
                    modulus: 16,
                }),
            MessageSpec::constant(0x140, ms(10), 8, [0x00; 8])
                .with_signal(RandomWalk {
                    byte_hi: 0,
                    min: 0,
                    max: 0x3FFF,
                    max_step: 30,
                })
                .with_signal(AliveCounter {
                    byte: 3,
                    modulus: 4,
                })
                .with_signal(ChecksumXor { byte: 7 }),
            // Chassis, 20 ms.
            MessageSpec::constant(
                0x153,
                ms(20),
                8,
                [0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 2,
                min: 0,
                max: 1024,
                max_step: 12,
            })
            .with_signal(ChecksumXor { byte: 6 }),
            MessageSpec::constant(
                0x164,
                ms(20),
                8,
                [0x00, 0x00, 0x00, 0x0C, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(ToggleFlags {
                byte: 0,
                mask: 0x03,
                period_frames: 64,
            }),
            MessageSpec::constant(
                0x18F,
                ms(20),
                8,
                [0xFE, 0x3B, 0x00, 0x00, 0x00, 0x3C, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 2,
                min: 0,
                max: 4000,
                max_step: 24,
            }),
            MessageSpec::constant(0x220, ms(20), 8, [0x00; 8])
                .with_signal(RandomWalk {
                    byte_hi: 0,
                    min: 0x1000,
                    max: 0x2000,
                    max_step: 8,
                })
                .with_signal(RandomWalk {
                    byte_hi: 4,
                    min: 0x1000,
                    max: 0x2000,
                    max_step: 8,
                }),
            // Body, 50 ms.
            MessageSpec::constant(
                0x2A0,
                ms(50),
                8,
                [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 0,
                min: 0,
                max: 0xFF0,
                max_step: 16,
            })
            .with_signal(AliveCounter {
                byte: 5,
                modulus: 16,
            }),
            MessageSpec::constant(
                0x329,
                ms(50),
                8,
                [0x40, 0x8A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 2,
                min: 0x40,
                max: 0xD0,
                max_step: 1,
            }),
            MessageSpec::constant(
                0x350,
                ms(50),
                8,
                [0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(ToggleFlags {
                byte: 2,
                mask: 0xC0,
                period_frames: 25,
            }),
            // Comfort / instrumentation, 100 ms.
            MessageSpec::constant(
                0x370,
                ms(100),
                8,
                [0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(ToggleFlags {
                byte: 0,
                mask: 0x01,
                period_frames: 10,
            }),
            MessageSpec::constant(
                0x382,
                ms(100),
                8,
                [0x22, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 1,
                min: 0,
                max: 200,
                max_step: 2,
            }),
            MessageSpec::constant(
                0x430,
                ms(100),
                8,
                [0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
            ),
            // Slow diagnostics / gateway.
            MessageSpec::constant(0x4B1, ms(200), 8, [0x00; 8]).with_signal(AliveCounter {
                byte: 0,
                modulus: 255,
            }),
            MessageSpec::constant(
                0x545,
                ms(200),
                8,
                [0xD8, 0x00, 0x00, 0x8B, 0x00, 0x00, 0x00, 0x00],
            )
            .with_signal(RandomWalk {
                byte_hi: 1,
                min: 0,
                max: 0xFFF0,
                max_step: 4,
            }),
            MessageSpec::constant(
                0x5A0,
                ms(500),
                8,
                [0x00, 0x00, 0x00, 0x00, 0x00, 0x50, 0x00, 0x00],
            )
            .with_signal(ToggleFlags {
                byte: 6,
                mask: 0xFF,
                period_frames: 2,
            }),
            MessageSpec::constant(0x34A, ms(500), 4, [0x0A, 0x00, 0x00, 0x00, 0, 0, 0, 0]),
        ];
        VehicleModel { specs }
    }

    /// The message catalogue.
    pub fn specs(&self) -> &[MessageSpec] {
        &self.specs
    }

    /// All legitimate identifiers broadcast by the vehicle, sorted.
    pub fn message_ids(&self) -> Vec<u16> {
        let mut ids: Vec<u16> = self.specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Aggregate frame rate of the catalogue in frames/second.
    pub fn aggregate_rate_hz(&self) -> f64 {
        self.specs
            .iter()
            .map(|s| 1.0 / s.period.as_secs_f64())
            // lint:allow(float-reassociation): left-to-right sum over the fixed catalogue order; no qnn dep here
            .sum()
    }

    /// Partitions the catalogue into `nodes` transmitting ECUs
    /// (round-robin by spec order) and builds a seeded [`VehicleSource`]
    /// for each.
    pub fn into_sources(self, nodes: usize, seed: u64) -> Vec<VehicleSource> {
        let nodes = nodes.max(1);
        let mut groups: Vec<Vec<MessageSpec>> = vec![Vec::new(); nodes];
        for (i, spec) in self.specs.into_iter().enumerate() {
            groups[i % nodes].push(spec);
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(i, g)| {
                VehicleSource::new(
                    g,
                    seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)),
                )
            })
            .collect()
    }
}

impl Default for VehicleModel {
    fn default() -> Self {
        VehicleModel::sonata()
    }
}

/// Per-message mutable generation state.
#[derive(Debug, Clone)]
struct MessageState {
    spec: MessageSpec,
    counter_values: Vec<u32>,
    walk_values: Vec<u16>,
    frames_sent: u32,
}

impl MessageState {
    fn new(spec: MessageSpec, rng: &mut StdRng) -> Self {
        let counter_values = spec
            .signals
            .iter()
            .filter(|s| matches!(s, Signal::AliveCounter { .. }))
            .map(|_| 0u32)
            .collect();
        let walk_values = spec
            .signals
            .iter()
            .filter_map(|s| match s {
                Signal::RandomWalk { min, max, .. } => Some(rng.gen_range(*min..=*max)),
                _ => None,
            })
            .collect();
        MessageState {
            spec,
            counter_values,
            walk_values,
            frames_sent: 0,
        }
    }

    fn generate(&mut self, rng: &mut StdRng) -> CanFrame {
        let mut payload = self.spec.base;
        let mut counter_idx = 0usize;
        let mut walk_idx = 0usize;
        // Apply value signals first, checksums afterwards.
        for signal in &self.spec.signals {
            match *signal {
                Signal::AliveCounter { byte, modulus } => {
                    let v = &mut self.counter_values[counter_idx];
                    counter_idx += 1;
                    let m = u32::from(modulus.max(2));
                    *v = (*v + 1) % m;
                    if m <= 16 {
                        payload[byte] = (payload[byte] & 0xF0) | (*v as u8 & 0x0F);
                    } else {
                        payload[byte] = *v as u8;
                    }
                }
                Signal::RandomWalk {
                    byte_hi,
                    min,
                    max,
                    max_step,
                } => {
                    let v = &mut self.walk_values[walk_idx];
                    walk_idx += 1;
                    let step = rng.gen_range(0..=i32::from(max_step) * 2) - i32::from(max_step);
                    let next = (i32::from(*v) + step).clamp(i32::from(min), i32::from(max)) as u16;
                    *v = next;
                    payload[byte_hi] = (next >> 8) as u8;
                    if byte_hi + 1 < 8 {
                        payload[byte_hi + 1] = (next & 0xFF) as u8;
                    }
                }
                Signal::ToggleFlags {
                    byte,
                    mask,
                    period_frames,
                } => {
                    let phase = (self.frames_sent / period_frames.max(1)) % 2;
                    if phase == 1 {
                        payload[byte] ^= mask;
                    }
                }
                Signal::ChecksumXor { .. } => {}
            }
        }
        for signal in &self.spec.signals {
            if let Signal::ChecksumXor { byte } = *signal {
                let mut sum = 0u8;
                for (i, b) in payload.iter().enumerate().take(usize::from(self.spec.dlc)) {
                    if i != byte {
                        sum ^= b;
                    }
                }
                payload[byte] = sum;
            }
        }
        self.frames_sent += 1;
        CanFrame::new(
            CanId::standard(self.spec.id).expect("catalogue IDs are 11-bit"),
            &payload[..usize::from(self.spec.dlc)],
        )
        .expect("dlc <= 8 by construction")
    }
}

/// A transmitting ECU: a [`TrafficSource`] that interleaves the periodic
/// messages assigned to it, with seeded jitter.
///
/// # Example
///
/// ```
/// use canids_dataset::vehicle::VehicleModel;
/// use canids_can::bus::TrafficSource;
///
/// let mut sources = VehicleModel::sonata().into_sources(1, 42);
/// let mut src = sources.remove(0);
/// let (t0, f0) = src.next_frame().unwrap();
/// let (t1, _) = src.next_frame().unwrap();
/// assert!(t1 >= t0);
/// assert!(f0.id().is_standard());
/// ```
#[derive(Debug)]
pub struct VehicleSource {
    states: Vec<MessageState>,
    queue: BinaryHeap<Reverse<(SimTime, usize)>>,
    rng: StdRng,
    horizon: Option<SimTime>,
    load_jitter: Option<LoadJitter>,
}

/// Longer-horizon drift: release jitter that grows with instantaneous
/// bus load. On a real vehicle a periodic message's release slips when
/// the bus is busy (its transmission waits out arbitration, and the ECU
/// task re-arms late); the drift therefore *scales with how loaded the
/// bus is right now*. This model estimates the instantaneous load as
/// the wire-time fraction a sliding window of this source's own recent
/// releases would occupy, and widens each message's jitter span by
/// `1 + gain · load`. The estimate is deliberately source-local (a
/// source cannot see attacker traffic sharing the bus): it models the
/// ECU-side scheduling drift under the vehicle's *own* periodic load;
/// arbitration delay against attackers is modelled by the bus itself.
#[derive(Debug, Clone)]
struct LoadJitter {
    /// Multiplier on the load fraction.
    gain: f64,
    /// Sliding estimation window.
    window: SimTime,
    /// Nominal wire cost per frame (8-byte frame at 500 kb/s).
    frame_cost: SimTime,
    /// Release times inside the window, oldest first.
    recent: std::collections::VecDeque<SimTime>,
}

impl LoadJitter {
    /// Records a release at `t` and returns the current load fraction in
    /// `0..=1`.
    fn observe(&mut self, t: SimTime) -> f64 {
        while self
            .recent
            .front()
            .is_some_and(|&front| front + self.window < t)
        {
            self.recent.pop_front();
        }
        self.recent.push_back(t);
        let occupied = self.frame_cost.as_secs_f64() * self.recent.len() as f64;
        (occupied / self.window.as_secs_f64()).min(1.0)
    }
}

impl VehicleSource {
    /// Creates a source for a set of message specs.
    pub fn new(specs: Vec<MessageSpec>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queue = BinaryHeap::new();
        let states: Vec<MessageState> = specs
            .into_iter()
            .map(|s| MessageState::new(s, &mut rng))
            .collect();
        for (i, st) in states.iter().enumerate() {
            // Random initial phase within one period.
            let phase_ns = rng.gen_range(0..st.spec.period.as_nanos().max(1));
            queue.push(Reverse((SimTime::from_nanos(phase_ns), i)));
        }
        VehicleSource {
            states,
            queue,
            rng,
            horizon: None,
            load_jitter: None,
        }
    }

    /// Stops generating frames after `horizon` (release times beyond it
    /// yield `None`). Without a horizon the source is infinite.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Enables load-dependent jitter: each message's release jitter span
    /// widens by `1 + gain · load`, where `load` is the wire-time
    /// fraction this source's releases occupy over a 50 ms sliding
    /// window (8-byte-at-500-kb/s frame cost). `gain = 0.0` is
    /// bit-identical to the plain source.
    pub fn with_load_jitter(mut self, gain: f64) -> Self {
        self.load_jitter = (gain > 0.0).then(|| LoadJitter {
            gain,
            window: SimTime::from_millis(50),
            frame_cost: SimTime::from_micros(222),
            recent: std::collections::VecDeque::new(),
        });
        self
    }
}

impl TrafficSource for VehicleSource {
    fn next_frame(&mut self) -> Option<(SimTime, CanFrame)> {
        let Reverse((t, idx)) = self.queue.pop()?;
        if let Some(h) = self.horizon {
            if t > h {
                return None;
            }
        }
        let frame = self.states[idx].generate(&mut self.rng);
        let load_factor = match &mut self.load_jitter {
            Some(lj) => 1.0 + lj.gain * lj.observe(t),
            None => 1.0,
        };
        let spec = &self.states[idx].spec;
        let jitter_span = (spec.period.as_secs_f64() * spec.jitter_frac * load_factor).max(0.0);
        let jitter = SimTime::from_secs_f64(self.rng.gen_range(0.0..=jitter_span));
        let next = t + spec.period + jitter;
        self.queue.push(Reverse((next, idx)));
        Some((t, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(src: &mut VehicleSource, n: usize) -> Vec<(SimTime, CanFrame)> {
        (0..n).map(|_| src.next_frame().unwrap()).collect()
    }

    #[test]
    fn sonata_catalogue_is_well_formed() {
        let m = VehicleModel::sonata();
        for spec in m.specs() {
            assert!(spec.id <= 0x7FF);
            assert!(spec.dlc <= 8);
            assert!(spec.period.as_nanos() > 0);
            for s in &spec.signals {
                match *s {
                    Signal::AliveCounter { byte, .. } => assert!(byte < usize::from(spec.dlc)),
                    Signal::ChecksumXor { byte } => assert!(byte < usize::from(spec.dlc)),
                    Signal::RandomWalk {
                        byte_hi, min, max, ..
                    } => {
                        assert!(byte_hi + 1 < 8);
                        assert!(min <= max);
                    }
                    Signal::ToggleFlags { byte, .. } => assert!(byte < usize::from(spec.dlc)),
                }
            }
        }
    }

    #[test]
    fn frames_release_in_time_order() {
        let mut src = VehicleModel::sonata().into_sources(1, 1).remove(0);
        let frames = collect(&mut src, 500);
        for w in frames.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn only_catalogue_ids_are_generated() {
        let model = VehicleModel::sonata();
        let ids = model.message_ids();
        let mut src = model.into_sources(1, 2).remove(0);
        for (_, f) in collect(&mut src, 1_000) {
            assert!(ids.contains(&u16::try_from(f.id().raw()).unwrap()), "{f}");
        }
    }

    #[test]
    fn alive_counters_increment_mod_16() {
        // 0x316 has a nibble counter at byte 6.
        let model = VehicleModel::new(vec![VehicleModel::sonata().specs()[0].clone()]);
        let mut src = model.into_sources(1, 3).remove(0);
        let frames = collect(&mut src, 40);
        let counters: Vec<u8> = frames.iter().map(|(_, f)| f.data()[6] & 0x0F).collect();
        for w in counters.windows(2) {
            assert_eq!((w[0] + 1) % 16, w[1]);
        }
    }

    #[test]
    fn checksum_byte_is_xor_of_payload() {
        let model = VehicleModel::new(vec![VehicleModel::sonata().specs()[0].clone()]);
        let mut src = model.into_sources(1, 4).remove(0);
        for (_, f) in collect(&mut src, 100) {
            let d = f.data();
            let expect: u8 = d[..7].iter().fold(0, |a, b| a ^ b);
            assert_eq!(d[7], expect, "{f}");
        }
    }

    #[test]
    fn random_walk_stays_in_range_and_moves() {
        let model = VehicleModel::new(vec![VehicleModel::sonata().specs()[0].clone()]);
        let mut src = model.into_sources(1, 5).remove(0);
        let mut values = Vec::new();
        for (_, f) in collect(&mut src, 300) {
            let v = u16::from_be_bytes([f.data()[2], f.data()[3]]);
            assert!((600..=6500).contains(&v), "rpm = {v}");
            values.push(v);
        }
        let distinct: std::collections::BTreeSet<u16> = values.iter().copied().collect();
        assert!(distinct.len() > 10, "walk should move");
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let mut a = VehicleModel::sonata().into_sources(2, 99);
        let mut b = VehicleModel::sonata().into_sources(2, 99);
        for (sa, sb) in a.iter_mut().zip(b.iter_mut()) {
            for _ in 0..200 {
                assert_eq!(sa.next_frame(), sb.next_frame());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = VehicleModel::sonata().into_sources(1, 1).remove(0);
        let mut b = VehicleModel::sonata().into_sources(1, 2).remove(0);
        let fa = collect(&mut a, 50);
        let fb = collect(&mut b, 50);
        assert_ne!(fa, fb);
    }

    #[test]
    fn horizon_terminates_source() {
        let mut src = VehicleModel::sonata()
            .into_sources(1, 7)
            .remove(0)
            .with_horizon(SimTime::from_millis(50));
        let mut n = 0;
        while src.next_frame().is_some() {
            n += 1;
            assert!(n < 1_000_000, "horizon must terminate the source");
        }
        // ~1 kHz for 50 ms ≈ 50 frames (very loose bounds).
        assert!(n > 10 && n < 500, "n = {n}");
    }

    /// Mean relative release jitter `(gap − period)/period` over a
    /// uniform catalogue of `n_msgs` messages with the given period.
    fn mean_relative_jitter(period: SimTime, gain: f64, n_msgs: usize, per_msg: usize) -> f64 {
        let specs: Vec<MessageSpec> = (0..n_msgs)
            .map(|i| {
                let mut s = MessageSpec::constant(0x100 + i as u16, period, 8, [0u8; 8]);
                s.jitter_frac = 0.1;
                s
            })
            .collect();
        let mut src = VehicleSource::new(specs, 42).with_load_jitter(gain);
        // BTreeMap, not HashMap: the mean below folds floats over the
        // map values, so iteration order is part of the result.
        let mut releases: std::collections::BTreeMap<u32, Vec<SimTime>> =
            std::collections::BTreeMap::new();
        for _ in 0..n_msgs * per_msg {
            let (t, f) = src.next_frame().unwrap();
            releases.entry(f.id().raw()).or_default().push(t);
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for times in releases.values() {
            // Skip the estimation-window warm-up.
            for w in times.windows(2).skip(8) {
                let gap = (w[1] - w[0]).as_secs_f64();
                sum += gap / period.as_secs_f64() - 1.0;
                count += 1;
            }
        }
        sum / count as f64
    }

    #[test]
    fn jitter_grows_with_instantaneous_bus_load() {
        // 20 messages every 2 ms offer ~10 kframe/s — wire-saturating
        // (load ≈ 1) — while the same catalogue at 100 ms offers ~200
        // frame/s (load ≈ 0.04). With gain 2 the loaded catalogue's mean
        // relative jitter must approach (1 + gain) times the quiet one's.
        let loaded = mean_relative_jitter(SimTime::from_millis(2), 2.0, 20, 300);
        let quiet = mean_relative_jitter(SimTime::from_millis(100), 2.0, 20, 60);
        assert!(
            loaded / quiet > 2.0,
            "loaded {loaded:.4} vs quiet {quiet:.4}: drift must scale with load"
        );
        // Statistical pins: uniform jitter in [0, frac·factor] has mean
        // frac·factor/2 — ≈ 0.15 at load 1 (factor 3), ≈ 0.055 at load
        // 0.04 (factor ~1.09), with sampling slack.
        assert!((0.12..0.18).contains(&loaded), "loaded mean {loaded:.4}");
        assert!((0.04..0.08).contains(&quiet), "quiet mean {quiet:.4}");
        // Gain off: load no longer matters.
        let baseline = mean_relative_jitter(SimTime::from_millis(2), 0.0, 20, 300);
        assert!((0.04..0.06).contains(&baseline), "baseline {baseline:.4}");
    }

    #[test]
    fn zero_gain_is_bit_identical_to_plain_source() {
        let specs = VehicleModel::sonata().specs().to_vec();
        let mut plain = VehicleSource::new(specs.clone(), 7);
        let mut gained = VehicleSource::new(specs, 7).with_load_jitter(0.0);
        for _ in 0..500 {
            assert_eq!(plain.next_frame(), gained.next_frame());
        }
    }

    #[test]
    fn into_sources_partitions_all_specs() {
        let model = VehicleModel::sonata();
        let total = model.specs().len();
        let sources = model.into_sources(4, 11);
        let partitioned: usize = sources.iter().map(|s| s.states.len()).sum();
        assert_eq!(partitioned, total);
        assert_eq!(sources.len(), 4);
    }
}
