//! Attack injectors replicating the Car Hacking dataset's attack traces.
//!
//! The published capture injects attacks from a malicious node attached to
//! the OBD-II port:
//!
//! * **DoS** — identifier `0x000` (wins every arbitration) with an 8-byte
//!   zero payload, injected every 0.3 ms;
//! * **Fuzzy** — uniformly random identifier and payload, every 0.5 ms;
//! * **Gear / RPM spoofing** — forged frames carrying a fixed gear status
//!   or RPM value on the legitimate identifier, every 1 ms (extension
//!   beyond the paper's DoS/Fuzzy scope).
//!
//! Injection is gated by a [`BurstSchedule`]: the real captures alternate
//! attack-on and attack-off intervals inside a 30–40 s trace.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use canids_can::bus::TrafficSource;
use canids_can::frame::{CanFrame, CanId};
use canids_can::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::Label;
use crate::vehicle::{VehicleModel, VehicleSource};

/// Which attack the injector mounts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Bus flood with the highest-priority identifier.
    Dos,
    /// Random identifier + payload fuzzing.
    Fuzzy,
    /// Forged gear-status frames on identifier `0x43F`.
    GearSpoof,
    /// Forged RPM frames on identifier `0x316`.
    RpmSpoof,
    /// Re-injection of previously seen legitimate frames.
    Replay {
        /// Delay between observing a legitimate frame and re-injecting
        /// it.
        delay: SimTime,
    },
}

impl AttackKind {
    /// The ground-truth label injected frames carry.
    pub fn label(self) -> Label {
        match self {
            AttackKind::Dos => Label::Dos,
            AttackKind::Fuzzy => Label::Fuzzy,
            AttackKind::GearSpoof => Label::GearSpoof,
            AttackKind::RpmSpoof => Label::RpmSpoof,
            AttackKind::Replay { .. } => Label::Replay,
        }
    }

    /// The injection period used by the published capture (for replay:
    /// the minimum spacing between re-injected frames).
    pub fn default_period(self) -> SimTime {
        match self {
            AttackKind::Dos => SimTime::from_micros(300),
            AttackKind::Fuzzy => SimTime::from_micros(500),
            AttackKind::GearSpoof | AttackKind::RpmSpoof | AttackKind::Replay { .. } => {
                SimTime::from_millis(1)
            }
        }
    }

    /// Short kebab-case name (stable across variants with payloads, for
    /// IP-core names and report rows).
    pub fn slug(self) -> &'static str {
        match self {
            AttackKind::Dos => "dos",
            AttackKind::Fuzzy => "fuzzy",
            AttackKind::GearSpoof => "gear-spoof",
            AttackKind::RpmSpoof => "rpm-spoof",
            AttackKind::Replay { .. } => "replay",
        }
    }
}

/// On/off gating of the injection within the capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstSchedule {
    /// Inject for the whole capture.
    Continuous,
    /// Alternate `on` and `off` intervals, starting with `on` at
    /// `initial_delay`.
    Periodic {
        /// Delay before the first burst.
        initial_delay: SimTime,
        /// Burst (attack active) duration.
        on: SimTime,
        /// Quiet duration between bursts.
        off: SimTime,
    },
}

impl BurstSchedule {
    /// The capture-like default: 2 s bursts separated by 2 s of quiet,
    /// starting 1 s in.
    pub fn capture_default() -> Self {
        BurstSchedule::Periodic {
            initial_delay: SimTime::from_secs(1),
            on: SimTime::from_secs(2),
            off: SimTime::from_secs(2),
        }
    }

    /// Whether the attack is active at time `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        match *self {
            BurstSchedule::Continuous => true,
            BurstSchedule::Periodic {
                initial_delay,
                on,
                off,
            } => {
                if t < initial_delay {
                    return false;
                }
                let cycle = (on + off).as_nanos().max(1);
                let phase = (t - initial_delay).as_nanos() % cycle;
                phase < on.as_nanos()
            }
        }
    }

    /// Advances `t` to the next active instant (identity when already
    /// active).
    pub fn next_active(&self, t: SimTime) -> SimTime {
        match *self {
            BurstSchedule::Continuous => t,
            BurstSchedule::Periodic {
                initial_delay,
                on,
                off,
            } => {
                if t < initial_delay {
                    return initial_delay;
                }
                let cycle = (on + off).as_nanos().max(1);
                let phase = (t - initial_delay).as_nanos() % cycle;
                if phase < on.as_nanos() {
                    t
                } else {
                    t + SimTime::from_nanos(cycle - phase)
                }
            }
        }
    }
}

/// Full attack description: kind, injection period and burst gating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackProfile {
    /// Attack kind.
    pub kind: AttackKind,
    /// Interval between injected frames while a burst is active.
    pub period: SimTime,
    /// Burst gating.
    pub schedule: BurstSchedule,
}

impl AttackProfile {
    /// DoS profile with the capture's 0.3 ms period and default bursts.
    pub fn dos() -> Self {
        AttackProfile {
            kind: AttackKind::Dos,
            period: AttackKind::Dos.default_period(),
            schedule: BurstSchedule::capture_default(),
        }
    }

    /// Fuzzy profile with the capture's 0.5 ms period and default bursts.
    pub fn fuzzy() -> Self {
        AttackProfile {
            kind: AttackKind::Fuzzy,
            period: AttackKind::Fuzzy.default_period(),
            schedule: BurstSchedule::capture_default(),
        }
    }

    /// Gear-spoofing profile (extension).
    pub fn gear_spoof() -> Self {
        AttackProfile {
            kind: AttackKind::GearSpoof,
            period: AttackKind::GearSpoof.default_period(),
            schedule: BurstSchedule::capture_default(),
        }
    }

    /// RPM-spoofing profile (extension).
    pub fn rpm_spoof() -> Self {
        AttackProfile {
            kind: AttackKind::RpmSpoof,
            period: AttackKind::RpmSpoof.default_period(),
            schedule: BurstSchedule::capture_default(),
        }
    }

    /// Replay profile (extension): legitimate frames observed on the bus
    /// are re-injected 50 ms later, at most one per millisecond.
    pub fn replay() -> Self {
        AttackProfile::replay_after(SimTime::from_millis(50))
    }

    /// Replay profile with an explicit observation-to-reinjection delay.
    pub fn replay_after(delay: SimTime) -> Self {
        let kind = AttackKind::Replay { delay };
        AttackProfile {
            kind,
            period: kind.default_period(),
            schedule: BurstSchedule::capture_default(),
        }
    }

    /// Replaces the burst schedule (builder style).
    pub fn with_schedule(mut self, schedule: BurstSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Replaces the injection period (builder style).
    pub fn with_period(mut self, period: SimTime) -> Self {
        self.period = period;
        self
    }

    /// Builds the traffic source mounted on the malicious node.
    pub fn into_source(self, seed: u64, horizon: SimTime) -> AttackSource {
        AttackSource::new(self, seed, horizon)
    }
}

/// The malicious node's [`TrafficSource`].
///
/// # Example
///
/// ```
/// use canids_dataset::attacks::{AttackProfile, BurstSchedule};
/// use canids_can::bus::TrafficSource;
/// use canids_can::time::SimTime;
///
/// let mut src = AttackProfile::dos()
///     .with_schedule(BurstSchedule::Continuous)
///     .into_source(1, SimTime::from_millis(10));
/// let (t, f) = src.next_frame().unwrap();
/// assert_eq!(f.id().raw(), 0x000);
/// assert_eq!(t, SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct AttackSource {
    profile: AttackProfile,
    rng: StdRng,
    next_time: SimTime,
    horizon: SimTime,
    replay: Option<ReplayFeed>,
}

/// The replay attacker's recording: a time-merged view of the vehicle's
/// legitimate transmissions, replayed `delay` after each frame was
/// observed. Built from the same model and seed as the capture's
/// transmitting ECUs, so the re-injected frames are byte-identical to
/// frames the bus carries.
///
/// Limitation: the recording reproduces the ECUs' *release* schedule,
/// not the arbitrated bus; when an overlaid attack saturates the bus
/// (e.g. a continuous DoS flood starving low-priority traffic), a
/// replayed frame may precede — or replace — the delayed original.
/// Accurate for the non-saturating captures replay scenarios use;
/// modelling an online bus tap is future work.
#[derive(Debug)]
struct ReplayFeed {
    sources: Vec<VehicleSource>,
    pending: Vec<Option<CanFrame>>,
    heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    delay: SimTime,
}

impl ReplayFeed {
    fn new(vehicle: VehicleModel, nodes: usize, vehicle_seed: u64, delay: SimTime) -> Self {
        let mut sources = vehicle.into_sources(nodes, vehicle_seed);
        let mut pending = vec![None; sources.len()];
        let mut heap = BinaryHeap::new();
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some((t, f)) = src.next_frame() {
                pending[i] = Some(f);
                heap.push(Reverse((t, i)));
            }
        }
        ReplayFeed {
            sources,
            pending,
            heap,
            delay,
        }
    }

    /// The next legitimate frame in observation order.
    fn next_observed(&mut self) -> Option<(SimTime, CanFrame)> {
        let Reverse((t, i)) = self.heap.pop()?;
        let frame = self.pending[i].take().expect("heap entry has a frame");
        if let Some((tn, fn_)) = self.sources[i].next_frame() {
            self.pending[i] = Some(fn_);
            self.heap.push(Reverse((tn, i)));
        }
        Some((t, frame))
    }
}

impl AttackSource {
    /// Creates the source; injection stops at `horizon`.
    ///
    /// A [`AttackKind::Replay`] profile records the default vehicle
    /// ([`VehicleModel::sonata`] over four nodes, seeded from `seed`);
    /// use [`AttackSource::replay_of`] to replay a specific capture's
    /// own traffic.
    pub fn new(profile: AttackProfile, seed: u64, horizon: SimTime) -> Self {
        let replay = match profile.kind {
            AttackKind::Replay { delay } => {
                Some(ReplayFeed::new(VehicleModel::sonata(), 4, seed, delay))
            }
            _ => None,
        };
        AttackSource::with_feed(profile, seed, horizon, replay)
    }

    /// A replay source whose recording is `vehicle` split over `nodes`
    /// ECUs seeded with `vehicle_seed` — pass the capture's own
    /// parameters and the re-injected frames are exactly the frames the
    /// legitimate ECUs transmit, delayed by the profile's replay delay.
    /// `attacker_seed` individualises the attacker itself: two replay
    /// attackers share the recording (they observe the same bus) but
    /// stagger their injection phase, so overlaid duplicates interleave
    /// instead of colliding frame for frame.
    ///
    /// For non-replay profiles this is identical to [`AttackSource::new`].
    pub fn replay_of(
        profile: AttackProfile,
        vehicle: VehicleModel,
        nodes: usize,
        vehicle_seed: u64,
        attacker_seed: u64,
        horizon: SimTime,
    ) -> Self {
        let replay = match profile.kind {
            AttackKind::Replay { delay } => {
                Some(ReplayFeed::new(vehicle, nodes, vehicle_seed, delay))
            }
            _ => None,
        };
        AttackSource::with_feed(profile, attacker_seed, horizon, replay)
    }

    fn with_feed(
        profile: AttackProfile,
        seed: u64,
        horizon: SimTime,
        replay: Option<ReplayFeed>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA77A_C4E5_0D05_F00D);
        let mut replay = replay;
        if let Some(feed) = replay.as_mut() {
            // Seed-derived reaction-time offset within one period:
            // distinct replay attackers over the same recording
            // re-inject each observed frame at staggered instants
            // instead of colliding frame for frame.
            let phase = SimTime::from_nanos(rng.gen_range(0..=profile.period.as_nanos()));
            feed.delay += phase;
        }
        AttackSource {
            profile,
            rng,
            next_time: profile.schedule.next_active(SimTime::ZERO),
            horizon,
            replay,
        }
    }

    /// The profile this source mounts.
    pub fn profile(&self) -> AttackProfile {
        self.profile
    }

    fn forge_frame(&mut self) -> CanFrame {
        match self.profile.kind {
            AttackKind::Dos => CanFrame::new(
                CanId::standard(0x000).expect("0 is a valid standard identifier"),
                &[0u8; 8],
            )
            .expect("8-byte payload"),
            AttackKind::Fuzzy => {
                let id = self.rng.gen_range(0..=0x7FFu16);
                let mut payload = [0u8; 8];
                self.rng.fill(&mut payload);
                CanFrame::new(CanId::standard(id).expect("masked to 11 bits"), &payload)
                    .expect("8-byte payload")
            }
            AttackKind::GearSpoof => {
                // Forged "neutral" gear status, fixed payload.
                CanFrame::new(
                    CanId::standard(0x43F).expect("valid identifier"),
                    &[0x01, 0x45, 0x60, 0xFF, 0x65, 0x00, 0x00, 0x00],
                )
                .expect("8-byte payload")
            }
            AttackKind::RpmSpoof => {
                // Forged high-RPM reading, fixed payload.
                CanFrame::new(
                    CanId::standard(0x316).expect("valid identifier"),
                    &[0x05, 0x20, 0x18, 0x10, 0x10, 0x27, 0x00, 0x2A],
                )
                .expect("8-byte payload")
            }
            AttackKind::Replay { .. } => {
                unreachable!("replay frames come from the recorded feed")
            }
        }
    }

    /// Next replayed frame: the oldest recorded legitimate frame is
    /// re-injected `delay` after it was observed, pushed forward to the
    /// next active burst and rate-limited to one frame per `period`.
    fn next_replay(&mut self) -> Option<(SimTime, CanFrame)> {
        let feed = self.replay.as_mut()?;
        let (observed_at, frame) = feed.next_observed()?;
        let earliest = (observed_at + feed.delay).max(self.next_time);
        let t = self.profile.schedule.next_active(earliest);
        if t > self.horizon {
            return None;
        }
        self.next_time = t + self.profile.period;
        Some((t, frame))
    }
}

impl TrafficSource for AttackSource {
    fn next_frame(&mut self) -> Option<(SimTime, CanFrame)> {
        if self.replay.is_some() {
            return self.next_replay();
        }
        if self.next_time > self.horizon {
            return None;
        }
        let t = self.next_time;
        let frame = self.forge_frame();
        let naive_next = t + self.profile.period;
        self.next_time = self.profile.schedule.next_active(naive_next);
        Some((t, frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dos_frames_are_zero_id_zero_payload() {
        let mut src = AttackProfile::dos()
            .with_schedule(BurstSchedule::Continuous)
            .into_source(1, SimTime::from_millis(5));
        for _ in 0..10 {
            let (_, f) = src.next_frame().unwrap();
            assert_eq!(f.id().raw(), 0);
            assert_eq!(f.data(), &[0u8; 8]);
        }
    }

    #[test]
    fn dos_period_is_300_us() {
        let mut src = AttackProfile::dos()
            .with_schedule(BurstSchedule::Continuous)
            .into_source(1, SimTime::from_millis(5));
        let (t0, _) = src.next_frame().unwrap();
        let (t1, _) = src.next_frame().unwrap();
        assert_eq!((t1 - t0).as_nanos(), 300_000);
    }

    #[test]
    fn fuzzy_frames_have_random_ids_and_payloads() {
        let mut src = AttackProfile::fuzzy()
            .with_schedule(BurstSchedule::Continuous)
            .into_source(2, SimTime::from_secs(1));
        let mut ids = std::collections::BTreeSet::new();
        let mut payloads = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let (_, f) = src.next_frame().unwrap();
            assert!(f.id().raw() <= 0x7FF);
            ids.insert(f.id().raw());
            payloads.insert(f.data().to_vec());
        }
        assert!(ids.len() > 200, "ids should span the space: {}", ids.len());
        assert!(payloads.len() > 490, "payloads should be unique-ish");
    }

    #[test]
    fn spoof_frames_use_legitimate_ids() {
        let mut gear = AttackProfile::gear_spoof()
            .with_schedule(BurstSchedule::Continuous)
            .into_source(3, SimTime::from_millis(100));
        assert_eq!(gear.next_frame().unwrap().1.id().raw(), 0x43F);
        let mut rpm = AttackProfile::rpm_spoof()
            .with_schedule(BurstSchedule::Continuous)
            .into_source(3, SimTime::from_millis(100));
        assert_eq!(rpm.next_frame().unwrap().1.id().raw(), 0x316);
    }

    #[test]
    fn burst_schedule_gates_injection() {
        let sched = BurstSchedule::Periodic {
            initial_delay: SimTime::from_millis(10),
            on: SimTime::from_millis(5),
            off: SimTime::from_millis(5),
        };
        assert!(!sched.active_at(SimTime::from_millis(3)));
        assert!(sched.active_at(SimTime::from_millis(12)));
        assert!(!sched.active_at(SimTime::from_millis(17)));
        assert!(sched.active_at(SimTime::from_millis(22)));
    }

    #[test]
    fn next_active_skips_quiet_phases() {
        let sched = BurstSchedule::Periodic {
            initial_delay: SimTime::from_millis(10),
            on: SimTime::from_millis(5),
            off: SimTime::from_millis(5),
        };
        assert_eq!(sched.next_active(SimTime::ZERO), SimTime::from_millis(10));
        assert_eq!(
            sched.next_active(SimTime::from_millis(12)),
            SimTime::from_millis(12)
        );
        assert_eq!(
            sched.next_active(SimTime::from_millis(16)),
            SimTime::from_millis(20)
        );
    }

    #[test]
    fn source_respects_bursts_and_horizon() {
        let profile = AttackProfile::dos().with_schedule(BurstSchedule::Periodic {
            initial_delay: SimTime::from_millis(1),
            on: SimTime::from_millis(2),
            off: SimTime::from_millis(2),
        });
        let mut src = profile.into_source(4, SimTime::from_millis(9));
        let mut times = Vec::new();
        while let Some((t, _)) = src.next_frame() {
            times.push(t);
        }
        assert!(!times.is_empty());
        for &t in &times {
            assert!(profile.schedule.active_at(t), "frame at inactive time {t}");
            assert!(t <= SimTime::from_millis(9));
        }
        // Both the first and second burst must be covered.
        assert!(times.iter().any(|t| *t < SimTime::from_millis(3)));
        assert!(times.iter().any(|t| *t >= SimTime::from_millis(5)));
    }

    #[test]
    fn kind_labels_match() {
        assert_eq!(AttackKind::Dos.label(), Label::Dos);
        assert_eq!(AttackKind::Fuzzy.label(), Label::Fuzzy);
        assert_eq!(AttackKind::GearSpoof.label(), Label::GearSpoof);
        assert_eq!(AttackKind::RpmSpoof.label(), Label::RpmSpoof);
        assert_eq!(
            AttackKind::Replay {
                delay: SimTime::from_millis(5)
            }
            .label(),
            Label::Replay
        );
        assert_eq!(AttackProfile::replay().kind.slug(), "replay");
    }

    #[test]
    fn replay_reinjects_previously_seen_frames_after_the_delay() {
        let delay = SimTime::from_millis(20);
        let profile = AttackProfile::replay_after(delay).with_schedule(BurstSchedule::Continuous);
        let vehicle_seed = 77u64;
        let horizon = SimTime::from_millis(300);
        // The attacker's recording, replayed...
        let mut src = AttackSource::replay_of(
            profile,
            VehicleModel::sonata(),
            4,
            vehicle_seed,
            vehicle_seed,
            horizon,
        );
        // ...must consist of frames the legitimate ECUs actually transmit.
        let mut legit: Vec<(SimTime, CanFrame)> = Vec::new();
        for mut s in VehicleModel::sonata().into_sources(4, vehicle_seed) {
            loop {
                match s.next_frame() {
                    Some((t, f)) if t <= horizon => legit.push((t, f)),
                    _ => break,
                }
            }
        }
        legit.sort_by_key(|&(t, _)| t);

        let mut count = 0usize;
        let mut last_t = SimTime::ZERO;
        while let Some((t, f)) = src.next_frame() {
            let (t0, expect) = legit[count];
            assert_eq!(f, expect, "replayed frame {count} differs from observed");
            assert!(t >= t0 + delay, "frame {count} replayed before the delay");
            assert!(t >= last_t, "replay times must be monotonic");
            assert!(t <= horizon);
            last_t = t;
            count += 1;
        }
        assert!(count > 50, "replay stream too short: {count}");
    }

    #[test]
    fn replay_respects_burst_gating_and_spacing() {
        let profile = AttackProfile::replay_after(SimTime::from_millis(5))
            .with_period(SimTime::from_millis(2))
            .with_schedule(BurstSchedule::Periodic {
                initial_delay: SimTime::from_millis(50),
                on: SimTime::from_millis(50),
                off: SimTime::from_millis(50),
            });
        let mut src = profile.into_source(3, SimTime::from_millis(400));
        let mut times = Vec::new();
        while let Some((t, _)) = src.next_frame() {
            assert!(profile.schedule.active_at(t), "injection at quiet time {t}");
            times.push(t);
        }
        assert!(!times.is_empty());
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= SimTime::from_millis(2), "period floor");
        }
    }

    #[test]
    fn duplicate_replay_attackers_stagger_their_injections() {
        // Two replay attackers observe the same bus (same recording) but
        // must not collide frame for frame: the attacker seed staggers
        // the injection phase.
        let profile = AttackProfile::replay_after(SimTime::from_millis(10))
            .with_schedule(BurstSchedule::Continuous);
        let horizon = SimTime::from_millis(200);
        let mk = |attacker_seed: u64| {
            AttackSource::replay_of(
                profile,
                VehicleModel::sonata(),
                4,
                55,
                attacker_seed,
                horizon,
            )
        };
        let times = |mut src: AttackSource| {
            let mut ts = Vec::new();
            while let Some((t, _)) = src.next_frame() {
                ts.push(t);
            }
            ts
        };
        let a = times(mk(1));
        let b = times(mk(2));
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b, "distinct attacker seeds must stagger injections");
        // Same attacker seed stays deterministic.
        assert_eq!(a, times(mk(1)));
    }

    #[test]
    fn replay_source_is_deterministic() {
        let mk = || {
            AttackProfile::replay()
                .with_schedule(BurstSchedule::Continuous)
                .into_source(11, SimTime::from_millis(100))
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mk = || {
            AttackProfile::fuzzy()
                .with_schedule(BurstSchedule::Continuous)
                .into_source(9, SimTime::from_millis(50))
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..100 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }
}
