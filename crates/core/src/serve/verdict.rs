//! The typed per-frame verdict stream, and the fusion ring that folds
//! each frame's shard verdicts into one [`Verdict`].

use std::collections::VecDeque;

use canids_can::time::SimTime;
use canids_dataset::record::LabeledFrame;
use canids_qnn::metrics::ConfusionMatrix;

use super::admission::AdmissionController;
use super::{ServeTopology, ShardVerdict};
use crate::fleet::Slot;

/// One typed per-frame verdict of a replay, as delivered to a
/// [`VerdictSink`]: the fused flag over every shard that serviced the
/// frame, ground truth, and per-model flag/consultation masks in fleet
/// bundle order.
///
/// Frames dropped by every shard produce no verdict.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{ReplayConfig, ServeHarness, SoftwareBackend, Verdict};
///
/// let report = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let mut harness = ServeHarness::new(SoftwareBackend::single(report.detector.int_mlp.clone()));
/// let mut verdicts: Vec<Verdict> = Vec::new();
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// harness.replay_with(&capture, &ReplayConfig::default(), &mut verdicts)?;
/// let confirmed = verdicts.iter().filter(|v| v.flagged && v.truth_attack).count();
/// println!("{confirmed} confirmed positives");
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Frame ordinal in the replay (0-based arrival order).
    pub ordinal: usize,
    /// Backbone arrival time of the frame.
    pub arrival: SimTime,
    /// When the slowest serving shard completed its verdict.
    pub completed_at: SimTime,
    /// `true` when any serving model flagged the frame.
    pub flagged: bool,
    /// Ground truth of the replayed record.
    pub truth_attack: bool,
    /// Per-model flag bitmask, in fleet bundle order (bit `m` set when
    /// model `m` flagged; models beyond index 63 fold into `flagged`).
    pub model_flags: u64,
    /// Which models were consulted, as the same bitmask.
    pub consulted: u64,
    /// Shards that serviced this frame.
    pub boards: usize,
}

impl Verdict {
    /// `true` when the fused prediction matches ground truth.
    pub fn correct(&self) -> bool {
        self.flagged == self.truth_attack
    }

    /// Whether fleet model `m` flagged this frame.
    pub fn model_flagged(&self, m: usize) -> bool {
        m < 64 && self.model_flags & (1 << m) != 0
    }

    /// Whether fleet model `m` was consulted for this frame.
    pub fn model_consulted(&self, m: usize) -> bool {
        m < 64 && self.consulted & (1 << m) != 0
    }
}

/// Receives the per-frame [`Verdict`] stream of a replay, in frame
/// ordinal order.
///
/// Implemented for `Vec<Verdict>` (collect everything) and for any
/// `FnMut(&Verdict)` closure.
///
/// # Example
///
/// ```
/// use canids_core::serve::{Verdict, VerdictSink};
///
/// let mut hits = 0usize;
/// let mut sink = |v: &Verdict| {
///     if v.flagged && v.truth_attack {
///         hits += 1;
///     }
/// };
/// # let _ = &mut sink as &mut dyn VerdictSink;
/// ```
pub trait VerdictSink {
    /// Delivers one verdict.
    fn verdict(&mut self, v: &Verdict);
}

impl VerdictSink for Vec<Verdict> {
    fn verdict(&mut self, v: &Verdict) {
        self.push(*v);
    }
}

impl<F: FnMut(&Verdict)> VerdictSink for F {
    fn verdict(&mut self, v: &Verdict) {
        self(v);
    }
}

/// A sink that discards every verdict (the default for
/// [`ServeHarness::replay`](super::ServeHarness::replay)).
pub(super) struct NullSink;

impl VerdictSink for NullSink {
    fn verdict(&mut self, _v: &Verdict) {}
}

/// One in-flight frame of the fusion ring: its ground truth, the shards
/// yet to resolve it, and the fold of the shard verdicts absorbed so far.
#[derive(Debug, Clone, Copy)]
pub(super) struct FusedEntry {
    /// Shards that have not yet resolved (serviced or dropped) the frame;
    /// it is emitted when this reaches zero.
    pending: usize,
    truth: bool,
    flagged: bool,
    done: SimTime,
    /// Shards that serviced the frame; zero when every shard dropped it.
    count: usize,
    model_flags: u64,
    consulted: u64,
}

/// One model's running share of the per-model report section.
#[derive(Debug, Clone, Default)]
pub(super) struct ModelAccum {
    pub(super) consulted: usize,
    pub(super) flagged: usize,
    pub(super) confirmed: usize,
    pub(super) cm: ConfusionMatrix,
}

/// Replay-wide accounting: arrivals, per-shard latency vectors, per-model
/// contribution, and the fusion ring of frames awaiting a verdict.
///
/// The ring holds one [`FusedEntry`] per in-flight ordinal,
/// `next_emit..arrivals.len()` front to back. A shard verdict or drop
/// reaches its entry at `ordinal - next_emit` in O(1), and emission pops
/// resolved entries off the front, so verdicts leave in ordinal order.
/// The ring's length is bounded by the frames some shard still holds
/// (queued, batched or in transit), not by the capture.
pub(super) struct Aggregator {
    /// Backbone arrival of every frame so far, dropped frames included.
    pub(super) arrivals: Vec<SimTime>,
    pub(super) ring: VecDeque<FusedEntry>,
    next_emit: usize,
    /// Latency of every emitted fused verdict, in ordinal order.
    pub(super) fused_lat: Vec<SimTime>,
    /// `(arrival, flagged)` of every emitted fused verdict, in ordinal
    /// order.
    pub(super) verdicts: Vec<(SimTime, bool)>,
    pub(super) shard_lat: Vec<Vec<SimTime>>,
    pub(super) shard_serviced: Vec<usize>,
    pub(super) per_model: Vec<ModelAccum>,
    /// `slot_model[shard][local]` → fleet model index.
    slot_model: Vec<Vec<Option<usize>>>,
    shards: usize,
    pub(super) cm: ConfusionMatrix,
    pub(super) flagged: usize,
    pub(super) fully_covered: usize,
}

impl Aggregator {
    /// An aggregator over `topology`, its per-frame vectors reserved for
    /// a capture of `frames` frames.
    pub(super) fn new(topology: &ServeTopology, frames: usize) -> Self {
        let shards = topology.shards();
        // Invert home/standby slots into a per-shard local map.
        let mut slot_model: Vec<Vec<Option<usize>>> = (0..shards).map(|_| Vec::new()).collect();
        let mut place = |slot: Slot, model: usize| {
            let locals = &mut slot_model[slot.shard];
            if locals.len() <= slot.local {
                locals.resize(slot.local + 1, None);
            }
            locals[slot.local] = Some(model);
        };
        for (model, &home) in topology.homes.iter().enumerate() {
            place(home, model);
        }
        for (model, standby) in topology.standbys.iter().enumerate() {
            if let Some(sb) = standby {
                place(*sb, model);
            }
        }
        Aggregator {
            arrivals: Vec::with_capacity(frames),
            ring: VecDeque::new(),
            next_emit: 0,
            fused_lat: Vec::with_capacity(frames),
            verdicts: Vec::with_capacity(frames),
            shard_lat: vec![Vec::new(); shards],
            shard_serviced: vec![0; shards],
            per_model: vec![ModelAccum::default(); topology.models],
            slot_model,
            shards,
            cm: ConfusionMatrix::new(),
            flagged: 0,
            fully_covered: 0,
        }
    }

    pub(super) fn note_arrival(&mut self, rec: &LabeledFrame) -> usize {
        let ordinal = self.arrivals.len();
        self.arrivals.push(rec.timestamp);
        self.ring.push_back(FusedEntry {
            pending: self.shards,
            truth: rec.label.is_attack(),
            flagged: false,
            done: SimTime::ZERO,
            count: 0,
            model_flags: 0,
            consulted: 0,
        });
        ordinal
    }

    /// The ring entry of an in-flight ordinal.
    fn in_flight(&mut self, ordinal: usize) -> &mut FusedEntry {
        &mut self.ring[ordinal - self.next_emit]
    }

    pub(super) fn note_drop(&mut self, ordinal: usize) {
        self.in_flight(ordinal).pending -= 1;
    }

    /// Maps a board-local bitmask to fleet bundle order.
    fn to_fleet_mask(&self, shard: usize, local_mask: u64) -> u64 {
        let mut fleet = 0u64;
        let locals = &self.slot_model[shard];
        let mut mask = local_mask;
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if let Some(Some(m)) = locals.get(k) {
                if *m < 64 {
                    fleet |= 1 << m;
                }
            }
        }
        fleet
    }

    /// Absorbs one shard verdict into the fused/per-shard/per-model
    /// accounting and feeds confirmed-positive observations to the
    /// admission controller's value scorer.
    pub(super) fn absorb(&mut self, v: &ShardVerdict, ctl: &mut AdmissionController) {
        let fleet_flags = self.to_fleet_mask(v.shard, v.model_flags);
        let fleet_consulted = self.to_fleet_mask(v.shard, v.active_mask);
        let e = self.in_flight(v.ordinal);
        e.pending -= 1;
        e.flagged |= v.flagged;
        e.done = e.done.max(v.completed_at);
        e.count += 1;
        e.model_flags |= fleet_flags;
        e.consulted |= fleet_consulted;
        let truth = e.truth;
        self.shard_lat[v.shard].push(v.completed_at.saturating_sub(self.arrivals[v.ordinal]));
        self.shard_serviced[v.shard] += 1;

        let mut mask = fleet_consulted;
        while mask != 0 {
            let m = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let flagged = fleet_flags & (1 << m) != 0;
            let acc = &mut self.per_model[m];
            acc.consulted += 1;
            acc.cm.record(flagged, truth);
            if flagged {
                acc.flagged += 1;
                if truth {
                    acc.confirmed += 1;
                }
            }
            ctl.observe(m, v.ordinal, flagged, truth);
        }
    }

    /// Pops every resolved frame off the front of the ring and emits its
    /// fused verdict, in ordinal order; a frame every shard dropped gets
    /// none.
    pub(super) fn emit_ready(&mut self, sink: &mut dyn VerdictSink) {
        while let Some(&e) = self.ring.front() {
            if e.pending != 0 {
                break;
            }
            self.ring.pop_front();
            let ordinal = self.next_emit;
            self.next_emit += 1;
            if e.count == 0 {
                continue;
            }
            let arrival = self.arrivals[ordinal];
            self.cm.record(e.flagged, e.truth);
            if e.flagged {
                self.flagged += 1;
            }
            if e.count == self.shards {
                self.fully_covered += 1;
            }
            self.fused_lat.push(e.done.saturating_sub(arrival));
            self.verdicts.push((arrival, e.flagged));
            sink.verdict(&Verdict {
                ordinal,
                arrival,
                completed_at: e.done,
                flagged: e.flagged,
                truth_attack: e.truth,
                model_flags: e.model_flags,
                consulted: e.consulted,
                boards: e.count,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::serve::tests::quick_capture;
    use crate::serve::{
        ReplayConfig, ServeBackend, ServeHarness, ServeSession, ShardPush, ShardTotals,
    };
    use canids_can::frame::{CanFrame, CanId};
    use canids_dataset::generator::Dataset;
    use canids_dataset::record::Label;

    /// A bookkeeping-only backend, its own session: one model per shard,
    /// every frame admitted, and every verdict held back until `finish`,
    /// as a DMA window that never fills delivers them.
    struct Deferred {
        topology: ServeTopology,
        arrivals: Vec<SimTime>,
    }

    impl ServeBackend for Deferred {
        type Session<'s> = &'s mut Deferred;

        fn label(&self) -> String {
            "deferred".to_owned()
        }

        fn models(&self) -> usize {
            self.topology.models
        }

        fn open(&mut self, _config: &ReplayConfig) -> Result<&mut Deferred, CoreError> {
            self.arrivals.clear();
            Ok(self)
        }
    }

    impl ServeSession for &mut Deferred {
        fn topology(&self) -> &ServeTopology {
            &self.topology
        }

        fn push_shard(
            &mut self,
            shard: usize,
            _ordinal: usize,
            rec: &LabeledFrame,
        ) -> Result<ShardPush, CoreError> {
            if shard == 0 {
                self.arrivals.push(rec.timestamp);
            }
            Ok(ShardPush {
                delivered: rec.timestamp,
                admitted: true,
            })
        }

        fn drain_verdicts(&mut self, _shard: usize, _out: &mut Vec<ShardVerdict>) {}

        fn backlog(&self, _shard: usize) -> usize {
            0
        }

        fn active_models(&self, _shard: usize) -> usize {
            1
        }

        fn set_slot_active(&mut self, _slot: Slot, _active: bool) {}

        fn finish(self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
            let shards = self.topology.shards();
            for shard in 0..shards {
                for (ordinal, &completed_at) in self.arrivals.iter().enumerate() {
                    out.push(ShardVerdict {
                        shard,
                        ordinal,
                        completed_at,
                        flagged: false,
                        model_flags: 0,
                        active_mask: 1,
                    });
                }
            }
            let totals = ShardTotals {
                serviced: self.arrivals.len(),
                ..ShardTotals::default()
            };
            Ok(vec![totals; shards])
        }
    }

    #[test]
    fn deferred_verdicts_fuse_across_256_shards() {
        // The per-frame pending-shard count must hold any shard count: a
        // frame is fused only once all 256 shards have answered it.
        let shards = 256;
        let topology = ServeTopology {
            models: shards,
            homes: (0..shards).map(|shard| Slot { shard, local: 0 }).collect(),
            standbys: vec![None; shards],
            model_names: (0..shards).map(|m| format!("model-{m}")).collect(),
            shard_names: (0..shards).map(|b| format!("board-{b}")).collect(),
            shard_models: vec![1; shards],
            queue_depths: vec![64; shards],
        };
        let capture = Dataset::from_records(quick_capture(false, 17).records()[..20].to_vec());
        let mut verdicts: Vec<Verdict> = Vec::new();
        let backend = Deferred {
            topology,
            arrivals: Vec::new(),
        };
        let report = ServeHarness::new(backend)
            .replay_with(&capture, &ReplayConfig::default(), &mut verdicts)
            .unwrap();
        assert_eq!(verdicts.len(), 20);
        assert!(verdicts.iter().all(|v| v.boards == shards));
        assert_eq!(report.serviced, 20);
        assert_eq!(report.fully_covered, 20);
    }

    #[test]
    fn fusion_ring_matches_a_per_ordinal_fold() {
        // Shard 0 homes models 0 and 1, shards 1 and 2 one model each.
        let topology = ServeTopology {
            models: 4,
            homes: vec![
                Slot { shard: 0, local: 0 },
                Slot { shard: 0, local: 1 },
                Slot { shard: 1, local: 0 },
                Slot { shard: 2, local: 0 },
            ],
            standbys: vec![None; 4],
            model_names: (0..4).map(|m| format!("model-{m}")).collect(),
            shard_names: (0..3).map(|b| format!("board-{b}")).collect(),
            shard_models: vec![2, 1, 1],
            queue_depths: vec![64; 3],
        };
        // Board-local masks in fleet bundle order, written out by hand.
        let fleet_mask = |shard: usize, local: u64| match shard {
            0 => local & 0b11,
            1 => (local & 1) << 2,
            _ => (local & 1) << 3,
        };
        let frame = CanFrame::new(CanId::standard(0x100).unwrap(), &[]).unwrap();
        let arrival = |o: usize| SimTime::from_micros(10 * (o as u64 + 1));
        let verdict = |shard: usize, o: usize| {
            let active_mask = if shard == 0 && o == 4 {
                0b01
            } else {
                0b11 >> shard.min(1)
            };
            let model_flags = ((o + shard) % 3) as u64 & active_mask;
            ShardVerdict {
                shard,
                ordinal: o,
                completed_at: arrival(o) + SimTime::from_micros(((shard * 7 + o * 3) % 11) as u64),
                flagged: model_flags != 0,
                model_flags,
                active_mask,
            }
        };

        let frames = 8;
        let mut agg = Aggregator::new(&topology, frames);
        let mut ctl = AdmissionController::new(&ReplayConfig::default(), &topology);
        let mut fed: Vec<ShardVerdict> = Vec::new();
        let mut emitted: Vec<Verdict> = Vec::new();
        let (mut window1, mut window2) = (Vec::new(), Vec::new());
        for o in 0..=frames {
            let mut landing = Vec::new();
            if o == frames {
                // Finish: both shards land what they still hold.
                landing.extend(window1.drain(..).chain(window2.drain(..)));
            } else {
                let label = [Label::Dos, Label::Normal][o % 2];
                let rec = LabeledFrame::new(arrival(o), frame, label);
                assert_eq!(agg.note_arrival(&rec), o);
            }
            if o == 5 {
                // Dropped by every shard.
                (0..3).for_each(|_| agg.note_drop(o));
            } else if o < frames {
                if o == 3 {
                    agg.note_drop(o);
                } else {
                    landing.push(verdict(0, o));
                }
                // Shard 1 lands windows of two, newest first.
                window1.push(verdict(1, o));
                if window1.len() == 2 {
                    landing.extend(window1.drain(..).rev());
                }
                // Shard 2's first window lands late, after frame 6.
                window2.push(verdict(2, o));
                if o == 6 {
                    landing.extend(window2.drain(..).rev());
                }
            }
            for v in &landing {
                agg.absorb(v, &mut ctl);
            }
            fed.extend(landing);
            agg.emit_ready(&mut emitted);
            if o < 6 {
                assert!(emitted.is_empty(), "shard 2 still holds frame 0");
                assert_eq!(agg.ring.len(), o + 1);
            }
        }
        assert!(agg.ring.is_empty(), "nothing is left in flight");

        assert!(emitted.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
        let expected: Vec<usize> = (0..frames).filter(|&o| o != 5).collect();
        assert_eq!(
            emitted.iter().map(|v| v.ordinal).collect::<Vec<_>>(),
            expected
        );
        for v in &emitted {
            let mine: Vec<&ShardVerdict> = fed.iter().filter(|s| s.ordinal == v.ordinal).collect();
            assert_eq!(v.boards, mine.len());
            assert_eq!(v.boards, if v.ordinal == 3 { 2 } else { 3 });
            assert_eq!(v.flagged, mine.iter().any(|s| s.flagged));
            let flags = mine
                .iter()
                .fold(0, |m, s| m | fleet_mask(s.shard, s.model_flags));
            let consulted = mine
                .iter()
                .fold(0, |m, s| m | fleet_mask(s.shard, s.active_mask));
            assert_eq!(v.model_flags, flags);
            assert_eq!(v.consulted, consulted);
            let done = mine.iter().map(|s| s.completed_at).max().unwrap();
            assert_eq!(v.completed_at, done);
            assert_eq!(v.arrival, arrival(v.ordinal));
            assert_eq!(v.truth_attack, v.ordinal % 2 == 0);
        }
        assert_eq!(agg.verdicts.len(), emitted.len());
        assert_eq!(agg.fully_covered, emitted.len() - 1);
    }

    #[test]
    fn verdict_helpers_and_sink_impls() {
        let v = Verdict {
            ordinal: 3,
            arrival: SimTime::from_micros(10),
            completed_at: SimTime::from_micros(30),
            flagged: true,
            truth_attack: false,
            model_flags: 0b100,
            consulted: 0b111,
            boards: 2,
        };
        assert!(!v.correct());
        assert!(v.model_flagged(2) && !v.model_flagged(0));
        assert!(v.model_consulted(1) && !v.model_consulted(3));
        let mut collected: Vec<Verdict> = Vec::new();
        collected.verdict(&v);
        assert_eq!(collected.len(), 1);
        let mut count = 0usize;
        {
            let mut closure = |_: &Verdict| count += 1;
            closure.verdict(&v);
        }
        assert_eq!(count, 1);
    }
}
