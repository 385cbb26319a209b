//! The unified serving API: one [`ServeHarness`] over every serving
//! substrate this crate models.
//!
//! * [`ServeBackend`] — the substrate trait, with three
//!   implementations: [`SoftwareBackend`]
//!   ([`crate::stream::StreamingEvaluator`] serving at the modelled
//!   [`SOFTWARE_FRAME_COST`]), [`EcuBackend`]
//!   (one simulated N-detector ECU via
//!   [`crate::deploy::MultiIdsDeployment`] + `EcuStream`) and
//!   [`FleetBackend`] ([`crate::fleet::FleetDeployment`] + gateway
//!   forwarding through the event-driven [`crate::net`] runtime).
//! * [`ServeHarness`] — paces one capture through a backend under a
//!   unified [`ReplayConfig`] ([`Pacing`],
//!   [`SchedPolicy`](canids_soc::ecu::SchedPolicy),
//!   [`AdmissionPolicy`], [`OverloadThresholds`]) and aggregates one
//!   composable [`ServeReport`] (shared
//!   [`LatencyStats`](crate::report::LatencyStats)/[`EnergyStats`]/drop
//!   accounting, optional
//!   per-model and per-board sections, admission event log). Several
//!   scenarios are several [`ServeHarness::replay`] calls; many capture
//!   streams served at once are a [`crate::population::Population`].
//! * [`Verdict`] / [`VerdictSink`] — the typed per-frame verdict
//!   stream every replay emits. Verdicts carry per-model flag masks and
//!   ground truth, which is what makes **value-driven admission**
//!   possible: [`AdmissionPolicy::ShedLowestMeasuredValue`] sheds the
//!   model with the lowest *measured* detection contribution (windowed
//!   confirmed-positive count from the verdict stream) instead of the
//!   lowest static priority — a never-firing model is shed first even
//!   if someone labelled it important.
//!
//! Admission governance (overload hysteresis, shed/readmit/migrate)
//! lives in the harness, not in any one backend, so every substrate that
//! exposes model activation gets graceful degradation for free.
//!
//! The harness fuses each frame's shard verdicts in a ring of the frames
//! still awaiting a verdict, indexed by ordinal offset: each shard
//! verdict or drop costs O(1), the ring holds only the frames some shard
//! still has in flight (queued, batched or in transit) rather than the
//! whole capture, and resolved frames leave its front in ordinal order.
//!
//! Every backend serves on one clock, the simulated [`SimTime`]: the
//! ECU and fleet book their cycle and transport models, the software
//! backend books [`SOFTWARE_FRAME_COST`]. A report is therefore a pure
//! function of capture, models and configuration, whatever the host.
//!
//! One file per job, every public item re-exported here:
//!
//! | File | Owns |
//! |---|---|
//! | `mod.rs` | the session traits, the shard-level types they trade in, and [`ServeHarness`] |
//! | `config.rs` | [`ReplayConfig`] and its parts |
//! | `verdict.rs` | [`Verdict`], [`VerdictSink`] and the fusion ring |
//! | `admission.rs` | the admission controller, its [`FleetEvent`] log, and the windowed value scorer it shares with the population ledger |
//! | `report.rs` | [`ServeReport`] and `finalize`, which builds it |
//! | `software.rs` | [`SoftwareBackend`] and [`SOFTWARE_FRAME_COST`] |
//! | `board.rs` | [`EcuBackend`], [`FleetBackend`] and the [`BoardSession`] both open |

mod admission;
mod board;
mod config;
mod report;
mod software;
mod verdict;

pub use admission::{FleetAction, FleetEvent};
pub use board::{BoardSession, EcuBackend, FleetBackend};
pub use config::{
    AdmissionPolicy, FleetTransport, OverloadThresholds, Pacing, ReplayConfig, ShardWorkers,
};
pub use report::{BoardServeReport, ModelServeReport, ServeReport};
pub use software::{SoftwareBackend, SoftwareSession, SOFTWARE_FRAME_COST};
pub use verdict::{Verdict, VerdictSink};

pub(crate) use admission::ValueScore;
pub(crate) use board::PaperFeaturizer;
pub(crate) use report::offered_rate;

use std::time::Duration;

use canids_can::time::SimTime;
use canids_dataset::generator::Dataset;
use canids_dataset::record::LabeledFrame;
use canids_dataset::stream::paced_records;

use admission::{note_admission_events, AdmissionController};
use report::finalize;
use verdict::{Aggregator, NullSink};

use crate::error::CoreError;
use crate::fleet::Slot;
use crate::net::GatewayLoad;
use crate::report::EnergyStats;
use crate::telemetry::{Counter, Probe};

/// Static shape of one serving session: where every model runs, per-
/// shard names/FIFO depths, and model display names — everything the
/// harness needs to aggregate reports and drive admission without
/// knowing the backend.
///
/// # Example
///
/// ```
/// use canids_core::serve::ServeTopology;
///
/// let topo = ServeTopology::single_shard(&["dos-ids".into(), "fuzzy-ids".into()], 64);
/// assert_eq!(topo.shards(), 1);
/// assert_eq!(topo.models, 2);
/// assert_eq!(topo.homes[1].local, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ServeTopology {
    /// Fleet model count.
    pub models: usize,
    /// Home slot per model, in fleet bundle order.
    pub homes: Vec<Slot>,
    /// Warm-standby slot per model (`None` without one).
    pub standbys: Vec<Option<Slot>>,
    /// Model display names, in fleet bundle order.
    pub model_names: Vec<String>,
    /// Shard (board) display names, in shard order.
    pub shard_names: Vec<String>,
    /// Models homed per shard.
    pub shard_models: Vec<usize>,
    /// Software-FIFO depth per shard.
    pub queue_depths: Vec<usize>,
}

impl ServeTopology {
    /// A one-shard topology hosting `names.len()` models behind one
    /// FIFO of `queue_depth` — the shape of the software and single-ECU
    /// backends.
    pub fn single_shard(names: &[String], queue_depth: usize) -> Self {
        ServeTopology {
            models: names.len(),
            homes: (0..names.len())
                .map(|local| Slot { shard: 0, local })
                .collect(),
            standbys: vec![None; names.len()],
            model_names: names.to_vec(),
            shard_names: vec!["board".to_owned()],
            shard_models: vec![names.len()],
            queue_depths: vec![queue_depth.max(1)],
        }
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.shard_names.len()
    }
}

/// Outcome of offering one frame to one shard.
///
/// # Example
///
/// ```
/// use canids_core::serve::ShardPush;
/// use canids_can::time::SimTime;
///
/// let p = ShardPush { delivered: SimTime::from_micros(140), admitted: true };
/// assert!(p.admitted);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPush {
    /// When the frame reached the shard (gateway forwarding included).
    pub delivered: SimTime,
    /// `false` when the shard's FIFO was full and the frame was dropped.
    pub admitted: bool,
}

/// One shard-local verdict drained from a backend session, in
/// board-local model-mask coordinates (the harness maps them to fleet
/// bundle order through the topology).
///
/// # Example
///
/// ```
/// use canids_core::serve::ShardVerdict;
/// use canids_can::time::SimTime;
///
/// let v = ShardVerdict {
///     shard: 0,
///     ordinal: 7,
///     completed_at: SimTime::from_micros(300),
///     flagged: true,
///     model_flags: 0b10,
///     active_mask: 0b11,
/// };
/// assert!(v.flagged && v.model_flags & 0b10 != 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardVerdict {
    /// Shard that produced the verdict.
    pub shard: usize,
    /// Frame ordinal the verdict answers.
    pub ordinal: usize,
    /// When the verdict became available.
    pub completed_at: SimTime,
    /// `true` when any consulted model flagged the frame.
    pub flagged: bool,
    /// Board-local per-model flag bitmask.
    pub model_flags: u64,
    /// Board-local consultation bitmask (active models at serving time).
    pub active_mask: u64,
}

/// Per-shard closing totals of one session.
///
/// # Example
///
/// ```
/// use canids_core::serve::ShardTotals;
///
/// let t = ShardTotals { dropped: 0, serviced: 128, energy: None, busy_wall: None };
/// assert_eq!(t.serviced, 128);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardTotals {
    /// Frames this shard dropped at its FIFO.
    pub dropped: u64,
    /// Frames this shard serviced.
    pub serviced: usize,
    /// Board power/energy accounting (absent on the software backend).
    pub energy: Option<EnergyStats>,
    /// Modelled busy time of a software shard on the sim clock: the sum
    /// of its frames' [`SOFTWARE_FRAME_COST`] bookings, which
    /// [`ServeReport::sustained_fps`] divides into. Absent on simulated
    /// backends. Despite the name, no host clock is read.
    pub busy_wall: Option<Duration>,
}

/// An open serving session on a [`ServeBackend`]: the harness pushes
/// paced frames shard by shard, drains shard verdicts, reads backlogs
/// and toggles model activation for admission governance.
///
/// # Example
///
/// ```no_run
/// use canids_core::serve::{ReplayConfig, ServeBackend, ServeSession, SoftwareBackend};
/// use canids_qnn::prelude::*;
///
/// let model = QuantMlp::new(MlpConfig::paper_4bit())?.export()?;
/// let mut backend = SoftwareBackend::single(model);
/// let session = backend.open(&ReplayConfig::default())?;
/// assert_eq!(session.topology().shards(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait ServeSession {
    /// The session's static shape.
    fn topology(&self) -> &ServeTopology;

    /// Offers one frame to shard `shard`.
    ///
    /// # Errors
    ///
    /// Driver/bus errors of the underlying substrate.
    fn push_shard(
        &mut self,
        shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError>;

    /// Appends verdicts that became available on `shard` since the last
    /// drain (a DMA window lands all at once).
    fn drain_verdicts(&mut self, shard: usize, out: &mut Vec<ShardVerdict>);

    /// Frames currently occupying shard `shard`'s FIFO slots.
    fn backlog(&self, shard: usize) -> usize;

    /// Models shard `shard` currently consults.
    fn active_models(&self, shard: usize) -> usize;

    /// Enables or disables the model at `slot` for subsequent pushes.
    fn set_slot_active(&mut self, slot: Slot, active: bool);

    /// Drains any remaining network events and returns the per-gateway
    /// queue/occupancy section plus network fault events for the
    /// report's event log. Non-networked backends return empty lists.
    fn network(&mut self) -> (Vec<GatewayLoad>, Vec<FleetEvent>) {
        (Vec::new(), Vec::new())
    }

    /// Attaches a telemetry [`Probe`] for the rest of the session: the
    /// substrate records per-stage spans (inference dispatches, DMA
    /// windows, gateway hops) through it. Default: ignore the probe
    /// (an uninstrumented substrate still replays correctly — it just
    /// contributes no stage spans).
    fn attach_probe(&mut self, _probe: Probe) {}

    /// Flushes trailing state (e.g. a partial DMA window), appends the
    /// remaining verdicts and returns per-shard totals. By then every
    /// frame a shard admitted has had exactly one verdict, from a drain
    /// or from here: the harness holds a frame awaiting a verdict until
    /// each shard has answered or dropped it.
    ///
    /// # Errors
    ///
    /// Driver/bus errors from the trailing flush.
    fn finish(self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError>
    where
        Self: Sized;
}

/// A serving substrate the [`ServeHarness`] can replay captures
/// against. Implemented by [`SoftwareBackend`], [`EcuBackend`] and
/// [`FleetBackend`].
///
/// # Example
///
/// ```no_run
/// use canids_core::serve::{ReplayConfig, ServeBackend, ServeHarness, SoftwareBackend};
/// use canids_qnn::prelude::*;
///
/// let model = QuantMlp::new(MlpConfig::paper_4bit())?.export()?;
/// let backend = SoftwareBackend::single(model);
/// assert_eq!(backend.label(), "software");
/// assert_eq!(backend.models(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait ServeBackend {
    /// The session type a replay runs through.
    type Session<'s>: ServeSession
    where
        Self: 's;

    /// Short substrate label for reports (`"software"`, `"ecu"`,
    /// `"fleet"`).
    fn label(&self) -> String;

    /// Models this backend serves (fleet bundle order).
    fn models(&self) -> usize;

    /// Opens a fresh serving session under `config`.
    ///
    /// # Errors
    ///
    /// Substrate construction errors (ECU attach, empty fleet, …).
    fn open(&mut self, config: &ReplayConfig) -> Result<Self::Session<'_>, CoreError>;
}

/// The single entry point of the serving API: replays captures through
/// any [`ServeBackend`] under one [`ReplayConfig`], streaming
/// [`Verdict`]s to an optional [`VerdictSink`] and aggregating one
/// [`ServeReport`].
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{Pacing, ReplayConfig, ServeHarness, SoftwareBackend};
///
/// let trained = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(SoftwareBackend::single(trained.detector.int_mlp.clone()));
/// let report = harness.replay(
///     &capture,
///     &ReplayConfig::default().with_pacing(Pacing::Saturated),
/// )?;
/// assert_eq!(report.offered, capture.len());
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ServeHarness<B: ServeBackend> {
    backend: B,
}

impl<B: ServeBackend> ServeHarness<B> {
    /// Wraps a backend.
    pub fn new(backend: B) -> Self {
        ServeHarness { backend }
    }

    /// Replays `capture` under `config`, discarding the verdict stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::PriorityMismatch`] when the admission policy's
    /// priorities do not cover every model; backend/driver errors
    /// otherwise.
    pub fn replay(
        &mut self,
        capture: &Dataset,
        config: &ReplayConfig,
    ) -> Result<ServeReport, CoreError> {
        self.replay_with(capture, config, &mut NullSink)
    }

    /// Replays `capture` under `config`, delivering every fused
    /// per-frame [`Verdict`] to `sink` in ordinal order.
    ///
    /// # Errors
    ///
    /// [`CoreError::PriorityMismatch`] when the admission policy's
    /// priorities do not cover every model; backend/driver errors
    /// otherwise.
    pub fn replay_with(
        &mut self,
        capture: &Dataset,
        config: &ReplayConfig,
        sink: &mut dyn VerdictSink,
    ) -> Result<ServeReport, CoreError> {
        self.replay_arrivals(capture, config, sink)
            .map(|(report, _)| report)
    }

    /// [`replay_with`](Self::replay_with), also returning every frame's
    /// arrival time in ordinal order, dropped frames included: a
    /// population lane stamps its frame records with them instead of
    /// pacing the capture a second time.
    pub(crate) fn replay_arrivals(
        &mut self,
        capture: &Dataset,
        config: &ReplayConfig,
        sink: &mut dyn VerdictSink,
    ) -> Result<(ServeReport, Vec<SimTime>), CoreError> {
        if let Some(p) = config.admission.priorities() {
            let expected = self.backend.models();
            if p.len() != expected {
                return Err(CoreError::PriorityMismatch {
                    expected,
                    actual: p.len(),
                });
            }
        }
        let backend_label = self.backend.label();
        let mut session = self.backend.open(config)?;
        let probe = config.telemetry.as_ref().map(Probe::new);
        if let Some(p) = &probe {
            session.attach_probe(p.clone());
        }
        let topology = session.topology().clone();
        let shards = topology.shards();
        let mut ctl = AdmissionController::new(config, &topology);
        let mut agg = Aggregator::new(&topology, capture.len());
        let mut fresh: Vec<ShardVerdict> = Vec::new();

        let records: Box<dyn Iterator<Item = LabeledFrame> + '_> = match config.pacing {
            Pacing::Saturated | Pacing::FdClass => {
                Box::new(paced_records(capture, config.wire_bitrate()))
            }
            Pacing::AsRecorded => Box::new(capture.iter().copied()),
        };
        for rec in records {
            let ordinal = agg.note_arrival(&rec);
            ctl.tick(ordinal);
            ctl.activate_due(rec.timestamp, &mut session);
            for b in 0..shards {
                let push = session.push_shard(b, ordinal, &rec)?;
                if !push.admitted {
                    agg.note_drop(ordinal);
                }
                fresh.clear();
                session.drain_verdicts(b, &mut fresh);
                for v in &fresh {
                    agg.absorb(v, &mut ctl);
                }
                let before = ctl.events.len();
                ctl.govern(b, push.delivered, &mut session);
                if let Some(p) = &probe {
                    note_admission_events(p, b as u32, &ctl.events[before..]);
                }
            }
            agg.emit_ready(sink);
        }
        let (gateways, net_events) = session.network();
        fresh.clear();
        let totals = session.finish(&mut fresh)?;
        for v in &fresh {
            agg.absorb(v, &mut ctl);
        }
        agg.emit_ready(sink);
        debug_assert!(agg.ring.is_empty(), "every shard resolves every frame");

        let telemetry = probe.map(|p| {
            p.add(Counter::FramesOffered, agg.arrivals.len() as u64);
            p.add(
                Counter::FramesDropped,
                totals.iter().map(|t| t.dropped).sum(),
            );
            p.add(Counter::FramesServiced, agg.verdicts.len() as u64);
            p.take_report()
        });
        let mut events = ctl.events;
        events.extend(net_events);
        let mut report = finalize(
            backend_label,
            config,
            &topology,
            &mut agg,
            &totals,
            events,
            gateways,
        );
        report.telemetry = telemetry;
        Ok((report, agg.arrivals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{deploy_multi_ids, DetectorBundle};
    use crate::telemetry::{Stage, TelemetryConfig};
    use canids_dataflow::ip::CompileConfig;
    use canids_dataset::attacks::{AttackKind, AttackProfile, BurstSchedule};
    use canids_dataset::generator::{DatasetBuilder, TrafficConfig};
    use canids_qnn::export::IntegerMlp;
    use canids_qnn::mlp::{MlpConfig, QuantMlp};
    use canids_soc::ecu::SchedPolicy;

    pub(super) fn untrained_model(seed: u64) -> IntegerMlp {
        QuantMlp::new(MlpConfig {
            seed,
            ..MlpConfig::paper_4bit()
        })
        .unwrap()
        .export()
        .unwrap()
    }

    pub(super) fn quick_capture(attack: bool, seed: u64) -> Dataset {
        DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(200),
            attack: attack.then(|| AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            seed,
            ..TrafficConfig::default()
        })
        .build()
    }

    /// Every deterministic field of a report, with float fields rendered
    /// via their exact bit patterns — the latency and sustained figures
    /// included, since every backend books them on the sim clock.
    fn fingerprint(r: &ServeReport) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{} {} {} {} {} {:?} fps:{:x} {:?} {:?} {} {} lat:{:?} sustained:{:?}",
            r.offered,
            r.serviced,
            r.dropped,
            r.flagged,
            r.fully_covered,
            r.cm,
            r.offered_fps.to_bits(),
            r.first_arrival,
            r.last_arrival,
            r.events.len(),
            r.boards.len(),
            r.latency,
            r.sustained_fps.map(f64::to_bits),
        );
        for (t, f) in &r.verdicts {
            let _ = write!(s, "|{t:?}{f}");
        }
        for m in &r.per_model {
            let _ = write!(
                s,
                "|m{} {} {} {} {:?}",
                m.model, m.consulted, m.flagged, m.confirmed_positives, m.cm
            );
        }
        s
    }

    #[test]
    fn telemetry_never_perturbs_the_report() {
        // Observability must be free: the same replay with and without a
        // probe attached produces a bit-identical report, timing
        // included, on the simulated ECU path and on the software path
        // (whose service time is modelled on the same sim clock).
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, untrained_model(1)),
            DetectorBundle::new(AttackKind::Fuzzy, untrained_model(2)),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let capture = quick_capture(true, 21);
        let config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 16 });
        let traced = config.clone().with_telemetry(TelemetryConfig::default());
        let off = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &config)
            .unwrap();
        let on = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &traced)
            .unwrap();
        assert!(off.telemetry.is_none() && on.telemetry.is_some());
        assert_eq!(fingerprint(&off), fingerprint(&on), "ecu");

        let model = untrained_model(3);
        let sw_config = ReplayConfig::default();
        let sw_traced = sw_config.clone().with_telemetry(TelemetryConfig::default());
        let sw_off = ServeHarness::new(SoftwareBackend::single(model.clone()))
            .replay(&capture, &sw_config)
            .unwrap();
        let sw_on = ServeHarness::new(SoftwareBackend::single(model))
            .replay(&capture, &sw_traced)
            .unwrap();
        assert_eq!(fingerprint(&sw_off), fingerprint(&sw_on), "software");
    }

    #[test]
    fn telemetry_spans_cover_the_serving_stages() {
        // ECU path: per-frame infer spans plus one dma_window span per
        // drained batch, all on the virtual clock, with frame counters
        // tied to the report totals.
        let bundles = vec![DetectorBundle::new(AttackKind::Dos, untrained_model(4))];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let capture = quick_capture(true, 22);
        let traced = ReplayConfig::default().with_telemetry(TelemetryConfig::default());
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &traced)
            .unwrap();
        let t = report.telemetry.as_ref().unwrap();
        let infer = t.stage_stats(Stage::Infer);
        assert_eq!(
            infer.count as usize, report.serviced,
            "one infer span per serviced frame on the per-message policy"
        );
        assert_eq!(
            t.metrics.counter(Counter::FramesOffered) as usize,
            report.offered
        );
        assert_eq!(
            t.metrics.counter(Counter::FramesServiced) as usize,
            report.serviced
        );
        assert_eq!(t.metrics.counter(Counter::FramesDropped), report.dropped);
        assert!(t.spans.iter().all(|s| s.end >= s.start));

        // Batched DMA policy: the window transfer is the profiled unit.
        let batched = ServeHarness::new(deployment.serve_backend())
            .replay(
                &capture,
                &traced
                    .clone()
                    .with_policy(SchedPolicy::DmaBatch { batch: 32 }),
            )
            .unwrap();
        let tb = batched.telemetry.as_ref().unwrap();
        let dma = tb.stage_stats(Stage::DmaWindow);
        assert!(dma.count > 0, "batched replay drains DMA windows");
        assert!(dma.count as usize <= batched.serviced);

        // Software path: one modelled infer span per dispatch — one per
        // serviced frame at batch 1, one per window at batch 32 — each
        // as long as its frames' booked service time.
        let model = untrained_model(5);
        for batch in [1usize, 32] {
            let sw = ServeHarness::new(SoftwareBackend::single(model.clone()))
                .replay(
                    &capture,
                    &ReplayConfig::default()
                        .with_batch(batch)
                        .with_telemetry(TelemetryConfig::default()),
                )
                .unwrap();
            let infer = sw.telemetry.as_ref().unwrap().stage_stats(Stage::Infer);
            assert_eq!(sw.dropped, 0, "batch {batch}");
            assert_eq!(
                infer.count as usize,
                sw.serviced.div_ceil(batch),
                "batch {batch}"
            );
            assert_eq!(
                infer.total_ns,
                SOFTWARE_FRAME_COST.mul_u64(sw.serviced as u64).as_nanos(),
                "batch {batch}"
            );
        }
    }

    /// Kernel runs and memo hits from a traced report's metrics.
    fn kernel_counts(metrics: &crate::telemetry::MetricsRegistry) -> (u64, u64) {
        (
            metrics.counter(Counter::KernelRuns),
            metrics.counter(Counter::KernelMemoHits),
        )
    }

    /// Frames served times models consulted: one per `(frame, model)`
    /// pair the report's per-model sections count.
    fn consulted(r: &ServeReport) -> u64 {
        r.per_model.iter().map(|m| m.consulted as u64).sum()
    }

    #[test]
    fn kernel_counters_cover_every_consulted_frame() {
        // Every (frame, consulted model) pair is one kernel run or one
        // memo hit, on the software path and under every board policy,
        // and both counts repeat exactly run to run.
        let models: Vec<IntegerMlp> = (0..2).map(|i| untrained_model(70 + i)).collect();
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, models[0].clone()),
            DetectorBundle::new(AttackKind::Fuzzy, models[1].clone()),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let capture = quick_capture(true, 23);
        let traced = ReplayConfig::default().with_telemetry(TelemetryConfig::default());
        let configs = [
            traced.clone(),
            traced.clone().with_batch(32),
            traced.clone().with_policy(SchedPolicy::Sequential),
            traced.clone().with_policy(SchedPolicy::InterruptPerFrame),
            traced
                .clone()
                .with_policy(SchedPolicy::DmaBatch { batch: 32 }),
        ];
        for (i, config) in configs.iter().enumerate() {
            let replay = || {
                if i < 2 {
                    ServeHarness::new(SoftwareBackend::new(models.clone())).replay(&capture, config)
                } else {
                    ServeHarness::new(deployment.serve_backend()).replay(&capture, config)
                }
                .unwrap()
            };
            let (first, again) = (replay(), replay());
            let counts = kernel_counts(&first.telemetry.as_ref().unwrap().metrics);
            let (runs, hits) = counts;
            assert_eq!(runs + hits, consulted(&first), "config {i}");
            assert_eq!(first.per_model.len(), 2, "config {i}");
            assert!(hits > runs, "config {i}: a DoS flood repeats its frame");
            assert_eq!(
                kernel_counts(&again.telemetry.as_ref().unwrap().metrics),
                counts,
                "config {i}"
            );
        }
    }

    #[test]
    fn kernel_counters_are_invariant_across_population_worker_counts() {
        use crate::population::{Population, PopulationConfig, TenantStream};

        let model = untrained_model(72);
        let population = Population::with_tenants(
            (0..4u64)
                .map(|t| TenantStream::new(format!("car-{t}"), quick_capture(t % 2 == 0, 30 + t)))
                .collect(),
        );
        let counts = |workers| {
            let report = population
                .serve(
                    || Ok(SoftwareBackend::single(model.clone())),
                    &PopulationConfig::default()
                        .with_replay(
                            ReplayConfig::default().with_telemetry(TelemetryConfig::default()),
                        )
                        .with_workers(workers),
                )
                .unwrap();
            let served: u64 = report.tenants.iter().map(|t| consulted(&t.serve)).sum();
            let counts = kernel_counts(&report.telemetry.as_ref().unwrap().metrics);
            assert_eq!(counts.0 + counts.1, served, "{workers:?}");
            counts
        };
        let one = counts(ShardWorkers::Fixed(1));
        assert!(one.1 > 0, "DoS tenants repeat their flood frame");
        assert_eq!(counts(ShardWorkers::Fixed(2)), one);
        assert_eq!(counts(ShardWorkers::Auto), one);
    }

    #[test]
    fn priorities_must_cover_every_model() {
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, untrained_model(1)),
            DetectorBundle::new(AttackKind::Fuzzy, untrained_model(2)),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let capture = quick_capture(false, 5);
        let mut harness = ServeHarness::new(deployment.serve_backend());
        let err = harness
            .replay(
                &capture,
                &ReplayConfig::default().with_admission(AdmissionPolicy::ShedLowestValue {
                    priorities: vec![1],
                }),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::PriorityMismatch {
                expected: 2,
                actual: 1
            }
        ));
    }
}
