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
//!   unified [`ReplayConfig`] ([`Pacing`], [`SchedPolicy`],
//!   [`AdmissionPolicy`], [`OverloadThresholds`]) and aggregates one
//!   composable [`ServeReport`] (shared
//!   [`LatencyStats`]/[`EnergyStats`]/drop accounting, optional
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
//! Every backend serves on one clock, the simulated [`SimTime`]: the
//! ECU and fleet book their cycle and transport models, the software
//! backend books [`SOFTWARE_FRAME_COST`]. A report is therefore a pure
//! function of capture, models and configuration, whatever the host.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use canids_can::frame::CanFrame;
use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::generator::Dataset;
use canids_dataset::record::LabeledFrame;
use canids_dataset::stream::paced_records;
use canids_qnn::export::IntegerMlp;
use canids_qnn::metrics::ConfusionMatrix;
use canids_qnn::QnnError;
use canids_soc::ecu::{EcuConfig, EcuStream, IdsEcu, SchedPolicy, ServiceQueue};

use crate::deploy::MultiIdsDeployment;
use crate::error::CoreError;
use crate::fleet::{FleetDeployment, Slot};
use crate::net::{FleetNet, GatewayLoad, NetConfig, NetOutcome};
use crate::report::{EnergyStats, LatencyStats};
use crate::stream::{StreamVerdict, StreamingEvaluator};
use crate::telemetry::{Counter, Probe, Stage, TelemetryConfig, TelemetryReport};

/// How replay arrivals are paced onto the serving substrate.
///
/// # Example
///
/// ```
/// use canids_core::serve::{Pacing, ReplayConfig};
/// use canids_can::timing::Bitrate;
///
/// let config = ReplayConfig {
///     pacing: Pacing::FdClass,
///     ..ReplayConfig::default()
/// };
/// // FD-class pacing overrides the configured wire rate.
/// assert_eq!(config.wire_bitrate(), Bitrate::new(5_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Back-to-back wire pacing at [`ReplayConfig::bitrate`] — the
    /// worst-case offered load of a saturated bus.
    #[default]
    Saturated,
    /// Saturated pacing at a CAN-FD-class 5 Mb/s data rate (the
    /// arbitration-phase format is unchanged, only the offered frame
    /// rate scales).
    FdClass,
    /// The capture's own timestamps — bursty captures exercise overload
    /// onset *and* subsidence, which saturated pacing cannot.
    AsRecorded,
}

/// How the serving side reacts to sustained overload, instead of the
/// silent FIFO drops a saturated queue defaults to.
///
/// # Example
///
/// ```
/// use canids_core::serve::AdmissionPolicy;
///
/// let measured = AdmissionPolicy::ShedLowestMeasuredValue {
///     window: 256,
///     priorities: vec![2, 1],
/// };
/// assert_eq!(measured.label(), "shed-lowest-measured-value");
/// assert_eq!(AdmissionPolicy::DropFrames.label(), "drop-frames");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Today's behaviour: a saturated queue drops frames at its FIFO.
    DropFrames,
    /// Detach the lowest-**static**-priority model of the overloaded
    /// shard (its IP stays resident) and re-admit it once the shard has
    /// drained — coverage degrades one model at a time, frames keep
    /// flowing.
    ShedLowestValue {
        /// Per-model value, in fleet bundle order; higher = shed later.
        priorities: Vec<u32>,
    },
    /// Detach the model with the lowest **measured** detection
    /// contribution: a windowed confirmed-positive count (verdicts that
    /// flagged a frame whose ground truth was an attack) computed from
    /// the live [`Verdict`] stream. A model that never fires is shed
    /// first regardless of its static priority; `priorities` only break
    /// score ties (and order re-admission when scores have decayed).
    ShedLowestMeasuredValue {
        /// Sliding window, in offered frames, over which each model's
        /// confirmed positives are counted (clamped to at least 1).
        window: usize,
        /// Static tie-break values, in fleet bundle order.
        priorities: Vec<u32>,
    },
    /// Migrate the overloaded shard's lowest-priority model to the board
    /// with the most headroom (warm standby pre-provisioned from real
    /// resource remainders; the model is dark for the migration delay).
    /// Falls back to shedding when no standby fits anywhere.
    Rebalance {
        /// Per-model value, in fleet bundle order; higher = migrated
        /// later.
        priorities: Vec<u32>,
    },
}

impl AdmissionPolicy {
    /// Short label for tables and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::DropFrames => "drop-frames",
            AdmissionPolicy::ShedLowestValue { .. } => "shed-lowest-value",
            AdmissionPolicy::ShedLowestMeasuredValue { .. } => "shed-lowest-measured-value",
            AdmissionPolicy::Rebalance { .. } => "rebalance",
        }
    }

    pub(crate) fn priorities(&self) -> Option<&[u32]> {
        match self {
            AdmissionPolicy::DropFrames => None,
            AdmissionPolicy::ShedLowestValue { priorities }
            | AdmissionPolicy::ShedLowestMeasuredValue { priorities, .. }
            | AdmissionPolicy::Rebalance { priorities } => Some(priorities),
        }
    }
}

/// Hysteresis thresholds of the per-shard overload detector, as
/// fractions of the software FIFO depth. Defaults are chosen so that
/// even a worst-case backlog growth of one frame per arrival cannot
/// reach the FIFO rim between the high watermark and the shed trigger
/// (`0.7 · depth + shed_sustain < depth` at the default depth of 64).
///
/// # Example
///
/// ```
/// use canids_core::serve::OverloadThresholds;
///
/// let th = OverloadThresholds::default();
/// assert!(th.high_frac * 64.0 + f64::from(th.shed_sustain) < 64.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OverloadThresholds {
    /// Backlog fraction at or above which an arrival counts as hot.
    pub high_frac: f64,
    /// Backlog fraction at or below which an arrival counts as cool.
    pub low_frac: f64,
    /// Consecutive hot arrivals before the policy acts.
    pub shed_sustain: u32,
    /// Consecutive cool arrivals before a shed model is re-admitted.
    pub readmit_sustain: u32,
}

impl Default for OverloadThresholds {
    fn default() -> Self {
        OverloadThresholds {
            high_frac: 0.7,
            low_frac: 0.15,
            shed_sustain: 12,
            readmit_sustain: 96,
        }
    }
}

/// What an admission event did.
///
/// # Example
///
/// ```
/// use canids_core::serve::FleetAction;
///
/// assert_ne!(FleetAction::Shed, FleetAction::Readmit);
/// assert!(matches!(FleetAction::Migrate { to: 1 }, FleetAction::Migrate { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetAction {
    /// Model detached from its shard.
    Shed,
    /// Previously shed model re-admitted.
    Readmit,
    /// Model migrated to another board's warm standby.
    Migrate {
        /// Destination board index.
        to: usize,
    },
    /// The board's gateway went dark (event-driven transport fault):
    /// every frame arriving before `until` was dropped. For this
    /// variant `FleetEvent::model` carries no meaning and is 0.
    GatewayDark {
        /// End of the outage window (exclusive).
        until: SimTime,
    },
}

/// One admission-policy event during a replay.
///
/// # Example
///
/// ```
/// use canids_core::serve::{FleetAction, FleetEvent};
/// use canids_can::time::SimTime;
///
/// let e = FleetEvent {
///     time: SimTime::from_millis(3),
///     board: 0,
///     model: 5,
///     action: FleetAction::Shed,
/// };
/// assert_eq!(e.action, FleetAction::Shed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetEvent {
    /// Board-local time the action was taken.
    pub time: SimTime,
    /// Board the overload was detected on.
    pub board: usize,
    /// Fleet model index acted on.
    pub model: usize,
    /// What happened.
    pub action: FleetAction,
}

/// How the fleet backend moves frames from the backbone to each board:
/// the event-driven [`crate::net`] runtime, whose gateway buffers and
/// faults come from its [`NetConfig`].
///
/// The default — an unbounded drop-tail buffer and no faults — forwards
/// every frame exactly as the closed-form
/// [`canids_can::gateway::SegmentForwarder`] would
/// (`tests/net_equivalence.rs`). Every fleet replay fills
/// [`ServeReport::gateways`] and logs outage windows into
/// [`ServeReport::events`].
///
/// # Example
///
/// ```
/// use canids_core::net::NetConfig;
/// use canids_core::serve::FleetTransport;
///
/// assert_eq!(
///     FleetTransport::default(),
///     FleetTransport::EventDriven(NetConfig::default())
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum FleetTransport {
    /// The [`crate::net`] discrete-event simulation with the given
    /// queue discipline and fault schedule.
    EventDriven(NetConfig),
}

impl Default for FleetTransport {
    fn default() -> Self {
        FleetTransport::EventDriven(NetConfig::default())
    }
}

/// The unified replay configuration every backend serves under.
///
/// # Example
///
/// ```
/// use canids_core::net::NetConfig;
/// use canids_core::serve::{AdmissionPolicy, FleetTransport, Pacing, ReplayConfig};
/// use canids_soc::ecu::SchedPolicy;
///
/// let config = ReplayConfig::default()
///     .with_policy(SchedPolicy::DmaBatch { batch: 32 })
///     .with_admission(AdmissionPolicy::ShedLowestValue { priorities: vec![2, 1] });
/// assert_eq!(config.pacing, Pacing::Saturated);
/// assert_eq!(config.ecu.policy, SchedPolicy::DmaBatch { batch: 32 });
/// assert_eq!(
///     config.transport,
///     FleetTransport::EventDriven(NetConfig::default())
/// );
/// ```
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Arrival pacing.
    pub pacing: Pacing,
    /// Wire bitrate: the saturated pacing rate, and the far-segment rate
    /// gateway forwarding serialises onto (fleet backend). Ignored for
    /// pacing under [`Pacing::FdClass`] (fixed 5 Mb/s) and
    /// [`Pacing::AsRecorded`].
    pub bitrate: Bitrate,
    /// Per-shard ECU/service configuration ([`SchedPolicy`], FIFO
    /// depth), the same for every board. The software backend uses
    /// `queue_depth` for its service FIFO.
    pub ecu: EcuConfig,
    /// Overload governance.
    pub admission: AdmissionPolicy,
    /// Overload-detector hysteresis.
    pub thresholds: OverloadThresholds,
    /// Gateway store-and-forward processing delay per frame (fleet
    /// backend only).
    pub gateway_delay: SimTime,
    /// Dark time of a migrating model under
    /// [`AdmissionPolicy::Rebalance`].
    pub migration_delay: SimTime,
    /// Backbone-to-board frame transport (fleet backend only).
    pub transport: FleetTransport,
    /// Software-backend inference window: frames per batched dispatch.
    /// `1` serves frame-at-a-time; `N > 1` defers admitted frames into a
    /// window and classifies the whole window in one dispatch,
    /// DMA-batch style, with service starting when the window fills.
    /// Each frame is booked at [`SOFTWARE_FRAME_COST`] per active model
    /// either way, so the window changes latency, never capacity. The
    /// window is clamped to `ecu.queue_depth`: unflushed window frames
    /// occupy FIFO slots, so a wider window could never fill, exactly as
    /// [`SchedPolicy::DmaBatch`] is clamped on the ECU. Ignored by
    /// simulated backends (their batching knob is
    /// [`SchedPolicy::DmaBatch`]).
    pub batch: usize,
    /// Read by nothing: a replay serves one capture as one lane. The
    /// field stays only because `perfbench` builds
    /// `ReplayConfig { shards: 1, .. }`, and goes with the next change
    /// to that crate.
    pub shards: usize,
    /// Opt-in telemetry capture ([`crate::telemetry`]): per-stage
    /// tracing spans and an integer metrics registry, attached to
    /// [`ServeReport::telemetry`]. `None` (the default) is provably
    /// free — every other report field is bit-identical with or without
    /// it.
    pub telemetry: Option<TelemetryConfig>,
}

/// Worker-thread count of the population lane pool
/// ([`crate::population::PopulationConfig::workers`]): an
/// *execution-only* knob — any value produces a bit-identical
/// [`crate::population::PopulationReport`], it only sets how many
/// tenant lanes replay at once. (The name predates the population
/// layer; `perfbench` uses it.)
///
/// # Example
///
/// ```
/// use canids_core::serve::ShardWorkers;
///
/// assert_eq!(ShardWorkers::Fixed(2).count(8), 2);
/// assert!(ShardWorkers::Auto.count(8) >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardWorkers {
    /// One worker per available core (capped at the lane count).
    #[default]
    Auto,
    /// Exactly this many workers (capped at the lane count; min 1).
    Fixed(usize),
}

impl ShardWorkers {
    /// The effective pool size for `jobs` lanes.
    pub fn count(self, jobs: usize) -> usize {
        let cap = jobs.max(1);
        match self {
            ShardWorkers::Auto => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(cap),
            ShardWorkers::Fixed(n) => n.clamp(1, cap),
        }
    }
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            pacing: Pacing::Saturated,
            bitrate: Bitrate::HIGH_SPEED_1M,
            ecu: EcuConfig::default(),
            admission: AdmissionPolicy::DropFrames,
            thresholds: OverloadThresholds::default(),
            gateway_delay: SimTime::from_micros(20),
            migration_delay: SimTime::from_millis(2),
            transport: FleetTransport::default(),
            batch: 1,
            shards: 1,
            telemetry: None,
        }
    }
}

impl ReplayConfig {
    /// Sets the base scheduling policy (builder style).
    pub fn with_policy(mut self, policy: SchedPolicy) -> Self {
        self.ecu.policy = policy;
        self
    }

    /// Sets the admission policy (builder style).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the wire bitrate (builder style).
    pub fn with_bitrate(mut self, bitrate: Bitrate) -> Self {
        self.bitrate = bitrate;
        self
    }

    /// Sets the fleet transport (builder style).
    pub fn with_transport(mut self, transport: FleetTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the pacing mode (builder style).
    pub fn with_pacing(mut self, pacing: Pacing) -> Self {
        self.pacing = pacing;
        self
    }

    /// Sets the software-backend inference window (builder style). The
    /// software backend clamps it to `ecu.queue_depth` when it opens a
    /// session (see [`ReplayConfig::batch`]).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Enables telemetry capture for the replay (builder style): the
    /// report gains a [`crate::telemetry::TelemetryReport`] with
    /// per-stage spans and the metrics snapshot.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// The effective wire rate: `bitrate`, unless FD-class pacing pins
    /// it to 5 Mb/s.
    pub fn wire_bitrate(&self) -> Bitrate {
        match self.pacing {
            Pacing::FdClass => Bitrate::new(5_000_000),
            Pacing::Saturated | Pacing::AsRecorded => self.bitrate,
        }
    }
}

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
/// [`ServeHarness::replay`]).
struct NullSink;

impl VerdictSink for NullSink {
    fn verdict(&mut self, _v: &Verdict) {}
}

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
    /// remaining verdicts and returns per-shard totals.
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

// --------------------------------------------------------------------
// Software backend
// --------------------------------------------------------------------

/// Modelled software service time per frame per active model.
///
/// The software backend books this cost on the sim clock, as the ECU
/// books its cycle model: a dispatch of `n` frames with `k` active
/// models serves each frame for `k × SOFTWARE_FRAME_COST` (at least
/// 1 ns), from the dispatch's service start. The value is the
/// benchmark's traced `stream.push_ns_per_frame` on `line_1m` (one
/// detector): about 0.9 µs on a 2-core x86-64 host, with traced runs
/// reading 0.8–1.3 µs as co-tenant load varies. There is no
/// per-dispatch term: the traced `stream.push` and `stream.push_batch`
/// rows agree within noise.
///
/// ```
/// use canids_core::serve::SOFTWARE_FRAME_COST;
///
/// assert_eq!(SOFTWARE_FRAME_COST.as_nanos(), 900);
/// ```
pub const SOFTWARE_FRAME_COST: SimTime = SimTime::from_nanos(900);

/// The pure-software substrate: N [`StreamingEvaluator`]s behind one
/// [`ServiceQueue`]. Classification runs on the host; service time is
/// modelled on the sim clock at [`SOFTWARE_FRAME_COST`] per frame per
/// active model, so drops, latency and `sustained_fps` are identical on
/// every run and every host, as on the simulated-SoC backends. Host
/// speed is the benchmark's to measure, not the report's.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{ReplayConfig, ServeHarness, SoftwareBackend};
///
/// let report = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(SoftwareBackend::single(report.detector.int_mlp.clone()));
/// let serve = harness.replay(&capture, &ReplayConfig::default())?;
/// assert!(serve.sustained_fps.is_some(), "software reports its modelled capacity");
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SoftwareBackend {
    models: Vec<IntegerMlp>,
    names: Vec<String>,
}

impl SoftwareBackend {
    /// A single-model software substrate.
    pub fn single(model: IntegerMlp) -> Self {
        SoftwareBackend::new(vec![model])
    }

    /// An N-model software substrate (shared truth, per-model flags).
    pub fn new(models: Vec<IntegerMlp>) -> Self {
        let names = (0..models.len()).map(|i| format!("model-{i}")).collect();
        SoftwareBackend { models, names }
    }
}

impl ServeBackend for SoftwareBackend {
    type Session<'s> = SoftwareSession;

    fn label(&self) -> String {
        "software".to_owned()
    }

    fn models(&self) -> usize {
        self.models.len()
    }

    /// # Errors
    ///
    /// [`QnnError::DimensionMismatch`] (as [`CoreError::Qnn`]) when a
    /// model's input width differs from the frame encoding's.
    fn open(&mut self, config: &ReplayConfig) -> Result<SoftwareSession, CoreError> {
        let dim = IdBitsPayloadBits.dim();
        if let Some(m) = self.models.iter().find(|m| m.input_dim() != dim) {
            return Err(CoreError::Qnn(QnnError::DimensionMismatch {
                context: "software backend: model input vs frame encoding",
                expected: dim,
                actual: m.input_dim(),
            }));
        }
        let depth = config.ecu.queue_depth.max(1);
        Ok(SoftwareSession {
            evals: self
                .models
                .iter()
                .map(|m| StreamingEvaluator::new(m.clone()))
                .collect(),
            active: vec![true; self.models.len()],
            queue: ServiceQueue::new(depth),
            // Unflushed window frames occupy FIFO slots, so a window
            // wider than the FIFO would never fill.
            batch: config.batch.clamp(1, depth),
            window_ords: Vec::new(),
            window_recs: Vec::new(),
            verdict_buf: Vec::new(),
            flags: Vec::new(),
            dropped: 0,
            serviced: 0,
            busy: SimTime::ZERO,
            pending: Vec::new(),
            topology: ServeTopology::single_shard(&self.names, depth),
            probe: None,
        })
    }
}

/// An open [`SoftwareBackend`] session (see [`ServeSession`]).
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
/// assert_eq!(session.active_models(0), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SoftwareSession {
    evals: Vec<StreamingEvaluator>,
    active: Vec<bool>,
    queue: ServiceQueue,
    /// Frames per inference dispatch (1 = frame-at-a-time), at most the
    /// FIFO depth.
    batch: usize,
    /// Ordinals/records of admitted frames awaiting their dispatch.
    window_ords: Vec<usize>,
    window_recs: Vec<LabeledFrame>,
    /// Reusable per-dispatch verdict buffer.
    verdict_buf: Vec<StreamVerdict>,
    /// Reusable per-dispatch (flagged, model flags) buffer.
    flags: Vec<(bool, u64)>,
    dropped: u64,
    serviced: usize,
    /// Modelled service time booked so far.
    busy: SimTime,
    pending: Vec<ShardVerdict>,
    topology: ServeTopology,
    /// Telemetry probe; when attached, each dispatch records one
    /// [`Stage::Infer`] span.
    probe: Option<Probe>,
}

impl ServeSession for SoftwareSession {
    fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    fn push_shard(
        &mut self,
        _shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        let arrival = rec.timestamp;
        let admitted = self
            .queue
            .admit_with_pending(arrival, self.window_recs.len());
        if admitted {
            // Defer into the window; the whole window is classified in
            // one dispatch when it fills (or at finish), with service
            // starting at the flush-trigger arrival — the same
            // deferred-verdict semantics as `SchedPolicy::DmaBatch`. At
            // batch 1 every frame is its own window.
            self.window_ords.push(ordinal);
            self.window_recs.push(*rec);
            if self.window_recs.len() >= self.batch {
                self.flush_window(arrival);
            }
        } else {
            self.dropped += 1;
        }
        Ok(ShardPush {
            delivered: arrival,
            admitted,
        })
    }

    fn drain_verdicts(&mut self, _shard: usize, out: &mut Vec<ShardVerdict>) {
        out.append(&mut self.pending);
    }

    fn backlog(&self, _shard: usize) -> usize {
        self.queue.backlog() + self.window_recs.len()
    }

    fn active_models(&self, _shard: usize) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    fn set_slot_active(&mut self, slot: Slot, active: bool) {
        // A buffered window was admitted under the current activation;
        // classify it before the mask changes.
        if let Some(last) = self.window_recs.last() {
            let ready = last.timestamp;
            self.flush_window(ready);
        }
        self.active[slot.local] = active;
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.probe = Some(probe);
    }

    fn finish(mut self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        if let Some(last) = self.window_recs.last() {
            let ready = last.timestamp;
            self.flush_window(ready);
        }
        out.append(&mut self.pending);
        Ok(vec![ShardTotals {
            dropped: self.dropped,
            serviced: self.serviced,
            energy: None,
            busy_wall: Some(Duration::from_nanos(self.busy.as_nanos())),
        }])
    }
}

impl SoftwareSession {
    /// Classifies every buffered window frame in one dispatch and books
    /// their (deferred) verdicts on the sim clock, service beginning at
    /// `ready` — the flush trigger's arrival, mirroring the DMA-batch
    /// transfer instant — or when the server frees up. Each frame is
    /// served for [`SOFTWARE_FRAME_COST`] per active model (at least
    /// 1 ns, so completions advance), and the dispatch records one
    /// [`Stage::Infer`] span from its service start to its last
    /// completion.
    fn flush_window(&mut self, ready: SimTime) {
        let n = self.window_recs.len();
        if n == 0 {
            return;
        }
        self.flags.clear();
        self.flags.resize(n, (false, 0));
        for (k, (eval, _)) in self
            .evals
            .iter_mut()
            .zip(&self.active)
            .enumerate()
            .filter(|&(_, (_, &a))| a)
        {
            self.verdict_buf.clear();
            eval.push_batch(&self.window_recs, &mut self.verdict_buf);
            for (slot, v) in self.flags.iter_mut().zip(&self.verdict_buf) {
                if v.flagged {
                    slot.0 = true;
                    if k < 64 {
                        slot.1 |= 1 << k;
                    }
                }
            }
        }
        let active = self.active.iter().filter(|&&a| a).count() as u64;
        let per = SimTime::from_nanos(SOFTWARE_FRAME_COST.mul_u64(active).as_nanos().max(1));
        let active_mask = canids_soc::ecu::active_mask_of(&self.active);
        let dispatch_start = self.queue.start_time(ready);
        let mut completed_at = dispatch_start;
        self.window_recs.clear();
        for (ordinal, &(flagged, model_flags)) in self.window_ords.drain(..).zip(&self.flags) {
            let start = self.queue.start_time(ready);
            completed_at = self.queue.serve(start, per);
            self.serviced += 1;
            self.pending.push(ShardVerdict {
                shard: 0,
                ordinal,
                completed_at,
                flagged,
                model_flags,
                active_mask,
            });
        }
        self.busy += per.mul_u64(n as u64);
        if let Some(probe) = &self.probe {
            probe.record(0, Stage::Infer, dispatch_start, completed_at);
        }
    }
}

// --------------------------------------------------------------------
// Single-ECU backend
// --------------------------------------------------------------------

/// The single-board substrate: one simulated N-detector ECU served
/// frame-at-a-time through the full SoC path (driver, DMA, interrupts,
/// FIFO queueing), so latencies/drops/energy are platform facts rather
/// than host noise.
///
/// Construct it from a [`MultiIdsDeployment`] (a fresh ECU is built per
/// session, so one backend supports any number of replays) or over an
/// existing [`IdsEcu`] with [`EcuBackend::over`] (one session only —
/// board time is monotonic; the ECU's own `EcuConfig` is kept).
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{EcuBackend, ReplayConfig, ServeHarness};
/// use canids_soc::ecu::SchedPolicy;
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let deployment = deploy_multi_ids(&bundles, CompileConfig::default())?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(EcuBackend::new(&deployment));
/// let config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
/// let report = harness.replay(&capture, &config)?;
/// assert!(report.energy.is_some(), "the SoC path reports power/energy");
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct EcuBackend<'d> {
    source: EcuSource<'d>,
    /// The ECU a deployment-backed session serves on, rebuilt per open.
    session_ecu: Option<IdsEcu>,
    names: Vec<String>,
}

/// Where an [`EcuBackend`]'s sessions get their ECU.
enum EcuSource<'d> {
    /// A fresh ECU per session from a borrowed deployment.
    Deployment(&'d MultiIdsDeployment),
    /// A fresh ECU per session from an owned deployment.
    OwnedDeployment(Box<MultiIdsDeployment>),
    /// The caller's ECU, served as it is.
    Ecu(&'d mut IdsEcu),
}

impl std::fmt::Debug for EcuBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcuBackend")
            .field("models", &self.names.len())
            .finish_non_exhaustive()
    }
}

impl<'d> EcuBackend<'d> {
    /// A backend over a compiled deployment: every session gets a fresh
    /// ECU ([`MultiIdsDeployment::fresh_ecu`]) configured from the
    /// replay's [`ReplayConfig::ecu`].
    pub fn new(deployment: &'d MultiIdsDeployment) -> Self {
        let names = deployment
            .plan
            .models
            .iter()
            .map(|m| m.name.clone())
            .collect();
        EcuBackend {
            source: EcuSource::Deployment(deployment),
            session_ecu: None,
            names,
        }
    }

    /// A backend that owns its deployment — same session semantics as
    /// [`new`](EcuBackend::new), without borrowing from the caller.
    /// This is the form a [`crate::population::Population::serve`]
    /// factory returns: the deployment is compiled on the worker thread
    /// and lives inside the backend, so nothing non-`Sync` crosses
    /// threads.
    pub fn owning(deployment: MultiIdsDeployment) -> Self {
        let names = deployment
            .plan
            .models
            .iter()
            .map(|m| m.name.clone())
            .collect();
        EcuBackend {
            source: EcuSource::OwnedDeployment(Box::new(deployment)),
            session_ecu: None,
            names,
        }
    }

    /// A backend over an existing ECU. The ECU's own [`EcuConfig`]
    /// (policy, FIFO depth) is used — the replay config's `ecu` section
    /// is ignored — and board time being monotonic means one session
    /// per backend.
    pub fn over(ecu: &'d mut IdsEcu) -> Self {
        let names = (0..ecu.models().len())
            .map(|i| format!("model-{i}"))
            .collect();
        EcuBackend {
            source: EcuSource::Ecu(ecu),
            session_ecu: None,
            names,
        }
    }
}

impl ServeBackend for EcuBackend<'_> {
    type Session<'s>
        = EcuSession<'s>
    where
        Self: 's;

    fn label(&self) -> String {
        "ecu".to_owned()
    }

    fn models(&self) -> usize {
        self.names.len()
    }

    fn open(&mut self, config: &ReplayConfig) -> Result<EcuSession<'_>, CoreError> {
        let ecu: &mut IdsEcu = match &mut self.source {
            EcuSource::Deployment(d) => self.session_ecu.insert(d.fresh_ecu(config.ecu)?),
            EcuSource::OwnedDeployment(d) => self.session_ecu.insert(d.fresh_ecu(config.ecu)?),
            EcuSource::Ecu(ecu) => ecu,
        };
        let depth = ecu.config().queue_depth.max(1);
        let mut topology = ServeTopology::single_shard(&self.names, depth);
        topology.shard_names[0] = "ecu".to_owned();
        Ok(EcuSession {
            stream: ecu.stream(),
            admitted: Vec::new(),
            cursor: 0,
            topology,
            probe: None,
        })
    }
}

/// An open [`EcuBackend`] session (see [`ServeSession`]).
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{EcuBackend, ReplayConfig, ServeBackend, ServeSession};
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let deployment = deploy_multi_ids(&bundles, CompileConfig::default())?;
/// let mut backend = EcuBackend::new(&deployment);
/// let session = backend.open(&ReplayConfig::default())?;
/// assert_eq!(session.topology().shards(), 1);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct EcuSession<'a> {
    stream: EcuStream<'a>,
    admitted: Vec<usize>,
    cursor: usize,
    topology: ServeTopology,
    probe: Option<Probe>,
}

impl std::fmt::Debug for EcuSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcuSession")
            .field("admitted", &self.admitted.len())
            .finish_non_exhaustive()
    }
}

/// Counts freshly emitted admission-policy events on the telemetry
/// probe and stamps each as a zero-width [`Stage::Admission`] span at
/// its decision time.
fn note_admission_events(probe: &Probe, shard: u32, fresh: &[FleetEvent]) {
    for event in fresh {
        let counter = match event.action {
            FleetAction::Shed => Counter::AdmissionShed,
            FleetAction::Readmit => Counter::AdmissionReadmit,
            FleetAction::Migrate { .. } => Counter::AdmissionMigrate,
            FleetAction::GatewayDark { .. } => continue,
        };
        probe.inc(counter);
        probe.record(shard, Stage::Admission, event.time, event.time);
    }
}

/// Forwards profiled SoC stage intervals to a telemetry probe, mapping
/// the soc crate's static stage names onto the interned [`Stage`] table.
fn record_stage_samples(probe: &Probe, shard: u32, samples: &[canids_soc::ecu::StageSample]) {
    for s in samples {
        if let Some(stage) = Stage::from_name(s.stage) {
            probe.record(shard, stage, s.start, s.end);
        }
    }
}

fn drain_ecu_detections(
    shard: usize,
    detections: &[canids_soc::ecu::Detection],
    admitted: &[usize],
    cursor: &mut usize,
    out: &mut Vec<ShardVerdict>,
) {
    for d in &detections[*cursor..] {
        out.push(ShardVerdict {
            shard,
            ordinal: admitted[*cursor],
            completed_at: d.completed_at,
            flagged: d.flagged,
            model_flags: d.model_flags,
            active_mask: d.active_mask,
        });
        *cursor += 1;
    }
}

impl ServeSession for EcuSession<'_> {
    fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    fn push_shard(
        &mut self,
        _shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        let encoder = IdBitsPayloadBits;
        let featurize = |f: &CanFrame| encoder.encode(f);
        let before = self.stream.dropped();
        self.stream.push(rec.timestamp, rec.frame, &featurize)?;
        let admitted = self.stream.dropped() == before;
        if admitted {
            self.admitted.push(ordinal);
        }
        Ok(ShardPush {
            delivered: rec.timestamp,
            admitted,
        })
    }

    fn drain_verdicts(&mut self, shard: usize, out: &mut Vec<ShardVerdict>) {
        if let Some(probe) = self.probe.clone() {
            let mut samples = Vec::new();
            self.stream.take_stage_samples(&mut samples);
            record_stage_samples(&probe, shard as u32, &samples);
        }
        drain_ecu_detections(
            shard,
            self.stream.detections(),
            &self.admitted,
            &mut self.cursor,
            out,
        );
    }

    fn backlog(&self, _shard: usize) -> usize {
        self.stream.backlog()
    }

    fn active_models(&self, _shard: usize) -> usize {
        self.stream.active_models()
    }

    fn set_slot_active(&mut self, slot: Slot, active: bool) {
        self.stream.set_model_active(slot.local, active);
    }

    fn attach_probe(&mut self, probe: Probe) {
        self.stream.enable_profiling();
        self.probe = Some(probe);
    }

    fn finish(mut self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        let report = self.stream.try_finish()?;
        if let Some(probe) = &self.probe {
            // Samples from the trailing DMA flush land in the report.
            record_stage_samples(probe, 0, &report.stage_samples);
        }
        drain_ecu_detections(0, &report.detections, &self.admitted, &mut self.cursor, out);
        Ok(vec![ShardTotals {
            dropped: report.dropped,
            serviced: report.detections.len(),
            energy: Some(EnergyStats {
                mean_power_w: report.mean_power_w,
                energy_per_message_j: report.energy_per_message_j,
            }),
            busy_wall: None,
        }])
    }
}

// --------------------------------------------------------------------
// Fleet backend
// --------------------------------------------------------------------

/// The cross-ECU substrate: one compiled [`FleetDeployment`] served
/// fleet-wide, every backbone frame reaching each shard through that
/// shard's gateway port on the event-driven [`FleetNet`] (processing
/// delay + far-segment serialisation — no free broadcast; buffers and
/// faults from [`ReplayConfig::transport`]).
///
/// Fresh ECUs are built per session, so one backend supports any number
/// of replays.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{FleetBackend, ReplayConfig, ServeHarness};
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let plan = FleetPlan::build(&bundles, &FleetConfig::new(vec![BoardSpec::zcu104("a")]))?;
/// let deployment = plan.deploy(&bundles, &CompileConfig::default())?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(FleetBackend::new(&deployment));
/// let report = harness.replay(&capture, &ReplayConfig::default())?;
/// assert_eq!(report.boards.len(), 1);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct FleetBackend<'d> {
    deployment: &'d FleetDeployment,
    ecus: Vec<IdsEcu>,
}

impl std::fmt::Debug for FleetBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBackend")
            .field("shards", &self.deployment.shards.len())
            .finish_non_exhaustive()
    }
}

impl<'d> FleetBackend<'d> {
    /// A backend over a compiled fleet.
    pub fn new(deployment: &'d FleetDeployment) -> Self {
        FleetBackend {
            deployment,
            ecus: Vec::new(),
        }
    }
}

impl ServeBackend for FleetBackend<'_> {
    type Session<'s>
        = FleetSession<'s>
    where
        Self: 's;

    fn label(&self) -> String {
        "fleet".to_owned()
    }

    fn models(&self) -> usize {
        self.deployment.models()
    }

    fn open(&mut self, config: &ReplayConfig) -> Result<FleetSession<'_>, CoreError> {
        let m = self.deployment.shards.len();
        if m == 0 {
            return Err(CoreError::EmptyFleet);
        }
        let n_models = self.deployment.models();
        let priorities: Vec<u32> = config
            .admission
            .priorities()
            .map(<[u32]>::to_vec)
            .unwrap_or_else(|| vec![0; n_models]);

        // Warm standbys exist only under Rebalance.
        let (extra_ips, standbys) = if matches!(config.admission, AdmissionPolicy::Rebalance { .. })
        {
            crate::fleet::place_standbys(self.deployment, &priorities)
        } else {
            (vec![Vec::new(); m], vec![None; n_models])
        };

        self.ecus = self
            .deployment
            .shards
            .iter()
            .zip(&extra_ips)
            .map(|(shard, extra)| crate::fleet::build_shard_ecu(shard, extra, config.ecu))
            .collect::<Result<_, _>>()?;
        let mut sessions: Vec<EcuStream<'_>> = self.ecus.iter_mut().map(IdsEcu::stream).collect();
        for sb in standbys.iter().flatten() {
            sessions[sb.shard].set_model_active(sb.local, false);
        }

        let mut model_names = vec![String::new(); n_models];
        for shard in &self.deployment.shards {
            for (local, &fleet_idx) in shard.members.iter().enumerate() {
                model_names[fleet_idx] = format!("{}-ids-{fleet_idx}", shard.kinds[local].slug());
            }
        }
        let topology = ServeTopology {
            models: n_models,
            homes: self.deployment.locations.clone(),
            standbys,
            model_names,
            shard_names: self
                .deployment
                .shards
                .iter()
                .map(|s| s.spec.name.clone())
                .collect(),
            shard_models: self.deployment.shards.iter().map(|s| s.ips.len()).collect(),
            queue_depths: vec![config.ecu.queue_depth.max(1); m],
        };
        let FleetTransport::EventDriven(net_config) = &config.transport;
        Ok(FleetSession {
            sessions,
            net: FleetNet::single_backbone(
                m,
                config.wire_bitrate(),
                config.gateway_delay,
                net_config,
            ),
            net_dropped: vec![0; m],
            admitted: vec![Vec::new(); m],
            cursors: vec![0; m],
            topology,
            probe: None,
        })
    }
}

/// An open [`FleetBackend`] session (see [`ServeSession`]).
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{FleetBackend, ReplayConfig, ServeBackend, ServeSession};
///
/// let bundles = vec![/* DetectorBundle::new(...) */];
/// let plan = FleetPlan::build(&bundles, &FleetConfig::new(vec![BoardSpec::zcu104("a")]))?;
/// let deployment = plan.deploy(&bundles, &CompileConfig::default())?;
/// let mut backend = FleetBackend::new(&deployment);
/// let session = backend.open(&ReplayConfig::default())?;
/// assert_eq!(session.topology().shards(), 1);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
pub struct FleetSession<'a> {
    sessions: Vec<EcuStream<'a>>,
    net: FleetNet,
    /// Frames the network transport lost per shard, before the ECU.
    net_dropped: Vec<u64>,
    admitted: Vec<Vec<usize>>,
    cursors: Vec<usize>,
    topology: ServeTopology,
    probe: Option<Probe>,
}

impl std::fmt::Debug for FleetSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSession")
            .field("shards", &self.sessions.len())
            .finish_non_exhaustive()
    }
}

impl ServeSession for FleetSession<'_> {
    fn topology(&self) -> &ServeTopology {
        &self.topology
    }

    fn push_shard(
        &mut self,
        shard: usize,
        ordinal: usize,
        rec: &LabeledFrame,
    ) -> Result<ShardPush, CoreError> {
        let encoder = IdBitsPayloadBits;
        let featurize = |f: &CanFrame| encoder.encode(f);
        let delivered = match self.net.deliver(shard, rec.timestamp, rec.frame) {
            NetOutcome::Delivered(t) => t,
            NetOutcome::Dropped(_) => {
                // Lost before the board: the typed reason is in the net
                // drop log and the gateway counters.
                self.net_dropped[shard] += 1;
                return Ok(ShardPush {
                    delivered: rec.timestamp,
                    admitted: false,
                });
            }
        };
        if let Some(probe) = &self.probe {
            probe.record(shard as u32, Stage::GatewayHop, rec.timestamp, delivered);
        }
        let before = self.sessions[shard].dropped();
        self.sessions[shard].push(delivered, rec.frame, &featurize)?;
        let admitted = self.sessions[shard].dropped() == before;
        if admitted {
            self.admitted[shard].push(ordinal);
        }
        Ok(ShardPush {
            delivered,
            admitted,
        })
    }

    fn drain_verdicts(&mut self, shard: usize, out: &mut Vec<ShardVerdict>) {
        if let Some(probe) = self.probe.clone() {
            let mut samples = Vec::new();
            self.sessions[shard].take_stage_samples(&mut samples);
            record_stage_samples(&probe, shard as u32, &samples);
        }
        drain_ecu_detections(
            shard,
            self.sessions[shard].detections(),
            &self.admitted[shard],
            &mut self.cursors[shard],
            out,
        );
    }

    fn backlog(&self, shard: usize) -> usize {
        self.sessions[shard].backlog()
    }

    fn active_models(&self, shard: usize) -> usize {
        self.sessions[shard].active_models()
    }

    fn set_slot_active(&mut self, slot: Slot, active: bool) {
        self.sessions[slot.shard].set_model_active(slot.local, active);
    }

    fn network(&mut self) -> (Vec<GatewayLoad>, Vec<FleetEvent>) {
        self.net.finish();
        let events = self
            .net
            .outage_windows()
            .iter()
            .map(|&(board, start, until)| FleetEvent {
                time: start,
                board,
                model: 0,
                action: FleetAction::GatewayDark { until },
            })
            .collect();
        (self.net.gateway_loads(), events)
    }

    fn attach_probe(&mut self, probe: Probe) {
        for session in &mut self.sessions {
            session.enable_profiling();
        }
        self.probe = Some(probe);
    }

    fn finish(self, out: &mut Vec<ShardVerdict>) -> Result<Vec<ShardTotals>, CoreError> {
        let FleetSession {
            sessions,
            net_dropped,
            admitted,
            mut cursors,
            probe,
            ..
        } = self;
        let mut totals = Vec::with_capacity(sessions.len());
        for (b, session) in sessions.into_iter().enumerate() {
            let report = session.try_finish()?;
            if let Some(probe) = &probe {
                // Samples from the trailing DMA flush land in the report.
                record_stage_samples(probe, b as u32, &report.stage_samples);
            }
            drain_ecu_detections(b, &report.detections, &admitted[b], &mut cursors[b], out);
            debug_assert_eq!(report.detections.len(), admitted[b].len());
            totals.push(ShardTotals {
                dropped: report.dropped + net_dropped[b],
                serviced: report.detections.len(),
                energy: Some(EnergyStats {
                    mean_power_w: report.mean_power_w,
                    energy_per_message_j: report.energy_per_message_j,
                }),
                busy_wall: None,
            });
        }
        Ok(totals)
    }
}

// --------------------------------------------------------------------
// Reports
// --------------------------------------------------------------------

/// One board's (shard's) share of a [`ServeReport`].
///
/// # Example
///
/// ```no_run
/// use canids_core::serve::BoardServeReport;
///
/// fn busiest(boards: &[BoardServeReport]) -> Option<&BoardServeReport> {
///     boards.iter().max_by_key(|b| b.serviced)
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BoardServeReport {
    /// Board instance name.
    pub board: String,
    /// Models homed on this board.
    pub models: usize,
    /// Frames offered to this board (every backbone frame is forwarded).
    pub offered: usize,
    /// Frames serviced.
    pub serviced: usize,
    /// Frames dropped at this board's FIFO.
    pub dropped: u64,
    /// Verdict latency from backbone arrival (gateway forwarding
    /// included on the fleet backend), on the sim clock.
    pub latency: LatencyStats,
    /// Board power/energy (absent on the software backend).
    pub energy: Option<EnergyStats>,
}

/// One model's share of a [`ServeReport`] — the measured
/// detection-contribution record value-driven admission reads.
///
/// # Example
///
/// ```no_run
/// use canids_core::serve::ModelServeReport;
///
/// fn useless(models: &[ModelServeReport]) -> impl Iterator<Item = &ModelServeReport> {
///     models.iter().filter(|m| m.confirmed_positives == 0)
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ModelServeReport {
    /// Fleet model index (bundle order).
    pub model: usize,
    /// Display name.
    pub name: String,
    /// Home slot.
    pub home: Slot,
    /// Frames this model was consulted for.
    pub consulted: usize,
    /// Frames this model flagged.
    pub flagged: usize,
    /// Flagged frames whose ground truth was an attack — the raw
    /// detection-contribution count.
    pub confirmed_positives: usize,
    /// Per-model confusion matrix over consulted frames.
    pub cm: ConfusionMatrix,
}

/// The composable outcome of one replay through any [`ServeBackend`].
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::serve::{ReplayConfig, ServeHarness, SoftwareBackend};
///
/// let report = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let mut harness = ServeHarness::new(SoftwareBackend::single(report.detector.int_mlp.clone()));
/// let serve = harness.replay(&capture, &ReplayConfig::default())?;
/// println!(
///     "{}: {} offered, {} dropped, p99 {}",
///     serve.backend, serve.offered, serve.dropped, serve.latency.p99
/// );
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scenario name (defaults to the backend label).
    pub scenario: String,
    /// Backend label (`"software"`, `"ecu"`, `"fleet"`).
    pub backend: String,
    /// Base scheduling-policy label.
    pub sched: String,
    /// Admission-policy label.
    pub admission: String,
    /// Effective wire bitrate (bits per second).
    pub bitrate_bps: u32,
    /// Frames offered on the backbone.
    pub offered: usize,
    /// Frames at least one shard serviced.
    pub serviced: usize,
    /// Frames dropped, summed over every shard's FIFO.
    pub dropped: u64,
    /// First backbone arrival.
    pub first_arrival: SimTime,
    /// Last backbone arrival.
    pub last_arrival: SimTime,
    /// Offered load in frames/s over the capture's own span (external
    /// captures carry epoch timestamps, so an absolute-time denominator
    /// would be nonsense).
    pub offered_fps: f64,
    /// Modelled service capacity in frames/s (software backend only):
    /// serviced frames ÷ their modelled busy time on the sim clock, at
    /// [`SOFTWARE_FRAME_COST`] per frame per active model. Not a host
    /// measurement; `None` on simulated backends.
    pub sustained_fps: Option<f64>,
    /// Fused verdict latency on the sim clock: per frame, the slowest
    /// serving shard's verdict measured from backbone arrival.
    pub latency: LatencyStats,
    /// Frames any shard flagged.
    pub flagged: usize,
    /// Frames serviced by every shard (full coverage).
    pub fully_covered: usize,
    /// Fused confusion matrix over serviced frames.
    pub cm: ConfusionMatrix,
    /// Summed power/energy across the fleet (absent on the software
    /// backend).
    pub energy: Option<EnergyStats>,
    /// Per-board breakdown, in board order.
    pub boards: Vec<BoardServeReport>,
    /// Per-model breakdown, in fleet bundle order.
    pub per_model: Vec<ModelServeReport>,
    /// Admission events (sheds, re-admissions, migrations) in time
    /// order, followed by any network fault events (gateway dark
    /// windows) from the fleet transport.
    pub events: Vec<FleetEvent>,
    /// Per-gateway queue/occupancy section. Empty for non-fleet
    /// backends.
    pub gateways: Vec<GatewayLoad>,
    /// Fused per-frame verdicts: backbone arrival and whether any shard
    /// flagged it, for frames at least one shard serviced.
    pub verdicts: Vec<(SimTime, bool)>,
    /// Telemetry captured during the replay: per-stage spans plus the
    /// metrics snapshot. `None` unless the replay was configured with
    /// [`ReplayConfig::with_telemetry`]; a population merges its tenants'
    /// reports in strict tenant order.
    pub telemetry: Option<TelemetryReport>,
}

impl ServeReport {
    /// `true` when no shard dropped a frame.
    pub fn keeps_up(&self) -> bool {
        self.dropped == 0
    }

    /// Shed events (excluding re-admissions and migrations).
    pub fn shed_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == FleetAction::Shed)
            .count()
    }

    /// Column headers matching [`ServeReport::table_row`].
    pub fn table_header() -> [&'static str; 8] {
        [
            "Scenario",
            "Backend",
            "Offered fps",
            "p50",
            "p99",
            "Drops",
            "Events",
            "Keeps up",
        ]
    }

    /// This report as one formatted row for the harness tables.
    pub fn table_row(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.backend.clone(),
            format!("{:.0}", self.offered_fps),
            format!("{:.1} us", self.latency.p50.as_micros_f64()),
            format!("{:.1} us", self.latency.p99.as_micros_f64()),
            format!("{}", self.dropped),
            format!("{}", self.events.len()),
            if self.keeps_up() { "yes" } else { "NO" }.to_owned(),
        ]
    }
}

// --------------------------------------------------------------------
// Admission governance (harness-side)
// --------------------------------------------------------------------

/// Per-model replay bookkeeping: where the model may run and where it
/// currently runs (`None` while shed or mid-migration).
#[derive(Debug, Clone, Copy)]
struct ModelState {
    home: Slot,
    standby: Option<Slot>,
    serving: Option<Slot>,
}

impl ModelState {
    /// The slot a migration would move this model to, given where it
    /// currently serves.
    fn other_slot(&self, from: Slot) -> Option<Slot> {
        match self.standby {
            Some(sb) if sb != from => Some(sb),
            _ if self.home != from => Some(self.home),
            _ => None,
        }
    }
}

/// Per-shard overload detector state.
#[derive(Debug, Clone, Default)]
struct ShardCtl {
    hot: u32,
    cool: u32,
    /// Models shed from this shard: (fleet model, slot it served at).
    shed: Vec<(usize, Slot)>,
}

/// Windowed confirmed-positive scorer behind
/// [`AdmissionPolicy::ShedLowestMeasuredValue`].
#[derive(Debug)]
struct ValueScore {
    window: usize,
    /// Per model, ordinals of recent confirmed positives (monotone).
    hits: Vec<VecDeque<usize>>,
}

impl ValueScore {
    fn new(window: usize, models: usize) -> Self {
        ValueScore {
            window: window.max(1),
            hits: vec![VecDeque::new(); models],
        }
    }

    fn record(&mut self, model: usize, ordinal: usize) {
        self.hits[model].push_back(ordinal);
    }

    /// Expires hits older than the window relative to `current`.
    fn expire(&mut self, current: usize) {
        for dq in &mut self.hits {
            while dq.front().is_some_and(|&o| o + self.window <= current) {
                dq.pop_front();
            }
        }
    }

    fn score(&self, model: usize) -> usize {
        self.hits[model].len()
    }
}

/// The harness-side admission controller: watches per-shard backlog
/// hysteresis and sheds / re-admits / migrates models through the
/// session's activation interface — the logic that used to live inside
/// `fleet_line_rate`, now shared by every backend.
struct AdmissionController {
    admission: AdmissionPolicy,
    priorities: Vec<u32>,
    thresholds: OverloadThresholds,
    migration_delay: SimTime,
    states: Vec<ModelState>,
    ctl: Vec<ShardCtl>,
    pending_activation: Vec<(SimTime, usize, Slot)>,
    events: Vec<FleetEvent>,
    value: Option<ValueScore>,
    depths: Vec<usize>,
}

impl AdmissionController {
    fn new(config: &ReplayConfig, topology: &ServeTopology) -> Self {
        let n = topology.models;
        let priorities = config
            .admission
            .priorities()
            .map(<[u32]>::to_vec)
            .unwrap_or_else(|| vec![0; n]);
        let value = match config.admission {
            AdmissionPolicy::ShedLowestMeasuredValue { window, .. } => {
                Some(ValueScore::new(window, n))
            }
            _ => None,
        };
        AdmissionController {
            admission: config.admission.clone(),
            priorities,
            thresholds: config.thresholds,
            migration_delay: config.migration_delay,
            states: topology
                .homes
                .iter()
                .zip(&topology.standbys)
                .map(|(&home, &standby)| ModelState {
                    home,
                    standby,
                    serving: Some(home),
                })
                .collect(),
            ctl: vec![ShardCtl::default(); topology.shards()],
            pending_activation: Vec::new(),
            events: Vec::new(),
            value,
            depths: topology.queue_depths.clone(),
        }
    }

    /// Completes due migrations: the standby goes live.
    fn activate_due<S: ServeSession>(&mut self, arrival: SimTime, session: &mut S) {
        let states = &mut self.states;
        self.pending_activation.retain(|&(t, model, slot)| {
            if t <= arrival {
                session.set_slot_active(slot, true);
                states[model].serving = Some(slot);
                false
            } else {
                true
            }
        });
    }

    /// Records one shard verdict's contribution to the measured value
    /// scores (confirmed positives only).
    fn observe(&mut self, model: usize, ordinal: usize, flagged: bool, truth: bool) {
        if let Some(value) = &mut self.value {
            if flagged && truth {
                value.record(model, ordinal);
            }
        }
    }

    /// Expires measured-value hits against the current frame ordinal.
    fn tick(&mut self, current_ordinal: usize) {
        if let Some(value) = &mut self.value {
            value.expire(current_ordinal);
        }
    }

    /// The (lower = shed first) victim ranking of a model. Static
    /// policies rank by priority with later duplicates first on ties —
    /// the measured policy ranks by windowed score, with static
    /// priority then index breaking ties.
    fn shed_key(&self, model: usize) -> (u64, u32, std::cmp::Reverse<usize>) {
        let score = self
            .value
            .as_ref()
            .map_or(u64::from(self.priorities[model]), |v| v.score(model) as u64);
        let tie = if self.value.is_some() {
            self.priorities[model]
        } else {
            0
        };
        (score, tie, std::cmp::Reverse(model))
    }

    /// Governs shard `b` after one arrival was delivered at `delivered`.
    fn govern<S: ServeSession>(&mut self, b: usize, delivered: SimTime, session: &mut S) {
        if self.admission == AdmissionPolicy::DropFrames {
            return;
        }
        let th = self.thresholds;
        let frac = session.backlog(b) as f64 / self.depths[b] as f64;
        if frac >= th.high_frac {
            self.ctl[b].hot += 1;
            self.ctl[b].cool = 0;
        } else if frac <= th.low_frac {
            self.ctl[b].cool += 1;
            self.ctl[b].hot = 0;
        } else {
            self.ctl[b].hot = 0;
            self.ctl[b].cool = 0;
        }

        if self.ctl[b].hot >= th.shed_sustain {
            self.ctl[b].hot = 0;
            // Victim: the lowest-value model currently served here. A
            // shard never gives up its last model.
            let victim = self
                .states
                .iter()
                .enumerate()
                .filter_map(|(mdl, st)| match st.serving {
                    Some(sl) if sl.shard == b => Some((mdl, sl)),
                    _ => None,
                })
                .min_by_key(|&(mdl, _)| self.shed_key(mdl));
            let Some((victim, slot)) = victim else {
                return;
            };
            if session.active_models(b) <= 1 {
                return;
            }
            let migrate_to = if matches!(self.admission, AdmissionPolicy::Rebalance { .. }) {
                self.states[victim].other_slot(slot).filter(|dest| {
                    let dest_frac =
                        session.backlog(dest.shard) as f64 / self.depths[dest.shard] as f64;
                    dest_frac < th.high_frac
                })
            } else {
                None
            };
            session.set_slot_active(slot, false);
            self.states[victim].serving = None;
            match migrate_to {
                Some(dest) => {
                    self.pending_activation
                        .push((delivered + self.migration_delay, victim, dest));
                    self.events.push(FleetEvent {
                        time: delivered,
                        board: b,
                        model: victim,
                        action: FleetAction::Migrate { to: dest.shard },
                    });
                }
                None => {
                    self.ctl[b].shed.push((victim, slot));
                    self.events.push(FleetEvent {
                        time: delivered,
                        board: b,
                        model: victim,
                        action: FleetAction::Shed,
                    });
                }
            }
        } else if self.ctl[b].cool >= th.readmit_sustain && !self.ctl[b].shed.is_empty() {
            self.ctl[b].cool = 0;
            // Load has subsided: the most valuable shed model comes
            // back first.
            let pos = {
                let shed = &self.ctl[b].shed;
                shed.iter()
                    .enumerate()
                    .max_by_key(|&(_, &(mdl, _))| self.shed_key(mdl))
                    .map(|(pos, _)| pos)
                    // lint:allow(panic-in-lib): the enclosing branch runs only when shed is non-empty
                    .expect("shed list checked non-empty")
            };
            let (model, slot) = self.ctl[b].shed.remove(pos);
            session.set_slot_active(slot, true);
            self.states[model].serving = Some(slot);
            self.events.push(FleetEvent {
                time: delivered,
                board: b,
                model,
                action: FleetAction::Readmit,
            });
        }
    }
}

// --------------------------------------------------------------------
// Aggregation
// --------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct FusedEntry {
    flagged: bool,
    done: SimTime,
    count: usize,
    model_flags: u64,
    consulted: u64,
}

#[derive(Debug, Clone, Default)]
struct ModelAccum {
    consulted: usize,
    flagged: usize,
    confirmed: usize,
    cm: ConfusionMatrix,
}

/// Replay-wide accounting: arrivals/truths, per-shard latency vectors,
/// per-model contribution, and the fused per-ordinal verdict map.
struct Aggregator {
    arrivals: Vec<SimTime>,
    truths: Vec<bool>,
    /// Shards that have not yet resolved (serviced or dropped) each
    /// ordinal; a fused verdict is emitted when this reaches zero.
    remaining: Vec<usize>,
    fused: BTreeMap<usize, FusedEntry>,
    next_emit: usize,
    shard_lat: Vec<Vec<SimTime>>,
    shard_serviced: Vec<usize>,
    per_model: Vec<ModelAccum>,
    /// `slot_model[shard][local]` → fleet model index.
    slot_model: Vec<Vec<Option<usize>>>,
    shards: usize,
    cm: ConfusionMatrix,
    flagged: usize,
    fully_covered: usize,
}

impl Aggregator {
    fn new(topology: &ServeTopology) -> Self {
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
            arrivals: Vec::new(),
            truths: Vec::new(),
            remaining: Vec::new(),
            fused: BTreeMap::new(),
            next_emit: 0,
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

    fn note_arrival(&mut self, rec: &LabeledFrame) -> usize {
        let ordinal = self.arrivals.len();
        self.arrivals.push(rec.timestamp);
        self.truths.push(rec.label.is_attack());
        self.remaining.push(self.shards);
        ordinal
    }

    fn note_drop(&mut self, ordinal: usize) {
        self.remaining[ordinal] -= 1;
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
    fn absorb(&mut self, v: &ShardVerdict, ctl: &mut AdmissionController) {
        let truth = self.truths[v.ordinal];
        let fleet_flags = self.to_fleet_mask(v.shard, v.model_flags);
        let fleet_consulted = self.to_fleet_mask(v.shard, v.active_mask);
        let e = self.fused.entry(v.ordinal).or_default();
        e.flagged |= v.flagged;
        e.done = e.done.max(v.completed_at);
        e.count += 1;
        e.model_flags |= fleet_flags;
        e.consulted |= fleet_consulted;
        self.remaining[v.ordinal] -= 1;
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

    /// Emits fused verdicts whose every shard has resolved, in ordinal
    /// order.
    fn emit_ready(&mut self, sink: &mut dyn VerdictSink) {
        while self.next_emit < self.remaining.len() && self.remaining[self.next_emit] == 0 {
            let ordinal = self.next_emit;
            self.next_emit += 1;
            let Some(&e) = self.fused.get(&ordinal) else {
                continue; // dropped by every shard: no verdict
            };
            let truth = self.truths[ordinal];
            self.cm.record(e.flagged, truth);
            if e.flagged {
                self.flagged += 1;
            }
            if e.count == self.shards {
                self.fully_covered += 1;
            }
            sink.verdict(&Verdict {
                ordinal,
                arrival: self.arrivals[ordinal],
                completed_at: e.done,
                flagged: e.flagged,
                truth_attack: truth,
                model_flags: e.model_flags,
                consulted: e.consulted,
                boards: e.count,
            });
        }
    }
}

// --------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------

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
    /// arrival time in ordinal order, dropped frames included: the
    /// population ledger builds its schedule from them instead of pacing
    /// the capture a second time.
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
        let mut agg = Aggregator::new(&topology);
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

        let telemetry = probe.map(|p| {
            p.add(Counter::FramesOffered, agg.arrivals.len() as u64);
            p.add(
                Counter::FramesDropped,
                totals.iter().map(|t| t.dropped).sum(),
            );
            p.add(Counter::FramesServiced, agg.fused.len() as u64);
            p.take_report()
        });
        let mut report = finalize(
            backend_label,
            config,
            &topology,
            &mut agg,
            ctl,
            &totals,
            gateways,
            net_events,
        );
        report.telemetry = telemetry;
        Ok((report, agg.arrivals))
    }
}

/// Offered load in frames/s over the arrival span `[first, last]` (zero
/// for an empty or instantaneous span).
pub(crate) fn offered_rate(offered: usize, first: SimTime, last: SimTime) -> f64 {
    let span = last.saturating_sub(first);
    if span > SimTime::ZERO {
        offered as f64 / span.as_secs_f64()
    } else {
        0.0
    }
}

#[allow(clippy::too_many_arguments)]
fn finalize(
    backend: String,
    config: &ReplayConfig,
    topology: &ServeTopology,
    agg: &mut Aggregator,
    ctl: AdmissionController,
    totals: &[ShardTotals],
    gateways: Vec<GatewayLoad>,
    net_events: Vec<FleetEvent>,
) -> ServeReport {
    let offered = agg.arrivals.len();
    let first_arrival = agg.arrivals.first().copied().unwrap_or(SimTime::ZERO);
    let last_arrival = agg.arrivals.last().copied().unwrap_or(SimTime::ZERO);
    let offered_fps = offered_rate(offered, first_arrival, last_arrival);

    let mut boards = Vec::with_capacity(topology.shards());
    let mut total_dropped = 0u64;
    let mut energy_sum = EnergyStats::default();
    let mut any_energy = false;
    let mut busy = Duration::ZERO;
    let mut any_busy = false;
    for (b, totals_b) in totals.iter().enumerate() {
        total_dropped += totals_b.dropped;
        if let Some(e) = totals_b.energy {
            energy_sum.mean_power_w += e.mean_power_w;
            energy_sum.energy_per_message_j += e.energy_per_message_j;
            any_energy = true;
        }
        if let Some(w) = totals_b.busy_wall {
            busy += w;
            any_busy = true;
        }
        boards.push(BoardServeReport {
            board: topology.shard_names[b].clone(),
            models: topology.shard_models[b],
            offered,
            serviced: totals_b.serviced,
            dropped: totals_b.dropped,
            latency: LatencyStats::from_unsorted(std::mem::take(&mut agg.shard_lat[b])),
            energy: totals_b.energy,
        });
    }

    let mut fleet_lat: Vec<SimTime> = agg
        .fused
        .iter()
        .map(|(&ord, e)| e.done.saturating_sub(agg.arrivals[ord]))
        .collect();
    fleet_lat.sort_unstable();
    let verdicts: Vec<(SimTime, bool)> = agg
        .fused
        .iter()
        .map(|(&ord, e)| (agg.arrivals[ord], e.flagged))
        .collect();
    let serviced = verdicts.len();
    let total_serviced: usize = agg.shard_serviced.iter().sum();
    let sustained_fps = if any_busy && busy > Duration::ZERO {
        Some(total_serviced as f64 / busy.as_secs_f64())
    } else {
        None
    };

    let per_model = agg
        .per_model
        .iter()
        .enumerate()
        .map(|(m, acc)| ModelServeReport {
            model: m,
            name: topology.model_names[m].clone(),
            home: topology.homes[m],
            consulted: acc.consulted,
            flagged: acc.flagged,
            confirmed_positives: acc.confirmed,
            cm: acc.cm,
        })
        .collect();

    ServeReport {
        scenario: backend.clone(),
        backend,
        sched: config.ecu.policy.label(),
        admission: config.admission.label().to_owned(),
        bitrate_bps: config.wire_bitrate().bits_per_sec(),
        offered,
        serviced,
        dropped: total_dropped,
        first_arrival,
        last_arrival,
        offered_fps,
        sustained_fps,
        latency: LatencyStats::from_sorted(&fleet_lat),
        flagged: agg.flagged,
        fully_covered: agg.fully_covered,
        cm: agg.cm,
        energy: any_energy.then_some(energy_sum),
        boards,
        per_model,
        events: {
            let mut events = ctl.events;
            events.extend(net_events);
            events
        },
        gateways,
        verdicts,
        telemetry: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{deploy_multi_ids, DetectorBundle};
    use canids_dataflow::ip::CompileConfig;
    use canids_dataset::attacks::{AttackKind, AttackProfile, BurstSchedule};
    use canids_dataset::generator::{DatasetBuilder, TrafficConfig};
    use canids_qnn::mlp::{MlpConfig, QuantMlp};

    fn untrained_model(seed: u64) -> IntegerMlp {
        QuantMlp::new(MlpConfig {
            seed,
            ..MlpConfig::paper_4bit()
        })
        .unwrap()
        .export()
        .unwrap()
    }

    fn quick_capture(attack: bool, seed: u64) -> Dataset {
        DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(200),
            attack: attack.then(|| AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            seed,
            ..TrafficConfig::default()
        })
        .build()
    }

    #[test]
    fn replay_config_wire_bitrate_and_overrides() {
        let config = ReplayConfig::default()
            .with_bitrate(Bitrate::new(750_000))
            .with_policy(SchedPolicy::Sequential);
        assert_eq!(config.wire_bitrate().bits_per_sec(), 750_000);
        assert_eq!(
            ReplayConfig {
                pacing: Pacing::FdClass,
                ..ReplayConfig::default()
            }
            .wire_bitrate()
            .bits_per_sec(),
            5_000_000
        );
    }

    #[test]
    fn value_score_window_expires_old_hits() {
        let mut score = ValueScore::new(10, 2);
        score.record(0, 0);
        score.record(0, 4);
        score.record(1, 5);
        score.expire(9);
        assert_eq!(score.score(0), 2, "both hits inside the window");
        score.expire(10);
        assert_eq!(score.score(0), 1, "ordinal 0 expired at 0 + 10 <= 10");
        score.expire(100);
        assert_eq!(score.score(0), 0);
        assert_eq!(score.score(1), 0);
        // Degenerate window clamps to 1.
        let clamped = ValueScore::new(0, 1);
        assert_eq!(clamped.window, 1);
    }

    #[test]
    fn software_backend_matches_streaming_evaluator() {
        let model = untrained_model(3);
        let capture = quick_capture(true, 3);
        let mut reference = StreamingEvaluator::new(model.clone());
        for rec in capture.iter() {
            reference.push(rec);
        }
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut harness = ServeHarness::new(SoftwareBackend::single(model));
        let report = harness
            .replay_with(&capture, &ReplayConfig::default(), &mut verdicts)
            .unwrap();
        assert_eq!(report.backend, "software");
        assert_eq!(report.offered, capture.len());
        // The modelled service time is far below the wire inter-arrival
        // time, so nothing drops: the fused CM is the evaluator's CM and
        // every verdict matches the record.
        assert_eq!(report.dropped, 0);
        assert_eq!(report.cm, *reference.confusion());
        assert_eq!(verdicts.len(), capture.len());
        for (v, rec) in verdicts.iter().zip(capture.iter()) {
            assert_eq!(v.truth_attack, rec.label.is_attack());
            assert_eq!(v.flagged, v.model_flags != 0);
            assert_eq!(v.consulted, 1);
            assert_eq!(v.boards, 1);
        }
        assert!(verdicts.windows(2).all(|w| w[0].ordinal < w[1].ordinal));
        assert!(report.sustained_fps.is_some());
        assert!(report.energy.is_none(), "no rail model in software");
        assert_eq!(report.per_model.len(), 1);
        assert_eq!(
            report.per_model[0].flagged,
            verdicts.iter().filter(|v| v.flagged).count()
        );
    }

    #[test]
    fn batched_software_dispatch_never_changes_classification() {
        // Batching is a dispatch optimisation: every window size
        // classifies every frame identically to the frame-at-a-time path
        // (same per-model prediction sequence, so same CM and flag
        // counts), and the verdict stream still covers each ordinal
        // exactly once. A window wider than the default 64-deep FIFO is
        // clamped to it, so it still fills and nothing drops.
        let models: Vec<IntegerMlp> = (0..2).map(|i| untrained_model(60 + i)).collect();
        let capture = quick_capture(true, 11);
        let deep = EcuConfig {
            queue_depth: capture.len() + 1,
            ..EcuConfig::default()
        };
        let cases = [
            (1usize, deep),
            (8, deep),
            (32, deep),
            (1000, deep),
            (128, ReplayConfig::default().ecu),
        ];
        let mut baseline: Option<(ConfusionMatrix, usize)> = None;
        for (batch, ecu) in cases {
            let mut verdicts: Vec<Verdict> = Vec::new();
            let config = ReplayConfig {
                ecu,
                ..ReplayConfig::default().with_batch(batch)
            };
            let mut harness = ServeHarness::new(SoftwareBackend::new(models.clone()));
            let report = harness
                .replay_with(&capture, &config, &mut verdicts)
                .unwrap();
            assert_eq!(report.offered, capture.len(), "batch {batch}");
            assert_eq!(report.dropped, 0, "batch {batch} admits everything");
            assert_eq!(report.serviced, capture.len(), "batch {batch}");
            assert_eq!(verdicts.len(), capture.len(), "batch {batch}");
            let mut ords: Vec<usize> = verdicts.iter().map(|v| v.ordinal).collect();
            ords.sort_unstable();
            assert!(
                ords.iter().enumerate().all(|(i, &o)| i == o),
                "batch {batch}"
            );
            match &baseline {
                None => baseline = Some((report.cm, report.flagged)),
                Some((cm, flagged)) => {
                    assert_eq!(&report.cm, cm, "batch {batch}");
                    assert_eq!(report.flagged, *flagged, "batch {batch}");
                }
            }
        }
    }

    #[test]
    fn multi_model_software_backend_reports_per_model_sections() {
        let models: Vec<IntegerMlp> = (0..3).map(|i| untrained_model(40 + i)).collect();
        let capture = quick_capture(true, 8);
        let mut singles: Vec<StreamingEvaluator> = models
            .iter()
            .map(|m| StreamingEvaluator::new(m.clone()))
            .collect();
        for rec in capture.iter() {
            for s in &mut singles {
                s.push(rec);
            }
        }
        let mut harness = ServeHarness::new(SoftwareBackend::new(models));
        let report = harness.replay(&capture, &ReplayConfig::default()).unwrap();
        assert_eq!(report.dropped, 0);
        for (m, single) in report.per_model.iter().zip(&singles) {
            assert_eq!(m.cm, *single.confusion(), "model {}", m.model);
            assert_eq!(m.consulted, capture.len());
        }
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

    #[test]
    fn ecu_backend_overload_drops_and_skips_verdicts() {
        // Simulated SoC path: saturated pacing over a deep-sequential
        // 2-model ECU with a tiny FIFO must drop deterministically, and
        // dropped frames must produce no verdict.
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, untrained_model(1)),
            DetectorBundle::new(AttackKind::Fuzzy, untrained_model(2)),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let capture = quick_capture(true, 9);
        let mut verdicts: Vec<Verdict> = Vec::new();
        let mut harness = ServeHarness::new(deployment.serve_backend());
        let config = ReplayConfig {
            ecu: EcuConfig {
                queue_depth: 4,
                policy: SchedPolicy::Sequential,
                ..EcuConfig::default()
            },
            ..ReplayConfig::default()
        };
        let report = harness
            .replay_with(&capture, &config, &mut verdicts)
            .unwrap();
        assert_eq!(report.backend, "ecu");
        assert!(report.dropped > 0, "saturated 2-model sequential must drop");
        assert_eq!(report.serviced, verdicts.len());
        assert_eq!(report.serviced + report.dropped as usize, report.offered);
        assert_eq!(report.verdicts.len(), report.serviced);
        // Deterministic rerun: the simulated path is bit-stable.
        let mut harness2 = ServeHarness::new(deployment.serve_backend());
        let report2 = harness2.replay(&capture, &config).unwrap();
        assert_eq!(report.dropped, report2.dropped);
        assert_eq!(report.latency, report2.latency);
        assert_eq!(report.verdicts, report2.verdicts);
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
