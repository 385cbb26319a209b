//! Replay configuration: pacing, overload governance, the fleet
//! transport and the population lane pool.

use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_soc::ecu::{EcuConfig, SchedPolicy};

use crate::net::NetConfig;
use crate::telemetry::TelemetryConfig;

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
    /// the live [`Verdict`](super::Verdict) stream. A model that never fires is shed
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

/// How the fleet backend moves frames from the backbone to each board:
/// the event-driven [`crate::net`] runtime, whose gateway buffers and
/// faults come from its [`NetConfig`].
///
/// The default — an unbounded drop-tail buffer and no faults — forwards
/// every frame exactly as the closed-form
/// [`canids_can::gateway::SegmentForwarder`] would
/// (`tests/net_equivalence.rs`). Every fleet replay fills
/// [`ServeReport::gateways`](super::ServeReport::gateways) and logs outage windows into
/// [`ServeReport::events`](super::ServeReport::events).
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
    /// Each frame is booked at
    /// [`SOFTWARE_FRAME_COST`](super::SOFTWARE_FRAME_COST) per active
    /// model either way, so the window changes latency, never capacity. The
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
    /// [`ServeReport::telemetry`](super::ServeReport::telemetry). `None` (the default) is provably
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
