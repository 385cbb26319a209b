//! The composable replay report, and `finalize`, which builds it from
//! the harness's aggregator.

use std::time::Duration;

use canids_can::time::SimTime;
use canids_qnn::metrics::ConfusionMatrix;

use super::verdict::Aggregator;
use super::{FleetAction, FleetEvent, ReplayConfig, ServeTopology, ShardTotals};
use crate::fleet::Slot;
use crate::net::GatewayLoad;
use crate::report::{EnergyStats, LatencyStats};
use crate::telemetry::TelemetryReport;

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

/// The composable outcome of one replay through any
/// [`ServeBackend`](super::ServeBackend).
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
    /// [`SOFTWARE_FRAME_COST`](super::SOFTWARE_FRAME_COST) per frame
    /// per active model. Not a host measurement; `None` on simulated
    /// backends.
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

/// Builds the report of a finished replay from its aggregator, the
/// admission and network `events` in log order, and the sessions'
/// closing `totals`; the telemetry section is left for the caller.
pub(super) fn finalize(
    backend: String,
    config: &ReplayConfig,
    topology: &ServeTopology,
    agg: &mut Aggregator,
    totals: &[ShardTotals],
    events: Vec<FleetEvent>,
    gateways: Vec<GatewayLoad>,
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

    let verdicts = std::mem::take(&mut agg.verdicts);
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
        latency: LatencyStats::from_unsorted(std::mem::take(&mut agg.fused_lat)),
        flagged: agg.flagged,
        fully_covered: agg.fully_covered,
        cm: agg.cm,
        energy: any_energy.then_some(energy_sum),
        boards,
        per_model,
        events,
        gateways,
        verdicts,
        telemetry: None,
    }
}
