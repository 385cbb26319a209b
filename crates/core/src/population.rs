//! Population serving: the fourth serving tier (software → ECU → fleet →
//! **population**), multiplexing many concurrent tenant capture streams
//! onto a bounded pool of serving backends.
//!
//! The paper's deployment story is one quantised IDS watching one CAN
//! bus; a production backend monitors a vehicle *population* — every
//! vehicle uploads a small capture stream (one tenant, ~500 kb/s wire
//! pacing) and the backend serves all of them at once. This module is
//! that layer, built on top of [`ServeHarness`]:
//!
//! * [`TenantStream`] / [`Population`] — the tenant registry: each
//!   tenant is one capture at its own wire bitrate and static priority,
//!   arriving on a staggered deterministic schedule
//!   ([`PopulationConfig::stagger`] between tenant ordinals).
//! * **One lane per tenant** — tenant replays run on the crate's
//!   internal claim-counter pool (`par`): each worker claims the next
//!   unserved tenant off one atomic counter, and the results are sorted
//!   back into tenant order. The tenant is the unit of work, so
//!   per-tenant frame order is preserved by construction, and a slow
//!   tenant holds up only the worker serving it. The pool size
//!   ([`PopulationConfig::workers`]) is execution-only.
//! * **One pacing pass** — each tenant's lane returns, beside its
//!   report, one compact record per offered frame: its arrival time,
//!   its ordinal and, when served, its verdict latency and whether it
//!   was a confirmed positive. The records are in arrival order, so the
//!   admission ledger walks the population schedule as a merge of the
//!   lanes, and no capture is paced twice.
//! * [`TenantAdmission`] — cross-tenant admission control generalising
//!   [`crate::serve::AdmissionPolicy::ShedLowestMeasuredValue`] from
//!   models to tenant streams: when more streams are live than the
//!   backend pool has slots, the stream with the lowest windowed
//!   confirmed-positive count is shed (typed [`TenantAction::Shed`] /
//!   [`TenantAction::Readmit`] events), and shed streams are readmitted
//!   highest-value-first as slots free.
//! * [`PopulationReport`] — per-tenant [`TenantReport`]s aggregated into
//!   population percentiles (pooled verdict latency, drops, sustained
//!   fps) with a **bit-deterministic merge in tenant-ordinal order**:
//!   [`PopulationReport::fingerprint`] is identical for any worker
//!   count.
//!
//! Determinism contract: a single-tenant population run is bit-identical
//! to a plain [`ServeHarness::replay`] of the same capture under the
//! same [`ReplayConfig`] — phase 1 *is* that code path, and the
//! admission ledger (phase 2) is pure integer bookkeeping over the
//! arrival schedule phase 1 paced.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt::Write as _;

use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_dataset::generator::Dataset;

use crate::error::CoreError;
use crate::report::LatencyStats;
use crate::serve::{
    offered_rate, ReplayConfig, ServeBackend, ServeHarness, ServeReport, ShardWorkers, ValueScore,
    Verdict, VerdictSink,
};
use crate::telemetry::{Probe, Stage, TelemetryReport};

/// One tenant: a vehicle's capture stream, replayed at its own wire
/// bitrate (500 kb/s by default — the common body/powertrain rate) with
/// a static priority used only to break admission-score ties.
///
/// # Example
///
/// ```
/// use canids_can::timing::Bitrate;
/// use canids_core::population::TenantStream;
/// use canids_dataset::generator::Dataset;
///
/// let t = TenantStream::new("vehicle-0", Dataset::from_records(Vec::new()))
///     .with_priority(3);
/// assert_eq!(t.bitrate, Bitrate::HIGH_SPEED_500K);
/// assert_eq!(t.priority, 3);
/// ```
#[derive(Debug, Clone)]
pub struct TenantStream {
    /// Display name (vehicle identifier).
    pub name: String,
    /// The tenant's capture.
    pub capture: Dataset,
    /// Wire bitrate the capture is paced at (overrides
    /// [`ReplayConfig::bitrate`] for this tenant).
    pub bitrate: Bitrate,
    /// Static value, used only to break windowed-score ties: on a shed
    /// tie the *lower*-priority stream is shed, on a readmit tie the
    /// *higher*-priority stream returns first.
    pub priority: u32,
}

impl TenantStream {
    /// A tenant at the default 500 kb/s pacing and priority 0.
    pub fn new<S: Into<String>>(name: S, capture: Dataset) -> Self {
        TenantStream {
            name: name.into(),
            capture,
            bitrate: Bitrate::HIGH_SPEED_500K,
            priority: 0,
        }
    }

    /// Sets the tenant's wire bitrate (builder style).
    pub fn with_bitrate(mut self, bitrate: Bitrate) -> Self {
        self.bitrate = bitrate;
        self
    }

    /// Sets the tenant's static tie-break priority (builder style).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// Cross-tenant admission control: what happens when more tenant
/// streams are live than the backend pool has slots.
///
/// # Example
///
/// ```
/// use canids_core::population::TenantAdmission;
///
/// let a = TenantAdmission::ShedLowestValueTenant { capacity: 2, window: 256 };
/// assert_eq!(a.label(), "shed-lowest-value-tenant");
/// assert_eq!(TenantAdmission::AdmitAll.label(), "admit-all");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TenantAdmission {
    /// Every tenant is admitted for its whole stream (capacity is
    /// unbounded); no tenant events are emitted.
    #[default]
    AdmitAll,
    /// At most `capacity` streams are admitted at once. When a new
    /// stream arrives into a full pool, the stream with the lowest
    /// windowed confirmed-positive count — over each tenant's last
    /// `window` served frames — is shed (possibly the newcomer itself).
    /// Ties shed the lower static priority, then the youngest stream.
    /// When an admitted stream ends, the highest-value shed stream with
    /// frames remaining is readmitted (ties prefer higher priority, then
    /// the oldest stream). This is
    /// [`crate::serve::AdmissionPolicy::ShedLowestMeasuredValue`]
    /// generalised from models to tenant streams.
    ShedLowestValueTenant {
        /// Backend pool slots (clamped to at least 1).
        capacity: usize,
        /// Sliding window, in served frames per tenant, over which
        /// confirmed positives are counted (clamped to at least 1).
        window: usize,
    },
}

impl TenantAdmission {
    /// Short label for tables and JSON reports.
    pub fn label(&self) -> &'static str {
        match self {
            TenantAdmission::AdmitAll => "admit-all",
            TenantAdmission::ShedLowestValueTenant { .. } => "shed-lowest-value-tenant",
        }
    }
}

/// Configuration of one population run.
///
/// # Example
///
/// ```
/// use canids_can::time::SimTime;
/// use canids_core::population::{PopulationConfig, TenantAdmission};
/// use canids_core::serve::ShardWorkers;
///
/// let cfg = PopulationConfig::default()
///     .with_stagger(SimTime::from_millis(1))
///     .with_admission(TenantAdmission::ShedLowestValueTenant { capacity: 4, window: 128 })
///     .with_workers(ShardWorkers::Fixed(2));
/// assert_eq!(cfg.stagger, SimTime::from_millis(1));
/// assert_eq!(cfg.admission.label(), "shed-lowest-value-tenant");
/// ```
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Per-tenant replay template. Each tenant replays under this
    /// configuration with [`ReplayConfig::bitrate`] replaced by the
    /// tenant's own bitrate.
    pub replay: ReplayConfig,
    /// Deterministic arrival stagger: tenant `k`'s stream starts at
    /// `k · stagger` on the population clock.
    pub stagger: SimTime,
    /// Cross-tenant admission policy.
    pub admission: TenantAdmission,
    /// Worker pool for the per-tenant replays — **execution-only**; any
    /// value produces a bit-identical [`PopulationReport`].
    pub workers: ShardWorkers,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            replay: ReplayConfig::default(),
            stagger: SimTime::from_micros(500),
            admission: TenantAdmission::AdmitAll,
            workers: ShardWorkers::Auto,
        }
    }
}

impl PopulationConfig {
    /// Sets the per-tenant replay template (builder style).
    pub fn with_replay(mut self, replay: ReplayConfig) -> Self {
        self.replay = replay;
        self
    }

    /// Sets the arrival stagger (builder style).
    pub fn with_stagger(mut self, stagger: SimTime) -> Self {
        self.stagger = stagger;
        self
    }

    /// Sets the cross-tenant admission policy (builder style).
    pub fn with_admission(mut self, admission: TenantAdmission) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the worker pool (builder style).
    pub fn with_workers(mut self, workers: ShardWorkers) -> Self {
        self.workers = workers;
        self
    }
}

/// What a cross-tenant admission event did.
///
/// # Example
///
/// ```
/// use canids_core::population::TenantAction;
///
/// assert_ne!(TenantAction::Shed, TenantAction::Readmit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantAction {
    /// Tenant stream detached from the pool; its frames pass unserved
    /// (counted in [`TenantReport::shed_frames`]) until readmission.
    Shed,
    /// Previously shed tenant stream readmitted into a freed slot.
    Readmit,
}

/// One cross-tenant admission event, on the population clock.
///
/// # Example
///
/// ```
/// use canids_can::time::SimTime;
/// use canids_core::population::{TenantAction, TenantEvent};
///
/// let e = TenantEvent {
///     time: SimTime::from_millis(2),
///     tenant: 5,
///     action: TenantAction::Shed,
/// };
/// assert_eq!(e.action, TenantAction::Shed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantEvent {
    /// Population-clock time the action was taken.
    pub time: SimTime,
    /// Tenant ordinal acted on.
    pub tenant: usize,
    /// What happened.
    pub action: TenantAction,
}

/// One tenant's slice of a population run: the untouched phase-1
/// [`ServeReport`] plus the admission ledger's frame accounting.
///
/// The conservation invariant
/// `offered == serviced + dropped + shed_frames` holds for every tenant:
/// each offered frame is served exactly once, dropped by the backend
/// FIFO, or covered by a typed shed window — never lost silently.
///
/// # Example
///
/// ```no_run
/// use canids_core::population::{Population, PopulationConfig, TenantStream};
/// use canids_core::prelude::*;
/// use canids_core::serve::SoftwareBackend;
///
/// let trained = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let model = trained.detector.int_mlp.clone();
/// let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
/// let pop = Population::with_tenants(vec![TenantStream::new("vehicle-0", capture)]);
/// let report = pop.serve(
///     || Ok(SoftwareBackend::single(model.clone())),
///     &PopulationConfig::default(),
/// )?;
/// let t = &report.tenants[0];
/// assert_eq!(t.offered, t.serviced + t.dropped as usize + t.shed_frames);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant ordinal (registry order).
    pub tenant: usize,
    /// Tenant display name.
    pub name: String,
    /// Frames the tenant's stream offered.
    pub offered: usize,
    /// Frames served while the tenant was admitted.
    pub serviced: usize,
    /// Frames dropped by the backend FIFO while admitted.
    pub dropped: u64,
    /// Frames that passed while the tenant was shed.
    pub shed_frames: usize,
    /// Confirmed positives (flagged frames whose ground truth was an
    /// attack) among the tenant's served frames.
    pub confirmed_positives: usize,
    /// Verdict latency over the tenant's served frames, on the sim
    /// clock.
    pub latency: LatencyStats,
    /// Number of admitted residency windows the stream was served in
    /// (1 without sheds; 0 when shed for its whole lifetime).
    pub windows: usize,
    /// The tenant's phase-1 replay report, bit-identical to a plain
    /// [`ServeHarness::replay`] of the same capture and configuration.
    pub serve: ServeReport,
}

impl TenantReport {
    /// `true` when the frame-conservation ledger balances:
    /// `offered == serviced + dropped + shed_frames`.
    pub fn conserved(&self) -> bool {
        self.offered == self.serviced + self.dropped as usize + self.shed_frames
    }

    /// Column headers matching [`TenantReport::table_row`].
    pub fn table_header() -> [&'static str; 8] {
        [
            "Tenant",
            "Offered",
            "Serviced",
            "Dropped",
            "Shed",
            "Confirmed",
            "p50",
            "p99",
        ]
    }

    /// This tenant as one formatted row for the population tables.
    pub fn table_row(&self) -> Vec<String> {
        vec![
            self.name.clone(),
            format!("{}", self.offered),
            format!("{}", self.serviced),
            format!("{}", self.dropped),
            format!("{}", self.shed_frames),
            format!("{}", self.confirmed_positives),
            format!("{:.1} us", self.latency.p50.as_micros_f64()),
            format!("{:.1} us", self.latency.p99.as_micros_f64()),
        ]
    }
}

/// The aggregated result of one population run: per-tenant reports
/// merged in **tenant-ordinal order** into population totals, pooled
/// latency percentiles and the tenant event log.
///
/// # Example
///
/// ```
/// use canids_core::population::PopulationReport;
///
/// let empty = PopulationReport::default();
/// assert!(empty.keeps_up());
/// assert_eq!(empty.fingerprint(), PopulationReport::default().fingerprint());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PopulationReport {
    /// Per-tenant reports, in tenant-ordinal order.
    pub tenants: Vec<TenantReport>,
    /// Frames offered across the population.
    pub offered: usize,
    /// Frames served across the population.
    pub serviced: usize,
    /// Frames dropped by backend FIFOs across the population.
    pub dropped: u64,
    /// Frames that passed while their tenant was shed.
    pub shed_frames: usize,
    /// Confirmed positives across the population.
    pub confirmed_positives: usize,
    /// Earliest population-clock arrival.
    pub first_arrival: SimTime,
    /// Latest population-clock arrival.
    pub last_arrival: SimTime,
    /// Offered load in frames/s over the population-clock span.
    pub offered_fps: f64,
    /// Aggregate modelled capacity in frames/s: total served frames over
    /// the **slowest** tenant replay's modelled busy time (software
    /// backends only, at `serve::SOFTWARE_FRAME_COST` per frame per
    /// model — `None` on simulated backends). A tenant replay that
    /// serviced no frame (an empty capture, say) books no busy time and
    /// is skipped, so it cannot erase the others' capacity.
    pub sustained_fps: Option<f64>,
    /// Pooled verdict latency over every served frame, on the sim
    /// clock, read from the tenants' samples pooled in tenant-ordinal
    /// order.
    pub latency: LatencyStats,
    /// Cross-tenant admission events in population-clock order.
    pub events: Vec<TenantEvent>,
    /// Merged telemetry: per-tenant replay telemetry folded in
    /// tenant-ordinal order (each tenant is one trace lane, shifted onto
    /// the population clock) plus the population layer's own
    /// [`Stage::TenantWindow`] / [`Stage::TenantAdmission`] spans.
    /// `None` unless the replay template enabled telemetry.
    pub telemetry: Option<TelemetryReport>,
}

impl PopulationReport {
    /// `true` when no backend FIFO dropped a frame (shed frames are
    /// governed, not dropped, and are accounted separately).
    pub fn keeps_up(&self) -> bool {
        self.dropped == 0
    }

    /// Tenant shed events.
    pub fn shed_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == TenantAction::Shed)
            .count()
    }

    /// Tenant readmit events.
    pub fn readmit_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == TenantAction::Readmit)
            .count()
    }

    /// A deterministic fingerprint over every population and per-tenant
    /// figure — floats via [`f64::to_bits`], times at nanosecond
    /// resolution, events and tenants in order. Equal fingerprints mean
    /// bit-identical reports; the population tests pin this string
    /// across worker counts 1/2/Auto.
    pub fn fingerprint(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "pop:{} {} {} {} {} fa:{:?} la:{:?} fps:{:016x} lat:{:?} sustained:{:?}",
            self.offered,
            self.serviced,
            self.dropped,
            self.shed_frames,
            self.confirmed_positives,
            self.first_arrival,
            self.last_arrival,
            self.offered_fps.to_bits(),
            self.latency,
            self.sustained_fps.map(f64::to_bits),
        );
        let _ = write!(s, " events:{}", self.events.len());
        for e in &self.events {
            let _ = write!(s, "|{:?}@t{}:{:?}", e.action, e.tenant, e.time);
        }
        for t in &self.tenants {
            let _ = write!(
                s,
                "|t{} {} o:{} s:{} d:{} x:{} c:{} w:{} lat:{:?}",
                t.tenant,
                t.name,
                t.offered,
                t.serviced,
                t.dropped,
                t.shed_frames,
                t.confirmed_positives,
                t.windows,
                t.latency,
            );
            let r = &t.serve;
            let _ = write!(
                s,
                " serve[{} {} {} {} {} cm:{:?} fps:{:016x} sustained:{:?} lat:{:?} ev:{} b:{}]",
                r.offered,
                r.serviced,
                r.dropped,
                r.flagged,
                r.fully_covered,
                r.cm,
                r.offered_fps.to_bits(),
                r.sustained_fps.map(f64::to_bits),
                r.latency,
                r.events.len(),
                r.boards.len(),
            );
        }
        if let Some(t) = &self.telemetry {
            let _ = write!(s, "|telemetry:{}", t.fingerprint());
        }
        s
    }
}

/// The tenant registry: an ordered set of [`TenantStream`]s served as
/// one population. Tenant ordinals are registry order and are the
/// deterministic merge key for every aggregate.
///
/// # Example
///
/// ```
/// use canids_core::population::{Population, TenantStream};
/// use canids_dataset::generator::Dataset;
///
/// let mut pop = Population::new();
/// let ordinal = pop.push(TenantStream::new("vehicle-0", Dataset::from_records(Vec::new())));
/// assert_eq!(ordinal, 0);
/// assert_eq!(pop.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Population {
    tenants: Vec<TenantStream>,
}

impl Population {
    /// An empty registry.
    pub fn new() -> Self {
        Population::default()
    }

    /// A registry over the given tenants (ordinals are vector order).
    pub fn with_tenants(tenants: Vec<TenantStream>) -> Self {
        Population { tenants }
    }

    /// Registers a tenant, returning its ordinal.
    pub fn push(&mut self, tenant: TenantStream) -> usize {
        self.tenants.push(tenant);
        self.tenants.len() - 1
    }

    /// The registered tenants, in ordinal order.
    pub fn tenants(&self) -> &[TenantStream] {
        &self.tenants
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Serves every tenant stream, each through a fresh backend from
    /// `factory`, and aggregates one [`PopulationReport`].
    ///
    /// Phase 1 replays each tenant independently on the claim-counter
    /// pool — per-tenant results are bit-identical to a plain
    /// [`ServeHarness::replay`] under the tenant's configuration,
    /// whatever the scheduling — and keeps one record per frame (its
    /// arrival time and, if served, its verdict latency and
    /// confirmed-positive bit), sorted by arrival. Phase 2 merges the
    /// lanes' records into the staggered population arrival schedule,
    /// in `(time, tenant, ordinal)` order, and sweeps it through the
    /// cross-tenant admission ledger (single-threaded integer
    /// bookkeeping), producing the tenant event log and the
    /// frame-conservation accounting. Ties break by tenant ordinal, so
    /// the report fingerprint does not depend on
    /// [`PopulationConfig::workers`].
    ///
    /// # Errors
    ///
    /// The first factory or replay error, if any.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use canids_core::population::{Population, PopulationConfig, TenantStream};
    /// use canids_core::prelude::*;
    /// use canids_core::serve::SoftwareBackend;
    ///
    /// let trained = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
    /// let model = trained.detector.int_mlp.clone();
    /// let mut pop = Population::new();
    /// for k in 0..4 {
    ///     let capture = IdsPipeline::new(PipelineConfig::dos().quick()).generate_capture();
    ///     pop.push(TenantStream::new(format!("vehicle-{k}"), capture));
    /// }
    /// let report = pop.serve(
    ///     || Ok(SoftwareBackend::single(model.clone())),
    ///     &PopulationConfig::default(),
    /// )?;
    /// assert_eq!(report.tenants.len(), 4);
    /// assert!(report.tenants.iter().all(|t| t.conserved()));
    /// # Ok::<(), canids_core::CoreError>(())
    /// ```
    pub fn serve<B, F>(
        &self,
        factory: F,
        config: &PopulationConfig,
    ) -> Result<PopulationReport, CoreError>
    where
        B: ServeBackend,
        F: Fn() -> Result<B, CoreError> + Sync,
    {
        if self.tenants.is_empty() {
            return Ok(PopulationReport::default());
        }

        // Phase 1: every tenant replays independently and in parallel on
        // the claim-counter pool. The tenant is the unit of work, so
        // per-tenant frame order is trivially preserved and each result
        // is deterministic regardless of which worker served it.
        let outcomes = replay_lanes(&factory, &self.tenants, config)?;

        // Phase 2: the cross-tenant admission ledger — a single-threaded
        // sweep over the merge of the lanes' staggered arrivals.
        let ledger = Ledger::sweep(&self.tenants, config, &outcomes);
        Ok(ledger.into_report(&self.tenants, config, outcomes))
    }
}

/// One tenant lane's phase-1 result: its replay report, and one record
/// per offered frame (dropped frames included) in `(arrival, ordinal)`
/// order.
struct LaneOutcome {
    report: ServeReport,
    records: Vec<FrameRecord>,
}

/// One offered frame of a tenant lane, as the admission ledger reads it.
#[derive(Debug, Clone, Copy, Default)]
struct FrameRecord {
    /// Arrival on the lane's own clock.
    arrival: SimTime,
    /// Position in the tenant's capture.
    ordinal: usize,
    /// The frame's verdict; `None` when the backend dropped it.
    verdict: Option<LaneVerdict>,
}

/// What the admission ledger reads of a served frame's verdict.
#[derive(Debug, Clone, Copy)]
struct LaneVerdict {
    /// Completion minus arrival, on the sim clock.
    latency: SimTime,
    /// Flagged, and the frame was an attack.
    confirmed: bool,
}

/// The lane-local [`VerdictSink`]: one [`FrameRecord`] per frame of the
/// capture, in ordinal order, each filled with its frame's verdict as
/// the replay delivers it.
struct LaneRecords(Vec<FrameRecord>);

impl VerdictSink for LaneRecords {
    fn verdict(&mut self, v: &Verdict) {
        if let Some(record) = self.0.get_mut(v.ordinal) {
            record.verdict = Some(LaneVerdict {
                latency: v.completed_at.saturating_sub(v.arrival),
                confirmed: v.flagged && v.truth_attack,
            });
        }
    }
}

/// Replays every tenant, one lane each, through a fresh backend from
/// `factory` on the configured worker pool, under the population's
/// replay template at the tenant's own bitrate. Each lane stamps its
/// records with the arrivals its replay paced and sorts them by
/// arrival (stably, so ties keep ordinal order) when they are out of
/// order, as a capture replayed as recorded can be. Returns each lane's
/// outcome in tenant order whatever the schedule.
///
/// # Errors
///
/// The first factory or replay error, in tenant order.
fn replay_lanes<B, F>(
    factory: &F,
    tenants: &[TenantStream],
    config: &PopulationConfig,
) -> Result<Vec<LaneOutcome>, CoreError>
where
    B: ServeBackend,
    F: Fn() -> Result<B, CoreError> + Sync,
{
    let workers = config.workers.count(tenants.len());
    crate::par::scoped_map_with(tenants, workers, |tenant| {
        let replay = config.replay.clone().with_bitrate(tenant.bitrate);
        let mut sink = LaneRecords(vec![FrameRecord::default(); tenant.capture.len()]);
        let (report, arrivals) =
            ServeHarness::new(factory()?).replay_arrivals(&tenant.capture, &replay, &mut sink)?;
        let mut records = sink.0;
        for (ordinal, (record, arrival)) in records.iter_mut().zip(arrivals).enumerate() {
            record.arrival = arrival;
            record.ordinal = ordinal;
        }
        if !records.is_sorted_by_key(|r| r.arrival) {
            records.sort_by_key(|r| r.arrival);
        }
        Ok(LaneOutcome { report, records })
    })
    .into_iter()
    .collect()
}

/// Aggregate capacity of parallel lanes: `serviced` frames over the
/// **slowest** lane's modelled busy time, each lane's being its
/// `serviced ÷ sustained_fps`. Lanes that serviced no frame book no busy
/// time and are skipped; `None` unless every other lane has a capacity.
fn slowest_lane_fps<'a>(
    lanes: impl IntoIterator<Item = &'a ServeReport>,
    serviced: usize,
) -> Option<f64> {
    let mut max_busy_s = 0.0f64;
    for lane in lanes.into_iter().filter(|lane| lane.serviced > 0) {
        let fps = lane.sustained_fps.filter(|&f| f > 0.0)?;
        max_busy_s = max_busy_s.max(lane.serviced as f64 / fps);
    }
    (max_busy_s > 0.0).then(|| serviced as f64 / max_busy_s)
}

/// The population arrival schedule: every lane's records on the
/// population clock (each lane shifted by its stagger offset), merged
/// in `(time, tenant, ordinal)` order. Each lane is already in
/// `(arrival, ordinal)` order, so a heap holding every lane's next
/// record, keyed on `(time, tenant)`, yields the merge one frame at a
/// time.
struct Schedule<'a> {
    lanes: &'a [LaneOutcome],
    /// Per lane, its stagger offset on the population clock.
    offsets: Vec<SimTime>,
    /// Per lane, the position of its next record.
    next: Vec<usize>,
    /// Every lane with records left, keyed on its next record's
    /// `(time, tenant)`.
    heads: BinaryHeap<Reverse<(SimTime, usize)>>,
}

impl<'a> Schedule<'a> {
    fn new(lanes: &'a [LaneOutcome], stagger: SimTime) -> Self {
        let offsets: Vec<SimTime> = (0..lanes.len())
            .map(|k| stagger.mul_u64(k as u64))
            .collect();
        let heads = lanes
            .iter()
            .enumerate()
            .filter_map(|(k, lane)| {
                let first = lane.records.first()?;
                Some(Reverse((offsets[k] + first.arrival, k)))
            })
            .collect();
        Schedule {
            lanes,
            offsets,
            next: vec![0; lanes.len()],
            heads,
        }
    }
}

impl<'a> Iterator for Schedule<'a> {
    /// A frame's population-clock time, its tenant and its record.
    type Item = (SimTime, usize, &'a FrameRecord);

    fn next(&mut self) -> Option<Self::Item> {
        let mut head = self.heads.peek_mut()?;
        let Reverse((time, k)) = *head;
        let records = &self.lanes[k].records;
        let record = &records[self.next[k]];
        self.next[k] += 1;
        match records.get(self.next[k]) {
            Some(after) => *head = Reverse((self.offsets[k] + after.arrival, k)),
            None => {
                PeekMut::pop(head);
            }
        }
        Some((time, k, record))
    }
}

/// The phase-2 admission ledger: per-tenant frame accounting, residency
/// windows and the tenant event log, produced by one deterministic
/// sweep over the population arrival schedule.
#[derive(Debug, Default)]
struct Ledger {
    serviced: Vec<usize>,
    dropped: Vec<u64>,
    shed_frames: Vec<usize>,
    confirmed: Vec<usize>,
    latencies: Vec<Vec<SimTime>>,
    windows: Vec<Vec<(SimTime, SimTime)>>,
    events: Vec<TenantEvent>,
    offered: Vec<usize>,
    first_arrival: SimTime,
    last_arrival: SimTime,
}

impl Ledger {
    /// Runs the admission sweep. Pure integer bookkeeping over the
    /// deterministic arrival schedule: no clocks, no thread state.
    fn sweep(
        tenants: &[TenantStream],
        config: &PopulationConfig,
        outcomes: &[LaneOutcome],
    ) -> Ledger {
        let n = tenants.len();
        let (capacity, window) = match config.admission {
            // Unbounded capacity makes AdmitAll fall out of the same
            // sweep with no events.
            TenantAdmission::AdmitAll => (usize::MAX, 1),
            TenantAdmission::ShedLowestValueTenant { capacity, window } => {
                (capacity.max(1), window.max(1))
            }
        };

        let total: Vec<usize> = outcomes.iter().map(|lane| lane.records.len()).collect();
        let mut ledger = Ledger {
            serviced: vec![0; n],
            dropped: vec![0; n],
            shed_frames: vec![0; n],
            confirmed: vec![0; n],
            latencies: vec![Vec::new(); n],
            windows: vec![Vec::new(); n],
            events: Vec::new(),
            offered: total.clone(),
            first_arrival: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
        };

        let mut started = vec![false; n];
        let mut admitted = vec![false; n];
        let mut admitted_count = 0usize;
        let mut processed = vec![0usize; n];
        let mut open: Vec<Option<SimTime>> = vec![None; n];
        // Windowed confirmed-positive score per tenant, over the
        // tenant's own frame ordinals. Only an admitted tenant's window
        // expires, so a shed stream is readmitted on the score it was
        // shed with.
        let mut value = ValueScore::new(window, n);
        let rank = |t: usize, value: &ValueScore| value.rank(t, tenants[t].priority);

        let mut schedule = Schedule::new(outcomes, config.stagger).peekable();
        if let Some(&(first, _, _)) = schedule.peek() {
            ledger.first_arrival = first;
        }
        for (time, k, record) in schedule {
            ledger.last_arrival = time;
            if !started[k] {
                started[k] = true;
                if admitted_count < capacity {
                    admitted[k] = true;
                    admitted_count += 1;
                    open[k] = Some(time);
                } else {
                    // Pool full: shed the lowest-value stream — the
                    // newcomer competes on equal terms and may lose.
                    let victim = std::iter::once(k)
                        .chain((0..n).filter(|&t| admitted[t]))
                        .min_by_key(|&t| rank(t, &value))
                        .unwrap_or(k);
                    ledger.events.push(TenantEvent {
                        time,
                        tenant: victim,
                        action: TenantAction::Shed,
                    });
                    if victim != k {
                        admitted[victim] = false;
                        if let Some(o) = open[victim].take() {
                            ledger.windows[victim].push((o, time));
                        }
                        admitted[k] = true;
                        open[k] = Some(time);
                    }
                }
            }
            if admitted[k] {
                value.expire(k, record.ordinal);
                match record.verdict {
                    Some(v) => {
                        ledger.serviced[k] += 1;
                        ledger.latencies[k].push(v.latency);
                        if v.confirmed {
                            ledger.confirmed[k] += 1;
                            value.record(k, record.ordinal);
                        }
                    }
                    None => ledger.dropped[k] += 1,
                }
            } else {
                ledger.shed_frames[k] += 1;
            }
            processed[k] += 1;
            if processed[k] == total[k] && admitted[k] {
                // Stream complete: the slot frees; readmit the highest-
                // value shed stream that still has frames to serve.
                admitted[k] = false;
                admitted_count -= 1;
                if let Some(o) = open[k].take() {
                    ledger.windows[k].push((o, time));
                }
                let pick = (0..n)
                    .filter(|&t| started[t] && !admitted[t] && processed[t] < total[t])
                    .max_by_key(|&t| rank(t, &value));
                if let Some(c) = pick {
                    admitted[c] = true;
                    admitted_count += 1;
                    open[c] = Some(time);
                    ledger.events.push(TenantEvent {
                        time,
                        tenant: c,
                        action: TenantAction::Readmit,
                    });
                }
            }
        }
        ledger
    }

    /// Folds the ledger and the phase-1 outcomes into the final report,
    /// strictly in tenant-ordinal order.
    fn into_report(
        mut self,
        tenants: &[TenantStream],
        config: &PopulationConfig,
        outcomes: Vec<LaneOutcome>,
    ) -> PopulationReport {
        let mut tenant_reports = Vec::with_capacity(tenants.len());
        let mut pooled: Vec<SimTime> = Vec::with_capacity(self.serviced.iter().sum());
        for (k, lane) in outcomes.into_iter().enumerate() {
            let lats = std::mem::take(&mut self.latencies[k]);
            pooled.extend(&lats);
            tenant_reports.push(TenantReport {
                tenant: k,
                name: tenants[k].name.clone(),
                offered: self.offered[k],
                serviced: self.serviced[k],
                dropped: self.dropped[k],
                shed_frames: self.shed_frames[k],
                confirmed_positives: self.confirmed[k],
                latency: LatencyStats::from_unsorted(lats),
                windows: self.windows[k].len(),
                serve: lane.report,
            });
        }

        let offered: usize = tenant_reports.iter().map(|t| t.offered).sum();
        let serviced: usize = tenant_reports.iter().map(|t| t.serviced).sum();
        let dropped: u64 = tenant_reports.iter().map(|t| t.dropped).sum();
        let shed_frames: usize = tenant_reports.iter().map(|t| t.shed_frames).sum();
        let confirmed_positives: usize = tenant_reports.iter().map(|t| t.confirmed_positives).sum();

        let offered_fps = offered_rate(offered, self.first_arrival, self.last_arrival);
        // Aggregate capacity: total served frames over the slowest
        // tenant's modelled busy time.
        let lanes = || tenant_reports.iter().map(|t| &t.serve);
        let sustained_fps = slowest_lane_fps(lanes(), serviced);

        let telemetry = config.replay.telemetry.as_ref().map(|tcfg| {
            // Per-tenant telemetry folds in tenant-ordinal order, which
            // re-tags each tenant's spans with its ordinal — one trace
            // lane per tenant — then shifts them onto the population
            // clock by the tenant's stagger offset.
            let mut merged = lanes()
                .map(|lane| lane.telemetry.clone())
                .collect::<Option<Vec<_>>>()
                .map(TelemetryReport::merge)
                .unwrap_or_default();
            for span in &mut merged.spans {
                let offset = config.stagger.mul_u64(u64::from(span.shard));
                span.start += offset;
                span.end += offset;
            }
            // The population layer's own spans: one residency window per
            // admitted segment (tenants in ordinal order), then the
            // zero-width admission decisions in event order.
            let probe = Probe::new(tcfg);
            for (k, windows) in self.windows.iter().enumerate() {
                let tid = u32::try_from(k).unwrap_or(u32::MAX);
                for &(start, end) in windows {
                    probe.record(tid, Stage::TenantWindow, start, end);
                }
            }
            for e in &self.events {
                let tid = u32::try_from(e.tenant).unwrap_or(u32::MAX);
                probe.record(tid, Stage::TenantAdmission, e.time, e.time);
            }
            let own = probe.take_report();
            merged.metrics.merge(&own.metrics);
            merged.spans.extend(own.spans);
            merged
        });

        PopulationReport {
            latency: LatencyStats::from_unsorted(pooled),
            tenants: tenant_reports,
            offered,
            serviced,
            dropped,
            shed_frames,
            confirmed_positives,
            first_arrival: self.first_arrival,
            last_arrival: self.last_arrival,
            offered_fps,
            sustained_fps,
            events: self.events,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_dataset::generator::{DatasetBuilder, TrafficConfig};

    fn quick_capture(seed: u64, ms: u64) -> Dataset {
        DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(ms),
            seed,
            ..TrafficConfig::default()
        })
        .build()
    }

    #[test]
    fn registry_orders_tenants() {
        let mut pop = Population::new();
        assert!(pop.is_empty());
        assert_eq!(pop.push(TenantStream::new("a", quick_capture(1, 10))), 0);
        assert_eq!(pop.push(TenantStream::new("b", quick_capture(2, 10))), 1);
        assert_eq!(pop.len(), 2);
        assert_eq!(pop.tenants()[1].name, "b");
    }

    #[test]
    fn empty_population_serves_to_empty_report() {
        let pop = Population::new();
        let report = pop
            .serve(
                || {
                    Ok(crate::serve::SoftwareBackend::single(
                        canids_qnn::mlp::QuantMlp::new(canids_qnn::mlp::MlpConfig::paper_4bit())
                            .unwrap()
                            .export()
                            .unwrap(),
                    ))
                },
                &PopulationConfig::default(),
            )
            .unwrap();
        assert_eq!(report.offered, 0);
        assert!(report.tenants.is_empty());
        assert!(report.keeps_up());
    }

    #[test]
    fn admission_labels() {
        assert_eq!(TenantAdmission::AdmitAll.label(), "admit-all");
        assert_eq!(
            TenantAdmission::ShedLowestValueTenant {
                capacity: 0,
                window: 0
            }
            .label(),
            "shed-lowest-value-tenant"
        );
    }

    #[test]
    fn tenant_table_row_matches_header() {
        // Arity is checked by Table::push_row at runtime; pin it here so
        // a header edit cannot drift silently.
        assert_eq!(TenantReport::table_header().len(), 8);
    }
}
