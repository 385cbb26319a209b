//! Deterministic, sim-time-clocked observability for the serving stack.
//!
//! Everything in this module is clocked on [`SimTime`] — the virtual bus
//! clock — never the host's wall clock, so a replay instrumented with
//! telemetry produces the **bit-identical** trace and metrics snapshot on
//! every run and for any worker count (per-shard registries merge in
//! strict shard order, exactly like `merge_sharded` reports). The one
//! audited exception is [`WallClock`]: the single workspace gate through
//! which wall-time reads are allowed (the software backend reports
//! *measured host latency* by contract).
//!
//! Three layers:
//!
//! 1. **Spans** — [`Span`] records a `[start, end)` interval on the
//!    virtual clock for one pipeline [`Stage`] (featurise → pack → infer
//!    on the software path, DMA windows on the ECU path, gateway hops in
//!    the fleet network, admission decisions in the harness).
//! 2. **Metrics** — [`MetricsRegistry`] holds typed integer counters and
//!    fixed power-of-two-bucket histograms keyed by static interned
//!    names. All-integer state makes bit-determinism trivial.
//! 3. **Exporters** — [`TelemetryReport::to_chrome_trace`] emits
//!    Chrome-trace (`trace_events`) JSON loadable in `about:tracing` /
//!    Perfetto, and [`TelemetryReport::metrics_json`] a flat snapshot.
//!
//! Telemetry is opt-in per replay via
//! `ReplayConfig::with_telemetry(TelemetryConfig::default())` and is
//! provably free when disabled: with telemetry off every `ServeReport`
//! field is bit-identical to an uninstrumented build.
//!
//! ```
//! use canids_core::telemetry::{Probe, Stage, TelemetryConfig, TelemetryReport};
//! use canids_can::time::SimTime;
//!
//! let probe = Probe::new(&TelemetryConfig::default());
//! probe.record(0, Stage::Infer, SimTime::from_micros(10), SimTime::from_micros(14));
//! let report = probe.take_report();
//! assert_eq!(report.spans.len(), 1);
//! assert_eq!(report.stage_stats(Stage::Infer).count, 1);
//! ```

use canids_can::time::SimTime;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// One pipeline stage in the span taxonomy.
///
/// Stage names are a static interned table: every span and histogram is
/// keyed by one of these variants, so exporters never carry owned
/// strings and merged registries cannot drift on key order.
///
/// ```
/// use canids_core::telemetry::Stage;
///
/// assert_eq!(Stage::DmaWindow.name(), "dma_window");
/// assert_eq!(Stage::from_name("infer"), Some(Stage::Infer));
/// assert_eq!(Stage::ALL.len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Feature extraction over a raw CAN frame (software hot path).
    Featurise,
    /// Quantise-and-pack of the feature vector into integer levels.
    Pack,
    /// Forward pass through the quantised MLP (or the simulated
    /// accelerator's service interval on the ECU path).
    Infer,
    /// One buffered DMA batch window on the simulated ECU: from service
    /// start of the window to completion of the whole batch.
    DmaWindow,
    /// Store-and-forward hop through a fleet gateway: frame timestamp at
    /// the source segment to delivery on the destination bus.
    GatewayHop,
    /// An admission-control decision (shed / readmit / migrate) in the
    /// serve harness; zero-width, stamped at decision time.
    Admission,
    /// A cross-tenant admission decision (tenant shed / readmit) in the
    /// population layer; zero-width, stamped at decision time.
    TenantAdmission,
    /// One admitted residency window of a tenant stream in the
    /// population layer: from (re)admission to shed or stream end.
    TenantWindow,
}

impl Stage {
    /// Every stage, in the canonical (merge and export) order.
    pub const ALL: [Stage; 8] = [
        Stage::Featurise,
        Stage::Pack,
        Stage::Infer,
        Stage::DmaWindow,
        Stage::GatewayHop,
        Stage::Admission,
        Stage::TenantAdmission,
        Stage::TenantWindow,
    ];

    /// The static interned name for this stage.
    ///
    /// ```
    /// assert_eq!(canids_core::telemetry::Stage::GatewayHop.name(), "gateway_hop");
    /// ```
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Featurise => "featurise",
            Stage::Pack => "pack",
            Stage::Infer => "infer",
            Stage::DmaWindow => "dma_window",
            Stage::GatewayHop => "gateway_hop",
            Stage::Admission => "admission",
            Stage::TenantAdmission => "tenant_admission",
            Stage::TenantWindow => "tenant_window",
        }
    }

    /// Position in [`Stage::ALL`]; indexes the per-stage histogram table.
    pub const fn index(self) -> usize {
        match self {
            Stage::Featurise => 0,
            Stage::Pack => 1,
            Stage::Infer => 2,
            Stage::DmaWindow => 3,
            Stage::GatewayHop => 4,
            Stage::Admission => 5,
            Stage::TenantAdmission => 6,
            Stage::TenantWindow => 7,
        }
    }

    /// Reverse lookup from an interned name (e.g. a stage string carried
    /// by a lower layer that cannot depend on this crate).
    ///
    /// ```
    /// use canids_core::telemetry::Stage;
    /// assert_eq!(Stage::from_name("pack"), Some(Stage::Pack));
    /// assert_eq!(Stage::from_name("nope"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Stage> {
        Stage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// A typed counter slot in the [`MetricsRegistry`].
///
/// ```
/// use canids_core::telemetry::Counter;
/// assert_eq!(Counter::FramesDropped.name(), "frames_dropped");
/// assert_eq!(Counter::ALL.len(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Frames offered to the harness by the paced capture replay.
    FramesOffered,
    /// Frames that produced a verdict.
    FramesServiced,
    /// Frames lost to FIFO overflow, admission, or network drops.
    FramesDropped,
    /// Models shed by the admission controller.
    AdmissionShed,
    /// Models re-admitted after backlog recovered below the watermark.
    AdmissionReadmit,
    /// Models migrated to another board.
    AdmissionMigrate,
    /// Spans discarded because the [`TelemetryConfig::span_cap`] was hit
    /// (histograms still observe every interval).
    SpansDropped,
}

impl Counter {
    /// Every counter, in the canonical (merge and export) order.
    pub const ALL: [Counter; 7] = [
        Counter::FramesOffered,
        Counter::FramesServiced,
        Counter::FramesDropped,
        Counter::AdmissionShed,
        Counter::AdmissionReadmit,
        Counter::AdmissionMigrate,
        Counter::SpansDropped,
    ];

    /// The static interned name for this counter.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::FramesOffered => "frames_offered",
            Counter::FramesServiced => "frames_serviced",
            Counter::FramesDropped => "frames_dropped",
            Counter::AdmissionShed => "admission_shed",
            Counter::AdmissionReadmit => "admission_readmit",
            Counter::AdmissionMigrate => "admission_migrate",
            Counter::SpansDropped => "spans_dropped",
        }
    }

    /// Position in [`Counter::ALL`]; indexes the counter table.
    pub const fn index(self) -> usize {
        match self {
            Counter::FramesOffered => 0,
            Counter::FramesServiced => 1,
            Counter::FramesDropped => 2,
            Counter::AdmissionShed => 3,
            Counter::AdmissionReadmit => 4,
            Counter::AdmissionMigrate => 5,
            Counter::SpansDropped => 6,
        }
    }
}

/// A closed `[start, end)` interval on the virtual clock, attributed to
/// one [`Stage`] and the shard (serving lane / board) that produced it.
///
/// ```
/// use canids_core::telemetry::{Span, Stage};
/// use canids_can::time::SimTime;
///
/// let span = Span {
///     stage: Stage::Featurise,
///     start: SimTime::from_micros(5),
///     end: SimTime::from_micros(7),
///     shard: 0,
/// };
/// assert_eq!(span.duration().as_nanos(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which pipeline stage this interval covers.
    pub stage: Stage,
    /// Sim-time at which the stage began.
    pub start: SimTime,
    /// Sim-time at which the stage completed (`>= start`).
    pub end: SimTime,
    /// Serving lane / board index that produced the span. Re-tagged with
    /// the owning shard replica by [`TelemetryReport::merge`].
    pub shard: u32,
}

impl Span {
    /// `end - start`, saturating at zero.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// Number of histogram buckets: bucket `i >= 1` counts durations in
/// `[2^(i-1), 2^i)` nanoseconds, bucket 0 counts zero-length intervals,
/// and the last bucket absorbs everything `>= 2^63` ns.
const HIST_BUCKETS: usize = 65;

/// A fixed power-of-two-bucket latency histogram over nanosecond
/// durations. All-integer state (bucket counts, total count, sum, max)
/// makes merged snapshots bit-deterministic by construction.
///
/// ```
/// use canids_core::telemetry::Histogram;
///
/// let mut h = Histogram::default();
/// h.observe(1_500);
/// h.observe(1_500);
/// h.observe(3_000);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum_ns(), 6_000);
/// assert_eq!(h.max_ns(), 3_000);
/// assert!((h.mean_ns() - 2_000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a duration: 0 for zero, else `64 - clz(ns)` so
    /// bucket `i` covers `[2^(i-1), 2^i)` ns.
    fn bucket(ns: u64) -> usize {
        if ns == 0 {
            0
        } else {
            (64 - ns.leading_zeros()) as usize
        }
    }

    /// Record one duration in nanoseconds.
    pub fn observe(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed durations in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest observed duration in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Arithmetic mean in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(index, count)` pairs in index order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Fold another histogram into this one (element-wise addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Aggregate statistics for one stage, read out of its histogram.
///
/// ```
/// use canids_core::telemetry::{Probe, Stage, TelemetryConfig};
/// use canids_can::time::SimTime;
///
/// let probe = Probe::new(&TelemetryConfig::default());
/// probe.record(0, Stage::Pack, SimTime::ZERO, SimTime::from_nanos(800));
/// let stats = probe.take_report().stage_stats(Stage::Pack);
/// assert_eq!(stats.count, 1);
/// assert_eq!(stats.max_ns, 800);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageStats {
    /// Number of spans observed for the stage.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_ns: u64,
    /// Mean span duration in nanoseconds (0.0 when empty).
    pub mean_ns: f64,
    /// Largest span duration in nanoseconds.
    pub max_ns: u64,
}

/// Typed integer counters plus one fixed-bucket [`Histogram`] per
/// [`Stage`], keyed by the static interned name tables. Per-shard
/// registries are merged in strict shard order by
/// [`TelemetryReport::merge`], so a sharded replay's snapshot is
/// bit-identical for any worker count.
///
/// ```
/// use canids_core::telemetry::{Counter, MetricsRegistry, Stage};
///
/// let mut m = MetricsRegistry::default();
/// m.add(Counter::FramesOffered, 10);
/// m.observe(Stage::Infer, 2_000);
/// assert_eq!(m.counter(Counter::FramesOffered), 10);
/// assert_eq!(m.stage(Stage::Infer).count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    counters: [u64; Counter::ALL.len()],
    stages: [Histogram; Stage::ALL.len()],
}

impl MetricsRegistry {
    /// Increment a counter by one.
    pub fn inc(&mut self, c: Counter) {
        self.counters[c.index()] += 1;
    }

    /// Add `n` to a counter.
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Record a duration (ns) in the stage's histogram.
    pub fn observe(&mut self, stage: Stage, ns: u64) {
        self.stages[stage.index()].observe(ns);
    }

    /// The histogram backing one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Fold another registry into this one. Counters and histograms are
    /// element-wise sums, so folding shard registries in strict shard
    /// order reproduces the single-shard registry bit-for-bit.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (c, o) in self.counters.iter_mut().zip(other.counters.iter()) {
            *c += o;
        }
        for (h, o) in self.stages.iter_mut().zip(other.stages.iter()) {
            h.merge(o);
        }
    }

    /// A deterministic one-line fingerprint over every counter, bucket,
    /// sum, and max — equality of fingerprints is equality of snapshots.
    ///
    /// ```
    /// use canids_core::telemetry::MetricsRegistry;
    /// let (a, b) = (MetricsRegistry::default(), MetricsRegistry::default());
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            let _ = write!(out, "{}={};", c.name(), self.counter(c));
        }
        for s in Stage::ALL {
            let h = self.stage(s);
            let _ = write!(
                out,
                "|{}:n={},sum={},max={},b=",
                s.name(),
                h.count(),
                h.sum_ns(),
                h.max_ns()
            );
            for (i, c) in h.nonzero_buckets() {
                let _ = write!(out, "{i}.{c},");
            }
        }
        out
    }

    /// Flat metrics snapshot as a JSON object string: every counter by
    /// name, then per-stage `{count, sum_ns, max_ns, buckets}` where
    /// `buckets` lists non-empty `[index, count]` pairs.
    ///
    /// ```
    /// let m = canids_core::telemetry::MetricsRegistry::default();
    /// assert!(m.to_json().contains("\"frames_offered\""));
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {}", c.name(), self.counter(c));
        }
        out.push_str("\n  },\n  \"stages\": {");
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            let h = self.stage(s);
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \"buckets\": [",
                s.name(),
                h.count(),
                h.sum_ns(),
                h.max_ns()
            );
            for (j, (idx, c)) in h.nonzero_buckets().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[{idx}, {c}]");
            }
            out.push_str("] }");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Configuration for a replay's telemetry capture, passed to
/// `ReplayConfig::with_telemetry`.
///
/// ```
/// use canids_core::telemetry::TelemetryConfig;
///
/// let cfg = TelemetryConfig::default().with_span_cap(1024);
/// assert!(cfg.spans);
/// assert_eq!(cfg.span_cap, 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Keep individual [`Span`] records (metrics are always collected).
    pub spans: bool,
    /// Maximum retained spans per probe; beyond the cap spans are
    /// counted in [`Counter::SpansDropped`] but histograms still observe
    /// every interval, so metrics stay exact.
    pub span_cap: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            spans: true,
            span_cap: 1 << 16,
        }
    }
}

impl TelemetryConfig {
    /// Toggle span retention (metrics-only capture when `false`).
    pub fn with_spans(mut self, spans: bool) -> Self {
        self.spans = spans;
        self
    }

    /// Cap the retained span count.
    pub fn with_span_cap(mut self, cap: usize) -> Self {
        self.span_cap = cap;
        self
    }
}

struct ProbeInner {
    spans: Vec<Span>,
    metrics: MetricsRegistry,
    keep_spans: bool,
    span_cap: usize,
}

/// A cloneable handle through which sessions record spans and counters
/// during a replay. Cloning is cheap (shared interior), which lets the
/// handle survive `ServeSession::finish(self)` consuming the session: the
/// harness keeps one clone and drains it after the session is gone.
///
/// ```
/// use canids_core::telemetry::{Counter, Probe, Stage, TelemetryConfig};
/// use canids_can::time::SimTime;
///
/// let probe = Probe::new(&TelemetryConfig::default());
/// let session_side = probe.clone();
/// session_side.record(1, Stage::Infer, SimTime::ZERO, SimTime::from_nanos(5));
/// session_side.inc(Counter::FramesServiced);
/// let report = probe.take_report();
/// assert_eq!(report.spans[0].shard, 1);
/// assert_eq!(report.metrics.counter(Counter::FramesServiced), 1);
/// ```
#[derive(Clone)]
pub struct Probe {
    inner: Rc<RefCell<ProbeInner>>,
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Probe")
            .field("spans", &inner.spans.len())
            .field("keep_spans", &inner.keep_spans)
            .finish()
    }
}

impl Probe {
    /// A fresh probe honouring the given capture configuration.
    pub fn new(config: &TelemetryConfig) -> Probe {
        Probe {
            inner: Rc::new(RefCell::new(ProbeInner {
                spans: Vec::new(),
                metrics: MetricsRegistry::default(),
                keep_spans: config.spans,
                span_cap: config.span_cap,
            })),
        }
    }

    /// Record one stage interval: the stage histogram always observes
    /// the duration; the individual span is retained while under the
    /// configured cap.
    pub fn record(&self, shard: u32, stage: Stage, start: SimTime, end: SimTime) {
        let mut inner = self.inner.borrow_mut();
        let ns = end.saturating_sub(start).as_nanos();
        inner.metrics.observe(stage, ns);
        if inner.keep_spans {
            if inner.spans.len() < inner.span_cap {
                inner.spans.push(Span {
                    stage,
                    start,
                    end,
                    shard,
                });
            } else {
                inner.metrics.inc(Counter::SpansDropped);
            }
        }
    }

    /// Increment a counter by one.
    pub fn inc(&self, c: Counter) {
        self.inner.borrow_mut().metrics.inc(c);
    }

    /// Add `n` to a counter.
    pub fn add(&self, c: Counter, n: u64) {
        self.inner.borrow_mut().metrics.add(c, n);
    }

    /// Drain everything recorded so far into a [`TelemetryReport`],
    /// resetting the probe.
    pub fn take_report(&self) -> TelemetryReport {
        let mut inner = self.inner.borrow_mut();
        TelemetryReport {
            spans: std::mem::take(&mut inner.spans),
            metrics: std::mem::take(&mut inner.metrics),
        }
    }
}

/// The telemetry captured by one replay: retained spans plus the metrics
/// registry. Attached to `ServeReport::telemetry` when the replay was
/// configured with `with_telemetry`.
///
/// ```
/// use canids_core::telemetry::{Probe, Stage, TelemetryConfig, TelemetryReport};
/// use canids_can::time::SimTime;
///
/// let probe = Probe::new(&TelemetryConfig::default());
/// probe.record(0, Stage::Infer, SimTime::ZERO, SimTime::from_micros(3));
/// let shard0 = probe.take_report();
/// probe.record(0, Stage::Infer, SimTime::ZERO, SimTime::from_micros(5));
/// let shard1 = probe.take_report();
///
/// let merged = TelemetryReport::merge(vec![shard0, shard1]);
/// assert_eq!(merged.spans.len(), 2);
/// assert_eq!(merged.spans[1].shard, 1); // re-tagged with its replica
/// assert!(merged.to_chrome_trace().contains("\"traceEvents\""));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Retained spans in recording order (merge keeps strict shard
    /// order: all of shard 0's spans, then shard 1's, …).
    pub spans: Vec<Span>,
    /// The integer metrics snapshot.
    pub metrics: MetricsRegistry,
}

impl TelemetryReport {
    /// Fold per-shard reports in **strict shard order**; spans are
    /// re-tagged with their shard replica index so a merged Chrome trace
    /// shows one track per serving lane.
    pub fn merge(parts: Vec<TelemetryReport>) -> TelemetryReport {
        let mut merged = TelemetryReport::default();
        for (s, part) in parts.into_iter().enumerate() {
            merged.metrics.merge(&part.metrics);
            merged.spans.extend(part.spans.into_iter().map(|mut span| {
                span.shard = s as u32;
                span
            }));
        }
        merged
    }

    /// Aggregate statistics for one stage, read from its histogram (so
    /// they are exact even when the span cap truncated retention).
    pub fn stage_stats(&self, stage: Stage) -> StageStats {
        let h = self.metrics.stage(stage);
        StageStats {
            count: h.count(),
            total_ns: h.sum_ns(),
            mean_ns: h.mean_ns(),
            max_ns: h.max_ns(),
        }
    }

    /// Deterministic fingerprint over the metrics snapshot plus the
    /// retained span stream.
    pub fn fingerprint(&self) -> String {
        let mut out = self.metrics.fingerprint();
        let _ = write!(out, "|spans={}", self.spans.len());
        for s in &self.spans {
            let _ = write!(
                out,
                "|{}@{}:{}-{}",
                s.stage.name(),
                s.shard,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }

    /// Chrome-trace (`trace_events`) JSON: one complete (`"ph": "X"`)
    /// event per span, timestamps in microseconds on the virtual clock,
    /// one `tid` track per shard, plus one `thread_name` metadata event
    /// per track — tracks carrying population tenant spans
    /// ([`Stage::TenantAdmission`] / [`Stage::TenantWindow`]) are named
    /// `tenant N`, all others `lane N`, so a population run renders as
    /// per-tenant lanes. Load the output in `about:tracing` or Perfetto.
    ///
    /// ```
    /// let r = canids_core::telemetry::TelemetryReport::default();
    /// assert!(r.to_chrome_trace().starts_with("{\"traceEvents\":["));
    /// ```
    pub fn to_chrome_trace(&self) -> String {
        fn micros(t: SimTime) -> String {
            let ns = t.as_nanos();
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"cat\":\"canids\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                s.stage.name(),
                micros(s.start),
                micros(s.duration()),
                s.shard + 1
            );
        }
        // Thread-name metadata, in ascending tid order (sorted + deduped
        // Vec, so the event order is deterministic).
        let mut shards: Vec<u32> = self.spans.iter().map(|s| s.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        let mut tenant_shards: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| matches!(s.stage, Stage::TenantAdmission | Stage::TenantWindow))
            .map(|s| s.shard)
            .collect();
        tenant_shards.sort_unstable();
        tenant_shards.dedup();
        for sh in &shards {
            let label = if tenant_shards.binary_search(sh).is_ok() {
                "tenant"
            } else {
                "lane"
            };
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{label} {sh}\"}}}}",
                sh + 1
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Flat metrics JSON snapshot (see [`MetricsRegistry::to_json`]).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

/// The workspace's single audited gate for wall-clock reads.
///
/// Sim-clocked code must never read the host clock (`canids_lint`'s
/// `wallclock-in-sim` rule enforces this); the one legitimate consumer,
/// the software backend, reports *measured host latency* by contract and
/// routes through this shim so the audit surface is exactly one allow
/// site.
///
/// ```
/// use canids_core::telemetry::WallClock;
///
/// let t0 = WallClock::start();
/// let ns = t0.elapsed_nanos();
/// assert!(ns < u64::MAX);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallClock;

impl WallClock {
    /// Start a wall-clock measurement.
    pub fn start() -> WallInstant {
        // lint:allow(wallclock-in-sim): the single audited wall-time gate — software-backend measured latency routes through here
        WallInstant(std::time::Instant::now())
    }
}

/// An opaque wall-clock anchor returned by [`WallClock::start`].
///
/// ```
/// let t0 = canids_core::telemetry::WallClock::start();
/// assert!(t0.elapsed() >= std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WallInstant(std::time::Instant);

impl WallInstant {
    /// Elapsed wall time since the anchor.
    pub fn elapsed(&self) -> std::time::Duration {
        self.0.elapsed()
    }

    /// Elapsed wall time in nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
            assert_eq!(Stage::ALL[s.index()], s);
        }
        for c in Counter::ALL {
            assert_eq!(Counter::ALL[c.index()], c);
        }
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
        let mut h = Histogram::default();
        h.observe(3);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_ns(), u64::MAX);
        assert_eq!(h.sum_ns(), u64::MAX); // saturating
    }

    #[test]
    fn span_cap_drops_spans_but_keeps_metrics_exact() {
        let probe = Probe::new(&TelemetryConfig::default().with_span_cap(2));
        for i in 0..5u64 {
            probe.record(0, Stage::Infer, SimTime::ZERO, SimTime::from_nanos(100 + i));
        }
        let report = probe.take_report();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.metrics.counter(Counter::SpansDropped), 3);
        assert_eq!(report.stage_stats(Stage::Infer).count, 5);
    }

    #[test]
    fn metrics_only_capture_retains_no_spans() {
        let probe = Probe::new(&TelemetryConfig::default().with_spans(false));
        probe.record(0, Stage::Pack, SimTime::ZERO, SimTime::from_nanos(10));
        let report = probe.take_report();
        assert!(report.spans.is_empty());
        assert_eq!(report.metrics.counter(Counter::SpansDropped), 0);
        assert_eq!(report.stage_stats(Stage::Pack).count, 1);
    }

    #[test]
    fn merge_is_strict_shard_order_and_retags() {
        let probe = Probe::new(&TelemetryConfig::default());
        probe.record(7, Stage::Infer, SimTime::ZERO, SimTime::from_nanos(10));
        let a = probe.take_report();
        probe.record(9, Stage::Infer, SimTime::ZERO, SimTime::from_nanos(20));
        probe.inc(Counter::FramesDropped);
        let b = probe.take_report();

        let ab = TelemetryReport::merge(vec![a.clone(), b.clone()]);
        assert_eq!(ab.spans[0].shard, 0);
        assert_eq!(ab.spans[1].shard, 1);
        assert_eq!(ab.metrics.counter(Counter::FramesDropped), 1);
        assert_eq!(ab.stage_stats(Stage::Infer).count, 2);
        assert_eq!(ab.stage_stats(Stage::Infer).total_ns, 30);

        // Merging [a, b] twice yields identical fingerprints.
        let ab2 = TelemetryReport::merge(vec![a, b]);
        assert_eq!(ab.fingerprint(), ab2.fingerprint());
    }

    #[test]
    fn chrome_trace_shape() {
        let probe = Probe::new(&TelemetryConfig::default());
        probe.record(
            2,
            Stage::GatewayHop,
            SimTime::from_nanos(1_500),
            SimTime::from_nanos(4_750),
        );
        let trace = probe.take_report().to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"gateway_hop\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ts\":1.500"));
        assert!(trace.contains("\"dur\":3.250"));
        assert!(trace.contains("\"tid\":3"));
        // A plain serving span names its track "lane N".
        assert!(trace.contains("\"ph\":\"M\""));
        assert!(trace.contains("\"name\":\"lane 2\""));
    }

    #[test]
    fn chrome_trace_names_tenant_tracks() {
        let probe = Probe::new(&TelemetryConfig::default());
        // Shard 0 carries a tenant window (population lane); shard 1 is a
        // plain serving lane.
        probe.record(
            0,
            Stage::TenantWindow,
            SimTime::ZERO,
            SimTime::from_micros(50),
        );
        probe.record(0, Stage::Infer, SimTime::ZERO, SimTime::from_micros(1));
        probe.record(1, Stage::Infer, SimTime::ZERO, SimTime::from_micros(1));
        let trace = probe.take_report().to_chrome_trace();
        assert!(trace.contains("\"name\":\"tenant_window\""));
        assert!(trace.contains("\"tid\":1,\"args\":{\"name\":\"tenant 0\"}"));
        assert!(trace.contains("\"tid\":2,\"args\":{\"name\":\"lane 1\"}"));
    }

    #[test]
    fn metrics_json_lists_every_name() {
        let json = MetricsRegistry::default().to_json();
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\"", c.name())));
        }
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", s.name())));
        }
    }

    #[test]
    fn wallclock_shim_measures_forward() {
        let t0 = WallClock::start();
        let d = t0.elapsed();
        assert!(t0.elapsed_nanos() >= d.as_nanos() as u64 || d.is_zero());
    }
}
