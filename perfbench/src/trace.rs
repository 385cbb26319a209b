//! The traced run: spans recorded from the benchmark's own code around
//! calls into each layer's public functions, the per-layer metrics they
//! yield, and the layer budget against the untraced end-to-end wall.
//!
//! Every layer is timed on every workload, over that workload's own
//! captures and detectors. Layers a workload's serving call does not go
//! through are timed as probes (the software stream path on the fleet
//! models, a one-board fleet of the trained detector, a one-tenant
//! population) and are left out of that workload's budget.

use std::hint::black_box;
use std::time::Instant;

use canids_core::prelude::*;
use canids_core::serve::{
    ServeBackend, ServeHarness, ServeSession, ServeTopology, SoftwareBackend, Verdict,
};
use canids_core::{
    FleetNet, FleetTransport, NetConfig, ShardWorkers, Stage, StreamingEvaluator, TelemetryConfig,
};
use canids_dataflow::ip::CompileConfig;
use canids_dataset::attacks::AttackKind;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::record::LabeledFrame;
use canids_dataset::stream::paced_records;
use canids_qnn::export::IntScratch;
use canids_soc::board::{BoardConfig, Zcu104Board};
use canids_soc::ecu::{EcuConfig, IdsEcu, SchedPolicy};

use crate::harness_only::HarnessOnly;
use crate::workloads::{board_featurize, CallResult, Inputs, Runner, Size, Workload};
use crate::Metric;

/// One recorded span: host wall nanoseconds since the log's origin.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Layer call (or grouping) name.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (spans of one repetition share it).
    pub run: u32,
}

/// Spans kept in memory for the whole run and written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Recorded spans in start order.
    pub spans: Vec<SpanRecord>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(1024),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, run: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span timed elsewhere, starting at `start` (now when
    /// unknown) and lasting `wall`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        run: u32,
        start: Option<Instant>,
        wall: std::time::Duration,
    ) {
        let start_ns = start.map_or_else(
            || self.now_ns(),
            |t| t.saturating_duration_since(self.origin).as_nanos() as u64,
        );
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns + wall.as_nanos() as u64,
            parent: Some(parent),
            run,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        run: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, Some(parent), run);
        let out = f();
        self.end(id);
        out
    }

    /// Median duration in ns of the spans named `name` in runs `>= from`.
    pub fn median_ns(&self, name: &str, from: u32) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.run >= from)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        crate::stats::median(&d)
    }

    /// The log as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, one track per repetition.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}{}\n",
                s.name,
                s.run,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

/// A discarding verdict sink for probe replays.
struct Discard;

impl canids_core::serve::VerdictSink for Discard {
    fn verdict(&mut self, v: &Verdict) {
        black_box(v);
    }
}

/// Inputs the layer probes share, prepared before any span opens.
struct Prepared {
    /// Paced records per capture, as the harness replays them.
    paced: Vec<Vec<LabeledFrame>>,
    /// Packed integer features of every frame, `dim` words each.
    packed: Vec<u32>,
    dim: usize,
    /// Replay configuration of capture `k` and the topology the
    /// harness-only replay mirrors.
    replays: Vec<(ReplayConfig, ServeTopology)>,
    /// The software configuration the population probe serves under.
    software: ReplayConfig,
    /// Fleet configuration of the fleet replays and board probes.
    fleet_config: ReplayConfig,
    /// A one-board fleet of the software detectors (line, population).
    probe_fleet: Option<FleetDeployment>,
}

fn prepare(inputs: &Inputs) -> Result<Prepared, String> {
    let encoder = IdBitsPayloadBits;
    let dim = encoder.dim();
    let paced: Vec<Vec<LabeledFrame>> = inputs
        .captures
        .iter()
        .map(|c| paced_records(c, inputs.bitrate).collect())
        .collect();
    let mut packed = Vec::with_capacity(inputs.frames() * dim);
    let mut fbuf = vec![0.0f32; dim];
    for rec in paced.iter().flatten() {
        encoder.encode_into(&rec.frame, &mut fbuf);
        packed.extend(fbuf.iter().map(|&f| u32::from(f >= 0.5)));
    }
    let base = inputs.replay_config();
    let fleet_config = ReplayConfig::default()
        .with_policy(SchedPolicy::DmaBatch { batch: 32 })
        .with_transport(FleetTransport::EventDriven(NetConfig::default()))
        .with_bitrate(inputs.bitrate);
    let probe_fleet = match inputs.workload {
        Workload::Fleet12 => None,
        _ => {
            let bundles: Vec<DetectorBundle> = inputs
                .models
                .iter()
                .map(|m| DetectorBundle::new(AttackKind::Dos, m.clone()))
                .collect();
            let boards = FleetConfig::new(vec![BoardSpec::zcu104("probe-zcu")]);
            Some(
                FleetPlan::build(&bundles, &boards)
                    .and_then(|p| p.deploy(&bundles, &CompileConfig::default()))
                    .map_err(|e| format!("probe fleet: {e}"))?,
            )
        }
    };
    let mut replays = Vec::with_capacity(inputs.captures.len());
    for _ in &inputs.captures {
        let config = ReplayConfig {
            bitrate: inputs.bitrate,
            shards: 1,
            ..base.clone()
        };
        let topology = match &inputs.fleet {
            Some(fleet) => session_topology(&mut fleet.serve_backend(), &config)?,
            None => session_topology(&mut SoftwareBackend::new(inputs.models.clone()), &config)?,
        };
        replays.push((config, topology));
    }
    let software = match inputs.workload {
        Workload::Fleet12 => ReplayConfig::default().with_bitrate(inputs.bitrate),
        _ => base.with_bitrate(inputs.bitrate),
    };
    Ok(Prepared {
        paced,
        packed,
        dim,
        replays,
        software,
        fleet_config,
        probe_fleet,
    })
}

fn session_topology<B: ServeBackend>(
    backend: &mut B,
    config: &ReplayConfig,
) -> Result<ServeTopology, String> {
    let session = backend
        .open(config)
        .map_err(|e| format!("opening a session: {e}"))?;
    Ok(session.topology().clone())
}

/// Fresh simulated boards for every shard of `fleet`, one set per
/// capture (the board clock is monotonic, each capture starts at 0).
fn fresh_boards(fleet: &FleetDeployment, captures: usize) -> Result<Vec<Vec<IdsEcu>>, String> {
    let ecu_config = EcuConfig {
        policy: SchedPolicy::DmaBatch { batch: 32 },
        ..EcuConfig::default()
    };
    (0..captures)
        .map(|_| {
            fleet
                .shards
                .iter()
                .filter(|s| !s.ips.is_empty())
                .map(|shard| {
                    let mut board = Zcu104Board::new(BoardConfig::default());
                    let models = shard
                        .ips
                        .iter()
                        .map(|ip| board.attach_accelerator(ip.clone()))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("attaching an IP: {e}"))?;
                    Ok(IdsEcu::new(board, models, ecu_config))
                })
                .collect()
        })
        .collect()
}

/// The per-layer metrics, the budget lines and the traced-run outcome.
pub struct Traced {
    /// Per-layer metrics in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable budget and layer lines.
    pub lines: Vec<String>,
    /// Every whole serving call the traced run made, checked.
    pub calls: Vec<CallResult>,
    /// The spans.
    pub log: SpanLog,
}

/// Runs the traced measurement: one warm-up repetition, then measured
/// repetitions until at least `min_reps` ran and `budget` has elapsed
/// (at most 20). Each repetition times the untraced whole call, the
/// whole call with the program's telemetry probe attached, and every
/// layer.
pub fn run(
    inputs: &Inputs,
    size: Size,
    min_reps: u32,
    budget: std::time::Duration,
) -> Result<Traced, String> {
    let mut probes = Probes::new(inputs, size)?;
    let mut log = SpanLog::new();
    let start = Instant::now();
    let mut reps = 0u32;
    for run in 0u32.. {
        if run > min_reps.max(1) && (start.elapsed() >= budget || run > 20) {
            break;
        }
        reps = run;
        probes.repetition(&mut log, run)?;
    }
    // Medians over the measured repetitions (run 0 is the warm-up).
    let costs = LayerCosts::from_log(&log, &probes);
    let (metrics, lines) = probes.report(&costs, reps)?;
    Ok(Traced {
        metrics,
        lines,
        calls: probes.calls,
        log,
    })
}

/// The layer calls of one workload, with what their last repetition
/// observed.
struct Probes<'a> {
    inputs: &'a Inputs,
    size: Size,
    prep: Prepared,
    runner: Runner<'a>,
    /// The workload's population, or a one-tenant population per capture.
    population: Population,
    /// Every checked whole call.
    calls: Vec<CallResult>,
    /// Outcome of the latest untraced whole call.
    untraced: Option<CallResult>,
    /// Program telemetry of the latest traced whole call.
    telemetry: Option<TelemetryReport>,
    /// Report of the latest two-worker population probe.
    population_report: Option<PopulationReport>,
    /// Events the latest network probe executed.
    net_events: u64,
}

impl<'a> Probes<'a> {
    fn new(inputs: &'a Inputs, size: Size) -> Result<Self, String> {
        let population = match &inputs.population {
            Some(p) => p.clone(),
            None => Population::with_tenants(
                inputs
                    .captures
                    .iter()
                    .map(|c| TenantStream::new("probe", c.clone()).with_bitrate(inputs.bitrate))
                    .collect(),
            ),
        };
        Ok(Probes {
            inputs,
            size,
            prep: prepare(inputs)?,
            runner: Runner::new(inputs, size),
            population,
            calls: Vec::new(),
            untraced: None,
            telemetry: None,
            population_report: None,
            net_events: 0,
        })
    }

    fn fleet(&self) -> &FleetDeployment {
        match (&self.inputs.fleet, &self.prep.probe_fleet) {
            (Some(f), _) | (None, Some(f)) => f,
            (None, None) => unreachable!("prepare builds a probe fleet without a workload fleet"),
        }
    }

    /// Boards that carry at least one detector.
    fn shards(&self) -> usize {
        self.fleet()
            .shards
            .iter()
            .filter(|s| !s.ips.is_empty())
            .count()
    }

    fn population_config(&self, workers: usize) -> PopulationConfig {
        match self.inputs.workload {
            Workload::Population64x16 => self.inputs.population_config(self.size, workers),
            _ => PopulationConfig::default()
                .with_replay(self.prep.software.clone())
                .with_workers(ShardWorkers::Fixed(workers)),
        }
    }

    /// One repetition: every span, under one root span.
    fn repetition(&mut self, log: &mut SpanLog, run: u32) -> Result<(), String> {
        let root = log.begin("trace.repetition", None, run);
        self.whole_calls(log, root, run)?;
        self.software_layers(log, root, run)?;
        self.simulated_layers(log, root, run)?;
        self.population_layers(log, root, run)?;
        log.end(root);
        Ok(())
    }

    /// The workload's serving call untraced, then with the program's own
    /// telemetry probe attached (which supplies the dispatch counts).
    fn whole_calls(&mut self, log: &mut SpanLog, root: usize, run: u32) -> Result<(), String> {
        let plain = self.inputs.replay_config();
        let traced = plain.clone().with_telemetry(TelemetryConfig::default());
        // The spans cover the serving call alone, not the output check
        // that follows it.
        let (untraced, _) = self.runner.call_with(&plain)?;
        log.record(
            "e2e.untraced",
            root,
            run,
            self.runner.last_start,
            untraced.wall,
        );
        let (call, telemetry) = self.runner.call_with(&traced)?;
        log.record("e2e.traced", root, run, self.runner.last_start, call.wall);
        self.calls.push(untraced.clone());
        self.calls.push(call);
        self.untraced = Some(untraced);
        self.telemetry = telemetry;
        Ok(())
    }

    /// `dataset`, `qnn`, `core::stream` and the `core::serve` harness.
    fn software_layers(&mut self, log: &mut SpanLog, root: usize, run: u32) -> Result<(), String> {
        let (inputs, prep) = (self.inputs, &self.prep);
        log.span("dataset.pace", root, run, || {
            for capture in &inputs.captures {
                for rec in paced_records(capture, inputs.bitrate) {
                    black_box(rec);
                }
            }
        });
        let mut fbuf = vec![0.0f32; prep.dim];
        log.span("dataset.featurise", root, run, || {
            for rec in prep.paced.iter().flatten() {
                IdBitsPayloadBits.encode_into(&rec.frame, &mut fbuf);
                black_box(&fbuf);
            }
        });
        let mut scratch = IntScratch::new();
        log.span("qnn.infer", root, run, || {
            for model in &inputs.models {
                for x in prep.packed.chunks_exact(prep.dim) {
                    black_box(model.infer_class(black_box(x), &mut scratch));
                }
            }
        });
        let mut evals: Vec<StreamingEvaluator> = inputs
            .models
            .iter()
            .map(|m| StreamingEvaluator::new(m.clone()))
            .collect();
        log.span("stream.push", root, run, || {
            for rec in prep.paced.iter().flatten() {
                for eval in &mut evals {
                    black_box(eval.push(rec));
                }
            }
        });
        let mut out = Vec::with_capacity(32);
        log.span("stream.push_batch", root, run, || {
            for paced in &prep.paced {
                for window in paced.chunks(32) {
                    for eval in &mut evals {
                        eval.push_batch(window, &mut out);
                        black_box(&out);
                        out.clear();
                    }
                }
            }
        });
        log.span("serve.harness_only", root, run, || {
            for (capture, (config, topology)) in inputs.captures.iter().zip(&prep.replays) {
                ServeHarness::new(HarnessOnly::new(topology.clone()))
                    .replay_with(capture, config, &mut Discard)
                    .map_err(|e| format!("harness-only replay: {e}"))?;
            }
            Ok::<(), String>(())
        })
    }

    /// `dataflow`, `soc`, `core::net` and the fleet replay.
    fn simulated_layers(&mut self, log: &mut SpanLog, root: usize, run: u32) -> Result<(), String> {
        let (inputs, prep, fleet, shards) = (self.inputs, &self.prep, self.fleet(), self.shards());
        log.span("dataflow.ip_infer", root, run, || {
            for ip in fleet.shards.iter().flat_map(|s| &s.ips) {
                for x in prep.packed.chunks_exact(prep.dim) {
                    black_box(ip.infer(black_box(x)));
                }
            }
        });
        let mut boards = fresh_boards(fleet, prep.paced.len())?;
        log.span("soc.board_replay", root, run, || {
            for (paced, ecus) in prep.paced.iter().zip(&mut boards) {
                for ecu in ecus.iter_mut() {
                    let mut stream = ecu.stream();
                    for rec in paced {
                        stream
                            .push(rec.timestamp, rec.frame, &board_featurize)
                            .map_err(|e| format!("board replay: {e}"))?;
                    }
                    black_box(
                        stream
                            .try_finish()
                            .map_err(|e| format!("board finish: {e}"))?,
                    );
                }
            }
            Ok::<(), String>(())
        })?;
        let mut nets: Vec<FleetNet> = prep
            .paced
            .iter()
            .map(|_| {
                FleetNet::single_backbone(
                    shards,
                    inputs.bitrate,
                    prep.fleet_config.gateway_delay,
                    &NetConfig::default(),
                )
            })
            .collect();
        log.span("net.deliver", root, run, || {
            for (paced, net) in prep.paced.iter().zip(&mut nets) {
                for rec in paced {
                    for b in 0..shards {
                        black_box(net.deliver(b, rec.timestamp, rec.frame));
                    }
                }
                net.finish();
            }
        });
        let net_events = nets.iter().map(|n| n.sim().executed()).sum();
        if let Some(probe) = &prep.probe_fleet {
            log.span("fleet.replay", root, run, || {
                for capture in &inputs.captures {
                    ServeHarness::new(probe.serve_backend())
                        .replay(capture, &prep.fleet_config)
                        .map_err(|e| format!("probe fleet replay: {e}"))?;
                }
                Ok::<(), String>(())
            })?;
        }
        self.net_events = net_events;
        Ok(())
    }

    /// `core::population` and `core::par`: each tenant replayed alone,
    /// then the whole population at one and at two workers.
    fn population_layers(
        &mut self,
        log: &mut SpanLog,
        root: usize,
        run: u32,
    ) -> Result<(), String> {
        let template = self.population_config(1).replay;
        let models = &self.inputs.models;
        let population = &self.population;
        log.span("population.tenant_replays", root, run, || {
            for tenant in population.tenants() {
                let config = ReplayConfig {
                    bitrate: tenant.bitrate,
                    shards: 1,
                    ..template.clone()
                };
                let mut verdicts: Vec<Verdict> = Vec::new();
                ServeHarness::new(SoftwareBackend::new(models.clone()))
                    .replay_with(&tenant.capture, &config, &mut verdicts)
                    .map_err(|e| format!("tenant replay: {e}"))?;
            }
            Ok::<(), String>(())
        })?;
        for (name, workers) in [("population.serve_w1", 1), ("population.serve_w2", 2)] {
            let config = self.population_config(workers);
            let report = log.span(name, root, run, || {
                population
                    .serve(|| Ok(SoftwareBackend::new(models.clone())), &config)
                    .map_err(|e| format!("population probe: {e}"))
            })?;
            self.population_report = Some(report);
        }
        Ok(())
    }

    /// The per-layer metrics and the budget lines.
    fn report(&self, c: &LayerCosts, reps: u32) -> Result<(Vec<Metric>, Vec<String>), String> {
        let untraced = self.untraced.as_ref().ok_or("no measured call")?;
        let models = self.inputs.models.len();
        let stage = |s: Stage| {
            self.telemetry
                .as_ref()
                .map_or(0, |t| t.stage_stats(s).count)
        };
        let dma_windows = stage(Stage::DmaWindow);
        let (sheds, readmits, wasted) = match &self.population_report {
            Some(r) => {
                let inferred: usize = r.tenants.iter().map(|t| t.serve.serviced).sum();
                let shed_inferred: usize = r
                    .tenants
                    .iter()
                    .map(|t| t.shed_frames.min(t.serve.serviced))
                    .sum();
                (
                    r.shed_count(),
                    r.readmit_count(),
                    shed_inferred as f64 / inferred.max(1) as f64,
                )
            }
            None => (0, 0, 0.0),
        };
        let infer_calls = match self.inputs.workload {
            Workload::Fleet12 => 0,
            Workload::Line1m => untraced.verdicts * models,
            Workload::Population64x16 => untraced.population.map_or(0, |p| p.inferred) * models,
        };
        let (rows, residual_frac) = c.budget(self.inputs.workload);
        let lines = c.budget_lines(self.inputs, &rows, residual_frac, reps);
        let metrics = vec![
            Metric::new("dataset.pace_ns_per_frame", c.pace, "ns"),
            Metric::new("dataset.featurise_ns_per_frame", c.featurise, "ns"),
            Metric::new("dataset.build_s", self.inputs.build_wall.as_secs_f64(), "s"),
            Metric::new("qnn.infer_ns_per_call", c.infer, "ns"),
            Metric::new("qnn.infer_calls", infer_calls as f64, "count"),
            Metric::new("stream.push_ns_per_frame", c.push, "ns"),
            Metric::new("stream.push_batch_ns_per_frame", c.push_batch, "ns"),
            Metric::new("stream.self_ns_per_frame", c.stream_self, "ns"),
            Metric::new("serve.self_ns_per_frame", c.serve_self, "ns"),
            Metric::new(
                "serve.dispatches",
                (stage(Stage::Infer) + dma_windows) as f64,
                "count",
            ),
            Metric::new("serve.verdicts", untraced.verdicts as f64, "count"),
            Metric::new(
                "serve.capacity_model_fps",
                untraced.capacity_fps.unwrap_or(0.0),
                "frames/s",
            ),
            Metric::new("population.tenant_replay_s", c.tenant_replay_s, "s"),
            Metric::new("population.self_s", c.population_self_s, "s"),
            Metric::new("par.speedup", c.speedup, "x"),
            Metric::new("population.sheds", sheds as f64, "count"),
            Metric::new("population.readmits", readmits as f64, "count"),
            Metric::new("population.wasted_infer_frac", wasted, "ratio"),
            Metric::new("dataflow.ip_infer_ns_per_call", c.ip_infer, "ns"),
            Metric::new("soc.board_replay_ns_per_frame", c.board, "ns"),
            Metric::new("soc.dma_windows", dma_windows as f64, "count"),
            Metric::new("net.deliver_ns_per_hop", c.hop, "ns"),
            Metric::new("net.events", self.net_events as f64, "count"),
            Metric::new("fleet.self_ns_per_frame", c.fleet_self, "ns"),
            Metric::new("budget.residual_frac", residual_frac, "ratio"),
            Metric::new("trace.overhead_frac", c.overhead_frac, "ratio"),
        ];
        Ok((metrics, lines))
    }
}

/// Layer costs from the span medians: host wall ns per frame unless the
/// name says otherwise.
struct LayerCosts {
    frames: usize,
    models: usize,
    shards: usize,
    e2e: f64,
    overhead_frac: f64,
    pace: f64,
    featurise: f64,
    infer: f64,
    push: f64,
    push_batch: f64,
    stream_self: f64,
    serve_self: f64,
    ip_infer: f64,
    board: f64,
    hop: f64,
    fleet_self: f64,
    tenant_replay_s: f64,
    population_self_s: f64,
    speedup: f64,
}

impl LayerCosts {
    fn from_log(log: &SpanLog, probes: &Probes<'_>) -> LayerCosts {
        let m = |name: &str| log.median_ns(name, 1);
        let frames = probes.inputs.frames().max(1);
        let models = probes.inputs.models.len().max(1);
        let shards = probes.shards().max(1);
        let per_frame = |ns: f64| ns / frames as f64;
        let untraced = m("e2e.untraced");
        let pace = per_frame(m("dataset.pace"));
        let featurise = per_frame(m("dataset.featurise"));
        let infer = m("qnn.infer") / (frames * models) as f64;
        let push = per_frame(m("stream.push"));
        let ips: usize = probes.fleet().shards.iter().map(|s| s.ips.len()).sum();
        let board = per_frame(m("soc.board_replay"));
        let hop = m("net.deliver") / (frames * shards) as f64;
        let fleet_replay = match probes.inputs.workload {
            Workload::Fleet12 => untraced,
            _ => m("fleet.replay"),
        };
        let tenant_replay_s = m("population.tenant_replays") / 1e9;
        let w1 = m("population.serve_w1") / 1e9;
        LayerCosts {
            frames,
            models,
            shards,
            e2e: per_frame(untraced),
            overhead_frac: m("e2e.traced") / untraced - 1.0,
            pace,
            featurise,
            infer,
            push,
            push_batch: per_frame(m("stream.push_batch")),
            stream_self: push - models as f64 * (featurise + infer),
            serve_self: per_frame(m("serve.harness_only")) - pace,
            ip_infer: m("dataflow.ip_infer") / (ips.max(1) * frames) as f64,
            board,
            hop,
            fleet_self: per_frame(fleet_replay) - board - hop * shards as f64,
            tenant_replay_s,
            population_self_s: w1 - tenant_replay_s,
            speedup: w1 / (m("population.serve_w2") / 1e9),
        }
    }

    /// The layers on the workload's blocking path, each per frame of the
    /// whole call (serial population work divided by the pool speedup),
    /// and the share of the untraced end-to-end wall they leave
    /// unexplained.
    fn budget(&self, workload: Workload) -> (Vec<(&'static str, f64)>, f64) {
        let rows = match workload {
            Workload::Line1m => vec![
                ("dataset.pace", self.pace),
                ("stream.push", self.push),
                ("serve.self", self.serve_self),
            ],
            Workload::Population64x16 => vec![
                ("dataset.pace", self.pace / self.speedup),
                ("stream.push_batch", self.push_batch / self.speedup),
                ("serve.self", self.serve_self / self.speedup),
                (
                    "population.self",
                    self.population_self_s * 1e9 / self.frames as f64 / self.speedup,
                ),
            ],
            Workload::Fleet12 => vec![
                ("dataset.pace", self.pace),
                ("serve.self", self.serve_self),
                ("soc.board_replay", self.board),
                ("net.deliver", self.hop * self.shards as f64),
            ],
        };
        let explained: f64 = rows.iter().map(|(_, v)| v).sum();
        let residual_frac = (self.e2e - explained) / self.e2e;
        (rows, residual_frac)
    }

    fn budget_lines(
        &self,
        inputs: &Inputs,
        rows: &[(&str, f64)],
        residual_frac: f64,
        reps: u32,
    ) -> Vec<String> {
        let mut lines = vec![
            format!(
                "layer budget ({} frames per call, host wall ns per frame, medians of {reps} repetitions after a warm-up):",
                self.frames
            ),
            format!("  {:<22} {:>12.1} ns  100.0%", "end to end (untraced)", self.e2e),
        ];
        if inputs.workload == Workload::Population64x16 {
            lines.push(format!(
                "  serial work below is divided by par.speedup = {:.3} (two pool workers)",
                self.speedup
            ));
        }
        for (name, v) in rows {
            lines.push(format!(
                "  {name:<22} {v:>12.1} ns  {:>5.1}%",
                100.0 * v / self.e2e
            ));
        }
        lines.push(format!(
            "  {:<22} {:>12.1} ns  {:>5.1}%   (budget.residual_frac {residual_frac:.4})",
            "residual",
            residual_frac * self.e2e,
            100.0 * residual_frac,
        ));
        if inputs.workload == Workload::Line1m {
            lines.push(format!(
                "  stream.push = {} x (featurise {:.1} + infer {:.1}) + stream.self {:.1} ns",
                self.models, self.featurise, self.infer, self.stream_self
            ));
        }
        lines.push(format!(
            "  trace.overhead_frac {:.4} (whole call with the program's telemetry probe attached vs untraced)",
            self.overhead_frac
        ));
        let off_path = match inputs.workload {
            Workload::Line1m => {
                "population.*, par.*, dataflow.*, soc.*, net.*, fleet.*, stream.push_batch"
            }
            Workload::Population64x16 => "dataflow.*, soc.*, net.*, fleet.*, stream.push",
            Workload::Fleet12 => "qnn.*, stream.*, population.*, par.*",
        };
        lines.push(format!(
            "  off this workload's path, timed as probes on its inputs: {off_path}"
        ));
        lines
    }
}
