//! The repository benchmark: end-to-end serving throughput on three
//! workloads through the public serving entry points
//! (`ServeHarness::replay_with`, `Population::serve`), with output
//! checks, plus a traced run that times each layer and states the budget.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload line_1m --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` and
//! `failed` count whole serving calls; the frame counts (offered, failed
//! as dropped + shed + wrong) are on the lines above it.
//!
//! * `--trace 0` times the workload's serving call for `--seconds` and
//!   reports `frames_per_s`, `setup_s` and `peak_rss_mib`; rates and
//!   set-up times are scaled to a quiet core by the host-speed probe
//!   timed beside each call (see [`host`]). The lines above
//!   add the median and tail of the per-call rates, the verdict gaps at
//!   the sink (`line_1m`, `fleet_12`), the program's own capacity model,
//!   and the simulated latency and energy (`fleet_12`).
//! * `--trace 1` records spans around calls into every layer's public
//!   functions (see [`trace`]), prints the layer budget with its residual
//!   and writes the spans to `perfbench/out/` as a Chrome trace.
//!
//! Every call is checked: each verdict against an independent
//! `IntegerMlp::infer`, frame conservation, and (fleet) simulated facts
//! identical on every call. A failed check exits 1.

pub mod harness_only;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stats::{GapHistogram, Summary};
use workloads::{CallResult, PopulationFacts, Runner, SimFacts, Size, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Input size: `Full` from the command line, `Tiny` in the self-tests.
    pub size: Size,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value:?}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size: Size::Full,
    })
}

/// The outcome of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check held.
    pub correct: bool,
    /// Whole serving calls made.
    pub attempted: u64,
    /// Serving calls whose outputs failed a check.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
    /// The traced run's spans as a Chrome trace.
    pub trace_json: Option<String>,
}

impl Outcome {
    /// The result object, printed as the last line of standard output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where the traced run writes its spans.
pub fn trace_path(opts: &Options) -> PathBuf {
    manifest_dir().join("out").join(format!(
        "trace-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ))
}

fn git_rev() -> String {
    let root = manifest_dir().join("..");
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn provenance(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "provenance: git={} nproc={nproc} rustc=\"{}\" profile=\"{}\" workload={} seed={} size={:?} seconds={}",
        git_rev(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        opts.workload.name(),
        opts.seed,
        opts.size,
        opts.seconds,
    )
}

/// FNV-1a, to print a short fingerprint of the simulated facts.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Running totals and output checks over a run's serving calls. Calls
/// are folded in as they complete, so memory does not grow with their
/// number; simulated facts must repeat exactly across calls.
#[derive(Debug, Default)]
struct Tally {
    calls: u64,
    failed: u64,
    offered: u64,
    per_call: usize,
    dropped: u64,
    shed: u64,
    mismatched: u64,
    first_sim: Option<SimFacts>,
    population: Option<PopulationFacts>,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, c: &CallResult) {
        let sim_differs = match (&c.sim, &self.first_sim) {
            (Some(s), Some(first)) => s != first,
            (Some(s), None) => {
                self.first_sim = Some(s.clone());
                false
            }
            _ => false,
        };
        if !c.correct() || sim_differs {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!(
                    "check FAILED on call {}: {} mismatched verdicts{}{}",
                    self.calls,
                    c.mismatched,
                    if sim_differs {
                        ", simulated facts differ from the first call"
                    } else {
                        ""
                    },
                    c.violations
                        .iter()
                        .take(3)
                        .map(|v| format!("; {v}"))
                        .collect::<String>()
                ));
            }
        }
        self.calls += 1;
        self.offered += c.offered as u64;
        self.per_call = c.offered;
        self.dropped += c.dropped;
        self.shed += c.shed;
        self.mismatched += c.mismatched;
        if c.population.is_some() {
            self.population = c.population;
        }
    }

    fn report(&self, lines: &mut Vec<String>) {
        lines.push(format!(
            "frames_offered: {} frames over {} calls ({} per call)",
            self.offered, self.calls, self.per_call
        ));
        lines.push(format!(
            "frames_failed: {} frames (dropped {}, shed {}, wrong verdict {})",
            self.dropped + self.shed + self.mismatched,
            self.dropped,
            self.shed,
            self.mismatched
        ));
        if let Some(p) = self.population {
            lines.push(format!(
                "admission: {} sheds, {} readmits, {} of {} inferred frames were shed (wasted)",
                p.sheds, p.readmits, p.shed_inferred, p.inferred
            ));
        }
        if let Some(sim) = &self.first_sim {
            lines.push(format!(
                "sim_latency_p99_us: {} us (sim)   sim_energy_per_msg_mj: {} mJ (sim)   sim fingerprint {:016x}",
                sim.latency_p99_us,
                sim.energy_per_msg_mj,
                fnv1a(&sim.fingerprint)
            ));
        }
        lines.extend(self.failures.iter().cloned());
        lines.push(if self.failed == 0 {
            format!(
                "checks: passed on all {} calls (per-model verdicts vs an independent IntegerMlp::infer, frame conservation{})",
                self.calls,
                if self.first_sim.is_some() { ", simulated facts identical" } else { "" }
            )
        } else {
            format!("checks: FAILED on {} of {} calls", self.failed, self.calls)
        });
    }
}

/// Runs the benchmark as `opts` asks.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let lines = vec![
        format!(
            "perfbench {} seed={} trace={}",
            opts.workload.name(),
            opts.seed,
            u8::from(opts.trace)
        ),
        provenance(opts),
    ];
    if opts.trace {
        run_traced(opts, lines)
    } else {
        run_end_to_end(opts, lines)
    }
}

/// The quantile of the scaled per-call rates that `frames_per_s` reports,
/// on the fast side (see `run_end_to_end`).
const FAST_DECILE: f64 = 0.9;

fn run_end_to_end(opts: &Options, mut lines: Vec<String>) -> Result<Outcome, String> {
    let full = opts.size == Size::Full;
    let mut probe = host::HostProbe::new();
    let before = probe.time();
    let t0 = Instant::now();
    let inputs = workloads::setup(opts.workload, opts.seed, opts.size)?;
    let wall = t0.elapsed().as_secs_f64();
    let mut setup_s = vec![wall / host::slowdown(before, probe.time())];
    let setups = if full { 15 } else { 1 };
    let mut runner = Runner::new(&inputs, opts.size);
    let mut tally = Tally::default();

    // Warm-up calls: caches, allocator and branch state settle before
    // the clock runs. They are checked like every other call.
    for _ in 0..if full { 2 } else { 1 } {
        tally.add(&runner.call()?);
    }
    let mut fps = Vec::new();
    let mut scaled_fps = Vec::new();
    let mut probe_s = Vec::new();
    let mut capacity = Vec::new();
    let mut gaps = GapHistogram::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_calls = if full { 5 } else { 1 };
    let start = Instant::now();
    let mut before = probe.time();
    while fps.len() < min_calls || start.elapsed() < budget || setup_s.len() < setups {
        // Set-up is repeated at even intervals through the measured
        // phase (its outputs are dropped), so work moved into set-up
        // shows and one episode of host contention cannot cover every
        // sample.
        let due = budget.mul_f64(setup_s.len() as f64 / setups as f64);
        if setup_s.len() < setups && start.elapsed() >= due {
            let t0 = Instant::now();
            drop(workloads::setup(opts.workload, opts.seed, opts.size)?);
            let wall = t0.elapsed().as_secs_f64();
            let after = probe.time();
            setup_s.push(wall / host::slowdown(before, after));
            before = after;
            continue;
        }
        let call = runner.call()?;
        let after = probe.time();
        for w in runner.sink.stamps.windows(2) {
            gaps.observe((w[1] - w[0]).as_nanos() as u64);
        }
        let rate = call.offered as f64 / call.wall.as_secs_f64();
        fps.push(rate);
        scaled_fps.push(rate * host::slowdown(before, after));
        probe_s.push(after);
        before = after;
        capacity.extend(call.capacity_fps);
        tally.add(&call);
    }
    let rss = stats::peak_rss_mib().unwrap_or(0.0);

    // Co-tenants of a shared host slow a call down by up to half, in
    // episodes of seconds to minutes (see `host`). Each call and each
    // set-up is scaled by the host-speed probe timed on either side of
    // it, which takes out most of an episode that covers the whole run.
    // The scaling under-corrects the heaviest episodes for the serving
    // calls (they suffer more than the probe), so `frames_per_s` is the
    // decile on the fast side (90th percentile of the scaled rates): a
    // change to the program moves the whole distribution and with it this
    // decile. `setup_s` is the median of the scaled set-ups. Median, tail
    // and the raw rates are printed beside them.
    fps.sort_by(f64::total_cmp);
    scaled_fps.sort_by(f64::total_cmp);
    setup_s.sort_by(f64::total_cmp);
    probe_s.sort_by(f64::total_cmp);
    let frames_per_s = stats::quantile(&scaled_fps, FAST_DECILE);
    let setup = stats::quantile(&setup_s, 0.5);
    lines.push(format!(
        "frames_per_s: {frames_per_s:.1} frames/s = 90th percentile of {} per-call rates scaled to a quiet core; scaled {} (frames offered / wall of the whole serving call x host slowdown, tracing off, {} frames per call)",
        scaled_fps.len(),
        Summary::lower(&scaled_fps).describe(1),
        inputs.frames()
    ));
    lines.push(format!(
        "raw frames/s (unscaled): {}, 90th percentile {:.1}, fastest {:.1}",
        Summary::lower(&fps).describe(1),
        stats::quantile(&fps, FAST_DECILE),
        fps.last().copied().unwrap_or(0.0),
    ));
    lines.push(format!(
        "host slowdown: median {:.3}, least {:.3} over {} probes (probe time / {:.2} ms quiet-core reference)",
        stats::quantile(&probe_s, 0.5) / host::QUIET_PROBE_S,
        probe_s.first().copied().unwrap_or(0.0) / host::QUIET_PROBE_S,
        probe_s.len(),
        host::QUIET_PROBE_S * 1e3,
    ));
    lines.push(if capacity.is_empty() {
        "serve.capacity_model_fps: none (the simulated backend reports no host capacity model)"
            .to_owned()
    } else {
        format!(
            "serve.capacity_model_fps: median {:.1} frames/s -- a MODEL (serviced / busiest lane's busy wall), not a measurement",
            stats::median(&capacity)
        )
    });
    if gaps.count() > 0 {
        let g = gaps.summary_us();
        lines.push(format!(
            "verdict_gap_p50_us: {} us   verdict_gap_p99_us: {} us   (wall gap between consecutive verdicts at the sink, n={} gaps{})",
            g.median,
            gaps.quantile_ns(0.99) as f64 / 1e3,
            g.n,
            g.tail_q
                .filter(|&q| q > 0.99)
                .map_or(String::new(), |q| format!(", supported tail p{}: {} us", q * 100.0, g.tail))
        ));
    } else {
        lines.push(
            "verdict_gap_*: not defined here -- Population::serve hands back every verdict when the call returns"
                .to_owned(),
        );
    }
    lines.push(format!(
        "setup_s: {setup:.4} s = median of {} set-ups spread over the run, scaled to a quiet core; fastest {:.4}, slowest {:.4} (capture synthesis + training/compilation + backend/population construction)",
        setup_s.len(),
        setup_s.first().copied().unwrap_or(0.0),
        setup_s.last().copied().unwrap_or(0.0),
    ));
    lines.push(format!(
        "peak_rss_mib: {rss:.2} MiB (VmHWM of this process, with the probe's 1 MiB table)"
    ));
    tally.report(&mut lines);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.calls,
        failed: tally.failed,
        metrics: vec![
            Metric::new("frames_per_s", frames_per_s, "frames/s"),
            Metric::new("setup_s", setup, "s"),
            Metric::new("peak_rss_mib", rss, "MiB"),
        ],
        lines,
        trace_json: None,
    })
}

fn run_traced(opts: &Options, mut lines: Vec<String>) -> Result<Outcome, String> {
    let inputs = workloads::setup(opts.workload, opts.seed, opts.size)?;
    let (min_reps, budget) = match opts.size {
        Size::Full => (3, Duration::from_secs_f64(opts.seconds)),
        Size::Tiny => (1, Duration::ZERO),
    };
    let traced = trace::run(&inputs, opts.size, min_reps, budget)?;
    lines.extend(traced.lines.iter().cloned());
    for m in &traced.metrics {
        lines.push(format!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit));
    }
    let mut tally = Tally::default();
    for call in &traced.calls {
        tally.add(call);
    }
    tally.report(&mut lines);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.calls,
        failed: tally.failed,
        metrics: traced.metrics,
        lines,
        trace_json: Some(traced.log.to_chrome_trace()),
    })
}
