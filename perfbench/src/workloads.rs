//! The three serving workloads: how their inputs are made from the seed,
//! the one serving call each measures, and the checks on its outputs.

use std::time::{Duration, Instant};

use canids_can::frame::CanFrame;
use canids_can::time::SimTime;
use canids_can::timing::Bitrate;
use canids_core::prelude::*;
use canids_core::serve::{ServeBackend, ServeHarness, SoftwareBackend, Verdict, VerdictSink};
use canids_core::{FleetTransport, NetConfig, ShardWorkers};
use canids_dataflow::ip::CompileConfig;
use canids_dataset::attacks::{AttackKind, AttackProfile, BurstSchedule};
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::generator::{Dataset, DatasetBuilder, TrafficConfig};
use canids_dataset::stream::paced_records;
use canids_qnn::export::IntegerMlp;
use canids_qnn::mlp::{MlpConfig, QuantMlp};
use canids_soc::ecu::SchedPolicy;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One quick-trained DoS detector, software backend, batch 1, one
    /// saturated 1 Mb/s continuous-DoS capture.
    Line1m,
    /// 64 tenant streams at 500 kb/s (half under DoS) into 16 admission
    /// slots, batch 32, two pool workers.
    Population64x16,
    /// 12 seeded paper-topology detectors on 6 simulated boards,
    /// DMA batch 32, event-driven transport, saturated 1 Mb/s DoS.
    Fleet12,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Line1m,
        Workload::Population64x16,
        Workload::Fleet12,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Line1m => "line_1m",
            Workload::Population64x16 => "population_64x16",
            Workload::Fleet12 => "fleet_12",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// self-test smoke size with the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Benchmark size.
    Full,
    /// Smoke-test size.
    Tiny,
}

/// SplitMix64 finaliser: independent sub-seeds from the workload seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn continuous_dos() -> Option<AttackProfile> {
    Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous))
}

/// Population workload shape: (tenants, admission slots, capture ms).
fn population_shape(size: Size) -> (usize, usize, u64) {
    match size {
        Size::Full => (64, 16, 200),
        Size::Tiny => (4, 2, 20),
    }
}

/// Everything a workload's serving call consumes, made once in set-up.
pub struct Inputs {
    /// Which workload these inputs belong to.
    pub workload: Workload,
    /// The captures served: one for line/fleet, one per tenant for the
    /// population (registry order).
    pub captures: Vec<Dataset>,
    /// Saturated pacing rate of every capture.
    pub bitrate: Bitrate,
    /// The detectors: one trained model, or the 12 fleet models in
    /// bundle order.
    pub models: Vec<IntegerMlp>,
    /// The compiled fleet (`fleet_12` only).
    pub fleet: Option<FleetDeployment>,
    /// The tenant registry (`population_64x16` only).
    pub population: Option<Population>,
    /// Wall time spent inside `DatasetBuilder::build` during set-up.
    pub build_wall: Duration,
}

impl Inputs {
    /// Frames offered by one serving call.
    pub fn frames(&self) -> usize {
        self.captures.iter().map(Dataset::len).sum()
    }

    /// The replay configuration of the line and fleet calls, and the
    /// per-tenant template of the population call.
    pub fn replay_config(&self) -> ReplayConfig {
        match self.workload {
            Workload::Line1m => ReplayConfig::default(),
            Workload::Population64x16 => ReplayConfig::default().with_batch(32),
            Workload::Fleet12 => ReplayConfig::default()
                .with_policy(SchedPolicy::DmaBatch { batch: 32 })
                .with_transport(FleetTransport::EventDriven(NetConfig::default())),
        }
    }

    /// The population configuration (admission and pool) at `workers`.
    pub fn population_config(&self, size: Size, workers: usize) -> PopulationConfig {
        let (_, slots, _) = population_shape(size);
        PopulationConfig::default()
            .with_replay(self.replay_config())
            .with_workers(ShardWorkers::Fixed(workers))
            .with_admission(TenantAdmission::ShedLowestValueTenant {
                capacity: slots,
                window: 128,
            })
    }
}

fn timed_build(config: TrafficConfig, wall: &mut Duration) -> Dataset {
    let t0 = Instant::now();
    let capture = DatasetBuilder::new(config).build();
    *wall += t0.elapsed();
    capture
}

/// The paper's DoS detector, quick-trained by the pipeline's own
/// configuration. The detector is the deployment's fixed artifact; the
/// workload seed varies the traffic it serves.
fn train_detector(wall: &mut Duration) -> Result<IntegerMlp, String> {
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let t0 = Instant::now();
    let capture = pipeline.generate_capture();
    *wall += t0.elapsed();
    let detector = pipeline
        .train(&capture)
        .map_err(|e| format!("training the DoS detector failed: {e}"))?;
    Ok(detector.int_mlp)
}

/// Builds a workload's inputs from its seed: capture synthesis, model
/// training or compilation, and backend/population construction. This
/// is exactly the work `setup_s` times.
pub fn setup(workload: Workload, seed: u64, size: Size) -> Result<Inputs, String> {
    let mut build_wall = Duration::ZERO;
    let one_capture = |ms: u64, wall: &mut Duration| {
        timed_build(
            TrafficConfig {
                duration: SimTime::from_millis(ms),
                attack: continuous_dos(),
                seed: sub_seed(seed, 1),
                ..TrafficConfig::default()
            },
            wall,
        )
    };
    match workload {
        Workload::Line1m => {
            let ms = if size == Size::Full { 2_500 } else { 60 };
            let capture = one_capture(ms, &mut build_wall);
            let model = train_detector(&mut build_wall)?;
            Ok(Inputs {
                workload,
                captures: vec![capture],
                bitrate: Bitrate::HIGH_SPEED_1M,
                models: vec![model],
                fleet: None,
                population: None,
                build_wall,
            })
        }
        Workload::Population64x16 => {
            let (tenants, _, ms) = population_shape(size);
            let model = train_detector(&mut build_wall)?;
            let captures: Vec<Dataset> = (0..tenants)
                .map(|k| {
                    timed_build(
                        TrafficConfig {
                            duration: SimTime::from_millis(ms),
                            attack: if k % 2 == 0 { continuous_dos() } else { None },
                            seed: sub_seed(seed, 100 + k as u64),
                            ..TrafficConfig::default()
                        },
                        &mut build_wall,
                    )
                })
                .collect();
            let population = Population::with_tenants(
                captures
                    .iter()
                    .enumerate()
                    .map(|(k, c)| TenantStream::new(format!("vehicle-{k}"), c.clone()))
                    .collect(),
            );
            Ok(Inputs {
                workload,
                bitrate: population.tenants()[0].bitrate,
                captures,
                models: vec![model],
                fleet: None,
                population: Some(population),
                build_wall,
            })
        }
        Workload::Fleet12 => {
            let ms = if size == Size::Full { 1_000 } else { 30 };
            let capture = one_capture(ms, &mut build_wall);
            let kinds = [
                AttackKind::Dos,
                AttackKind::Fuzzy,
                AttackKind::GearSpoof,
                AttackKind::RpmSpoof,
            ];
            let bundles = (0..12)
                .map(|i| {
                    let mlp = QuantMlp::new(MlpConfig {
                        seed: 400 + i as u64,
                        ..MlpConfig::paper_4bit()
                    })
                    .and_then(|m| m.export())
                    .map_err(|e| format!("fleet model {i}: {e}"))?;
                    Ok(DetectorBundle::new(kinds[i % 4], mlp))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let boards = FleetConfig::new(vec![
                BoardSpec::zcu104("zcu-a"),
                BoardSpec::zcu104("zcu-b"),
                BoardSpec::ultra96("u96-a"),
                BoardSpec::ultra96("u96-b"),
                BoardSpec::pynq_z2("pynq-a"),
                BoardSpec::pynq_z2("pynq-b"),
            ])
            .with_model_cap(2);
            let fleet = FleetPlan::build(&bundles, &boards)
                .and_then(|plan| plan.deploy(&bundles, &CompileConfig::default()))
                .map_err(|e| format!("fleet deployment failed: {e}"))?;
            Ok(Inputs {
                workload,
                captures: vec![capture],
                bitrate: Bitrate::HIGH_SPEED_1M,
                models: bundles.into_iter().map(|b| b.model).collect(),
                fleet: Some(fleet),
                population: None,
                build_wall,
            })
        }
    }
}

/// The reference verdicts: per capture, per frame, bit `m` set when an
/// independent `IntegerMlp::infer` of model `m` on the frame's
/// `IdBitsPayloadBits::encode` flags it.
pub fn reference_masks(inputs: &Inputs) -> Vec<Vec<u64>> {
    let encoder = IdBitsPayloadBits;
    inputs
        .captures
        .iter()
        .map(|capture| {
            capture
                .iter()
                .map(|rec| reference_mask(&inputs.models, &encoder.encode(&rec.frame)))
                .collect()
        })
        .collect()
}

fn reference_mask(models: &[IntegerMlp], bits: &[f32]) -> u64 {
    models
        .iter()
        .enumerate()
        .filter(|(_, m)| m.infer_bits(bits).class != 0)
        .fold(0u64, |mask, (i, _)| mask | (1 << i))
}

/// The timed verdict sink: during a call it only stores the verdict and
/// its arrival instant into buffers reserved beforehand.
pub struct TimedSink {
    /// Verdicts in delivery order.
    pub verdicts: Vec<Verdict>,
    /// Wall instant each verdict reached the sink.
    pub stamps: Vec<Instant>,
}

impl TimedSink {
    /// A sink with room for `frames` verdicts.
    pub fn with_capacity(frames: usize) -> Self {
        TimedSink {
            verdicts: Vec::with_capacity(frames),
            stamps: Vec::with_capacity(frames),
        }
    }

    fn clear(&mut self) {
        self.verdicts.clear();
        self.stamps.clear();
    }
}

impl VerdictSink for TimedSink {
    fn verdict(&mut self, v: &Verdict) {
        self.stamps.push(Instant::now());
        self.verdicts.push(*v);
    }
}

/// The simulated facts of a fleet call, which must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFacts {
    /// p99 verdict latency on the modelled SoC, µs.
    pub latency_p99_us: f64,
    /// Energy per message on the modelled SoC, mJ.
    pub energy_per_msg_mj: f64,
    /// Every simulated field (latency percentiles, energy, drops,
    /// confusion matrices, per-board figures) as one string.
    pub fingerprint: String,
}

/// Admission outcome of a population call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PopulationFacts {
    /// Tenant shed events.
    pub sheds: usize,
    /// Tenant readmit events.
    pub readmits: usize,
    /// Shed frames that phase 1 had already inferred.
    pub shed_inferred: usize,
    /// Frames phase 1 inferred.
    pub inferred: usize,
}

/// What one serving call did, measured and checked.
#[derive(Debug, Clone, Default)]
pub struct CallResult {
    /// Wall time of the whole serving call.
    pub wall: Duration,
    /// Frames offered.
    pub offered: usize,
    /// Frames dropped by a FIFO or lost on the way to a board.
    pub dropped: u64,
    /// Frames that passed while their tenant was shed.
    pub shed: u64,
    /// Frames whose verdict differs from the reference.
    pub mismatched: u64,
    /// Verdicts delivered.
    pub verdicts: usize,
    /// The program's own modelled capacity (`sustained_fps`), if any.
    pub capacity_fps: Option<f64>,
    /// Simulated facts (`fleet_12`).
    pub sim: Option<SimFacts>,
    /// Admission facts (population).
    pub population: Option<PopulationFacts>,
    /// Broken invariants (conservation, counts), one line each.
    pub violations: Vec<String>,
}

impl CallResult {
    /// `true` when every output check held (sheds and drops are counted,
    /// not violations).
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.violations.is_empty()
    }
}

/// Drives one workload's serving call and checks its outputs.
pub struct Runner<'a> {
    /// The workload inputs.
    pub inputs: &'a Inputs,
    size: Size,
    /// Reference verdict masks per capture and frame (see
    /// [`reference_masks`]); every call is checked against them.
    pub refs: Vec<Vec<u64>>,
    /// Paced arrival instants per capture, to map fused verdicts back to
    /// frame ordinals.
    arrivals: Vec<Vec<SimTime>>,
    /// The sink of the last line/fleet call.
    pub sink: TimedSink,
    /// When the last serving call started (its wall is in its result).
    pub last_start: Option<Instant>,
}

impl<'a> Runner<'a> {
    /// Prepares the reference verdicts and the sink (not timed).
    pub fn new(inputs: &'a Inputs, size: Size) -> Self {
        let arrivals = inputs
            .captures
            .iter()
            .map(|c| {
                paced_records(c, inputs.bitrate)
                    .map(|r| r.timestamp)
                    .collect()
            })
            .collect();
        Runner {
            inputs,
            size,
            refs: reference_masks(inputs),
            arrivals,
            sink: TimedSink::with_capacity(inputs.frames()),
            last_start: None,
        }
    }

    /// One serving call through the public entry point, timed, then
    /// checked. `config` overrides the workload's replay configuration
    /// (the traced run attaches telemetry through it).
    pub fn call_with(
        &mut self,
        config: &ReplayConfig,
    ) -> Result<(CallResult, Option<TelemetryReport>), String> {
        let inputs = self.inputs;
        match (&inputs.fleet, &inputs.population) {
            (None, None) => {
                let backend = SoftwareBackend::new(inputs.models.clone());
                let (report, wall) = self.replay(backend, config)?;
                let mut result = self.check_stream(&report, wall, 1);
                result.capacity_fps = report.sustained_fps;
                Ok((result, report.telemetry))
            }
            (Some(fleet), _) => {
                let (report, wall) = self.replay(fleet.serve_backend(), config)?;
                let mut result = self.check_stream(&report, wall, fleet.shards.len());
                let energy = report.energy.map_or(0.0, |e| e.energy_per_message_j);
                let boards: Vec<_> = report
                    .boards
                    .iter()
                    .map(|b| (b.serviced, b.dropped, b.latency, b.energy))
                    .collect();
                result.sim = Some(SimFacts {
                    latency_p99_us: report.latency.p99.as_micros_f64(),
                    energy_per_msg_mj: energy * 1e3,
                    fingerprint: format!(
                        "lat:{:?} energy:{:?} dropped:{} serviced:{} flagged:{} cm:{:?} boards:{:?} gateways:{:?}",
                        report.latency,
                        report.energy,
                        report.dropped,
                        report.serviced,
                        report.flagged,
                        report.cm,
                        boards,
                        report.gateways,
                    ),
                });
                Ok((result, report.telemetry))
            }
            (None, Some(population)) => {
                let model = &inputs.models[0];
                let pop_config = PopulationConfig {
                    replay: config.clone(),
                    ..inputs.population_config(self.size, 2)
                };
                let t0 = Instant::now();
                self.last_start = Some(t0);
                let report = population
                    .serve(|| Ok(SoftwareBackend::single(model.clone())), &pop_config)
                    .map_err(|e| format!("population serve failed: {e}"))?;
                let wall = t0.elapsed();
                let result = self.check_population(&report, wall);
                Ok((result, report.telemetry))
            }
        }
    }

    /// `ServeHarness::replay_with` of the single capture into the timed
    /// sink; returns the report and the wall time of the whole call.
    fn replay<B: ServeBackend>(
        &mut self,
        backend: B,
        config: &ReplayConfig,
    ) -> Result<(ServeReport, Duration), String> {
        let mut harness = ServeHarness::new(backend);
        self.sink.clear();
        let t0 = Instant::now();
        self.last_start = Some(t0);
        let report = harness
            .replay_with(&self.inputs.captures[0], config, &mut self.sink)
            .map_err(|e| format!("{} replay failed: {e}", self.inputs.workload.name()))?;
        Ok((report, t0.elapsed()))
    }

    /// The workload's own call: its replay configuration, two workers.
    pub fn call(&mut self) -> Result<CallResult, String> {
        let config = self.inputs.replay_config();
        self.call_with(&config).map(|(r, _)| r)
    }

    /// Checks a line/fleet call: per-model flags against the reference
    /// (OR over models for the fused flag), every frame accounted for.
    fn check_stream(&self, report: &ServeReport, wall: Duration, shards: usize) -> CallResult {
        let refs = &self.refs[0];
        let all_models = match self.inputs.models.len() {
            64.. => u64::MAX,
            n => (1u64 << n) - 1,
        };
        let mut result = CallResult {
            wall,
            offered: report.offered,
            verdicts: self.sink.verdicts.len(),
            ..CallResult::default()
        };
        if report.offered != refs.len() {
            result.violations.push(format!(
                "offered {} frames of a {}-frame capture",
                report.offered,
                refs.len()
            ));
        }
        if self.sink.verdicts.len() != report.serviced {
            result.violations.push(format!(
                "{} verdicts reached the sink for {} serviced frames",
                self.sink.verdicts.len(),
                report.serviced
            ));
        }
        let mut covered = 0usize;
        let mut last: Option<usize> = None;
        for v in &self.sink.verdicts {
            if last.is_some_and(|l| v.ordinal <= l) || v.ordinal >= refs.len() {
                result
                    .violations
                    .push(format!("verdict ordinal {} out of order", v.ordinal));
                break;
            }
            last = Some(v.ordinal);
            let expected = refs[v.ordinal] & v.consulted;
            if v.model_flags != expected || v.flagged != (expected != 0) {
                result.mismatched += 1;
            }
            if v.consulted == all_models && v.boards == shards {
                covered += 1;
            }
        }
        // A frame not served by every board lost detector coverage: it
        // counts as dropped.
        result.dropped = (report.offered - covered.min(report.offered)) as u64;
        if shards == 1 && report.offered != report.serviced + report.dropped as usize {
            result.violations.push(format!(
                "offered {} != serviced {} + dropped {}",
                report.offered, report.serviced, report.dropped
            ));
        }
        result
    }

    /// Checks a population call: tenant conservation, population
    /// conservation and every served verdict against the reference.
    fn check_population(&self, report: &PopulationReport, wall: Duration) -> CallResult {
        let mut result = CallResult {
            wall,
            offered: report.offered,
            dropped: report.dropped,
            shed: report.shed_frames as u64,
            capacity_fps: report.sustained_fps,
            ..CallResult::default()
        };
        let mut facts = PopulationFacts {
            sheds: report.shed_count(),
            readmits: report.readmit_count(),
            ..PopulationFacts::default()
        };
        if report.tenants.len() != self.refs.len() {
            result.violations.push(format!(
                "{} tenant reports for {} tenants",
                report.tenants.len(),
                self.refs.len()
            ));
        }
        for (t, (refs, arrivals)) in report
            .tenants
            .iter()
            .zip(self.refs.iter().zip(&self.arrivals))
        {
            if !t.conserved() || t.offered != refs.len() {
                result.violations.push(format!(
                    "tenant {}: offered {} of {} != serviced {} + dropped {} + shed {}",
                    t.tenant,
                    t.offered,
                    refs.len(),
                    t.serviced,
                    t.dropped,
                    t.shed_frames
                ));
            }
            for &(arrival, flagged) in &t.serve.verdicts {
                match arrivals.binary_search(&arrival) {
                    Ok(ord) if flagged == (refs[ord] != 0) => {}
                    Ok(_) => result.mismatched += 1,
                    Err(_) => {
                        result.violations.push(format!(
                            "tenant {}: verdict at an unknown arrival {arrival:?}",
                            t.tenant
                        ));
                        break;
                    }
                }
            }
            result.verdicts += t.serve.verdicts.len();
            facts.inferred += t.serve.serviced;
            facts.shed_inferred += t.shed_frames.min(t.serve.serviced);
        }
        let accounted = report.serviced + report.dropped as usize + report.shed_frames;
        if report.offered != accounted {
            result.violations.push(format!(
                "population offered {} != serviced {} + dropped {} + shed {}",
                report.offered, report.serviced, report.dropped, report.shed_frames
            ));
        }
        result.population = Some(facts);
        result
    }
}

/// The featuriser the simulated boards apply to each frame.
pub(crate) fn board_featurize(frame: &CanFrame) -> Vec<f32> {
    IdBitsPayloadBits.encode(frame)
}
