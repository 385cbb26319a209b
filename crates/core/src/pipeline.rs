//! The end-to-end reproduction pipeline.
//!
//! One call chain covers the paper's whole method:
//!
//! 1. synthesise a Car-Hacking-style capture on a simulated bus,
//! 2. quantisation-aware-train the MLP (Brevitas-equivalent),
//! 3. streamline to integer thresholds and compile to a FINN-style IP,
//! 4. deploy on the simulated ZCU104 ECU,
//! 5. evaluate accuracy, latency, throughput, power and energy.

use canids_can::time::SimTime;
use canids_dataflow::ip::{AcceleratorIp, CompileConfig};
use canids_dataset::attacks::{AttackProfile, BurstSchedule};
use canids_dataset::features::IdBitsPayloadBits;
use canids_dataset::generator::{Dataset, DatasetBuilder, TrafficConfig};
use canids_dataset::split::{train_test_split, SplitConfig};
use canids_qnn::export::IntegerMlp;
use canids_qnn::metrics::ConfusionMatrix;
use canids_qnn::mlp::{MlpConfig, QuantMlp};
use canids_qnn::trainer::{TrainConfig, Trainer};
use canids_soc::board::{BoardConfig, Zcu104Board};
use canids_soc::ecu::{EcuConfig, EcuReport, IdsEcu};

use crate::error::CoreError;
use crate::serve::PaperFeaturizer;

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Attack to train a detector for.
    pub attack: AttackProfile,
    /// Capture length.
    pub capture_duration: SimTime,
    /// Master seed.
    pub seed: u64,
    /// Network topology + quantisation.
    pub mlp: MlpConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
    /// Hardware compilation parameters.
    pub compile: CompileConfig,
    /// Train/test split.
    pub split: SplitConfig,
}

impl PipelineConfig {
    /// The paper's DoS configuration (continuous injection for dense
    /// attack coverage in short captures).
    pub fn dos() -> Self {
        PipelineConfig {
            attack: AttackProfile::dos().with_schedule(BurstSchedule::Continuous),
            ..PipelineConfig::default()
        }
    }

    /// The paper's Fuzzy configuration.
    pub fn fuzzy() -> Self {
        PipelineConfig {
            attack: AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous),
            ..PipelineConfig::default()
        }
    }

    /// Gear-spoofing configuration (extension beyond the paper's
    /// DoS/Fuzzy scope).
    pub fn gear_spoof() -> Self {
        PipelineConfig {
            attack: AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous),
            ..PipelineConfig::default()
        }
    }

    /// RPM-spoofing configuration (extension).
    pub fn rpm_spoof() -> Self {
        PipelineConfig {
            attack: AttackProfile::rpm_spoof().with_schedule(BurstSchedule::Continuous),
            ..PipelineConfig::default()
        }
    }

    /// Scales the capture for quick tests (hundreds of frames).
    pub fn quick(mut self) -> Self {
        self.capture_duration = SimTime::from_millis(800);
        self.train.epochs = 3;
        self
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            attack: AttackProfile::dos().with_schedule(BurstSchedule::Continuous),
            capture_duration: SimTime::from_secs(20),
            seed: 0xD05,
            mlp: MlpConfig::paper_4bit(),
            train: TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
            compile: CompileConfig::default(),
            split: SplitConfig::default(),
        }
    }
}

/// A trained and exported detector with its test-set metrics.
#[derive(Debug, Clone)]
pub struct TrainedDetector {
    /// The QAT network (float fake-quant form).
    pub mlp: QuantMlp,
    /// The streamlined integer network.
    pub int_mlp: IntegerMlp,
    /// Test-set confusion matrix of the *integer* model (deployment
    /// semantics — what Table I reports for us).
    pub test_cm: ConfusionMatrix,
    /// Held-out test capture (time-ordered), for ECU replay.
    pub test_set: Dataset,
}

impl TrainedDetector {
    /// A frame-at-a-time evaluator over this detector's integer model —
    /// the streaming serving mode (see [`crate::stream`]).
    pub fn streaming_evaluator(&self) -> crate::stream::StreamingEvaluator {
        crate::stream::StreamingEvaluator::new(self.int_mlp.clone())
    }

    /// This detector as a deployment bundle for the N-detector engine
    /// (see [`crate::deploy::DeploymentPlan`]).
    pub fn bundle(
        &self,
        kind: canids_dataset::attacks::AttackKind,
    ) -> crate::deploy::DetectorBundle {
        crate::deploy::DetectorBundle::new(kind, self.int_mlp.clone())
    }
}

/// The complete pipeline outcome for one attack type.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Detector + metrics.
    pub detector: TrainedDetector,
    /// The compiled IP's facts (latency, resources, power).
    pub ip: AcceleratorIp,
    /// ECU replay report (latency/throughput/power/energy as measured
    /// through the full SoC path).
    pub ecu: EcuReport,
    /// Fraction of replayed verdicts that matched ground truth.
    pub replay_agreement: f64,
}

/// Runs the pipeline stages.
///
/// # Example
///
/// ```no_run
/// use canids_core::pipeline::{IdsPipeline, PipelineConfig};
///
/// let report = IdsPipeline::new(PipelineConfig::dos()).run()?;
/// let (p, r, f1, fnr) = report.detector.test_cm.table_row();
/// assert!(f1 > 99.0);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct IdsPipeline {
    config: PipelineConfig,
}

impl IdsPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> Self {
        IdsPipeline { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Stage 1: synthesise the labelled capture.
    pub fn generate_capture(&self) -> Dataset {
        DatasetBuilder::new(TrafficConfig {
            duration: self.config.capture_duration,
            attack: Some(self.config.attack),
            seed: self.config.seed,
            ..TrafficConfig::default()
        })
        .build()
    }

    /// Stage 2: QAT training + integer export + test-set evaluation.
    ///
    /// # Errors
    ///
    /// [`CoreError::DegenerateCapture`] when a class is missing; training
    /// and export errors otherwise.
    pub fn train(&self, capture: &Dataset) -> Result<TrainedDetector, CoreError> {
        let attacks = capture.iter().filter(|r| r.label.is_attack()).count();
        let normals = capture.len() - attacks;
        if attacks == 0 || normals == 0 {
            return Err(CoreError::DegenerateCapture { attacks, normals });
        }
        let (train_set, test_set) = train_test_split(capture, self.config.split);
        let encoder = IdBitsPayloadBits;
        let (xs, ys) = train_set.to_xy(&encoder);
        let mut mlp = QuantMlp::new(self.config.mlp.clone())?;
        Trainer::new(self.config.train.clone()).fit(&mut mlp, &xs, &ys)?;
        let int_mlp = mlp.export()?;

        let (txs, tys) = test_set.to_xy(&encoder);
        let mut test_cm = ConfusionMatrix::new();
        for (x, &y) in txs.iter().zip(&tys) {
            let pred = int_mlp.infer_bits(x).class;
            test_cm.record(pred != 0, y != 0);
        }
        Ok(TrainedDetector {
            mlp,
            int_mlp,
            test_cm,
            test_set,
        })
    }

    /// Stage 3: FINN-style compilation to an IP core.
    ///
    /// # Errors
    ///
    /// Propagates compilation/verification errors.
    pub fn compile(&self, int_mlp: &IntegerMlp) -> Result<AcceleratorIp, CoreError> {
        Ok(AcceleratorIp::compile(
            int_mlp,
            self.config.compile.clone(),
        )?)
    }

    /// Stage 4+5: deploy on the ECU and replay the test capture.
    ///
    /// # Errors
    ///
    /// Propagates SoC errors.
    pub fn deploy_and_replay(
        &self,
        ip: AcceleratorIp,
        test_set: &Dataset,
    ) -> Result<(EcuReport, f64), CoreError> {
        let mut board = Zcu104Board::new(BoardConfig::default());
        let idx = board.attach_accelerator(ip)?;
        let mut ecu = IdsEcu::new(board, vec![idx], EcuConfig::default());
        let frames: Vec<_> = test_set.iter().map(|r| (r.timestamp, r.frame)).collect();
        let report = ecu.process_capture(&frames, &PaperFeaturizer)?;

        // Verdict agreement with ground truth over the replay.
        let truth: std::collections::BTreeMap<u64, bool> = test_set
            .iter()
            .map(|r| (r.timestamp.as_nanos(), r.label.is_attack()))
            .collect();
        let mut agree = 0usize;
        for d in &report.detections {
            if truth
                .get(&d.arrival.as_nanos())
                .is_some_and(|&t| t == d.flagged)
            {
                agree += 1;
            }
        }
        let agreement = if report.detections.is_empty() {
            0.0
        } else {
            agree as f64 / report.detections.len() as f64
        };
        Ok((report, agreement))
    }

    /// Runs every stage and assembles the full report.
    ///
    /// # Errors
    ///
    /// Any stage error.
    pub fn run(&self) -> Result<PipelineReport, CoreError> {
        let capture = self.generate_capture();
        let detector = self.train(&capture)?;
        let ip = self.compile(&detector.int_mlp)?;
        let (ecu, replay_agreement) = self.deploy_and_replay(ip.clone(), &detector.test_set)?;
        Ok(PipelineReport {
            detector,
            ip,
            ecu,
            replay_agreement,
        })
    }

    /// Runs several full pipelines concurrently, one scoped thread per
    /// configuration (capture generation, training and replay all happen
    /// in parallel across scenarios, mirroring the DSE sweep). Results
    /// come back in configuration order.
    pub fn run_many(configs: &[PipelineConfig]) -> Vec<Result<PipelineReport, CoreError>> {
        crate::par::scoped_map(configs, |config| IdsPipeline::new(config.clone()).run())
    }

    /// Trains one detector per configuration concurrently (capture
    /// synthesis + QAT + integer export, no per-model deployment) — the
    /// front half of an N-detector deployment, whose back half is one
    /// *shared* plan/compile/serve pass through
    /// [`crate::deploy::DeploymentPlan`] instead of N independent
    /// single-model deployments. Results come back in configuration
    /// order, each paired with its attack kind for bundling.
    pub fn train_many(
        configs: &[PipelineConfig],
    ) -> Vec<Result<(canids_dataset::attacks::AttackKind, TrainedDetector), CoreError>> {
        crate::par::scoped_map(configs, |config| {
            let pipeline = IdsPipeline::new(config.clone());
            let detector = pipeline.train(&pipeline.generate_capture())?;
            Ok((config.attack.kind, detector))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_dos_pipeline_end_to_end() {
        let report = IdsPipeline::new(PipelineConfig::dos().quick())
            .run()
            .unwrap();
        let cm = report.detector.test_cm;
        assert!(cm.accuracy() > 0.99, "accuracy {}", cm.accuracy());
        assert!(
            report.replay_agreement > 0.99,
            "{}",
            report.replay_agreement
        );
        let ms = report.ecu.mean_latency.as_millis_f64();
        assert!((0.09..0.14).contains(&ms), "latency {ms} ms");
    }

    #[test]
    fn quick_fuzzy_pipeline_end_to_end() {
        let report = IdsPipeline::new(PipelineConfig::fuzzy().quick())
            .run()
            .unwrap();
        let cm = report.detector.test_cm;
        assert!(cm.f1() > 0.98, "f1 {}", cm.f1());
        assert!(cm.fnr() < 0.02, "fnr {}", cm.fnr());
    }

    #[test]
    fn stages_compose_manually() {
        let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
        let capture = pipeline.generate_capture();
        assert!(capture.len() > 200);
        let detector = pipeline.train(&capture).unwrap();
        let ip = pipeline.compile(&detector.int_mlp).unwrap();
        assert_eq!(ip.input_dim(), 75);
        let (ecu, agreement) = pipeline.deploy_and_replay(ip, &detector.test_set).unwrap();
        assert!(!ecu.detections.is_empty());
        assert!(agreement > 0.9);
    }

    #[test]
    fn run_many_is_deterministic_parallel_run() {
        let config = PipelineConfig::dos().quick();
        let sequential = IdsPipeline::new(config.clone()).run().unwrap();
        let mut parallel = IdsPipeline::run_many(&[config]);
        let report = parallel.remove(0).unwrap();
        assert_eq!(report.detector.test_cm, sequential.detector.test_cm);
        assert_eq!(report.ecu.dropped, sequential.ecu.dropped);
        // The streaming evaluator over the held-out capture reproduces
        // the batch test-set confusion matrix exactly.
        let mut eval = report.detector.streaming_evaluator();
        for rec in report.detector.test_set.iter() {
            eval.push(rec);
        }
        assert_eq!(*eval.confusion(), report.detector.test_cm);
    }

    #[test]
    fn degenerate_capture_rejected() {
        let pipeline = IdsPipeline::new(PipelineConfig {
            attack: AttackProfile::dos(), // default bursts start at 1 s
            capture_duration: SimTime::from_millis(200),
            ..PipelineConfig::default()
        });
        let capture = pipeline.generate_capture();
        let err = pipeline.train(&capture).unwrap_err();
        assert!(matches!(err, CoreError::DegenerateCapture { .. }));
    }
}
