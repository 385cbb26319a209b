//! Streaming (frame-at-a-time) evaluation.
//!
//! Every other evaluation path in this crate materialises a capture
//! before classifying it. A deployed IDS cannot: frames arrive one at a
//! time, paced by the wire, and the detector must keep up with a
//! saturated bus. [`StreamingEvaluator`] provides that serving mode:
//! each frame encoded straight into a frame bitmask
//! ([`FrameEncoder::encode_bits`]), per-frame inference on the packed
//! lane kernel ([`PackedMlp`]) and online [`ConfusionMatrix`]
//! accounting, with all per-frame buffers reused (no per-frame
//! allocation). A model the kernel cannot represent falls
//! back to the `i64` reference ([`IntegerMlp::infer_class`]). Streaming
//! and batch evaluation produce *identical* predictions and confusion
//! matrices on the same capture — the equivalence tests pin this.
//! Line-rate replays run it through [`crate::serve::SoftwareBackend`]
//! under the [`crate::serve::ServeHarness`], which owns pacing.

use canids_can::frame::CanFrame;
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_dataset::record::LabeledFrame;
use canids_qnn::export::{IntScratch, IntegerMlp};
use canids_qnn::kernel::{PackedMlp, PackedScratch};
use canids_qnn::metrics::ConfusionMatrix;

/// One streaming verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamVerdict {
    /// Predicted class (0 = normal).
    pub class: usize,
    /// `true` when the frame was classified as an attack.
    pub flagged: bool,
    /// Ground truth of the pushed record.
    pub truth_attack: bool,
}

impl StreamVerdict {
    /// `true` when prediction and ground truth agree.
    pub fn correct(&self) -> bool {
        self.flagged == self.truth_attack
    }
}

/// How a frame reaches the model: encoded straight into a frame
/// bitmask for the packed kernel, or featurised and quantised to levels
/// for the `i64` reference when the kernel cannot represent the model
/// (or the encoder's width).
#[derive(Debug, Clone)]
enum Datapath {
    Packed {
        kernel: PackedMlp,
        scratch: PackedScratch,
    },
    Reference {
        features: Vec<f32>,
        levels: Vec<u32>,
        scratch: IntScratch,
    },
}

impl Datapath {
    fn new(model: &IntegerMlp, dim: usize) -> Datapath {
        match PackedMlp::new(model) {
            Ok(kernel) if kernel.input_dim() == dim => Datapath::Packed {
                kernel,
                scratch: PackedScratch::default(),
            },
            _ => Datapath::Reference {
                features: vec![0.0; dim],
                levels: vec![0; dim],
                scratch: IntScratch::new(),
            },
        }
    }

    /// Classifies `frame`. Both paths quantise exactly as
    /// [`IntegerMlp::infer_bits`] does; the kernel only holds one-level
    /// (binary) models, where that quantisation is the `f >= 0.5` of
    /// [`FrameEncoder::encode_bits`].
    fn classify<E: FrameEncoder>(
        &mut self,
        encoder: &E,
        frame: &CanFrame,
        model: &IntegerMlp,
    ) -> usize {
        match self {
            Datapath::Packed { kernel, scratch } => {
                kernel.infer_class(encoder.encode_bits(frame), scratch)
            }
            Datapath::Reference {
                features,
                levels,
                scratch,
            } => {
                encoder.encode_into(frame, features);
                for (x, &f) in levels.iter_mut().zip(features.iter()) {
                    *x = (f.round().max(0.0) as u32).min(model.input_levels);
                }
                model.infer_class(levels, scratch)
            }
        }
    }
}

/// Frame-at-a-time evaluator over a streamlined integer model.
///
/// # Example
///
/// ```no_run
/// use canids_core::prelude::*;
/// use canids_core::stream::StreamingEvaluator;
///
/// let report = IdsPipeline::new(PipelineConfig::dos().quick()).run()?;
/// let mut eval = StreamingEvaluator::new(report.detector.int_mlp.clone());
/// for rec in report.detector.test_set.iter() {
///     eval.push(rec);
/// }
/// // Identical to the batch test-set confusion matrix.
/// assert_eq!(*eval.confusion(), report.detector.test_cm);
/// # Ok::<(), canids_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StreamingEvaluator<E: FrameEncoder = IdBitsPayloadBits> {
    model: IntegerMlp,
    encoder: E,
    datapath: Datapath,
    cm: ConfusionMatrix,
    frames: u64,
}

impl StreamingEvaluator<IdBitsPayloadBits> {
    /// An evaluator using the paper's 75-bit frame encoding.
    pub fn new(model: IntegerMlp) -> Self {
        StreamingEvaluator::with_encoder(model, IdBitsPayloadBits)
    }
}

impl<E: FrameEncoder> StreamingEvaluator<E> {
    /// An evaluator with a custom frame encoder. The model is compiled
    /// onto the packed kernel once, here.
    pub fn with_encoder(model: IntegerMlp, encoder: E) -> Self {
        let dim = encoder.dim();
        StreamingEvaluator {
            datapath: Datapath::new(&model, dim),
            model,
            encoder,
            cm: ConfusionMatrix::new(),
            frames: 0,
        }
    }

    /// Classifies one record, updating the online confusion matrix.
    ///
    /// The fused per-frame path: the encoder writes the frame bitmask
    /// ([`FrameEncoder::encode_bits`]) and the packed kernel classifies
    /// it through the evaluator's reusable buffers, with **zero
    /// intermediate allocation**. The quantisation matches
    /// [`IntegerMlp::infer_bits`] exactly, so streaming and batch
    /// predictions are identical.
    pub fn push(&mut self, rec: &LabeledFrame) -> StreamVerdict {
        let class = self
            .datapath
            .classify(&self.encoder, &rec.frame, &self.model);
        self.record(class, rec)
    }

    fn record(&mut self, class: usize, rec: &LabeledFrame) -> StreamVerdict {
        let flagged = class != 0;
        let truth_attack = rec.label.is_attack();
        self.cm.record(flagged, truth_attack);
        self.frames += 1;
        StreamVerdict {
            class,
            flagged,
            truth_attack,
        }
    }

    /// Classifies a window of records in one call, appending one verdict
    /// per record to `out` — the batched multi-frame entry point the
    /// software serving backend drives, so per-window dispatch (call
    /// overhead, branch warm-up) amortises across the window instead of
    /// repeating per frame. Identical predictions and accounting to
    /// calling [`push`](Self::push) per record.
    pub fn push_batch(&mut self, recs: &[LabeledFrame], out: &mut Vec<StreamVerdict>) {
        out.reserve(recs.len());
        for rec in recs {
            out.push(self.push(rec));
        }
    }

    /// The online confusion matrix over everything pushed so far.
    pub fn confusion(&self) -> &ConfusionMatrix {
        &self.cm
    }

    /// Frames classified so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The wrapped model.
    pub fn model(&self) -> &IntegerMlp {
        &self.model
    }

    /// Resets the online accounting, keeping the model.
    pub fn reset(&mut self) {
        self.cm = ConfusionMatrix::new();
        self.frames = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_can::time::SimTime;
    use canids_can::timing::Bitrate;
    use canids_dataset::attacks::{AttackProfile, BurstSchedule};
    use canids_dataset::features::FrameEncoder;
    use canids_dataset::generator::{Dataset, DatasetBuilder, TrafficConfig};
    use canids_qnn::mlp::{MlpConfig, QuantMlp};
    use canids_soc::ecu::SchedPolicy;

    use crate::serve::{EcuBackend, ReplayConfig, ServeHarness, SoftwareBackend};

    fn untrained_model() -> IntegerMlp {
        QuantMlp::new(MlpConfig::paper_4bit())
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
    fn streaming_matches_batch_exactly() {
        let model = untrained_model();
        let capture = quick_capture(true, 3);
        // Batch path: materialise features, then classify.
        let enc = IdBitsPayloadBits;
        let (xs, ys) = capture.to_xy(&enc);
        let mut batch_cm = ConfusionMatrix::new();
        let mut batch_preds = Vec::with_capacity(xs.len());
        for (x, &y) in xs.iter().zip(&ys) {
            let pred = model.infer_bits(x).class;
            batch_preds.push(pred);
            batch_cm.record(pred != 0, y != 0);
        }
        // Streaming path: one record at a time.
        let mut eval = StreamingEvaluator::new(model.clone());
        let stream_preds: Vec<usize> = capture.iter().map(|rec| eval.push(rec).class).collect();
        assert_eq!(stream_preds, batch_preds, "identical predictions");
        assert_eq!(*eval.confusion(), batch_cm, "identical confusion matrix");
        assert_eq!(eval.frames(), capture.len() as u64);
    }

    #[test]
    fn verdicts_carry_truth_and_correctness() {
        let model = untrained_model();
        let capture = quick_capture(true, 4);
        let mut eval = StreamingEvaluator::new(model);
        for rec in capture.iter().take(50) {
            let v = eval.push(rec);
            assert_eq!(v.truth_attack, rec.label.is_attack());
            assert_eq!(v.correct(), v.flagged == rec.label.is_attack());
            assert_eq!(v.flagged, v.class != 0);
        }
    }

    #[test]
    fn reset_clears_accounting_but_keeps_model() {
        let model = untrained_model();
        let capture = quick_capture(false, 5);
        let mut eval = StreamingEvaluator::new(model);
        for rec in capture.iter().take(10) {
            eval.push(rec);
        }
        assert_eq!(eval.frames(), 10);
        eval.reset();
        assert_eq!(eval.frames(), 0);
        assert_eq!(eval.confusion().total(), 0);
        assert_eq!(eval.model().layer_dims()[0], (75, 64));
    }

    #[test]
    fn line_rate_replay_accounts_every_frame() {
        let model = untrained_model();
        let capture = quick_capture(true, 6);
        // The default replay: saturated 1 Mb/s pacing into a 64-deep FIFO.
        let report = ServeHarness::new(SoftwareBackend::single(model))
            .replay(&capture, &ReplayConfig::default())
            .unwrap();
        assert_eq!(report.offered, capture.len());
        assert_eq!(report.serviced + report.dropped as usize, report.offered);
        assert_eq!(report.cm.total() as usize, report.serviced);
        assert!(report.offered_fps > 1_000.0, "saturated 1 Mb/s pacing");
        assert!(report.latency.p50 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        assert!(report.latency.max > SimTime::ZERO);
        // The modelled software service keeps classic-CAN line rate in
        // every build profile: service time is declared, not measured.
        assert!(
            report.keeps_up() && report.sustained_fps.unwrap_or(0.0) >= report.offered_fps,
            "sustained {:.0} fps vs offered {:.0} fps, dropped {}",
            report.sustained_fps.unwrap_or(0.0),
            report.offered_fps,
            report.dropped
        );
    }

    #[test]
    fn classic_and_fd_class_scenarios_replay_at_their_line_rates() {
        use crate::serve::Pacing;

        let model = untrained_model();
        let dos = AttackProfile::dos().with_schedule(BurstSchedule::Continuous);
        let scenarios = [
            (None, 0x11E, ReplayConfig::default()),
            (
                Some(dos),
                0x5FD,
                ReplayConfig::default().with_pacing(Pacing::FdClass),
            ),
        ];
        let reports: Vec<_> = scenarios
            .into_iter()
            .map(|(attack, seed, config)| {
                let capture = DatasetBuilder::new(TrafficConfig {
                    duration: SimTime::from_millis(120),
                    attack,
                    seed,
                    ..TrafficConfig::default()
                })
                .build();
                ServeHarness::new(SoftwareBackend::single(model.clone()))
                    .replay(&capture, &config)
                    .unwrap()
            })
            .collect();
        assert_eq!(reports[0].bitrate_bps, 1_000_000);
        assert_eq!(reports[1].bitrate_bps, 5_000_000);
        for r in &reports {
            assert!(r.offered > 0);
            assert_eq!(r.serviced + r.dropped as usize, r.offered);
        }
        // FD-class pacing offers a strictly higher frame rate.
        assert!(reports[1].offered_fps > reports[0].offered_fps);
    }

    #[test]
    fn multi_line_rate_accounts_every_frame_per_policy() {
        use crate::deploy::{deploy_multi_ids, DetectorBundle};
        use canids_dataflow::ip::CompileConfig;
        use canids_dataset::attacks::AttackKind;

        let capture = quick_capture(true, 9);
        let bundles = vec![
            DetectorBundle::new(AttackKind::Dos, untrained_model()),
            DetectorBundle::new(AttackKind::Fuzzy, {
                QuantMlp::new(MlpConfig {
                    seed: 5,
                    ..MlpConfig::paper_4bit()
                })
                .unwrap()
                .export()
                .unwrap()
            }),
        ];
        let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
        let mut flagged_baseline: Option<usize> = None;
        for policy in [SchedPolicy::RoundRobin, SchedPolicy::DmaBatch { batch: 32 }] {
            let report = ServeHarness::new(EcuBackend::new(&deployment))
                .replay(
                    &capture,
                    &ReplayConfig::default()
                        .with_policy(policy)
                        .with_bitrate(Bitrate::HIGH_SPEED_1M),
                )
                .unwrap();
            assert_eq!(report.sched, policy.label());
            assert_eq!(report.per_model.len(), 2);
            assert_eq!(report.offered, capture.len());
            assert_eq!(report.serviced + report.dropped as usize, report.offered);
            assert!(report.offered_fps > 1_000.0, "saturated pacing");
            assert!(report.latency.p50 <= report.latency.p99);
            assert!(report.latency.p99 <= report.latency.max);
            assert!(report.energy.expect("ECU meters energy").mean_power_w > 0.0);
            // Scheduling changes timing, never classification: with zero
            // drops the flagged count is policy-invariant.
            if report.dropped == 0 {
                match flagged_baseline {
                    None => flagged_baseline = Some(report.flagged),
                    Some(f) => assert_eq!(report.flagged, f, "{}", policy.label()),
                }
            }
        }
    }

    #[test]
    fn custom_encoder_dimension_respected() {
        use canids_can::frame::CanFrame;
        #[derive(Clone, Copy)]
        struct TinyEncoder;
        impl FrameEncoder for TinyEncoder {
            fn dim(&self) -> usize {
                4
            }
            fn encode(&self, frame: &CanFrame) -> Vec<f32> {
                let id = frame.id().base_id();
                (0..4).map(|i| f32::from((id >> i) & 1)).collect()
            }
        }
        let model = QuantMlp::new(MlpConfig {
            input_dim: 4,
            hidden: vec![4],
            ..MlpConfig::default()
        })
        .unwrap()
        .export()
        .unwrap();
        let capture = quick_capture(false, 7);
        let mut eval = StreamingEvaluator::with_encoder(model, TinyEncoder);
        for rec in capture.iter().take(20) {
            eval.push(rec);
        }
        assert_eq!(eval.frames(), 20);
    }

    #[test]
    fn packing_quantises_edge_features_like_infer_bits() {
        use canids_can::frame::CanFrame;
        const EDGES: [f32; 10] = [
            0.5,
            0.499_999_97,
            -0.0,
            -0.7,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0,
            0.0,
            1e30,
        ];
        /// Feature `i` of a frame is `EDGES[(id + i) % 10]`.
        #[derive(Clone, Copy)]
        struct EdgeEncoder;
        impl FrameEncoder for EdgeEncoder {
            fn dim(&self) -> usize {
                12
            }
            fn encode(&self, frame: &CanFrame) -> Vec<f32> {
                let id = usize::from(frame.id().base_id());
                (0..12).map(|i| EDGES[(id + i) % EDGES.len()]).collect()
            }
        }
        let capture = quick_capture(true, 8);
        for seed in 0..4 {
            let model = QuantMlp::new(MlpConfig {
                input_dim: 12,
                hidden: vec![10, 6],
                seed,
                ..MlpConfig::default()
            })
            .unwrap()
            .export()
            .unwrap();
            let mut eval = StreamingEvaluator::with_encoder(model.clone(), EdgeEncoder);
            for rec in capture.iter().take(64) {
                let want = model.infer_bits(&EdgeEncoder.encode(&rec.frame));
                assert_eq!(eval.push(rec).class, want.class, "seed {seed}");
                match &eval.datapath {
                    Datapath::Packed { scratch, .. } => {
                        assert_eq!(scratch.scores(), want.scores.as_slice(), "seed {seed}")
                    }
                    Datapath::Reference { .. } => panic!("a binary 12-input model packs"),
                }
            }
        }
    }
}
