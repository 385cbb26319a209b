//! AXI-Stream DMA batch inference (driver-overhead ablation).
//!
//! The paper's 0.12 ms per-message path pays the runtime dispatch on
//! every frame. A DMA engine amortises it: the driver prepares a buffer
//! of `n` packed frames, starts one transfer, and the accelerator
//! streams through them back-to-back at its initiation interval. This
//! module models that alternative integration — used by the ablation
//! tests to show *why* the paper's per-message latency is
//! software-bound, and what a batched deployment would buy.

use canids_can::time::SimTime;
use canids_dataflow::ip::AcceleratorIp;
use canids_qnn::kernel::{ClassMemo, PackedScratch};

use crate::accel::pack_features_into;
use crate::cpu::CpuModel;
use crate::error::SocError;

/// Sustained stream bandwidth between DDR and the PL, bytes per second
/// (the HP port at 128 bit × 200 MHz, conservatively derated).
pub const DMA_BANDWIDTH_BYTES_PER_S: f64 = 1.6e9;
/// Software descriptor setup, paid once per transfer.
pub const DMA_SETUP: SimTime = SimTime::from_micros(20);
/// Completion-interrupt service, paid once per transfer.
pub const DMA_COMPLETION_IRQ: SimTime = SimTime::from_micros(12);

/// A window of frames packed **once** into AXI input words for DMA
/// streaming, then consumable by any number of accelerator IPs: the
/// shared feature-packing substrate of the multi-detector deployment (N
/// models read one packed buffer instead of re-packing per model).
///
/// The frames live in one flat buffer of 32-bit words, `stride =
/// dim.div_ceil(32)` per frame (an IP's `input_words`): feature `i` of
/// frame `k` is bit `i % 32` of word `k * stride + i / 32`, the layout
/// [`pack_features`](crate::accel::pack_features) writes. Clearing keeps
/// the buffer, so a reused batch allocates nothing per frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeatureBatch {
    words: Vec<u32>,
    dim: usize,
    len: usize,
}

impl FeatureBatch {
    /// An empty batch of `dim`-wide frames.
    pub fn new(dim: usize) -> Self {
        FeatureBatch {
            words: Vec::new(),
            dim,
            len: 0,
        }
    }

    /// Quantises and appends one frame's binary features.
    ///
    /// # Errors
    ///
    /// [`SocError::InputDimension`] when the vector has the wrong width.
    pub fn push(&mut self, bits: &[f32]) -> Result<(), SocError> {
        self.check_dim(bits.len())?;
        pack_features_into(bits, &mut self.words);
        self.len += 1;
        Ok(())
    }

    /// Appends one frame already packed into `stride` words, as
    /// [`FrameFeaturizer::featurize_packed`](crate::ecu::FrameFeaturizer::featurize_packed)
    /// writes it; `dim` is the frame's feature count.
    ///
    /// # Errors
    ///
    /// [`SocError::InputDimension`] when `dim` differs from the batch
    /// width or `words` is not one frame's worth of words.
    pub fn push_packed(&mut self, dim: usize, words: &[u32]) -> Result<(), SocError> {
        self.check_dim(dim)?;
        if words.len() != self.stride() {
            return Err(SocError::InputDimension {
                expected: self.stride(),
                actual: words.len(),
            });
        }
        self.words.extend_from_slice(words);
        self.len += 1;
        Ok(())
    }

    fn check_dim(&self, dim: usize) -> Result<(), SocError> {
        if dim == self.dim {
            Ok(())
        } else {
            Err(SocError::InputDimension {
                expected: self.dim,
                actual: dim,
            })
        }
    }

    /// Packs a slice of feature vectors in one pass.
    ///
    /// # Errors
    ///
    /// [`SocError::InputDimension`] when any vector has the wrong width.
    pub fn from_features(dim: usize, batch: &[Vec<f32>]) -> Result<Self, SocError> {
        let mut fb = FeatureBatch::new(dim);
        for bits in batch {
            fb.push(bits)?;
        }
        Ok(fb)
    }

    /// Frames in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no frame has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feature width per frame.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// 32-bit words per frame.
    pub fn stride(&self) -> usize {
        self.dim.div_ceil(32)
    }

    /// The packed frames: [`len`](Self::len) × [`stride`](Self::stride)
    /// words, frame after frame.
    pub fn frames(&self) -> &[u32] {
        &self.words
    }

    /// Each frame's words, in push order.
    fn packed(&self) -> impl Iterator<Item = &[u32]> {
        let stride = self.stride();
        (0..self.len).map(move |k| &self.words[k * stride..(k + 1) * stride])
    }

    /// Empties the batch, keeping its capacity (hot-path reuse between
    /// DMA windows).
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }
}

/// Writes the class of every frame of `batch` on `ip` into `classes`
/// (cleared first), through the IP's scratch and class memo.
fn classify(
    ip: &AcceleratorIp,
    batch: &FeatureBatch,
    (scratch, memo): &mut (PackedScratch, ClassMemo),
    classes: &mut Vec<usize>,
) {
    classes.clear();
    classes.extend(
        batch
            .packed()
            .map(|words| ip.infer_words(words, scratch, memo).0),
    );
}

/// The timing of one DMA transfer of `n` frames into `ip`: one dispatch
/// plus descriptor setup, then the stream runs at min(DMA bandwidth,
/// accelerator initiation interval), plus the completion interrupt.
fn transfer_time(ip: &AcceleratorIp, cpu: &CpuModel, n: u64) -> SimTime {
    let bytes = n * u64::from(ip.input_words()) * 4;
    let stream_s = bytes as f64 / DMA_BANDWIDTH_BYTES_PER_S;
    let ii_s = ip.initiation_interval() as f64 / ip.clock_hz() as f64;
    let pipeline_s = ip.latency_secs() + ii_s * (n.saturating_sub(1)) as f64;
    let compute_s = pipeline_s.max(stream_s);
    cpu.runtime_dispatch + DMA_SETUP + SimTime::from_secs_f64(compute_s) + DMA_COMPLETION_IRQ
}

/// Runs a batch of feature vectors through one IP via a modelled DMA
/// transfer: the vectors are packed once into a [`FeatureBatch`] and
/// streamed by [`run_batch_multi`] over that one IP, so the report holds
/// one row of classes and its timing comes from `cpu` and the engine
/// constants ([`DMA_BANDWIDTH_BYTES_PER_S`], [`DMA_SETUP`],
/// [`DMA_COMPLETION_IRQ`]).
///
/// # Errors
///
/// [`SocError::InputDimension`] when any vector has the wrong width.
pub fn run_batch(
    ip: &AcceleratorIp,
    cpu: &CpuModel,
    batch: &[Vec<f32>],
) -> Result<MultiBatchReport, SocError> {
    let batch = FeatureBatch::from_features(ip.input_dim(), batch)?;
    let mut report = MultiBatchReport::default();
    run_batch_multi([(ip, &mut Default::default())], cpu, &batch, &mut report)?;
    Ok(report)
}

/// Result of one batched transfer broadcast to several IPs.
///
/// [`run_batch_multi`] overwrites a report the caller keeps, so its
/// vectors keep their capacity from window to window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiBatchReport {
    /// Classes per model, outer index = model, inner = frame.
    pub classes: Vec<Vec<usize>>,
    /// Per-frame fused verdict: `true` when any model flagged the frame.
    pub flagged: Vec<bool>,
    /// Wall time of the whole transfer (software + stream + compute of
    /// the slowest model).
    pub total: SimTime,
    /// Amortised per-frame latency.
    pub per_frame: SimTime,
}

/// Broadcasts one pre-packed batch to `ips` over a shared DMA stream:
/// the dispatch, the descriptor setup ([`DMA_SETUP`]), the stream (at
/// [`DMA_BANDWIDTH_BYTES_PER_S`]) and the completion interrupt
/// ([`DMA_COMPLETION_IRQ`]) are paid once, since every IP taps the same
/// packed buffer, and the transfer completes when the slowest model's
/// pipeline drains.
///
/// Each IP classifies through the kernel scratch and class memo paired
/// with it, which the caller keeps from window to window. The result
/// overwrites `out`, one row of `out.classes` per IP in `ips` order; a
/// caller that keeps `out` across windows of the same IP count
/// allocates nothing per window.
///
/// # Errors
///
/// [`SocError::NoSuchAccelerator`] when `ips` is empty;
/// [`SocError::InputDimension`] when the batch width does not match an
/// IP's input width (the IPs before it have classified the batch by
/// then, and `out` holds a partial result).
pub fn run_batch_multi<'i>(
    ips: impl IntoIterator<Item = (&'i AcceleratorIp, &'i mut (PackedScratch, ClassMemo))>,
    cpu: &CpuModel,
    batch: &FeatureBatch,
    out: &mut MultiBatchReport,
) -> Result<(), SocError> {
    let n = batch.len() as u64;
    let mut models = 0;
    let mut total = SimTime::ZERO;
    for (ip, buffers) in ips {
        if batch.dim() != ip.input_dim() {
            return Err(SocError::InputDimension {
                expected: ip.input_dim(),
                actual: batch.dim(),
            });
        }
        total = total.max(transfer_time(ip, cpu, n));
        if models == out.classes.len() {
            out.classes.push(Vec::with_capacity(batch.len()));
        }
        classify(ip, batch, buffers, &mut out.classes[models]);
        models += 1;
    }
    if models == 0 {
        return Err(SocError::NoSuchAccelerator(0));
    }
    out.classes.truncate(models);
    out.flagged.clear();
    out.flagged
        .extend((0..batch.len()).map(|f| out.classes.iter().any(|per_model| per_model[f] != 0)));
    out.total = total;
    out.per_frame = SimTime::from_nanos(total.as_nanos() / n.max(1));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use canids_dataflow::ip::CompileConfig;
    use canids_qnn::prelude::*;

    fn ip() -> AcceleratorIp {
        let mlp = QuantMlp::new(MlpConfig::paper_4bit()).unwrap();
        AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap()
    }

    fn batch(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| (0..75).map(|j| f32::from((i + j) % 2 == 0)).collect())
            .collect()
    }

    #[test]
    fn batch_amortises_dispatch() {
        let ip = ip();
        let cpu = CpuModel::zynqmp_a53_linux();
        let one = run_batch(&ip, &cpu, &batch(1)).unwrap();
        let many = run_batch(&ip, &cpu, &batch(256)).unwrap();
        assert!(many.per_frame < one.per_frame);
        // 256-frame batches push per-frame cost to the microsecond range.
        assert!(
            many.per_frame < SimTime::from_micros(5),
            "per-frame {}",
            many.per_frame
        );
    }

    #[test]
    fn classes_match_functional_model() {
        let ip = ip();
        let cpu = CpuModel::zynqmp_a53_linux();
        let frames = batch(16);
        let report = run_batch(&ip, &cpu, &frames).unwrap();
        assert_eq!(report.classes.len(), 1, "one row for the one IP");
        for (bits, &class) in frames.iter().zip(&report.classes[0]) {
            let x: Vec<u32> = bits.iter().map(|&v| u32::from(v >= 0.5)).collect();
            assert_eq!(class, ip.infer(&x).0);
        }
    }

    #[test]
    fn per_message_mode_still_wins_on_detection_delay() {
        // The ablation's flip side (and the paper's design point): batch
        // mode amortises cost but delays the verdict of the *first* frame
        // by the whole batch. Per-message latency of batch-256 total must
        // exceed the single-message driver path.
        let ip = ip();
        let cpu = CpuModel::zynqmp_a53_linux();
        let many = run_batch(&ip, &cpu, &batch(256)).unwrap();
        assert!(
            many.total > SimTime::from_micros(120),
            "batch verdict delay {}",
            many.total
        );
    }

    #[test]
    fn input_validation() {
        let ip = ip();
        let cpu = CpuModel::zynqmp_a53_linux();
        let err = run_batch(&ip, &cpu, &[vec![0.0; 10]]).unwrap_err();
        assert!(matches!(err, SocError::InputDimension { .. }));
    }

    #[test]
    fn multi_batch_broadcasts_one_buffer_to_all_models() {
        let cpu = CpuModel::zynqmp_a53_linux();
        let a = ip();
        let b = {
            let mlp = QuantMlp::new(MlpConfig {
                seed: 99,
                ..MlpConfig::paper_4bit()
            })
            .unwrap();
            AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap()
        };
        let frames = batch(16);
        let fb = FeatureBatch::from_features(a.input_dim(), &frames).unwrap();
        let (mut buf_a, mut buf_b) = Default::default();
        let mut multi = MultiBatchReport::default();
        run_batch_multi([(&a, &mut buf_a), (&b, &mut buf_b)], &cpu, &fb, &mut multi).unwrap();
        assert_eq!(multi.classes.len(), 2);
        assert_eq!(multi.flagged.len(), 16);
        // Per-model classes match a one-IP transfer of the same frames.
        let only_a = run_batch(&a, &cpu, &frames).unwrap();
        let only_b = run_batch(&b, &cpu, &frames).unwrap();
        assert_eq!(multi.classes[0], only_a.classes[0]);
        assert_eq!(multi.classes[1], only_b.classes[0]);
        for (f, &flag) in multi.flagged.iter().enumerate() {
            assert_eq!(flag, multi.classes[0][f] != 0 || multi.classes[1][f] != 0);
        }
        // The shared stream costs the slowest single transfer, not the sum.
        assert_eq!(multi.total, only_a.total.max(only_b.total));
    }

    #[test]
    fn multi_batch_rejects_empty_and_mismatched() {
        let cpu = CpuModel::zynqmp_a53_linux();
        let fb = FeatureBatch::from_features(75, &batch(4)).unwrap();
        assert!(matches!(
            run_batch_multi([], &cpu, &fb, &mut Default::default()),
            Err(SocError::NoSuchAccelerator(0))
        ));
        let a = ip();
        let wrong = FeatureBatch::from_features(10, &[vec![0.0; 10]]).unwrap();
        assert!(matches!(
            run_batch_multi(
                [(&a, &mut Default::default())],
                &cpu,
                &wrong,
                &mut Default::default()
            ),
            Err(SocError::InputDimension { .. })
        ));
    }

    #[test]
    fn feature_batch_clear_reuses_buffer() {
        let mut fb = FeatureBatch::new(3);
        fb.push(&[1.0, 0.0, 1.0]).unwrap();
        assert_eq!(fb.frames(), &[0b101]);
        fb.clear();
        assert!(fb.is_empty());
        assert_eq!(fb.dim(), 3);
        assert!(matches!(
            fb.push(&[1.0]),
            Err(SocError::InputDimension {
                expected: 3,
                actual: 1
            })
        ));
    }
}
