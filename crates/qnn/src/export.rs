//! Integer-only export: FINN-style streamlining into MultiThreshold form.
//!
//! A trained [`QuantMlp`] evaluates, per hidden block,
//!
//! ```text
//! out_level = clamp(round(α·acc + β), 0, L)        acc = Σ Mᵢ·nᵢ (integer)
//! ```
//!
//! where `α`, `β` fold the weight scale, input scale, bias and batch-norm
//! affine, and `L = 2^a − 1` activation levels. Because the map is
//! monotone in the integer accumulator, it is *exactly* representable as
//! per-neuron integer thresholds `T₁ ≤ … ≤ T_L`:
//!
//! ```text
//! out_level = #{ k : acc ≥ T_k }
//! ```
//!
//! This is FINN's *streamlining* transformation (absorb scales and batch
//! norm into `MultiThreshold`), after which inference is integer-only —
//! the form the hardware MVAUs execute. Thresholds are derived in `f64`
//! and then *verified and corrected at the boundary* against the same
//! `f64` reference, so [`IntegerMlp::infer`] is bit-exact with the
//! [`reference_forward_f64`] semantics by construction.

use crate::error::QnnError;
use crate::mlp::QuantMlp;

/// Fixed-point shift applied to output-layer scores so the (real-valued)
/// bias participates in the integer argmax with 2⁻¹⁶ resolution.
pub const BIAS_SHIFT: u32 = 16;

/// One streamlined hidden layer: integer weights + MultiThreshold.
#[derive(Debug, Clone, PartialEq)]
pub struct IntBlock {
    /// Input dimension.
    pub in_dim: usize,
    /// Output dimension (neurons).
    pub out_dim: usize,
    /// Integer weight codes, `out_dim × in_dim` row-major. Rows whose
    /// folded scale was negative are sign-flipped so thresholds are
    /// always ascending.
    pub weights: Vec<i32>,
    /// Thresholds, `out_dim × levels` row-major, ascending per neuron.
    pub thresholds: Vec<i64>,
    /// Number of thresholds per neuron (`2^act_bits − 1`).
    pub levels: u32,
}

impl IntBlock {
    /// Weight row of neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j >= out_dim`.
    pub fn weight_row(&self, j: usize) -> &[i32] {
        &self.weights[j * self.in_dim..(j + 1) * self.in_dim]
    }

    /// Threshold row of neuron `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j >= out_dim`.
    pub fn threshold_row(&self, j: usize) -> &[i64] {
        let l = self.levels as usize;
        &self.thresholds[j * l..(j + 1) * l]
    }

    /// Bounds of the integer accumulator given inputs in `0..=in_levels`
    /// — the datapath width the hardware must provision.
    pub fn acc_bounds(&self, in_levels: u32) -> (i64, i64) {
        acc_bounds(&self.weights, self.in_dim, self.out_dim, in_levels)
    }
}

/// Accumulator bounds of row-major `out_dim × in_dim` weights over inputs
/// in `0..=in_levels`: the most negative and most positive neuron sums,
/// widened to include 0.
pub(crate) fn acc_bounds(
    weights: &[i32],
    in_dim: usize,
    out_dim: usize,
    in_levels: u32,
) -> (i64, i64) {
    let mut lo = 0i64;
    let mut hi = 0i64;
    for j in 0..out_dim {
        let mut jlo = 0i64;
        let mut jhi = 0i64;
        for &w in &weights[j * in_dim..(j + 1) * in_dim] {
            if w > 0 {
                jhi += i64::from(w) * i64::from(in_levels);
            } else {
                jlo += i64::from(w) * i64::from(in_levels);
            }
        }
        lo = lo.min(jlo);
        hi = hi.max(jhi);
    }
    (lo, hi)
}

/// The streamlined output layer: integer weights plus fixed-point bias.
#[derive(Debug, Clone, PartialEq)]
pub struct IntOutput {
    /// Input dimension.
    pub in_dim: usize,
    /// Output classes.
    pub out_dim: usize,
    /// Integer weight codes, `out_dim × in_dim` row-major.
    pub weights: Vec<i32>,
    /// Bias in accumulator units, pre-scaled by `2^BIAS_SHIFT`.
    pub bias_q: Vec<i64>,
}

impl IntOutput {
    /// Weight row of class `j`.
    ///
    /// # Panics
    ///
    /// Panics when `j >= out_dim`.
    pub fn weight_row(&self, j: usize) -> &[i32] {
        &self.weights[j * self.in_dim..(j + 1) * self.in_dim]
    }
}

/// An integer prediction: the winning class plus raw per-class scores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntPrediction {
    /// Argmax class (ties resolve to the lowest index).
    pub class: usize,
    /// Fixed-point class scores (`acc << BIAS_SHIFT` + bias).
    pub scores: Vec<i64>,
}

/// The fully streamlined integer-only network — what the FINN-style
/// compiler consumes and the hardware executes.
///
/// # Example
///
/// ```
/// use canids_qnn::prelude::*;
///
/// let mut mlp = QuantMlp::new(MlpConfig {
///     input_dim: 8,
///     hidden: vec![4],
///     ..MlpConfig::default()
/// })?;
/// let int_mlp = mlp.export()?;
/// let pred = int_mlp.infer(&[1, 0, 1, 0, 1, 1, 0, 0]);
/// assert!(pred.class < 2);
/// # Ok::<(), canids_qnn::QnnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntegerMlp {
    /// Streamlined hidden layers.
    pub blocks: Vec<IntBlock>,
    /// Streamlined output layer.
    pub output: IntOutput,
    /// Maximum input level (1 for the binary frame encoding).
    pub input_levels: u32,
    /// Weight bit-width the codes were quantised to.
    pub weight_bits: u8,
    /// Activation bit-width (levels = 2^bits − 1 thresholds).
    pub act_bits: u8,
}

/// Reusable buffers for [`IntegerMlp::infer_class`], the `i64`
/// reference path: the independent check the packed kernel
/// ([`crate::kernel::PackedMlp`]) is tested against, and the path a bare
/// software evaluator keeps for a model that kernel refuses (the
/// accelerator IP compile refuses such a model instead). The buffers
/// grow to the model's widest layer on first use and are reused on
/// every subsequent frame.
#[derive(Debug, Clone, Default)]
pub struct IntScratch {
    act: Vec<u32>,
    next: Vec<u32>,
    scores: Vec<i64>,
}

impl IntScratch {
    /// Empty scratch; buffers size themselves on first inference.
    pub fn new() -> Self {
        IntScratch::default()
    }

    /// Raw class scores from the most recent [`IntegerMlp::infer_class`].
    pub fn scores(&self) -> &[i64] {
        &self.scores
    }
}

impl IntegerMlp {
    /// Integer-only inference.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from the first layer's input width.
    pub fn infer(&self, x: &[u32]) -> IntPrediction {
        let mut scratch = IntScratch::new();
        let class = self.infer_class(x, &mut scratch);
        IntPrediction {
            class,
            scores: std::mem::take(&mut scratch.scores),
        }
    }

    /// Integer-only inference through caller-owned buffers: identical
    /// arithmetic to [`infer`](Self::infer) (which delegates here), but
    /// allocation-free once `scratch` has warmed up. This `i64` path is
    /// the reference the packed serving kernel
    /// ([`crate::kernel::PackedMlp`]) is pinned against, and what a bare
    /// software evaluator serves a model that kernel refuses. Scores
    /// stay readable via [`IntScratch::scores`].
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` differs from the first layer's input width.
    pub fn infer_class(&self, x: &[u32], scratch: &mut IntScratch) -> usize {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        scratch.act.clear();
        scratch.act.extend_from_slice(x);
        for block in &self.blocks {
            scratch.next.clear();
            scratch.next.resize(block.out_dim, 0);
            let act = &scratch.act;
            for (j, slot) in scratch.next.iter_mut().enumerate() {
                let row = block.weight_row(j);
                let mut acc = 0i64;
                for (w, &a) in row.iter().zip(act) {
                    acc += i64::from(*w) * i64::from(a);
                }
                let mut level = 0u32;
                for &t in block.threshold_row(j) {
                    if acc >= t {
                        level += 1;
                    } else {
                        break;
                    }
                }
                *slot = level;
            }
            std::mem::swap(&mut scratch.act, &mut scratch.next);
        }
        scratch.scores.clear();
        for j in 0..self.output.out_dim {
            let row = self.output.weight_row(j);
            let mut acc = 0i64;
            for (w, &a) in row.iter().zip(&scratch.act) {
                acc += i64::from(*w) * i64::from(a);
            }
            scratch
                .scores
                .push((acc << BIAS_SHIFT) + self.output.bias_q[j]);
        }
        scratch
            .scores
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Convenience wrapper rounding float features (e.g. the 0.0/1.0 bit
    /// encoding) to integer levels before inference.
    pub fn infer_bits(&self, bits: &[f32]) -> IntPrediction {
        let x: Vec<u32> = bits
            .iter()
            .map(|&b| (b.round().max(0.0) as u32).min(self.input_levels))
            .collect();
        self.infer(&x)
    }

    /// Input width: the first layer's input dimension.
    pub fn input_dim(&self) -> usize {
        self.blocks.first().map_or(self.output.in_dim, |b| b.in_dim)
    }

    /// `(in_dim, out_dim)` of every layer, hidden then output.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        let mut dims: Vec<(usize, usize)> =
            self.blocks.iter().map(|b| (b.in_dim, b.out_dim)).collect();
        dims.push((self.output.in_dim, self.output.out_dim));
        dims
    }

    /// Total multiply-accumulate operations per inference.
    pub fn macs(&self) -> usize {
        self.layer_dims().iter().map(|(i, o)| i * o).sum()
    }

    /// Total weight-memory footprint in bits.
    pub fn weight_bits_total(&self) -> usize {
        self.macs() * usize::from(self.weight_bits)
    }
}

/// The per-neuron folded affine response used by the export and by the
/// verification tests: `clamp(round(α·acc + β), 0, L)` computed in `f64`.
pub fn folded_response(alpha: f64, beta: f64, levels: u32, acc: i64) -> u32 {
    let v = (alpha * acc as f64 + beta).round();
    if v <= 0.0 {
        0
    } else if v >= f64::from(levels) {
        levels
    } else {
        v as u32
    }
}

/// Reference forward pass in `f64` over the folded per-layer affine forms
/// of `mlp` — the semantics [`IntegerMlp::infer`] reproduces exactly.
///
/// Exposed so integration tests can cross-check the streamlined model
/// against an independent implementation.
pub fn reference_forward_f64(mlp: &QuantMlp, x: &[u32]) -> usize {
    let folded = FoldedMlp::from_mlp(mlp);
    folded.infer(x)
}

/// The folded affine view of the network (f64 path, used for testing).
struct FoldedMlp {
    blocks: Vec<FoldedBlock>,
    out_weights: Vec<i32>,
    out_dims: (usize, usize),
    out_bias_units: Vec<f64>,
}

struct FoldedBlock {
    weights: Vec<i32>,
    in_dim: usize,
    out_dim: usize,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    levels: u32,
}

impl FoldedMlp {
    fn from_mlp(mlp: &QuantMlp) -> Self {
        let mut blocks = Vec::new();
        let mut in_scale = 1.0f64; // binary input features
        for block in mlp.blocks() {
            let (codes, s_w) = block.linear.int_weights();
            let in_dim = block.linear.in_dim();
            let out_dim = block.linear.out_dim();
            let (g, c) = match &block.bn {
                Some(bn) => bn.eval_affine(),
                None => (vec![1.0; out_dim], vec![0.0; out_dim]),
            };
            let s_y = f64::from(block.act.quantizer().scale());
            let levels = block.act.quantizer().bits().unsigned_max();
            let mut alpha = Vec::with_capacity(out_dim);
            let mut beta = Vec::with_capacity(out_dim);
            let mut weights = codes;
            for j in 0..out_dim {
                let b_j = f64::from(block.linear.bias().data[j]);
                let mut a = g[j] * f64::from(s_w) * in_scale / s_y;
                let bt = (g[j] * b_j + c[j]) / s_y;
                if a < 0.0 {
                    // Flip the weight row so the response is ascending.
                    for w in &mut weights[j * in_dim..(j + 1) * in_dim] {
                        *w = -*w;
                    }
                    a = -a;
                }
                alpha.push(a);
                beta.push(bt);
            }
            blocks.push(FoldedBlock {
                weights,
                in_dim,
                out_dim,
                alpha,
                beta,
                levels,
            });
            in_scale = s_y;
        }
        let (out_codes, out_sw) = mlp.output().int_weights();
        let out_scale = f64::from(out_sw) * in_scale;
        let out_bias_units: Vec<f64> = mlp
            .output()
            .bias()
            .data
            .iter()
            .map(|&b| f64::from(b) / out_scale)
            .collect();
        FoldedMlp {
            blocks,
            out_weights: out_codes,
            out_dims: (mlp.output().in_dim(), mlp.output().out_dim()),
            out_bias_units,
        }
    }

    fn infer(&self, x: &[u32]) -> usize {
        let mut act: Vec<u32> = x.to_vec();
        for b in &self.blocks {
            let mut next = vec![0u32; b.out_dim];
            for (j, slot) in next.iter_mut().enumerate() {
                let row = &b.weights[j * b.in_dim..(j + 1) * b.in_dim];
                let mut acc = 0i64;
                for (w, &a) in row.iter().zip(&act) {
                    acc += i64::from(*w) * i64::from(a);
                }
                *slot = folded_response(b.alpha[j], b.beta[j], b.levels, acc);
            }
            act = next;
        }
        let (in_dim, out_dim) = self.out_dims;
        let mut best_class = 0usize;
        let mut best_score = i64::MIN;
        for j in 0..out_dim {
            let row = &self.out_weights[j * in_dim..(j + 1) * in_dim];
            let mut acc = 0i64;
            for (w, &a) in row.iter().zip(&act) {
                acc += i64::from(*w) * i64::from(a);
            }
            let score = (acc << BIAS_SHIFT)
                + (self.out_bias_units[j] * f64::from(1u32 << BIAS_SHIFT)).round() as i64;
            if score > best_score {
                best_score = score;
                best_class = j;
            }
        }
        best_class
    }
}

impl QuantMlp {
    /// Streamlines the trained network into integer-only
    /// [`IntegerMlp`] form (binary input features assumed, as produced by
    /// the 75-bit frame encoding).
    ///
    /// # Errors
    ///
    /// Returns [`QnnError::EmptyTopology`] for a network with no layers.
    pub fn export(&self) -> Result<IntegerMlp, QnnError> {
        if self.config().classes == 0 {
            return Err(QnnError::EmptyTopology);
        }
        let folded = FoldedMlp::from_mlp(self);
        let mut blocks = Vec::with_capacity(folded.blocks.len());
        for fb in &folded.blocks {
            let levels = fb.levels;
            let mut thresholds = Vec::with_capacity(fb.out_dim * levels as usize);
            // Accumulator bounds for this layer (inputs are non-negative).
            for j in 0..fb.out_dim {
                let alpha = fb.alpha[j];
                let beta = fb.beta[j];
                for k in 1..=levels {
                    let t = if alpha == 0.0 {
                        // Constant response: threshold collapses to ±∞.
                        if folded_response(alpha, beta, levels, 0) >= k {
                            i64::MIN
                        } else {
                            i64::MAX
                        }
                    } else {
                        let mut t = ((f64::from(k) - 0.5 - beta) / alpha).ceil() as i64;
                        // Boundary fix-up against the exact f64 response so
                        // the threshold is the *minimal* accumulator value
                        // reaching level k.
                        let mut guard = 0;
                        while folded_response(alpha, beta, levels, t) < k {
                            t += 1;
                            guard += 1;
                            debug_assert!(guard < 1_000, "threshold fix-up diverged");
                        }
                        while t > i64::MIN + 1 && folded_response(alpha, beta, levels, t - 1) >= k {
                            t -= 1;
                            guard += 1;
                            debug_assert!(guard < 1_000, "threshold fix-up diverged");
                        }
                        t
                    };
                    thresholds.push(t);
                }
            }
            blocks.push(IntBlock {
                in_dim: fb.in_dim,
                out_dim: fb.out_dim,
                weights: fb.weights.clone(),
                thresholds,
                levels,
            });
        }
        let bias_q: Vec<i64> = folded
            .out_bias_units
            .iter()
            .map(|&b| (b * f64::from(1u32 << BIAS_SHIFT)).round() as i64)
            .collect();
        Ok(IntegerMlp {
            blocks,
            output: IntOutput {
                in_dim: folded.out_dims.0,
                out_dim: folded.out_dims.1,
                weights: folded.out_weights.clone(),
                bias_q,
            },
            input_levels: 1,
            weight_bits: self.config().weight_bits.bits(),
            act_bits: self.config().act_bits.bits(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::MlpConfig;
    use crate::quant::BitWidth;
    use crate::tensor::Matrix;
    use crate::trainer::{TrainConfig, Trainer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_mlp(bits: u8, hidden: Vec<usize>, seed: u64) -> QuantMlp {
        let dim = 12;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..400 {
            let y = usize::from(rng.gen_bool(0.5));
            let x: Vec<f32> = (0..dim)
                .map(|i| {
                    let base = if y == 1 {
                        (i % 2) as f32
                    } else {
                        ((i + 1) % 2) as f32
                    };
                    if rng.gen_bool(0.05) {
                        1.0 - base
                    } else {
                        base
                    }
                })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        let mut mlp = QuantMlp::new(MlpConfig {
            input_dim: dim,
            hidden,
            weight_bits: BitWidth::new(bits).unwrap(),
            act_bits: BitWidth::new(bits).unwrap(),
            seed,
            ..MlpConfig::default()
        })
        .unwrap();
        Trainer::new(TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &xs, &ys)
        .unwrap();
        mlp
    }

    fn random_bit_inputs(dim: usize, n: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| u32::from(rng.gen_bool(0.5))).collect())
            .collect()
    }

    #[test]
    fn scratch_inference_is_bit_identical_to_infer() {
        let mlp = trained_mlp(4, vec![10, 6], 21);
        let int_mlp = mlp.export().unwrap();
        // One scratch reused across every frame — the serving pattern.
        let mut scratch = IntScratch::new();
        for x in random_bit_inputs(12, 200, 77) {
            let fresh = int_mlp.infer(&x);
            let class = int_mlp.infer_class(&x, &mut scratch);
            assert_eq!(class, fresh.class);
            assert_eq!(scratch.scores(), fresh.scores.as_slice());
        }
    }

    #[test]
    fn thresholds_are_ascending_per_neuron() {
        let mlp = trained_mlp(4, vec![10, 6], 1);
        let int_mlp = mlp.export().unwrap();
        for b in &int_mlp.blocks {
            for j in 0..b.out_dim {
                let row = b.threshold_row(j);
                for w in row.windows(2) {
                    assert!(w[0] <= w[1], "thresholds must ascend: {row:?}");
                }
            }
        }
    }

    #[test]
    fn integer_model_matches_f64_reference_exactly() {
        for bits in [2u8, 3, 4, 8] {
            let mlp = trained_mlp(bits, vec![10, 6], u64::from(bits));
            let int_mlp = mlp.export().unwrap();
            for x in random_bit_inputs(12, 300, 99) {
                let a = int_mlp.infer(&x).class;
                let b = reference_forward_f64(&mlp, &x);
                assert_eq!(a, b, "bits={bits} x={x:?}");
            }
        }
    }

    #[test]
    fn integer_model_agrees_with_float_predictions() {
        // The f32 fake-quant path and the streamlined integer path should
        // agree on almost every input (boundary rounding may differ on a
        // vanishing fraction).
        let mut mlp = trained_mlp(4, vec![10, 6], 3);
        let int_mlp = mlp.export().unwrap();
        let inputs = random_bit_inputs(12, 500, 7);
        let mut agree = 0usize;
        for x in &inputs {
            let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
            let mut m = Matrix::zeros(1, 12);
            m.row_mut(0).copy_from_slice(&xf);
            let float_pred = mlp.predict_batch(&m)[0];
            let int_pred = int_mlp.infer(x).class;
            if float_pred == int_pred {
                agree += 1;
            }
        }
        assert!(
            agree as f64 / inputs.len() as f64 > 0.98,
            "agreement = {agree}/500"
        );
    }

    #[test]
    fn trained_accuracy_survives_export() {
        let dim = 12;
        let mlp = trained_mlp(4, vec![10, 6], 4);
        let int_mlp = mlp.export().unwrap();
        // Rebuild the training distribution and check the integer model
        // classifies it well.
        let mut rng = StdRng::seed_from_u64(4);
        let mut correct = 0usize;
        let total = 400usize;
        for _ in 0..total {
            let y = usize::from(rng.gen_bool(0.5));
            let x: Vec<u32> = (0..dim)
                .map(|i| {
                    let base = if y == 1 {
                        (i % 2) as u32
                    } else {
                        ((i + 1) % 2) as u32
                    };
                    if rng.gen_bool(0.05) {
                        1 - base
                    } else {
                        base
                    }
                })
                .collect();
            if int_mlp.infer(&x).class == y {
                correct += 1;
            }
        }
        // 4 quick epochs at 4 bits on a noisy toy problem: well above
        // chance is what matters here (exact accuracy is data-dependent).
        assert!(correct as f64 / total as f64 > 0.8, "acc {correct}/{total}");
    }

    #[test]
    fn infer_bits_rounds_floats() {
        let mlp = trained_mlp(4, vec![8], 5);
        let int_mlp = mlp.export().unwrap();
        let x = vec![0u32, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0];
        let xf: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        assert_eq!(int_mlp.infer(&x), int_mlp.infer_bits(&xf));
    }

    #[test]
    fn layer_dims_and_macs() {
        let mlp = trained_mlp(4, vec![10, 6], 6);
        let int_mlp = mlp.export().unwrap();
        assert_eq!(int_mlp.layer_dims(), vec![(12, 10), (10, 6), (6, 2)]);
        assert_eq!(int_mlp.macs(), 12 * 10 + 10 * 6 + 6 * 2);
        assert_eq!(int_mlp.weight_bits_total(), int_mlp.macs() * 4);
    }

    #[test]
    fn acc_bounds_contain_all_observed_accumulators() {
        let mlp = trained_mlp(4, vec![10], 7);
        let int_mlp = mlp.export().unwrap();
        let block = &int_mlp.blocks[0];
        let (lo, hi) = block.acc_bounds(1);
        for x in random_bit_inputs(12, 200, 8) {
            for j in 0..block.out_dim {
                let acc: i64 = block
                    .weight_row(j)
                    .iter()
                    .zip(&x)
                    .map(|(&w, &a)| i64::from(w) * i64::from(a))
                    .sum();
                assert!(acc >= lo && acc <= hi, "acc {acc} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn weight_codes_within_bitwidth() {
        for bits in [2u8, 4, 8] {
            let mlp = trained_mlp(bits, vec![8], 9);
            let int_mlp = mlp.export().unwrap();
            let max = (1i32 << (bits - 1)) - 1;
            for b in &int_mlp.blocks {
                assert!(b.weights.iter().all(|&w| w.abs() <= max.max(1)));
            }
            assert!(int_mlp
                .output
                .weights
                .iter()
                .all(|&w| w.abs() <= max.max(1)));
        }
    }

    #[test]
    fn deterministic_export() {
        let mlp = trained_mlp(4, vec![8], 10);
        assert_eq!(mlp.export().unwrap(), mlp.export().unwrap());
    }
}
