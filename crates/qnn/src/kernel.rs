//! The packed integer serving kernel.
//!
//! [`PackedMlp`] is compiled once from an [`IntegerMlp`] and computes
//! the same classes and scores as [`IntegerMlp::infer`], value for
//! value, on the narrow datapath the hardware MVAUs are sized for:
//!
//! * the input is one frame bitmask (`u128`, bit `i` = input `i`), and
//!   the first layer adds the weight column of each set bit;
//! * hidden and output layers store their weights column-major and skip
//!   zero activations;
//! * weight codes are `i8`; accumulators and thresholds are `i32`;
//! * thresholds are clamped into `[lo, hi + 1]` of the layer's proven
//!   accumulator range (FINN's `RoundAndClipThresholds`) and counted
//!   branch-free;
//! * argmax ties go to the lowest class index.
//!
//! [`PackedMlp::new`] proves every width from [`IntBlock::acc_bounds`]
//! and the codes, and refuses a model it cannot represent with a typed
//! [`QnnError`]. Callers keep such a model on the `i64` reference path
//! ([`IntegerMlp::infer_class`]).
//!
//! # Example
//!
//! ```
//! use canids_qnn::kernel::{pack_levels, PackedMlp, PackedScratch};
//! use canids_qnn::prelude::*;
//!
//! let model = QuantMlp::new(MlpConfig::paper_4bit())?.export()?;
//! let kernel = PackedMlp::new(&model)?;
//! let x: Vec<u32> = (0..75).map(|i| u32::from(i % 3 == 0)).collect();
//! let bits = pack_levels(&x).expect("binary and at most 128 wide");
//! let mut scratch = PackedScratch::default();
//! let class = kernel.infer_class(bits, &mut scratch);
//! let reference = model.infer(&x);
//! assert_eq!(class, reference.class);
//! assert_eq!(scratch.scores(), reference.scores.as_slice());
//! # Ok::<(), canids_qnn::QnnError>(())
//! ```

use crate::error::QnnError;
use crate::export::{acc_bounds, IntBlock, IntPrediction, IntegerMlp, BIAS_SHIFT};

/// Widest input a frame bitmask holds.
pub const MAX_INPUT_BITS: usize = 128;

/// Packs binary input levels into a frame bitmask, bit `i` = `x[i]`.
///
/// Returns `None` when `x` is wider than [`MAX_INPUT_BITS`] or holds a
/// level above 1.
pub fn pack_levels(x: &[u32]) -> Option<u128> {
    if x.len() > MAX_INPUT_BITS {
        return None;
    }
    let mut bits = 0u128;
    for (i, &level) in x.iter().enumerate() {
        if level > 1 {
            return None;
        }
        bits |= u128::from(level) << i;
    }
    Some(bits)
}

/// Packs float features into a frame bitmask with
/// [`IntegerMlp::infer_bits`]' quantisation at one input level:
/// `(f.round().max(0.0) as u32).min(1)` is 1 exactly when `f >= 0.5`
/// (NaN and everything below one half, negative zero included, give 0).
/// Features past [`MAX_INPUT_BITS`] are ignored.
pub fn pack_features(features: &[f32]) -> u128 {
    let mut words = [0u64; 2];
    for (word, chunk) in words.iter_mut().zip(features.chunks(64)) {
        for (i, &f) in chunk.iter().enumerate() {
            *word |= u64::from(f >= 0.5) << i;
        }
    }
    u128::from(words[0]) | (u128::from(words[1]) << 64)
}

/// A layer's weights as `i8` codes, column-major: column `i` holds every
/// neuron's weight on input `i`.
#[derive(Debug, Clone, PartialEq)]
struct Columns {
    out_dim: usize,
    codes: Vec<i8>,
}

impl Columns {
    /// Transposes row-major `out_dim × in_dim` codes (`layer` names the
    /// layer in the error).
    fn from_rows(
        rows: &[i32],
        in_dim: usize,
        out_dim: usize,
        layer: usize,
    ) -> Result<Columns, QnnError> {
        let mut codes = vec![0i8; in_dim * out_dim];
        for j in 0..out_dim {
            for i in 0..in_dim {
                let w = rows[j * in_dim + i];
                codes[i * out_dim + j] = i8::try_from(w).map_err(|_| QnnError::KernelRange {
                    quantity: "weight code",
                    layer,
                    value: i64::from(w),
                    min: i64::from(i8::MIN),
                    max: i64::from(i8::MAX),
                })?;
            }
        }
        Ok(Columns { out_dim, codes })
    }

    /// Column of input `i`.
    fn column(&self, i: usize) -> &[i8] {
        &self.codes[i * self.out_dim..(i + 1) * self.out_dim]
    }

    /// `acc = Σ column(i)` over the set bits `i` of `bits`.
    fn add_bit_columns(&self, bits: u128, acc: &mut Vec<i32>) {
        acc.clear();
        acc.resize(self.out_dim, 0);
        let mut rest = bits;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            for (a, &w) in acc.iter_mut().zip(self.column(i)) {
                *a += i32::from(w);
            }
        }
    }

    /// `acc = Σ column(i) · act[i]`, skipping zero activations.
    fn add_level_columns(&self, act: &[i32], acc: &mut Vec<i32>) {
        acc.clear();
        acc.resize(self.out_dim, 0);
        for (i, &level) in act.iter().enumerate() {
            if level != 0 {
                for (a, &w) in acc.iter_mut().zip(self.column(i)) {
                    *a += i32::from(w) * level;
                }
            }
        }
    }
}

/// A hidden layer: column-major codes plus level-major thresholds.
#[derive(Debug, Clone, PartialEq)]
struct PackedBlock {
    weights: Columns,
    /// `levels × out_dim`, level-major: row `k` holds every neuron's
    /// `k`-th threshold, ascending in `k` per neuron.
    thresholds: Vec<i32>,
    levels: usize,
}

impl PackedBlock {
    /// `act[j] = #{k : acc[j] >= T_k[j]}`, counted branch-free.
    fn count_levels(&self, acc: &[i32], act: &mut Vec<i32>) {
        let n = acc.len();
        act.clear();
        act.resize(n, 0);
        for k in 0..self.levels {
            let row = &self.thresholds[k * n..(k + 1) * n];
            for ((level, &a), &t) in act.iter_mut().zip(acc).zip(row) {
                *level += i32::from(a >= t);
            }
        }
    }
}

/// An [`IntegerMlp`] compiled onto the packed `i32` datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMlp {
    input_dim: usize,
    /// The low `input_dim` bits: inputs the first layer has columns for.
    input_mask: u128,
    blocks: Vec<PackedBlock>,
    output: Columns,
    bias_q: Vec<i64>,
}

/// Reusable buffers for [`PackedMlp::infer_class`]: they grow to the
/// model's widest layer on first use and are reused on every later
/// frame.
#[derive(Debug, Clone, Default)]
pub struct PackedScratch {
    acc: Vec<i32>,
    act: Vec<i32>,
    scores: Vec<i64>,
}

impl PackedScratch {
    /// Raw class scores from the most recent [`PackedMlp::infer_class`].
    pub fn scores(&self) -> &[i64] {
        &self.scores
    }
}

impl PackedMlp {
    /// Compiles `model`, proving that every quantity fits the kernel's
    /// storage.
    ///
    /// # Errors
    ///
    /// * [`QnnError::KernelRange`] when the input is not binary
    ///   (`input_levels != 1`) or wider than [`MAX_INPUT_BITS`], a
    ///   layer's accumulator range (or the clamped threshold `hi + 1`)
    ///   does not fit `i32`, a weight code does not fit `i8`, or a class
    ///   bias would push a score past `i64`;
    /// * [`QnnError::DimensionMismatch`] when the layers do not chain or
    ///   a weight, threshold or bias vector has the wrong length.
    pub fn new(model: &IntegerMlp) -> Result<PackedMlp, QnnError> {
        let input_dim = model.input_dim();
        in_range("input levels", 0, i64::from(model.input_levels), 1, 1)?;
        in_range("input width", 0, input_dim as i64, 0, MAX_INPUT_BITS as i64)?;
        let mut in_dim = input_dim;
        let mut in_levels = model.input_levels;
        let mut blocks = Vec::with_capacity(model.blocks.len());
        for (layer, block) in model.blocks.iter().enumerate() {
            same_len("hidden layer input", in_dim, block.in_dim)?;
            let (rows, out_dim) = (block.in_dim * block.out_dim, block.out_dim);
            same_len("hidden layer weights", rows, block.weights.len())?;
            let levels = block.levels as usize;
            same_len(
                "hidden layer thresholds",
                out_dim * levels,
                block.thresholds.len(),
            )?;
            let (lo, hi) = block.acc_bounds(in_levels);
            i32_range(layer, lo, hi + 1)?;
            blocks.push(PackedBlock {
                weights: Columns::from_rows(&block.weights, block.in_dim, out_dim, layer)?,
                thresholds: clamped_thresholds(block, lo, hi),
                levels,
            });
            in_dim = out_dim;
            in_levels = block.levels;
        }
        let out = &model.output;
        let layer = model.blocks.len();
        same_len("output layer input", in_dim, out.in_dim)?;
        same_len(
            "output layer weights",
            in_dim * out.out_dim,
            out.weights.len(),
        )?;
        same_len("output layer bias", out.out_dim, out.bias_q.len())?;
        let (lo, hi) = acc_bounds(&out.weights, out.in_dim, out.out_dim, in_levels);
        i32_range(layer, lo, hi)?;
        for &bias in &out.bias_q {
            // `lo <= 0 <= hi` fit i32, so neither bound below overflows.
            let (min, max) = (i64::MIN - (lo << BIAS_SHIFT), i64::MAX - (hi << BIAS_SHIFT));
            in_range("class bias", layer, bias, min, max)?;
        }
        Ok(PackedMlp {
            input_dim,
            input_mask: u128::MAX
                .checked_shr((MAX_INPUT_BITS - input_dim) as u32)
                .unwrap_or(0),
            blocks,
            output: Columns::from_rows(&out.weights, in_dim, out.out_dim, layer)?,
            bias_q: out.bias_q.clone(),
        })
    }

    /// Input width in bits.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Classifies one frame bitmask through caller-owned buffers; the
    /// class scores stay readable via [`PackedScratch::scores`]. Bits at
    /// or above [`input_dim`](Self::input_dim) are ignored.
    pub fn infer_class(&self, bits: u128, scratch: &mut PackedScratch) -> usize {
        let PackedScratch { acc, act, scores } = scratch;
        let first = self.blocks.first().map_or(&self.output, |b| &b.weights);
        first.add_bit_columns(bits & self.input_mask, acc);
        for (k, block) in self.blocks.iter().enumerate() {
            if k > 0 {
                block.weights.add_level_columns(act, acc);
            }
            block.count_levels(acc, act);
        }
        if !self.blocks.is_empty() {
            self.output.add_level_columns(act, acc);
        }
        scores.clear();
        scores.extend(
            acc.iter()
                .zip(&self.bias_q)
                .map(|(&a, &bias)| (i64::from(a) << BIAS_SHIFT) + bias),
        );
        let mut class = 0usize;
        for (j, &s) in scores.iter().enumerate() {
            if s > scores[class] {
                class = j;
            }
        }
        class
    }

    /// Classifies one frame bitmask, returning the class and its scores.
    pub fn infer(&self, bits: u128) -> IntPrediction {
        let mut scratch = PackedScratch::default();
        let class = self.infer_class(bits, &mut scratch);
        IntPrediction {
            class,
            scores: scratch.scores,
        }
    }
}

/// `Err(KernelRange)` unless `min <= value <= max`.
fn in_range(
    quantity: &'static str,
    layer: usize,
    value: i64,
    min: i64,
    max: i64,
) -> Result<(), QnnError> {
    if (min..=max).contains(&value) {
        Ok(())
    } else {
        Err(QnnError::KernelRange {
            quantity,
            layer,
            value,
            min,
            max,
        })
    }
}

/// `Err(KernelRange)` unless the accumulator range `lo..=hi` fits `i32`.
fn i32_range(layer: usize, lo: i64, hi: i64) -> Result<(), QnnError> {
    let (min, max) = (i64::from(i32::MIN), i64::from(i32::MAX));
    in_range("accumulator", layer, lo, min, max)?;
    in_range("accumulator", layer, hi, min, max)
}

/// `Err(DimensionMismatch)` unless `actual == expected`.
fn same_len(context: &'static str, expected: usize, actual: usize) -> Result<(), QnnError> {
    if expected == actual {
        Ok(())
    } else {
        Err(QnnError::DimensionMismatch {
            context,
            expected,
            actual,
        })
    }
}

/// `block`'s thresholds, level-major, clamped into `[lo, hi + 1]`.
///
/// Each neuron's thresholds first take their running maximum: counting
/// `acc >= T_k` over all `k` then equals the reference's early-exit
/// count (the number of leading thresholds passed), ascending or not.
/// Clamping changes no comparison for an accumulator in `[lo, hi]`.
fn clamped_thresholds(block: &IntBlock, lo: i64, hi: i64) -> Vec<i32> {
    let levels = block.levels as usize;
    let mut out = vec![0i32; levels * block.out_dim];
    for j in 0..block.out_dim {
        let mut running = i64::MIN;
        for (k, &t) in block.threshold_row(j).iter().enumerate() {
            running = running.max(t);
            // `new` proved `lo` and `hi + 1` fit i32.
            out[k * block.out_dim + j] = running.clamp(lo, hi + 1) as i32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::IntOutput;

    /// 3 inputs → 2 neurons (3 levels) → 2 classes, hand-written.
    fn toy() -> IntegerMlp {
        IntegerMlp {
            blocks: vec![IntBlock {
                in_dim: 3,
                out_dim: 2,
                weights: vec![1, -1, 2, -3, 0, 1],
                thresholds: vec![i64::MIN, 1, 2, 0, 0, i64::MAX],
                levels: 3,
            }],
            output: IntOutput {
                in_dim: 2,
                out_dim: 2,
                weights: vec![1, -1, -1, 1],
                bias_q: vec![0, 5],
            },
            input_levels: 1,
            weight_bits: 4,
            act_bits: 2,
        }
    }

    fn every_input(dim: usize) -> impl Iterator<Item = Vec<u32>> {
        (0..1u32 << dim).map(move |m| (0..dim).map(|i| (m >> i) & 1).collect())
    }

    #[test]
    fn toy_model_matches_reference_on_every_input() {
        let model = toy();
        let kernel = PackedMlp::new(&model).unwrap();
        for x in every_input(3) {
            let want = model.infer(&x);
            assert_eq!(kernel.infer(pack_levels(&x).unwrap()), want, "x={x:?}");
        }
    }

    #[test]
    fn unsorted_thresholds_count_like_the_early_exit() {
        let mut model = toy();
        // Neuron 0 passes T_1 = -1 but never T_2 = 9, so T_3 = 0 must not
        // count even when acc >= 0.
        model.blocks[0].thresholds = vec![-1, 9, 0, 0, 0, i64::MAX];
        let kernel = PackedMlp::new(&model).unwrap();
        for x in every_input(3) {
            assert_eq!(kernel.infer(pack_levels(&x).unwrap()), model.infer(&x));
        }
    }

    #[test]
    fn bits_above_the_input_width_are_ignored() {
        let model = toy();
        let kernel = PackedMlp::new(&model).unwrap();
        assert_eq!(
            kernel.infer(0b101 | (1 << 3) | (1 << 127)),
            kernel.infer(0b101)
        );
    }

    #[test]
    fn refuses_what_it_cannot_represent() {
        let mut ternary = toy();
        ternary.input_levels = 2;
        let mut wide_code = toy();
        wide_code.blocks[0].weights[4] = 128;
        let mut wide_acc = toy();
        wide_acc.blocks[0].weights[..2].copy_from_slice(&[1 << 30, 1 << 30]);
        let mut wide_bias = toy();
        wide_bias.output.bias_q[1] = i64::MAX;
        for (model, quantity) in [
            (ternary, "input levels"),
            (wide_code, "weight code"),
            (wide_acc, "accumulator"),
            (wide_bias, "class bias"),
        ] {
            match PackedMlp::new(&model) {
                Err(QnnError::KernelRange { quantity: q, .. }) => assert_eq!(q, quantity),
                other => panic!("{quantity}: {other:?}"),
            }
        }
        let mut unchained = toy();
        unchained.output.in_dim = 3;
        assert!(matches!(
            PackedMlp::new(&unchained),
            Err(QnnError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn packing_stops_at_the_bitmask_width() {
        assert_eq!(pack_levels(&[1, 0, 1]), Some(0b101));
        assert_eq!(pack_levels(&[0, 2]), None);
        assert_eq!(pack_levels(&[1; 129]), None);
        assert_eq!(pack_levels(&[1; 128]), Some(u128::MAX));
        assert_eq!(pack_features(&[1.0; 130]), u128::MAX);
    }
}
