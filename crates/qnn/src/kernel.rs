//! The packed integer serving kernel.
//!
//! [`PackedMlp`] is compiled once from an [`IntegerMlp`] and computes
//! the same classes and scores as [`IntegerMlp::infer`], value for
//! value, on the narrow datapath the hardware MVAUs are sized for:
//!
//! * the input is one frame bitmask (`u128`, bit `i` = input `i`), the
//!   packed form a frame encoder writes straight from the frame. The
//!   first layer adds the weight column of each set bit;
//! * hidden and output layers store their weights column-major. Per
//!   block of lanes they gather a `u64` mask of the nonzero input
//!   levels, 64 inputs at a time, and walk its set bits as the first
//!   layer walks the frame's, so a zero activation costs no branch;
//! * weight codes are proven to fit `i8` and stored at lane width;
//!   accumulators, activations and thresholds run on `i16` lanes when
//!   the width proof allows and on `i32` lanes otherwise
//!   ([`PackedMlp::acc_bits`]), so no add or multiply widens a code. A
//!   layer's lanes are padded to a multiple of 16 and cut into blocks of
//!   64 lanes while 64 remain, then 32, then 16, each accumulated in a
//!   fixed-size local array;
//! * thresholds are clamped into `[lo, hi + 1]` of the layer's proven
//!   accumulator range (FINN's `RoundAndClipThresholds`) and counted
//!   level by level, branch-free across a level's lanes; the count stops
//!   at the first level no lane reaches;
//! * argmax ties go to the lowest class index.
//!
//! [`PackedMlp::new`] proves every width from [`IntBlock::acc_bounds`]
//! and the codes. It picks `i16` lanes exactly when every accumulator
//! bound, every clamped threshold and every activation level fits
//! `i16`, and refuses a model it cannot represent on `i32` lanes with a
//! typed [`QnnError`]. The accelerator IP compile returns that refusal
//! as its own error; only a bare software evaluator keeps such a model
//! on the `i64` reference path ([`IntegerMlp::infer_class`]).
//!
//! [`ClassMemo`] sits in front of the kernel: a fixed table of
//! [`MEMO_SLOTS`] recent frames with their classes and scores, so a
//! repeated frame (a DoS flood is one frame, repeated) is classified
//! once. Each owner of a [`PackedScratch`] keeps one memo beside it.
//!
//! # Example
//!
//! ```
//! use canids_qnn::kernel::{pack_levels, PackedMlp, PackedScratch};
//! use canids_qnn::prelude::*;
//!
//! let model = QuantMlp::new(MlpConfig::paper_4bit())?.export()?;
//! let kernel = PackedMlp::new(&model)?;
//! assert_eq!(kernel.acc_bits(), 16);
//! let x: Vec<u32> = (0..75).map(|i| u32::from(i % 3 == 0)).collect();
//! let bits = pack_levels(&x).expect("binary and at most 128 wide");
//! let mut scratch = PackedScratch::default();
//! let class = kernel.infer_class(bits, &mut scratch);
//! let reference = model.infer(&x);
//! assert_eq!(class, reference.class);
//! assert_eq!(scratch.scores(), reference.scores.as_slice());
//! # Ok::<(), canids_qnn::QnnError>(())
//! ```

use std::ops::{AddAssign, Mul};

use crate::error::QnnError;
use crate::export::{acc_bounds, IntBlock, IntPrediction, IntegerMlp, BIAS_SHIFT};

/// Widest input a frame bitmask holds.
pub const MAX_INPUT_BITS: usize = 128;

/// A layer's output lanes are padded to a multiple of this many.
const TILE: usize = 16;

/// Most output lanes one pass over a layer's inputs accumulates: the
/// size of the kernel's local accumulator array.
const BLOCK: usize = 64;

/// Inputs one nonzero-level mask covers.
const CHUNK: usize = 64;

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

/// An accumulator lane: `i16` or `i32`, picked by the width proof in
/// [`PackedMlp::new`]. Every sum, product and count the kernel forms on
/// it lies inside a proven range, so none overflows.
trait Lane:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + AddAssign
    + Mul<Output = Self>
    + From<i8>
    + From<bool>
    + Into<i64>
    + TryFrom<i64>
{
    /// Smallest value a lane holds.
    const MIN: i64;
    /// Largest value a lane holds.
    const MAX: i64;

    /// The activation buffer of this width in `scratch`, and the class
    /// scores.
    fn buffers(scratch: &mut PackedScratch) -> (&mut Vec<Self>, &mut Vec<i64>);

    /// Bit `i` set when `levels[i]` is nonzero, for at most [`CHUNK`]
    /// activation levels, each in `0..=MAX`. The levels are read a `u64`
    /// word of lanes at a time: adding `MAX` to a lane sets its top bit
    /// exactly when the level is nonzero and carries into no other lane,
    /// and one multiply gathers the word's top bits.
    fn nonzero(levels: &[Self]) -> u64;
}

impl Lane for i16 {
    const MIN: i64 = i16::MIN as i64;
    const MAX: i64 = i16::MAX as i64;

    fn buffers(scratch: &mut PackedScratch) -> (&mut Vec<i16>, &mut Vec<i64>) {
        (&mut scratch.act16, &mut scratch.scores)
    }

    fn nonzero(levels: &[i16]) -> u64 {
        let (words, tail) = levels.as_chunks::<4>();
        let mut mask = 0;
        for (k, word) in words.iter().enumerate() {
            let word = word
                .iter()
                .rev()
                .fold(0, |w, &l| (w << 16) | u64::from(l.cast_unsigned()));
            let tops = (word + 0x7FFF_7FFF_7FFF_7FFF) & 0x8000_8000_8000_8000;
            // Bits 15, 31, 47 and 63 to 60..64.
            mask |= (tops.wrapping_mul(0x2000_4000_8001) >> 60) << (4 * k);
        }
        for (i, &l) in tail.iter().enumerate() {
            mask |= u64::from(l != 0) << (4 * words.len() + i);
        }
        mask
    }
}

impl Lane for i32 {
    const MIN: i64 = i32::MIN as i64;
    const MAX: i64 = i32::MAX as i64;

    fn buffers(scratch: &mut PackedScratch) -> (&mut Vec<i32>, &mut Vec<i64>) {
        (&mut scratch.act32, &mut scratch.scores)
    }

    fn nonzero(levels: &[i32]) -> u64 {
        let (words, tail) = levels.as_chunks::<2>();
        let mut mask = 0;
        for (k, &[first, second]) in words.iter().enumerate() {
            let word = u64::from(first.cast_unsigned()) | (u64::from(second.cast_unsigned()) << 32);
            let tops = (word + 0x7FFF_FFFF_7FFF_FFFF) & 0x8000_0000_8000_0000;
            // Bits 31 and 63 to 62..64.
            mask |= (tops.wrapping_mul(0x8000_0001) >> 62) << (2 * k);
        }
        for (i, &l) in tail.iter().enumerate() {
            mask |= u64::from(l != 0) << (2 * words.len() + i);
        }
        mask
    }
}

/// Accumulates one block of `W` lanes over a layer's input: the set
/// bits of `bits` for the first layer (`act` is `None`), the previous
/// layer's activation levels otherwise. Those are walked [`CHUNK`] at a
/// time through their [`Lane::nonzero`] mask, so a zero level costs
/// neither a multiply-add nor a branch. `codes` holds the block's column
/// of `W` codes per input.
#[inline(always)]
fn accumulate<L: Lane, const W: usize>(codes: &[L], bits: u128, act: Option<&[L]>) -> [L; W] {
    let (columns, _) = codes.as_chunks::<W>();
    let mut acc = [L::default(); W];
    match act {
        None => {
            let mut rest = bits;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                // The set-bit column add.
                for (a, &w) in acc.iter_mut().zip(&columns[i]) {
                    *a += w;
                }
            }
        }
        Some(act) => {
            // The previous layer's padding lanes (level 0) have no column.
            let act = &act[..columns.len()];
            for (columns, levels) in columns.chunks(CHUNK).zip(act.chunks(CHUNK)) {
                let mut rest = L::nonzero(levels);
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    // The level multiply-add.
                    let level = levels[i];
                    for (a, &w) in acc.iter_mut().zip(&columns[i]) {
                        *a += w * level;
                    }
                }
            }
        }
    }
    acc
}

/// `out[j] = #{k : acc[j] >= T_k[j]}`, the threshold count over the
/// level-major rows of `thresholds`, branch-free within a row. Each
/// lane's thresholds ascend with the level (running maximum), so once
/// no lane reaches a level, none reaches a later one and the count
/// stops.
#[inline(always)]
fn count_levels<L: Lane, const W: usize>(acc: &[L; W], thresholds: &[L], out: &mut [L]) {
    let (rows, _) = thresholds.as_chunks::<W>();
    let mut count = [L::default(); W];
    for row in rows {
        let mut reached = false;
        for ((c, &a), &t) in count.iter_mut().zip(acc).zip(row) {
            let passed = a >= t;
            *c += L::from(passed);
            reached |= passed;
        }
        if !reached {
            break;
        }
    }
    out.copy_from_slice(&count);
}

/// One block of `W` lanes: its accumulators into `out` for the output
/// layer (`thresholds` is `None`), its activation levels for a hidden
/// layer.
#[inline(always)]
fn block<L: Lane, const W: usize>(
    codes: &[L],
    bits: u128,
    act: Option<&[L]>,
    thresholds: Option<&[L]>,
    out: &mut [L],
) {
    let acc = accumulate::<L, W>(codes, bits, act);
    match thresholds {
        Some(thresholds) => count_levels(&acc, thresholds, out),
        None => out.copy_from_slice(&acc),
    }
}

/// One layer on `L` lanes. Its `out_dim` lanes are padded to `width`, a
/// multiple of [`TILE`], and cut into the blocks of [`blocks`]. Codes
/// (`i8` values, widened to `L`) and thresholds are stored block by
/// block; inside a block, input `i`'s column of codes and level `k`'s
/// row of thresholds are each contiguous. Padding lanes hold zero codes
/// and the threshold `hi + 1`, which no accumulator reaches, so their
/// activations are 0.
#[derive(Debug, Clone, PartialEq)]
struct LaneLayer<L> {
    in_dim: usize,
    width: usize,
    codes: Vec<L>,
    /// `levels` thresholds per lane (hidden layers; empty for the
    /// output layer).
    thresholds: Vec<L>,
    levels: usize,
}

impl<L: Lane> LaneLayer<L> {
    fn new(plan: &LayerPlan, layer: usize) -> Result<LaneLayer<L>, QnnError> {
        let width = plan.out_dim.next_multiple_of(TILE);
        let narrow = |value: i64| {
            L::try_from(value).map_err(|_| QnnError::KernelRange {
                quantity: "threshold",
                layer,
                value,
                min: L::MIN,
                max: L::MAX,
            })
        };
        let thresholds = plan
            .thresholds
            .iter()
            .map(|&t| narrow(t))
            .collect::<Result<Vec<L>, _>>()?;
        let codes = &plan.codes;
        Ok(LaneLayer {
            in_dim: plan.in_dim,
            width,
            codes: blocked(plan.in_dim, plan.out_dim, width, L::default(), |i, j| {
                L::from(codes[j * plan.in_dim + i])
            }),
            thresholds: blocked(
                plan.levels,
                plan.out_dim,
                width,
                narrow(plan.top)?,
                |k, j| thresholds[j * plan.levels + k],
            ),
            levels: plan.levels,
        })
    }

    /// Runs lanes `start..start + out.len()` (one block) into `out`:
    /// activation levels for a hidden layer, accumulators for the
    /// output layer. The block width picks the monomorphised body, so
    /// its accumulators are a fixed-size local array.
    fn run_block(&self, start: usize, bits: u128, act: Option<&[L]>, hidden: bool, out: &mut [L]) {
        let bw = out.len();
        let codes = &self.codes[self.in_dim * start..self.in_dim * (start + bw)];
        let thresholds =
            hidden.then(|| &self.thresholds[self.levels * start..self.levels * (start + bw)]);
        // `blocks` cuts only 64-, 32- and 16-lane blocks: a 48-lane
        // body compiled its set-bit add to scalar code.
        match bw {
            16 => block::<L, 16>(codes, bits, act, thresholds, out),
            32 => block::<L, 32>(codes, bits, act, thresholds, out),
            _ => block::<L, BLOCK>(codes, bits, act, thresholds, out),
        }
    }
}

/// The blocks of a layer `width` lanes wide, a multiple of [`TILE`], as
/// `(start, lanes)`: [`BLOCK`] lanes while that many remain, then 32,
/// then 16.
fn blocks(width: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut start = 0;
    std::iter::from_fn(move || {
        let rest = width - start;
        let lanes = [BLOCK, BLOCK / 2, TILE].into_iter().find(|&w| w <= rest)?;
        start += lanes;
        Some((start - lanes, lanes))
    })
}

/// `rows` values per lane (a layer's codes, `rows = in_dim`, or its
/// thresholds, `rows = levels`) in [`LaneLayer`]'s block-major order;
/// `at(i, j)` is row `i` of lane `j < out_dim`, and padding lanes hold
/// `pad`.
fn blocked<T: Copy>(
    rows: usize,
    out_dim: usize,
    width: usize,
    pad: T,
    at: impl Fn(usize, usize) -> T,
) -> Vec<T> {
    let mut out = vec![pad; rows * width];
    for (start, bw) in blocks(width) {
        for i in 0..rows {
            for j in start..(start + bw).min(out_dim) {
                out[rows * start + i * bw + (j - start)] = at(i, j);
            }
        }
    }
    out
}

/// A layer proven representable on `i32` lanes, before the lane width
/// is chosen.
struct LayerPlan {
    in_dim: usize,
    out_dim: usize,
    /// `out_dim × in_dim` codes, row-major.
    codes: Vec<i8>,
    /// `out_dim × levels` clamped thresholds, row-major (empty for the
    /// output layer).
    thresholds: Vec<i64>,
    levels: usize,
    /// The accumulator bound `lo`.
    lo: i64,
    /// The largest accumulator or threshold: `hi + 1` for a hidden
    /// layer, whose thresholds clamp to it, `hi` for the output layer.
    top: i64,
}

impl LayerPlan {
    /// Whether every accumulator, threshold and activation level of the
    /// layer fits an `L` lane.
    fn fits<L: Lane>(&self) -> bool {
        L::MIN <= self.lo && self.top <= L::MAX && self.levels as i64 <= L::MAX
    }
}

/// The whole network on `L` lanes.
#[derive(Debug, Clone, PartialEq)]
struct LaneMlp<L> {
    hidden: Vec<LaneLayer<L>>,
    output: LaneLayer<L>,
    /// Lanes of every hidden layer together: the activation buffer.
    act_len: usize,
}

impl<L: Lane> LaneMlp<L> {
    fn new(hidden: &[LayerPlan], output: &LayerPlan) -> Result<LaneMlp<L>, QnnError> {
        let hidden = hidden
            .iter()
            .enumerate()
            .map(|(layer, plan)| LaneLayer::new(plan, layer))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LaneMlp {
            act_len: hidden.iter().map(|l| l.width).sum(),
            output: LaneLayer::new(output, hidden.len())?,
            hidden,
        })
    }

    fn infer_class(&self, bits: u128, bias_q: &[i64], scratch: &mut PackedScratch) -> usize {
        let (acts, scores) = L::buffers(scratch);
        acts.resize(self.act_len, L::default());
        let mut rest = acts.as_mut_slice();
        let mut input: Option<&[L]> = None;
        for layer in &self.hidden {
            let (act, tail) = std::mem::take(&mut rest).split_at_mut(layer.width);
            for (start, bw) in blocks(layer.width) {
                layer.run_block(start, bits, input, true, &mut act[start..start + bw]);
            }
            input = Some(act);
            rest = tail;
        }
        scores.clear();
        let output = &self.output;
        for (start, bw) in blocks(output.width) {
            let mut acc = [L::default(); BLOCK];
            output.run_block(start, bits, input, false, &mut acc[..bw]);
            scores.extend(
                acc[..bw]
                    .iter()
                    .zip(&bias_q[start..])
                    .map(|(&a, &bias)| (a.into() << BIAS_SHIFT) + bias),
            );
        }
        let mut class = 0usize;
        for (j, &s) in scores.iter().enumerate() {
            if s > scores[class] {
                class = j;
            }
        }
        class
    }
}

/// The compiled network at the width its proof picked.
#[derive(Debug, Clone, PartialEq)]
enum Lanes {
    I16(LaneMlp<i16>),
    I32(LaneMlp<i32>),
}

/// An [`IntegerMlp`] compiled onto the packed lane datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMlp {
    input_dim: usize,
    /// The low `input_dim` bits: inputs the first layer has columns for.
    input_mask: u128,
    lanes: Lanes,
    bias_q: Vec<i64>,
}

/// Reusable buffers for [`PackedMlp::infer_class`]: they grow to the
/// model's hidden lanes on first use and are reused on every later
/// frame.
#[derive(Debug, Clone, Default)]
pub struct PackedScratch {
    act16: Vec<i16>,
    act32: Vec<i32>,
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
    /// storage, and picks `i16` lanes when every accumulator bound,
    /// clamped threshold and activation level fits them (`i32` lanes
    /// otherwise).
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
        let mut hidden = Vec::with_capacity(model.blocks.len());
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
            hidden.push(LayerPlan {
                in_dim: block.in_dim,
                out_dim,
                codes: i8_codes(&block.weights, layer)?,
                thresholds: clamped_thresholds(block, lo, hi),
                levels,
                lo,
                top: hi + 1,
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
        let output = LayerPlan {
            in_dim,
            out_dim: out.out_dim,
            codes: i8_codes(&out.weights, layer)?,
            thresholds: Vec::new(),
            levels: 0,
            lo,
            top: hi,
        };
        let narrow = hidden.iter().chain([&output]).all(LayerPlan::fits::<i16>);
        Ok(PackedMlp {
            input_dim,
            input_mask: u128::MAX
                .checked_shr((MAX_INPUT_BITS - input_dim) as u32)
                .unwrap_or(0),
            lanes: if narrow {
                Lanes::I16(LaneMlp::new(&hidden, &output)?)
            } else {
                Lanes::I32(LaneMlp::new(&hidden, &output)?)
            },
            bias_q: out.bias_q.clone(),
        })
    }

    /// Input width in bits.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Lane width in bits the proof picked: 16 or 32.
    pub fn acc_bits(&self) -> u32 {
        match self.lanes {
            Lanes::I16(_) => 16,
            Lanes::I32(_) => 32,
        }
    }

    /// Classifies one frame bitmask through caller-owned buffers; the
    /// class scores stay readable via [`PackedScratch::scores`]. Bits at
    /// or above [`input_dim`](Self::input_dim) are ignored.
    pub fn infer_class(&self, bits: u128, scratch: &mut PackedScratch) -> usize {
        let bits = bits & self.input_mask;
        match &self.lanes {
            Lanes::I16(mlp) => mlp.infer_class(bits, &self.bias_q, scratch),
            Lanes::I32(mlp) => mlp.infer_class(bits, &self.bias_q, scratch),
        }
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

/// Entries one [`ClassMemo`] holds.
pub const MEMO_SLOTS: usize = 64;

/// Kernel runs and memo hits counted by one or more [`ClassMemo`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Lookups that missed and ran the kernel.
    pub runs: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
}

impl std::ops::AddAssign for MemoCounts {
    fn add_assign(&mut self, other: MemoCounts) {
        self.runs += other.runs;
        self.hits += other.hits;
    }
}

impl std::ops::Sub for MemoCounts {
    type Output = MemoCounts;

    fn sub(self, earlier: MemoCounts) -> MemoCounts {
        MemoCounts {
            runs: self.runs - earlier.runs,
            hits: self.hits - earlier.hits,
        }
    }
}

/// A bounded memo of one kernel's classifications: [`MEMO_SLOTS`]
/// direct-mapped entries from a frame bitmask, masked to the kernel's
/// [`input_dim`](PackedMlp::input_dim), to that frame's class and
/// scores, with a validity mask.
///
/// A flood repeats one frame, so under a DoS most frames hit. A hit
/// copies the entry's scores into the caller's [`PackedScratch`] and
/// returns its class; a miss runs the kernel and overwrites the slot.
/// So [`classify`](Self::classify) keeps [`PackedMlp::infer_class`]'s
/// contract exactly. A memo holds one kernel's results: give each kernel
/// its own, beside its scratch.
///
/// # Example
///
/// ```
/// use canids_qnn::kernel::{ClassMemo, PackedMlp, PackedScratch};
/// use canids_qnn::prelude::*;
///
/// let model = QuantMlp::new(MlpConfig::paper_4bit())?.export()?;
/// let kernel = PackedMlp::new(&model)?;
/// let (mut memo, mut scratch) = (ClassMemo::default(), PackedScratch::default());
/// for _ in 0..3 {
///     let class = memo.classify(&kernel, 0, &mut scratch);
///     assert_eq!(class, model.infer(&[0; 75]).class);
///     assert_eq!(scratch.scores(), model.infer(&[0; 75]).scores.as_slice());
/// }
/// assert_eq!((memo.counts().runs, memo.counts().hits), (1, 2));
/// # Ok::<(), canids_qnn::QnnError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClassMemo {
    /// Bit `s` set when slot `s` holds an entry.
    valid: u64,
    /// Slot `s`'s bitmask, then its class; both sized on the first miss.
    keys: Vec<u128>,
    classes: Vec<usize>,
    /// Slot `s`'s scores at `s * n..(s + 1) * n` for the kernel's `n`
    /// classes, sized on the first miss.
    scores: Vec<i64>,
    counts: MemoCounts,
}

impl ClassMemo {
    /// Classifies one frame bitmask as [`PackedMlp::infer_class`] does,
    /// running `kernel` only when the memo does not hold the frame.
    /// Either way the class scores are left in `scratch`.
    pub fn classify(
        &mut self,
        kernel: &PackedMlp,
        bits: u128,
        scratch: &mut PackedScratch,
    ) -> usize {
        let key = bits & kernel.input_mask;
        let slot = memo_slot(key);
        let n = kernel.bias_q.len();
        if self.valid & (1 << slot) != 0 && self.keys[slot] == key {
            self.counts.hits += 1;
            scratch.scores.clear();
            scratch
                .scores
                .extend_from_slice(&self.scores[slot * n..(slot + 1) * n]);
            return self.classes[slot];
        }
        self.counts.runs += 1;
        let class = kernel.infer_class(key, scratch);
        if self.keys.is_empty() {
            self.keys.resize(MEMO_SLOTS, 0);
            self.classes.resize(MEMO_SLOTS, 0);
            self.scores.resize(MEMO_SLOTS * n, 0);
        }
        self.scores[slot * n..(slot + 1) * n].copy_from_slice(&scratch.scores);
        self.keys[slot] = key;
        self.classes[slot] = class;
        self.valid |= 1 << slot;
        class
    }

    /// Kernel runs and hits since the memo was made.
    pub fn counts(&self) -> MemoCounts {
        self.counts
    }
}

/// The slot of a masked bitmask: the top bits of a multiplicative hash
/// of its two halves folded together.
fn memo_slot(key: u128) -> usize {
    let folded = key as u64 ^ (key >> 64) as u64;
    (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// Row-major `i32` weight codes as `i8` (`layer` names the layer in the
/// error).
fn i8_codes(weights: &[i32], layer: usize) -> Result<Vec<i8>, QnnError> {
    weights
        .iter()
        .map(|&w| {
            i8::try_from(w).map_err(|_| QnnError::KernelRange {
                quantity: "weight code",
                layer,
                value: i64::from(w),
                min: i64::from(i8::MIN),
                max: i64::from(i8::MAX),
            })
        })
        .collect()
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

/// `block`'s thresholds, row-major per neuron, clamped into
/// `[lo, hi + 1]`.
///
/// Each neuron's thresholds first take their running maximum: counting
/// `acc >= T_k` over all `k` then equals the reference's early-exit
/// count (the number of leading thresholds passed), ascending or not.
/// Clamping changes no comparison for an accumulator in `[lo, hi]`.
fn clamped_thresholds(block: &IntBlock, lo: i64, hi: i64) -> Vec<i64> {
    let mut out = Vec::with_capacity(block.thresholds.len());
    for j in 0..block.out_dim {
        let mut running = i64::MIN;
        for &t in block.threshold_row(j) {
            running = running.max(t);
            out.push(running.clamp(lo, hi + 1));
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
