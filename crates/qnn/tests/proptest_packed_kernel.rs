//! The packed serving kernel against the `i64` reference, value for
//! value: random binary-input models at every bit-width from 1 to 8,
//! input and layer widths up to 128, codes pinned at ±max, constant
//! neurons with the `i64::MIN`/`i64::MAX` sentinel thresholds, and tied
//! class scores.

use canids_qnn::export::{IntBlock, IntOutput, IntegerMlp};
use canids_qnn::kernel::{pack_levels, PackedMlp, PackedScratch, MAX_INPUT_BITS};
use canids_qnn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a layer's weight codes are drawn.
#[derive(Debug, Clone, Copy)]
enum Codes {
    /// Uniform in `-max..=max`.
    Uniform,
    /// Every code `±max`, random sign.
    Extreme,
    /// Every code `+max`: the accumulator reaches its upper bound.
    AllMax,
    /// Every code `-max`: the accumulator reaches its lower bound.
    AllMin,
}

fn codes(rng: &mut StdRng, n: usize, max: i32, how: Codes) -> Vec<i32> {
    (0..n)
        .map(|_| match how {
            Codes::Uniform => rng.gen_range(-max..=max),
            Codes::Extreme if rng.gen_bool(0.5) => max,
            Codes::Extreme => -max,
            Codes::AllMax => max,
            Codes::AllMin => -max,
        })
        .collect()
}

fn pick_codes(rng: &mut StdRng) -> Codes {
    match rng.gen_range(0..6u32) {
        0 => Codes::Extreme,
        1 => Codes::AllMax,
        2 => Codes::AllMin,
        _ => Codes::Uniform,
    }
}

/// One neuron's `levels` thresholds: ascending values drawn around the
/// reachable range `[lo, hi]` (its edges included), or a constant neuron
/// (`i64::MIN` for the levels it always reaches, `i64::MAX` after).
fn neuron_thresholds(rng: &mut StdRng, levels: u32, lo: i64, hi: i64) -> Vec<i64> {
    if rng.gen_bool(0.15) {
        let reached = rng.gen_range(0..=levels);
        return (0..levels)
            .map(|k| if k < reached { i64::MIN } else { i64::MAX })
            .collect();
    }
    let mut row: Vec<i64> = (0..levels)
        .map(|_| match rng.gen_range(0..8u32) {
            0 => lo,
            1 => hi,
            2 => hi + 1,
            3 => 0,
            4 => lo - rng.gen_range(1i64..=3),
            5 => hi + rng.gen_range(2i64..=4),
            _ => rng.gen_range(lo..=hi),
        })
        .collect();
    row.sort_unstable();
    row
}

fn bounds(weights: &[i32], in_dim: usize, in_levels: u32) -> (i64, i64) {
    IntBlock {
        in_dim,
        out_dim: weights.len() / in_dim.max(1),
        weights: weights.to_vec(),
        thresholds: Vec::new(),
        levels: 0,
    }
    .acc_bounds(in_levels)
}

/// A random binary-input model; `tie` makes every class row and bias
/// identical, so every score ties.
fn random_model(seed: u64, bits: u8, tie: bool) -> IntegerMlp {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = BitWidth::new(bits).expect("1..=8 is a valid width");
    let (max, levels) = (width.signed_max(), width.unsigned_max());
    let input_dim = rng.gen_range(1..=MAX_INPUT_BITS);
    let hidden = rng.gen_range(0..=2usize);
    let mut blocks = Vec::with_capacity(hidden);
    let (mut in_dim, mut in_levels) = (input_dim, 1u32);
    for _ in 0..hidden {
        let out_dim = rng.gen_range(1..=128usize);
        let how = pick_codes(&mut rng);
        let weights = codes(&mut rng, in_dim * out_dim, max, how);
        let (lo, hi) = bounds(&weights, in_dim, in_levels);
        let thresholds = (0..out_dim)
            .flat_map(|_| neuron_thresholds(&mut rng, levels, lo, hi))
            .collect();
        blocks.push(IntBlock {
            in_dim,
            out_dim,
            weights,
            thresholds,
            levels,
        });
        in_dim = out_dim;
        in_levels = levels;
    }
    let classes = rng.gen_range(1..=4usize);
    let how = pick_codes(&mut rng);
    let (weights, bias_q) = if tie {
        let row = codes(&mut rng, in_dim, max, how);
        let bias = rng.gen_range(-1i64 << 20..=1 << 20);
        (row.repeat(classes), vec![bias; classes])
    } else {
        let weights = codes(&mut rng, in_dim * classes, max, how);
        let bias_q = (0..classes)
            .map(|_| rng.gen_range(-1i64 << 24..=1 << 24))
            .collect();
        (weights, bias_q)
    };
    IntegerMlp {
        blocks,
        output: IntOutput {
            in_dim,
            out_dim: classes,
            weights,
            bias_q,
        },
        input_levels: 1,
        weight_bits: bits,
        act_bits: bits,
    }
}

/// All-zero, all-one, then random binary inputs.
fn inputs(seed: u64, dim: usize, random: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut xs = vec![vec![0; dim], vec![1; dim]];
    xs.extend((0..random).map(|_| (0..dim).map(|_| u32::from(rng.gen_bool(0.5))).collect()));
    xs
}

fn assert_kernel_matches(model: &IntegerMlp, xs: &[Vec<u32>]) {
    let kernel = PackedMlp::new(model).expect("binary, i8 codes, i32 accumulators");
    let mut scratch = PackedScratch::default();
    for x in xs {
        let want = model.infer(x);
        let bits = pack_levels(x).expect("binary input of at most 128 bits");
        let class = kernel.infer_class(bits, &mut scratch);
        assert_eq!(scratch.scores(), want.scores.as_slice(), "x={x:?}");
        assert_eq!(class, want.class, "x={x:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_scores_equal_the_reference(seed in any::<u64>(), bits in 1u8..=8) {
        let model = random_model(seed, bits, false);
        assert_kernel_matches(&model, &inputs(seed, model.input_dim(), 24));
    }

    #[test]
    fn tied_scores_resolve_to_the_lowest_class(seed in any::<u64>(), bits in 1u8..=8) {
        let model = random_model(seed, bits, true);
        let xs = inputs(seed, model.input_dim(), 8);
        assert_kernel_matches(&model, &xs);
        let kernel = PackedMlp::new(&model).expect("representable");
        for x in &xs {
            let bits = pack_levels(x).expect("binary");
            prop_assert_eq!(kernel.infer(bits).class, 0);
        }
    }
}
