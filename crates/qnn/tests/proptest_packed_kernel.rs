//! The packed serving kernel against the `i64` reference, value for
//! value: random binary-input models at every bit-width from 1 to 8,
//! input and layer widths up to 128, codes pinned at ±max, constant
//! neurons with the `i64::MIN`/`i64::MAX` sentinel thresholds, and tied
//! class scores; hand-built models whose only nonzero activations sit
//! at the edges of the 64-input chunks the kernel walks, on both lane
//! widths; the lane-width proof, on random models and on hand-built
//! models at the edge of `i16`; and the class memo in front of the
//! kernel, which must return the kernel's class and scores through
//! repeats and slot collisions.

use canids_qnn::export::{IntBlock, IntOutput, IntegerMlp};
use canids_qnn::kernel::{
    pack_levels, ClassMemo, MemoCounts, PackedMlp, PackedScratch, MAX_INPUT_BITS, MEMO_SLOTS,
};
use canids_qnn::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The lane width the model's bounds call for: 16 when every hidden
/// `lo` and `hi + 1`, every output `lo` and `hi` and every activation
/// level fit `i16`, 32 otherwise.
fn predicted_acc_bits(model: &IntegerMlp) -> u32 {
    let fits = |lo: i64, top: i64| lo >= i64::from(i16::MIN) && top <= i64::from(i16::MAX);
    let mut in_levels = model.input_levels;
    let mut narrow = true;
    for block in &model.blocks {
        let (lo, hi) = block.acc_bounds(in_levels);
        narrow &= fits(lo, hi + 1) && fits(0, i64::from(block.levels));
        in_levels = block.levels;
    }
    let out = &model.output;
    let (lo, hi) = bounds(&out.weights, out.in_dim, in_levels);
    if fits(lo, hi) && narrow {
        16
    } else {
        32
    }
}

fn assert_kernel_matches(model: &IntegerMlp, xs: &[Vec<u32>]) {
    let kernel = PackedMlp::new(model).expect("binary, i8 codes, i32 accumulators");
    assert_eq!(kernel.acc_bits(), predicted_acc_bits(model));
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

/// Bits `input_dim..128`: the inputs a model of that width ignores.
fn above(input_dim: usize) -> u128 {
    u128::MAX.checked_shl(input_dim as u32).unwrap_or(0)
}

/// A uniformly random frame bitmask.
fn random_frame(rng: &mut StdRng) -> u128 {
    (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Frames drawn from a pool of `3 * MEMO_SLOTS / 2` bitmasks: more
    // than the memo has slots, so frames repeat and some share a slot.
    // Through one memo every frame returns the kernel's class and
    // leaves the kernel's scores, hit or miss.
    #[test]
    fn memo_returns_the_kernels_class_and_scores(seed in any::<u64>(), bits in 1u8..=8) {
        let model = random_model(seed, bits, false);
        let kernel = PackedMlp::new(&model).expect("representable");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4E30);
        let pool: Vec<u128> = (0..3 * MEMO_SLOTS / 2).map(|_| random_frame(&mut rng)).collect();
        let (mut memo, mut scratch) = (ClassMemo::default(), PackedScratch::default());
        let frames = 8 * MEMO_SLOTS;
        for _ in 0..frames {
            let frame = pool[rng.gen_range(0..pool.len())];
            let want = kernel.infer(frame);
            prop_assert_eq!(memo.classify(&kernel, frame, &mut scratch), want.class);
            prop_assert_eq!(scratch.scores(), want.scores.as_slice());
        }
        let counts = memo.counts();
        prop_assert_eq!(counts.runs + counts.hits, frames as u64);
        prop_assert!(counts.hits > 0, "a pool smaller than the stream repeats");
    }

    // Bits at or above the input width select no weight, so two frames
    // that differ only there are one entry (a 128-wide model has no such
    // bits, and both lookups see one frame).
    #[test]
    fn frames_differing_above_the_input_width_share_an_entry(seed in any::<u64>(), bits in 1u8..=8) {
        let model = random_model(seed, bits, false);
        let kernel = PackedMlp::new(&model).expect("representable");
        let high = above(model.input_dim());
        let frame = random_frame(&mut StdRng::seed_from_u64(seed));
        let (mut memo, mut scratch) = (ClassMemo::default(), PackedScratch::default());
        let class = memo.classify(&kernel, frame & !high, &mut scratch);
        let scores = scratch.scores().to_vec();
        prop_assert_eq!(memo.classify(&kernel, frame | high, &mut scratch), class);
        prop_assert_eq!(scratch.scores(), scores.as_slice());
        prop_assert_eq!(memo.counts(), MemoCounts { runs: 1, hits: 1 });
    }
}

/// The DoS flood frame (ID 0x000, zero payload) encodes to the all-zero
/// bitmask. A memo that has not seen that frame runs the kernel on it,
/// fresh or holding other frames, rather than reading an unfilled
/// slot's zero key and class 0.
#[test]
fn a_memo_runs_the_kernel_on_an_all_zero_frame_it_has_not_seen() {
    // No hidden layer: on the zero frame the scores are the biases, so
    // the class is 1.
    let model = IntegerMlp {
        blocks: Vec::new(),
        output: IntOutput {
            in_dim: 75,
            out_dim: 2,
            weights: vec![1; 150],
            bias_q: vec![0, 5],
        },
        input_levels: 1,
        weight_bits: 2,
        act_bits: 2,
    };
    let want = model.infer(&[0; 75]);
    assert_eq!(want.class, 1);
    let kernel = PackedMlp::new(&model).expect("representable");
    let fresh = ClassMemo::default();
    let mut holding = ClassMemo::default();
    let mut scratch = PackedScratch::default();
    for i in 0..8 {
        holding.classify(&kernel, 1 << i, &mut scratch);
    }
    for mut memo in [fresh, holding] {
        let before = memo.counts();
        assert_eq!(memo.classify(&kernel, 0, &mut scratch), 1);
        assert_eq!(scratch.scores(), want.scores.as_slice());
        assert_eq!(memo.counts().runs, before.runs + 1, "{memo:?}");
        assert_eq!(memo.classify(&kernel, 0, &mut scratch), 1);
        assert_eq!(scratch.scores(), want.scores.as_slice());
        assert_eq!(memo.counts().hits, before.hits + 1, "{memo:?}");
    }
}

/// A two-input model whose layer under test sees every input at
/// `levels`: a driver layer of `rows[0].len()` neurons copies input bit 0
/// into activation level `levels` (bit 1 feeds nothing), and `rows` are
/// the tested layer's code rows. A hidden tested layer gets thresholds
/// at its neurons' `lo`, `hi` and `hi + 1` and a ±1 output layer after
/// it.
fn edge_model(levels: u32, rows: &[&[i32]], hidden: bool) -> IntegerMlp {
    let fan = rows[0].len();
    let driver = IntBlock {
        in_dim: 2,
        out_dim: fan,
        weights: [1, 0].repeat(fan),
        thresholds: vec![1; fan * levels as usize],
        levels,
    };
    let weights: Vec<i32> = rows.concat();
    let width = rows.len();
    let (blocks, output) = if hidden {
        let thresholds = rows
            .iter()
            .flat_map(|row| {
                let (lo, hi) = bounds(row, fan, levels);
                [lo, hi, hi + 1]
            })
            .collect();
        let tested = IntBlock {
            in_dim: fan,
            out_dim: width,
            weights,
            thresholds,
            levels: 3,
        };
        let output = IntOutput {
            in_dim: width,
            out_dim: 2,
            weights: [vec![1; width], vec![-1; width]].concat(),
            bias_q: vec![0, 1],
        };
        (vec![driver, tested], output)
    } else {
        let output = IntOutput {
            in_dim: fan,
            out_dim: width,
            weights,
            bias_q: vec![0; width],
        };
        (vec![driver], output)
    };
    IntegerMlp {
        blocks,
        output,
        input_levels: 1,
        weight_bits: 8,
        act_bits: 8,
    }
}

/// Builds [`edge_model`], checks the lane width the kernel picks and
/// the one the bounds predict, and runs every input against the
/// reference: all-zero, bit 1 alone, bit 0 alone (every tested
/// accumulator at its bound) and all-one.
fn assert_edge(name: &str, levels: u32, rows: &[&[i32]], hidden: bool, bits: u32) {
    let model = edge_model(levels, rows, hidden);
    let kernel = PackedMlp::new(&model).expect(name);
    assert_eq!(kernel.acc_bits(), bits, "{name}");
    assert_eq!(predicted_acc_bits(&model), bits, "{name}");
    for x in [[0, 0], [0, 1], [1, 0], [1, 1]] {
        let packed = pack_levels(&x).expect("binary");
        assert_eq!(kernel.infer(packed), model.infer(&x), "{name}: x={x:?}");
    }
}

#[test]
fn lane_width_is_i16_exactly_at_the_i16_edge() {
    // 2^15 - 2 = 258 * 127, 2^15 - 1 = 151 * (127 + 90),
    // 2^15 = 256 * 128 and 2^15 + 1 = 331 * 99.
    assert_edge("hidden hi + 1 = 2^15 - 1", 258, &[&[127]], true, 16);
    assert_edge("output hi = 2^15 - 1", 151, &[&[127, 90]], false, 16);
    assert_edge("output lo = -2^15", 256, &[&[-128]], false, 16);
    assert_edge("hidden lo = -2^15", 256, &[&[-128]], true, 16);
    assert_edge("hidden hi + 1 = 2^15", 151, &[&[127, 90]], true, 32);
    assert_edge("output hi = 2^15", 256, &[&[127, 1]], false, 32);
    assert_edge("output lo = -2^15 - 1", 331, &[&[-99]], false, 32);
    assert_edge("hidden lo = -2^15 - 1", 331, &[&[-99]], true, 32);
    assert_edge("2^15 activation levels", 1 << 15, &[&[-1]], false, 32);
}

#[test]
fn paper_models_take_their_predicted_lane_width() {
    for (config, bits) in [(MlpConfig::paper_4bit(), 16), (MlpConfig::gpu_8bit(), 32)] {
        let model = QuantMlp::new(config)
            .and_then(|m| m.export())
            .expect("preset exports");
        let kernel = PackedMlp::new(&model).expect("representable");
        assert_eq!(kernel.acc_bits(), bits);
        assert_kernel_matches(&model, &inputs(u64::from(bits), model.input_dim(), 64));
    }
}

/// The hidden lanes of [`chunk_edge_model`] that fire: the first and
/// last lane of each of the output layer's two 64-input chunks.
const CHUNK_EDGES: [usize; 4] = [0, 63, 64, 127];

/// Three binary inputs → 128 constant neurons at `levels` → 2 classes.
/// The neurons at [`CHUNK_EDGES`] hold levels `levels`, 1, 2 and
/// `levels` (`i64::MIN` thresholds up to it, `i64::MAX` after); every
/// other neuron holds 0. Class 0 weighs the first chunk `+max` and the
/// second `-max`, class 1 the reverse, so a walk that reads one chunk's
/// columns for the other's gets other scores.
fn chunk_edge_model(levels: u32, max: i32, bits: u8) -> IntegerMlp {
    let width = 128;
    let held = |j: usize| match CHUNK_EDGES.iter().position(|&e| e == j) {
        Some(p) => [levels, 1, 2, levels][p],
        None => 0,
    };
    let thresholds = (0..width)
        .flat_map(|j| (0..levels).map(move |k| if k < held(j) { i64::MIN } else { i64::MAX }))
        .collect();
    let first = |j: usize| if j < 64 { max } else { -max };
    IntegerMlp {
        blocks: vec![IntBlock {
            in_dim: 3,
            out_dim: width,
            weights: vec![1; 3 * width],
            thresholds,
            levels,
        }],
        output: IntOutput {
            in_dim: width,
            out_dim: 2,
            weights: (0..width)
                .map(first)
                .chain((0..width).map(|j| -first(j)))
                .collect(),
            bias_q: vec![0, 0],
        },
        input_levels: 1,
        weight_bits: bits,
        act_bits: bits,
    }
}

#[test]
fn the_walk_reads_each_chunks_own_columns() {
    for (levels, max, bits, lanes) in [(15, 7, 4, 16), (255, 127, 8, 32)] {
        let model = chunk_edge_model(levels, max, bits);
        assert_eq!(predicted_acc_bits(&model), lanes, "{bits}-bit");
        assert_kernel_matches(&model, &inputs(u64::from(bits), 3, 6));
    }
}
