//! Criterion bench for Table I's engine: per-frame inference through the
//! integer model, the packed serving kernel at both lane widths (on one
//! repeated frame, and on distinct frames as a memo miss meets them), and
//! the cycle-accurate accelerator simulator.

use canids_bench::{untrained_ip, untrained_model};
use canids_can::frame::{CanFrame, CanId};
use canids_dataset::features::{FrameEncoder, IdBitsPayloadBits};
use canids_qnn::kernel::{PackedMlp, PackedScratch};
use canids_qnn::mlp::{MlpConfig, QuantMlp};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;

/// `n` distinct `width`-bit frame bitmasks from a fixed seed, each bit
/// set with probability one half.
fn distinct_frames(n: usize, width: usize) -> Vec<u128> {
    let mut rng = StdRng::seed_from_u64(0x75);
    let mask = u128::MAX >> (128 - width);
    let mut frames = Vec::with_capacity(n);
    while frames.len() < n {
        let bits = ((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())) & mask;
        if !frames.contains(&bits) {
            frames.push(bits);
        }
    }
    frames
}

fn bench_table1(c: &mut Criterion) {
    let model = untrained_model();
    let ip = untrained_ip();
    let sim = ip.simulator();
    let encoder = IdBitsPayloadBits;
    let frame = CanFrame::new(
        CanId::standard(0x316).unwrap(),
        &[0x05, 0x21, 0x68, 0x09, 0x21, 0x21, 0x00, 0x6F],
    )
    .unwrap();
    let bits = encoder.encode(&frame);
    let x: Vec<u32> = bits.iter().map(|&b| u32::from(b >= 0.5)).collect();
    // The paper model proves onto i16 lanes, the 8-bit one onto i32.
    let narrow = PackedMlp::new(&model).unwrap();
    let wide_model = QuantMlp::new(MlpConfig::gpu_8bit())
        .unwrap()
        .export()
        .unwrap();
    let wide = PackedMlp::new(&wide_model).unwrap();
    assert_eq!((narrow.acc_bits(), wide.acc_bits()), (16, 32));
    let packed = encoder.encode_bits(&frame);
    // The all-zero DoS frame: no set input bit.
    let dos = encoder.encode_bits(&CanFrame::new(CanId::standard(0).unwrap(), &[0; 8]).unwrap());
    // A memo miss: 512 distinct frames, which the branch predictor cannot
    // learn as it learns one repeated frame. The 75 -> 48 -> 32 -> 2 model
    // cuts its 48-lane first layer into a 32- and a 16-lane block.
    let distinct = distinct_frames(512, narrow.input_dim());
    let narrow_48 = QuantMlp::new(MlpConfig {
        hidden: vec![48, 32],
        ..MlpConfig::paper_4bit()
    })
    .and_then(|m| m.export())
    .and_then(|m| PackedMlp::new(&m))
    .unwrap();
    assert_eq!(narrow_48.acc_bits(), 16);
    let mut scratch = PackedScratch::default();

    let mut group = c.benchmark_group("table1");
    group.bench_function("feature_encode", |b| {
        b.iter(|| encoder.encode(black_box(&frame)))
    });
    group.bench_function("feature_encode_bits", |b| {
        b.iter(|| encoder.encode_bits(black_box(&frame)))
    });
    group.bench_function("integer_mlp_infer", |b| {
        b.iter(|| model.infer(black_box(&x)))
    });
    group.bench_function("packed_i16_infer_class", |b| {
        b.iter(|| narrow.infer_class(black_box(packed), &mut scratch))
    });
    group.bench_function("packed_i16_infer_class_dos", |b| {
        b.iter(|| narrow.infer_class(black_box(dos), &mut scratch))
    });
    for (name, kernel) in [
        ("packed_i16_infer_class_distinct", &narrow),
        ("packed_i16_infer_class_distinct_48", &narrow_48),
    ] {
        // One pass over the distinct frames per iteration, with no memo.
        group.bench_function(name, |b| {
            b.iter(|| {
                distinct
                    .iter()
                    .map(|&bits| kernel.infer_class(black_box(bits), &mut scratch))
                    .sum::<usize>()
            })
        });
    }
    group.bench_function("packed_i32_infer_class", |b| {
        b.iter(|| wide.infer_class(black_box(packed), &mut scratch))
    });
    group.bench_function("cycle_accurate_sim_frame", |b| {
        b.iter(|| sim.run(black_box(std::slice::from_ref(&x))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_table1
}
criterion_main!(benches);
