//! Criterion bench for the Fig. 1 / throughput substrate: frame encoding
//! against the allocation-free wire-length count that paces every
//! replay, saturated-bus simulation speed, the streaming
//! (frame-at-a-time) serving path the line-rate harness drives,
//! whole software replays through that harness: a DoS capture, whose
//! repeated flood frame the class memo answers, and a fuzzy capture,
//! whose random frames mostly miss it, and the fleet transport's
//! gateway hops for the same DoS capture.

use canids_bench::untrained_model;
use canids_can::bits::encode_frame;
use canids_can::bus::{Bus, BusConfig};
use canids_can::frame::{CanFrame, CanId};
use canids_can::node::CanController;
use canids_can::time::SimTime;
use canids_can::timing::{frame_bit_count, max_frame_rate, Bitrate};
use canids_core::net::{FleetNet, NetConfig};
use canids_core::serve::{ReplayConfig, ServeHarness, SoftwareBackend};
use canids_core::stream::StreamingEvaluator;
use canids_dataset::attacks::{AttackProfile, BurstSchedule};
use canids_dataset::generator::{DatasetBuilder, TrafficConfig};
use canids_dataset::record::LabeledFrame;
use canids_dataset::stream::paced_records;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_fig1(c: &mut Criterion) {
    let frame = CanFrame::new(CanId::standard(0x2C0).unwrap(), &[0xA5; 8]).unwrap();
    // The DoS flood frame: all dominant, so the most stuff bits.
    let dos = CanFrame::new(CanId::standard(0x000).unwrap(), &[0x00; 8]).unwrap();

    let mut group = c.benchmark_group("fig1_line_rate");
    group.bench_function("encode_frame", |b| {
        b.iter(|| encode_frame(black_box(&frame)))
    });
    group.bench_function("encode_frame_dos", |b| {
        b.iter(|| encode_frame(black_box(&dos)))
    });
    group.bench_function("frame_bit_count", |b| {
        b.iter(|| frame_bit_count(black_box(&frame)))
    });
    group.bench_function("frame_bit_count_dos", |b| {
        b.iter(|| frame_bit_count(black_box(&dos)))
    });
    group.bench_function("analytic_line_rate", |b| {
        b.iter(|| max_frame_rate(black_box(Bitrate::HIGH_SPEED_1M), 8).unwrap())
    });
    group.bench_function("saturated_bus_10ms", |b| {
        b.iter(|| {
            let mut bus = Bus::new(BusConfig {
                bitrate: Bitrate::HIGH_SPEED_1M,
                ..BusConfig::default()
            });
            let tx = bus.add_node(CanController::default());
            let frames: Vec<(SimTime, CanFrame)> =
                (0..200).map(|_| (SimTime::ZERO, frame)).collect();
            bus.attach_source(tx, Box::new(frames.into_iter()));
            bus.run_until(SimTime::from_millis(10));
            black_box(bus.stats().frames_delivered)
        })
    });

    // The per-frame cost the line-rate claim rests on: incremental
    // featurisation + integer inference + online accounting. At 1 Mb/s
    // this must stay well under the ~120 us frame slot. One evaluator
    // cycles one DoS capture, so after the first pass this mostly times
    // class-memo hits.
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(200),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0xF1A7,
        ..TrafficConfig::default()
    })
    .build();
    let mut eval = StreamingEvaluator::new(untrained_model());
    let records = capture.records();
    let mut i = 0usize;
    group.bench_function("streaming_eval_per_frame", |b| {
        b.iter(|| {
            let v = eval.push(black_box(&records[i]));
            i = (i + 1) % records.len();
            black_box(v.class)
        })
    });
    // The same capture replayed end to end through the serving harness:
    // pacing, the evaluator above, and the harness's own bookkeeping
    // (admission governor, verdict fusion ring, in-order emission).
    // Divide by the capture's frame count for a per-frame cost.
    let mut harness = ServeHarness::new(SoftwareBackend::single(untrained_model()));
    let config = ReplayConfig::default();
    group.bench_function("harness_replay_dos_200ms", |b| {
        b.iter(|| {
            let report = harness.replay(black_box(&capture), &config).unwrap();
            black_box(report.serviced)
        })
    });
    // The same replay of a continuous fuzzy capture: random IDs and
    // payloads, so nearly every frame is a new bitmask and the class
    // memo runs the kernel.
    let fuzzy = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(200),
        attack: Some(AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)),
        seed: 0xF1A7,
        ..TrafficConfig::default()
    })
    .build();
    group.bench_function("harness_replay_fuzzy_200ms", |b| {
        b.iter(|| {
            let report = harness.replay(black_box(&fuzzy), &config).unwrap();
            black_box(report.serviced)
        })
    });
    // The fleet transport's gateway hops: the DoS capture paced at 1 Mb/s
    // and delivered through `FleetNet::deliver` to each of six boards, as
    // a six-board fleet replay sends every frame. Each call counts the
    // frame's wire length and runs the hop's three steps, in place, since
    // no fault is pending. Divide by the capture's frame count times six
    // for a per-hop cost.
    let paced: Vec<LabeledFrame> = paced_records(&capture, Bitrate::HIGH_SPEED_1M).collect();
    group.bench_function("fleet_net_deliver_dos_200ms", |b| {
        b.iter(|| {
            let mut net = FleetNet::single_backbone(
                6,
                Bitrate::HIGH_SPEED_1M,
                config.gateway_delay,
                &NetConfig::default(),
            );
            for rec in black_box(&paced) {
                for board in 0..6 {
                    black_box(net.deliver(board, rec.timestamp, rec.frame));
                }
            }
            net.finish();
            black_box(net.sim().executed())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_fig1
}
criterion_main!(benches);
