//! Accounting invariants across driver, ECU, power and energy paths.

use canids_core::prelude::*;
use canids_dataflow::ip::AcceleratorIp;

fn quick_ip() -> AcceleratorIp {
    let mlp = QuantMlp::new(MlpConfig::paper_4bit()).unwrap();
    AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap()
}

#[test]
fn driver_breakdown_sums_to_latency() {
    let mut board = Zcu104Board::new(BoardConfig::default());
    let idx = board.attach_accelerator(quick_ip()).unwrap();
    for seed in 0..8u64 {
        let bits: Vec<f32> = (0..75)
            .map(|i| f32::from((seed.wrapping_mul(i as u64 + 3) >> 2) & 1 == 1))
            .collect();
        let rec = board.infer(idx, &bits).unwrap();
        assert_eq!(rec.latency(), rec.breakdown.total());
        assert!(rec.breakdown.dispatch >= SimTime::from_micros(90));
        assert!(rec.breakdown.compute_wait >= SimTime::ZERO);
    }
}

#[test]
fn energy_equals_power_times_latency() {
    let mut ecu = IdsEcu::with_ips([quick_ip()], EcuConfig::default()).unwrap();
    let frames: Vec<(SimTime, CanFrame)> = (0..100u8)
        .map(|i| {
            (
                SimTime::from_micros(130 * u64::from(i)),
                CanFrame::new(CanId::standard(0x2C0).unwrap(), &[i; 8]).unwrap(),
            )
        })
        .collect();
    let report = ecu
        .process_capture(&frames, &|_f: &CanFrame| vec![0.0; 75])
        .unwrap();
    let derived = report.mean_power_w * report.mean_latency.as_secs_f64();
    assert!(
        (derived - report.energy_per_message_j).abs() < 1e-12,
        "energy accounting must be power x latency"
    );
}

#[test]
fn baremetal_ablation_shows_software_dominance() {
    // Swap the Linux cost model for bare-metal: the per-message latency
    // collapses, proving the 0.12 ms is software-bound (the paper's
    // AUTOSAR-integration discussion).
    let mut linux_board = Zcu104Board::new(BoardConfig::default());
    let li = linux_board.attach_accelerator(quick_ip()).unwrap();
    let linux_rec = linux_board.infer(li, &[0.0; 75]).unwrap();

    let mut bm_board = Zcu104Board::new(BoardConfig {
        cpu: CpuModel::zynqmp_a53_baremetal(),
    });
    let bi = bm_board.attach_accelerator(quick_ip()).unwrap();
    let bm_rec = bm_board.infer(bi, &[0.0; 75]).unwrap();

    assert!(
        bm_rec.latency().as_nanos() * 5 < linux_rec.latency().as_nanos(),
        "bare-metal {} vs linux {}",
        bm_rec.latency(),
        linux_rec.latency()
    );
}

#[test]
fn queue_latency_grows_monotonically_under_burst() {
    let mut ecu = IdsEcu::with_ips([quick_ip()], EcuConfig::default()).unwrap();
    // A burst of simultaneous arrivals: each later frame waits longer.
    let frames: Vec<(SimTime, CanFrame)> = (0..10u8)
        .map(|i| {
            (
                SimTime::ZERO,
                CanFrame::new(CanId::standard(0x100).unwrap(), &[i]).unwrap(),
            )
        })
        .collect();
    let report = ecu
        .process_capture(&frames, &|_f: &CanFrame| vec![0.0; 75])
        .unwrap();
    for w in report.detections.windows(2) {
        assert!(w[1].latency() > w[0].latency());
    }
}

/// The capture [`board_timing_is_pinned_to_recorded_values`] serves: a
/// 40 µs run that queues, a six-frame burst that overflows a six-deep
/// FIFO, then a paced tail, with payloads that vary per frame.
fn pinned_capture() -> Vec<(SimTime, CanFrame)> {
    let times = (0..8u64)
        .map(|i| 40 * i)
        .chain([2_000; 6])
        .chain((0..10u64).map(|i| 4_000 + 350 * i));
    times
        .enumerate()
        .map(|(i, us)| {
            let byte = (i as u8).wrapping_mul(37) ^ 0x5A;
            let payload = [byte, byte.rotate_left(3), !byte, byte ^ 0x0F];
            let frame = CanFrame::new(CanId::standard(0x1A0).unwrap(), &payload).unwrap();
            (SimTime::from_micros(us), frame)
        })
        .collect()
}

fn pinned_features(frame: &CanFrame) -> Vec<f32> {
    (0..75)
        .map(|i| f32::from((frame.data_padded()[i % 8] >> (i % 7)) & 1))
        .collect()
}

/// One policy's report figures as recorded: every verdict's completion
/// (ns), drops, mean and max latency (ns), the bits of throughput, busy
/// fraction, mean power and energy per message, and the board clock
/// after the capture (ns).
struct Pinned {
    policy: SchedPolicy,
    completed_ns: &'static [u64],
    dropped: u64,
    mean_ns: u64,
    max_ns: u64,
    bits: [u64; 4],
    board_now_ns: u64,
}

const PINNED: [Pinned; 4] = [
    Pinned {
        policy: SchedPolicy::Sequential,
        completed_ns: &[
            317_760, 620_520, 923_280, 1_226_040, 1_528_800, 1_831_560, 2_317_760, 2_620_520,
            2_923_280, 3_226_040, 3_528_800, 3_831_560, 4_317_760, 4_667_760, 5_017_760, 5_367_760,
            5_717_760, 6_067_760, 6_417_760, 6_767_760, 7_117_760, 7_467_760,
        ],
        dropped: 2,
        mean_ns: 703_341,
        max_ns: 1_831_560,
        bits: [
            0x40a7_03fe_901d_b4ce,
            0x3fed_f4b2_12b8_5208,
            0x4000_95c8_ea69_8892,
            0x3f57_e3ce_f006_95b2,
        ],
        board_now_ns: 7_467_760,
    },
    Pinned {
        policy: SchedPolicy::RoundRobin,
        completed_ns: &[
            126_012, 237_024, 348_036, 459_048, 570_060, 681_072, 792_084, 903_096, 2_126_012,
            2_237_024, 2_348_036, 2_459_048, 2_570_060, 2_681_072, 4_126_012, 4_476_012, 4_826_012,
            5_176_012, 5_526_012, 5_876_012, 6_226_012, 6_576_012, 6_926_012, 7_276_012,
        ],
        dropped: 0,
        mean_ns: 278_241,
        max_ns: 681_072,
        bits: [
            0x40a9_c505_3c95_e287,
            0x3fda_9a0a_4def_ce57,
            0x3ffe_6c10_2dec_eb08,
            0x3f41_55ee_559b_53e2,
        ],
        board_now_ns: 7_265_920,
    },
    Pinned {
        policy: SchedPolicy::DmaBatch { batch: 4 },
        completed_ns: &[
            283_473, 283_473, 283_473, 283_473, 2_163_473, 2_163_473, 2_163_473, 2_163_473,
            4_513_473, 4_513_473, 4_513_473, 4_513_473, 5_913_473, 5_913_473, 5_913_473, 5_913_473,
            7_313_473, 7_313_473, 7_313_473, 7_313_473,
        ],
        dropped: 4,
        mean_ns: 819_973,
        max_ns: 2_513_473,
        bits: [
            0x40a5_5d5b_936c_e420,
            0x3fc2_3e50_6b14_c2d9,
            0x3ffc_fae2_a583_453e,
            0x3f58_5548_d684_b41c,
        ],
        board_now_ns: 7_313_473,
    },
    Pinned {
        policy: SchedPolicy::InterruptPerFrame,
        completed_ns: &[
            135_709, 256_418, 377_127, 497_836, 618_545, 739_254, 859_963, 980_672, 2_135_709,
            2_256_418, 2_377_127, 2_497_836, 2_618_545, 2_739_254, 4_135_709, 4_485_709, 4_835_709,
            5_185_709, 5_535_709, 5_885_709, 6_235_709, 6_585_709, 6_935_709, 7_285_709,
        ],
        dropped: 0,
        mean_ns: 305_312,
        max_ns: 739_254,
        bits: [
            0x40a9_bc3d_757a_5acf,
            0x3fdc_9c54_f11c_c8da,
            0x3ffe_967e_0458_f2e6,
            0x3f43_203d_ff61_8a62,
        ],
        board_now_ns: 7_274_735,
    },
];

#[test]
fn board_timing_is_pinned_to_recorded_values() {
    // Three seeded paper-topology models serve one fixed capture under
    // every policy; each figure must equal the value recorded before the
    // driver's poll and interrupt paths, and the ECU's per-frame loops,
    // were merged.
    let ips: Vec<AcceleratorIp> = (0..3u64)
        .map(|i| {
            let mlp = QuantMlp::new(MlpConfig {
                seed: 70 + i,
                ..MlpConfig::paper_4bit()
            })
            .unwrap();
            AcceleratorIp::compile(&mlp.export().unwrap(), CompileConfig::default()).unwrap()
        })
        .collect();
    let capture = pinned_capture();
    for want in &PINNED {
        let config = EcuConfig {
            queue_depth: 6,
            policy: want.policy,
        };
        let mut ecu = IdsEcu::with_ips(ips.iter().cloned(), config).unwrap();
        let r = ecu.process_capture(&capture, &pinned_features).unwrap();
        let label = want.policy.label();
        let completed: Vec<u64> = r
            .detections
            .iter()
            .map(|d| d.completed_at.as_nanos())
            .collect();
        assert_eq!(completed, want.completed_ns, "{label}");
        assert_eq!(r.dropped, want.dropped, "{label}");
        assert_eq!(r.mean_latency.as_nanos(), want.mean_ns, "{label}");
        assert_eq!(r.max_latency.as_nanos(), want.max_ns, "{label}");
        let bits = [
            r.throughput_fps,
            r.busy_fraction,
            r.mean_power_w,
            r.energy_per_message_j,
        ]
        .map(f64::to_bits);
        assert_eq!(bits, want.bits, "{label}");
        assert_eq!(ecu.board().now().as_nanos(), want.board_now_ns, "{label}");
    }

    // One polled and one interrupt-driven driver call, back to back.
    let mut board = Zcu104Board::new(BoardConfig::default());
    let idx = board.attach_accelerator(ips[0].clone()).unwrap();
    board.set_now(SimTime::from_micros(5));
    let words = pack_features(&pinned_features(&capture[3].1));
    let poll = board.infer_packed(idx, &words, Completion::Poll).unwrap();
    let irq = board
        .infer_packed(idx, &words, Completion::Interrupt)
        .unwrap();
    let record = |rec: &InferenceRecord| {
        let b = rec.breakdown;
        [
            rec.started_at,
            rec.completed_at,
            b.dispatch,
            b.mmio,
            b.compute_wait,
        ]
        .map(SimTime::as_nanos)
    };
    assert_eq!(record(&poll), [5_000, 105_920, 98_000, 620, 2_300]);
    assert_eq!(record(&irq), [105_920, 215_655, 98_000, 620, 11_115]);
    assert_eq!(irq.class, poll.class);
}
