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
fn power_monitor_integrates_ecu_profile() {
    // Sample a synthetic busy/idle profile and check the integral.
    let mut monitor = PowerMonitor::new();
    let busy = 2.09f64;
    let idle = 1.76f64;
    for i in 0..=10u64 {
        let w = if i % 2 == 0 { busy } else { idle };
        monitor.sample(SimTime::from_millis(i * 10), w);
    }
    let e = monitor.energy_j();
    let span = 0.1f64;
    assert!(e > idle * span && e < busy * span, "energy {e}");
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
        ..BoardConfig::default()
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
