//! Regenerates the in-text power/energy results: 2.09 W board power,
//! 0.25 mJ per inference, and the 9.12 J A6000 GPU reference.
//!
//! ```sh
//! cargo run --release -p canids-bench --bin text_power_energy
//! ```

use canids_baselines::platform::Platform;
use canids_bench::harness_dos;
use canids_core::prelude::*;

fn main() -> Result<(), CoreError> {
    eprintln!("[power] running pipeline ...");
    let pipeline = IdsPipeline::new(harness_dos());
    let capture = pipeline.generate_capture();
    let detector = pipeline.train(&capture)?;
    let ip = pipeline.compile(&detector.int_mlp)?;

    // The paper measures power *while performing inference*: drive the
    // ECU at 1 Mb/s line rate (back-to-back 8-byte frames, ~120 µs each)
    // so the service loop saturates, then read the rails.
    let mut ecu = IdsEcu::with_ips([ip.clone()], EcuConfig::default())?;
    let line_period = SimTime::from_micros(120);
    let frames: Vec<(SimTime, CanFrame)> = detector
        .test_set
        .iter()
        .take(3_000)
        .enumerate()
        .map(|(i, r)| (line_period.mul_u64(i as u64), r.frame))
        .collect();
    let encoder = IdBitsPayloadBits;
    let ecu_report = ecu.process_capture(&frames, &|f: &CanFrame| encoder.encode(f))?;

    let mut table = Table::new(
        "E4 — power and energy per inference",
        &["Quantity", "Measured", "Paper"],
    );
    table.push_row(&[
        "board power during inference".to_owned(),
        format!("{:.2} W", ecu_report.mean_power_w),
        "2.09 W".to_owned(),
    ]);
    table.push_row(&[
        "energy per message".to_owned(),
        format!("{:.3} mJ", ecu_report.energy_per_message_j * 1e3),
        "0.25 mJ".to_owned(),
    ]);
    let pl = ip.power(0.125);
    table.push_row(&[
        "PL (accelerator) share".to_owned(),
        format!(
            "{:.2} W ({:.0} mW dynamic)",
            pl.total_w(),
            pl.dynamic_w * 1e3
        ),
        "-".to_owned(),
    ]);

    // GPU reference: 8-bit QMLP on an A6000.
    let a6000 = Platform::rtx_a6000();
    let model8 = QuantMlp::new(MlpConfig::gpu_8bit()).unwrap();
    let gpu_energy = a6000.invocation_energy_j(model8.macs() as u64, SimTime::ZERO);
    table.push_row(&[
        "8-bit QMLP on RTX A6000".to_owned(),
        format!("{gpu_energy:.2} J"),
        "9.12 J".to_owned(),
    ]);
    println!("{table}");

    let ratio = gpu_energy / ecu_report.energy_per_message_j;
    println!("GPU/FPGA energy ratio: {ratio:.0}x (paper: 9.12 J / 0.25 mJ = ~36,000x)");
    Ok(())
}
