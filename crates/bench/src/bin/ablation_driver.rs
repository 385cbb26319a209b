//! Ablation: where does the 0.12 ms go, and what would alternative
//! integrations buy? Compares the paper's per-message PYNQ/Linux path
//! against a bare-metal driver and DMA batch mode, plus the per-message
//! breakdown.
//!
//! ```sh
//! cargo run --release -p canids-bench --bin ablation_driver
//! ```

use canids_bench::untrained_ip;
use canids_core::prelude::*;
use canids_soc::dma::run_batch;

fn main() -> Result<(), CoreError> {
    let ip = untrained_ip();
    let bits: Vec<f32> = (0..75).map(|i| f32::from(i % 3 == 0)).collect();

    // 1. Per-message breakdown under Linux.
    let mut linux = Zcu104Board::new(BoardConfig::default());
    let li = linux.attach_accelerator(ip.clone())?;
    let rec = linux.infer(li, &bits)?;
    let mut breakdown = Table::new(
        "Per-message latency breakdown (Linux/PYNQ path)",
        &["Component", "Time", "Share"],
    );
    let total = rec.latency().as_secs_f64();
    let rx = linux.cpu().rx_path();
    for (name, t) in [
        ("IRQ entry + frame copy (RX path)", rx),
        ("runtime dispatch", rec.breakdown.dispatch),
        ("MMIO register traffic", rec.breakdown.mmio),
        ("accelerator compute (wait)", rec.breakdown.compute_wait),
    ] {
        breakdown.push_row(&[
            name.to_owned(),
            format!("{t}"),
            format!(
                "{:.1}%",
                100.0 * t.as_secs_f64() / (total + rx.as_secs_f64())
            ),
        ]);
    }
    println!("{breakdown}");

    // 2. Integration alternatives.
    let mut alt = Table::new(
        "Integration ablation",
        &["Integration", "Per-message latency", "First-verdict delay"],
    );
    alt.push_row(&[
        "per-message, Linux/PYNQ (paper)".to_owned(),
        format!("{}", rec.latency() + rx),
        format!("{}", rec.latency() + rx),
    ]);

    let mut bm = Zcu104Board::new(BoardConfig {
        cpu: CpuModel::zynqmp_a53_baremetal(),
    });
    let bi = bm.attach_accelerator(ip.clone())?;
    let bm_rec = bm.infer(bi, &bits)?;
    let bm_rx = bm.cpu().rx_path();
    alt.push_row(&[
        "per-message, bare-metal (AUTOSAR-style)".to_owned(),
        format!("{}", bm_rec.latency() + bm_rx),
        format!("{}", bm_rec.latency() + bm_rx),
    ]);

    for n in [64usize, 256] {
        let batch: Vec<Vec<f32>> = (0..n).map(|_| bits.clone()).collect();
        let report = run_batch(&ip, &CpuModel::zynqmp_a53_linux(), &batch)?;
        alt.push_row(&[
            format!("DMA batch x{n}, Linux"),
            format!("{}", report.per_frame),
            format!("{}", report.total),
        ]);
    }
    println!("{alt}");
    println!(
        "the paper's per-message design trades amortised throughput for the lowest\n first-verdict delay — the quantity that matters for intrusion response"
    );
    Ok(())
}
