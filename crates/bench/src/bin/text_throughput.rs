//! Regenerates the in-text throughput result: "our QMLP coupled ECU can
//! process over 8300 messages per second at highest payload capacity,
//! achieving near-line-rate detection on high-speed critical CAN".
//!
//! ```sh
//! cargo run --release -p canids-bench --bin text_throughput
//! ```

use canids_bench::harness_dos;
use canids_core::prelude::*;

fn main() -> Result<(), CoreError> {
    // 1. Line rate from the wire format.
    let mut table = Table::new(
        "E3 — line rate and ECU service rate",
        &["Quantity", "Value", "Paper"],
    );
    let line_1m = max_frame_rate(Bitrate::HIGH_SPEED_1M, 8).unwrap();
    let line_500k = max_frame_rate(Bitrate::HIGH_SPEED_500K, 8).unwrap();
    table.push_row(&[
        "1 Mb/s line rate, 8-byte frames".to_owned(),
        format!("{line_1m:.0} frames/s"),
        ">8300 msg/s".to_owned(),
    ]);
    table.push_row(&[
        "500 kb/s line rate, 8-byte frames".to_owned(),
        format!("{line_500k:.0} frames/s"),
        "-".to_owned(),
    ]);

    // 2. ECU service rate from the pipeline.
    eprintln!("[throughput] running pipeline ...");
    let report = IdsPipeline::new(harness_dos()).run()?;
    let service = 1.0 / report.ecu.mean_latency.as_secs_f64();
    table.push_row(&[
        "ECU IDS service rate".to_owned(),
        format!("{service:.0} frames/s"),
        "near line rate".to_owned(),
    ]);

    // 3. Accelerator peak (hardware alone).
    table.push_row(&[
        "accelerator peak (streaming)".to_owned(),
        format!("{:.0} frames/s", report.ip.peak_throughput_fps()),
        "-".to_owned(),
    ]);
    println!("{table}");

    let near_line_rate = service >= line_1m * 0.98;
    println!(
        "service {:.0}/s vs 1 Mb/s line rate {:.0}/s -> near-line-rate: {}",
        service, line_1m, near_line_rate
    );

    // 4. Streaming serving mode: replay saturated captures frame-at-a-
    // time through the trained detector at true bus pacing, with the
    // software service time modelled on the sim clock.
    eprintln!("[throughput] streaming line-rate replay ...");
    let dos = Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous));
    let fd_class = Bitrate::new(5_000_000);
    let scenarios = [
        ("normal @ 1 Mb/s", None, 0x11E, Bitrate::HIGH_SPEED_1M),
        ("DoS flood @ 1 Mb/s", dos, 0x11E, Bitrate::HIGH_SPEED_1M),
        ("DoS flood @ FD-class 5 Mb/s", dos, 0x5FD, fd_class),
    ];
    let mut harness = ServeHarness::new(SoftwareBackend::single(report.detector.int_mlp.clone()));
    let mut stream_table = Table::new(
        "E3b — streaming line-rate serving (frame-at-a-time)",
        &ServeReport::table_header(),
    );
    for (name, attack, seed, bitrate) in scenarios {
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(500),
            attack,
            seed,
            ..TrafficConfig::default()
        })
        .build();
        let mut r = harness.replay(&capture, &ReplayConfig::default().with_bitrate(bitrate))?;
        r.scenario = name.to_owned();
        stream_table.push_row(&r.table_row());
    }
    println!("{stream_table}");
    Ok(())
}
