//! Streaming line-rate evaluation: train a DoS detector, then serve it
//! frame-at-a-time against saturated 1 Mb/s classic-CAN and CAN-FD-class
//! replays, reporting the modelled service capacity (frames/s at
//! `SOFTWARE_FRAME_COST` per frame), p50/p99 verdict latency and FIFO
//! drops, all on the sim clock.
//!
//! ```sh
//! cargo run --release -p canids-core --example streaming_line_rate
//! ```
//!
//! Pass `--trace-out trace.json` to additionally replay the saturated
//! 1 Mb/s DoS capture with telemetry enabled and dump the per-stage
//! span stream as Chrome-trace JSON (open in `chrome://tracing` or
//! Perfetto). Without the flag no probe is attached and the replay is
//! the plain, telemetry-free path.

use canids_core::prelude::*;

fn main() -> Result<(), CoreError> {
    println!("canids streaming line-rate harness\n");

    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let capture = pipeline.generate_capture();
    let detector = pipeline.train(&capture)?;
    println!(
        "detector trained: test-set F1 {:.2}% over {} held-out frames\n",
        detector.test_cm.f1() * 100.0,
        detector.test_set.len()
    );

    // One replay per scenario through the unified harness.
    let duration = canids_can::time::SimTime::from_millis(400);
    let attack = Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous));
    let traffic = |attack, seed| TrafficConfig {
        duration,
        attack,
        seed,
        ..TrafficConfig::default()
    };
    let scenarios = [
        ("normal @ 1 Mb/s", None, 0x11E, Pacing::Saturated),
        ("DoS flood @ 1 Mb/s", attack, 0x11E, Pacing::Saturated),
        (
            "DoS flood @ FD-class 5 Mb/s",
            attack,
            0x5FD,
            Pacing::FdClass,
        ),
    ];
    let model = detector.int_mlp.clone();
    let mut harness = ServeHarness::new(SoftwareBackend::single(model.clone()));
    let mut table = Table::new(
        "streaming line-rate replay (frame-at-a-time serving)",
        &ServeReport::table_header(),
    );
    let mut reports = Vec::new();
    for (name, attack, seed, pacing) in scenarios {
        let capture = DatasetBuilder::new(traffic(attack, seed)).build();
        let mut report = harness.replay(&capture, &ReplayConfig::default().with_pacing(pacing))?;
        report.scenario = name.to_owned();
        table.push_row(&report.table_row());
        reports.push(report);
    }
    println!("{table}");

    let classic = &reports[1];
    println!(
        "1 Mb/s DoS replay: {} frames, accuracy {:.2}%, modelled capacity {:.0} fps vs offered {:.0} fps",
        classic.serviced,
        classic.cm.accuracy() * 100.0,
        classic.sustained_fps.unwrap_or(0.0),
        classic.offered_fps,
    );

    // Optional observability dump: one more saturated 1 Mb/s replay with
    // a telemetry probe attached, exported as Chrome-trace JSON.
    if let Some(path) = parse_trace_out(std::env::args()) {
        let dos_capture = DatasetBuilder::new(traffic(attack, 0x11E)).build();
        let traced = ReplayConfig::default()
            .with_batch(32)
            .with_telemetry(TelemetryConfig::default());
        let r = ServeHarness::new(SoftwareBackend::single(model)).replay(&dos_capture, &traced)?;
        let telemetry = r.telemetry.expect("telemetry was enabled");
        std::fs::write(&path, telemetry.to_chrome_trace()).expect("write Chrome trace");
        println!(
            "\nwrote Chrome trace ({} spans over {} serviced frames) to {path}",
            telemetry.spans.len(),
            r.serviced,
        );
    }
    Ok(())
}

/// Parses an optional `--trace-out PATH` argument (`--trace-out=PATH`
/// also works); absent means no trace is written.
fn parse_trace_out(mut args: std::env::Args) -> Option<String> {
    while let Some(arg) = args.next() {
        if arg == "--trace-out" {
            if let Some(path) = args.next() {
                return Some(path);
            }
        } else if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(path.to_owned());
        }
    }
    None
}
