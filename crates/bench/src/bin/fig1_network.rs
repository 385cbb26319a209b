//! Regenerates **Figure 1** as a simulation: the CAN network with
//! IDS-capable ECUs scanning all messages, including high- and low-speed
//! segments joined by a gateway and a malicious node on the high-speed
//! side.
//!
//! ```sh
//! cargo run --release -p canids-bench --bin fig1_network
//! ```

use canids_can::node::CanController;
use canids_core::prelude::*;

fn segment(
    name: &str,
    bitrate: Bitrate,
    nodes: usize,
    attack: Option<AttackProfile>,
    seed: u64,
) -> (String, Vec<BusEvent>) {
    let mut bus = Bus::new(BusConfig {
        bitrate,
        ..BusConfig::default()
    });
    let horizon = SimTime::from_secs(2);
    for src in VehicleModel::sonata().into_sources(nodes, seed) {
        let node = bus.add_node(CanController::default());
        bus.attach_source(node, Box::new(src.with_horizon(horizon)));
    }
    if let Some(profile) = attack {
        let node = bus.add_node(CanController::default());
        bus.attach_source(node, Box::new(profile.into_source(seed ^ 0xBAD, horizon)));
    }
    let _ids = bus.add_node(CanController::default());
    bus.run_until(horizon);
    let events = bus.take_events();
    let line = format!(
        "{name:<14} {:>8} frames  {:>6.1}% utilised  {} nodes",
        events.len(),
        bus.stats().utilization(bus.now()) * 100.0,
        bus.node_count(),
    );
    (line, events)
}

fn main() -> Result<(), CoreError> {
    println!("Fig. 1 — vehicle network with IDS-capable ECUs\n");

    let dos = AttackProfile::dos().with_schedule(BurstSchedule::Periodic {
        initial_delay: SimTime::from_millis(500),
        on: SimTime::from_millis(500),
        off: SimTime::from_millis(500),
    });
    let (hs_line, hs_events) =
        segment("high-speed CAN", Bitrate::HIGH_SPEED_500K, 4, Some(dos), 41);
    let (ls_line, _) = segment("low-speed CAN", Bitrate::LOW_SPEED_125K, 3, None, 42);
    println!("{hs_line}");
    println!("{ls_line}");

    // The IDS ECU on the high-speed segment scans every message.
    eprintln!("[fig1] training the IDS ECU's DoS model ...");
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let detector = pipeline.train(&pipeline.generate_capture())?;
    let ip = pipeline.compile(&detector.int_mlp)?;
    let mut ecu = IdsEcu::with_ips([ip], EcuConfig::default())?;
    let frames: Vec<(SimTime, CanFrame)> = hs_events.iter().map(|e| (e.time, e.frame)).collect();
    let encoder = IdBitsPayloadBits;
    let report = ecu.process_capture(&frames, &|f: &CanFrame| encoder.encode(f))?;

    let flagged = report.detections.iter().filter(|d| d.flagged).count();
    let dos_frames = hs_events.iter().filter(|e| e.frame.id().raw() == 0).count();
    println!("\nIDS ECU (high-speed segment):");
    println!("  scanned  : {} frames", report.detections.len());
    println!("  flagged  : {flagged} (ground truth: {dos_frames} DoS frames)");
    println!(
        "  latency  : {:.3} ms mean, {:.3} ms max, {} dropped",
        report.mean_latency.as_millis_f64(),
        report.max_latency.as_millis_f64(),
        report.dropped
    );
    println!("  power    : {:.2} W", report.mean_power_w);
    Ok(())
}
