//! Figure 1, as a runnable simulation: a vehicle network with several
//! transmitting ECUs, a malicious node flooding the bus, and an
//! IDS-capable ECU scanning all messages for possible attacks.
//!
//! ```sh
//! cargo run --release -p canids-core --example vehicle_network
//! ```

use canids_can::node::CanController;
use canids_core::prelude::*;

fn main() -> Result<(), CoreError> {
    // Train a quick DoS detector first (the IDS ECU's model).
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let capture = pipeline.generate_capture();
    let detector = pipeline.train(&capture)?;
    let ip = pipeline.compile(&detector.int_mlp)?;

    // Build the high-speed CAN segment of Fig. 1.
    let mut bus = Bus::new(BusConfig {
        bitrate: Bitrate::HIGH_SPEED_500K,
        ..BusConfig::default()
    });
    let vehicle_sources = VehicleModel::sonata().into_sources(4, 99);
    let mut names = vec![];
    for (i, src) in vehicle_sources.into_iter().enumerate() {
        let node = bus.add_node(CanController::default());
        bus.attach_source(node, Box::new(src.with_horizon(SimTime::from_secs(2))));
        names.push((node, format!("ecu{i}")));
    }
    let attacker = bus.add_node(CanController::default());
    bus.attach_source(
        attacker,
        Box::new(
            AttackProfile::dos()
                .with_schedule(BurstSchedule::Periodic {
                    initial_delay: SimTime::from_millis(500),
                    on: SimTime::from_millis(500),
                    off: SimTime::from_millis(500),
                })
                .into_source(7, SimTime::from_secs(2)),
        ),
    );
    names.push((attacker, "malicious-node".to_owned()));
    let ids_node = bus.add_node(CanController::default());
    names.push((ids_node, "ids-ecu".to_owned()));

    bus.run_until(SimTime::from_secs(2));
    let events = bus.take_events();
    println!(
        "bus: {} frames in 2 s, utilization {:.1}%",
        events.len(),
        bus.stats().utilization(bus.now()) * 100.0
    );
    for (node, name) in &names {
        let s = bus.controller(*node).stats();
        println!(
            "  {name:<15} tx {:>6}  rx {:>6}  arb-losses {:>5}",
            s.tx_frames, s.rx_frames, s.arbitration_losses
        );
    }

    // The IDS ECU replays everything it observed through the accelerator.
    let mut ecu = IdsEcu::with_ips([ip], EcuConfig::default())?;
    let frames: Vec<(SimTime, CanFrame)> = events.iter().map(|e| (e.time, e.frame)).collect();
    let encoder = IdBitsPayloadBits;
    let report = ecu.process_capture(&frames, &|f: &CanFrame| encoder.encode(f))?;

    let flagged = report.detections.iter().filter(|d| d.flagged).count();
    let dos_sent = events.iter().filter(|e| e.sender == attacker).count();
    println!(
        "\nids-ecu scanned {} frames: flagged {flagged} (attacker sent {dos_sent})",
        report.detections.len()
    );
    println!(
        "detection latency {:.3} ms mean / {:.3} ms max, {} dropped",
        report.mean_latency.as_millis_f64(),
        report.max_latency.as_millis_f64(),
        report.dropped
    );
    Ok(())
}
