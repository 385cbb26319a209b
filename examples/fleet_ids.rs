//! Cross-ECU fleet deployment: a vehicle's worth of detectors (four
//! trained kinds, tripled to twelve) sharded across six heterogeneous
//! boards, served through the gateway model at wire pacing, and governed
//! by the fleet admission policies — today's FIFO drops versus shedding
//! the lowest-value model under sustained overload.
//!
//! ```sh
//! cargo run --release -p canids-core --example fleet_ids
//! ```

use canids_core::fleet::FleetAction;
use canids_core::prelude::*;

fn main() -> Result<(), CoreError> {
    // Train the four detector kinds concurrently, then triple each into
    // a twelve-model fleet (duplicates are independent IPs).
    let configs = [
        PipelineConfig::dos().quick(),
        PipelineConfig::fuzzy().quick(),
        PipelineConfig::gear_spoof().quick(),
        PipelineConfig::rpm_spoof().quick(),
    ];
    let mut trained = Vec::new();
    for result in IdsPipeline::train_many(&configs) {
        let (kind, detector) = result?;
        println!("{:<12} {}", kind.slug(), detector.test_cm);
        trained.push((kind, detector));
    }
    let bundles: Vec<DetectorBundle> = (0..12)
        .map(|i| {
            let (kind, detector) = &trained[i % trained.len()];
            detector.bundle(*kind)
        })
        .collect();

    // Partition across six boards of three device classes; the admission
    // cap bounds per-board service load, not just resource fit.
    let fleet_config = FleetConfig::new(vec![
        BoardSpec::zcu104("zcu-a"),
        BoardSpec::zcu104("zcu-b"),
        BoardSpec::ultra96("u96-a"),
        BoardSpec::ultra96("u96-b"),
        BoardSpec::pynq_z2("pynq-a"),
        BoardSpec::pynq_z2("pynq-b"),
    ])
    .with_model_cap(2);
    let plan = FleetPlan::build(&bundles, &fleet_config)?;
    let mut table = Table::new(
        "Fleet plan (12 detectors, 6 boards)",
        &["Board", "Device", "Models", "Peak util"],
    );
    for shard in &plan.shards {
        table.push_row(&[
            shard.spec.name.clone(),
            shard.spec.device.name.to_owned(),
            format!("{}", shard.members.len()),
            format!("{:.2}%", shard.utilization() * 100.0),
        ]);
    }
    println!("\n{table}");
    let deployment = plan.deploy(&bundles, &CompileConfig::default())?;

    // One capture, four fleet replays: the DMA-batch integration at
    // saturated 1 Mb/s (zero drops), and a per-message overload under
    // three admission policies (one drops, two shed).
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(300),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0xF1EE7,
        ..TrafficConfig::default()
    })
    .build();
    let priorities: Vec<u32> = (0..12u32).map(|i| 100 - i).collect();
    let overload = ReplayConfig::default()
        .with_bitrate(Bitrate::new(750_000))
        .with_policy(SchedPolicy::Sequential);
    let scenarios = [
        (
            "dma-batch-32 @ 1M",
            ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 }),
        ),
        ("sequential @ 750k", overload.clone()),
        (
            "sequential @ 750k, shed",
            overload
                .clone()
                .with_admission(AdmissionPolicy::ShedLowestValue {
                    priorities: priorities.clone(),
                }),
        ),
        (
            "sequential @ 750k, measured",
            overload.with_admission(AdmissionPolicy::ShedLowestMeasuredValue {
                window: 256,
                priorities,
            }),
        ),
    ];
    // One replay per scenario; each opens a fresh fleet session.
    let mut harness = ServeHarness::new(deployment.serve_backend());
    let mut reports = Vec::new();
    for (name, config) in &scenarios {
        let mut report = harness.replay(&capture, config)?;
        report.scenario = (*name).to_owned();
        reports.push(report);
    }

    let mut results = Table::new(
        "Fleet line rate (gateway-coupled, per-board SoC path)",
        &ServeReport::table_header(),
    );
    for report in &reports {
        results.push_row(&report.table_row());
    }
    println!("{results}");
    let shed = &reports[2];
    let victims: Vec<String> = shed
        .events
        .iter()
        .filter(|e| e.action == FleetAction::Shed)
        .map(|e| format!("model {} off board {}", e.model, e.board))
        .collect();
    println!(
        "under the same overload, drop-frames lost {} frames; shed-lowest-value lost {}\n\
         and degraded coverage instead ({} shed event(s): {}); the measured-value policy\n\
         shed {} model(s) by live confirmed-positive rate instead of static labels",
        reports[1].dropped,
        shed.dropped,
        shed.shed_count(),
        if victims.is_empty() {
            "none".to_owned()
        } else {
            victims.join(", ")
        },
        reports[3].shed_count(),
    );

    // Every fleet replay also reports per-gateway load on the transport.
    let mut gw_table = Table::new(
        "Gateway transport (dma-batch-32 @ 1M): per-gateway queues",
        &[
            "Gateway",
            "Forwarded",
            "Dropped",
            "Paused",
            "Peak queue",
            "Peak at (ms)",
        ],
    );
    for g in &reports[0].gateways {
        gw_table.push_row(&[
            format!("gw-{}", g.gateway),
            format!("{}", g.forwarded),
            format!("{}", g.dropped()),
            format!("{}", g.paused),
            format!("{}", g.peak_queue),
            format!("{:.3}", g.peak_at.as_millis_f64()),
        ]);
    }
    println!("{gw_table}");
    Ok(())
}
