//! The unified serving API: one `ServeHarness` driving the same trained
//! detector set through all three serving substrates — pure software,
//! one simulated N-detector ECU, and a gateway-coupled two-board fleet —
//! under one `ReplayConfig`, with the typed per-frame verdict stream and
//! the value-driven admission capstone
//! (`AdmissionPolicy::ShedLowestMeasuredValue`).
//!
//! ```sh
//! cargo run --release -p canids-core --example serving_api
//! ```

use canids_core::prelude::*;
use canids_core::serve::FleetAction;

fn main() -> Result<(), CoreError> {
    println!("canids unified serving API\n");

    // One trained detector set shared by every backend: DoS + Fuzzy,
    // trained concurrently.
    let configs = [
        PipelineConfig::dos().quick(),
        PipelineConfig::fuzzy().quick(),
    ];
    let mut trained = Vec::new();
    for result in IdsPipeline::train_many(&configs) {
        let (kind, detector) = result?;
        println!("{:<8} {}", kind.slug(), detector.test_cm);
        trained.push((kind, detector));
    }
    let models: Vec<canids_qnn::IntegerMlp> =
        trained.iter().map(|(_, d)| d.int_mlp.clone()).collect();
    let bundles: Vec<DetectorBundle> = trained
        .iter()
        .map(|(kind, detector)| detector.bundle(*kind))
        .collect();

    // One capture, one replay configuration, three backends.
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(300),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0x5E12E,
        ..TrafficConfig::default()
    })
    .build();
    let config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });

    let mut table = Table::new(
        "one capture, one ReplayConfig, three ServeBackends",
        &ServeReport::table_header(),
    );

    // 1. Software: inference on this host, service time modelled on the
    //    sim clock (`SOFTWARE_FRAME_COST` per frame per model).
    let mut software = ServeHarness::new(SoftwareBackend::new(models));
    table.push_row(&software.replay(&capture, &config)?.table_row());

    // 2. Single ECU: the full simulated SoC path.
    let deployment = deploy_multi_ids(&bundles, CompileConfig::default())?;
    let mut ecu = ServeHarness::new(deployment.serve_backend());
    table.push_row(&ecu.replay(&capture, &config)?.table_row());

    // 3. Fleet: two boards behind gateway forwarding. The verdict sink
    // watches the live stream while the replay runs.
    let plan = FleetPlan::build(
        &bundles,
        &FleetConfig::new(vec![BoardSpec::zcu104("front"), BoardSpec::ultra96("rear")]),
    )?;
    let fleet = plan.deploy(&bundles, &CompileConfig::default())?;
    let mut confirmed = 0usize;
    let mut missed = 0usize;
    let mut fleet_harness = ServeHarness::new(fleet.serve_backend());
    let fleet_report = fleet_harness.replay_with(&capture, &config, &mut |v: &Verdict| {
        if v.truth_attack {
            if v.flagged {
                confirmed += 1;
            } else {
                missed += 1;
            }
        }
    })?;
    table.push_row(&fleet_report.table_row());
    println!("\n{table}");
    println!(
        "verdict stream (fleet): {confirmed} confirmed positives, {missed} missed attacks, \
         fused F1 {:.2}%\n",
        fleet_report.cm.f1() * 100.0
    );

    // The capstone: under a deliberate sequential overload the shard
    // must shed one model. Static priorities mislabel the DoS detector
    // as the least valuable; the measured policy reads the verdict
    // stream instead and sheds the model that is not firing.
    let solo_plan = FleetPlan::build(&bundles, &FleetConfig::new(vec![BoardSpec::zcu104("solo")]))?;
    let solo = solo_plan.deploy(&bundles, &CompileConfig::default())?;
    let overload = ReplayConfig::default()
        .with_bitrate(Bitrate::new(750_000))
        .with_policy(SchedPolicy::Sequential);
    let static_priorities = vec![1u32, 5u32]; // DoS deliberately "lowest value"
    let mut ablation = Table::new(
        "value-driven admission under overload (2 models, 1 board)",
        &[
            "Admission",
            "Drops",
            "Shed victim",
            "Confirmed positives kept",
        ],
    );
    for admission in [
        AdmissionPolicy::ShedLowestValue {
            priorities: static_priorities.clone(),
        },
        AdmissionPolicy::ShedLowestMeasuredValue {
            window: 256,
            priorities: static_priorities.clone(),
        },
    ] {
        let report = ServeHarness::new(solo.serve_backend()).replay(
            &capture,
            &overload.clone().with_admission(admission.clone()),
        )?;
        let victims: Vec<String> = report
            .events
            .iter()
            .filter(|e| e.action == FleetAction::Shed)
            .map(|e| report.per_model[e.model].name.clone())
            .collect();
        ablation.push_row(&[
            admission.label().to_owned(),
            format!("{}", report.dropped),
            if victims.is_empty() {
                "-".to_owned()
            } else {
                victims.join(", ")
            },
            format!(
                "{}",
                report
                    .per_model
                    .iter()
                    .map(|m| m.confirmed_positives)
                    .sum::<usize>()
            ),
        ]);
    }
    println!("{ablation}");
    println!(
        "the static policy sheds whatever someone labelled cheapest; the measured policy\n\
         sheds the model whose windowed confirmed-positive rate is lowest — the detector\n\
         that is actually catching the attack stays online"
    );
    Ok(())
}
