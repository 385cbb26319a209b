//! N-detector deployment: DoS, Fuzzy, gear-spoof and RPM-spoof
//! detectors planned, compiled and served together on one ZCU104 — the
//! paper's "comprehensive IDS integration" claim as a first-class
//! engine, with per-model folding budgets, shared feature packing and
//! the ECU scheduling-policy ablation.
//!
//! ```sh
//! cargo run --release -p canids-core --example multi_ids
//! ```

use canids_core::deploy::{DeploymentPlan, PlanConfig};
use canids_core::prelude::*;

fn main() -> Result<(), CoreError> {
    // Train all four detectors concurrently (one scoped thread each).
    let configs = [
        PipelineConfig::dos().quick(),
        PipelineConfig::fuzzy().quick(),
        PipelineConfig::gear_spoof().quick(),
        PipelineConfig::rpm_spoof().quick(),
    ];
    let mut bundles = Vec::new();
    for trained in IdsPipeline::train_many(&configs) {
        let (kind, detector) = trained?;
        println!("{:<12} {}", kind.slug(), detector.test_cm);
        bundles.push(detector.bundle(kind));
    }

    // Plan per-model folding budgets against the ZCU104, then compile
    // and attach every IP to one board.
    let plan = DeploymentPlan::build(&bundles, &PlanConfig::default())?;
    let mut table = Table::new(
        "Folding-budget plan (ZCU104)",
        &["Model", "Peak fps", "Demotions", "Resources"],
    );
    for m in &plan.models {
        table.push_row(&[
            m.name.clone(),
            format!("{:.0}", m.peak_fps),
            format!("{}", m.demotions),
            format!("{}", m.resources),
        ]);
    }
    println!("\n{table}");
    println!(
        "total {} | peak util {:.2}% | headroom for {} more of the largest IP",
        plan.total_resources,
        plan.utilization * 100.0,
        plan.headroom
    );
    let deployment = plan.deploy(&bundles, &CompileConfig::default())?;

    // A matching multi-attacker capture: fuzzy + gear-spoof overlaid on
    // one trace (a saturating DoS flood would starve the second
    // attacker off the bus).
    let mixed = canids_dataset::generator::multi_attacker(
        SimTime::from_secs(1),
        &[
            AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous),
            AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous),
        ],
        0x31D5,
    );
    let truth = mixed.iter().filter(|r| r.label.is_attack()).count();
    println!(
        "\nmixed capture: {} frames, {truth} attack frames (fuzzy + gear-spoof overlay)",
        mixed.len()
    );

    // Replay it at saturated 1 Mb/s wire pacing under every scheduling
    // policy through the unified harness (one EcuBackend, a fresh ECU
    // per replay): classification is identical by construction; timing,
    // drops and energy are the policy trade.
    let mut policies = Table::new(
        "Scheduling-policy ablation (1 Mb/s line rate, 4 detectors)",
        &[
            "Policy",
            "Offered fps",
            "p50",
            "p99",
            "Drops",
            "Energy/msg",
            "Keeps up",
        ],
    );
    let mut harness = ServeHarness::new(deployment.serve_backend());
    for policy in [
        SchedPolicy::Sequential,
        SchedPolicy::RoundRobin,
        SchedPolicy::DmaBatch { batch: 32 },
        SchedPolicy::InterruptPerFrame,
    ] {
        let report = harness.replay(&mixed, &ReplayConfig::default().with_policy(policy))?;
        let energy = report.energy.expect("the SoC path reports energy");
        policies.push_row(&[
            policy.label(),
            format!("{:.0}", report.offered_fps),
            format!("{:.1} us", report.latency.p50.as_micros_f64()),
            format!("{:.1} us", report.latency.p99.as_micros_f64()),
            format!("{}", report.dropped),
            format!("{:.3} mJ", energy.energy_per_message_j * 1e3),
            if report.keeps_up() { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    println!("{policies}");
    println!(
        "the per-message policies pay the full driver path per frame and model;\n\
         DMA batching amortises it across the window — the first-class form of the\n\
         ablation_driver trade, now selectable per deployment"
    );
    Ok(())
}
