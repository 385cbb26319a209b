//! Property tests of the N-detector folding-budget allocator: a plan
//! either fits the device in *every* resource class or fails with a
//! typed error naming the offending model — it never returns an
//! overflowing plan — and scheduling policies never change
//! classification.

use canids_core::deploy::{DeploymentPlan, PlanConfig};
use canids_core::prelude::*;
use canids_dataflow::resources::estimate_resources;
use proptest::prelude::*;

fn arb_device() -> impl Strategy<Value = Device> {
    prop_oneof![
        Just(Device::ZCU104),
        Just(Device::PYNQ_Z2),
        Just(Device::ULTRA96),
        // A deliberately tight toy device that forces deep folding or
        // overflow.
        Just(Device {
            name: "toy-8k",
            luts: 8_000,
            ffs: 16_000,
            bram36: 12,
            dsps: 16,
        }),
    ]
}

fn arb_kind() -> impl Strategy<Value = AttackKind> {
    prop_oneof![
        Just(AttackKind::Dos),
        Just(AttackKind::Fuzzy),
        Just(AttackKind::GearSpoof),
        Just(AttackKind::RpmSpoof),
    ]
}

fn arb_hidden() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![16]),
        Just(vec![32, 16]),
        Just(vec![64, 32]),
        Just(vec![64, 32, 16]),
    ]
}

fn component(r: ResourceEstimate, class: &str) -> u64 {
    match class {
        "LUT" => r.lut,
        "FF" => r.ff,
        "BRAM36" => r.bram36,
        "DSP" => r.dsp,
        _ => panic!("unknown class {class}"),
    }
}

fn capacity(d: Device, class: &str) -> u64 {
    match class {
        "LUT" => d.luts,
        "FF" => d.ffs,
        "BRAM36" => d.bram36,
        "DSP" => d.dsps,
        _ => panic!("unknown class {class}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn planned_totals_never_exceed_the_device(
        seed in 0u64..500,
        n in 1usize..10,
        hidden in arb_hidden(),
        kind in arb_kind(),
        device in arb_device(),
    ) {
        let bundles: Vec<DetectorBundle> = (0..n)
            .map(|i| {
                let mlp = QuantMlp::new(MlpConfig {
                    seed: seed + i as u64,
                    hidden: hidden.clone(),
                    ..MlpConfig::default()
                })
                .unwrap();
                DetectorBundle::new(kind, mlp.export().unwrap())
            })
            .collect();
        let config = PlanConfig {
            device,
            ..PlanConfig::default()
        };
        match DeploymentPlan::build(&bundles, &config) {
            Ok(plan) => {
                // The invariant under test: the summed estimate fits in
                // every class.
                prop_assert!(
                    device.first_overflow(plan.total_resources).is_none(),
                    "allocator returned an overflowing plan on {}: {}",
                    device.name,
                    plan.total_resources
                );
                // Internal consistency: the total is the sum of the
                // per-model budgets, and utilization/headroom derive
                // from it.
                let summed = plan
                    .models
                    .iter()
                    .fold(ResourceEstimate::default(), |acc, m| acc + m.resources);
                prop_assert_eq!(summed, plan.total_resources);
                prop_assert!(plan.utilization <= 1.0 + 1e-9);
                prop_assert_eq!(plan.models.len(), n);
            }
            Err(CoreError::PlanOverflow {
                detector,
                resource,
                required,
                capacity: cap,
                ..
            }) => {
                // The typed error names a real model and a genuinely
                // overflowing class even at the deepest folding.
                prop_assert!(detector < n);
                prop_assert!(required > cap);
                prop_assert_eq!(cap, capacity(device, resource));
                // Re-planning fully sequential confirms the overflow is
                // intrinsic: the sequential estimate of every model
                // summed still exceeds the class.
                let mut sequential_total = ResourceEstimate::default();
                for b in &bundles {
                    let graph = DataflowGraph::from_integer_mlp(&b.model).unwrap();
                    let folding = auto_fold(&graph, FoldingGoal::MinResource).unwrap();
                    sequential_total += estimate_resources(&graph, &folding);
                }
                prop_assert!(
                    component(sequential_total, resource) > cap,
                    "allocator gave up although sequential folding fits: {} {} <= {}",
                    resource,
                    component(sequential_total, resource),
                    cap
                );
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    #[test]
    fn policies_share_one_classification(
        seed in 0u64..200,
        batch in 2usize..24,
    ) {
        let bundles = vec![
            DetectorBundle::new(
                AttackKind::Dos,
                QuantMlp::new(MlpConfig { seed, ..MlpConfig::default() })
                    .unwrap()
                    .export()
                    .unwrap(),
            ),
            DetectorBundle::new(
                AttackKind::Fuzzy,
                QuantMlp::new(MlpConfig { seed: seed + 1, ..MlpConfig::default() })
                    .unwrap()
                    .export()
                    .unwrap(),
            ),
        ];
        let plan = DeploymentPlan::build(&bundles, &PlanConfig::default()).unwrap();
        let deployment = plan.deploy(&bundles, &CompileConfig::default()).unwrap();

        // Gear spoofing at 1 ms keeps the offered rate below even the
        // sequential service rate, so the comparison is drop-free.
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(120),
            attack: Some(AttackProfile::gear_spoof().with_schedule(BurstSchedule::Continuous)),
            seed,
            ..TrafficConfig::default()
        })
        .build();
        // Original capture pacing (not saturated), so no policy drops
        // frames and the verdict sequences are directly comparable.
        let frames: Vec<(SimTime, CanFrame)> =
            capture.iter().map(|r| (r.timestamp, r.frame)).collect();
        let encoder = IdBitsPayloadBits;
        let featurize = |f: &CanFrame| encoder.encode(f);

        let mut baseline: Option<Vec<bool>> = None;
        for policy in [
            SchedPolicy::Sequential,
            SchedPolicy::RoundRobin,
            SchedPolicy::DmaBatch { batch },
            SchedPolicy::InterruptPerFrame,
        ] {
            let mut ecu = deployment
                .fresh_ecu(EcuConfig { policy, ..EcuConfig::default() })
                .unwrap();
            let report = ecu.process_capture(&frames, &featurize).unwrap();
            prop_assert_eq!(report.dropped, 0, "{} dropped frames", policy.label());
            let flags: Vec<bool> = report.detections.iter().map(|d| d.flagged).collect();
            match &baseline {
                None => baseline = Some(flags),
                Some(b) => prop_assert_eq!(
                    &flags, b,
                    "policy {} changed classification",
                    policy.label()
                ),
            }
        }
    }
}
