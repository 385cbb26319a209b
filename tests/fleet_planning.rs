//! Property tests of the cross-ECU fleet partitioner: a fleet plan
//! either fits every shard on its board in *every* resource class (an
//! exact partition of the bundles, admission caps respected) or fails
//! with a typed [`CoreError::FleetOverflow`] naming a real detector and
//! a genuine shortfall — and a sharded fleet classifies bit-identically
//! to the same detectors deployed together on one sufficiently large
//! board.
use canids_core::fleet::{FleetPlan, FleetShard};
use canids_core::prelude::*;
use proptest::prelude::*;

fn arb_boards() -> impl Strategy<Value = Vec<BoardSpec>> {
    prop_oneof![
        Just(vec![
            BoardSpec::zcu104("zcu-a"),
            BoardSpec::ultra96("u96-a"),
            BoardSpec::pynq_z2("pynq-a"),
        ]),
        Just(vec![
            BoardSpec::pynq_z2("pynq-a"),
            BoardSpec::pynq_z2("pynq-b")
        ]),
        Just(vec![BoardSpec::zcu104("zcu-a")]),
        // A deliberately tight fleet that forces deep folding or
        // overflow.
        Just(vec![
            BoardSpec {
                name: "toy-a".to_owned(),
                device: Device {
                    name: "toy-8k",
                    luts: 8_000,
                    ffs: 16_000,
                    bram36: 12,
                    dsps: 16,
                },
                clock_hz: 100_000_000,
            },
            BoardSpec {
                name: "toy-b".to_owned(),
                device: Device {
                    name: "toy-8k",
                    luts: 8_000,
                    ffs: 16_000,
                    bram36: 12,
                    dsps: 16,
                },
                clock_hz: 100_000_000,
            },
        ]),
    ]
}

fn arb_hidden() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![Just(vec![16]), Just(vec![32, 16]), Just(vec![64, 32])]
}

fn arb_cap() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), Just(Some(1)), Just(Some(2)), Just(Some(4))]
}

fn bundles(seed: u64, n: usize, hidden: &[usize]) -> Vec<DetectorBundle> {
    let kinds = [
        AttackKind::Dos,
        AttackKind::Fuzzy,
        AttackKind::GearSpoof,
        AttackKind::RpmSpoof,
    ];
    (0..n)
        .map(|i| {
            let mlp = QuantMlp::new(MlpConfig {
                seed: seed + i as u64,
                hidden: hidden.to_vec(),
                ..MlpConfig::default()
            })
            .unwrap();
            DetectorBundle::new(kinds[i % 4], mlp.export().unwrap())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fleet_plans_partition_exactly_and_never_overflow_any_board(
        seed in 0u64..300,
        n in 1usize..8,
        hidden in arb_hidden(),
        boards in arb_boards(),
        cap in arb_cap(),
    ) {
        let bs = bundles(seed, n, &hidden);
        let m = boards.len();
        let mut config = FleetConfig::new(boards);
        config.max_models_per_board = cap;
        match FleetPlan::build(&bs, &config) {
            Ok(plan) => {
                // Exact partition: every bundle on exactly one board.
                let mut placed: Vec<usize> = plan
                    .shards
                    .iter()
                    .flat_map(|s| s.members.iter().copied())
                    .collect();
                placed.sort_unstable();
                prop_assert_eq!(placed, (0..n).collect::<Vec<_>>());
                prop_assert_eq!(plan.assignment.len(), n);
                for (i, &b) in plan.assignment.iter().enumerate() {
                    prop_assert!(plan.shards[b].members.contains(&i));
                }
                // Every shard fits its own device in every class, and
                // respects the admission cap.
                for shard in &plan.shards {
                    if let Some(c) = cap {
                        prop_assert!(shard.members.len() <= c);
                    }
                    match &shard.plan {
                        Some(p) => {
                            prop_assert!(
                                shard.spec.device.first_overflow(p.total_resources).is_none(),
                                "shard {} overflows: {}",
                                shard.spec.name,
                                p.total_resources
                            );
                            prop_assert_eq!(p.models.len(), shard.members.len());
                        }
                        None => prop_assert!(shard.members.is_empty()),
                    }
                }
            }
            Err(CoreError::FleetOverflow {
                detector,
                boards: tried,
                resource,
                required,
                capacity,
                ..
            }) => {
                // The typed error names a real detector, the whole
                // fleet, and a genuine shortfall.
                prop_assert!(detector < n);
                prop_assert_eq!(tried, m);
                prop_assert!(required > capacity, "{} !> {}", required, capacity);
                if resource == "SLOTS" {
                    let c = cap.expect("SLOTS overflow only with a cap");
                    prop_assert_eq!(capacity, c as u64);
                }
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
    }
}

/// A device big enough to hold any fleet this file generates on one
/// board.
fn mega_board() -> Device {
    Device {
        name: "mega",
        luts: 10_000_000,
        ffs: 20_000_000,
        bram36: 10_000,
        dsps: 50_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn sharded_fleet_classifies_bit_identically_to_one_big_board(
        seed in 0u64..100,
        n in 2usize..5,
    ) {
        let bs = bundles(seed, n, &[16]);

        // Fleet: three heterogeneous boards behind gateways.
        let fleet_plan = FleetPlan::build(
            &bs,
            &FleetConfig::new(vec![
                BoardSpec::zcu104("zcu-a"),
                BoardSpec::ultra96("u96-a"),
                BoardSpec::pynq_z2("pynq-a"),
            ]),
        )
        .unwrap();
        let fleet = fleet_plan.deploy(&bs, &CompileConfig::default()).unwrap();

        // Reference: the same bundles side by side on one huge board.
        let single_plan = DeploymentPlan::build(
            &bs,
            &PlanConfig {
                device: mega_board(),
                ..PlanConfig::default()
            },
        )
        .unwrap();
        let single = single_plan.deploy(&bs, &CompileConfig::default()).unwrap();

        // A non-saturating capture (original 500 kb/s pacing): neither
        // deployment drops, so the verdict sequences align frame for
        // frame.
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(150),
            attack: Some(AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)),
            seed: 0xBEEF + seed,
            ..TrafficConfig::default()
        })
        .build();

        let report = ServeHarness::new(fleet.serve_backend())
            .replay(
                &capture,
                &ReplayConfig::default().with_pacing(Pacing::AsRecorded),
            )
            .unwrap();
        prop_assert_eq!(report.dropped, 0, "fleet must not drop at capture pacing");
        prop_assert_eq!(report.verdicts.len(), capture.len());

        let frames: Vec<(SimTime, CanFrame)> =
            capture.iter().map(|r| (r.timestamp, r.frame)).collect();
        let encoder = IdBitsPayloadBits;
        let mut ecu = single.fresh_ecu(EcuConfig::default()).unwrap();
        let single_report = ecu
            .process_capture(&frames, &|f: &CanFrame| encoder.encode(f))
            .unwrap();
        prop_assert_eq!(single_report.dropped, 0);

        // Bit-identical fused classification: the OR over shards equals
        // the OR over all models on one board, frame for frame.
        prop_assert_eq!(single_report.detections.len(), report.verdicts.len());
        for (d, v) in single_report.detections.iter().zip(&report.verdicts) {
            prop_assert_eq!(d.arrival, v.0, "arrival alignment");
            prop_assert_eq!(d.flagged, v.1, "fused verdict diverged at {}", v.0);
        }
    }
}

#[test]
fn spare_board_shards_expose_zero_resources() {
    let bs = bundles(7, 1, &[16]);
    let plan = FleetPlan::build(
        &bs,
        &FleetConfig::new(vec![BoardSpec::zcu104("a"), BoardSpec::zcu104("b")]),
    )
    .unwrap();
    let spare: Vec<&FleetShard> = plan
        .shards
        .iter()
        .filter(|s| s.members.is_empty())
        .collect();
    assert_eq!(spare.len(), 1);
    assert_eq!(spare[0].resources(), ResourceEstimate::default());
    assert_eq!(spare[0].utilization(), 0.0);
}
