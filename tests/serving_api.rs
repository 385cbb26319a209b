//! Unified serving API acceptance (ISSUE 5).
//!
//! 1. The `ServeHarness` + `FleetBackend` path reproduces the PR 4
//!    acceptance numbers (12 detectors / 6 boards: zero drops under
//!    DmaBatch-32; shed-vs-drop frame counts under the 750 kb/s
//!    sequential overload), and the two `EcuBackend` constructors
//!    (`new` over a deployment, `over` an existing ECU) report the
//!    *same bits* for the same replay.
//! 2. The capstone: `AdmissionPolicy::ShedLowestMeasuredValue` sheds the
//!    never-firing (useless) model on the overload capture, while the
//!    static `ShedLowestValue` policy sheds a different, actually-firing
//!    model that someone labelled lowest priority. The `serving_api`
//!    example prints the same contrast.
//! 3. A scenario sweep is a loop of `ServeHarness::replay` calls: one
//!    harness replaying several scenarios in turn, in either order,
//!    matches fresh-backend replays bit for bit on the simulated
//!    backends.
//! 4. A software model whose input width does not match the frame
//!    encoding is a typed error from every serving entry point, not a
//!    panic on the first frame.
use canids_core::prelude::*;
use canids_core::serve::FleetAction;

/// Untrained paper-topology model (weights seeded).
fn seeded_model(seed: u64) -> canids_qnn::IntegerMlp {
    QuantMlp::new(MlpConfig {
        seed,
        ..MlpConfig::paper_4bit()
    })
    .unwrap()
    .export()
    .unwrap()
}

/// The PR 4 acceptance fleet: 12 detectors, 4 kinds tripled.
fn twelve_bundles() -> Vec<DetectorBundle> {
    let kinds = [
        AttackKind::Dos,
        AttackKind::Fuzzy,
        AttackKind::GearSpoof,
        AttackKind::RpmSpoof,
    ];
    (0..12)
        .map(|i| DetectorBundle::new(kinds[i % 4], seeded_model(400 + i as u64)))
        .collect()
}

fn six_board_fleet() -> FleetConfig {
    FleetConfig::new(vec![
        BoardSpec::zcu104("zcu-a"),
        BoardSpec::zcu104("zcu-b"),
        BoardSpec::ultra96("u96-a"),
        BoardSpec::ultra96("u96-b"),
        BoardSpec::pynq_z2("pynq-a"),
        BoardSpec::pynq_z2("pynq-b"),
    ])
    .with_model_cap(2)
}

fn saturated_dos_capture() -> Dataset {
    DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(400),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0xF1EE7,
        ..TrafficConfig::default()
    })
    .build()
}

/// Field-for-field bitwise equality between two `ServeReport`s (f64s
/// compared via `to_bits`, so "close" is not "equal").
fn assert_serve_reports_identical(a: &ServeReport, b: &ServeReport) {
    assert_eq!(a.admission, b.admission);
    assert_eq!(a.bitrate_bps, b.bitrate_bps);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.offered_fps.to_bits(), b.offered_fps.to_bits());
    assert_eq!(a.serviced, b.serviced);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.latency.p50, b.latency.p50);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.latency.max, b.latency.max);
    assert_eq!(a.flagged, b.flagged);
    assert_eq!(a.fully_covered, b.fully_covered);
    match (&a.energy, &b.energy) {
        (Some(ea), Some(eb)) => {
            assert_eq!(ea.mean_power_w.to_bits(), eb.mean_power_w.to_bits());
            assert_eq!(
                ea.energy_per_message_j.to_bits(),
                eb.energy_per_message_j.to_bits()
            );
        }
        (None, None) => {}
        _ => panic!("one report meters energy, the other does not"),
    }
    assert_eq!(a.events, b.events);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.boards.len(), b.boards.len());
    for (ab, bb) in a.boards.iter().zip(&b.boards) {
        assert_eq!(ab.board, bb.board);
        assert_eq!(ab.serviced, bb.serviced);
        assert_eq!(ab.dropped, bb.dropped);
        assert_eq!(ab.latency.p50, bb.latency.p50);
        assert_eq!(ab.latency.p99, bb.latency.p99);
        assert_eq!(ab.latency.max, bb.latency.max);
    }
}

#[test]
fn harness_reproduces_pr4_acceptance_bit_identically() {
    let bundles = twelve_bundles();
    let plan = FleetPlan::build(&bundles, &six_board_fleet()).expect("fleet plan fits");
    let deployment = plan
        .deploy(&bundles, &CompileConfig::default())
        .expect("fleet compiles");
    let capture = saturated_dos_capture();

    // 1. Best integration through the new API: 12 detectors over 6
    // boards absorb the saturated 1 Mb/s backbone with zero drops.
    let best_config = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
    let mut harness = ServeHarness::new(deployment.serve_backend());
    let best = harness.replay(&capture, &best_config).unwrap();
    assert_eq!(best.offered, capture.len());
    assert_eq!(best.dropped, 0, "DMA batching must absorb full line rate");
    assert_eq!(best.fully_covered, best.offered);
    assert_eq!(best.boards.len(), 6);
    assert!(best.events.is_empty());

    // The simulated fleet is deterministic: a second replay over a
    // fresh backend reports the same bits.
    let best_again = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &best_config)
        .unwrap();
    assert_serve_reports_identical(&best, &best_again);

    // 2. The 750 kb/s sequential overload: drop-frames loses >100
    // frames, shed-lowest-value loses none — the PR 4 contrast.
    let overload = ReplayConfig::default()
        .with_bitrate(Bitrate::new(750_000))
        .with_policy(SchedPolicy::Sequential);
    let dropped = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &overload)
        .unwrap();
    assert!(dropped.dropped > 100, "dropped {}", dropped.dropped);

    let priorities: Vec<u32> = (0..12u32).map(|i| 100 - i).collect();
    let shed_config = overload
        .clone()
        .with_admission(AdmissionPolicy::ShedLowestValue {
            priorities: priorities.clone(),
        });
    let shed = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &shed_config)
        .unwrap();
    assert_eq!(shed.dropped, 0, "shedding must prevent every FIFO drop");
    assert!(shed.shed_count() >= 1);

    // Determinism holds on the shed replay too — admission decisions
    // are driven by simulated time, not host scheduling.
    let shed_again = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &shed_config)
        .unwrap();
    assert_serve_reports_identical(&shed, &shed_again);
}

#[test]
fn ecu_backend_over_an_existing_ecu_matches_the_deployment_backend() {
    let bundles: Vec<DetectorBundle> = (0..4)
        .map(|i| {
            DetectorBundle::new(
                [
                    AttackKind::Dos,
                    AttackKind::Fuzzy,
                    AttackKind::GearSpoof,
                    AttackKind::RpmSpoof,
                ][i % 4],
                seeded_model(100 + i as u64),
            )
        })
        .collect();
    let deployment = deploy_multi_ids(&bundles, CompileConfig::default()).unwrap();
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(250),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0x8DE7,
        ..TrafficConfig::default()
    })
    .build();

    for policy in [SchedPolicy::Sequential, SchedPolicy::DmaBatch { batch: 32 }] {
        let mut ecu = deployment
            .fresh_ecu(EcuConfig {
                policy,
                ..EcuConfig::default()
            })
            .unwrap();
        let over = ServeHarness::new(EcuBackend::over(&mut ecu))
            .replay(&capture, &ReplayConfig::default().with_policy(policy))
            .unwrap();

        let new = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, &ReplayConfig::default().with_policy(policy))
            .unwrap();
        assert_eq!(new.sched, policy.label());
        assert_eq!(over.offered, new.offered);
        assert_eq!(over.serviced, new.serviced);
        assert_eq!(over.dropped, new.dropped);
        assert_eq!(over.latency.p50, new.latency.p50);
        assert_eq!(over.latency.p99, new.latency.p99);
        assert_eq!(over.latency.max, new.latency.max);
        assert_eq!(over.flagged, new.flagged);
        let (eo, en) = (over.energy.unwrap(), new.energy.unwrap());
        assert_eq!(eo.mean_power_w.to_bits(), en.mean_power_w.to_bits());
        assert_eq!(
            eo.energy_per_message_j.to_bits(),
            en.energy_per_message_j.to_bits()
        );
    }
}

/// A detector that can never fire: the output layer's normal-class bias
/// is pushed far above (and every attack class far below) any
/// achievable accumulator score, so the argmax is always "normal". The
/// doctored bias lowers verbatim through the dataflow compiler, so the
/// compiled IP is just as silent as the integer model.
fn never_firing_model(seed: u64) -> canids_qnn::IntegerMlp {
    let mut model = seeded_model(seed);
    let dominate = 1i64 << 40;
    model.output.bias_q[0] += dominate;
    for b in model.output.bias_q.iter_mut().skip(1) {
        *b -= dominate;
    }
    model
}

#[test]
fn measured_value_sheds_the_never_firing_model_not_the_lowest_priority() {
    // One ZCU104 carrying two models under a sequential overload: the
    // shard must shed exactly one. Model 0 is a *trained* DoS detector
    // that fires on the capture (real detection value); model 1 never
    // fires (useless). Static priorities are deliberately wrong: model 0
    // is labelled the *lowest* static value, so `ShedLowestValue` sheds
    // the useful model — while `ShedLowestMeasuredValue` reads the
    // verdict stream and sheds the useless one instead.
    let capture = saturated_dos_capture();
    let trained = {
        let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
        let train_capture = pipeline.generate_capture();
        pipeline.train(&train_capture).expect("training").int_mlp
    };
    let never_fires = never_firing_model(7_001);
    {
        let mut eval = StreamingEvaluator::new(never_fires.clone());
        assert!(
            capture.iter().all(|rec| !eval.push(rec).flagged),
            "the doctored model must never fire"
        );
    }
    let bundles = vec![
        DetectorBundle::new(AttackKind::Dos, trained),
        DetectorBundle::new(AttackKind::Fuzzy, never_fires),
    ];
    let plan = FleetPlan::build(&bundles, &FleetConfig::new(vec![BoardSpec::zcu104("solo")]))
        .expect("two models fit one board");
    let deployment = plan.deploy(&bundles, &CompileConfig::default()).unwrap();

    let overload = ReplayConfig::default()
        .with_bitrate(Bitrate::new(750_000))
        .with_policy(SchedPolicy::Sequential);
    // Static labels: the firing model 0 is "lowest value", the useless
    // model 1 is "highest value".
    let static_priorities = vec![1u32, 5u32];

    let static_shed = ServeHarness::new(deployment.serve_backend())
        .replay(
            &capture,
            &overload
                .clone()
                .with_admission(AdmissionPolicy::ShedLowestValue {
                    priorities: static_priorities.clone(),
                }),
        )
        .unwrap();
    let measured_shed = ServeHarness::new(deployment.serve_backend())
        .replay(
            &capture,
            &overload
                .clone()
                .with_admission(AdmissionPolicy::ShedLowestMeasuredValue {
                    window: 256,
                    priorities: static_priorities,
                }),
        )
        .unwrap();

    // Both policies keep the line flowing.
    assert_eq!(static_shed.dropped, 0, "static shed must prevent drops");
    assert_eq!(measured_shed.dropped, 0, "measured shed must prevent drops");
    let static_victims: Vec<usize> = static_shed
        .events
        .iter()
        .filter(|e| e.action == FleetAction::Shed)
        .map(|e| e.model)
        .collect();
    let measured_victims: Vec<usize> = measured_shed
        .events
        .iter()
        .filter(|e| e.action == FleetAction::Shed)
        .map(|e| e.model)
        .collect();
    assert!(!static_victims.is_empty(), "overload must trigger shedding");
    assert!(!measured_victims.is_empty());
    assert!(
        static_victims.iter().all(|&m| m == 0),
        "static priorities shed the mislabelled-but-useful model 0: {static_victims:?}"
    );
    assert!(
        measured_victims.iter().all(|&m| m == 1),
        "measured value sheds the never-firing model 1: {measured_victims:?}"
    );
    // The measured replay keeps the firing detector serving: its
    // confirmed-positive count stays positive, the useless model's is 0.
    assert!(measured_shed.per_model[0].confirmed_positives > 0);
    assert_eq!(measured_shed.per_model[1].confirmed_positives, 0);
    // And keeping the useful model online preserves detections the
    // static policy gave away.
    assert!(
        measured_shed.flagged > static_shed.flagged,
        "measured {} !> static {}",
        measured_shed.flagged,
        static_shed.flagged
    );
}

#[test]
fn a_reused_harness_replays_each_scenario_like_a_fresh_one() {
    // Every replay opens a fresh session, so one harness looping over
    // scenarios — forwards or backwards — must reproduce a fresh
    // backend's replay of each scenario bit for bit.
    let bundles = twelve_bundles();
    let plan = FleetPlan::build(&bundles, &six_board_fleet()).unwrap();
    let deployment = plan.deploy(&bundles, &CompileConfig::default()).unwrap();
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(200),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0x5EED,
        ..TrafficConfig::default()
    })
    .build();
    let priorities: Vec<u32> = (0..12u32).map(|i| 100 - i).collect();
    let configs = [
        ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 }),
        ReplayConfig::default()
            .with_bitrate(Bitrate::new(750_000))
            .with_policy(SchedPolicy::Sequential),
        ReplayConfig::default()
            .with_bitrate(Bitrate::new(750_000))
            .with_policy(SchedPolicy::Sequential)
            .with_admission(AdmissionPolicy::ShedLowestValue { priorities }),
    ];

    let mut harness = ServeHarness::new(deployment.serve_backend());
    let forwards: Vec<ServeReport> = configs
        .iter()
        .map(|config| harness.replay(&capture, config).unwrap())
        .collect();
    let mut backwards: Vec<ServeReport> = configs
        .iter()
        .rev()
        .map(|config| harness.replay(&capture, config).unwrap())
        .collect();
    backwards.reverse();
    for ((config, a), b) in configs.iter().zip(&forwards).zip(&backwards) {
        let fresh = ServeHarness::new(deployment.serve_backend())
            .replay(&capture, config)
            .unwrap();
        assert_serve_reports_identical(a, &fresh);
        assert_serve_reports_identical(b, &fresh);
    }
}

#[test]
fn a_model_narrower_than_the_frame_encoding_is_a_typed_error() {
    let narrow = QuantMlp::new(MlpConfig {
        input_dim: 12,
        hidden: vec![8],
        ..MlpConfig::default()
    })
    .unwrap()
    .export()
    .unwrap();
    let expected = CoreError::Qnn(QnnError::DimensionMismatch {
        context: "software backend: model input vs frame encoding",
        expected: 75,
        actual: 12,
    });
    let capture = saturated_dos_capture();

    let replay = ServeHarness::new(SoftwareBackend::new(vec![seeded_model(1), narrow.clone()]))
        .replay(&capture, &ReplayConfig::default());
    assert_eq!(replay.unwrap_err(), expected);

    let mut pop = Population::new();
    pop.push(TenantStream::new("vehicle-0", capture.clone()));
    pop.push(TenantStream::new("vehicle-1", capture));
    let served = pop.serve(
        || Ok(SoftwareBackend::single(narrow.clone())),
        &PopulationConfig::default(),
    );
    assert_eq!(served.unwrap_err(), expected);
}
