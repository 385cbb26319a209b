//! Cross-ECU fleet acceptance (ISSUE 4): twelve detectors sharded over
//! six heterogeneous boards (three device classes) sustain a saturated
//! 1 Mb/s backbone with zero drops under the best integration, and under
//! a deliberate per-message overload the `ShedLowestValue` admission
//! policy sheds only each overloaded shard's lowest-priority model — no
//! frame drops — while `DropFrames` measurably drops. `bench_summary`
//! records the same scenario in `BENCH_4.json`.

use canids_core::fleet::{FleetAction, FleetEvent};
use canids_core::prelude::*;

/// Untrained paper-topology model (weights seeded): fleet geometry,
/// timing and admission behaviour do not depend on weight values.
fn seeded_model(seed: u64) -> canids_qnn::IntegerMlp {
    QuantMlp::new(MlpConfig {
        seed,
        ..MlpConfig::paper_4bit()
    })
    .unwrap()
    .export()
    .unwrap()
}

/// The acceptance fleet: DoS, Fuzzy, gear-spoof, RPM-spoof and two
/// duplicates of each — a vehicle's worth of detectors.
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

/// Six boards, three device classes, admission-capped at two models per
/// board so per-message serving stays one shed away from line rate.
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

/// Descending priorities: model 0 is the most valuable, model 11 the
/// first to shed.
fn priorities() -> Vec<u32> {
    (0..12u32).map(|i| 100 - i).collect()
}

#[test]
fn twelve_detectors_on_six_heterogeneous_boards_hold_line_rate_and_degrade_gracefully() {
    let bundles = twelve_bundles();

    // 1. The partitioner spreads 12 detectors two per board, every shard
    // proven to fit its own device.
    let plan = FleetPlan::build(&bundles, &six_board_fleet()).expect("fleet plan fits");
    assert_eq!(plan.models(), 12);
    assert_eq!(plan.occupied_boards(), 6);
    for shard in &plan.shards {
        assert_eq!(shard.members.len(), 2, "{}", shard.spec.name);
        let p = shard.plan.as_ref().unwrap();
        assert!(
            shard
                .spec
                .device
                .first_overflow(p.total_resources)
                .is_none(),
            "{} overflows",
            shard.spec.name
        );
    }
    let deployment = plan
        .deploy(&bundles, &CompileConfig::default())
        .expect("fleet compiles");
    assert_eq!(deployment.models(), 12);

    let capture = saturated_dos_capture();

    // 2. Best integration: per-shard DMA batching absorbs the saturated
    // 1 Mb/s backbone on every board with zero drops, full coverage.
    let best = ServeHarness::new(deployment.serve_backend())
        .replay(
            &capture,
            &ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 }),
        )
        .expect("best-policy replay");
    assert_eq!(best.offered, capture.len());
    assert!(
        best.offered_fps > 7_000.0,
        "saturated 1 Mb/s offers ~8 kfps: {}",
        best.offered_fps
    );
    assert_eq!(best.dropped, 0, "DMA batching must absorb full line rate");
    assert_eq!(
        best.fully_covered, best.offered,
        "all 6 boards saw every frame"
    );
    assert!(best.keeps_up());
    assert!(best.events.is_empty());

    // 3. Deliberate overload: per-message sequential serving costs ~2
    // full driver paths (~190 us) per frame against a ~167 us
    // inter-arrival at 750 kb/s — two models overload every shard, one
    // holds comfortably. Today's behaviour (DropFrames) measurably
    // drops on every shard.
    let overloaded = ReplayConfig {
        bitrate: Bitrate::new(750_000),
        ecu: EcuConfig {
            policy: SchedPolicy::Sequential,
            ..EcuConfig::default()
        },
        ..ReplayConfig::default()
    };
    let dropped = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &overloaded)
        .expect("drop-frames overload replay");
    assert!(
        dropped.dropped > 100,
        "sequential 2-model shards cannot hold 1 Mb/s: dropped {}",
        dropped.dropped
    );
    assert!(!dropped.keeps_up());

    // 4. Same overload under ShedLowestValue: zero drops, and only each
    // overloaded shard's lowest-priority model is ever shed.
    let shed_config = ReplayConfig {
        admission: AdmissionPolicy::ShedLowestValue {
            priorities: priorities(),
        },
        ..overloaded
    };
    let shed = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &shed_config)
        .expect("shed overload replay");
    assert_eq!(shed.dropped, 0, "shedding must prevent every FIFO drop");
    assert!(shed.shed_count() >= 1, "the overload must trigger shedding");

    // Per shard, the expected victim is its lowest-priority member.
    let prios = priorities();
    let expected_victim: Vec<usize> = plan
        .shards
        .iter()
        .map(|s| s.members.iter().copied().min_by_key(|&m| prios[m]).unwrap())
        .collect();
    let sheds: Vec<&FleetEvent> = shed
        .events
        .iter()
        .filter(|e| e.action == FleetAction::Shed)
        .collect();
    for e in &sheds {
        assert_eq!(
            e.model, expected_victim[e.board],
            "board {} shed model {}, expected its lowest-priority member {}",
            e.board, e.model, expected_victim[e.board]
        );
    }
    // "Only the lowest-priority model": one distinct victim per board.
    for b in 0..6 {
        let mut victims: Vec<usize> = sheds
            .iter()
            .filter(|e| e.board == b)
            .map(|e| e.model)
            .collect();
        victims.dedup();
        assert!(
            victims.len() <= 1,
            "board {b} shed more than one distinct model: {victims:?}"
        );
    }
    // Coverage still flows: every frame got at least one verdict.
    assert_eq!(shed.verdicts.len(), shed.offered);
}

#[test]
fn policy_sweep_contrasts_admission_policies() {
    // One replay per admission policy: DropFrames drops under
    // per-message overload, ShedLowestValue does not.
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
    let overload = EcuConfig {
        policy: SchedPolicy::Sequential,
        ..EcuConfig::default()
    };
    let drop_frames = ReplayConfig {
        bitrate: Bitrate::new(750_000),
        ecu: overload,
        ..ReplayConfig::default()
    };
    let shed_lowest_value = ReplayConfig {
        admission: AdmissionPolicy::ShedLowestValue {
            priorities: priorities(),
        },
        ..drop_frames.clone()
    };
    let mut harness = ServeHarness::new(deployment.serve_backend());
    let reports: Vec<ServeReport> = [drop_frames, shed_lowest_value]
        .iter()
        .map(|config| harness.replay(&capture, config).unwrap())
        .collect();
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].admission, "drop-frames");
    assert_eq!(reports[1].admission, "shed-lowest-value");
    assert!(reports[0].dropped > 0);
    assert_eq!(reports[1].dropped, 0);
    // Degrading gracefully costs coverage, not frames: the shed replay
    // answers every frame, the dropping one misses some everywhere.
    assert_eq!(reports[1].verdicts.len(), reports[1].offered);
    assert!(reports[0].boards.iter().all(|b| b.dropped > 0));
}
