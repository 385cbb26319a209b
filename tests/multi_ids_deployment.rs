//! Multi-model deployment integration: trained DoS + Fuzzy detectors on
//! one board, and the ISSUE-3 acceptance scenario — an 8-detector plan
//! (DoS, Fuzzy, gear-spoof, RPM-spoof + duplicates) that fits the
//! ZCU104 under the folding-budget allocator and sustains saturated
//! 1 Mb/s replay with zero FIFO drops under the DMA-batch policy.

use canids_core::deploy::{DeploymentPlan, PlanConfig};
use canids_core::prelude::*;

fn quick_detector(config: PipelineConfig) -> (AttackKind, canids_qnn::IntegerMlp) {
    let pipeline = IdsPipeline::new(config.clone());
    let capture = pipeline.generate_capture();
    let detector = pipeline.train(&capture).expect("training");
    (config.attack.kind, detector.int_mlp)
}

/// Untrained paper-topology model (weights seeded): deployment geometry,
/// timing and fit do not depend on weight values.
fn seeded_model(seed: u64) -> canids_qnn::IntegerMlp {
    QuantMlp::new(MlpConfig {
        seed,
        ..MlpConfig::paper_4bit()
    })
    .unwrap()
    .export()
    .unwrap()
}

/// The acceptance fleet: DoS, Fuzzy, gear-spoof, RPM-spoof plus one
/// duplicate of each (the allocator may fold duplicates deeper).
fn eight_bundles() -> Vec<DetectorBundle> {
    let kinds = [
        AttackKind::Dos,
        AttackKind::Fuzzy,
        AttackKind::GearSpoof,
        AttackKind::RpmSpoof,
    ];
    (0..8)
        .map(|i| DetectorBundle::new(kinds[i % 4], seeded_model(100 + i as u64)))
        .collect()
}

#[test]
fn dual_model_ecu_detects_both_attacks() {
    let (dos_kind, dos_model) = quick_detector(PipelineConfig::dos().quick());
    let (fuzzy_kind, fuzzy_model) = quick_detector(PipelineConfig::fuzzy().quick());

    let deployment = deploy_multi_ids(
        &[
            DetectorBundle {
                kind: dos_kind,
                model: dos_model,
            },
            DetectorBundle {
                kind: fuzzy_kind,
                model: fuzzy_model,
            },
        ],
        CompileConfig::default(),
    )
    .expect("deployment");

    // Both IPs fit with plenty of headroom (paper: <4% each).
    let plan = &deployment.plan;
    assert!(plan.utilization < 0.08, "{}", plan.utilization);
    assert!(plan.headroom >= 4);

    // Replay a capture with DoS injection; the DoS model must flag it.
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(600),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0xABCD,
        ..TrafficConfig::default()
    })
    .build();
    let frames: Vec<(SimTime, CanFrame)> = capture.iter().map(|r| (r.timestamp, r.frame)).collect();
    let encoder = IdBitsPayloadBits;
    let report = deployment
        .fresh_ecu(EcuConfig::default())
        .unwrap()
        .process_capture(&frames, &|f: &CanFrame| encoder.encode(f))
        .expect("replay");

    let truth_attacks = capture.iter().filter(|r| r.label.is_attack()).count();
    let flagged = report.detections.iter().filter(|d| d.flagged).count();
    let ratio = flagged as f64 / truth_attacks.max(1) as f64;
    assert!(
        (0.9..1.3).contains(&ratio),
        "flagged {flagged} vs {truth_attacks} attack frames"
    );
}

#[test]
fn dual_model_latency_overhead_is_small() {
    let (kind_a, model_a) = quick_detector(PipelineConfig::dos().quick());
    let frames: Vec<(SimTime, CanFrame)> = (0..30u8)
        .map(|i| {
            (
                SimTime::from_micros(250 * u64::from(i)),
                CanFrame::new(CanId::standard(0x200).unwrap(), &[i; 8]).unwrap(),
            )
        })
        .collect();
    let encoder = IdBitsPayloadBits;
    let featurize = |f: &CanFrame| encoder.encode(f);

    let single = deploy_multi_ids(
        &[DetectorBundle {
            kind: kind_a,
            model: model_a.clone(),
        }],
        CompileConfig::default(),
    )
    .unwrap();
    let single_report = single
        .fresh_ecu(EcuConfig::default())
        .unwrap()
        .process_capture(&frames, &featurize)
        .unwrap();

    let (kind_b, model_b) = quick_detector(PipelineConfig::fuzzy().quick());
    let dual = deploy_multi_ids(
        &[
            DetectorBundle {
                kind: kind_a,
                model: model_a,
            },
            DetectorBundle {
                kind: kind_b,
                model: model_b,
            },
        ],
        CompileConfig::default(),
    )
    .unwrap();
    let dual_report = dual
        .fresh_ecu(EcuConfig::default())
        .unwrap()
        .process_capture(&frames, &featurize)
        .unwrap();

    let ratio = dual_report.mean_latency.as_secs_f64() / single_report.mean_latency.as_secs_f64();
    assert!(
        (1.0..1.25).contains(&ratio),
        "dual/single latency ratio {ratio} (paper: slightly higher cost)"
    );
    assert!(dual_report.mean_power_w > single_report.mean_power_w);
}

#[test]
fn eight_detector_plan_fits_zcu104_and_sustains_line_rate_under_dma_batch() {
    let bundles = eight_bundles();

    // 1. The allocator fits all eight on the ZCU104.
    let plan = DeploymentPlan::build(&bundles, &PlanConfig::default()).expect("plan fits");
    assert_eq!(plan.models.len(), 8);
    assert!(
        plan.device.first_overflow(plan.total_resources).is_none(),
        "allocator returned an overflowing plan"
    );
    assert!(plan.utilization < 0.5, "utilization {}", plan.utilization);
    // Every budget still meets classic-CAN line rate.
    assert!(plan.min_peak_fps() >= 8_300.0);

    // 2. The plan compiles end to end.
    let deployment = plan
        .deploy(&bundles, &CompileConfig::default())
        .expect("compile + attach");
    assert_eq!(deployment.ips.len(), 8);
    assert_eq!(deployment.kinds.len(), 8);

    // 3. Saturated 1 Mb/s replay, zero drops under DmaBatch.
    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(500),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed: 0x8DE7,
        ..TrafficConfig::default()
    })
    .build();
    let report = ServeHarness::new(EcuBackend::new(&deployment))
        .replay(
            &capture,
            &ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 }),
        )
        .unwrap();
    assert_eq!(report.per_model.len(), 8);
    assert_eq!(report.offered, capture.len());
    assert!(
        report.offered_fps > 7_000.0,
        "saturated 1 Mb/s pacing offers ~8.3k fps: {}",
        report.offered_fps
    );
    assert_eq!(report.dropped, 0, "DMA batch must absorb full line rate");
    assert_eq!(report.serviced, report.offered);
    assert!(report.latency.p50 <= report.latency.p99);

    // 4. The per-message policies cannot hold 8 detectors at line rate —
    // the quantitative reason the batch integration exists.
    let seq = ServeHarness::new(EcuBackend::new(&deployment))
        .replay(
            &capture,
            &ReplayConfig::default().with_policy(SchedPolicy::Sequential),
        )
        .unwrap();
    assert!(
        seq.dropped > 0,
        "eight sequential driver calls per frame cannot keep 1 Mb/s"
    );
}

#[test]
fn scheduling_policies_agree_on_classification() {
    // Streaming-vs-batch equivalence holds for every policy, and the
    // policies agree with each other frame for frame (timing/energy
    // change, classification never does).
    let bundles = vec![
        DetectorBundle::new(AttackKind::Dos, seeded_model(7)),
        DetectorBundle::new(AttackKind::Fuzzy, seeded_model(8)),
    ];
    let plan = DeploymentPlan::build(&bundles, &PlanConfig::default()).unwrap();
    let deployment = plan.deploy(&bundles, &CompileConfig::default()).unwrap();

    let capture = DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(300),
        attack: Some(AttackProfile::fuzzy().with_schedule(BurstSchedule::Continuous)),
        seed: 0xF00,
        ..TrafficConfig::default()
    })
    .build();
    let frames: Vec<(SimTime, CanFrame)> = capture.iter().map(|r| (r.timestamp, r.frame)).collect();
    let encoder = IdBitsPayloadBits;
    let featurize = |f: &CanFrame| encoder.encode(f);

    let policies = [
        SchedPolicy::Sequential,
        SchedPolicy::RoundRobin,
        SchedPolicy::DmaBatch { batch: 16 },
        SchedPolicy::InterruptPerFrame,
    ];
    let mut baseline: Option<Vec<(SimTime, bool)>> = None;
    for policy in policies {
        // Batch serving mode.
        let mut batch_ecu = deployment
            .fresh_ecu(EcuConfig {
                policy,
                ..EcuConfig::default()
            })
            .unwrap();
        let batch_report = batch_ecu.process_capture(&frames, &featurize).unwrap();

        // Streaming serving mode on an identically built ECU.
        let mut stream_ecu = deployment
            .fresh_ecu(EcuConfig {
                policy,
                ..EcuConfig::default()
            })
            .unwrap();
        let mut session = stream_ecu.stream();
        for &(t, f) in &frames {
            session.push(t, f, &featurize).unwrap();
        }
        let streamed = session.try_finish().unwrap();
        assert_eq!(
            batch_report,
            streamed,
            "streaming-vs-batch equivalence broke under {}",
            policy.label()
        );
        assert_eq!(batch_report.dropped, 0, "{}", policy.label());

        let verdicts: Vec<(SimTime, bool)> = batch_report
            .detections
            .iter()
            .map(|d| (d.arrival, d.flagged))
            .collect();
        match &baseline {
            None => baseline = Some(verdicts),
            Some(b) => assert_eq!(
                &verdicts,
                b,
                "{} diverged from the baseline classification",
                policy.label()
            ),
        }
    }
}
