//! The fleet transport vs the reference gateway forwarder.
//!
//! Every fleet replay forwards backbone frames to each board through the
//! event-driven [`FleetTransport`]. With the default [`NetConfig`] (an
//! unbounded drop-tail buffer, no faults) each board's gateway hop must
//! equal the closed-form `SegmentForwarder` recurrence over the paced
//! capture **frame for frame**, across all four `SchedPolicy`s and all
//! four `AdmissionPolicy`s: the transport sits in front of the boards,
//! so neither scheduling nor admission may move it. The closed form
//! cannot express congestion or faults, and a babbling-idiot flood
//! through a finite drop-tail gateway demonstrably diverges from it.

use canids_can::gateway::SegmentForwarder;
use canids_core::net::{Fault, NetConfig, QueueDiscipline, SegmentId, SinkId};
use canids_core::prelude::*;
use canids_core::serve::FleetTransport;
use canids_dataset::stream::paced_records;

/// Untrained paper-topology model (weights seeded): transport timing
/// and admission behaviour do not depend on weight values.
fn seeded_model(seed: u64) -> canids_qnn::IntegerMlp {
    QuantMlp::new(MlpConfig {
        seed,
        ..MlpConfig::paper_4bit()
    })
    .unwrap()
    .export()
    .unwrap()
}

/// Four detectors over two ZCU104 boards, two per shard — small enough
/// to replay 4 policies quickly, loaded enough that a sequential
/// per-message overload trips every admission policy.
fn four_bundles() -> Vec<DetectorBundle> {
    let kinds = [AttackKind::Dos, AttackKind::Fuzzy];
    (0..4)
        .map(|i| DetectorBundle::new(kinds[i % 2], seeded_model(600 + i as u64)))
        .collect()
}

fn two_board_fleet() -> FleetDeployment {
    let bundles = four_bundles();
    let config = FleetConfig::new(vec![BoardSpec::zcu104("zcu-a"), BoardSpec::zcu104("zcu-b")])
        .with_model_cap(2);
    let plan = FleetPlan::build(&bundles, &config).expect("fleet plan fits");
    plan.deploy(&bundles, &CompileConfig::default())
        .expect("fleet compiles")
}

fn dos_capture(millis: u64, seed: u64) -> Dataset {
    DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(millis),
        attack: Some(AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed,
        ..TrafficConfig::default()
    })
    .build()
}

/// Descending static priorities for the 4-model fleet.
fn priorities() -> Vec<u32> {
    (0..4u32).map(|i| 100 - i).collect()
}

/// Board `board`'s `gateway_hop` spans as (backbone arrival, board
/// delivery), in forwarding order.
fn gateway_hops(report: &ServeReport, board: u32) -> Vec<(SimTime, SimTime)> {
    report
        .telemetry
        .as_ref()
        .expect("telemetry is on")
        .spans
        .iter()
        .filter(|s| s.stage == Stage::GatewayHop && s.shard == board)
        .map(|s| (s.start, s.end))
        .collect()
}

/// The reference: one `SegmentForwarder` port over the paced capture.
fn reference_hops(capture: &Dataset, config: &ReplayConfig) -> Vec<(SimTime, SimTime)> {
    let wire = config.wire_bitrate();
    let mut port = SegmentForwarder::new(wire, config.gateway_delay);
    paced_records(capture, wire)
        .map(|rec| (rec.timestamp, port.forward(rec.timestamp, &rec.frame)))
        .collect()
}

/// Replays `capture` through a fresh fleet under each config and pins
/// every board's gateway hops to the reference forwarder; uncongested
/// gateways forward everything they see. Reports come back in config
/// order.
fn assert_hops_match_reference(
    deployment: &FleetDeployment,
    capture: &Dataset,
    configs: &[ReplayConfig],
) -> Vec<ServeReport> {
    let mut reports = Vec::new();
    for config in configs {
        let report = ServeHarness::new(deployment.serve_backend())
            .replay(capture, config)
            .expect("fleet replay");
        let label = format!("{} / {}", report.sched, report.admission);
        let reference = reference_hops(capture, config);
        assert_eq!(reference.len(), capture.len());
        for board in 0..2 {
            let hops = gateway_hops(&report, board);
            assert_eq!(hops, reference, "{label}, board {board}");
        }
        assert_eq!(report.gateways.len(), 2, "{label}");
        for g in &report.gateways {
            let counts = (g.forwarded, g.dropped(), g.paused, g.queued);
            let all_forwarded = (capture.len() as u64, 0, 0, 0);
            assert_eq!(counts, all_forwarded, "{label}, gw {}", g.gateway);
        }
        reports.push(report);
    }
    reports
}

fn traced() -> ReplayConfig {
    ReplayConfig::default().with_telemetry(TelemetryConfig::default())
}

#[test]
fn gateway_hops_match_the_forwarder_across_sched_policies() {
    let deployment = two_board_fleet();
    let capture = dos_capture(200, 0x6E7A);
    let configs: Vec<ReplayConfig> = [
        SchedPolicy::Sequential,
        SchedPolicy::RoundRobin,
        SchedPolicy::DmaBatch { batch: 32 },
        SchedPolicy::InterruptPerFrame,
    ]
    .into_iter()
    .map(|policy| traced().with_policy(policy))
    .collect();
    let reports = assert_hops_match_reference(&deployment, &capture, &configs);
    for (report, config) in reports.iter().zip(&configs) {
        assert_eq!(report.sched, config.ecu.policy.label());
    }
}

#[test]
fn gateway_hops_match_the_forwarder_across_admission_policies() {
    let deployment = two_board_fleet();
    let capture = dos_capture(250, 0xAD31);
    // A deliberate per-message overload so every admission policy has
    // real shed/readmit/migrate decisions around the transport.
    let overloaded = ReplayConfig {
        bitrate: Bitrate::new(750_000),
        ecu: EcuConfig {
            policy: SchedPolicy::Sequential,
            ..EcuConfig::default()
        },
        ..traced()
    };
    let admissions = [
        AdmissionPolicy::DropFrames,
        AdmissionPolicy::ShedLowestValue {
            priorities: priorities(),
        },
        AdmissionPolicy::ShedLowestMeasuredValue {
            window: 256,
            priorities: priorities(),
        },
        AdmissionPolicy::Rebalance {
            priorities: priorities(),
        },
    ];
    let configs: Vec<ReplayConfig> = admissions
        .iter()
        .map(|admission| overloaded.clone().with_admission(admission.clone()))
        .collect();
    let reports = assert_hops_match_reference(&deployment, &capture, &configs);
    for (report, admission) in reports.iter().zip(&admissions) {
        assert_eq!(report.admission, admission.label());
    }
    // The overload is real: DropFrames drops and ShedLowestValue sheds.
    assert!(reports[0].dropped > 0, "the 750 kb/s overload must drop");
    assert!(reports[1].shed_count() >= 1, "the overload sheds");
}

#[test]
fn congested_event_topology_diverges_from_the_analytic_model() {
    // A babbling idiot floods board 0's gateway port faster than its
    // leaf segment can drain, through a 4-frame shared drop-tail
    // buffer. The default transport — the closed-form forwarder's
    // behaviour — has no buffer to fill and reports zero loss, while
    // the flooded one drops board-0 frames with a typed buffer-full
    // reason. This is the scenario the closed form cannot express.
    let deployment = two_board_fleet();
    let capture = dos_capture(200, 0xBAB);

    let best = ReplayConfig::default().with_policy(SchedPolicy::DmaBatch { batch: 32 });
    let baseline = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &best)
        .unwrap();
    assert_eq!(baseline.dropped, 0, "uncongested baseline keeps up");
    assert_eq!(baseline.fully_covered, baseline.offered);

    let flooded = best.with_transport(FleetTransport::EventDriven(NetConfig {
        discipline: QueueDiscipline::DropTail { capacity: 4 },
        faults: vec![Fault::BabblingIdiot {
            segment: SegmentId(0),
            dest: SinkId(0),
            start: SimTime::ZERO,
            stop: SimTime::from_millis(400),
            gap: SimTime::from_micros(60),
        }],
    }));
    let event = ServeHarness::new(deployment.serve_backend())
        .replay(&capture, &flooded)
        .unwrap();

    // Divergence, not equivalence: the flood starves board 0.
    assert!(
        event.dropped > 0,
        "the flooded drop-tail gateway must lose board-0 frames"
    );
    assert!(event.fully_covered < event.offered);
    assert!(event.boards[0].dropped > baseline.boards[0].dropped);
    // Board 1's gateway is untouched — every frame still arrives there.
    assert_eq!(event.boards[1].dropped, baseline.boards[1].dropped);
    // The loss is typed and accounted at gateway 0.
    let g0 = &event.gateways[0];
    assert!(g0.dropped_full > 0, "drop-tail losses must be buffer-full");
    assert_eq!(g0.dropped_outage, 0);
    assert_eq!(g0.dropped_bus_off, 0);
    assert_eq!(event.gateways[1].dropped(), 0);
}
