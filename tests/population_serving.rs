//! Population serving acceptance: `Population::serve` is the crate's
//! one multi-lane path, so these tests pin the lane runner's invariants.
//!
//! 1. A single-tenant population run is **bit-identical** to a plain
//!    `ServeHarness::replay` of the same capture under the same
//!    configuration — the population layer adds multiplexing, never
//!    arithmetic.
//! 2. Frame conservation (proptest): every tenant's offered frames are
//!    exactly-once served, FIFO-dropped, or covered by a typed shed
//!    window — `offered == serviced + dropped + shed_frames` for every
//!    tenant, with no silent starvation under `AdmitAll`.
//! 3. `PopulationReport::fingerprint()` is invariant across worker
//!    counts 1 / 2 / Auto, with cross-tenant shedding and telemetry
//!    engaged: the lane pool's schedule is execution-only.
//! 4. Edge cases: a tenant with an empty capture leaves the population's
//!    modelled capacity alone, and a failing backend factory fails the
//!    whole population with its typed error.
//! 5. The admission ledger's order: frames at one instant are taken in
//!    tenant order and an out-of-order capture in arrival order, so the
//!    events, per-tenant counts, arrival span and pooled latency of a
//!    population built to tie repeat figures recorded before the ledger
//!    merged its lanes.

use canids_core::population::{Population, PopulationConfig, TenantAdmission, TenantStream};
use canids_core::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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

fn capture(attack: bool, seed: u64, ms: u64) -> Dataset {
    DatasetBuilder::new(TrafficConfig {
        duration: SimTime::from_millis(ms),
        attack: attack.then(|| AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
        seed,
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
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.flagged, b.flagged);
    assert_eq!(a.fully_covered, b.fully_covered);
    assert_eq!(a.cm, b.cm);
    assert_eq!(a.events, b.events);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.boards.len(), b.boards.len());
}

#[test]
fn single_tenant_population_is_bit_identical_to_plain_replay() {
    let bundles = vec![
        DetectorBundle::new(AttackKind::Dos, seeded_model(900)),
        DetectorBundle::new(AttackKind::Fuzzy, seeded_model(901)),
    ];
    let cap = capture(true, 0xB0B, 250);

    let mut pop = Population::new();
    pop.push(TenantStream::new("vehicle-0", cap.clone()));
    // The ECU deployment is compiled inside the factory so nothing
    // non-`Sync` crosses the worker threads (the `owning` idiom).
    let factory = || {
        Ok(EcuBackend::owning(deploy_multi_ids(
            &bundles,
            CompileConfig::default(),
        )?))
    };
    let report = pop.serve(factory, &PopulationConfig::default()).unwrap();

    // The plain replay under exactly the tenant's effective
    // configuration: tenant bitrate (500 kb/s default).
    let plain = ServeHarness::new(EcuBackend::owning(
        deploy_multi_ids(&bundles, CompileConfig::default()).unwrap(),
    ))
    .replay(
        &cap,
        &ReplayConfig::default().with_bitrate(Bitrate::HIGH_SPEED_500K),
    )
    .unwrap();

    assert_eq!(report.tenants.len(), 1);
    let t = &report.tenants[0];
    assert_serve_reports_identical(&t.serve, &plain);

    // The admission ledger sees what the replay saw: with one tenant and
    // unbounded admission nothing is shed, and the ledger's counters
    // reproduce the replay's.
    assert_eq!(t.offered, plain.offered);
    assert_eq!(t.serviced, plain.serviced);
    assert_eq!(t.dropped, plain.dropped);
    assert_eq!(t.shed_frames, 0);
    assert_eq!(t.windows, 1);
    assert!(t.conserved());
    assert_eq!(report.latency, plain.latency);
    assert!(report.events.is_empty());

    // And the population fingerprint itself is reproducible.
    let again = pop.serve(factory, &PopulationConfig::default()).unwrap();
    assert_eq!(report.fingerprint(), again.fingerprint());
}

#[test]
fn population_fingerprint_is_invariant_across_worker_counts() {
    // Six tenant streams of uneven length onto a two-slot pool: sheds
    // engage at arrival, readmits engage as short streams finish. Every
    // worker count must report the same bits — scheduling is
    // execution-only — on the simulated ECU and on the software backend,
    // whose service time is modelled on the same sim clock.
    let bundles = vec![
        DetectorBundle::new(AttackKind::Dos, seeded_model(910)),
        DetectorBundle::new(AttackKind::Fuzzy, seeded_model(911)),
    ];
    let ecu_factory = || {
        Ok(EcuBackend::owning(deploy_multi_ids(
            &bundles,
            CompileConfig::default(),
        )?))
    };
    let models: Vec<_> = bundles.iter().map(|b| b.model.clone()).collect();
    let software_factory = || Ok(SoftwareBackend::new(models.clone()));

    let mut pop = Population::new();
    for (k, ms) in [60u64, 140, 80, 160, 100, 120].iter().enumerate() {
        pop.push(
            TenantStream::new(
                format!("vehicle-{k}"),
                capture(k % 2 == 0, 0xA110 + k as u64, *ms),
            )
            .with_priority((k % 3) as u32),
        );
    }

    let base = PopulationConfig::default()
        .with_replay(ReplayConfig::default().with_telemetry(TelemetryConfig::default()))
        .with_stagger(SimTime::from_micros(300))
        .with_admission(TenantAdmission::ShedLowestValueTenant {
            capacity: 2,
            window: 64,
        });
    let software = base.clone().with_replay(base.replay.clone().with_batch(8));

    assert_invariant_across_workers(&pop, ecu_factory, &base);
    assert_invariant_across_workers(&pop, software_factory, &software);
}

/// Serves `pop` at workers 1, 2 and Auto and asserts one fingerprint,
/// with the overload (sheds, readmits) and telemetry engaged.
fn assert_invariant_across_workers<B, F>(pop: &Population, factory: F, base: &PopulationConfig)
where
    B: ServeBackend,
    F: Fn() -> Result<B, CoreError> + Sync,
{
    let mut prints = Vec::new();
    for workers in [
        ShardWorkers::Fixed(1),
        ShardWorkers::Fixed(2),
        ShardWorkers::Auto,
    ] {
        let report = pop
            .serve(&factory, &base.clone().with_workers(workers))
            .unwrap();
        // The overload is real: more streams than slots forces sheds,
        // and uneven stream lengths free slots for readmission.
        assert!(report.shed_count() >= 1, "no shed under {workers:?}");
        assert!(report.readmit_count() >= 1, "no readmit under {workers:?}");
        assert!(report.shed_frames > 0);
        assert!(report.tenants.iter().all(|t| t.conserved()));
        // Telemetry rode along: tenant residency windows and admission
        // decisions render as tenant lanes in the Chrome trace.
        let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
        assert!(telemetry
            .spans
            .iter()
            .any(|s| s.stage == Stage::TenantWindow));
        assert!(telemetry
            .spans
            .iter()
            .any(|s| s.stage == Stage::TenantAdmission));
        assert!(telemetry
            .to_chrome_trace()
            .contains("\"name\":\"tenant 0\""));
        prints.push((workers, report.fingerprint()));
    }
    for pair in prints.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "fingerprint differs between {:?} and {:?}",
            pair[0].0, pair[1].0
        );
    }
}

#[test]
fn an_empty_tenant_leaves_the_modelled_capacity_alone() {
    // A tenant whose capture is empty services no frame, so its lane
    // books no busy time. It must not erase the capacity the other
    // lanes model, and its own ledger must still balance at zero.
    let model = seeded_model(920);
    let mut pop = Population::new();
    for k in 0..3u64 {
        pop.push(TenantStream::new(
            format!("vehicle-{k}"),
            capture(k % 2 == 0, 0xE0 + k, 60),
        ));
    }
    let factory = || Ok(SoftwareBackend::single(model.clone()));
    let config = PopulationConfig::default();
    let before = pop.serve(factory, &config).unwrap();
    assert!(
        before.sustained_fps.is_some(),
        "software lanes model capacity"
    );

    let empty = pop.push(TenantStream::new(
        "parked",
        Dataset::from_records(Vec::new()),
    ));
    let after = pop.serve(factory, &config).unwrap();
    assert_eq!(
        after.sustained_fps.map(f64::to_bits),
        before.sustained_fps.map(f64::to_bits)
    );
    assert_eq!(after.offered_fps.to_bits(), before.offered_fps.to_bits());
    assert_eq!(after.latency, before.latency);
    let t = &after.tenants[empty];
    assert_eq!(t.offered, 0);
    assert_eq!(t.windows, 0);
    assert!(t.conserved());
}

#[test]
fn a_failing_factory_fails_the_population() {
    // The factory fails on its second call, whichever tenant's lane
    // makes it, with the error a deploying factory returns for an empty
    // bundle set: the population returns that typed error, never a
    // partial report, at every worker count.
    let model = seeded_model(921);
    let mut pop = Population::new();
    for k in 0..4u64 {
        pop.push(TenantStream::new(
            format!("vehicle-{k}"),
            capture(k % 2 == 0, 0xF0 + k, 40),
        ));
    }
    for workers in [
        ShardWorkers::Fixed(1),
        ShardWorkers::Fixed(2),
        ShardWorkers::Auto,
    ] {
        let calls = AtomicUsize::new(0);
        let factory = || {
            if calls.fetch_add(1, Ordering::SeqCst) == 1 {
                return Err(CoreError::EmptyDeployment);
            }
            Ok(SoftwareBackend::single(model.clone()))
        };
        let config = PopulationConfig::default().with_workers(workers);
        let err = pop.serve(factory, &config).unwrap_err();
        assert_eq!(err, CoreError::EmptyDeployment, "workers {workers:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Frame conservation: for every generated population shape, every
    // tenant's offered frames are exactly-once served, dropped by the
    // backend FIFO, or covered by a typed shed window — and the event
    // log is consistent with the ledger.
    #[test]
    fn every_offered_frame_is_served_dropped_or_shed(
        n_tenants in 1usize..5,
        capacity in 1usize..4,
        window in 1usize..64,
        stagger_us in 0u64..1500,
        seed in 0u64..1000,
    ) {
        let model = seeded_model(0xC0 + seed);
        let mut pop = Population::new();
        for k in 0..n_tenants {
            pop.push(
                TenantStream::new(
                    format!("t{k}"),
                    capture(k % 2 == 0, seed * 31 + k as u64, 30 + 10 * k as u64),
                )
                .with_priority((seed as u32 + k as u32) % 4),
            );
        }
        let config = PopulationConfig::default()
            .with_stagger(SimTime::from_micros(stagger_us))
            .with_admission(TenantAdmission::ShedLowestValueTenant { capacity, window });
        let report = pop
            .serve(|| Ok(SoftwareBackend::single(model.clone())), &config)
            .unwrap();

        let mut serviced = 0usize;
        let mut dropped = 0u64;
        let mut shed = 0usize;
        for t in &report.tenants {
            prop_assert_eq!(t.offered, pop.tenants()[t.tenant].capture.len());
            prop_assert!(
                t.conserved(),
                "tenant {} ledger: {} != {} + {} + {}",
                t.tenant, t.offered, t.serviced, t.dropped, t.shed_frames
            );
            // A tenant only loses frames to shedding through a typed
            // event, and only serves frames inside a residency window.
            if t.shed_frames > 0 {
                prop_assert!(report.events.iter().any(|e| e.tenant == t.tenant));
            }
            if t.serviced > 0 || t.dropped > 0 {
                prop_assert!(t.windows >= 1);
            }
            serviced += t.serviced;
            dropped += t.dropped;
            shed += t.shed_frames;
        }
        prop_assert_eq!(report.serviced, serviced);
        prop_assert_eq!(report.dropped, dropped);
        prop_assert_eq!(report.shed_frames, shed);
        prop_assert_eq!(report.offered, serviced + dropped as usize + shed);

        // With capacity for everyone, nothing is ever shed: the bounded
        // policy degenerates to AdmitAll and the whole population serves.
        if capacity >= n_tenants {
            prop_assert_eq!(report.shed_frames, 0);
            prop_assert_eq!(report.shed_count(), 0);
        }
        // AdmitAll never starves anyone, whatever the shape.
        let open = pop
            .serve(|| Ok(SoftwareBackend::single(model.clone())), &PopulationConfig::default())
            .unwrap();
        prop_assert_eq!(open.shed_frames, 0);
        prop_assert!(open.events.is_empty());
        prop_assert!(open.tenants.iter().all(|t| t.conserved()));
    }
}

#[test]
fn the_ledger_order_is_pinned() {
    // Stagger 0 and two tenants on one capture put several tenants'
    // frames at one instant, where the tenant ordinal breaks the tie; a
    // one-frame tenant joins at one of those instants mid-stream, an
    // empty tenant never arrives, and a capture replayed as recorded
    // with its last two records swapped arrives out of order. Every
    // figure below was recorded from a ledger that sorted the whole
    // schedule by `(time, tenant, ordinal)`, and must repeat.
    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let model = pipeline
        .train(&pipeline.generate_capture())
        .unwrap()
        .int_mlp;
    let shared = capture(true, 0x0D0E, 40);
    let mut swapped = capture(true, 0x0D0F, 50).records().to_vec();
    let last = swapped.len() - 1;
    swapped.swap(last - 1, last);
    let population = Population::with_tenants(vec![
        TenantStream::new("shared-0", shared.clone()),
        TenantStream::new("shared-1", shared.clone()),
        TenantStream::new("parked", Dataset::from_records(Vec::new())),
        TenantStream::new(
            "one-frame",
            Dataset::from_records(vec![shared.records()[shared.len() / 2]]),
        ),
        TenantStream::new("swapped", Dataset::from_records(swapped)),
    ]);
    let config = PopulationConfig::default()
        .with_replay(
            ReplayConfig::default()
                .with_pacing(Pacing::AsRecorded)
                .with_batch(4),
        )
        .with_stagger(SimTime::ZERO)
        .with_admission(TenantAdmission::ShedLowestValueTenant {
            capacity: 2,
            window: 16,
        });
    let report = population
        .serve(|| Ok(SoftwareBackend::single(model.clone())), &config)
        .unwrap();

    let events: Vec<(u64, usize, TenantAction)> = report
        .events
        .iter()
        .map(|e| (e.time.as_nanos(), e.tenant, e.action))
        .collect();
    assert_eq!(
        events,
        [
            (254_000, 4, TenantAction::Shed),
            (20_270_000, 3, TenantAction::Shed),
            (40_138_000, 4, TenantAction::Readmit),
        ]
    );
    // Per tenant: serviced, dropped, shed frames, confirmed positives.
    let counts: Vec<[usize; 4]> = report
        .tenants
        .iter()
        .map(|t| {
            [
                t.serviced,
                t.dropped as usize,
                t.shed_frames,
                t.confirmed_positives,
            ]
        })
        .collect();
    assert_eq!(
        counts,
        [
            [159, 0, 0, 133],
            [159, 0, 0, 133],
            [0, 0, 0, 0],
            [0, 0, 1, 0],
            [41, 0, 158, 34],
        ]
    );
    assert_eq!(report.first_arrival, SimTime::from_nanos(254_000));
    assert_eq!(report.last_arrival, SimTime::from_nanos(50_247_766));
    assert_eq!(
        report.latency,
        LatencyStats {
            p50: SimTime::from_nanos(256_700),
            p99: SimTime::from_nanos(762_900),
            max: SimTime::from_nanos(900_900),
        }
    );
}
