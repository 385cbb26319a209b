//! Population serving: the fourth serving tier. A trained DoS detector
//! serves a whole vehicle population — eight synthetic tenant streams
//! plus one real-format HC-RL CSV capture — through the multi-tenant
//! layer above `ServeHarness`, first with open admission, then through a
//! deliberately undersized backend pool so cross-tenant admission
//! control sheds and readmits whole streams by measured value.
//!
//! ```sh
//! cargo run --release -p canids-core --example population_serving
//! ```

use canids_core::population::{Population, PopulationConfig, TenantAdmission, TenantStream};
use canids_core::prelude::*;

/// A miniature capture in the HC-RL car-hacking CSV format — the same
/// loader (`from_hcrl_csv`) ingests the full published dataset files.
const HCRL_SNIPPET: &str = "\
    Timestamp,ID,DLC,DATA0,DATA1,DATA2,DATA3,DATA4,DATA5,DATA6,DATA7,Flag\n\
    1478198376.389427,0x0316,8,05,21,68,09,21,21,00,6F,R\n\
    1478198376.389636,0x018F,2,FE,5B,,,,,,,R\n\
    1478198376.389864,0000,8,00,00,00,00,00,00,00,00,T\n\
    1478198376.390105,0x0260,8,19,21,22,30,08,8E,6D,3A,R\n\
    1478198376.390330,0000,8,00,00,00,00,00,00,00,00,T\n\
    1478198376.390561,0x02A0,8,64,00,9A,1D,97,02,BD,00,R\n\
    1478198376.390791,0000,8,00,00,00,00,00,00,00,00,T\n\
    1478198376.391015,0x0329,8,40,BB,7F,14,11,20,00,14,R\n";

fn main() -> Result<(), CoreError> {
    println!("canids population serving\n");

    let pipeline = IdsPipeline::new(PipelineConfig::dos().quick());
    let detector = pipeline.train(&pipeline.generate_capture())?;
    let model = detector.int_mlp.clone();
    println!(
        "detector trained: test-set F1 {:.2}%\n",
        detector.test_cm.f1() * 100.0
    );

    // The tenant registry: eight synthetic vehicles (uneven stream
    // lengths, half under DoS flood) plus one real-format CSV capture,
    // every stream paced at the 500 kb/s tenant default.
    let mut population = Population::new();
    for k in 0..8u64 {
        let capture = DatasetBuilder::new(TrafficConfig {
            duration: SimTime::from_millis(60 + 20 * k),
            attack: (k % 2 == 0)
                .then(|| AttackProfile::dos().with_schedule(BurstSchedule::Continuous)),
            seed: 0xCAB + k,
            ..TrafficConfig::default()
        })
        .build();
        population.push(TenantStream::new(format!("vehicle-{k}"), capture));
    }
    let hcrl = canids_dataset::csv::from_hcrl_csv(HCRL_SNIPPET, Label::Dos)
        .expect("the inline HC-RL snippet is well-formed");
    population.push(TenantStream::new("hcrl-car", hcrl).with_priority(1));

    let factory = || Ok(SoftwareBackend::single(model.clone()));

    // 1. Open admission: every tenant gets a backend for its whole
    // stream — the baseline capacity picture.
    let open = population.serve(factory, &PopulationConfig::default())?;
    let mut table = Table::new(
        "open admission: one backend per tenant",
        &canids_core::population::TenantReport::table_header(),
    );
    for t in &open.tenants {
        table.push_row(&t.table_row());
    }
    println!("{table}");
    println!(
        "population: {} tenants, {} frames offered, {} served ({}%), {} dropped, \
         pooled p99 {:.1} us\n",
        open.tenants.len(),
        open.offered,
        open.serviced,
        pct_of(open.serviced as u64, open.offered as u64),
        open.dropped,
        open.latency.p99.as_micros_f64()
    );

    // 2. Overload: nine live streams onto a three-slot pool. The
    // admission layer sheds the stream with the lowest windowed
    // confirmed-positive count (quiet vehicles yield to attacked ones)
    // and readmits the most valuable shed stream whenever a slot frees.
    let squeezed =
        PopulationConfig::default().with_admission(TenantAdmission::ShedLowestValueTenant {
            capacity: 3,
            window: 128,
        });
    let report = population.serve(factory, &squeezed)?;
    let mut table = Table::new(
        "three-slot pool: lowest-value tenant sheds first",
        &canids_core::population::TenantReport::table_header(),
    );
    for t in &report.tenants {
        table.push_row(&t.table_row());
    }
    println!("{table}");
    println!(
        "admission events: {} sheds, {} readmits; {} frames ({}%) passed shed",
        report.shed_count(),
        report.readmit_count(),
        report.shed_frames,
        pct_of(report.shed_frames as u64, report.offered as u64)
    );
    for e in report.events.iter().take(6) {
        println!(
            "  {:>10?}  {:?} {}",
            e.time, e.action, report.tenants[e.tenant].name
        );
    }

    // The report merge is bit-deterministic in tenant-ordinal order: on
    // the simulated ECU backend, as on the software backend (whose
    // service time is modelled on the same sim clock), any worker count
    // produces the identical fingerprint.
    let bundles = vec![detector.bundle(AttackKind::Dos)];
    let ecu_factory = || {
        Ok(EcuBackend::owning(deploy_multi_ids(
            &bundles,
            CompileConfig::default(),
        )?))
    };
    let wide = population.serve(ecu_factory, &squeezed)?;
    let single = population.serve(
        ecu_factory,
        &squeezed.clone().with_workers(ShardWorkers::Fixed(1)),
    )?;
    assert_eq!(
        wide.fingerprint(),
        single.fingerprint(),
        "population fingerprint must not depend on the worker pool"
    );
    println!("\nfingerprint invariant across worker pools (simulated ECU backend): ok");
    Ok(())
}
