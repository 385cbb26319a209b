//! Self-tests of the benchmark: deterministic inputs, the printed metric
//! set against `BENCHMARK.json`, and tiny smoke runs passing the checks.
//!
//! ```sh
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use canids_perfbench::workloads::{setup, Runner, Size, Workload};
use canids_perfbench::{run, Options, Outcome};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: 11,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    })
    .unwrap_or_else(|e| panic!("{} tiny run failed: {e}", workload.name()))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = &item[..item.find('"').expect("name closes")];
            let unit_at = item.find("\"unit\": \"").expect("metric has a unit") + 9;
            let unit = &item[unit_at..unit_at + item[unit_at..].find('"').expect("unit closes")];
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

fn assert_metrics_match(outcome: &Outcome, section: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
    let line = outcome.result_line();
    for (name, unit) in &want {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing in {line}"));
        let rest = &line[at + key.len()..];
        let end = rest.find(',').expect("value ends");
        let value: f64 = rest[..end]
            .parse()
            .unwrap_or_else(|_| panic!("{name} value is not a number"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} printed without its unit"
        );
    }
    assert!(line.starts_with("{\"correct\": "), "result object shape");
}

fn has_line(outcome: &Outcome, needle: &str) -> bool {
    outcome.lines.iter().any(|l| l.contains(needle))
}

#[test]
fn same_seed_same_inputs() {
    for workload in Workload::ALL {
        let a = setup(workload, 5, Size::Tiny).expect("set-up");
        let b = setup(workload, 5, Size::Tiny).expect("set-up");
        let c = setup(workload, 6, Size::Tiny).expect("set-up");
        assert_eq!(a.captures.len(), b.captures.len());
        for (x, y) in a.captures.iter().zip(&b.captures) {
            assert_eq!(x.records(), y.records(), "{}: same seed", workload.name());
        }
        assert_eq!(a.models, b.models, "{}: same detectors", workload.name());
        assert!(
            a.captures
                .iter()
                .zip(&c.captures)
                .any(|(x, y)| x.records() != y.records()),
            "{}: another seed gives other captures",
            workload.name()
        );
    }
}

#[test]
fn end_to_end_metrics_are_printed_with_units_and_checks_pass() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, false);
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.lines);
        assert_eq!(outcome.failed, 0);
        assert!(outcome.attempted >= 1);
        assert_metrics_match(&outcome, "end_to_end");
        for needle in [
            "frames_offered:",
            "frames_failed:",
            "serve.capacity_model_fps",
            "provenance: git=",
        ] {
            assert!(
                has_line(&outcome, needle),
                "{}: no {needle}",
                workload.name()
            );
        }
        let gaps = workload != Workload::Population64x16;
        assert_eq!(has_line(&outcome, "verdict_gap_p50_us"), gaps);
        assert_eq!(has_line(&outcome, "verdict_gap_p99_us"), gaps);
        let sim = workload == Workload::Fleet12;
        assert_eq!(has_line(&outcome, "sim_latency_p99_us"), sim);
        assert_eq!(has_line(&outcome, "sim_energy_per_msg_mj"), sim);
    }
}

#[test]
fn per_layer_metrics_are_printed_with_units_and_checks_pass() {
    for workload in Workload::ALL {
        let outcome = tiny(workload, true);
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.lines);
        assert_metrics_match(&outcome, "per_layer");
        assert!(has_line(&outcome, "budget.residual_frac"));
        assert!(has_line(&outcome, "trace.overhead_frac"));
        let spans = outcome.trace_json.expect("traced run keeps its spans");
        assert!(spans.contains("\"name\":\"e2e.untraced\""));
        assert!(spans.contains("\"parent\":"));
    }
}

#[test]
fn simulated_fleet_facts_repeat_exactly() {
    let facts = |_: u32| {
        let inputs = setup(Workload::Fleet12, 3, Size::Tiny).expect("set-up");
        let mut runner = Runner::new(&inputs, Size::Tiny);
        runner
            .call()
            .expect("fleet call")
            .sim
            .expect("fleet reports sim facts")
    };
    assert_eq!(facts(0), facts(1));
}

#[test]
fn a_wrong_verdict_is_caught() {
    let inputs = setup(Workload::Line1m, 3, Size::Tiny).expect("set-up");
    let mut runner = Runner::new(&inputs, Size::Tiny);
    assert!(runner.call().expect("line call").correct());
    runner.refs[0][0] ^= 1;
    let broken = runner.call().expect("line call");
    assert_eq!(broken.mismatched, 1);
    assert!(!broken.correct());
}
