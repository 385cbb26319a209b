//! The self-check that makes the auditor a gate: the workspace at HEAD
//! is clean, every suppression in it is used and reasoned, and the
//! `canids_lint` binary maps findings to exit codes the CI step can
//! key on.

use canids_lint::{audit_workspace, Rule};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

#[test]
fn workspace_is_clean_at_head() {
    let report = audit_workspace(&repo_root()).unwrap();
    assert!(
        report.clean(),
        "the workspace must audit clean:\n{}",
        report.render_text()
    );
    // Every committed suppression pulls its weight: it names a real
    // rule, carries a reason, and actually masks a finding. A stale
    // allow (whose finding was since fixed) fails here so it gets
    // removed rather than rotting.
    assert!(!report.allows.is_empty(), "HEAD carries audited allows");
    for allow in &report.allows {
        assert!(
            !allow.reason.is_empty(),
            "allow without reason at {}:{}",
            allow.file,
            allow.line
        );
        assert!(
            allow.used,
            "stale allow ({}) at {}:{} suppresses nothing — remove it",
            allow.rule.id(),
            allow.file,
            allow.line
        );
    }
    // `qnn::tensor` owns the workspace's float summation order, and
    // every kernel in it keeps that order: none may carry an allow to
    // reorder a float sum.
    let tensor_allows: Vec<usize> = report
        .allows
        .iter()
        .filter(|a| a.rule == Rule::FloatReassociation && a.file == "crates/qnn/src/tensor.rs")
        .map(|a| a.line)
        .collect();
    assert!(
        tensor_allows.is_empty(),
        "crates/qnn/src/tensor.rs carries float-reassociation allows at lines {tensor_allows:?}"
    );
}

fn run_lint(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_canids_lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("canids_lint runs")
}

#[test]
fn cli_exit_codes_gate_ci() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");

    // Findings -> exit 1, for every true-positive fixture.
    for bad in [
        "wallclock_bad",
        "unordered_bad",
        "truncating_bad",
        "float_bad",
        "tensor_reassoc_bad",
        "panic_bad",
        "bad_allow",
    ] {
        let out = run_lint(&fixtures.join(bad), &["--quiet"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{bad} must fail the build: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    // Audited suppressions and clean trees -> exit 0.
    for good in [
        "wallclock_allowed",
        "unordered_allowed",
        "truncating_allowed",
        "float_allowed",
        "tensor_reassoc_allowed",
        "panic_allowed",
        "clean",
    ] {
        let out = run_lint(&fixtures.join(good), &["--quiet"]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{good} must pass: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }

    // The workspace itself passes — the exact invocation CI runs.
    let out = run_lint(&repo_root(), &[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace audit: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // A missing root is a usage error, distinct from findings.
    let out = run_lint(&fixtures.join("no_such_dir"), &["--quiet"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_json_report_enumerates_allows() {
    let json_path = std::env::temp_dir().join("canids_lint_fixture_report.json");
    let out = run_lint(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/panic_allowed"),
        &["--quiet", "--json", json_path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(0));
    let json = std::fs::read_to_string(&json_path).unwrap();
    std::fs::remove_file(&json_path).ok();
    // Hand-rolled JSON: spot-check the schema rather than parse it.
    assert!(json.contains("\"findings\": []"), "{json}");
    assert!(json.contains("\"rule\": \"panic-in-lib\""), "{json}");
    assert!(
        json.contains("caller contract guarantees a non-empty slice"),
        "{json}"
    );
    assert!(json.contains("\"used\": true"), "{json}");
}
