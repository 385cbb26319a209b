//! The fixture corpus: one true-positive and one audited-suppression
//! mini-workspace per rule, plus a malformed-suppression case and a
//! clean tree. Each fixture is a directory shaped like a real
//! workspace (`crates/<name>/src/lib.rs`) so path-based rule scoping
//! applies exactly as it does at the repository root.

use canids_lint::{audit_workspace, Rule};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The bad fixture trips exactly this rule; the allowed twin is clean
/// and records one used suppression for it.
fn check_pair(rule: Rule, bad: &str, allowed: &str) {
    let report = audit_workspace(&fixture(bad)).unwrap();
    assert!(
        report.findings.iter().any(|f| f.rule == rule),
        "{bad} must trip {}: {:?}",
        rule.id(),
        report.findings
    );
    assert!(
        report.findings.iter().all(|f| f.rule == rule),
        "{bad} must trip only {}: {:?}",
        rule.id(),
        report.findings
    );

    let report = audit_workspace(&fixture(allowed)).unwrap();
    assert!(
        report.clean(),
        "{allowed} must be clean: {:?}",
        report.findings
    );
    let used: Vec<_> = report.allows.iter().filter(|a| a.used).collect();
    assert_eq!(used.len(), 1, "{allowed} has one used allow");
    assert_eq!(used[0].rule, rule);
    assert!(!used[0].reason.is_empty(), "allows always carry a reason");
}

#[test]
fn wallclock_in_sim_pair() {
    check_pair(Rule::WallclockInSim, "wallclock_bad", "wallclock_allowed");
}

/// The telemetry module gets no blanket exemption from the rule: a raw
/// `Instant::now` inside `crates/core/src/telemetry.rs` is a finding,
/// and only an explicit allow suppresses it. (The real workspace reads
/// no host clock there, or anywhere in the serving core.)
#[test]
fn wallclock_in_telemetry_shim_pair() {
    check_pair(
        Rule::WallclockInSim,
        "wallclock_telemetry",
        "wallclock_telemetry_allowed",
    );
}

#[test]
fn unordered_iteration_pair() {
    check_pair(
        Rule::UnorderedIteration,
        "unordered_bad",
        "unordered_allowed",
    );
}

#[test]
fn truncating_cast_pair() {
    check_pair(Rule::TruncatingCast, "truncating_bad", "truncating_allowed");
}

#[test]
fn float_reassociation_pair() {
    check_pair(Rule::FloatReassociation, "float_bad", "float_allowed");
}

#[test]
fn panic_in_lib_pair() {
    check_pair(Rule::PanicInLib, "panic_bad", "panic_allowed");
}

/// `panic-in-lib` scans the baselines and the lint's own library
/// code too: an `.unwrap()` or `.expect(..)` there is a finding.
#[test]
fn panic_in_lib_covers_baselines_and_lint() {
    let report = audit_workspace(&fixture("panic_baselines")).unwrap();
    let mut files: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::PanicInLib)
        .map(|f| f.file.as_str())
        .collect();
    files.sort_unstable();
    assert_eq!(
        files,
        ["crates/baselines/src/lib.rs", "crates/lint/src/lib.rs"],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
}

#[test]
fn tensor_reassociation_pair() {
    check_pair(
        Rule::FloatReassociation,
        "tensor_reassoc_bad",
        "tensor_reassoc_allowed",
    );
}

/// Inside `qnn::tensor` the rule works per function: the pinned-order
/// helpers accumulate freely, while a reassociated kernel is exactly
/// one finding anchored at its `fn` line (one allow per kernel, not
/// one per accumulator lane).
#[test]
fn tensor_blessing_is_function_scoped() {
    let report = audit_workspace(&fixture("tensor_reassoc_bad")).unwrap();
    assert_eq!(
        report.findings.len(),
        1,
        "one finding per unblessed kernel: {:?}",
        report.findings
    );
    let f = &report.findings[0];
    assert_eq!(f.rule, Rule::FloatReassociation);
    assert!(
        f.message.contains("dot_lanes"),
        "finding names the kernel: {}",
        f.message
    );
    // `pinned_sum_f32` accumulates on line 4 of the fixture; the only
    // finding must anchor at the unblessed kernel's `fn` line instead.
    assert_eq!(f.line, 9, "anchored at `pub fn dot_lanes`: {f:?}");
}

#[test]
fn malformed_suppressions_are_findings() {
    let report = audit_workspace(&fixture("bad_allow")).unwrap();
    let bad: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::BadAllow)
        .collect();
    assert_eq!(
        bad.len(),
        2,
        "missing reason and unknown rule are both findings: {:?}",
        report.findings
    );
    // A malformed allow suppresses nothing: the unwraps still surface.
    assert!(report.findings.iter().any(|f| f.rule == Rule::PanicInLib));
}

#[test]
fn clean_tree_is_clean() {
    let report = audit_workspace(&fixture("clean")).unwrap();
    assert!(report.clean(), "{:?}", report.findings);
    assert!(report.allows.is_empty());
    assert_eq!(report.files.len(), 1);
}
