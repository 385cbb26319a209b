//! # `canids-lint` — the workspace determinism auditor
//!
//! Every headline guarantee in this repro rests on bit-for-bit
//! determinism: the event-driven transport is pinned to the analytic
//! gateway path via `f64::to_bits`, the event-skip simulator and the
//! harness unification were accepted only because reports matched digit
//! for digit, and training and evaluation share one float summation
//! order because nothing outside `qnn::tensor`'s pinned-order helpers
//! may reorder a float sum. This crate is the static enforcement of
//! those invariants: a dependency-free, token-level analysis pass
//! (hand-rolled lexer, no `syn` — crates.io is unreachable here) with
//! five rules, an explicit audited suppression syntax, and a JSON
//! report CI can trend.
//!
//! ## Rules
//!
//! | id | guards against |
//! |----|----------------|
//! | `wallclock-in-sim` | `Instant::now`/`SystemTime` in simulated or report paths |
//! | `unordered-iteration` | `HashMap`/`HashSet` (randomised iteration order) |
//! | `truncating-cast` | narrowing `as` casts on frame-ID/DLC values |
//! | `float-reassociation` | float accumulation outside `qnn::tensor`'s pinned-order helpers |
//! | `panic-in-lib` | `unwrap`/`expect`/`panic!` in `canids-core`, `canids-qnn`, `canids-soc` and `canids-dataflow` library code |
//!
//! ## Suppression
//!
//! ```text
//! let t0 = Instant::now(); // lint:allow(wallclock-in-sim): measures real service time
//! ```
//!
//! The reason is mandatory; a malformed allow is itself a finding
//! (`bad-allow`). An allow may also sit on its own comment line
//! directly above the offending line. The JSON report enumerates every
//! allow with its rule id and reason, so suppressions stay auditable
//! and their count per rule can be trended.
//!
//! ## Example
//!
//! ```
//! use canids_lint::{audit_source, Report, Rule};
//!
//! let mut report = Report::default();
//! audit_source(
//!     "crates/core/src/example.rs",
//!     "pub fn f() -> u32 { None::<u32>.unwrap() }",
//!     &mut report,
//! );
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].rule, Rule::PanicInLib);
//! ```

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{audit_source, audit_workspace, classify, Context, SourceFile};
pub use report::{Allow, Finding, Report};
pub use rules::{Rule, ALL_RULES};
