//! The five determinism rules.
//!
//! Each rule guards one way the workspace's bit-exactness guarantees
//! (event-skip equivalence, analytic-vs-event-driven transport pinning,
//! digit-for-digit `BENCH_<n>.json` baselines) have historically been —
//! or could be — broken. Detection is token-level and heuristic by
//! design (see [`crate::lexer`]); precision comes from the explicit,
//! audited `// lint:allow(<rule>): <reason>` escape hatch, not from type
//! inference.

use crate::engine::{Context, SourceFile};
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;

/// Typed rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant::now`/`SystemTime` in simulated or report-producing
    /// code. Wall-clock reads make replays irreproducible; simulated
    /// time must come from `SimTime`. Every serving backend, the
    /// software one included, books service time on the sim clock, so
    /// the workspace carries no allow for this rule: host speed is
    /// measured by the out-of-workspace benchmark. The telemetry module
    /// gets no blanket exemption: a raw `Instant::now` there is a
    /// finding.
    WallclockInSim,
    /// `HashMap`/`HashSet` anywhere in the workspace. Their iteration
    /// order is randomised per process, so any fold, report line or
    /// float accumulation over them diverges run to run; `BTreeMap`/
    /// `BTreeSet` provide the same API with a deterministic order.
    UnorderedIteration,
    /// A narrowing `as` cast in frame-ID/DLC context. Silent `as`
    /// truncation is the exact bug class behind the 29-bit extended-ID
    /// fix in PR 2; ID/DLC values must go through the checked
    /// constructors (`CanId::standard_from_raw`, `Dlc::from_wire`,
    /// `try_from`).
    TruncatingCast,
    /// Float accumulation (`.sum()`, additive `fold`, `+=` on a float
    /// local) outside the pinned-order kernel helpers in `qnn::tensor`.
    /// Summation order is part of every float bit-exactness contract,
    /// so training and evaluation share one pinned order — accumulation
    /// anywhere else must name its order.
    FloatReassociation,
    /// `unwrap`/`expect`/`panic!` in non-test library code of the
    /// serving crates (`canids-core`, `canids-qnn`, `canids-soc`,
    /// `canids-dataflow`). Library panics take
    /// down whole serving harnesses; fallible paths must return the
    /// crate's typed error, and invariant-backed panics must document
    /// the invariant in an allow.
    PanicInLib,
    /// A malformed `lint:allow` comment (unknown rule id or missing
    /// `: <reason>`). Suppression must stay auditable, so a broken
    /// suppression is itself a finding.
    BadAllow,
}

/// Every real (matchable) rule, in documentation order.
pub const ALL_RULES: [Rule; 5] = [
    Rule::WallclockInSim,
    Rule::UnorderedIteration,
    Rule::TruncatingCast,
    Rule::FloatReassociation,
    Rule::PanicInLib,
];

impl Rule {
    /// Stable kebab-case id used in reports and `lint:allow`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallclockInSim => "wallclock-in-sim",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::TruncatingCast => "truncating-cast",
            Rule::FloatReassociation => "float-reassociation",
            Rule::PanicInLib => "panic-in-lib",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parses a rule id (as written inside `lint:allow(...)`).
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line rationale attached to every finding of this rule.
    pub fn explanation(self) -> &'static str {
        match self {
            Rule::WallclockInSim => {
                "wall-clock time in a simulated/report path breaks replay determinism; \
                 use SimTime, or justify with lint:allow(wallclock-in-sim)"
            }
            Rule::UnorderedIteration => {
                "HashMap/HashSet iteration order is randomised per process; use \
                 BTreeMap/BTreeSet or sort before iterating"
            }
            Rule::TruncatingCast => {
                "narrowing `as` cast on an ID/DLC-typed value can silently truncate \
                 (the PR 2 29-bit bug class); use the checked conversion helpers"
            }
            Rule::FloatReassociation => {
                "float accumulation outside qnn::tensor's pinned-order helpers; summation \
                 order is part of the bit-exactness contract — route through the pinned \
                 helpers or document the fixed order with lint:allow(float-reassociation)"
            }
            Rule::PanicInLib => {
                "panicking in serving-crate library code; return the crate's typed \
                 error or document the invariant with lint:allow(panic-in-lib)"
            }
            Rule::BadAllow => "malformed lint:allow comment",
        }
    }
}

/// Runs every rule over one lexed file, returning raw findings
/// (suppression is applied later by the engine).
pub fn run_rules(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    wallclock_in_sim(file, &mut out);
    unordered_iteration(file, &mut out);
    truncating_cast(file, &mut out);
    float_reassociation(file, &mut out);
    panic_in_lib(file, &mut out);
    // One finding per (rule, line): a single offending line never needs
    // more than one allow.
    out.sort_by_key(|a| (a.line, a.col, a.rule));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out
}

fn finding(file: &SourceFile, rule: Rule, tok: &Tok, what: &str) -> Finding {
    Finding {
        rule,
        file: file.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message: format!("{what}: {}", rule.explanation()),
    }
}

/// Rule 1: `Instant::now(...)` calls and any `SystemTime` mention in
/// non-test lib/bin code.
fn wallclock_in_sim(file: &SourceFile, out: &mut Vec<Finding>) {
    if !matches!(file.context, Context::Lib | Context::Bin) {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let hit = match t.text.as_str() {
            "Instant" => text(toks, i + 1) == Some("::") && text(toks, i + 2) == Some("now"),
            "SystemTime" => true,
            _ => false,
        };
        if hit {
            out.push(finding(
                file,
                Rule::WallclockInSim,
                t,
                &format!("`{}`", t.text),
            ));
        }
    }
}

/// Rule 2: any `HashMap`/`HashSet` identifier, in every context — test
/// code included, because statistical assertions that fold floats over
/// an unordered map (the PR 4 jitter pins) are exactly as order-sensitive
/// as report code.
fn unordered_iteration(file: &SourceFile, out: &mut Vec<Finding>) {
    for t in &file.lexed.tokens {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(finding(
                file,
                Rule::UnorderedIteration,
                t,
                &format!("`{}`", t.text),
            ));
        }
    }
}

/// Narrow integer targets a truncating `as` cast can hit.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Rule 3: `<expr> as <narrow-int>` where the surrounding statement or
/// line names an ID/DLC-like identifier.
fn truncating_cast(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_INTS.contains(&target.text.as_str()) {
            continue;
        }
        // `as` only narrows when the source is wider; token-level we
        // approximate "ID/DLC-typed source" by the identifiers in reach.
        let in_reach = statement_range(toks, i, &[";", "{", "}", ","])
            .chain(same_line(toks, t.line))
            .any(|j| toks[j].kind == TokKind::Ident && is_id_like(&toks[j].text));
        if in_reach {
            out.push(finding(
                file,
                Rule::TruncatingCast,
                t,
                &format!("`as {}` on an ID/DLC-context value", target.text),
            ));
        }
    }
}

/// `true` for identifiers that look frame-ID- or DLC-typed.
fn is_id_like(t: &str) -> bool {
    let t = t.to_ascii_lowercase();
    t == "id"
        || t == "ids"
        || t == "dlc"
        || t == "canid"
        || t == "frameid"
        || t.starts_with("id_")
        || t.ends_with("_id")
        || t.contains("_id_")
        || t.ends_with("_ids")
        || t.starts_with("dlc_")
        || t.ends_with("_dlc")
        || t.contains("_dlc_")
}

/// The pinned-order accumulation primitives in `qnn::tensor` — the
/// functions that *define* the workspace's summation order. Float
/// accumulation inside these bodies is the contract, not a violation;
/// accumulation in any other `tensor.rs` function is a reassociation
/// point and must carry its own audited allow. No such site exists:
/// training and evaluation share the pinned order.
const PINNED_TENSOR_FNS: [&str; 6] = [
    "dot8",
    "dot",
    "pinned_sum_f32",
    "pinned_sum_f64",
    "linear_backward_input",
    "linear_backward_params",
];

/// Rule 4: float accumulation outside `qnn::tensor`'s pinned-order
/// helpers.
fn float_reassociation(file: &SourceFile, out: &mut Vec<Finding>) {
    if !matches!(file.context, Context::Lib | Context::Bin) {
        return;
    }
    // `qnn::tensor` defines the accumulation order, so it gets
    // function-level treatment instead of the token-level scan: each
    // non-blessed function that accumulates floats is one finding,
    // anchored at its `fn` line, so a reassociated kernel is exactly one
    // auditable allow and nothing else in the file can silently reorder.
    if file.rel_path.ends_with("crates/qnn/src/tensor.rs")
        || file.rel_path == "crates/qnn/src/tensor.rs"
    {
        tensor_float_reassociation(file, out);
        return;
    }
    let toks = &file.lexed.tokens;

    // Track local float bindings: `let mut x = 0.0;` / `let mut x: f64`.
    let float_locals = collect_float_locals(toks);

    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        // (a) `.sum()` / `.sum::<fN>()` with a float type in reach.
        if t.kind == TokKind::Ident && t.text == "sum" && text(toks, i.wrapping_sub(1)) == Some(".")
        {
            // `.sum::<uN/iN>()` accumulates integers exactly — the
            // turbofish names the accumulator type, so trust it.
            if text(toks, i + 1) == Some("::")
                && text(toks, i + 2) == Some("<")
                && toks.get(i + 3).is_some_and(|ty| is_int_type(&ty.text))
            {
                continue;
            }
            let floaty = statement_range(toks, i, &[";", "{", "}"])
                .chain(same_line(toks, t.line))
                .any(|j| is_float_hint(&toks[j]));
            if floaty {
                out.push(finding(file, Rule::FloatReassociation, t, "float `.sum()`"));
            }
            continue;
        }
        // (b) `.fold(...)` whose arguments add, with a float in reach.
        if t.kind == TokKind::Ident
            && t.text == "fold"
            && text(toks, i.wrapping_sub(1)) == Some(".")
        {
            if let Some(args) = call_args(toks, i + 1) {
                let adds = args.clone().any(|j| {
                    toks[j].kind == TokKind::Punct && (toks[j].text == "+" || toks[j].text == "+=")
                });
                let floaty = args.clone().any(|j| is_float_hint(&toks[j]))
                    || statement_range(toks, i, &[";", "{", "}"]).any(|j| is_float_hint(&toks[j]));
                if adds && floaty {
                    out.push(finding(
                        file,
                        Rule::FloatReassociation,
                        t,
                        "additive float `.fold(..)`",
                    ));
                }
            }
            continue;
        }
        // (c) `x += ...` where `x` is a tracked float local.
        if t.kind == TokKind::Punct && t.text == "+=" && i > 0 {
            let lhs = &toks[i - 1];
            if lhs.kind == TokKind::Ident && float_locals.contains(&lhs.text) {
                out.push(finding(
                    file,
                    Rule::FloatReassociation,
                    lhs,
                    &format!("`{} +=` float accumulation", lhs.text),
                ));
            }
        }
    }
}

/// Rule 4's function-level pass over `qnn::tensor` itself: flags every
/// non-test function whose body accumulates (`+=`, `.sum`, `.fold`)
/// unless the function is one of the [`PINNED_TENSOR_FNS`]. The finding
/// anchors at the `fn` line, so one reassociated kernel needs exactly
/// one `lint:allow(float-reassociation)` regardless of how many
/// accumulator lanes its body carries.
fn tensor_float_reassociation(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "fn" || file.is_test_line(t.line) {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.kind != TokKind::Ident {
            continue;
        }
        // The body is the first brace-matched block after the signature.
        let mut j = i + 2;
        while j < toks.len() && text(toks, j) != Some("{") {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let body = &toks[body_start..j.min(toks.len())];
        // Float accumulation only: `+=` into an indexed slot (the lane
        // arrays are all f32 here) or a tracked float local. Integer
        // loop counters (`o += 8`) are not accumulation.
        let float_locals = collect_float_locals(body);
        let accumulates = body.iter().enumerate().any(|(k, b)| {
            if b.kind == TokKind::Punct && b.text == "+=" && k > 0 {
                let lhs = &body[k - 1];
                return lhs.text == "]"
                    || (lhs.kind == TokKind::Ident && float_locals.contains(&lhs.text));
            }
            b.kind == TokKind::Ident
                && (b.text == "sum" || b.text == "fold")
                && k > 0
                && body[k - 1].text == "."
        });
        if accumulates && !PINNED_TENSOR_FNS.contains(&name.text.as_str()) {
            out.push(finding(
                file,
                Rule::FloatReassociation,
                t,
                &format!(
                    "fn `{}` accumulates floats outside the pinned-order helpers",
                    name.text
                ),
            ));
        }
    }
}

/// Names bound by `let [mut] NAME` where the initialiser or type
/// annotation is visibly floating-point.
fn collect_float_locals(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "let" {
            continue;
        }
        let mut j = i + 1;
        if text(toks, j) == Some("mut") {
            j += 1;
        }
        let Some(name) = toks.get(j) else { continue };
        if name.kind != TokKind::Ident {
            continue;
        }
        // Scan the rest of the statement for a float hint. A float
        // literal that is merely the RHS of a comparison (`x == 0.0`)
        // says nothing about the binding's own type.
        let stmt: Vec<usize> = statement_range(toks, j, &[";", "{", "}"]).collect();
        let floaty = stmt.iter().any(|&k| {
            is_float_hint(&toks[k])
                && !(k > 0
                    && toks[k - 1].kind == TokKind::Punct
                    && matches!(
                        toks[k - 1].text.as_str(),
                        "==" | "!=" | "<" | ">" | "<=" | ">="
                    ))
        });
        if !floaty {
            continue;
        }
        // A trailing integer cast (`.. as i64;`) pins the binding to an
        // integer type even when the expression passes through floats.
        let last_as = stmt
            .iter()
            .rev()
            .find(|&&k| toks[k].kind == TokKind::Ident && toks[k].text == "as");
        if let Some(&k) = last_as {
            if toks.get(k + 1).is_some_and(|ty| is_int_type(&ty.text)) {
                continue;
            }
        }
        names.push(name.text.clone());
    }
    names
}

/// `true` when the token indicates floating-point arithmetic.
fn is_float_hint(t: &Tok) -> bool {
    t.kind == TokKind::Float || (t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64"))
}

/// `true` for any primitive integer type name.
fn is_int_type(s: &str) -> bool {
    matches!(
        s,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// Library source trees [`panic_in_lib`] scans.
const PANIC_FREE_LIBS: [&str; 4] = [
    "crates/core/src",
    "crates/qnn/src",
    "crates/soc/src",
    "crates/dataflow/src",
];

/// Rule 5: `unwrap()` / `expect(..)` / `panic!` in the non-test library
/// code of [`PANIC_FREE_LIBS`].
fn panic_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    let scanned = PANIC_FREE_LIBS
        .iter()
        .any(|root| file.rel_path.starts_with(root));
    if file.context != Context::Lib || !scanned {
        return;
    }
    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || file.is_test_line(t.line) {
            continue;
        }
        let hit = match t.text.as_str() {
            "unwrap" | "expect" => {
                text(toks, i.wrapping_sub(1)) == Some(".") && text(toks, i + 1) == Some("(")
            }
            "panic" => text(toks, i + 1) == Some("!"),
            _ => false,
        };
        if hit {
            out.push(finding(file, Rule::PanicInLib, t, &format!("`{}`", t.text)));
        }
    }
}

/// The text of token `i`, if any.
fn text(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

/// Token indices of the statement around `i`: walk back and forward to
/// the nearest boundary punctuation (exclusive).
fn statement_range<'a>(
    toks: &'a [Tok],
    i: usize,
    boundaries: &'a [&'a str],
) -> impl Iterator<Item = usize> + Clone + 'a {
    let is_boundary = move |j: usize| {
        toks[j].kind == TokKind::Punct && boundaries.contains(&toks[j].text.as_str())
    };
    let mut start = i;
    while start > 0 && !is_boundary(start - 1) {
        start -= 1;
    }
    let mut end = i;
    while end + 1 < toks.len() && !is_boundary(end + 1) {
        end += 1;
    }
    start..=end
}

/// Token indices on the given source line.
fn same_line(toks: &[Tok], line: usize) -> impl Iterator<Item = usize> + Clone + '_ {
    (0..toks.len()).filter(move |&j| toks[j].line == line)
}

/// Token indices of a call's arguments: `open` must point at `(`;
/// returns the indices strictly inside the matching parentheses.
fn call_args(toks: &[Tok], open: usize) -> Option<std::ops::Range<usize>> {
    if text(toks, open) != Some("(") {
        // Tolerate a turbofish between the method name and the parens.
        return None;
    }
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "(" => depth += 1,
            ")" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    Some(open + 1..j.saturating_sub(1))
}
