//! File walking, rule scoping and suppression handling.
//!
//! The engine walks `crates/`, `examples/` and `tests/` under a
//! workspace root (skipping `vendor/`, `target/` and fixture trees),
//! lexes every `.rs` file, classifies it by path, marks `#[cfg(test)]`
//! / `#[test]` spans, runs the rules and applies
//! `// lint:allow(<rule>): <reason>` suppressions.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Comment, Lexed, Tok};
use crate::report::{Allow, Finding, Report};
use crate::rules::{run_rules, Rule};

/// What kind of target a file belongs to, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    /// Library source (`crates/<c>/src/**`, outside `src/bin`).
    Lib,
    /// Binary source (`crates/<c>/src/bin/**` or `src/main.rs`).
    Bin,
    /// Example (`examples/**`).
    Example,
    /// Integration or unit test tree (`tests/**`, `crates/<c>/tests/**`).
    Test,
    /// Criterion bench (`crates/<c>/benches/**`).
    Bench,
}

/// A lexed file plus everything the rules need to scope themselves.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Target classification.
    pub context: Context,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Inclusive line ranges inside `#[cfg(test)]` modules and
    /// `#[test]` functions.
    pub test_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    /// `true` when `line` sits inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> Context {
    if rel_path.starts_with("examples/") {
        Context::Example
    } else if rel_path.starts_with("tests/") || rel_path.contains("/tests/") {
        Context::Test
    } else if rel_path.contains("/benches/") {
        Context::Bench
    } else if rel_path.contains("/src/bin/") || rel_path.ends_with("/src/main.rs") {
        Context::Bin
    } else {
        Context::Lib
    }
}

/// Marks the line spans of `#[cfg(test)] mod … { … }` and
/// `#[test] fn … { … }` items, so rules scoped to non-test code can
/// skip them. `#[cfg(not(test))]` does not count.
fn test_spans(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let (attr, after) = attr_tokens(tokens, i + 1);
        let names: Vec<&str> = attr.iter().map(|t| t.text.as_str()).collect();
        let is_cfg_test =
            names.first() == Some(&"cfg") && names.contains(&"test") && !names.contains(&"not");
        let is_test_attr = names == ["test"] || names.first() == Some(&"bench");
        if !(is_cfg_test || is_test_attr) {
            i = after;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = after;
        while tokens.get(k).map(|t| t.text.as_str()) == Some("#")
            && tokens.get(k + 1).map(|t| t.text.as_str()) == Some("[")
        {
            k = attr_tokens(tokens, k + 1).1;
        }
        // Find the item's opening brace (a `;` first means no body).
        let mut b = k;
        while b < tokens.len() && tokens[b].text != "{" && tokens[b].text != ";" {
            b += 1;
        }
        if b < tokens.len() && tokens[b].text == "{" {
            let mut depth = 1usize;
            let mut e = b + 1;
            while e < tokens.len() && depth > 0 {
                match tokens[e].text.as_str() {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    _ => {}
                }
                e += 1;
            }
            spans.push((tokens[i].line, tokens[e.saturating_sub(1)].line));
        }
        i = after;
    }
    spans
}

/// Returns the tokens inside `#[...]` (given `open` pointing at `[`)
/// and the index just past the closing `]`.
fn attr_tokens(tokens: &[Tok], open: usize) -> (&[Tok], usize) {
    let mut depth = 1usize;
    let mut j = open + 1;
    while j < tokens.len() && depth > 0 {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => depth -= 1,
            _ => {}
        }
        j += 1;
    }
    (&tokens[open + 1..j.saturating_sub(1)], j)
}

/// A parsed suppression comment.
struct ParsedAllow {
    line: usize,
    rule: Result<Rule, String>,
    reason: String,
}

/// Extracts `lint:allow(<rule>): <reason>` from line comments. The
/// directive must start the comment (`// lint:allow(...)`): prose or
/// doc text that merely *mentions* the syntax mid-sentence is not a
/// suppression.
fn parse_allows(comments: &[Comment]) -> Vec<ParsedAllow> {
    let mut out = Vec::new();
    for c in comments {
        let trimmed = c.text.trim_start();
        if !trimmed.starts_with("lint:allow(") {
            continue;
        }
        let rest = &trimmed["lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            out.push(ParsedAllow {
                line: c.line,
                rule: Err("unclosed rule id".to_string()),
                reason: String::new(),
            });
            continue;
        };
        let id = rest[..close].trim().to_string();
        let tail = &rest[close + 1..];
        let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
        let rule = Rule::from_id(&id).ok_or(format!("unknown rule `{id}`"));
        let rule = if reason.is_empty() {
            rule.and(Err("missing `: <reason>` justification".to_string()))
        } else {
            rule
        };
        out.push(ParsedAllow {
            line: c.line,
            rule,
            reason: reason.to_string(),
        });
    }
    out
}

/// Audits one source file. `rel_path` drives rule scoping; the path
/// does not need to exist on disk (fixtures use virtual paths).
pub fn audit_source(rel_path: &str, src: &str, report: &mut Report) {
    let lexed = lex(src);
    let spans = test_spans(&lexed.tokens);
    let file = SourceFile {
        rel_path: rel_path.to_string(),
        context: classify(rel_path),
        lexed,
        test_spans: spans,
    };
    let findings = run_rules(&file);
    let parsed = parse_allows(&file.lexed.comments);

    let mut allows: Vec<Allow> = Vec::new();
    for p in &parsed {
        match &p.rule {
            Ok(rule) => allows.push(Allow {
                rule: *rule,
                file: rel_path.to_string(),
                line: p.line,
                reason: p.reason.clone(),
                used: false,
            }),
            Err(msg) => report.findings.push(Finding {
                rule: Rule::BadAllow,
                file: rel_path.to_string(),
                line: p.line,
                col: 1,
                message: format!("{msg}: {}", Rule::BadAllow.explanation()),
            }),
        }
    }

    // An allow suppresses findings of its rule on its own line
    // (trailing form) or on the next line (comment-above form).
    for f in findings {
        let mut suppressed = false;
        for a in allows.iter_mut() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                a.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            report.findings.push(f);
        }
    }
    report.allows.extend(allows);
    report.files.push(rel_path.to_string());
}

/// Directory names never descended into: external code, build output,
/// and lint fixture corpora (which contain deliberate violations).
const SKIP_DIRS: [&str; 4] = ["vendor", "target", "fixtures", ".git"];

/// The root directories audited, relative to the workspace root.
const SCAN_ROOTS: [&str; 3] = ["crates", "examples", "tests"];

/// Collects every `.rs` file under the scan roots, sorted, as paths
/// relative to `root`.
fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut rels: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(PathBuf::from))
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audits the whole workspace under `root`: walks the scan roots and
/// runs every rule over every file.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or from reading a file.
pub fn audit_workspace(root: &Path) -> io::Result<Report> {
    if !root.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("workspace root {} is not a directory", root.display()),
        ));
    }
    let mut report = Report::default();
    for rel in collect_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        audit_source(&rel_str, &src, &mut report);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_by_path() {
        assert_eq!(classify("crates/core/src/serve.rs"), Context::Lib);
        assert_eq!(
            classify("crates/bench/src/bin/table1_accuracy.rs"),
            Context::Bin
        );
        assert_eq!(classify("examples/quickstart.rs"), Context::Example);
        assert_eq!(classify("tests/serving_api.rs"), Context::Test);
        assert_eq!(
            classify("crates/can/tests/proptest_codec.rs"),
            Context::Test
        );
        assert_eq!(
            classify("crates/bench/benches/substrates.rs"),
            Context::Bench
        );
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n";
        let lexed = lex(src);
        let spans = test_spans(&lexed.tokens);
        assert_eq!(spans, vec![(2, 5)]);
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn t() {}\n}\n";
        let lexed = lex(src);
        assert!(test_spans(&lexed.tokens).is_empty());
    }

    #[test]
    fn test_attr_fn_is_marked() {
        let src = "fn lib() {}\n#[test]\nfn check() {\n    assert!(true);\n}\n";
        let lexed = lex(src);
        assert_eq!(test_spans(&lexed.tokens), vec![(2, 5)]);
    }

    #[test]
    fn allow_requires_known_rule_and_reason() {
        let mut report = Report::default();
        audit_source(
            "crates/core/src/x.rs",
            "// lint:allow(panic-in-lib) missing colon\nfn f() {}\n\
             // lint:allow(nonsense-rule): reason\nfn g() {}\n",
            &mut report,
        );
        assert_eq!(report.findings.len(), 2);
        assert!(report.findings.iter().all(|f| f.rule == Rule::BadAllow));
    }

    #[test]
    fn panic_in_lib_scans_the_serving_libraries_only() {
        let src = "pub fn head(xs: &[u8]) -> u8 {\n    *xs.first().unwrap()\n}\n";
        for (path, findings) in [
            ("crates/core/src/x.rs", 1),
            ("crates/qnn/src/layers/x.rs", 1),
            ("crates/soc/src/x.rs", 1),
            ("crates/dataflow/src/x.rs", 1),
            ("crates/dataset/src/x.rs", 0),
            ("crates/qnn/tests/x.rs", 0),
        ] {
            let mut report = Report::default();
            audit_source(path, src, &mut report);
            assert_eq!(report.findings.len(), findings, "{path}");
            if let Some(f) = report.findings.first() {
                assert_eq!(f.rule, Rule::PanicInLib);
                assert!(!f.message.contains("canids-core"), "{}", f.message);
            }
        }
    }

    #[test]
    fn trailing_and_above_allow_forms_suppress() {
        let mut report = Report::default();
        audit_source(
            "crates/x/src/a.rs",
            "use std::collections::HashMap; // lint:allow(unordered-iteration): keyed lookup only\n\
             // lint:allow(unordered-iteration): keyed lookup only\n\
             type M = HashMap<u32, u32>;\n",
            &mut report,
        );
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.allows.len(), 2);
        assert!(report.allows.iter().all(|a| a.used));
    }
}
