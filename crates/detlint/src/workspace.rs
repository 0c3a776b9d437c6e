//! Workspace discovery and the full lint run.
//!
//! File discovery is deliberately simple and deterministic: the fixed
//! crate layout of this repository (root package + `crates/*`), walked
//! in sorted order. `detlint`'s own fixture files are excluded — they
//! exist to be bad.

use crate::callgraph::Graph;
use crate::lexer::{self, LexedFile};
use crate::rules::{self, FileContext};
use crate::{apply_waivers, taint, CrateKind, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// The result of a whole-workspace run: diagnostics plus non-fatal
/// warnings (files skipped rather than linted).
#[derive(Debug, Default)]
pub struct LintReport {
    /// Sorted, deduplicated findings.
    pub findings: Vec<Finding>,
    /// Human-readable skip warnings (e.g. non-UTF-8 sources).
    pub warnings: Vec<String>,
}

/// Classifies a workspace-relative path into the crate regimes of
/// [`CrateKind`]; `None` means the file is not linted at all
/// (fixtures).
pub fn classify(rel: &str) -> Option<CrateKind> {
    if rel.contains("tests/fixtures/") {
        return None;
    }
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("ecocloud");
    Some(match crate_name {
        "dcsim" | "ecocloud-core" => CrateKind::SimCore,
        "rng" | "metrics" | "traces" | "baselines" | "analytic" => CrateKind::Library,
        // Entry points (CLI, figure binaries, benches, the linter):
        // these may read the host environment; determinism is restored
        // at the boundary by plumbing everything into explicit config.
        _ => CrateKind::Entry,
    })
}

/// Finds the workspace root by walking up from `start` until a
/// directory containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// All `.rs` files under the workspace that the pass lints, as sorted
/// workspace-relative paths.
pub fn discover(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples"] {
        walk(&root.join(top), root, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for krate in entries {
            for sub in ["src", "tests", "benches"] {
                walk(&krate.join(sub), root, &mut files)?;
            }
        }
    }
    files.sort();
    files.retain(|f| classify(f).is_some());
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints one file's source under the given context, waivers applied.
/// Per-file rules only — the cross-crate taint pass needs the whole
/// file set; use [`lint_files`] for that.
pub fn lint_source(source: &str, ctx: &FileContext) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let mut findings = Vec::new();
    rules::lint_file(&lexed, ctx, &mut findings);
    apply_waivers(&lexed, &mut findings);
    findings
}

/// Sorts diagnostics into the stable report order: (file, line, rule).
pub fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
}

/// Runs the per-file rules and the cross-crate taint pass over an
/// in-memory file set. Waivers apply to taint findings exactly as to
/// token findings — by call-site line.
pub fn lint_files(files: &[(String, CrateKind, String)]) -> Vec<Finding> {
    lint_lexed(
        files
            .iter()
            .map(|(rel, kind, src)| (rel.clone(), *kind, lexer::lex(src)))
            .collect(),
    )
}

fn lint_lexed(files: Vec<(String, CrateKind, LexedFile)>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, kind, lexed) in &files {
        let ctx = FileContext {
            rel_path: rel.clone(),
            kind: *kind,
        };
        let mut file_findings = Vec::new();
        rules::lint_file(lexed, &ctx, &mut file_findings);
        apply_waivers(lexed, &mut file_findings);
        findings.append(&mut file_findings);
    }
    let graph = Graph::build(files);
    let taints = taint::propagate(&graph);
    let mut tainted = taint::findings(&graph, &taints);
    for file in &graph.files {
        let (mut mine, rest): (Vec<Finding>, Vec<Finding>) =
            tainted.into_iter().partition(|f| f.file == file.rel_path);
        apply_waivers(&file.lexed, &mut mine);
        findings.append(&mut mine);
        tainted = rest;
    }
    findings.append(&mut tainted);
    sort_findings(&mut findings);
    // A taint witness and a token rule can land on the same (file,
    // line, rule); report each coordinate once.
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    findings
}

/// Runs the whole pass over the workspace rooted at `root`: per-file
/// rules and the cross-crate taint pass on every discovered file, then
/// the cross-file rules (counter coverage, event dispatch) on the
/// simulator. Non-UTF-8 sources are skipped with a warning — the lint
/// gate must never panic on an input file.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut stats: Option<LexedFile> = None;
    let mut events: Option<LexedFile> = None;
    let mut engine: Option<LexedFile> = None;
    let mut asserted: Vec<String> = Vec::new();
    let mut lexed_files: Vec<(String, CrateKind, LexedFile)> = Vec::new();

    for rel in discover(root)? {
        let Some(kind) = classify(&rel) else { continue };
        let bytes = fs::read(root.join(&rel))?;
        let source = match String::from_utf8(bytes) {
            Ok(s) => s,
            Err(e) => {
                report.warnings.push(format!(
                    "{rel}: skipped (not valid UTF-8: {})",
                    e.utf8_error()
                ));
                continue;
            }
        };
        let lexed = lexer::lex(&source);

        if rel.starts_with("crates/dcsim/src/") {
            let mut a = rules::assert_idents(&lexed);
            asserted.append(&mut a);
        }
        match rel.as_str() {
            "crates/dcsim/src/stats.rs" => stats = Some(lexed.clone()),
            "crates/dcsim/src/events.rs" => events = Some(lexed.clone()),
            "crates/dcsim/src/engine.rs" => engine = Some(lexed.clone()),
            _ => {}
        }
        lexed_files.push((rel, kind, lexed));
    }

    report.findings = lint_lexed(lexed_files);

    if let Some(stats) = &stats {
        rules::dl004_unchecked_counters(
            stats,
            "crates/dcsim/src/stats.rs",
            &asserted,
            &mut report.findings,
        );
    }
    if let (Some(events), Some(engine)) = (&events, &engine) {
        rules::dl005_unmatched_events(
            events,
            "crates/dcsim/src/events.rs",
            engine,
            &mut report.findings,
        );
    }

    sort_findings(&mut report.findings);
    Ok(report)
}
