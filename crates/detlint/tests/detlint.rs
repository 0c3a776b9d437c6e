//! Fixture-driven tests for the determinism pass, plus the self-check
//! that keeps the real workspace clean.
//!
//! Each `bad_*` fixture under `tests/fixtures/` violates exactly one
//! rule; the tests assert the exact diagnostics (file, line, rule id)
//! so a lexer regression cannot silently widen or narrow a rule.

use std::path::PathBuf;

use detlint::rules::FileContext;
use detlint::{lexer, rules, workspace, CrateKind, Finding, RuleId};

/// The workspace root, found without assuming a cargo environment (the
/// offline harness compiles these tests with plain rustc).
fn root() -> PathBuf {
    let start = option_env!("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::current_dir().expect("cwd"));
    workspace::find_root(&start).expect("tests must run inside the workspace")
}

fn fixture(name: &str) -> String {
    let path = root().join("crates/detlint/tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn lint_fixture(name: &str, kind: CrateKind) -> Vec<Finding> {
    let ctx = FileContext {
        rel_path: format!("crates/detlint/tests/fixtures/{name}"),
        kind,
    };
    workspace::lint_source(&fixture(name), &ctx)
}

fn lines_of(findings: &[Finding], rule: RuleId) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn dl001_flags_every_hash_container_mention() {
    let f = lint_fixture("bad_dl001.rs", CrateKind::SimCore);
    assert_eq!(f.len(), 4, "{f:?}");
    assert_eq!(lines_of(&f, RuleId::HashCollections), vec![3, 4, 9, 11]);
    assert!(f.iter().all(|x| x.rule.id() == "DL001"));
}

#[test]
fn dl001_is_scoped_to_simulation_crates() {
    assert!(lint_fixture("bad_dl001.rs", CrateKind::Library).is_empty());
    assert!(lint_fixture("bad_dl001.rs", CrateKind::Entry).is_empty());
}

#[test]
fn dl002_flags_rng_clocks_and_env_but_not_tests() {
    let f = lint_fixture("bad_dl002.rs", CrateKind::Library);
    assert_eq!(
        lines_of(&f, RuleId::AmbientNondeterminism),
        vec![7, 13, 14, 20],
        "{f:?}"
    );
    assert_eq!(f.len(), 4, "test-module env read must stay exempt: {f:?}");
}

#[test]
fn dl002_is_silent_in_entry_crates() {
    assert!(lint_fixture("bad_dl002.rs", CrateKind::Entry).is_empty());
}

#[test]
fn dl003_flags_partial_cmp_everywhere() {
    for kind in [CrateKind::SimCore, CrateKind::Library, CrateKind::Entry] {
        let f = lint_fixture("bad_dl003.rs", kind);
        assert_eq!(lines_of(&f, RuleId::FloatOrdering), vec![6], "{kind:?}");
    }
}

#[test]
fn dl006_flags_unwrap_outside_tests_in_sim_code() {
    let f = lint_fixture("bad_dl006.rs", CrateKind::SimCore);
    assert_eq!(lines_of(&f, RuleId::UnwrapInSim), vec![5], "{f:?}");
    assert_eq!(f.len(), 1, "test-module unwrap must stay exempt: {f:?}");
    assert!(lint_fixture("bad_dl006.rs", CrateKind::Library).is_empty());
}

#[test]
fn dl004_reports_uncovered_counter_with_exact_location() {
    let stats = lexer::lex(&fixture("bad_dl004_stats.rs"));
    let engine = lexer::lex(&fixture("bad_dl004_engine.rs"));
    let asserted = rules::assert_idents(&engine);
    assert!(asserted.contains(&"migrations_started".to_string()));
    let mut findings = Vec::new();
    rules::dl004_unchecked_counters(
        &stats,
        "fixtures/bad_dl004_stats.rs",
        &asserted,
        &mut findings,
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule.id(), "DL004");
    assert_eq!(findings[0].line, 10);
    assert!(findings[0].message.contains("orphan_counter"));
}

#[test]
fn dl004_counter_parsing_sees_waivers_and_skips_non_u64() {
    let stats = lexer::lex(&fixture("bad_dl004_stats.rs"));
    let fields = rules::counter_fields(&stats);
    let names: Vec<&str> = fields.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "migrations_started",
            "migrations_completed",
            "orphan_counter",
            "waived_counter"
        ]
    );
    let waived: Vec<&str> = fields
        .iter()
        .filter(|(_, _, w)| *w)
        .map(|(n, _, _)| n.as_str())
        .collect();
    assert_eq!(waived, ["waived_counter"]);
}

#[test]
fn dl005_reports_undispatched_variant_with_exact_location() {
    let events = lexer::lex(&fixture("bad_dl005_events.rs"));
    let engine = lexer::lex(&fixture("bad_dl005_engine.rs"));
    let mut findings = Vec::new();
    rules::dl005_unmatched_events(
        &events,
        "fixtures/bad_dl005_events.rs",
        &engine,
        &mut findings,
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule.id(), "DL005");
    assert_eq!(findings[0].line, 8);
    assert!(findings[0].message.contains("Orphan"));
}

/// Hostile-but-legal token soup (nested block comments, byte/raw
/// strings) must hide its contents from every rule — these fixtures
/// are the regression net for the lexer hardening.
#[test]
fn lexer_hostile_fixtures_hide_tokens_from_every_rule() {
    for name in ["bad_lexer_nested_comments.rs", "bad_lexer_raw_bytes.rs"] {
        let f = lint_fixture(name, CrateKind::SimCore);
        assert!(f.is_empty(), "{name}: {f:?}");
    }
}

#[test]
fn clean_fixture_has_zero_diagnostics_under_strictest_context() {
    let f = lint_fixture("clean.rs", CrateKind::SimCore);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn waivers_cover_own_line_and_next_line_only() {
    let src = "\
fn a(x: f64, y: f64) {
    // detlint: allow(dl003) — next-line waiver
    let _ = x.partial_cmp(&y);
    let _ = x.partial_cmp(&y); // detlint: allow(float-ordering) — same-line, by slug
    let _ = x.partial_cmp(&y);
}
";
    let ctx = FileContext {
        rel_path: "waiver_test.rs".to_string(),
        kind: CrateKind::Library,
    };
    let f = workspace::lint_source(src, &ctx);
    assert_eq!(lines_of(&f, RuleId::FloatOrdering), vec![5], "{f:?}");
}

#[test]
fn waiver_for_one_rule_does_not_excuse_another() {
    let src = "fn a(x: f64, y: f64) { let _ = x.partial_cmp(&y); } // detlint: allow(dl001) — wrong rule\n";
    let ctx = FileContext {
        rel_path: "waiver_test.rs".to_string(),
        kind: CrateKind::Library,
    };
    let f = workspace::lint_source(src, &ctx);
    assert_eq!(f.len(), 1);
    assert_eq!(f[0].rule, RuleId::FloatOrdering);
}

#[test]
fn fixtures_are_excluded_from_workspace_classification() {
    assert!(workspace::classify("crates/detlint/tests/fixtures/bad_dl001.rs").is_none());
    assert_eq!(
        workspace::classify("crates/dcsim/src/engine.rs"),
        Some(CrateKind::SimCore)
    );
    assert_eq!(
        workspace::classify("crates/metrics/src/cdf.rs"),
        Some(CrateKind::Library)
    );
    assert_eq!(
        workspace::classify("crates/rng/src/lib.rs"),
        Some(CrateKind::Library),
        "the RNG itself must obey the ambient-state rules"
    );
    assert_eq!(workspace::classify("src/cli.rs"), Some(CrateKind::Entry));
}

/// The gate itself: the real workspace must lint clean. This is the
/// same check CI runs via `cargo run -p detlint -- --workspace`.
#[test]
fn self_check_workspace_is_clean() {
    let report = workspace::lint_workspace(&root()).expect("workspace walk");
    assert!(
        report.findings.is_empty(),
        "the workspace must pass its own determinism lint:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.warnings.is_empty(),
        "every workspace source must be lintable: {:?}",
        report.warnings
    );
}

/// Findings come out sorted by (file, line, rule) and deduplicated —
/// the property `--json` consumers and golden diffs rely on.
#[test]
fn workspace_findings_are_stably_sorted() {
    let inputs = vec![
        (
            "crates/dcsim/src/b.rs".to_string(),
            CrateKind::SimCore,
            "fn z(x: f64, y: f64) { let _ = x.partial_cmp(&y); }\n\
             fn a() { let _: std::collections::HashMap<u8, u8> = Default::default(); }\n"
                .to_string(),
        ),
        (
            "crates/dcsim/src/a.rs".to_string(),
            CrateKind::SimCore,
            "fn b(x: f64, y: f64) { let _ = thread_rng(); let _ = x.partial_cmp(&y); }\n"
                .to_string(),
        ),
    ];
    let findings = workspace::lint_files(&inputs);
    let keys: Vec<(String, u32, &'static str)> = findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.id()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(keys, sorted, "{findings:?}");
    assert_eq!(
        keys,
        vec![
            ("crates/dcsim/src/a.rs".to_string(), 1, "DL002"),
            ("crates/dcsim/src/a.rs".to_string(), 1, "DL003"),
            ("crates/dcsim/src/b.rs".to_string(), 1, "DL003"),
            ("crates/dcsim/src/b.rs".to_string(), 2, "DL001"),
        ]
    );
}

/// A non-UTF-8 source anywhere in the tree is skipped with a warning,
/// never a panic — staged in a synthetic workspace so the real tree
/// stays fully valid.
#[test]
fn non_utf8_source_is_skipped_with_warning() {
    let dir = std::env::temp_dir().join(format!("detlint_nonutf8_{}", std::process::id()));
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::create_dir_all(dir.join("crates")).expect("mkdir crates");
    std::fs::write(dir.join("Cargo.toml"), "[package]\nname = \"t\"\n").expect("manifest");
    std::fs::write(src.join("lib.rs"), b"fn ok() {}\n").expect("good file");
    std::fs::write(
        src.join("junk.rs"),
        vec![0x66, 0x6e, 0x20, 0xff, 0xfe, 0x80],
    )
    .expect("bad");
    let report = workspace::lint_workspace(&dir).expect("walk");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    assert!(
        report.warnings[0].contains("junk.rs"),
        "{:?}",
        report.warnings
    );
    assert!(
        report.warnings[0].contains("UTF-8"),
        "{:?}",
        report.warnings
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn dl007_flags_unordered_reductions_only() {
    let f = lint_fixture("bad_dl007.rs", CrateKind::Library);
    assert_eq!(
        lines_of(&f, RuleId::UnorderedFloatReduction),
        vec![8, 13, 18],
        "{f:?}"
    );
    assert_eq!(f.len(), 3, "ordered reductions must stay exempt: {f:?}");
    assert!(lint_fixture("bad_dl007.rs", CrateKind::Entry).is_empty());
}

#[test]
fn dl008_flags_derive_and_manual_ordering_inconsistencies() {
    let f = lint_fixture("bad_dl008.rs", CrateKind::SimCore);
    assert_eq!(
        lines_of(&f, RuleId::OrderingImpls),
        vec![4, 8, 15, 27],
        "{f:?}"
    );
    assert_eq!(f.len(), 4, "the justified pair must stay exempt: {f:?}");
    assert!(lint_fixture("bad_dl008.rs", CrateKind::Entry).is_empty());
}

#[test]
fn dl009_requires_safety_comments_in_every_crate_kind() {
    for kind in [CrateKind::SimCore, CrateKind::Library, CrateKind::Entry] {
        let f = lint_fixture("bad_dl009.rs", kind);
        assert_eq!(
            lines_of(&f, RuleId::UnsafeInventory),
            vec![6, 12, 17],
            "{kind:?}: {f:?}"
        );
        assert_eq!(f.len(), 3, "documented unsafe must stay exempt: {f:?}");
    }
}

#[test]
fn dl010_flags_threads_and_shared_state() {
    let f = lint_fixture("bad_dl010.rs", CrateKind::SimCore);
    assert_eq!(
        lines_of(&f, RuleId::ThreadingInSim),
        vec![2, 3, 3, 4, 6, 8, 8],
        "{f:?}"
    );
    assert_eq!(f.len(), 7, "test-module sync must stay exempt: {f:?}");
}

#[test]
fn dl010_is_scoped_to_simulation_crates() {
    assert!(lint_fixture("bad_dl010.rs", CrateKind::Library).is_empty());
    assert!(lint_fixture("bad_dl010.rs", CrateKind::Entry).is_empty());
}

/// The real simulator's cross-file facts the pass depends on: the
/// counter table and event enum actually parse to non-trivial sets
/// (guards against the lint rotting into a vacuous pass).
#[test]
fn self_check_parses_real_simulator_structures() {
    let stats_src =
        std::fs::read_to_string(root().join("crates/dcsim/src/stats.rs")).expect("stats.rs");
    let events_src =
        std::fs::read_to_string(root().join("crates/dcsim/src/events.rs")).expect("events.rs");
    let counters = rules::counter_fields(&lexer::lex(&stats_src));
    let variants = rules::event_variants(&lexer::lex(&events_src));
    assert!(
        counters.len() >= 20,
        "SimStats should declare many u64 counters, found {}",
        counters.len()
    );
    assert!(
        variants.len() >= 10,
        "Event should have many variants, found {}",
        variants.len()
    );
    assert!(variants.iter().any(|(v, _)| v == "WakeComplete"));
    assert!(counters.iter().any(|(c, _, _)| c == "migrations_started"));
}
