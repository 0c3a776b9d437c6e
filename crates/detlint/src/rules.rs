//! The determinism rules.
//!
//! Each rule protects a property an earlier PR established by hand and
//! the test suite can only probe, not prove:
//!
//! * [`RuleId::HashCollections`] (DL001) — simulation state iterates in
//!   a seed-independent order only because every container is ordered
//!   (`BTreeMap` / `SortedIdSet`). One `HashMap` iteration reorders
//!   placement scans and silently forks fixed-seed runs.
//! * [`RuleId::AmbientNondeterminism`] (DL002) — every random draw
//!   comes from a seeded RNG and every timestamp from the simulation
//!   clock. `thread_rng`, `Instant::now`, `SystemTime::now` and
//!   environment reads smuggle host state into the run.
//! * [`RuleId::FloatOrdering`] (DL003) — simulation times are ordered
//!   with `total_cmp` so a NaN produced by an upstream bug panics (or
//!   orders totally) instead of corrupting a heap or sort.
//! * [`RuleId::UncheckedCounter`] (DL004) — every counter in
//!   `dcsim::stats` is either covered by a conservation-law assertion
//!   or carries a visible waiver explaining why no law exists.
//! * [`RuleId::UnmatchedEvent`] (DL005) — every `Event` variant is
//!   dispatched in the engine; an undelivered event is a silent no-op
//!   that desynchronizes replicas of the same seed.
//! * [`RuleId::UnwrapInSim`] (DL006) — invariant lookups in `dcsim`
//!   use `expect` with a message naming the violated invariant, so a
//!   determinism bug crashes with a diagnosis instead of
//!   "called `unwrap()` on a `None` value".
//! * [`RuleId::ThreadingInSim`] (DL010) — a simulation is
//!   single-threaded: every Bernoulli trial and state mutation runs on
//!   the caller's thread in event order. A spawned thread or a
//!   shared-memory primitive in a simulation crate would let scheduling
//!   order leak into results.

use crate::lexer::{LexedFile, TokKind};
use crate::{CrateKind, Finding, RuleId};

/// Methods whose mere presence injects ambient state (matched as a
/// bare identifier anywhere outside entry crates and test code).
const AMBIENT_IDENTS: &[&str] = &["thread_rng", "from_entropy"];

/// `Type::method` paths that read the host clock.
const AMBIENT_CLOCKS: &[(&str, &str)] = &[("SystemTime", "now"), ("Instant", "now")];

/// `env::<read>` accessors that smuggle configuration past the seed.
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// Context the per-file rules need about the file being linted.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Path as reported in diagnostics (workspace-relative).
    pub rel_path: String,
    /// Which determinism regime the containing crate lives under.
    pub kind: CrateKind,
}

/// Half-open token-index ranges lying inside `#[cfg(test)]` modules or
/// `#[test]` functions.
pub fn test_regions(lexed: &LexedFile) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `#` `[` ... `]` — an outer attribute.
        if lexed.punct_at(i, "#") && lexed.punct_at(i + 1, "[") {
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < toks.len() && depth > 0 {
                if lexed.punct_at(j, "[") {
                    depth += 1;
                } else if lexed.punct_at(j, "]") {
                    depth -= 1;
                } else if toks[j].kind == TokKind::Ident {
                    // `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]`
                    // mark test code; `#[cfg(not(test))]` is the
                    // opposite and must not.
                    saw_test |= toks[j].text == "test";
                    saw_not |= toks[j].text == "not";
                }
                j += 1;
            }
            let is_test_attr = saw_test && !saw_not;
            if is_test_attr {
                // Find the `{` opening the annotated item and match
                // braces to its end.
                let mut k = j;
                while k < toks.len() && !lexed.punct_at(k, "{") {
                    // A `;` first means an item with no body.
                    if lexed.punct_at(k, ";") {
                        break;
                    }
                    k += 1;
                }
                if lexed.punct_at(k, "{") {
                    let mut bd = 1u32;
                    let start = k;
                    k += 1;
                    while k < toks.len() && bd > 0 {
                        if lexed.punct_at(k, "{") {
                            bd += 1;
                        } else if lexed.punct_at(k, "}") {
                            bd -= 1;
                        }
                        k += 1;
                    }
                    regions.push((start, k));
                    i = k;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(a, b)| idx >= a && idx < b)
}

/// DL001: `HashMap` / `HashSet` anywhere in a simulation crate.
pub fn dl001_hash_collections(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.kind != CrateKind::SimCore {
        return;
    }
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::HashCollections,
                message: format!(
                    "`{}` in a simulation crate: iteration order depends on the hasher \
                     seed, which forks fixed-seed runs. Use `BTreeMap`/`BTreeSet` or \
                     `dcsim::SortedIdSet`.",
                    t.text
                ),
            });
        }
    }
}

/// DL002: ambient nondeterminism (host RNG, host clock, environment
/// reads) outside entry crates; `#[cfg(test)]` / `#[test]` code is
/// exempt (tests may stage temp files etc.).
pub fn dl002_ambient_nondeterminism(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.kind == CrateKind::Entry {
        return;
    }
    let tests = test_regions(lexed);
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(&tests, i) {
            continue;
        }
        let mut flag: Option<String> = None;
        if AMBIENT_IDENTS.contains(&t.text.as_str()) {
            flag = Some(format!(
                "`{}` seeds from the host: every random draw must come from the \
                 simulation's own seeded RNG.",
                t.text
            ));
        } else {
            for &(ty, m) in AMBIENT_CLOCKS {
                if t.text == ty && lexed.path_at(i, &[ty, m]) {
                    flag = Some(format!(
                        "`{ty}::{m}` reads the host clock: simulation code must only \
                         observe the simulated clock (`self.now`)."
                    ));
                }
            }
            if t.text == "env" {
                for &rd in ENV_READS {
                    if lexed.path_at(i, &["env", rd]) {
                        flag = Some(format!(
                            "`env::{rd}` reads host configuration: runs must be a pure \
                             function of explicit config + seed. Plumb the value through \
                             the CLI crate instead."
                        ));
                    }
                }
            }
        }
        if let Some(message) = flag {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::AmbientNondeterminism,
                message,
            });
        }
    }
}

/// DL003: `partial_cmp` call sites (float ordering must be total).
/// Definitions (`fn partial_cmp`) are exempt — a `PartialOrd` impl
/// that delegates to `Ord`/`total_cmp` is precisely the sanctioned
/// pattern.
pub fn dl003_float_ordering(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "partial_cmp" {
            continue;
        }
        if i > 0 && lexed.ident_at(i - 1, "fn") {
            continue;
        }
        let _ = ctx;
        out.push(Finding {
            file: ctx.rel_path.clone(),
            line: t.line,
            rule: RuleId::FloatOrdering,
            message: "`partial_cmp` on simulation quantities: a NaN here returns `None` \
                      and silently corrupts an ordering. Use `f64::total_cmp` (PR 1 made \
                      the event queue total for exactly this reason)."
                .to_string(),
        });
    }
}

/// DL006: `.unwrap()` in non-test `dcsim` code — hot-path lookups must
/// `expect` a message naming the violated invariant.
pub fn dl006_unwrap_in_sim(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.kind != CrateKind::SimCore {
        return;
    }
    let tests = test_regions(lexed);
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "unwrap"
            && i > 0
            && lexed.punct_at(i - 1, ".")
            && lexed.punct_at(i + 1, "(")
            && !in_regions(&tests, i)
        {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::UnwrapInSim,
                message: "`.unwrap()` in simulator code: use `.expect(\"<invariant>\")` so \
                          a determinism bug crashes with a diagnosis, not \
                          \"called `Option::unwrap()` on a `None` value\"."
                    .to_string(),
            });
        }
    }
}

/// DL007: float-reduction order. `.sum()/.product()/.fold()/.reduce()`
/// whose receiver chain (back to the statement boundary) mentions an
/// unordered or thread-merged source — a std hash collection, a rayon
/// parallel iterator, or an mpsc `try_iter` drain. Float addition is
/// not associative, so reducing in collection/completion order forks
/// fixed-seed runs. Applies in non-entry crates and in the named
/// parallel-runtime files of the CLI crate (`src/parallel.rs`,
/// `src/sweep.rs`) — exactly the places replica results are merged.
pub fn dl007_unordered_float_reduction(
    lexed: &LexedFile,
    ctx: &FileContext,
    out: &mut Vec<Finding>,
) {
    const REDUCERS: &[&str] = &["sum", "product", "fold", "reduce"];
    const UNORDERED: &[&str] = &[
        "HashMap",
        "HashSet",
        "RandomState",
        "par_iter",
        "into_par_iter",
        "par_bridge",
        "par_chunks",
        "try_iter",
    ];
    let applies = ctx.kind != CrateKind::Entry
        || ctx.rel_path == "src/parallel.rs"
        || ctx.rel_path == "src/sweep.rs";
    if !applies {
        return;
    }
    let tests = test_regions(lexed);
    // Names bound to a hash collection anywhere in the file — `m:
    // &HashMap<..>` parameters and `let m: HashMap` / `m = HashMap`
    // bindings — so `m.values().sum()` is caught even though the type
    // name is not in the receiver chain. Name-level, so deliberately
    // coarse: a false hit is a waiver away, a miss forks a run.
    let mut hash_named: Vec<&str> = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if lexed.punct_at(i + 1, ":") || lexed.punct_at(i + 1, "=") {
            for k in (i + 2)..(i + 6).min(lexed.tokens.len()) {
                let u = &lexed.tokens[k];
                if u.kind == TokKind::Ident && (u.text == "HashMap" || u.text == "HashSet") {
                    hash_named.push(&t.text);
                    break;
                }
            }
        }
    }
    hash_named.sort_unstable();
    hash_named.dedup();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !REDUCERS.contains(&t.text.as_str())
            || i == 0
            || !lexed.punct_at(i - 1, ".")
            || in_regions(&tests, i)
        {
            continue;
        }
        // `(` directly, or through a `::<f64>` turbofish.
        let mut after = i + 1;
        if lexed.punct_at(after, ":")
            && lexed.punct_at(after + 1, ":")
            && lexed.punct_at(after + 2, "<")
        {
            let mut depth = 0i32;
            let mut j = after + 2;
            while j < lexed.tokens.len() {
                if lexed.punct_at(j, "<") {
                    depth += 1;
                } else if lexed.punct_at(j, ">") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            after = j + 1;
        }
        if !lexed.punct_at(after, "(") {
            continue;
        }
        // Back-scan the receiver chain to the statement boundary.
        let mut j = i - 1;
        let mut hit: Option<&str> = None;
        let mut steps = 0;
        while j > 0 && steps < 96 {
            j -= 1;
            steps += 1;
            let p = &lexed.tokens[j];
            if p.kind == TokKind::Punct && (p.text == ";" || p.text == "{" || p.text == "}") {
                break;
            }
            if p.kind == TokKind::Ident && UNORDERED.contains(&p.text.as_str()) {
                hit = Some(UNORDERED[UNORDERED.iter().position(|u| *u == p.text).expect("hit")]);
                break;
            }
            if p.kind == TokKind::Ident && hash_named.binary_search(&p.text.as_str()).is_ok() {
                hit = Some("hash-typed binding");
                break;
            }
        }
        if let Some(src) = hit {
            out.push(Finding {
                file: ctx.rel_path.clone(),
                line: t.line,
                rule: RuleId::UnorderedFloatReduction,
                message: format!(
                    "`.{}()` over a `{src}` source reduces in collection/completion \
                     order; float addition is not associative, so this forks fixed-seed \
                     runs. Collect into a `Vec`, sort by a total key (submission order), \
                     then reduce.",
                    t.text
                ),
            });
        }
    }
}

/// DL008: ordering-impl consistency. In simulation and library crates:
/// `derive(PartialOrd)` without `Ord` leaves `sort`/`max_by` partial;
/// `derive(Hash)` without `Eq` breaks the `Hash`/`Eq` contract; a
/// manual `impl Ord` must carry a comment containing "total" (naming
/// the total-order justification, cf. `events::Scheduled`), and a
/// manual `impl PartialOrd` must delegate to `cmp`/`total_cmp` rather
/// than re-deriving its own partial order.
pub fn dl008_ordering_impls(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.kind == CrateKind::Entry {
        return;
    }
    let toks = &lexed.tokens;
    // Derive lists.
    let mut i = 0;
    while i < toks.len() {
        if lexed.punct_at(i, "#")
            && lexed.punct_at(i + 1, "[")
            && lexed.ident_at(i + 2, "derive")
            && lexed.punct_at(i + 3, "(")
        {
            let line = toks[i + 2].line;
            let mut names: Vec<&str> = Vec::new();
            let mut j = i + 4;
            let mut depth = 1u32;
            while j < toks.len() && depth > 0 {
                if lexed.punct_at(j, "(") {
                    depth += 1;
                } else if lexed.punct_at(j, ")") {
                    depth -= 1;
                } else if toks[j].kind == TokKind::Ident {
                    names.push(&toks[j].text);
                }
                j += 1;
            }
            let has = |n: &str| names.contains(&n);
            if has("PartialOrd") && !has("Ord") {
                out.push(Finding {
                    file: ctx.rel_path.clone(),
                    line,
                    rule: RuleId::OrderingImpls,
                    message: "`derive(PartialOrd)` without `Ord`: comparisons stay \
                              partial, so sorts and heaps silently depend on NaN-free \
                              inputs. Derive `Ord` too (or implement a total order by \
                              hand)."
                        .to_string(),
                });
            }
            if has("Hash") && !has("Eq") {
                out.push(Finding {
                    file: ctx.rel_path.clone(),
                    line,
                    rule: RuleId::OrderingImpls,
                    message: "`derive(Hash)` without `Eq` breaks the `k1 == k2 ⇒ \
                              hash(k1) == hash(k2)` contract lookups rely on; derive \
                              `Eq` as well."
                        .to_string(),
                });
            }
            i = j;
            continue;
        }
        i += 1;
    }
    // Manual impls: `[impl] ... Ord for` / `PartialOrd for`.
    for i in 0..toks.len() {
        let name = toks[i].text.as_str();
        if toks[i].kind != TokKind::Ident
            || (name != "Ord" && name != "PartialOrd")
            || !lexed.ident_at(i + 1, "for")
        {
            continue;
        }
        // Find the impl body.
        let mut j = i + 2;
        while j < toks.len() && !lexed.punct_at(j, "{") {
            j += 1;
        }
        let body_start = j;
        let mut depth = 0u32;
        while j < toks.len() {
            if lexed.punct_at(j, "{") {
                depth += 1;
            } else if lexed.punct_at(j, "}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let end_line = toks.get(j).map(|t| t.line).unwrap_or(u32::MAX);
        if name == "Ord" {
            let justified = lexed.comments.iter().any(|c| {
                c.line + 3 >= toks[i].line && c.line <= end_line && c.text.contains("total")
            });
            if !justified {
                out.push(Finding {
                    file: ctx.rel_path.clone(),
                    line: toks[i].line,
                    rule: RuleId::OrderingImpls,
                    message: "manual `impl Ord` without a total-order justification: \
                              add a comment containing \"total\" stating why the order \
                              is total (ties broken, floats via `total_cmp` — see \
                              `events::Scheduled`)."
                        .to_string(),
                });
            }
        } else {
            // Delegation means a real `.cmp(` / `.total_cmp(` call —
            // a bare `std::cmp::Ordering` path must not count.
            let delegates = (body_start..=j.min(toks.len().saturating_sub(1))).any(|k| {
                toks[k].kind == TokKind::Ident
                    && (toks[k].text == "cmp" || toks[k].text == "total_cmp")
                    && k > 0
                    && lexed.punct_at(k - 1, ".")
                    && lexed.punct_at(k + 1, "(")
            });
            if !delegates {
                out.push(Finding {
                    file: ctx.rel_path.clone(),
                    line: toks[i].line,
                    rule: RuleId::OrderingImpls,
                    message: "manual `impl PartialOrd` that does not delegate to \
                              `cmp`/`total_cmp`: two independent orderings drift apart. \
                              Write `Some(self.cmp(other))`."
                        .to_string(),
                });
            }
        }
    }
}

/// DL009: `unsafe` inventory. Every `unsafe` keyword — blocks, fns,
/// and especially `unsafe impl Send/Sync` — must carry a `// SAFETY:`
/// comment on its line or within the three lines above, so the proof
/// obligation is visible in the same diff hunk. Applies everywhere:
/// the parallel runner lives or dies by these proofs.
pub fn dl009_unsafe_inventory(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        let documented = lexed
            .comments
            .iter()
            .any(|c| c.line + 3 >= t.line && c.line <= t.line && c.text.contains("SAFETY:"));
        if documented {
            continue;
        }
        let what = if lexed.ident_at(i + 1, "impl") {
            "`unsafe impl` (a Send/Sync promise the compiler cannot check)"
        } else if lexed.ident_at(i + 1, "fn") {
            "`unsafe fn`"
        } else {
            "`unsafe` block"
        };
        out.push(Finding {
            file: ctx.rel_path.clone(),
            line: t.line,
            rule: RuleId::UnsafeInventory,
            message: format!(
                "{what} without a `// SAFETY:` comment: state the invariant that makes \
                 this sound on the line above (see the prefetch in `events.rs`)."
            ),
        });
    }
}

/// DL010: threads and shared-mutable-state primitives in simulation
/// crates. A simulation is single-threaded: it runs every Bernoulli
/// trial and every state mutation in event order, and parallelism lives
/// only in the entry crates, which run whole independent replicas. A
/// spawned thread, a `Mutex`, an atomic or an mpsc channel anywhere in
/// `dcsim`/`ecocloud-core` would let worker interleaving leak into
/// simulation state, so every one of them is flagged. `#[cfg(test)]`
/// code is exempt (tests may coordinate threads to stage a scenario).
pub fn dl010_threading_in_sim(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.kind != CrateKind::SimCore {
        return;
    }
    const BANNED: &[&str] = &[
        "Mutex",
        "RwLock",
        "Condvar",
        "Barrier",
        "UnsafeCell",
        "OnceLock",
        "LazyLock",
        "mpsc",
    ];
    const THREAD_FNS: &[&str] = &["spawn", "scope"];
    let tests = test_regions(lexed);
    for (i, t) in lexed.tokens.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(&tests, i) {
            continue;
        }
        let shared = BANNED.contains(&t.text.as_str()) || t.text.starts_with("Atomic");
        let static_mut = t.text == "static" && lexed.ident_at(i + 1, "mut");
        let thread_fn = THREAD_FNS
            .iter()
            .copied()
            .find(|&f| t.text == "thread" && lexed.path_at(i, &["thread", f]));
        let what = if static_mut {
            "`static mut`".to_string()
        } else if let Some(f) = thread_fn {
            format!("`thread::{f}`")
        } else if shared {
            format!("`{}`", t.text)
        } else {
            continue;
        };
        out.push(Finding {
            file: ctx.rel_path.clone(),
            line: t.line,
            rule: RuleId::ThreadingInSim,
            message: format!(
                "{what} in a simulation crate: a simulation is single-threaded, with every \
                 trial and mutation applied in event order; threads and shared-memory \
                 primitives make results depend on scheduling. Parallelize whole replicas \
                 in an entry crate instead."
            ),
        });
    }
}

/// The identifiers appearing inside non-test `assert!`-family macro
/// invocations of a file — DL004's definition of "covered by a
/// conservation-law assertion".
pub fn assert_idents(lexed: &LexedFile) -> Vec<String> {
    const ASSERT_MACROS: &[&str] = &[
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
    ];
    let tests = test_regions(lexed);
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        let is_assert = toks[i].kind == TokKind::Ident
            && ASSERT_MACROS.contains(&toks[i].text.as_str())
            && lexed.punct_at(i + 1, "!")
            && lexed.punct_at(i + 2, "(")
            && !in_regions(&tests, i);
        if !is_assert {
            i += 1;
            continue;
        }
        let mut depth = 1u32;
        let mut j = i + 3;
        while j < toks.len() && depth > 0 {
            if lexed.punct_at(j, "(") {
                depth += 1;
            } else if lexed.punct_at(j, ")") {
                depth -= 1;
            } else if toks[j].kind == TokKind::Ident {
                out.push(toks[j].text.clone());
            }
            j += 1;
        }
        i = j;
    }
    out.sort();
    out.dedup();
    out
}

/// The `u64` counter fields of the first `struct SimStats` in a lexed
/// `stats.rs`, as `(name, line, waived)` — `waived` when the field's
/// line (or the line above) carries a `detlint: unchecked-counter`
/// comment.
pub fn counter_fields(lexed: &LexedFile) -> Vec<(String, u32, bool)> {
    let toks = &lexed.tokens;
    // Locate `struct SimStats {`.
    let mut start = None;
    for i in 0..toks.len() {
        if lexed.ident_at(i, "struct") && lexed.ident_at(i + 1, "SimStats") {
            let mut j = i + 2;
            while j < toks.len() && !lexed.punct_at(j, "{") {
                j += 1;
            }
            start = Some(j + 1);
            break;
        }
    }
    let Some(mut i) = start else {
        return Vec::new();
    };
    // (line, standalone): a trailing waiver covers only its own field;
    // a comment-only line also covers the field directly below.
    let waiver_lines: Vec<(u32, bool)> = lexed
        .comments
        .iter()
        .filter(|c| c.text.contains("detlint:") && c.text.contains("unchecked-counter"))
        .map(|c| (c.line, !lexed.tokens.iter().any(|t| t.line == c.line)))
        .collect();
    let mut fields = Vec::new();
    let mut depth = 1u32;
    while i < toks.len() && depth > 0 {
        if lexed.punct_at(i, "{") {
            depth += 1;
            i += 1;
            continue;
        }
        if lexed.punct_at(i, "}") {
            depth -= 1;
            i += 1;
            continue;
        }
        // A field at struct depth: `[pub] name : Type ,` — detect the
        // `name : u64` shape and skip to the comma at depth 1.
        if depth == 1 && toks[i].kind == TokKind::Ident && lexed.punct_at(i + 1, ":") {
            let name = toks[i].text.clone();
            let line = toks[i].line;
            if name != "pub" && lexed.ident_at(i + 2, "u64") {
                // A waiver counts on the field's own line (trailing
                // comment) or on a comment-only line directly above.
                let waived = waiver_lines
                    .iter()
                    .any(|&(wl, standalone)| wl == line || (standalone && wl + 1 == line));
                fields.push((name, line, waived));
            }
        }
        i += 1;
    }
    fields
}

/// DL004: each `u64` counter in `SimStats` must appear in an assertion
/// somewhere in the simulator or carry an `unchecked-counter` waiver.
pub fn dl004_unchecked_counters(
    stats: &LexedFile,
    stats_rel_path: &str,
    asserted: &[String],
    out: &mut Vec<Finding>,
) {
    for (name, line, waived) in counter_fields(stats) {
        if waived || asserted.iter().any(|a| a == &name) {
            continue;
        }
        out.push(Finding {
            file: stats_rel_path.to_string(),
            line,
            rule: RuleId::UncheckedCounter,
            message: format!(
                "counter `{name}` is not referenced by any conservation-law assertion; \
                 add it to one in `engine.rs` or waive it with \
                 `// detlint: unchecked-counter — <why no law exists>`."
            ),
        });
    }
}

/// The variant names of `pub enum Event` in a lexed `events.rs`, with
/// their lines.
pub fn event_variants(lexed: &LexedFile) -> Vec<(String, u32)> {
    let toks = &lexed.tokens;
    let mut start = None;
    for i in 0..toks.len() {
        if lexed.ident_at(i, "enum") && lexed.ident_at(i + 1, "Event") {
            let mut j = i + 2;
            while j < toks.len() && !lexed.punct_at(j, "{") {
                j += 1;
            }
            start = Some(j + 1);
            break;
        }
    }
    let Some(mut i) = start else {
        return Vec::new();
    };
    let mut variants = Vec::new();
    let mut depth = 1u32;
    let mut expect_variant = true;
    while i < toks.len() && depth > 0 {
        if lexed.punct_at(i, "{") || lexed.punct_at(i, "(") {
            depth += 1;
        } else if lexed.punct_at(i, "}") || lexed.punct_at(i, ")") {
            depth -= 1;
        } else if depth == 1 {
            if expect_variant && toks[i].kind == TokKind::Ident {
                variants.push((toks[i].text.clone(), toks[i].line));
                expect_variant = false;
            } else if lexed.punct_at(i, ",") {
                expect_variant = true;
            }
        }
        i += 1;
    }
    variants
}

/// DL005: each `Event` variant must be matched (as `Event::Variant`)
/// in the engine's dispatch.
pub fn dl005_unmatched_events(
    events: &LexedFile,
    events_rel_path: &str,
    engine: &LexedFile,
    out: &mut Vec<Finding>,
) {
    let mut dispatched: Vec<&str> = Vec::new();
    for (i, t) in engine.tokens.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "Event"
            && engine.punct_at(i + 1, ":")
            && engine.punct_at(i + 2, ":")
        {
            if let Some(v) = engine.tokens.get(i + 3) {
                if v.kind == TokKind::Ident {
                    dispatched.push(&v.text);
                }
            }
        }
    }
    for (variant, line) in event_variants(events) {
        if !dispatched.iter().any(|d| *d == variant) {
            out.push(Finding {
                file: events_rel_path.to_string(),
                line,
                rule: RuleId::UnmatchedEvent,
                message: format!(
                    "event variant `{variant}` is never dispatched as `Event::{variant}` \
                     in `engine.rs`; an unhandled event is a silent no-op that breaks \
                     the wake/migration/exchange epoch discipline."
                ),
            });
        }
    }
}

/// Runs every per-file rule over one lexed file.
pub fn lint_file(lexed: &LexedFile, ctx: &FileContext, out: &mut Vec<Finding>) {
    dl001_hash_collections(lexed, ctx, out);
    dl002_ambient_nondeterminism(lexed, ctx, out);
    dl003_float_ordering(lexed, ctx, out);
    dl006_unwrap_in_sim(lexed, ctx, out);
    dl007_unordered_float_reduction(lexed, ctx, out);
    dl008_ordering_impls(lexed, ctx, out);
    dl009_unsafe_inventory(lexed, ctx, out);
    dl010_threading_in_sim(lexed, ctx, out);
}
