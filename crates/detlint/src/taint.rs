//! The cross-crate determinism taint pass.
//!
//! DL001/DL002 match *spellings* — `thread_rng` written inside a sim
//! crate. A one-line wrapper defeats that: `fn jitter() -> u64 {
//! thread_rng().gen() }` in a helper crate is invisible to the token
//! rules, and the sim-side call `jitter()` is just an identifier.
//! This pass closes the hole on the [`crate::callgraph::Graph`]: functions
//! that *touch* an ambient source are seeded, taint propagates
//! backwards over call edges, and any call site in a non-entry crate
//! whose callee set intersects the tainted set is diagnosed *at the
//! call site* — the line a sim author can actually fix.
//!
//! Two taints propagate independently:
//!
//! * [`TaintKind::Entropy`] — host RNG, host clock, environment
//!   reads, `RandomState`. Diagnosed as DL002 at `SimCore` and
//!   `Library` call sites (the DL002 regime).
//! * [`TaintKind::HashOrder`] — iteration over std
//!   `HashMap`/`HashSet`. Diagnosed as DL001 at `SimCore` call sites
//!   (the DL001 regime).
//!
//! Call sites whose written tokens already trigger the token-level
//! rule are skipped here, so a direct `thread_rng()` in sim code
//! yields exactly one finding, not two.

use std::collections::BTreeMap;

use crate::callgraph::{Call, Graph};
use crate::lexer::{LexedFile, TokKind};
use crate::{CrateKind, Finding, RuleId};

/// Which determinism property a taint violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// Ambient entropy: host RNG / clock / env / hasher seeds.
    Entropy,
    /// Seed-dependent iteration order of std hash collections.
    HashOrder,
}

/// Why a function is tainted: a human-readable witness chain ending at
/// the ambient source.
#[derive(Debug, Clone)]
pub struct Taint {
    /// The violated property.
    pub kind: TaintKind,
    /// `` `wrapper` (path:line) → `thread_rng` (path:line) `` —
    /// shortest-first BFS chain, capped at four links.
    pub chain: String,
    /// BFS depth (0 = the function touches the source directly).
    pub depth: u32,
}

/// Idents that seed `Entropy` wherever they appear in a function body.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "RandomState"];

/// `Type::method` paths that read the host clock.
const CLOCK_PATHS: &[(&str, &str)] = &[("SystemTime", "now"), ("Instant", "now")];

/// `env::<read>` accessors.
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// Hash-collection type names (HashOrder carriers).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Fully-resolved external call paths that seed `Entropy` (matched
/// against [`Call::externals`], i.e. after `use`-alias expansion).
fn external_entropy(path: &[String]) -> Option<&'static str> {
    let last = path.last().map(String::as_str)?;
    if ENTROPY_IDENTS.contains(&last) {
        return Some("host RNG");
    }
    if last == "random" && path.first().is_some_and(|h| h == "rand") {
        return Some("host RNG");
    }
    if path.len() >= 2 {
        let pair = (path[path.len() - 2].as_str(), last);
        if CLOCK_PATHS.contains(&pair) {
            return Some("host clock");
        }
        if pair.0 == "env" && ENV_READS.contains(&last) {
            return Some("host environment");
        }
    }
    if path.first().is_some_and(|h| h == "getrandom") {
        return Some("OS entropy");
    }
    None
}

/// Whether the written call tokens already trigger token-level
/// DL001/DL002 at this line (the taint finding would be a duplicate).
fn token_rules_already_fire(call: &Call, kind: TaintKind) -> bool {
    let Some(last) = call.written.last().map(String::as_str) else {
        return false;
    };
    match kind {
        TaintKind::Entropy => {
            if ["thread_rng", "from_entropy"].contains(&last) {
                return true;
            }
            if call.written.len() >= 2 {
                let pair = (call.written[call.written.len() - 2].as_str(), last);
                CLOCK_PATHS.contains(&pair) || (pair.0 == "env" && ENV_READS.contains(&last))
            } else {
                false
            }
        }
        // DL001 matches the `HashMap` type token, not calls; a call
        // site never duplicates it.
        TaintKind::HashOrder => false,
    }
}

/// Scans one function body for direct ambient sources. Returns the
/// seed description and line of the first hit per kind.
fn body_seeds(lexed: &LexedFile, body: (usize, usize)) -> Vec<(TaintKind, String, u32)> {
    let (b0, b1) = body;
    let toks = &lexed.tokens;
    let mut entropy: Option<(String, u32)> = None;
    let mut hash_ty: Option<u32> = None;
    let mut hash_iter: Option<u32> = None;
    for (i, t) in toks.iter().enumerate().take(b1).skip(b0) {
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        if entropy.is_none() {
            if ENTROPY_IDENTS.contains(&s) {
                entropy = Some((format!("`{s}`"), t.line));
            } else if let Some(&(ty, m)) = CLOCK_PATHS.iter().find(|&&(ty, _)| ty == s) {
                if lexed.path_at(i, &[ty, m]) {
                    entropy = Some((format!("`{ty}::{m}`"), t.line));
                }
            } else if s == "env" {
                for &rd in ENV_READS {
                    if lexed.path_at(i, &["env", rd]) {
                        entropy = Some((format!("`env::{rd}`"), t.line));
                    }
                }
            }
        }
        if HASH_TYPES.contains(&s) && hash_ty.is_none() {
            hash_ty = Some(t.line);
        }
        if ITER_METHODS.contains(&s) && i > b0 && lexed.punct_at(i - 1, ".") && hash_iter.is_none()
        {
            hash_iter = Some(t.line);
        }
    }
    let mut out = Vec::new();
    if let Some((what, line)) = entropy {
        out.push((TaintKind::Entropy, what, line));
    }
    if let (Some(line), Some(_)) = (hash_ty, hash_iter) {
        out.push((
            TaintKind::HashOrder,
            "std hash-collection iteration".to_string(),
            line,
        ));
    }
    out
}

/// The result of the taint pass: per-function taints, keyed by
/// function index in the graph.
#[derive(Debug, Default)]
pub struct TaintMap {
    // Keyed on (fn index, stable kind discriminant) — `TaintKind`
    // itself deliberately stays a plain enum.
    map: BTreeMap<(usize, u8), Taint>,
}

fn kind_key(k: TaintKind) -> u8 {
    match k {
        TaintKind::Entropy => 0,
        TaintKind::HashOrder => 1,
    }
}

impl TaintMap {
    /// The taint of `fn_idx` for `kind`, if any.
    pub fn get(&self, fn_idx: usize, kind: TaintKind) -> Option<&Taint> {
        self.map.get(&(fn_idx, kind_key(kind)))
    }

    /// Number of tainted (function, kind) pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is tainted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Seeds and propagates taint over the reverse call graph (BFS, so
/// chains are shortest witnesses; deterministic order throughout).
pub fn propagate(graph: &Graph) -> TaintMap {
    let mut map: BTreeMap<(usize, u8), Taint> = BTreeMap::new();
    // Seed from function bodies. Test functions are exempt: tests may
    // stage temp dirs, time themselves, etc.
    for (fi, f) in graph.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let lexed = &graph.files[f.file].lexed;
        for (kind, what, line) in body_seeds(lexed, f.body) {
            map.entry((fi, kind_key(kind))).or_insert(Taint {
                kind,
                chain: format!("{what} ({}:{line})", graph.files[f.file].rel_path),
                depth: 0,
            });
        }
    }
    // Seed from resolved external call paths (catches `use rand::random
    // as roll; roll()` where no ambient token appears in the body).
    for call in &graph.calls {
        if call.in_test {
            continue;
        }
        let caller = &graph.fns[call.caller];
        if caller.in_test {
            continue;
        }
        for ext in &call.externals {
            if let Some(what) = external_entropy(ext) {
                map.entry((call.caller, kind_key(TaintKind::Entropy)))
                    .or_insert(Taint {
                        kind: TaintKind::Entropy,
                        chain: format!(
                            "`{}` [{what}] ({}:{})",
                            ext.join("::"),
                            graph.files[call.file].rel_path,
                            call.line
                        ),
                        depth: 0,
                    });
            }
        }
    }
    // Reverse edges: callee -> (caller, call). Calls from test code do
    // not propagate (a test calling `thread_rng` taints nothing).
    let mut rev: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (ci, call) in graph.calls.iter().enumerate() {
        if call.in_test || graph.fns[call.caller].in_test {
            continue;
        }
        for &t in &call.targets {
            rev.entry(t).or_default().push((call.caller, ci));
        }
    }
    // BFS frontier, kept sorted for determinism.
    let mut frontier: Vec<(usize, u8)> = map.keys().copied().collect();
    while !frontier.is_empty() {
        frontier.sort_unstable();
        let mut next = Vec::new();
        for (fi, kk) in frontier.drain(..) {
            let taint = map[&(fi, kk)].clone();
            if taint.depth >= 32 {
                continue;
            }
            let Some(callers) = rev.get(&fi) else {
                continue;
            };
            for &(caller, ci) in callers {
                if map.contains_key(&(caller, kk)) {
                    continue;
                }
                let call = &graph.calls[ci];
                let callee = &graph.fns[fi];
                let hop = format!(
                    "`{}` ({}:{})",
                    callee.name, graph.files[call.file].rel_path, call.line
                );
                let chain = if taint.depth >= 3 {
                    format!("{hop} → …")
                } else {
                    format!("{hop} → {}", taint.chain)
                };
                map.insert(
                    (caller, kk),
                    Taint {
                        kind: taint.kind,
                        chain,
                        depth: taint.depth + 1,
                    },
                );
                next.push((caller, kk));
            }
        }
        frontier = next;
    }
    TaintMap { map }
}

/// Emits call-site findings: calls in non-test, non-entry code whose
/// callee set intersects the tainted set.
pub fn findings(graph: &Graph, taints: &TaintMap) -> Vec<Finding> {
    let mut out = Vec::new();
    for call in &graph.calls {
        let file = &graph.files[call.file];
        if call.in_test || graph.fns[call.caller].in_test {
            continue;
        }
        for kind in [TaintKind::Entropy, TaintKind::HashOrder] {
            let diagnosable = match kind {
                TaintKind::Entropy => file.kind != CrateKind::Entry,
                TaintKind::HashOrder => file.kind == CrateKind::SimCore,
            };
            if !diagnosable || token_rules_already_fire(call, kind) {
                continue;
            }
            // First tainted target (graph order) is the witness.
            let Some((t, taint)) = call
                .targets
                .iter()
                .find_map(|&t| taints.get(t, kind).map(|w| (t, w)))
            else {
                continue;
            };
            let callee = &graph.fns[t];
            let (rule, what, fix) = match kind {
                TaintKind::Entropy => (
                    RuleId::AmbientNondeterminism,
                    "reaches ambient entropy",
                    "route the value through the seeded RNG / simulated clock plumbed \
                     from config",
                ),
                TaintKind::HashOrder => (
                    RuleId::HashCollections,
                    "observes std hash-collection iteration order",
                    "use `BTreeMap`/`BTreeSet` (or `dcsim::SortedIdSet`) behind this call",
                ),
            };
            out.push(Finding {
                file: file.rel_path.clone(),
                line: call.line,
                rule,
                message: format!(
                    "call to `{}` {what} through {}; fixed-seed runs must be a pure \
                     function of config + seed — {fix}.",
                    callee.name, taint.chain
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph(files: &[(&str, CrateKind, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(p, k, s)| (p.to_string(), *k, lex(s)))
                .collect(),
        )
    }

    fn run(files: &[(&str, CrateKind, &str)]) -> Vec<Finding> {
        let g = graph(files);
        let taints = propagate(&g);
        findings(&g, &taints)
    }

    #[test]
    fn wrapper_in_helper_crate_is_flagged_at_sim_call_site() {
        let found = run(&[
            (
                "crates/helper/src/lib.rs",
                CrateKind::Entry,
                "pub fn jitter() -> u64 { thread_rng().gen() }",
            ),
            (
                "crates/dcsim/src/engine.rs",
                CrateKind::SimCore,
                "fn place() { let _ = helper::jitter(); }",
            ),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].file, "crates/dcsim/src/engine.rs");
        assert_eq!(found[0].rule, RuleId::AmbientNondeterminism);
        assert!(found[0].message.contains("jitter"), "{}", found[0].message);
        assert!(
            found[0].message.contains("thread_rng"),
            "chain names the source: {}",
            found[0].message
        );
    }

    #[test]
    fn reexported_wrapper_is_still_flagged() {
        let found = run(&[
            (
                "crates/helper/src/inner.rs",
                CrateKind::Entry,
                "pub fn jitter() -> u64 { thread_rng().gen() }",
            ),
            (
                "crates/helper/src/lib.rs",
                CrateKind::Entry,
                "mod inner;\npub use inner::jitter as fast_jitter;",
            ),
            (
                "crates/dcsim/src/engine.rs",
                CrateKind::SimCore,
                "use helper::fast_jitter;\nfn place() { let _ = fast_jitter(); }",
            ),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].file, "crates/dcsim/src/engine.rs");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn transitive_chain_and_direct_site_do_not_duplicate() {
        // thread_rng written directly in sim code is DL002's job — the
        // taint pass must stay silent there.
        let found = run(&[(
            "crates/dcsim/src/engine.rs",
            CrateKind::SimCore,
            "fn place() { let _ = thread_rng(); }",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn hash_iteration_taints_simcore_call_sites_only() {
        let helper = (
            "crates/helper/src/lib.rs",
            CrateKind::Entry,
            "pub fn order() -> Vec<u64> { let m: HashMap<u64, u64> = HashMap::new();\n\
             m.keys().copied().collect() }",
        );
        let sim = (
            "crates/dcsim/src/engine.rs",
            CrateKind::SimCore,
            "fn place() { let _ = helper::order(); }",
        );
        let lib = (
            "crates/metrics/src/lib.rs",
            CrateKind::Library,
            "fn summarize() { let _ = helper::order(); }",
        );
        let found = run(&[helper, sim, lib]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, RuleId::HashCollections);
        assert_eq!(found[0].file, "crates/dcsim/src/engine.rs");
    }

    #[test]
    fn test_code_neither_seeds_nor_sites() {
        let found = run(&[
            (
                "crates/helper/src/lib.rs",
                CrateKind::Entry,
                "#[cfg(test)]\nmod tests { pub fn jitter() -> u64 { thread_rng().gen() } }",
            ),
            (
                "crates/dcsim/src/engine.rs",
                CrateKind::SimCore,
                "#[cfg(test)]\nmod tests {\n fn probe() { let _ = helper::jitter(); }\n}",
            ),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn aliased_external_rng_seeds_the_caller() {
        let found = run(&[
            (
                "crates/helper/src/lib.rs",
                CrateKind::Entry,
                "use rand::random as roll;\npub fn jitter() -> u64 { roll() }",
            ),
            (
                "crates/dcsim/src/engine.rs",
                CrateKind::SimCore,
                "fn place() { let _ = helper::jitter(); }",
            ),
        ]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("rand::random"),
            "{}",
            found[0].message
        );
    }
}
