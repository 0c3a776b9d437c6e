//! A conservative whole-workspace call graph over the lexed token
//! streams.
//!
//! Edges over-approximate: a call site binds to *every* workspace
//! function its written path could plausibly name (per-crate flat
//! name tables, `use`-alias expansion, `pub use` re-export chasing,
//! and a same-crate fallback for unresolvable module paths). That is
//! the right direction for the taint pass — a missed edge could hide
//! entropy behind a wrapper, while a spurious edge to an *untainted*
//! function costs nothing. Known gaps, accepted deliberately: calls
//! through function values/closures (`map(f)` passes `f` without
//! parentheses) and trait-object dispatch create no edges; the
//! token-level rules (DL001/DL002) still cover sources written
//! directly inside simulation crates.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{LexedFile, TokKind};
use crate::rules::test_regions;
use crate::symbols::{crate_of, parse_file, FileSymbols, FnDef};
use crate::CrateKind;

/// One analyzed source file.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Determinism regime of the containing crate.
    pub kind: CrateKind,
    /// Token stream.
    pub lexed: LexedFile,
    /// Item structure.
    pub symbols: FileSymbols,
    /// Cached `#[cfg(test)]` token regions.
    pub tests: Vec<(usize, usize)>,
}

/// One call site, with every workspace function and external path the
/// written callee could resolve to.
#[derive(Debug)]
pub struct Call {
    /// Index of the enclosing function in [`Graph::fns`].
    pub caller: usize,
    /// File containing the call site.
    pub file: usize,
    /// 1-based line of the callee token.
    pub line: u32,
    /// Callee path segments exactly as written (one segment for bare
    /// and method calls).
    pub written: Vec<String>,
    /// `.name(...)` receiver call rather than a path call.
    pub is_method: bool,
    /// Candidate workspace callees (indices into [`Graph::fns`]).
    pub targets: Vec<usize>,
    /// Candidate fully-expanded external paths (aliases resolved).
    pub externals: Vec<Vec<String>>,
    /// The call site lies in `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// A `pub use` re-export: the declaring file's index and the path it
/// re-exports.
type Reexport = (usize, Vec<String>);

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every analyzed file, in input order (indices match
    /// [`FnDef::file`] / [`Call::file`]).
    pub files: Vec<AnalyzedFile>,
    /// Every function definition in the workspace.
    pub fns: Vec<FnDef>,
    /// Every resolved call site.
    pub calls: Vec<Call>,
    /// All workspace crate names (normalized idents).
    pub crates: BTreeSet<String>,
    by_crate_name: BTreeMap<(String, String), Vec<usize>>,
    reexports: BTreeMap<(String, String), Vec<Reexport>>,
    glob_reexports: BTreeMap<String, Vec<Reexport>>,
}

/// Callee idents that are control-flow keywords or otherwise never
/// function calls.
const NON_CALLEES: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "where", "let", "mut", "ref", "move", "unsafe", "fn", "use", "pub", "impl", "trait", "struct",
    "enum", "mod", "const", "static", "type", "dyn",
];

impl Graph {
    /// Parses every file's symbols and builds the call graph.
    pub fn build(files: Vec<(String, CrateKind, LexedFile)>) -> Self {
        let mut graph = Graph::default();
        let analyzed: Vec<AnalyzedFile> = files
            .into_iter()
            .enumerate()
            .map(|(idx, (rel_path, kind, lexed))| {
                let symbols = parse_file(&lexed, &rel_path, idx);
                let tests = test_regions(&lexed);
                AnalyzedFile {
                    rel_path,
                    kind,
                    lexed,
                    symbols,
                    tests,
                }
            })
            .collect();

        for (file_idx, file) in analyzed.iter().enumerate() {
            let krate = crate_of(&file.rel_path);
            graph.crates.insert(krate.clone());
            for f in &file.symbols.fns {
                graph
                    .by_crate_name
                    .entry((krate.clone(), f.name.clone()))
                    .or_default()
                    .push(graph.fns.len());
                graph.fns.push(f.clone());
            }
            for u in &file.symbols.uses {
                if !u.is_pub {
                    continue;
                }
                if u.alias == "*" {
                    graph
                        .glob_reexports
                        .entry(krate.clone())
                        .or_default()
                        .push((file_idx, u.path.clone()));
                } else {
                    graph
                        .reexports
                        .entry((krate.clone(), u.alias.clone()))
                        .or_default()
                        .push((file_idx, u.path.clone()));
                }
            }
        }

        graph.extract_calls(&analyzed);
        graph.files = analyzed;
        graph
    }

    /// All functions named `name` in `krate` (flat, module-free).
    pub fn fns_named(&self, krate: &str, name: &str) -> &[usize] {
        self.by_crate_name
            .get(&(krate.to_string(), name.to_string()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn extract_calls(&mut self, files: &[AnalyzedFile]) {
        // Caller lookup: fn index by (file, body range).
        for (file_idx, file) in files.iter().enumerate() {
            let use_map = UseMap::of(file);
            let ctx_crate = crate_of(&file.rel_path);
            let fns_here: Vec<usize> = (0..self.fns.len())
                .filter(|&i| self.fns[i].file == file_idx)
                .collect();
            for &fn_idx in &fns_here {
                let (b0, b1) = self.fns[fn_idx].body;
                if b1 <= b0 {
                    continue;
                }
                // Innermost-fn attribution: skip token ranges owned by
                // nested fns (closures stay with the outer fn).
                let nested: Vec<(usize, usize)> = fns_here
                    .iter()
                    .filter(|&&o| o != fn_idx)
                    .map(|&o| self.fns[o].body)
                    .filter(|&(n0, n1)| n0 > b0 && n1 <= b1)
                    .collect();
                let mut i = b0;
                while i < b1 {
                    if nested.iter().any(|&(n0, n1)| i >= n0 && i < n1) {
                        i += 1;
                        continue;
                    }
                    if let Some(call) =
                        self.call_at(file, file_idx, fn_idx, i, &use_map, &ctx_crate)
                    {
                        let next = i + 1;
                        self.calls.push(call);
                        i = next;
                        continue;
                    }
                    i += 1;
                }
            }
        }
    }

    /// Recognizes a call whose *callee token* is at `i` and resolves it.
    fn call_at(
        &self,
        file: &AnalyzedFile,
        file_idx: usize,
        caller: usize,
        i: usize,
        use_map: &UseMap,
        ctx_crate: &str,
    ) -> Option<Call> {
        let lexed = &file.lexed;
        let t = lexed.tokens.get(i)?;
        if t.kind != TokKind::Ident || NON_CALLEES.contains(&t.text.as_str()) {
            return None;
        }
        // The token after the callee: `(`, or a turbofish then `(`.
        let mut after = i + 1;
        if lexed.punct_at(after, ":")
            && lexed.punct_at(after + 1, ":")
            && lexed.punct_at(after + 2, "<")
        {
            after = skip_angle(lexed, after + 2);
        }
        if lexed.punct_at(i + 1, "!") {
            return None; // macro invocation
        }
        if !lexed.punct_at(after, "(") {
            return None;
        }
        // Must be the *last* segment of its path: `a::b(` triggers only
        // at `b` (at `a` the next token is `:`, not `(`).
        // Collect preceding `seg ::` pairs.
        let mut segs = vec![t.text.clone()];
        let mut j = i;
        while j >= 3 && lexed.punct_at(j - 1, ":") && lexed.punct_at(j - 2, ":") {
            let Some(prev) = lexed.tokens.get(j - 3) else {
                break;
            };
            if prev.kind != TokKind::Ident {
                break;
            }
            segs.insert(0, prev.text.clone());
            j -= 3;
        }
        let is_method = j >= 1 && lexed.punct_at(j - 1, ".") && segs.len() == 1;
        if segs.len() == 1 && !is_method {
            // A definition (`fn name(`) is not a call.
            if j >= 1 && lexed.ident_at(j - 1, "fn") {
                return None;
            }
        }
        let mut targets = Vec::new();
        let mut externals = Vec::new();
        if is_method {
            // Methods bind by name in the caller's crate and in every
            // workspace crate the file imports from.
            self.method_candidates(&t.text, ctx_crate, use_map, &mut targets);
        } else {
            self.resolve(&segs, ctx_crate, use_map, 0, &mut targets, &mut externals);
        }
        if targets.is_empty() && externals.is_empty() {
            return None;
        }
        targets.sort_unstable();
        targets.dedup();
        externals.sort();
        externals.dedup();
        Some(Call {
            caller,
            file: file_idx,
            line: t.line,
            written: segs,
            is_method,
            targets,
            externals,
            in_test: file.tests.iter().any(|&(a, b)| i >= a && i < b),
        })
    }

    fn method_candidates(
        &self,
        name: &str,
        ctx_crate: &str,
        use_map: &UseMap,
        out: &mut Vec<usize>,
    ) {
        let mut crates: BTreeSet<&str> = BTreeSet::new();
        crates.insert(ctx_crate);
        for head in &use_map.imported_crates {
            if self.crates.contains(head) {
                crates.insert(head);
            }
        }
        for k in crates {
            for &f in self.fns_named(k, name) {
                if self.fns[f].is_method {
                    out.push(f);
                }
            }
        }
    }

    /// Resolves a written path to workspace functions and/or external
    /// paths. Conservative: ambiguous heads resolve both ways.
    fn resolve(
        &self,
        segs: &[String],
        ctx_crate: &str,
        use_map: &UseMap,
        depth: u8,
        targets: &mut Vec<usize>,
        externals: &mut Vec<Vec<String>>,
    ) {
        if depth > 8 || segs.is_empty() {
            return;
        }
        let head = segs[0].as_str();
        let last = segs.last().expect("non-empty path").as_str();
        if segs.len() == 1 {
            if let Some(path) = use_map.aliases.get(head) {
                self.resolve(path, ctx_crate, use_map, depth + 1, targets, externals);
            }
            self.resolve_in_crate(ctx_crate, head, &mut BTreeSet::new(), targets, externals);
            for g in &use_map.globs {
                let mut p = g[..g.len() - 1].to_vec();
                p.push(head.to_string());
                self.resolve(&p, ctx_crate, use_map, depth + 1, targets, externals);
            }
            return;
        }
        match head {
            "crate" | "self" | "super" | "Self" => {
                self.resolve_in_crate(ctx_crate, last, &mut BTreeSet::new(), targets, externals);
            }
            _ if use_map.aliases.contains_key(head) => {
                let mut p = use_map.aliases[head].clone();
                p.extend_from_slice(&segs[1..]);
                self.resolve(&p, ctx_crate, use_map, depth + 1, targets, externals);
            }
            _ if self.crates.contains(head) => {
                self.resolve_in_crate(head, last, &mut BTreeSet::new(), targets, externals);
            }
            _ => {
                // `std::...`, an external crate, or a module path of
                // the current crate — resolve both ways.
                externals.push(segs.to_vec());
                self.resolve_in_crate(ctx_crate, last, &mut BTreeSet::new(), targets, externals);
            }
        }
    }

    /// Looks a name up in one crate's flat function table, then chases
    /// its `pub use` re-exports (cycle-guarded).
    fn resolve_in_crate(
        &self,
        krate: &str,
        name: &str,
        visited: &mut BTreeSet<(String, String)>,
        targets: &mut Vec<usize>,
        externals: &mut Vec<Vec<String>>,
    ) {
        if !visited.insert((krate.to_string(), name.to_string())) {
            return;
        }
        targets.extend_from_slice(self.fns_named(krate, name));
        if let Some(rexps) = self.reexports.get(&(krate.to_string(), name.to_string())) {
            for (_file, path) in rexps {
                self.resolve_reexport_target(krate, path, visited, targets, externals);
            }
        }
        if let Some(globs) = self.glob_reexports.get(krate) {
            for (_file, g) in globs {
                let mut p = g[..g.len() - 1].to_vec();
                p.push(name.to_string());
                self.resolve_reexport_target(krate, &p, visited, targets, externals);
            }
        }
    }

    /// Resolves a re-export target path in its declaring crate's
    /// context (no per-file aliases: `pub use` targets are written as
    /// full paths in this workspace's style).
    fn resolve_reexport_target(
        &self,
        krate: &str,
        path: &[String],
        visited: &mut BTreeSet<(String, String)>,
        targets: &mut Vec<usize>,
        externals: &mut Vec<Vec<String>>,
    ) {
        let Some(last) = path.last() else { return };
        let head = path[0].as_str();
        match head {
            "crate" | "self" | "super" => {
                self.resolve_in_crate(krate, last, visited, targets, externals);
            }
            _ if self.crates.contains(head) => {
                self.resolve_in_crate(head, last, visited, targets, externals);
            }
            _ if path.len() == 1 => {
                self.resolve_in_crate(krate, last, visited, targets, externals);
            }
            _ => {
                externals.push(path.to_vec());
                self.resolve_in_crate(krate, last, visited, targets, externals);
            }
        }
    }
}

/// Per-file import context.
struct UseMap {
    /// Non-glob bindings: local name → full path.
    aliases: BTreeMap<String, Vec<String>>,
    /// Glob import paths (ending in `*`).
    globs: Vec<Vec<String>>,
    /// Head crates named by any import (for method binding).
    imported_crates: BTreeSet<String>,
}

impl UseMap {
    fn of(file: &AnalyzedFile) -> Self {
        let mut aliases = BTreeMap::new();
        let mut globs = Vec::new();
        let mut imported_crates = BTreeSet::new();
        for u in &file.symbols.uses {
            if let Some(head) = u.path.first() {
                imported_crates.insert(head.replace('-', "_"));
            }
            if u.alias == "*" {
                globs.push(u.path.clone());
            } else {
                aliases.insert(u.alias.clone(), u.path.clone());
            }
        }
        UseMap {
            aliases,
            globs,
            imported_crates,
        }
    }
}

/// Skips past a `<...>` group starting at `<`, tolerant of `->`.
fn skip_angle(lexed: &LexedFile, mut i: usize) -> usize {
    let mut depth = 0i32;
    let n = lexed.tokens.len();
    while i < n {
        if lexed.punct_at(i, "-") && lexed.punct_at(i + 1, ">") {
            i += 2;
            continue;
        }
        if lexed.punct_at(i, "<") {
            depth += 1;
        } else if lexed.punct_at(i, ">") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn build(files: &[(&str, CrateKind, &str)]) -> Graph {
        Graph::build(
            files
                .iter()
                .map(|(p, k, s)| (p.to_string(), *k, lex(s)))
                .collect(),
        )
    }

    fn callee_names(g: &Graph, caller: &str) -> Vec<String> {
        let caller_idx = g.fns.iter().position(|f| f.name == caller).expect("caller");
        let mut out: Vec<String> = g
            .calls
            .iter()
            .filter(|c| c.caller == caller_idx)
            .flat_map(|c| c.targets.iter().map(|&t| g.fns[t].name.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn cross_crate_path_call_resolves() {
        let g = build(&[
            (
                "crates/helper/src/lib.rs",
                CrateKind::Entry,
                "pub fn jitter() -> u64 { 4 }",
            ),
            (
                "crates/dcsim/src/engine.rs",
                CrateKind::SimCore,
                "fn place() { let _ = helper::jitter(); }",
            ),
        ]);
        assert_eq!(callee_names(&g, "place"), ["jitter"]);
    }

    #[test]
    fn use_alias_and_reexport_resolve() {
        let g = build(&[
            (
                "crates/helper/src/lib.rs",
                CrateKind::Entry,
                "mod inner { pub fn jitter() -> u64 { 4 } }\npub use inner::jitter as fast;",
            ),
            (
                "crates/dcsim/src/engine.rs",
                CrateKind::SimCore,
                "use helper::fast;\nfn place() { let _ = fast(); }",
            ),
        ]);
        assert_eq!(callee_names(&g, "place"), ["jitter"]);
    }

    #[test]
    fn method_calls_bind_within_crate_and_imports() {
        let g = build(&[(
            "crates/dcsim/src/engine.rs",
            CrateKind::SimCore,
            "struct S;\nimpl S { fn helper(&self) {} }\nfn run(s: &S) { s.helper(); }",
        )]);
        assert_eq!(callee_names(&g, "run"), ["helper"]);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let g = build(&[(
            "crates/dcsim/src/engine.rs",
            CrateKind::SimCore,
            "fn run() { println!(\"x\"); if (true) {} return (); }",
        )]);
        let run = g.fns.iter().position(|f| f.name == "run").unwrap();
        assert!(g
            .calls
            .iter()
            .all(|c| c.caller != run || !c.written.is_empty()));
        assert!(callee_names(&g, "run").is_empty());
    }

    #[test]
    fn external_paths_survive_alias_expansion() {
        let g = build(&[(
            "crates/dcsim/src/engine.rs",
            CrateKind::SimCore,
            "use rand::random as roll;\nfn run() -> u8 { roll() }",
        )]);
        let call = g
            .calls
            .iter()
            .find(|c| c.written == ["roll"])
            .expect("call");
        assert!(call.externals.iter().any(|p| p == &["rand", "random"]));
    }
}
