//! Item-structure parsing on top of the lexer: function definitions,
//! `use` declarations and re-exports, per crate.
//!
//! This is deliberately *not* a Rust parser. The taint pass
//! ([`crate::taint`]) only needs three structural facts per file:
//! which functions are defined here (with their body token ranges),
//! what names the file imports (so a call through an alias resolves to
//! its real path), and what the crate re-exports (so a `pub use`
//! cannot smuggle an ambient-entropy source past the token rules).
//! Everything else — types, generics, visibility — is skipped over
//! with bracket matching. The result is a conservative
//! over-approximation: a flat per-crate function table keyed by name,
//! which is exactly what a sound "could this call reach entropy?"
//! analysis wants.

use crate::lexer::{LexedFile, TokKind};
use crate::rules::test_regions;

/// One function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name (methods included, unqualified).
    pub name: String,
    /// Normalized crate ident (`dcsim`, `ecocloud_core`, `ecocloud`).
    pub krate: String,
    /// Index of the defining file in the analyzed file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Half-open token-index range of the body including its braces;
    /// `(0, 0)` for bodyless declarations (trait methods, externs).
    pub body: (usize, usize),
    /// Defined inside an `impl` or `trait` block (callable as `.name(...)`).
    pub is_method: bool,
    /// Defined inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
}

/// One imported or re-exported name.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// `pub use` — the name is visible to (and resolvable by) other
    /// crates under this crate's namespace.
    pub is_pub: bool,
    /// The local binding this declaration introduces (the last path
    /// segment, or the `as` alias). `*` for glob imports.
    pub alias: String,
    /// Full path segments as written, `crate`/`self`/`super`
    /// normalized away by the resolver, e.g. `["rand", "thread_rng"]`.
    pub path: Vec<String>,
    /// 1-based line of the declaration (for diagnostics).
    pub line: u32,
}

/// Structural facts about one file.
#[derive(Debug, Default)]
pub struct FileSymbols {
    /// Function definitions in source order.
    pub fns: Vec<FnDef>,
    /// `use` declarations, groups expanded one binding per entry.
    pub uses: Vec<UseDecl>,
}

/// Normalized crate ident for a workspace-relative path:
/// `crates/ecocloud-core/src/x.rs` → `ecocloud_core`, anything outside
/// `crates/` (the root package) → `ecocloud`.
pub fn crate_of(rel: &str) -> String {
    rel.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("ecocloud")
        .replace('-', "_")
}

/// Half-open token ranges lying inside `impl` or `trait` blocks —
/// a `fn` in one of these is callable as a method.
fn impl_regions(lexed: &LexedFile) -> Vec<(usize, usize)> {
    let toks = &lexed.tokens;
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_opener = lexed.ident_at(i, "impl") || lexed.ident_at(i, "trait");
        if !is_opener {
            i += 1;
            continue;
        }
        // Find the block's `{` (or a terminating `;` for `trait X;`-ish
        // degenerate forms), then brace-match to its end.
        let mut j = i + 1;
        while j < toks.len() && !lexed.punct_at(j, "{") && !lexed.punct_at(j, ";") {
            j += 1;
        }
        if lexed.punct_at(j, "{") {
            let start = j;
            let mut depth = 1u32;
            j += 1;
            while j < toks.len() && depth > 0 {
                if lexed.punct_at(j, "{") {
                    depth += 1;
                } else if lexed.punct_at(j, "}") {
                    depth -= 1;
                }
                j += 1;
            }
            regions.push((start, j));
        }
        i = j.max(i + 1);
    }
    regions
}

fn in_any(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(a, b)| idx >= a && idx < b)
}

/// Skips a generic parameter list starting at `<`, returning the index
/// just past the matching `>`. Treats `->` arrows (legal inside `Fn`
/// bounds) as opaque so their `>` does not close the list.
fn skip_generics(lexed: &LexedFile, mut i: usize) -> usize {
    if !lexed.punct_at(i, "<") {
        return i;
    }
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

/// Parses one file's item structure.
pub fn parse_file(lexed: &LexedFile, rel_path: &str, file_idx: usize) -> FileSymbols {
    let krate = crate_of(rel_path);
    let toks = &lexed.tokens;
    let tests = test_regions(lexed);
    let impls = impl_regions(lexed);
    let mut out = FileSymbols::default();
    let mut i = 0;
    while i < toks.len() {
        if lexed.ident_at(i, "fn") {
            // `fn name` — a bare `fn` pointer type (`fn(u32) -> u32`)
            // has `(` next instead of a name and is skipped.
            let Some(name_tok) = toks.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let name = name_tok.text.clone();
            let line = toks[i].line;
            let mut j = skip_generics(lexed, i + 2);
            // Parameter list.
            if lexed.punct_at(j, "(") {
                let mut depth = 1u32;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if lexed.punct_at(j, "(") {
                        depth += 1;
                    } else if lexed.punct_at(j, ")") {
                        depth -= 1;
                    }
                    j += 1;
                }
            }
            // Return type / where clause, up to the body or a `;`.
            while j < toks.len() && !lexed.punct_at(j, "{") && !lexed.punct_at(j, ";") {
                j += 1;
            }
            let body = if lexed.punct_at(j, "{") {
                let start = j;
                let mut depth = 1u32;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if lexed.punct_at(j, "{") {
                        depth += 1;
                    } else if lexed.punct_at(j, "}") {
                        depth -= 1;
                    }
                    j += 1;
                }
                (start, j)
            } else {
                (0, 0)
            };
            out.fns.push(FnDef {
                name,
                krate: krate.clone(),
                file: file_idx,
                line,
                body,
                is_method: in_any(&impls, i),
                in_test: in_any(&tests, i),
            });
            i = j.max(i + 1);
            continue;
        }
        if lexed.ident_at(i, "use") {
            let is_pub = i > 0 && prev_is_pub(lexed, i);
            let line = toks[i].line;
            let end = parse_use_tree(lexed, i + 1, &mut Vec::new(), is_pub, line, &mut out.uses);
            i = end.max(i + 1);
            continue;
        }
        i += 1;
    }
    out
}

/// True when the tokens directly before `use` at `i` are `pub` or
/// `pub(crate)` / `pub(super)` / `pub(in ...)`.
fn prev_is_pub(lexed: &LexedFile, i: usize) -> bool {
    if lexed.ident_at(i - 1, "pub") {
        return true;
    }
    // `pub ( ... ) use`: walk back over one paren group.
    if i >= 2 && lexed.punct_at(i - 1, ")") {
        let mut j = i - 1;
        let mut depth = 0i32;
        while j > 0 {
            if lexed.punct_at(j, ")") {
                depth += 1;
            } else if lexed.punct_at(j, "(") {
                depth -= 1;
                if depth == 0 {
                    return j >= 1 && lexed.ident_at(j - 1, "pub");
                }
            }
            j -= 1;
        }
    }
    false
}

/// Parses a use tree starting at token `i` with `prefix` segments
/// already accumulated; pushes one [`UseDecl`] per leaf binding and
/// returns the index just past the tree (at its `;`, `,` or `}`).
fn parse_use_tree(
    lexed: &LexedFile,
    mut i: usize,
    prefix: &mut Vec<String>,
    is_pub: bool,
    line: u32,
    out: &mut Vec<UseDecl>,
) -> usize {
    let toks = &lexed.tokens;
    let depth_at_entry = prefix.len();
    loop {
        match toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => {
                prefix.push(t.text.clone());
                i += 1;
                if lexed.punct_at(i, ":") && lexed.punct_at(i + 1, ":") {
                    i += 2;
                    continue;
                }
                // Leaf: maybe `as alias`.
                let alias = if lexed.ident_at(i, "as") {
                    if let Some(a) = toks.get(i + 1) {
                        i += 2;
                        a.text.clone()
                    } else {
                        break;
                    }
                } else {
                    prefix.last().cloned().unwrap_or_default()
                };
                out.push(UseDecl {
                    is_pub,
                    alias,
                    path: prefix.clone(),
                    line,
                });
                break;
            }
            Some(t) if t.kind == TokKind::Punct && t.text == "{" => {
                // Group: parse each comma-separated subtree, restoring
                // the group's shared prefix between elements.
                let group_depth = prefix.len();
                i += 1;
                loop {
                    if lexed.punct_at(i, "}") {
                        i += 1;
                        break;
                    }
                    let before = i;
                    i = parse_use_tree(lexed, i, prefix, is_pub, line, out);
                    prefix.truncate(group_depth);
                    if lexed.punct_at(i, ",") {
                        i += 1;
                    }
                    if i <= before {
                        // Malformed input: guarantee progress.
                        i = before + 1;
                    }
                    if i >= toks.len() {
                        break;
                    }
                }
                break;
            }
            Some(t) if t.kind == TokKind::Punct && t.text == "*" => {
                prefix.push("*".to_string());
                out.push(UseDecl {
                    is_pub,
                    alias: "*".to_string(),
                    path: prefix.clone(),
                    line,
                });
                i += 1;
                break;
            }
            Some(t) if t.kind == TokKind::Punct && t.text == ":" => {
                // Leading `::` or stray separator — skip.
                i += 1;
            }
            _ => break,
        }
    }
    prefix.truncate(depth_at_entry);
    // Advance to the end of this subtree (caller handles `,`/`}`/`;`).
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileSymbols {
        parse_file(&lex(src), "crates/dcsim/src/x.rs", 0)
    }

    #[test]
    fn finds_functions_with_bodies_and_methods() {
        let src = "
fn free(a: u64) -> u64 { a + 1 }
struct S;
impl S {
    pub fn method(&self) -> f64 { 0.0 }
}
trait T {
    fn declared(&self);
    fn defaulted(&self) -> u32 { 2 }
}
#[cfg(test)]
mod tests {
    fn helper() {}
}
";
        let syms = parse(src);
        let names: Vec<(&str, bool, bool)> = syms
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.is_method, f.in_test))
            .collect();
        assert_eq!(
            names,
            [
                ("free", false, false),
                ("method", true, false),
                ("declared", true, false),
                ("defaulted", true, false),
                ("helper", false, true),
            ]
        );
        let free = &syms.fns[0];
        assert!(free.body.1 > free.body.0, "free() has a body range");
        let declared = &syms.fns[2];
        assert_eq!(declared.body, (0, 0), "trait decl has no body");
    }

    #[test]
    fn generic_fn_with_fn_bound_is_parsed() {
        let syms = parse("fn apply<F: Fn(u32) -> u32>(f: F) -> u32 { f(1) }\nfn after() {}");
        let names: Vec<&str> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["apply", "after"]);
    }

    #[test]
    fn use_groups_aliases_and_globs_expand() {
        let src = "
use std::collections::{BTreeMap, BTreeSet as Set};
pub use inner::jitter as fast_jitter;
use rand::*;
";
        let syms = parse(src);
        let got: Vec<(String, String, bool)> = syms
            .uses
            .iter()
            .map(|u| (u.alias.clone(), u.path.join("::"), u.is_pub))
            .collect();
        assert_eq!(
            got,
            [
                (
                    "BTreeMap".into(),
                    "std::collections::BTreeMap".into(),
                    false
                ),
                ("Set".into(), "std::collections::BTreeSet".into(), false),
                ("fast_jitter".into(), "inner::jitter".into(), true),
                ("*".into(), "rand::*".into(), false),
            ]
        );
    }

    #[test]
    fn crate_names_normalize() {
        assert_eq!(
            crate_of("crates/ecocloud-core/src/policy.rs"),
            "ecocloud_core"
        );
        assert_eq!(crate_of("crates/dcsim/src/engine.rs"), "dcsim");
        assert_eq!(crate_of("src/sweep.rs"), "ecocloud");
        assert_eq!(crate_of("tests/invariants.rs"), "ecocloud");
    }
}
