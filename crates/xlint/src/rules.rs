//! The rule engine: nine workspace invariants, the
//! `// xlint: allow(<rule>) — <reason>` escape hatch, and the per-file
//! check driver.
//!
//! | rule                     | invariant                                            |
//! |--------------------------|------------------------------------------------------|
//! | `sync-facade`            | no `std::sync`/`std::thread::spawn` in `crates/parallel` outside `sync.rs` |
//! | `ordering-justification` | every `Ordering::SeqCst`/`Relaxed` carries `// ordering:` nearby, and the comment must not declare a different ordering |
//! | `panic-freedom`          | no `.unwrap()` / `.expect(` / `panic!` in `phylo`/`core` library code |
//! | `no-stray-io`            | no `println!`/`eprintln!` in library crates          |
//! | `atomic-ordering`        | atomic-site dataflow: comment/code ordering agreement on Acquire/Release sites, no Release-class write read by an unjustified `Relaxed` load |
//! | `lock-scope`             | no `MutexGuard` held across `park()`, a foreign `Condvar::wait`, or a call into the explore kernels |
//! | `sink-error-latching`    | a `StandSink` impl that latches an error must surface it from `finish()` |
//! | `unchecked-arithmetic`   | wire-format arithmetic (varint, phylo2vec) must be guarded or justified |
//! | `unsafe-inventory`       | every `unsafe` carries a `// safety:` comment         |
//!
//! All rules ignore test code (see `lexer::mark_test_regions`), comments
//! and string literals, and share one lex+parse per file (`FileAnalysis`).
//! Scopes are path prefixes (or single files) relative to the repo root
//! with `/` separators.
//!
//! Division of labour between the two atomic rules: `ordering-justification`
//! owns `Ordering::SeqCst`/`Relaxed` *token sites* — presence of a nearby
//! `// ordering:` comment plus the declared-vs-actual mismatch check — while
//! `atomic-ordering` reasons about *call sites* (which field, which op,
//! which orderings travel together) and so owns the Acquire/Release-family
//! mismatches and the per-field release/relaxed asymmetry analysis. A
//! comment that names no ordering at all stays presence-justified: prose
//! like "monotonic diagnostic counter" is a valid justification.

use crate::analysis::{atomic_sites, named_orderings, unsafe_sites, AtomicSite, FileAnalysis};
use crate::lexer::{Tok, TokKind};
use crate::parser::{Item, ItemKind};

/// One rule violation (or escape-hatch misuse) at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (`sync-facade`, …, or `allow-syntax` for a malformed
    /// escape comment).
    pub rule: &'static str,
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
    /// The trimmed source line (doubles as the baseline fingerprint, so
    /// entries survive unrelated line-number drift).
    pub snippet: String,
}

/// A rule's check pass over one analyzed file. Pushes raw findings; the
/// driver applies scope, allow escapes and the baseline.
pub type RuleCheck = fn(&FileAnalysis, &mut Vec<Finding>);

/// A lint rule: name, what it protects, where it applies, and its check.
pub struct Rule {
    /// Stable rule name used in findings, allow-comments and the baseline.
    pub name: &'static str,
    /// One-line description (shown by `--list-rules` and in DESIGN.md).
    pub desc: &'static str,
    /// Path prefixes (or single files) the rule applies to.
    pub scope: &'static [&'static str],
    /// Path prefixes exempt from the rule (checked after `scope`).
    pub exempt: &'static [&'static str],
    /// The check itself.
    pub check: RuleCheck,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "sync-facade",
        desc: "scheduler code must import sync primitives through parallel::sync \
               (std::sync / std::thread::spawn bypass the loom model)",
        scope: &["crates/parallel/src"],
        exempt: &["crates/parallel/src/sync.rs"],
        check: check_sync_facade,
    },
    Rule {
        name: "ordering-justification",
        desc: "every Ordering::SeqCst / Ordering::Relaxed site needs a nearby \
               `// ordering:` comment explaining why — and a comment that \
               names orderings must name the one the code uses",
        scope: &["crates/parallel/src"],
        exempt: &[],
        check: check_ordering_justification,
    },
    Rule {
        name: "panic-freedom",
        desc: "no .unwrap() / .expect( / panic! in phylo/core library code \
               (parse, I/O and driver paths return typed errors)",
        scope: &["crates/phylo/src", "crates/core/src"],
        exempt: &[],
        check: check_panic_freedom,
    },
    Rule {
        name: "no-stray-io",
        desc: "library crates must not println!/eprintln! (results go through \
               sinks and run reports; binaries and the bench harness may print)",
        scope: &[
            "src",
            "crates/phylo/src",
            "crates/core/src",
            "crates/standfile/src",
            "crates/parallel/src",
            "crates/sim/src",
            "crates/datagen/src",
            "crates/superb/src",
            "crates/msa/src",
            "crates/cli/src",
        ],
        exempt: &["crates/datagen/src/bin", "crates/cli/src/main.rs"],
        check: check_no_stray_io,
    },
    Rule {
        name: "atomic-ordering",
        desc: "atomic call-site dataflow: `// ordering:` comments must agree \
               with the Ordering arguments on Acquire/Release-family sites, \
               and a field written with Release/AcqRel/SeqCst must not be \
               read by a Relaxed load unless the comment invokes a fence, \
               exclusive/owner access, or an advisory/stale-tolerant read",
        scope: &["crates/parallel/src"],
        exempt: &[],
        check: check_atomic_ordering,
    },
    Rule {
        name: "lock-scope",
        desc: "no MutexGuard held across park(), a Condvar wait that does not \
               consume the guard, or a call into the explore kernels \
               (begin_task/resume_task/step/…) — lock-ordering deadlock bait",
        scope: &["crates/parallel/src"],
        exempt: &[],
        check: check_lock_scope,
    },
    Rule {
        name: "sink-error-latching",
        desc: "a StandSink impl that latches an error (`self.field = Some(..)`) \
               must surface that field from finish() — the silent-truncation \
               bug class",
        scope: &[
            "src",
            "crates/core/src",
            "crates/standfile/src",
            "crates/parallel/src",
            "crates/phylo/src",
            "crates/cli/src",
        ],
        exempt: &[],
        check: check_sink_error_latching,
    },
    Rule {
        name: "unchecked-arithmetic",
        desc: "wire-format arithmetic must not silently truncate or wrap: \
               narrowing `as` casts and bare `+`/`<<` need a checked_*/\
               debug_assert!/mask guard or an `// arith:` justification",
        scope: &[
            "crates/standfile/src/varint.rs",
            "crates/phylo/src/phylo2vec.rs",
        ],
        exempt: &[],
        check: check_unchecked_arithmetic,
    },
    Rule {
        name: "unsafe-inventory",
        desc: "every `unsafe` block/fn/impl carries a `// safety:` comment \
               stating the invariant it relies on (and lands in the \
               machine-readable inventory, `xlint --atomics-json`)",
        scope: &[
            "src",
            "crates/phylo/src",
            "crates/core/src",
            "crates/standfile/src",
            "crates/parallel/src",
            "crates/sim/src",
            "crates/datagen/src",
            "crates/superb/src",
            "crates/msa/src",
            "crates/cli/src",
            "shims/loom/src",
        ],
        exempt: &[],
        check: check_unsafe_inventory,
    },
];

fn path_applies(path: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| path == *p || path.starts_with(&format!("{p}/")))
}

/// True when `rule` covers `path`.
pub fn rule_covers(rule: &Rule, path: &str) -> bool {
    path_applies(path, rule.scope) && !path_applies(path, rule.exempt)
}

/// True when code tokens starting at `i` spell the `::`-separated path
/// `segs` (comments between segments are tolerated by pre-filtering).
fn path_seq(toks: &[&Tok], i: usize, segs: &[&str]) -> bool {
    let mut k = i;
    for (si, seg) in segs.iter().enumerate() {
        if si > 0 {
            if !(toks.get(k).is_some_and(|t| t.kind == TokKind::Punct(':'))
                && toks
                    .get(k + 1)
                    .is_some_and(|t| t.kind == TokKind::Punct(':')))
            {
                return false;
            }
            k += 2;
        }
        if !toks
            .get(k)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == *seg)
        {
            return false;
        }
        k += 1;
    }
    true
}

/// The comment-and-test-free token view rules scan linearly.
fn code_view(fa: &FileAnalysis) -> Vec<&Tok> {
    fa.code.iter().map(|&i| &fa.toks[i]).collect()
}

fn push(
    fa: &FileAnalysis,
    out: &mut Vec<Finding>,
    rule: &'static str,
    line: usize,
    message: String,
) {
    out.push(Finding {
        rule,
        path: fa.path.clone(),
        line,
        message,
        snippet: fa.snippet(line),
    });
}

// ---------------------------------------------------------------------------
// L1–L4: the token-level rules (ported onto the shared analysis).
// ---------------------------------------------------------------------------

fn check_sync_facade(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let code = code_view(fa);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "std" {
            continue;
        }
        if path_seq(&code, i, &["std", "sync"]) {
            push(
                fa,
                out,
                "sync-facade",
                t.line,
                "`std::sync` bypasses the `parallel::sync` facade (invisible to loom)".to_string(),
            );
        } else if path_seq(&code, i, &["std", "thread", "spawn"]) {
            push(
                fa,
                out,
                "sync-facade",
                t.line,
                "`std::thread::spawn` bypasses the `parallel::sync` facade".to_string(),
            );
        }
    }
}

fn check_ordering_justification(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let code = code_view(fa);
    for (i, t) in code.iter().enumerate() {
        // `Ordering::SeqCst` / `Ordering::Relaxed` need justification;
        // Acquire/Release pairs document themselves by pairing.
        if t.kind != TokKind::Ident || t.text != "Ordering" {
            continue;
        }
        if !(path_seq(&code, i, &["Ordering", "SeqCst"])
            || path_seq(&code, i, &["Ordering", "Relaxed"]))
        {
            continue;
        }
        let which = &code[i + 3].text;
        match fa.comments.ordering_text(t.line) {
            None => push(
                fa,
                out,
                "ordering-justification",
                t.line,
                format!("`Ordering::{which}` without a nearby `// ordering:` comment"),
            ),
            Some(text) => {
                // Bugfix (PR 8): a justification that *names* orderings must
                // name the one the code uses — "Relaxed is enough" above a
                // SeqCst site is a stale or wrong justification. Comments
                // naming no ordering stay presence-justified.
                let named = named_orderings(&text);
                if !named.is_empty() && !named.contains(&which.as_str()) {
                    push(
                        fa,
                        out,
                        "ordering-justification",
                        t.line,
                        format!(
                            "`Ordering::{which}` but its `// ordering:` comment declares {} — \
                             fix the comment or the code",
                            named.join("/")
                        ),
                    );
                }
            }
        }
    }
}

fn check_panic_freedom(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let code = code_view(fa);
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |k: char| code.get(i + 1).is_some_and(|n| n.kind == TokKind::Punct(k));
        let prev_is = |k: char| i > 0 && code[i - 1].kind == TokKind::Punct(k);
        match t.text.as_str() {
            "unwrap" if prev_is('.') && next_is('(') => push(
                fa,
                out,
                "panic-freedom",
                t.line,
                "`.unwrap()` in library code — return a typed error instead".to_string(),
            ),
            "expect" if prev_is('.') && next_is('(') => push(
                fa,
                out,
                "panic-freedom",
                t.line,
                "`.expect(..)` in library code — return a typed error instead".to_string(),
            ),
            "panic" if next_is('!') => push(
                fa,
                out,
                "panic-freedom",
                t.line,
                "`panic!` in library code — return a typed error instead".to_string(),
            ),
            _ => {}
        }
    }
}

fn check_no_stray_io(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let code = code_view(fa);
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident
            && (t.text == "println" || t.text == "eprintln")
            && code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokKind::Punct('!'))
        {
            push(
                fa,
                out,
                "no-stray-io",
                t.line,
                format!(
                    "`{}!` in a library crate — route output through a sink/report",
                    t.text
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L5: atomic-ordering dataflow.
// ---------------------------------------------------------------------------

/// Orderings whose write side publishes (release class).
const RELEASE_CLASS: &[&str] = &["Release", "AcqRel", "SeqCst"];

/// Justification mechanisms that make a Relaxed read of a released field
/// sound (or deliberately tolerant): an explicit fence pairing, exclusive /
/// owner access (`&mut`), or an advisory read that tolerates staleness.
const ASYMMETRY_KEYWORDS: &[&str] = &["fence", "own", "&mut", "exclusive", "advisory", "stale"];

fn site_is_release_write(s: &AtomicSite) -> bool {
    crate::analysis::WRITE_OPS.contains(&s.op.as_str())
        && s.ordering_names().iter().any(|o| RELEASE_CLASS.contains(o))
}

fn site_is_relaxed_load(s: &AtomicSite) -> bool {
    s.op == "load" && s.ordering_names() == ["Relaxed"]
}

fn check_atomic_ordering(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let sites = atomic_sites(fa);

    // (a) Declared-vs-actual mismatch on Acquire/Release-family call sites.
    // SeqCst/Relaxed *token* sites are owned by `ordering-justification`
    // (see the module docs); a site is in this rule's mismatch domain when
    // any of its orderings is Acquire/Release/AcqRel.
    for s in &sites {
        let used = s.ordering_names();
        let acqrel_family = used
            .iter()
            .any(|o| matches!(*o, "Acquire" | "Release" | "AcqRel"));
        if !acqrel_family {
            continue;
        }
        if let Some(comment) = &s.comment {
            let named = named_orderings(comment);
            if !named.is_empty() && !used.iter().any(|u| named.contains(u)) {
                push(
                    fa,
                    out,
                    "atomic-ordering",
                    s.line,
                    format!(
                        "`{}.{}` uses {} but its `// ordering:` comment declares {} — \
                         fix the comment or the code",
                        s.field,
                        s.op,
                        used.join("/"),
                        named.join("/")
                    ),
                );
            }
        }
    }

    // (b) Per-field asymmetry: a release-class write paired with a Relaxed
    // load of the same field is a lost-publication bug unless the load's
    // justification names a sanctioned mechanism.
    for load in sites.iter().filter(|s| site_is_relaxed_load(s)) {
        if load.field.starts_with('(') {
            continue; // fences / unresolvable receivers have no field pair
        }
        let Some(writer) = sites
            .iter()
            .find(|w| w.field == load.field && site_is_release_write(w))
        else {
            continue;
        };
        let sanctioned = load.comment.as_deref().is_some_and(|c| {
            let lc = c.to_ascii_lowercase();
            ASYMMETRY_KEYWORDS.iter().any(|k| lc.contains(k))
        });
        if !sanctioned {
            push(
                fa,
                out,
                "atomic-ordering",
                load.line,
                format!(
                    "Relaxed load of `{}`, which is published by a {}-class `{}` \
                     (line {}) — use Acquire, or justify the asymmetry in the \
                     `// ordering:` comment (fence pairing, exclusive/owner \
                     access, or an advisory/stale-tolerant read)",
                    load.field,
                    writer
                        .ordering_names()
                        .iter()
                        .find(|o| RELEASE_CLASS.contains(*o))
                        .copied()
                        .unwrap_or("Release"),
                    writer.op,
                    writer.line
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L6: lock-scope discipline.
// ---------------------------------------------------------------------------

/// The explore kernels: entry points into `core::explore` that can run for
/// an unbounded number of search steps. A held `MutexGuard` across any of
/// these serializes the scheduler (and is deadlock bait against the pool's
/// own park lock).
const EXPLORE_KERNELS: &[&str] = &[
    "begin_task",
    "resume_task",
    "end_task",
    "step",
    "split_top",
    "abort_frames",
    "new_root",
    "new_idle",
];

/// `let [mut] NAME = … .lock() … ;` — returns the guard's binding name.
/// Walks back from the `lock` callee to the statement start and accepts
/// plain bindings plus `let Ok(g)` / `let Some(g)` unwraps; anything more
/// exotic (tuple patterns, temporaries) yields `None` — a temporary guard
/// dies at the end of its statement and cannot span a park.
fn guard_binding(fa: &FileAnalysis, name_pos: usize) -> Option<String> {
    // Find the statement start: the token after the previous `;`/`{`/`}`.
    let mut k = name_pos;
    while k > 0 {
        match fa.ct(k - 1).kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            _ => k -= 1,
        }
    }
    let t = |off: usize| fa.code.get(k + off).map(|&i| &fa.toks[i]);
    let ident = |off: usize| {
        t(off)
            .filter(|x| x.kind == TokKind::Ident)
            .map(|x| x.text.clone())
    };
    if ident(0).as_deref() != Some("let") {
        return None;
    }
    let mut off = 1;
    if ident(off).as_deref() == Some("mut") {
        off += 1;
    }
    let head = ident(off)?;
    if head == "Ok" || head == "Some" {
        if t(off + 1).map(|x| x.kind.clone()) != Some(TokKind::Punct('(')) {
            return None;
        }
        off += 2;
        if ident(off).as_deref() == Some("mut") {
            off += 1;
        }
        return ident(off);
    }
    // Plain binding must be followed by `=` (or `:` type ascription).
    match t(off + 1).map(|x| x.kind.clone()) {
        Some(TokKind::Punct('=')) | Some(TokKind::Punct(':')) => Some(head),
        _ => None,
    }
}

fn check_lock_scope(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for call in &fa.tree.calls {
        if !(call.method && call.name == "lock") || fa.toks[call.name_tok].in_test {
            continue;
        }
        // Code position of the callee token.
        let Ok(name_pos) = fa.code.binary_search(&call.name_tok) else {
            continue; // lock in test code was filtered out of `code`
        };
        let Some(guard) = guard_binding(fa, name_pos) else {
            continue;
        };
        // Statement end: the `;` after the call at group depth 0.
        let mut depth = 0isize;
        let mut stmt_end = None;
        for p in name_pos..fa.code.len() {
            match fa.ct(p).kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
                TokKind::Punct(';') if depth <= 0 => {
                    stmt_end = Some(p);
                    break;
                }
                TokKind::Punct('{') | TokKind::Punct('}') if depth <= 0 => break,
                _ => {}
            }
        }
        let Some(stmt_end) = stmt_end else { continue };
        // Guard scope: innermost brace block containing the binding.
        let let_i = fa.code[name_pos];
        let scope_close = fa
            .tree
            .brace_match
            .iter()
            .filter(|&&(o, c)| o < let_i && let_i < c)
            .map(|&(_, c)| c)
            .min()
            .unwrap_or(fa.toks.len());
        // Walk the live range: statement end → scope close or drop(guard).
        for c2 in &fa.tree.calls {
            if c2.name_tok <= fa.code[stmt_end] || c2.name_tok >= scope_close {
                continue;
            }
            if fa.toks[c2.name_tok].in_test {
                continue;
            }
            // `drop(guard)` ends the live range early.
            if !c2.method && c2.name == "drop" && arg_is_ident(fa, c2.args.first(), &guard) {
                // Only calls before the drop count; model by truncating.
                // (calls are in source order, so break works.)
                break;
            }
            let flagged = if c2.name == "park" {
                Some(format!(
                    "`park()` while `MutexGuard` `{guard}` (locked line {}) is live — \
                     a waker blocking on the same lock deadlocks",
                    call.line
                ))
            } else if matches!(c2.name.as_str(), "wait" | "wait_timeout" | "wait_while")
                && !call_consumes_ident(fa, c2, &guard)
            {
                Some(format!(
                    "`{}` that does not consume `MutexGuard` `{guard}` (locked line {}) — \
                     waiting on a different condvar while holding the lock",
                    c2.name, call.line
                ))
            } else if c2.method && EXPLORE_KERNELS.contains(&c2.name.as_str()) {
                Some(format!(
                    "call into explore kernel `{}` while `MutexGuard` `{guard}` \
                     (locked line {}) is live — unbounded work under a lock",
                    c2.name, call.line
                ))
            } else {
                None
            };
            if let Some(message) = flagged {
                push(fa, out, "lock-scope", c2.line, message);
            }
        }
    }
}

/// True when the call's argument list mentions the identifier `name`
/// (the `cv.wait(guard)` consume-and-reborn pattern).
fn call_consumes_ident(fa: &FileAnalysis, call: &crate::parser::CallSite, name: &str) -> bool {
    call.args.iter().any(|&(a, b)| {
        fa.toks[a.min(fa.toks.len())..b.min(fa.toks.len())]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == name)
    })
}

/// True when the (single) argument range is exactly the identifier `name`.
fn arg_is_ident(fa: &FileAnalysis, arg: Option<&(usize, usize)>, name: &str) -> bool {
    let Some(&(a, b)) = arg else { return false };
    let toks: Vec<&Tok> = fa.toks[a.min(fa.toks.len())..b.min(fa.toks.len())]
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    toks.len() == 1 && toks[0].kind == TokKind::Ident && toks[0].text == name
}

// ---------------------------------------------------------------------------
// L7: sink-error-latching.
// ---------------------------------------------------------------------------

fn check_sink_error_latching(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    fn walk<'t>(items: &'t [Item], impls: &mut Vec<&'t Item>, sinks: &mut Vec<&'t Item>) {
        for it in items {
            if let ItemKind::Impl { trait_name, .. } = &it.kind {
                impls.push(it);
                if trait_name.as_deref() == Some("StandSink") {
                    sinks.push(it);
                }
            }
            walk(&it.children, impls, sinks);
        }
    }
    let mut impls = Vec::new();
    let mut sinks = Vec::new();
    walk(&fa.tree.items, &mut impls, &mut sinks);
    for s in sinks {
        check_sink_impl(fa, s, &impls, out);
    }
}

/// Latch sites inside one `impl StandSink for T`: every `self.F = Some(…)`
/// field must be read back in a `finish()` of the same type — on the trait
/// impl or an inherent impl of `T` in the same file (the usual place, since
/// `finish` consumes `self`).
fn check_sink_impl(fa: &FileAnalysis, imp: &Item, impls: &[&Item], out: &mut Vec<Finding>) {
    let lo = fa.code.partition_point(|&i| i <= imp.body_open);
    let hi = fa.code.partition_point(|&i| i < imp.body_close);
    let mut latches: Vec<(String, usize)> = Vec::new(); // (field, line)
    for p in lo..hi.saturating_sub(5) {
        let seq = |off: usize| fa.ct(p + off);
        if seq(0).kind == TokKind::Ident
            && seq(0).text == "self"
            && seq(1).kind == TokKind::Punct('.')
            && seq(2).kind == TokKind::Ident
            && seq(3).kind == TokKind::Punct('=')
            && seq(4).kind == TokKind::Ident
            && seq(4).text == "Some"
            && seq(5).kind == TokKind::Punct('(')
        {
            latches.push((seq(2).text.clone(), seq(0).line));
        }
    }
    if latches.is_empty() {
        return;
    }
    let ItemKind::Impl { type_name, .. } = &imp.kind else {
        return;
    };
    let finish = impls
        .iter()
        .filter(|i| matches!(&i.kind, ItemKind::Impl { type_name: tn, .. } if tn == type_name))
        .flat_map(|i| i.children.iter())
        .find(|c| c.kind == ItemKind::Fn && c.name == "finish");
    for (field, line) in latches {
        let surfaced = finish.is_some_and(|f| {
            let flo = fa.code.partition_point(|&i| i <= f.body_open);
            let fhi = fa.code.partition_point(|&i| i < f.body_close);
            (flo..fhi).any(|p| {
                let t = fa.ct(p);
                t.kind == TokKind::Ident && t.text == field
            })
        });
        if !surfaced {
            let missing = if finish.is_some() {
                format!("`finish()` never reads `self.{field}`")
            } else {
                "the impl has no `finish()` body to surface it from".to_string()
            };
            push(
                fa,
                out,
                "sink-error-latching",
                line,
                format!(
                    "StandSink impl latches an error into `self.{field}` but {missing} — \
                     latched errors must surface from finish() (silent-truncation bug class)"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// L8: unchecked-arithmetic (wire-format scopes only).
// ---------------------------------------------------------------------------

/// Guard spellings that make nearby arithmetic checked.
const ARITH_GUARDS: &[&str] = &[
    "checked_",
    "debug_assert",
    "saturating_",
    "wrapping_",
    "try_from",
    "try_into",
];

/// Integer types an `as` cast can narrow into. `usize`/`isize` are not
/// listed: every wire-format value in scope is at most `u32` wide and the
/// workspace only supports 64-bit targets, so pointer-width casts widen.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn arith_justified(fa: &FileAnalysis, line: usize) -> bool {
    fa.comments.arith_run(line).is_some() || fa.window_contains(line, ARITH_GUARDS)
}

/// True when the expression cast by `as` at code position `p` ends in a
/// literal mask group — `(v & 0x7f) as u8` is value-range-safe by
/// construction.
fn masked_cast(fa: &FileAnalysis, p: usize) -> bool {
    if p == 0 || fa.ct(p - 1).kind != TokKind::Punct(')') {
        return false;
    }
    let mut depth = 0isize;
    let mut saw_and = false;
    let mut saw_lit = false;
    let mut k = p - 1;
    loop {
        match fa.ct(k).kind {
            TokKind::Punct(')') => depth += 1,
            TokKind::Punct('(') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct('&') => saw_and = true,
            TokKind::Num => saw_lit = true,
            _ => {}
        }
        if k == 0 {
            break;
        }
        k -= 1;
    }
    saw_and && saw_lit
}

fn check_unchecked_arithmetic(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    let n = fa.code.len();
    for p in 0..n {
        let t = fa.ct(p);
        match &t.kind {
            TokKind::Ident if t.text == "as" => {
                let Some(ty) = fa.code.get(p + 1).map(|&i| &fa.toks[i]) else {
                    continue;
                };
                if ty.kind != TokKind::Ident || !NARROW_TYPES.contains(&ty.text.as_str()) {
                    continue;
                }
                if masked_cast(fa, p) || arith_justified(fa, t.line) {
                    continue;
                }
                push(
                    fa,
                    out,
                    "unchecked-arithmetic",
                    t.line,
                    format!(
                        "bare `as {}` truncation in wire-format code — use try_from, \
                         mask the value range, or justify with `// arith:`",
                        ty.text
                    ),
                );
            }
            TokKind::Punct('+') => {
                // `+=` lexes as '+' '='; both are unchecked adds. (No unary
                // or trait-bound `+` exists in the two scoped files.)
                if arith_justified(fa, t.line) {
                    continue;
                }
                push(
                    fa,
                    out,
                    "unchecked-arithmetic",
                    t.line,
                    "unchecked `+` in wire-format code — use checked_add/\
                     debug_assert! or justify with `// arith:`"
                        .to_string(),
                );
            }
            TokKind::Punct('<') => {
                // `<<` = two byte-adjacent '<' tokens.
                let adjacent_shl = fa
                    .code
                    .get(p + 1)
                    .map(|&i| &fa.toks[i])
                    .is_some_and(|nx| nx.kind == TokKind::Punct('<') && nx.start == t.end);
                if !adjacent_shl || arith_justified(fa, t.line) {
                    continue;
                }
                push(
                    fa,
                    out,
                    "unchecked-arithmetic",
                    t.line,
                    "unchecked `<<` in wire-format code — guard the shift amount \
                     (checked_shl/debug_assert!) or justify with `// arith:`"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
    // Skip the '<' we already consumed? Not needed: the second '<' of a
    // `<<` does not match the adjacency test against its successor.
}

// ---------------------------------------------------------------------------
// L9: unsafe-inventory.
// ---------------------------------------------------------------------------

fn check_unsafe_inventory(fa: &FileAnalysis, out: &mut Vec<Finding>) {
    for s in unsafe_sites(fa) {
        if s.has_safety {
            continue;
        }
        push(
            fa,
            out,
            "unsafe-inventory",
            s.line,
            format!(
                "`unsafe` {} without a `// safety:` comment stating the invariant \
                 it relies on",
                s.kind
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Runs every applicable rule over one analyzed file, applies the allow
/// escape hatch, and reports malformed escapes. The baseline is applied by
/// the caller.
pub fn check_analysis(fa: &FileAnalysis) -> Vec<Finding> {
    let mut raw = Vec::new();
    for rule in RULES {
        if rule_covers(rule, &fa.path) {
            (rule.check)(fa, &mut raw);
        }
    }
    finish_findings(fa, raw)
}

/// Allow-escape filtering + malformed-escape findings + deterministic order.
pub fn finish_findings(fa: &FileAnalysis, raw: Vec<Finding>) -> Vec<Finding> {
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !fa.comments.allowed(f.rule, f.line))
        .collect();
    for &line in &fa.comments.bad_allow_lines {
        out.push(Finding {
            rule: "allow-syntax",
            path: fa.path.clone(),
            line,
            message: "escape hatch must name a rule and give a reason: \
                      `// xlint: allow(<rule>) — <reason>`"
                .to_string(),
            snippet: fa.snippet(line),
        });
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Runs every applicable rule over one file (lexes and parses it once).
/// `path` must be repo-relative with `/` separators.
pub fn check_file(path: &str, src: &str) -> Vec<Finding> {
    check_analysis(&FileAnalysis::analyze(path, src))
}
