//! The lint rules: machine-enforced versions of the workspace's written
//! contracts.
//!
//! Every rule here encodes an invariant the compiler cannot check but the
//! reproduction's credibility rests on (see README "Static analysis"):
//! byte-identical results across thread counts, exactness of the
//! quantization boundary, and auditable `unsafe`. Rules are deliberately
//! lexical — they run on the token stream from [`crate::lexer`], so they
//! are immune to `unsafe` appearing in strings or comments, but they do
//! not type-check. Where a rule needs semantic slack (a thread-count read
//! that provably cannot change bytes), the one escape hatch is an inline
//! `// analyze:allow(<rule>, <reason>)` with a mandatory reason.

use crate::context::FileContext;
use crate::lexer::TokenKind;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (kebab-case, stable: allows reference it).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source line, for reports.
    pub snippet: String,
}

/// A rule's id plus the one-line rationale shown by `--list-rules`.
pub struct RuleInfo {
    /// Stable kebab-case id.
    pub id: &'static str,
    /// What it enforces and why.
    pub doc: &'static str,
}

/// Every rule the engine knows, in evaluation order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "safety-comment",
        doc: "every `unsafe` block / impl / fn is immediately preceded by a `// SAFETY:` \
              comment stating why the contract holds (fns may use a `# Safety` doc instead)",
    },
    RuleInfo {
        id: "safety-doc",
        doc: "`pub unsafe fn` and `#[target_feature]` fns document their contract under a \
              `# Safety` rustdoc section (callers need it to write their SAFETY comments)",
    },
    RuleInfo {
        id: "debug-assert-unsafe",
        doc: "no `debug_assert!` inside `unsafe` blocks: a release-mode-only check is not a \
              safety argument — promote to `assert!` or move it out of the block",
    },
    RuleInfo {
        id: "det-collections",
        doc: "no `HashMap`/`HashSet` in the numeric crates: iteration order is randomized \
              per-process, which breaks byte-determinism — use `BTreeMap`/`BTreeSet`/sorted Vec",
    },
    RuleInfo {
        id: "det-wall-clock",
        doc: "no `std::time` clocks (`Instant`/`SystemTime`) in the numeric crates: results \
              must be a function of inputs and seeds only — the obs crate and the pool are \
              the sole wall-clock authorities (they time work but never feed results)",
    },
    RuleInfo {
        id: "det-rng",
        doc: "no ambient randomness (`thread_rng`/`OsRng`/`from_entropy`) in the numeric \
              crates: every RNG is seeded through the protocol constants",
    },
    RuleInfo {
        id: "det-thread-count",
        doc: "no thread-count reads (`pool_parallelism`/`available_parallelism`) in the \
              numeric crates outside the pool itself: arithmetic on thread counts is how \
              results silently become machine-dependent (shard counts, not thread counts, \
              are the numerical contract)",
    },
    RuleInfo {
        id: "cast-boundary",
        doc: "no bare `as` casts between numeric types in the quantization-boundary files \
              (quant, core::qmodel): use `From` for lossless widening and `TryFrom` (or the \
              allowlisted codec fns) for anything lossy — `as` silently saturates and silently \
              loses exactness",
    },
    RuleInfo {
        id: "deprecated-note",
        doc: "`#[deprecated]` must carry `note = \"...\"` with a migration pointer, so every \
              deprecation tells callers where to go",
    },
    RuleInfo {
        id: "suppression-hygiene",
        doc: "`analyze:allow` must name a known rule, give a reason, and actually suppress \
              something (stale allows are findings, so the escape hatch cannot rot)",
    },
];

/// Whether `id` names a known rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Crates whose `src/` trees carry the byte-determinism contract. `serve`,
/// `experiments` and `bench` are deliberately absent: serving needs real
/// deadlines and benches need real clocks.
const NUMERIC_SRC: &[&str] = &[
    "crates/tensor/src/",
    "crates/nn/src/",
    "crates/quant/src/",
    "crates/biterror/src/",
    "crates/core/src/",
    "crates/obs/src/",
];

/// Files forming the float ↔ integer quantization boundary, where every
/// numeric conversion must be exact or explicitly checked.
const QUANT_BOUNDARY: &[&str] = &["crates/quant/src/", "crates/core/src/qmodel.rs"];

/// The thread pool is the *single* authority allowed to read machine
/// parallelism; everything else must consume its published constants.
const THREAD_COUNT_AUTHORITY: &[&str] = &["crates/tensor/src/pool.rs", "crates/tensor/src/lib.rs"];

/// The only places in the numeric crates allowed to read wall clocks: the
/// obs crate (whose whole contract is that timings are recorded, never
/// read back into results) and the pool's idle-worker parking logic.
/// Everything else stays a pure function of inputs and seeds.
const WALL_CLOCK_AUTHORITY: &[&str] = &["crates/obs/src/", "crates/tensor/src/pool.rs"];

/// Checked codec functions inside which bare `as` casts are the
/// implementation, not a leak. Each entry is (path suffix, fn name):
///
/// * `scheme.rs::quantize_with_range` — rejects non-finite input up front,
///   clamps to `[-L, L]`, masks to the live bits; its casts are the codec.
/// * `scheme.rs::decode_level` — pure bit manipulation (sign-extension);
///   the `u8 → i8 → i32` chain is the definition of the word→level map.
/// * `scheme.rs::dequantize_word` — levels are `|q| <= 128`, exact in f32.
const CAST_ALLOWLIST: &[(&str, &str)] = &[
    ("crates/quant/src/scheme.rs", "quantize_with_range"),
    ("crates/quant/src/scheme.rs", "decode_level"),
    ("crates/quant/src/scheme.rs", "dequantize_word"),
];

/// Numeric types whose `as` casts the boundary rule polices. `usize` /
/// `isize` are exempt: they are index arithmetic, not value conversion.
const NUMERIC_TYPES: &[&str] =
    &["f32", "f64", "i8", "i16", "i32", "i64", "u8", "u16", "u32", "u64"];

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p) || path.ends_with(p))
}

/// Runs every rule over one file. Returns the surviving findings plus the
/// number of findings masked by `analyze:allow` suppressions.
pub fn analyze_file(ctx: &FileContext<'_>) -> (Vec<Finding>, usize) {
    let mut raw: Vec<Finding> = Vec::new();

    safety_comment(ctx, &mut raw);
    safety_doc(ctx, &mut raw);
    debug_assert_unsafe(ctx, &mut raw);
    if in_any(&ctx.path, NUMERIC_SRC) {
        det_idents(ctx, &mut raw);
    }
    if in_any(&ctx.path, QUANT_BOUNDARY) {
        cast_boundary(ctx, &mut raw);
    }
    deprecated_note(ctx, &mut raw);

    // Apply inline suppressions, marking each one that fires as used.
    let mut suppressed = 0usize;
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            if ctx.suppression_for(f.rule, f.line).is_some() {
                suppressed += 1;
                false
            } else {
                true
            }
        })
        .collect();

    // The hygiene rule runs last so it can see which allows went unused.
    // Its findings cannot themselves be suppressed.
    suppression_hygiene(ctx, &mut findings);

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, suppressed)
}

fn push(
    ctx: &FileContext<'_>,
    out: &mut Vec<Finding>,
    rule: &'static str,
    line: usize,
    message: String,
) {
    out.push(Finding {
        rule,
        path: ctx.path.clone(),
        line,
        message,
        snippet: ctx.line_text(line).to_string(),
    });
}

/// `safety-comment`: every `unsafe` keyword introducing a block, impl or
/// fn must be justified by an immediately preceding `// SAFETY:` comment
/// (for fns, a `# Safety` doc section also satisfies it — that *is* the
/// justification, addressed to callers).
fn safety_comment(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident(src, "unsafe") {
            continue;
        }
        let Some(next) = ctx.next_significant(i + 1) else { continue };
        let next_text = ctx.tokens[next].text(src);
        let kind = match next_text {
            "{" => "block",
            "impl" => "impl",
            "fn" | "extern" | "const" | "async" => "fn",
            _ => continue, // e.g. `unsafe` inside an attribute path
        };
        if kind == "fn" {
            // Attribute the check to the recovered item (the first `fn`
            // after this `unsafe`), which also knows about doc comments
            // sitting above attributes.
            if let Some(f) = ctx.fns.iter().find(|f| f.fn_idx >= i) {
                if f.is_unsafe && (f.safety_comment || f.doc_text.contains("# Safety")) {
                    continue;
                }
            }
            push(
                ctx,
                out,
                "safety-comment",
                t.line,
                "`unsafe fn` without a `// SAFETY:` comment or `# Safety` doc section".to_string(),
            );
            continue;
        }
        if !preceded_by_safety_comment(ctx, i) {
            push(
                ctx,
                out,
                "safety-comment",
                t.line,
                format!(
                    "`unsafe {kind}` without an immediately preceding `// SAFETY:` comment \
                     stating why the contract holds"
                ),
            );
        }
    }
}

/// Walks back from the `unsafe` token through the *current statement* and
/// accepts a `SAFETY:` comment that is line-contiguous with it. Stops at
/// statement boundaries (`;`, `{`, `}`) so a comment above an unrelated
/// previous statement never counts.
fn preceded_by_safety_comment(ctx: &FileContext<'_>, unsafe_idx: usize) -> bool {
    let src = ctx.src;
    let mut min_line = ctx.tokens[unsafe_idx].line;
    for i in (0..unsafe_idx).rev() {
        let t = &ctx.tokens[i];
        if t.is_comment() {
            if t.end_line + 1 < min_line {
                return false; // a blank-line gap breaks "immediately"
            }
            if t.text(src).contains("SAFETY:") {
                return true;
            }
            min_line = t.line;
            continue;
        }
        match t.text(src) {
            ";" | "{" | "}" => return false,
            _ => min_line = min_line.min(t.line),
        }
    }
    false
}

/// `safety-doc`: `pub unsafe fn` and `#[target_feature]` fns need a
/// `# Safety` rustdoc section. The target-feature case matters here: the
/// AVX shims are *safe* fns that are only sound to call through an unsafe
/// block after runtime feature detection, and the doc section is where
/// that calling contract lives.
fn safety_doc(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for f in &ctx.fns {
        let needs = (f.is_pub && f.is_unsafe) || f.has_target_feature;
        if !needs || f.doc_text.contains("# Safety") {
            continue;
        }
        let why = if f.has_target_feature {
            "a `#[target_feature]` fn (unsafe to call without runtime detection)"
        } else {
            "a `pub unsafe fn`"
        };
        push(
            ctx,
            out,
            "safety-doc",
            ctx.tokens[f.fn_idx].line,
            format!("`{}` is {why} but has no `# Safety` rustdoc section", f.name),
        );
    }
}

/// `debug-assert-unsafe`: a `debug_assert!` guarding bounds or
/// disjointness inside an `unsafe` block vanishes in release builds —
/// exactly where the campaigns run.
fn debug_assert_unsafe(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = t.text(src);
        if !matches!(text, "debug_assert" | "debug_assert_eq" | "debug_assert_ne") {
            continue;
        }
        if ctx.in_unsafe_block(i) {
            push(
                ctx,
                out,
                "debug-assert-unsafe",
                t.line,
                format!(
                    "`{text}!` inside an `unsafe` block: release builds drop it, so it \
                     cannot carry a safety argument — use `assert!`"
                ),
            );
        }
    }
}

/// The three determinism ident-scan rules (`det-collections`,
/// `det-wall-clock`, `det-rng`, `det-thread-count`), fused into one pass.
fn det_idents(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    let thread_count_exempt = in_any(&ctx.path, THREAD_COUNT_AUTHORITY);
    let wall_clock_exempt = in_any(&ctx.path, WALL_CLOCK_AUTHORITY);
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.in_test_code(t.start) {
            continue;
        }
        let text = t.text(src);
        match text {
            "HashMap" | "HashSet" => push(
                ctx,
                out,
                "det-collections",
                t.line,
                format!(
                    "`{text}` in a numeric crate: iteration order is per-process random — \
                     use `BTreeMap`/`BTreeSet` or a sorted Vec"
                ),
            ),
            "Instant" | "SystemTime" | "UNIX_EPOCH" if !wall_clock_exempt => push(
                ctx,
                out,
                "det-wall-clock",
                t.line,
                format!("`{text}` in a numeric crate: results must not depend on clocks"),
            ),
            "time" if !wall_clock_exempt && prev_is_std_path(ctx, i) => push(
                ctx,
                out,
                "det-wall-clock",
                t.line,
                "`std::time` in a numeric crate: results must not depend on clocks".to_string(),
            ),
            "thread_rng" | "ThreadRng" | "OsRng" | "from_entropy" => push(
                ctx,
                out,
                "det-rng",
                t.line,
                format!(
                    "`{text}` in a numeric crate: all randomness must flow from protocol \
                     seeds (`SeedableRng::seed_from_u64`)"
                ),
            ),
            "pool_parallelism" | "available_parallelism" | "num_cpus" if !thread_count_exempt => {
                push(
                    ctx,
                    out,
                    "det-thread-count",
                    t.line,
                    format!(
                        "`{text}` in a numeric crate: thread-count-dependent arithmetic is \
                         how results become machine-dependent — only work *distribution* \
                         may read it (annotate with analyze:allow and a byte-safety \
                         argument if this use is provably distribution-only)"
                    ),
                )
            }
            _ => {}
        }
    }
}

/// Whether the tokens before `idx` are `std ::` or `core ::`.
fn prev_is_std_path(ctx: &FileContext<'_>, idx: usize) -> bool {
    let src = ctx.src;
    let mut prev = (0..idx).rev().filter(|&i| !ctx.tokens[i].is_comment());
    let (Some(c2), Some(c1)) = (prev.next(), prev.next()) else { return false };
    let Some(root_idx) = prev.next() else { return false };
    ctx.tokens[c2].is_punct(src, ':')
        && ctx.tokens[c1].is_punct(src, ':')
        && matches!(ctx.tokens[root_idx].text(src), "std" | "core")
}

/// `cast-boundary`: bare `as` casts to numeric types in the quantization
/// boundary files, outside the allowlisted codec fns and test code.
fn cast_boundary(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !t.is_ident(src, "as") || ctx.in_test_code(t.start) || ctx.in_use_decl(i) {
            continue;
        }
        let Some(next) = ctx.next_significant(i + 1) else { continue };
        let target = ctx.tokens[next].text(src);
        if !NUMERIC_TYPES.contains(&target) {
            continue;
        }
        if let Some(f) = ctx.enclosing_fn(i) {
            if CAST_ALLOWLIST.iter().any(|(path, name)| ctx.path.ends_with(path) && f.name == *name)
            {
                continue;
            }
        }
        let hint = if target.starts_with('f') {
            "use `f32::from` for lossless widening, or keep the conversion inside an \
             allowlisted codec fn"
        } else {
            "use `i32::from` for lossless widening or `TryFrom` for checked narrowing"
        };
        push(
            ctx,
            out,
            "cast-boundary",
            t.line,
            format!("bare `as {target}` at the quantization boundary: {hint}"),
        );
    }
}

/// `deprecated-note`: `#[deprecated]` without `note = "..."` strands
/// callers without a migration pointer.
fn deprecated_note(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    let src = ctx.src;
    for attr in &ctx.attrs {
        let mut content = ctx.tokens[attr.content.clone()].iter().filter(|t| !t.is_comment());
        let Some(first) = content.next() else { continue };
        if !first.is_ident(src, "deprecated") {
            continue;
        }
        let has_note = ctx.tokens[attr.content.clone()].iter().any(|t| t.is_ident(src, "note"));
        if !has_note {
            push(
                ctx,
                out,
                "deprecated-note",
                attr.line,
                "`#[deprecated]` without `note = \"...\"`: deprecations must point at the \
                 replacement API"
                    .to_string(),
            );
        }
    }
}

/// `suppression-hygiene`: malformed, unknown-rule, reason-less, or unused
/// `analyze:allow` comments are findings themselves.
fn suppression_hygiene(ctx: &FileContext<'_>, out: &mut Vec<Finding>) {
    for s in &ctx.suppressions {
        if s.rule.is_empty() || !known_rule(&s.rule) {
            push(
                ctx,
                out,
                "suppression-hygiene",
                s.comment_line,
                format!("analyze:allow names unknown rule `{}` (see --list-rules)", s.rule),
            );
        } else if s.reason.is_empty() {
            push(
                ctx,
                out,
                "suppression-hygiene",
                s.comment_line,
                format!(
                    "analyze:allow({}) has no reason: suppressions must argue why the \
                     contract still holds",
                    s.rule
                ),
            );
        } else if !s.used.get() {
            push(
                ctx,
                out,
                "suppression-hygiene",
                s.comment_line,
                format!(
                    "analyze:allow({}) suppresses nothing on its line or the next — stale \
                     allows must be removed",
                    s.rule
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        analyze_file(&FileContext::new(path.into(), src)).0
    }

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        run(path, src).into_iter().map(|f| f.rule).collect()
    }

    // --- safety-comment -------------------------------------------------

    #[test]
    fn unsafe_block_without_comment_is_flagged() {
        let src = "fn f() {\n    let x = unsafe { danger() };\n}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["safety-comment"]);
    }

    #[test]
    fn unsafe_block_with_contiguous_safety_comment_passes() {
        let src = "fn f() {\n    // SAFETY: checked above.\n    let x = unsafe { danger() };\n}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_separated_by_statement_does_not_count() {
        let src =
            "fn f() {\n    // SAFETY: stale.\n    other();\n    let x = unsafe { danger() };\n}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["safety-comment"]);
    }

    #[test]
    fn safety_comment_with_blank_line_gap_does_not_count() {
        let src = "fn f() {\n    // SAFETY: far away.\n\n    unsafe { danger() };\n}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["safety-comment"]);
    }

    #[test]
    fn each_unsafe_impl_needs_its_own_comment() {
        let src = "\
struct P(*mut f32);\n\
// SAFETY: disjoint carving only.\n\
unsafe impl Send for P {}\n\
unsafe impl Sync for P {}\n";
        let hits = run("crates/x/src/a.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "safety-comment");
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn multiline_statement_accepts_comment_above_statement_start() {
        let src = "\
fn f() {\n\
    // SAFETY: lifetime erasure only.\n\
    let g: &'static Task =\n\
        unsafe { transmute(r) };\n\
}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_with_safety_doc_passes_without_line_comment() {
        let src = "/// Frees it.\n///\n/// # Safety\n/// `p` must be live.\nunsafe fn free(p: *mut u8) {}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fn_without_any_justification_is_flagged() {
        let src = "unsafe fn free(p: *mut u8) {}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).contains(&"safety-comment"));
    }

    #[test]
    fn unsafe_in_string_is_not_flagged() {
        let src = "fn f() { let s = \"unsafe { }\"; }\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    // --- safety-doc -----------------------------------------------------

    #[test]
    fn pub_unsafe_fn_without_safety_section_is_flagged() {
        let src = "/// Does a thing.\n// SAFETY: internal use.\npub unsafe fn f() {}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).contains(&"safety-doc"));
    }

    #[test]
    fn target_feature_fn_needs_safety_section() {
        let src = "#[target_feature(enable = \"avx\")]\nfn kernel() {}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["safety-doc"]);
    }

    #[test]
    fn target_feature_fn_with_safety_section_passes() {
        let src = "\
/// AVX kernel.\n\
///\n\
/// # Safety\n\
/// Call only after `is_x86_feature_detected!(\"avx\")`.\n\
#[target_feature(enable = \"avx\")]\n\
fn kernel() {}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn private_safe_fn_needs_no_safety_doc() {
        let src = "fn plain() {}\npub fn also_plain() {}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    // --- debug-assert-unsafe --------------------------------------------

    #[test]
    fn debug_assert_inside_unsafe_block_is_flagged() {
        let src = "\
fn f(p: &mut [f32]) {\n\
    // SAFETY: bounds checked by the debug_assert (which is the bug).\n\
    unsafe {\n\
        debug_assert!(p.len() > 4);\n\
        danger(p);\n\
    }\n\
}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["debug-assert-unsafe"]);
    }

    #[test]
    fn debug_assert_outside_unsafe_block_is_fine() {
        let src = "fn f(n: usize) { debug_assert!(n > 0); }\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    // --- determinism rules ----------------------------------------------

    #[test]
    fn hashmap_in_numeric_crate_is_flagged_everywhere_including_imports() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let hits = rules_hit("crates/nn/src/model.rs", src);
        assert_eq!(hits, vec!["det-collections"; 3]);
    }

    #[test]
    fn hashmap_outside_numeric_crates_is_fine() {
        let src = "use std::collections::HashMap;\n";
        assert!(rules_hit("crates/serve/src/lib.rs", src).is_empty());
        assert!(rules_hit("crates/experiments/src/cli.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_numeric_test_code_is_fine() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(rules_hit("crates/nn/src/model.rs", src).is_empty());
    }

    #[test]
    fn clocks_and_ambient_rng_are_flagged_in_numeric_crates() {
        let src = "\
fn f() {\n\
    let t = std::time::Instant::now();\n\
    let mut rng = rand::thread_rng();\n\
}\n";
        let hits = rules_hit("crates/core/src/train.rs", src);
        // `time` (std path), `Instant`, and `thread_rng`.
        assert_eq!(hits, vec!["det-wall-clock", "det-wall-clock", "det-rng"]);
    }

    #[test]
    fn wall_clock_authorities_may_read_clocks_but_nothing_else() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        // The obs crate and the pool time work; that is their whole job.
        assert!(rules_hit("crates/obs/src/lib.rs", src).is_empty());
        assert!(rules_hit("crates/tensor/src/pool.rs", src).is_empty());
        // The rest of tensor (and every other numeric crate) stays banned.
        assert_eq!(
            rules_hit("crates/tensor/src/gemm.rs", src),
            vec!["det-wall-clock", "det-wall-clock"]
        );
    }

    #[test]
    fn obs_crate_is_numeric_for_every_other_determinism_rule() {
        // The wall-clock exemption is narrow: hash maps and ambient RNG in
        // the obs crate would still break merge determinism.
        let src = "use std::collections::HashMap;\nfn f() { rand::thread_rng(); }\n";
        assert_eq!(
            rules_hit("crates/obs/src/snapshot.rs", src),
            vec!["det-collections", "det-rng"]
        );
    }

    #[test]
    fn thread_count_reads_are_flagged_outside_the_pool() {
        let src = "fn shards() -> usize { pool_parallelism() * 2 }\n";
        assert_eq!(rules_hit("crates/core/src/sweep.rs", src), vec!["det-thread-count"]);
        // … but the pool itself is the authority.
        let pool = "fn size() -> usize { std::thread::available_parallelism().unwrap().get() }\n";
        assert!(rules_hit("crates/tensor/src/pool.rs", pool).is_empty());
    }

    #[test]
    fn thread_count_with_reasoned_allow_is_suppressed_and_counted() {
        let src = "\
fn wave() -> usize {\n\
    // analyze:allow(det-thread-count, distribution only: slot grid is fixed)\n\
    pool_parallelism() * 2\n\
}\n";
        let ctx = FileContext::new("crates/core/src/scheduler.rs".into(), src);
        let (findings, suppressed) = analyze_file(&ctx);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    // --- cast-boundary --------------------------------------------------

    #[test]
    fn bare_cast_in_boundary_file_is_flagged() {
        let src = "fn requantize(dot: i32, s: f32) -> f32 { s * dot as f32 }\n";
        assert_eq!(rules_hit("crates/core/src/qmodel.rs", src), vec!["cast-boundary"]);
    }

    #[test]
    fn usize_casts_and_non_boundary_files_are_exempt() {
        let src = "fn idx(i: i32) -> usize { i as usize }\n";
        assert!(rules_hit("crates/core/src/qmodel.rs", src).is_empty());
        let src2 = "fn f(x: i32) -> f32 { x as f32 }\n";
        assert!(rules_hit("crates/nn/src/linear.rs", src2).is_empty());
    }

    #[test]
    fn allowlisted_codec_fn_may_cast() {
        let src = "impl S {\n    pub fn decode_level(&self, w: u8) -> i32 { w as i8 as i32 }\n}\n";
        assert!(rules_hit("crates/quant/src/scheme.rs", src).is_empty());
        // The same body under another name is flagged.
        let src2 = "impl S {\n    pub fn sneaky(&self, w: u8) -> i32 { w as i8 as i32 }\n}\n";
        assert_eq!(rules_hit("crates/quant/src/scheme.rs", src2), vec!["cast-boundary"; 2]);
    }

    #[test]
    fn cast_in_boundary_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(i: usize) -> f32 { i as f32 }\n}\n";
        assert!(rules_hit("crates/quant/src/scheme.rs", src).is_empty());
    }

    #[test]
    fn use_as_rename_is_not_a_cast() {
        let src = "use std::fmt::Result as FmtResult;\n";
        assert!(rules_hit("crates/quant/src/scheme.rs", src).is_empty());
    }

    // --- deprecated-note ------------------------------------------------

    #[test]
    fn deprecated_without_note_is_flagged() {
        let src =
            "#[deprecated]\npub fn old() {}\n#[deprecated(since = \"0.1.0\")]\npub fn old2() {}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["deprecated-note"; 2]);
    }

    #[test]
    fn deprecated_with_note_passes() {
        let src = "#[deprecated(note = \"use `new_thing` instead\")]\npub fn old() {}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    // --- suppression-hygiene --------------------------------------------

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// analyze:allow(no-such-rule, whatever)\nlet x = 1;\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["suppression-hygiene"]);
    }

    #[test]
    fn reasonless_allow_is_flagged() {
        let src = "fn f() {\n    // analyze:allow(safety-comment)\n    unsafe { danger() }\n}\n";
        let hits = rules_hit("crates/x/src/a.rs", src);
        assert_eq!(hits, vec!["suppression-hygiene"]);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "// analyze:allow(det-rng, no rng here at all)\nfn f() {}\n";
        assert_eq!(rules_hit("crates/x/src/a.rs", src), vec!["suppression-hygiene"]);
    }

    #[test]
    fn used_allow_with_reason_is_clean() {
        let src = "\
fn f() {\n\
    // analyze:allow(safety-comment, verified by miri in CI)\n\
    unsafe { danger() }\n\
}\n";
        assert!(rules_hit("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn rule_table_ids_are_unique_and_kebab() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(
                r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "non-kebab id {}",
                r.id
            );
        }
        assert!(RULES.len() >= 6, "the acceptance bar is >= 6 distinct rules");
    }
}
