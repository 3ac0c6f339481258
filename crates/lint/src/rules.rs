//! The rule catalog.
//!
//! Each rule scans the scrubbed token stream of one source line (see
//! [`crate::lexer`]) and yields findings. Scoping (which files a rule
//! applies to) lives here too, driven by repo-relative paths; the
//! manifest-level rules (LAYER-001, META-001) live in
//! [`crate::layering`]. Rationale and escape hatches for every rule are
//! documented in `LINTS.md`.

use crate::callgraph::CallGraph;
use crate::items::{CallKind, CallSite, FnItem};
use crate::lexer::{Scrubbed, Token};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// Everything a source-level rule needs to know about one file.
pub struct FileContext<'a> {
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    /// Scrubbed source.
    pub scrubbed: &'a Scrubbed,
    /// 1-indexed line of the first `#[cfg(test)]` in the file, if any.
    /// By workspace convention unit-test modules sit at the end of the
    /// file, so rules that exempt test code skip everything from here.
    pub first_test_line: Option<usize>,
}

impl FileContext<'_> {
    /// Whether 1-indexed `line` is inside the trailing test module.
    fn in_test_code(&self, line: usize) -> bool {
        self.first_test_line.is_some_and(|t| line >= t)
    }

    /// Whether this file is itself a test/bench target (integration
    /// tests, benches, fixtures): determinism rules still apply there,
    /// but panic-freedom rules do not.
    fn is_test_target(&self) -> bool {
        self.path.contains("/tests/") || self.path.starts_with("tests/")
    }
}

/// Finds the first `#[cfg(test)]` attribute line in a scrubbed file.
pub fn first_test_line(scrubbed: &Scrubbed) -> Option<usize> {
    (1..=scrubbed.lines.len()).find(|&ln| {
        let toks = scrubbed.tokens(ln);
        find_seq(&toks, &["#", "[", "cfg", "(", "test", ")", "]"]).is_some()
    })
}

/// Runs every source-level rule over `ctx`. Findings come back
/// unfiltered: `lint:allow` escapes and config-level allowlisting are
/// applied centrally by the caller (so escape *usage* can be audited
/// for META-002).
pub fn check_file(ctx: &FileContext<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for ln in 1..=ctx.scrubbed.lines.len() {
        let toks = ctx.scrubbed.tokens(ln);
        if toks.is_empty() {
            continue;
        }
        det_001(ctx, ln, &toks, &mut findings);
        det_002(ctx, ln, &toks, &mut findings);
        det_003(ctx, ln, &toks, &mut findings);
        det_004(ctx, ln, &toks, &mut findings);
        sec_001(ctx, ln, &toks, &mut findings);
        sec_002(ctx, ln, &toks, &mut findings);
    }
    findings
}

/// Runs the call-graph rules over the whole analyzed file set. Like
/// [`check_file`], findings are unfiltered; escapes apply centrally.
pub fn check_graph(graph: &CallGraph) -> Vec<Finding> {
    let mut findings = Vec::new();
    persist_001(graph, &mut findings);
    sec_003(graph, &mut findings);
    crypto_001(graph, &mut findings);
    layer_002(graph, &mut findings);
    findings
}

/// The files where direct device writes are legitimate: the
/// controller's region layer, home of the persist choke point and of
/// the one device write that journal records, recovery's restores and
/// Start-Gap moves share, and the journal module.
const PERSIST_CHOKE_FILES: &[&str] = &[
    "crates/core/src/controller/regions.rs",
    "crates/core/src/persist.rs",
];

/// Whether a call site is a raw device write (`NvmDevice::write_line`,
/// spelled as a method or with an explicit type qualifier).
fn is_device_write(call: &CallSite) -> bool {
    call.name == "write_line"
        && match &call.kind {
            CallKind::Method => true,
            CallKind::Qualified(q) => q == "NvmDevice",
            _ => false,
        }
}

/// PERSIST-001: inside `ss-core`, every durable line write must pass
/// through the `persist_line` choke point, which numbers it as a
/// persist step and (under ADR) journals the write-ahead undo image. A
/// `write_line` call in any other ss-core file bypasses crash-cut
/// accounting and the ordering journal — exactly the "optimized" path
/// that silently loses crash consistency. Within the choke files the
/// write is legitimate only while a `persist_line` function actually
/// exists in the analyzed set: a refactor that deletes or renames the
/// choke point is flagged at every device write it orphans.
fn persist_001(graph: &CallGraph, out: &mut Vec<Finding>) {
    let persist_exists = graph
        .fns
        .iter()
        .any(|f| f.name == "persist_line" && !f.in_test && f.file.starts_with("crates/core/src/"));
    for f in &graph.fns {
        if !f.file.starts_with("crates/core/src/") || f.in_test {
            continue;
        }
        let in_choke = PERSIST_CHOKE_FILES.contains(&f.file.as_str());
        for call in &f.calls {
            if !is_device_write(call) {
                continue;
            }
            if !in_choke {
                out.push(Finding::new(
                    &f.file,
                    call.line,
                    "PERSIST-001",
                    format!(
                        "{}() writes the device directly; route durable writes through the \
                         persist_line choke point so each takes a persist step and its \
                         ordering-journal entry",
                        f.name
                    ),
                ));
            } else if !persist_exists {
                out.push(Finding::new(
                    &f.file,
                    call.line,
                    "PERSIST-001",
                    format!(
                        "{}() writes the device but ss-core defines no persist_line choke \
                         point; the ordering-journal invariant has lost its anchor",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// The crates a `MemoryController` request may execute in: ss-core and
/// the helper crates its layer depends on. SEC-003's reachability
/// traversal never leaves this set, so name collisions with harness or
/// bench code cannot drag unrelated functions into the closure.
const CONTROLLER_DOMAIN: &[&str] = &[
    "crates/core/src/",
    "crates/crypto/src/",
    "crates/nvm/src/",
    "crates/cache/src/",
    "crates/common/src/",
    "crates/trace/src/",
];

/// Whether a `MemoryController` method is part of the public request
/// API that SEC-003 roots at (`read_block`, `write_block`,
/// `shred_page*`, `recover_mut`, and any future spelling with those
/// prefixes).
fn is_controller_root(name: &str) -> bool {
    name == "recover_mut"
        || name.starts_with("read")
        || name.starts_with("write")
        || name.starts_with("shred")
}

/// SEC-003: call-graph panic-reachability. No function transitively
/// reachable from `MemoryController`'s public API may `panic!`,
/// `unwrap()` or `expect()` — the interprocedural extension of SEC-001
/// into the `ss-crypto`/`ss-nvm`/`ss-cache` helpers those paths
/// actually execute. Findings are reported only outside
/// `crates/core/src/` (SEC-001 already owns every line there).
fn sec_003(graph: &CallGraph, out: &mut Vec<Finding>) {
    let domain = |f: &FnItem| !f.in_test && CONTROLLER_DOMAIN.iter().any(|d| f.file.starts_with(d));
    let mut reached: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        if f.impl_type.as_deref() == Some("MemoryController")
            && f.is_pub
            && !f.in_test
            && f.file.starts_with("crates/core/src/")
            && is_controller_root(&f.name)
        {
            for r in graph.reachable(idx, &domain) {
                reached.entry(r).or_default().insert(f.name.as_str());
            }
        }
    }
    for (idx, roots) in &reached {
        let f = &graph.fns[*idx];
        if f.file.starts_with("crates/core/src/") {
            continue;
        }
        for call in &f.calls {
            let panics = match &call.kind {
                CallKind::Macro => call.name == "panic",
                CallKind::Method => call.name == "unwrap" || call.name == "expect",
                _ => false,
            };
            if panics {
                let via: Vec<&str> = roots.iter().copied().collect();
                out.push(Finding::new(
                    &f.file,
                    call.line,
                    "SEC-003",
                    format!(
                        "{}() is reachable from MemoryController::{{{}}} but calls {}; \
                         propagate ss_common::error instead",
                        f.name,
                        via.join(","),
                        call.name
                    ),
                ));
            }
        }
    }
}

/// The `ss-crypto` surfaces that recover plaintext or keystream
/// material: line/block decryption and the one-time-pad generator.
const CRYPTO_DECRYPT_SURFACE: &[&str] = &["decrypt_line", "decrypt_block", "pad"];

/// The `ss-crypto` two-share scatter primitives: random-share
/// generation, XOR-mask derivation, and recombination.
const SHARE_SURFACE: &[&str] = &["gen_share", "mask_share", "recombine_shares"];

/// LAYER-002: the two-share scatter primitives are defined in
/// `ss-crypto` and invoked only from `ss-core` — the scattered-mode
/// dual of CRYPTO-001. `recombine_shares` reassembles plaintext from a
/// share pair, so a call above the controller is an oracle that skips
/// the liveness check standing between the share arrays and the
/// caller; and a same-named re-definition outside ss-crypto forks the
/// primitive away from its one audited home. Calls that resolve to an
/// unrelated workspace function outside ss-crypto are not flagged.
fn layer_002(graph: &CallGraph, out: &mut Vec<Finding>) {
    for f in &graph.fns {
        if f.in_test {
            continue;
        }
        // Definition containment: the primitives live in ss-crypto only.
        if SHARE_SURFACE.contains(&f.name.as_str()) && !f.file.starts_with("crates/crypto/src/") {
            out.push(Finding::new(
                &f.file,
                f.line,
                "LAYER-002",
                format!(
                    "{}() re-defines a share primitive outside ss-crypto; the scatter \
                     surface has one audited home",
                    f.name
                ),
            ));
        }
        // Call containment: only the controller may drive them.
        if f.file.starts_with("crates/core/src/") || f.file.starts_with("crates/crypto/src/") {
            continue;
        }
        for call in &f.calls {
            if !SHARE_SURFACE.contains(&call.name.as_str()) || matches!(call.kind, CallKind::Macro)
            {
                continue;
            }
            let targets = graph.resolve(f, call);
            if !targets.is_empty()
                && !targets
                    .iter()
                    .any(|&t| graph.fns[t].file.starts_with("crates/crypto/src/"))
            {
                continue;
            }
            out.push(Finding::new(
                &f.file,
                call.line,
                "LAYER-002",
                format!(
                    "{}() touches share material outside ss-core; the ss-crypto scatter \
                     primitives are contained to the controller",
                    call.name
                ),
            ));
        }
    }
}

/// CRYPTO-001: the decrypt/keystream surfaces of `ss-crypto` may be
/// invoked only from `ss-core` (and `ss-crypto` itself) — the
/// plaintext-containment dual of SEC-002. Software above the controller
/// sees plaintext only through the controller's read path, where the
/// shred check and zero-fill stand between the array and the caller; a
/// decrypt call anywhere else is an oracle that bypasses them. A call
/// that resolves to a same-named workspace function outside ss-crypto
/// is not flagged.
fn crypto_001(graph: &CallGraph, out: &mut Vec<Finding>) {
    for f in &graph.fns {
        if f.in_test
            || f.file.starts_with("crates/core/src/")
            || f.file.starts_with("crates/crypto/src/")
        {
            continue;
        }
        for call in &f.calls {
            if !CRYPTO_DECRYPT_SURFACE.contains(&call.name.as_str())
                || !matches!(call.kind, CallKind::Method | CallKind::Qualified(_))
            {
                continue;
            }
            let targets = graph.resolve(f, call);
            if !targets.is_empty()
                && !targets
                    .iter()
                    .any(|&t| graph.fns[t].file.starts_with("crates/crypto/src/"))
            {
                continue;
            }
            out.push(Finding::new(
                &f.file,
                call.line,
                "CRYPTO-001",
                format!(
                    "{}() recovers plaintext/keystream outside ss-core; ss-crypto decrypt \
                     surfaces are contained to the controller",
                    call.name
                ),
            ));
        }
    }
}

/// DET-001: no `HashMap`/`HashSet` anywhere in the workspace. Their
/// iteration order is randomized per process (`RandomState`), which
/// breaks byte-identical reports and makes tie-breaks (e.g. max-wear
/// scans) nondeterministic across runs.
fn det_001(ctx: &FileContext<'_>, ln: usize, toks: &[Token], out: &mut Vec<Finding>) {
    for name in ["HashMap", "HashSet"] {
        if toks.iter().any(|t| t.is_ident(name)) {
            out.push(Finding::new(
                ctx.path,
                ln,
                "DET-001",
                format!("{name} iterates in random order; use BTreeMap/BTreeSet"),
            ));
        }
    }
}

/// DET-002: no wall-clock or OS-environment inputs. Simulated time is
/// `ss_common::time::Cycles`; anything observable must be a pure
/// function of the configuration and seed.
fn det_002(ctx: &FileContext<'_>, ln: usize, toks: &[Token], out: &mut Vec<Finding>) {
    let mut hit = |what: &str| {
        out.push(Finding::new(
            ctx.path,
            ln,
            "DET-002",
            format!("{what} injects wall-clock/OS state into a deterministic path"),
        ));
    };
    if find_seq(toks, &["Instant", "::", "now"]).is_some() {
        hit("Instant::now");
    }
    if toks.iter().any(|t| t.is_ident("SystemTime")) {
        hit("SystemTime");
    }
    if find_seq(toks, &["std", "::", "env"]).is_some() || find_seq(toks, &["env", "::"]).is_some() {
        hit("std::env");
    }
}

/// DET-003: all randomness flows through `ss_common::rng::DetRng`.
/// External RNGs (the `rand` crate family, hasher entropy) either pull
/// OS entropy or change streams across versions.
fn det_003(ctx: &FileContext<'_>, ln: usize, toks: &[Token], out: &mut Vec<Finding>) {
    const BANNED: &[&str] = &[
        "thread_rng",
        "StdRng",
        "SmallRng",
        "ThreadRng",
        "OsRng",
        "getrandom",
        "from_entropy",
        "RandomState",
        "DefaultHasher",
    ];
    for name in BANNED {
        if toks.iter().any(|t| t.is_ident(name)) {
            out.push(Finding::new(
                ctx.path,
                ln,
                "DET-003",
                format!("{name}: construct RNGs via ss_common::rng::DetRng only"),
            ));
        }
    }
    if find_seq(toks, &["rand", "::"]).is_some() {
        out.push(Finding::new(
            ctx.path,
            ln,
            "DET-003",
            "the rand crate is banned: construct RNGs via ss_common::rng::DetRng".to_string(),
        ));
    }
}

/// DET-004: no floating point in cycle, fault, or energy accounting.
/// `f64` rounding depends on evaluation order and (historically)
/// platform FMA contraction; every quantity on these paths is exact in
/// integers (picoseconds, picojoules, 2^53-scaled probability
/// thresholds), so a float is either dead weight or a reintroduced
/// nondeterminism hazard. Scoped to the accounting files; the one-time
/// probability→threshold conversion at construction carries explicit
/// `DET-004` line escapes. Trailing test modules are exempt
/// (tests may compare against float reference implementations).
fn det_004(ctx: &FileContext<'_>, ln: usize, toks: &[Token], out: &mut Vec<Finding>) {
    const CYCLE_ACCOUNTING_FILES: &[&str] = &[
        "crates/common/src/time.rs",
        "crates/core/src/channel.rs",
        "crates/core/src/shard.rs",
        "crates/nvm/src/device.rs",
        "crates/nvm/src/timing.rs",
    ];
    if !CYCLE_ACCOUNTING_FILES.contains(&ctx.path) || ctx.in_test_code(ln) {
        return;
    }
    for name in ["f64", "f32"] {
        if toks.iter().any(|t| t.is_ident(name)) {
            out.push(Finding::new(
                ctx.path,
                ln,
                "DET-004",
                format!("{name} in cycle/fault/energy accounting; use integer fixed point (Picos, picojoules, DetRng thresholds)"),
            ));
        }
    }
}

/// SEC-001: no `unwrap()`/`expect()`/`panic!` in `ss-core` non-test
/// code. The controller and heal paths sit between every workload and
/// the device; a panic there aborts the simulated machine instead of
/// surfacing a typed `ss_common::error::Error` the harness can classify
/// (detected vs corrupted). Test modules are exempt.
fn sec_001(ctx: &FileContext<'_>, ln: usize, toks: &[Token], out: &mut Vec<Finding>) {
    if !ctx.path.starts_with("crates/core/src/") || ctx.in_test_code(ln) || ctx.is_test_target() {
        return;
    }
    for (name, suffix) in [("unwrap", '('), ("expect", '('), ("panic", '!')] {
        let mut i = 0;
        while let Some(pos) = toks[i..].iter().position(|t| t.is_ident(name)) {
            let at = i + pos;
            if toks.get(at + 1).is_some_and(|t| t.is_punct(suffix)) {
                out.push(Finding::new(
                    ctx.path,
                    ln,
                    "SEC-001",
                    format!("{name} on a controller/heal path; propagate ss_common::error instead"),
                ));
            }
            i = at + 1;
        }
    }
}

/// SEC-002: the raw `ss-nvm` device write surface (`NvmDevice`,
/// `write_line`, `tamper`, `flip_bit`, `fail_line`,
/// `inject_read_error`) may only be referenced from `ss-core` (and
/// `ss-nvm` itself). Everything else must go through the controller so
/// no plaintext can bypass the encrypt path, and — load-bearing for the
/// paper's shredding — so no write can land without its minor-counter
/// bump (see DESIGN.md: a stale minor of zero turns zero-fill reads
/// into array reads of stale ciphertext).
fn sec_002(ctx: &FileContext<'_>, ln: usize, toks: &[Token], out: &mut Vec<Finding>) {
    if ctx.path.starts_with("crates/core/src/") || ctx.path.starts_with("crates/nvm/src/") {
        return;
    }
    if toks.iter().any(|t| t.is_ident("NvmDevice")) {
        out.push(Finding::new(
            ctx.path,
            ln,
            "SEC-002",
            "NvmDevice referenced outside ss-core: raw device access bypasses the encrypt/shred path",
        ));
    }
    const WRITE_APIS: &[&str] = &[
        "write_line",
        "tamper",
        "flip_bit",
        "fail_line",
        "inject_read_error",
    ];
    for name in WRITE_APIS {
        let mut i = 0;
        while let Some(pos) = toks[i..].iter().position(|t| t.is_ident(name)) {
            let at = i + pos;
            if toks.get(at + 1).is_some_and(|t| t.is_punct('(')) {
                out.push(Finding::new(
                    ctx.path,
                    ln,
                    "SEC-002",
                    format!("raw device API {name}() referenced outside ss-core"),
                ));
            }
            i = at + 1;
        }
    }
}

/// Finds `pattern` (idents and one-char puncts; `"::"` spelled as two
/// `":"` entries is also accepted) as a contiguous token sequence.
/// Multi-char pattern entries that are not identifiers are expanded to
/// their characters.
pub fn find_seq(toks: &[Token], pattern: &[&str]) -> Option<usize> {
    let want: Vec<Token> = pattern
        .iter()
        .flat_map(|p| {
            if p.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                vec![Token::Ident((*p).to_string())]
            } else {
                p.chars().map(Token::Punct).collect()
            }
        })
        .collect();
    if want.is_empty() || toks.len() < want.len() {
        return None;
    }
    (0..=toks.len() - want.len()).find(|&i| toks[i..i + want.len()] == want[..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    fn ctx<'a>(path: &'a str, scrubbed: &'a Scrubbed) -> FileContext<'a> {
        FileContext {
            path,
            scrubbed,
            first_test_line: first_test_line(scrubbed),
        }
    }

    // Mirrors the central pipeline: run the per-file rules, then apply
    // the file's own `lint:allow` escapes (lib.rs does this filtering
    // for real runs, tracking escape usage for META-002).
    fn rules_on(path: &str, src: &str) -> Vec<Finding> {
        let s = scrub(src);
        check_file(&ctx(path, &s))
            .into_iter()
            .filter(|f| !s.allows(f.line, &f.rule))
            .collect()
    }

    #[test]
    fn det001_fires_on_hashmap_code_not_comments() {
        let f = rules_on("crates/os/src/kernel.rs", "use std::collections::HashMap;");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "DET-001");
        assert!(rules_on("crates/os/src/kernel.rs", "// a HashMap note").is_empty());
    }

    #[test]
    fn det002_catches_instant_and_env() {
        let f = rules_on("crates/sim/src/system.rs", "let t = Instant::now();");
        assert_eq!(f[0].rule, "DET-002");
        let f = rules_on("crates/sim/src/system.rs", "let v = std::env::var(\"X\");");
        assert!(f.iter().any(|f| f.rule == "DET-002"));
    }

    #[test]
    fn det004_scoped_to_cycle_accounting_files() {
        let f = rules_on("crates/nvm/src/timing.rs", "pub latency: f64,");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "DET-004");
        assert_eq!(
            rules_on("crates/core/src/channel.rs", "let x = y as f32;")[0].rule,
            "DET-004"
        );
        // Out of scope: floats are fine in report formatting.
        assert!(rules_on("crates/sim/src/report.rs", "let mib = b as f64;").is_empty());
        // Escape hatch and trailing test modules are honoured.
        assert!(rules_on(
            "crates/nvm/src/device.rs",
            "pub transient_read_ber: f64, // lint:allow(DET-004)"
        )
        .is_empty());
        let src = "#[cfg(test)]\nmod tests {\n let p = 0.5_f64;\n}";
        assert!(rules_on("crates/common/src/time.rs", src).is_empty());
    }

    #[test]
    fn sec001_scoped_to_core_nontest() {
        assert_eq!(
            rules_on("crates/core/src/controller.rs", "let x = y.unwrap();").len(),
            1
        );
        // Same code outside ss-core: no finding.
        assert!(rules_on("crates/sim/src/system.rs", "let x = y.unwrap();").is_empty());
        // Inside the trailing test module: no finding.
        let src = "#[cfg(test)]\nmod tests {\n let x = y.unwrap();\n}";
        assert!(rules_on("crates/core/src/controller.rs", src).is_empty());
    }

    #[test]
    fn sec001_does_not_match_prefixed_idents() {
        assert!(rules_on("crates/core/src/heal.rs", "fn unwrap_or_zero() {}").is_empty());
    }

    #[test]
    fn sec002_allows_core_forbids_rest() {
        assert!(rules_on("crates/core/src/controller.rs", "nvm.write_line(a, &d)?;").is_empty());
        let f = rules_on("crates/sim/src/system.rs", "nvm.write_line(a, &d)?;");
        assert_eq!(f[0].rule, "SEC-002");
        // Longer identifiers do not match.
        assert!(rules_on("crates/sim/src/system.rs", "m.write_line_nt(c, a);").is_empty());
    }

    #[test]
    fn line_allow_escape_suppresses() {
        let f = rules_on(
            "crates/os/src/kernel.rs",
            "use std::collections::HashMap; // lint:allow(DET-001)",
        );
        assert!(f.is_empty());
    }

    fn graph_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let mut fns = Vec::new();
        for (path, src) in files {
            let s = scrub(src);
            fns.extend(crate::items::parse_items(path, &s, first_test_line(&s)));
        }
        check_graph(&CallGraph::build(fns))
    }

    #[test]
    fn persist001_flags_device_writes_outside_the_choke_point() {
        let persist = (
            "crates/core/src/persist.rs",
            "impl MemoryController {\n pub fn persist_line(&mut self) { self.nvm.write_line(a, d); }\n}",
        );
        let bypass = (
            "crates/core/src/wear.rs",
            "pub fn migrate(nvm: &mut N) {\n nvm.write_line(a, d);\n}",
        );
        let f = graph_on(&[persist, bypass]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "PERSIST-001");
        assert_eq!(
            (f[0].path.as_str(), f[0].line),
            ("crates/core/src/wear.rs", 2)
        );
        // The controller proper is no choke file: its device I/O goes
        // through the region layer.
        let controller = (
            "crates/core/src/controller.rs",
            "impl MemoryController {\n fn restore(&mut self) {\n self.nvm.write_line(a, d);\n }\n}",
        );
        let f = graph_on(&[persist, controller]);
        assert_eq!(f.len(), 1);
        assert_eq!(
            (f[0].path.as_str(), f[0].line),
            ("crates/core/src/controller.rs", 3)
        );
        // The choke point itself is clean while it exists…
        assert!(graph_on(&[persist]).is_empty());
        // …but a choke-file write with no persist_line anywhere is red.
        let renamed = (
            "crates/core/src/persist.rs",
            "impl MemoryController {\n pub fn flush(&mut self) { self.nvm.write_line(a, d); }\n}",
        );
        let f = graph_on(&[renamed]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("no persist_line choke point"));
    }

    #[test]
    fn sec003_flags_panics_reachable_from_the_controller_api() {
        let api = (
            "crates/core/src/controller.rs",
            "impl MemoryController {\n pub fn read_block(&self) { self.engine.pad_for(1); }\n}",
        );
        let helper = (
            "crates/crypto/src/ctr.rs",
            "impl Engine {\n pub fn pad_for(&self, x: u32) { self.key.get(x).unwrap(); }\n pub fn offline(&self) { panic!(); }\n}",
        );
        let f = graph_on(&[api, helper]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "SEC-003");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("MemoryController::{read_block}"));
        // The unreachable offline() panic is not flagged.
        assert!(!f.iter().any(|f| f.line == 3));
    }

    #[test]
    fn crypto001_contains_decrypt_surfaces_to_core() {
        let sim = (
            "crates/sim/src/probe.rs",
            "pub fn snoop(e: &Engine) { e.decrypt_line(iv, data); }",
        );
        let f = graph_on(&[sim]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "CRYPTO-001");
        // The same call from ss-core is the legitimate read path.
        let core = (
            "crates/core/src/controller.rs",
            "pub fn fill(e: &Engine) { e.decrypt_line(iv, data); }",
        );
        assert!(graph_on(&[core]).is_empty());
        // A call resolving to a local, non-crypto fn of the same name is
        // not a crypto surface.
        let local = (
            "crates/sim/src/fmt.rs",
            "impl Table {\n pub fn pad(&self, w: usize) {}\n pub fn render(&self) { self.pad(3); }\n}",
        );
        assert!(graph_on(&[local]).is_empty());
    }

    #[test]
    fn layer002_contains_share_primitives_to_core_and_crypto() {
        // A recombine call above the controller is an oracle.
        let sim = (
            "crates/sim/src/probe.rs",
            "pub fn peek(a: &Line, b: &Line) -> Line { ss_crypto::share::recombine_shares(a, b) }",
        );
        let f = graph_on(&[sim]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "LAYER-002");
        assert!(f[0].message.contains("recombine_shares"));
        // The same call from ss-core is the legitimate read path.
        let core = (
            "crates/core/src/controller.rs",
            "pub fn fill(a: &Line, b: &Line) -> Line { ss_crypto::share::recombine_shares(a, b) }",
        );
        assert!(graph_on(&[core]).is_empty());
        // Re-defining a primitive outside ss-crypto forks the surface.
        let fork = (
            "crates/nvm/src/device.rs",
            "pub fn gen_share(seed: u64) -> u64 { seed }",
        );
        let f = graph_on(&[fork]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "LAYER-002");
        assert!(f[0].message.contains("re-defines"));
        // A call resolving to a local, unrelated fn of the same name is
        // not a scatter surface once the definition itself is in crypto.
        let home = (
            "crates/crypto/src/share.rs",
            "pub fn mask_share(p: &Line, s: &Line) -> Line { xor(p, s) }",
        );
        assert!(graph_on(&[home]).is_empty());
    }
}
