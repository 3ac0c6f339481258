//! Golden tests: exact expected findings for every fixture under
//! `crates/lint/fixtures/`, plus CLI exit-code and JSON-shape checks.
//!
//! The fixtures form a mini-workspace (own `lint.toml`, own `crates/`
//! tree) whose paths mirror the real repo so path-scoped rules (SEC-001
//! on `crates/core/src/`, …) behave exactly as they do in production.
//! The workspace walker skips `fixtures` directories, so these
//! deliberately violating files never pollute a real `ss-lint` run.

use std::path::{Path, PathBuf};
use std::process::Command;

use ss_lint::{check_files, check_workspace, load_config, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// Lints `paths` (fixture-relative) against the fixture `lint.toml`.
fn lint(paths: &[&str]) -> Vec<Finding> {
    let root = fixture_root();
    let config = load_config(&root).expect("fixture lint.toml parses");
    let files: Vec<PathBuf> = paths.iter().map(PathBuf::from).collect();
    check_files(&root, &config, &files).expect("fixtures readable")
}

/// Collapses findings to `(line, rule)` pairs for compact golden
/// expectations; messages are asserted separately where they matter.
fn lines_and_rules(findings: &[Finding]) -> Vec<(usize, &str)> {
    findings.iter().map(|f| (f.line, f.rule.as_str())).collect()
}

#[test]
fn det001_violations_exact() {
    let f = lint(&["crates/sim/src/det001_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![
            (3, "DET-001"),
            (4, "DET-001"),
            (6, "DET-001"),
            (7, "DET-001")
        ],
        "{f:#?}"
    );
    assert!(f[0].message.contains("BTreeMap"), "{}", f[0].message);
}

#[test]
fn det001_clean_fixture_is_clean() {
    assert!(lint(&["crates/sim/src/det001_clean.rs"]).is_empty());
}

#[test]
fn det002_violations_exact() {
    let f = lint(&["crates/sim/src/det002_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(4, "DET-002"), (5, "DET-002"), (6, "DET-002")],
        "{f:#?}"
    );
    assert!(f[0].message.contains("Instant::now"));
    assert!(f[1].message.contains("SystemTime"));
    assert!(f[2].message.contains("std::env"));
}

#[test]
fn det001_covers_trace_crate() {
    // A HashMap-backed registry would export in random key order — the
    // trace crate is subject to the same determinism sweep as the rest.
    let f = lint(&["crates/trace/src/det001_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(4, "DET-001"), (6, "DET-001"), (7, "DET-001")],
        "{f:#?}"
    );
}

#[test]
fn det002_covers_trace_crate() {
    // Wall-clock event timestamps would break byte-identical streams.
    let f = lint(&["crates/trace/src/det002_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(5, "DET-002"), (6, "DET-002")],
        "{f:#?}"
    );
    assert!(f[0].message.contains("SystemTime"));
}

#[test]
fn trace_shaped_code_is_clean() {
    // Cycle-stamped records exported in BTreeMap order — the real
    // crate's shape — raise nothing.
    assert!(lint(&["crates/trace/src/det_clean.rs"]).is_empty());
}

#[test]
fn det003_violations_exact() {
    let f = lint(&["crates/sim/src/det003_bad.rs"]);
    // Line 4 fires twice: `thread_rng` and the `rand::` crate path are
    // separate findings.
    assert_eq!(
        lines_and_rules(&f),
        vec![(4, "DET-003"), (4, "DET-003"), (5, "DET-003")],
        "{f:#?}"
    );
    assert!(f.iter().all(|f| f.message.contains("DetRng")));
}

#[test]
fn sec001_violations_exact() {
    let f = lint(&["crates/core/src/sec001_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(4, "SEC-001"), (8, "SEC-001"), (12, "SEC-001")],
        "{f:#?}"
    );
}

#[test]
fn sec001_clean_fixture_is_clean() {
    // Result propagation plus an unwrap inside the trailing test module.
    assert!(lint(&["crates/core/src/sec001_clean.rs"]).is_empty());
}

#[test]
fn sec002_violations_exact() {
    let f = lint(&["crates/sim/src/sec002_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![
            (3, "SEC-002"),
            (5, "SEC-002"),
            (6, "SEC-002"),
            (7, "SEC-002")
        ],
        "{f:#?}"
    );
}

#[test]
fn line_allow_escapes_suppress_exactly_their_line() {
    // Two escaped HashMap uses (same-line and comment-line-above); only
    // the unescaped HashSet on line 9 may fire.
    let f = lint(&["crates/sim/src/allow_line.rs"]);
    assert_eq!(lines_and_rules(&f), vec![(9, "DET-001")], "{f:#?}");
}

#[test]
fn file_allow_waives_one_rule_only() {
    // DET-001 is waived file-wide; the DET-002 violation still fires.
    let f = lint(&["crates/sim/src/allow_file.rs"]);
    assert_eq!(lines_and_rules(&f), vec![(10, "DET-002")], "{f:#?}");
}

#[test]
fn config_allowlist_waives_whole_file() {
    assert!(lint(&["crates/sim/src/allowed_by_config.rs"]).is_empty());
}

#[test]
fn layering_good_crate_is_clean() {
    assert!(lint(&["crates/layers/good/Cargo.toml"]).is_empty());
}

#[test]
fn layering_flags_undeclared_and_external_deps() {
    let f = lint(&["crates/layers/bad-dep/Cargo.toml"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(7, "LAYER-001"), (8, "LAYER-001")],
        "{f:#?}"
    );
    assert!(f[0].message.contains("may not depend on ss-nvm"));
    assert!(f[1].message.contains("zero-dependency"));
}

#[test]
fn layering_flags_unlisted_crate() {
    let f = lint(&["crates/layers/unlisted/Cargo.toml"]);
    assert_eq!(lines_and_rules(&f), vec![(1, "LAYER-001")], "{f:#?}");
    assert!(f[0].message.contains("no [layers.fx-unlisted] entry"));
}

#[test]
fn meta001_flags_missing_forbid() {
    let f = lint(&["crates/layers/no-forbid/Cargo.toml"]);
    assert_eq!(lines_and_rules(&f), vec![(1, "META-001")], "{f:#?}");
    assert_eq!(f[0].path, "crates/layers/no-forbid/src/lib.rs");
}

#[test]
fn meta001_tolerates_deny_with_config_exception() {
    assert!(lint(&["crates/layers/deny-ok/Cargo.toml"]).is_empty());
}

#[test]
fn persist001_violations_exact() {
    let f = lint(&["crates/core/src/persist001_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(8, "PERSIST-001"), (9, "PERSIST-001")],
        "{f:#?}"
    );
    assert_eq!(f[0].path, "crates/core/src/persist001_bad.rs");
    assert!(f[0].message.contains("persist_line choke point"));
}

#[test]
fn persist001_choke_point_and_routed_writes_are_clean() {
    assert!(lint(&["crates/core/src/persist.rs"]).is_empty());
    assert!(lint(&["crates/core/src/persist001_clean.rs"]).is_empty());
    // A region-layer write is fine while the choke point is in view.
    assert!(lint(&[
        "crates/core/src/persist.rs",
        "crates/core/src/controller/regions.rs"
    ])
    .is_empty());
}

#[test]
fn persist001_losing_the_choke_point_turns_red() {
    // The same region-layer write with persist_line gone from the call
    // chain — the "choke point refactored away" failure mode.
    let f = lint(&["crates/core/src/controller/regions.rs"]);
    assert_eq!(lines_and_rules(&f), vec![(11, "PERSIST-001")], "{f:#?}");
    assert!(f[0].message.contains("no persist_line choke point"));
}

#[test]
fn sec003_violations_exact() {
    let f = lint(&[
        "crates/core/src/sec003_api.rs",
        "crates/crypto/src/sec003_bad.rs",
        "crates/nvm/src/sec003_bad.rs",
    ]);
    let got: Vec<(&str, usize, &str)> = f
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.rule.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/crypto/src/sec003_bad.rs", 9, "SEC-003"),
            ("crates/nvm/src/sec003_bad.rs", 9, "SEC-003"),
        ],
        "{f:#?}"
    );
    // Each finding names the public-API roots that reach it; the
    // unreachable offline_audit() panic on crypto line 14 is absent.
    assert!(f[0].message.contains("MemoryController::{read_block}"));
    assert!(f[1].message.contains("MemoryController::{shred_page}"));
}

#[test]
fn sec003_clean_helpers_are_clean() {
    assert!(lint(&[
        "crates/core/src/sec003_api.rs",
        "crates/crypto/src/sec003_clean.rs"
    ])
    .is_empty());
}

#[test]
fn crypto001_violations_exact() {
    let f = lint(&["crates/sim/src/crypto001_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(8, "CRYPTO-001"), (9, "CRYPTO-001"), (10, "CRYPTO-001")],
        "{f:#?}"
    );
    assert!(f[0].message.contains("decrypt_line"));
    assert!(f[1].message.contains("pad"));
    assert!(f[2].message.contains("decrypt_block"));
}

#[test]
fn crypto001_clean_fixtures_are_clean() {
    // Encrypt-side use outside ss-core, and decrypt inside ss-core.
    assert!(lint(&["crates/sim/src/crypto001_clean.rs"]).is_empty());
    assert!(lint(&["crates/core/src/crypto001_core_clean.rs"]).is_empty());
}

#[test]
fn layer002_violations_exact() {
    // The gen_share *call* resolves to the fixture's own forked
    // definition, so only the fork itself is flagged for that name;
    // the mask/recombine calls hit the real ss-crypto surface.
    let f = lint(&["crates/sim/src/layer002_bad.rs"]);
    assert_eq!(
        lines_and_rules(&f),
        vec![(10, "LAYER-002"), (12, "LAYER-002"), (15, "LAYER-002")],
        "{f:#?}"
    );
    assert!(f[0].message.contains("mask_share"));
    assert!(f[1].message.contains("recombine_shares"));
    assert!(f[2].message.contains("re-defines"));
}

#[test]
fn layer002_clean_fixtures_are_clean() {
    // Name-stem lookalikes outside, and real scatter calls inside ss-core.
    assert!(lint(&["crates/sim/src/layer002_clean.rs"]).is_empty());
    assert!(lint(&["crates/core/src/layer002_core_clean.rs"]).is_empty());
}

#[test]
fn meta002_workspace_audit_exact() {
    // Workspace mode (full tree in view) audits escape staleness: the
    // stale line + file directives in stale.rs and the stale [[allow]]
    // entry fire; the used escapes in maps.rs/used.rs and the excused
    // directive in excused.rs stay silent.
    let f = check_workspace(&fixture_root().join("meta")).expect("meta fixture workspace");
    let got: Vec<(&str, usize, &str)> = f
        .iter()
        .map(|f| (f.path.as_str(), f.line, f.rule.as_str()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("crates/sim/src/stale.rs", 2, "META-002"),
            ("crates/sim/src/stale.rs", 4, "META-002"),
            ("lint.toml", 8, "META-002"),
        ],
        "{f:#?}"
    );
    assert!(f[0].message.contains("lint:allow-file(DET-002)"));
    assert!(f[1].message.contains("lint:allow(DET-001)"));
    assert!(f[2].message.contains("stale [[allow]] entry"));
}

#[test]
fn meta002_clean_workspace_is_clean() {
    let f = check_workspace(&fixture_root().join("meta_clean")).expect("meta_clean workspace");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn workspace_mode_accepts_relative_root() {
    // `--root fixtures/meta` from the crate directory: the walk hands
    // back paths already carrying the root prefix, and the checker must
    // not join the root onto them a second time.
    let relative = Path::new("fixtures/meta");
    assert!(relative.join("lint.toml").is_file(), "run from crate dir");
    let f = check_workspace(relative).expect("relative root workspace");
    let got: Vec<(&str, usize)> = f.iter().map(|f| (f.path.as_str(), f.line)).collect();
    assert_eq!(
        got,
        vec![
            ("crates/sim/src/stale.rs", 2),
            ("crates/sim/src/stale.rs", 4),
            ("lint.toml", 8),
        ],
        "{f:#?}"
    );
}

#[test]
fn meta002_not_audited_in_per_file_mode() {
    // With only explicit paths in view, staleness is not decidable:
    // stale.rs alone raises nothing.
    let root = fixture_root().join("meta");
    let config = load_config(&root).expect("meta lint.toml parses");
    let f = check_files(&root, &config, &[PathBuf::from("crates/sim/src/stale.rs")])
        .expect("fixture readable");
    assert!(f.is_empty(), "{f:#?}");
}

/// Every violating fixture must drive the CLI to a nonzero exit, and
/// every clean fixture to zero — the contract CI relies on.
#[test]
fn cli_exit_codes_match_fixture_intent() {
    let violating = [
        "crates/sim/src/det001_bad.rs",
        "crates/sim/src/det002_bad.rs",
        "crates/trace/src/det001_bad.rs",
        "crates/trace/src/det002_bad.rs",
        "crates/sim/src/det003_bad.rs",
        "crates/core/src/sec001_bad.rs",
        "crates/sim/src/sec002_bad.rs",
        "crates/sim/src/allow_line.rs",
        "crates/sim/src/allow_file.rs",
        "crates/core/src/persist001_bad.rs",
        "crates/core/src/controller/regions.rs",
        "crates/sim/src/crypto001_bad.rs",
        "crates/sim/src/layer002_bad.rs",
        "crates/layers/bad-dep/Cargo.toml",
        "crates/layers/unlisted/Cargo.toml",
        "crates/layers/no-forbid/Cargo.toml",
    ];
    let clean = [
        "crates/sim/src/det001_clean.rs",
        "crates/trace/src/det_clean.rs",
        "crates/core/src/sec001_clean.rs",
        "crates/sim/src/allowed_by_config.rs",
        "crates/core/src/persist.rs",
        "crates/core/src/persist001_clean.rs",
        "crates/core/src/sec003_api.rs",
        "crates/crypto/src/sec003_clean.rs",
        "crates/sim/src/crypto001_clean.rs",
        "crates/core/src/crypto001_core_clean.rs",
        "crates/sim/src/layer002_clean.rs",
        "crates/core/src/layer002_core_clean.rs",
        "crates/layers/good/Cargo.toml",
        "crates/layers/deny-ok/Cargo.toml",
    ];
    for path in violating {
        let status = run_cli(&[path]);
        assert!(!status.success(), "{path} should fail the CLI");
    }
    for path in clean {
        let status = run_cli(&[path]);
        assert!(status.success(), "{path} should pass the CLI");
    }
    // Call-graph rules act on the whole analyzed set: the panic helper
    // only turns red once the controller API that reaches it is in view,
    // and the choke-file write only stays green alongside persist.rs.
    let api_plus_panic = run_cli(&[
        "crates/core/src/sec003_api.rs",
        "crates/crypto/src/sec003_bad.rs",
    ]);
    assert!(!api_plus_panic.success(), "reachable panic should fail");
    let choke_pair = run_cli(&[
        "crates/core/src/persist.rs",
        "crates/core/src/controller/regions.rs",
    ]);
    assert!(
        choke_pair.success(),
        "choke-file write with persist_line in view should pass"
    );
}

/// `--json` output is byte-stable with a fixed key order, so diffing
/// two CI runs never shows formatting churn.
#[test]
fn cli_json_output_is_byte_exact() {
    let out = Command::new(env!("CARGO_BIN_EXE_ss-lint"))
        .arg("--json")
        .arg("--root")
        .arg(fixture_root())
        .arg("crates/sim/src/allow_file.rs")
        .output()
        .expect("ss-lint binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        stdout,
        "[\n  {\"path\":\"crates/sim/src/allow_file.rs\",\"line\":10,\
         \"rule\":\"DET-002\",\"message\":\"Instant::now injects \
         wall-clock/OS state into a deterministic path\"}\n]\n"
    );
}

/// `--rule` keeps only the named rule's findings, and the filtered
/// `--json` output is byte-stable: the SEC-001 noise in the second file
/// is dropped, leaving exactly the two PERSIST-001 objects.
#[test]
fn cli_rule_filter_json_is_byte_exact() {
    let out = Command::new(env!("CARGO_BIN_EXE_ss-lint"))
        .arg("--json")
        .arg("--rule")
        .arg("PERSIST-001")
        .arg("--root")
        .arg(fixture_root())
        .arg("crates/core/src/persist001_bad.rs")
        .arg("crates/core/src/sec001_bad.rs")
        .output()
        .expect("ss-lint binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let message = "migrate() writes the device directly; route durable writes \
                   through the persist_line choke point so each takes a persist \
                   step and its ordering-journal entry";
    assert_eq!(
        stdout,
        format!(
            "[\n  {{\"path\":\"crates/core/src/persist001_bad.rs\",\"line\":8,\
             \"rule\":\"PERSIST-001\",\"message\":\"{message}\"}},\n  \
             {{\"path\":\"crates/core/src/persist001_bad.rs\",\"line\":9,\
             \"rule\":\"PERSIST-001\",\"message\":\"{message}\"}}\n]\n"
        )
    );
    assert!(
        !out.status.success(),
        "filtered findings still fail the run"
    );
}

/// A typo'd flag must exit red with a message naming it — not fall
/// into the path list, get skipped as a non-`.rs` file, and report the
/// workspace clean.
#[test]
fn cli_rejects_unknown_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_ss-lint"))
        .arg("--bogus-flag")
        .output()
        .expect("ss-lint binary runs");
    assert!(!out.status.success(), "unknown flag must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown flag --bogus-flag"), "{stderr}");
}

fn run_cli(paths: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_ss-lint"))
        .arg("--root")
        .arg(fixture_root())
        .args(paths)
        .status()
        .expect("ss-lint binary runs")
}
