//! Byte-identity and red-exit gates for the three sweep binaries, the
//! two committed bench reports and the quick-scale paper figures.
//!
//! Every sweep campaign is a pure function of its seed set: no
//! wall-clock, no environment, DetRng-only randomness. This test pins
//! that property to bytes. Each sweep runs its one matrix once with
//! `--seeds 8`, writing its text report, `--json` and — for faultsweep —
//! `--metrics-json` in the same run, and all 7 goldens in `ci/` must
//! match exactly; a match against a committed golden also proves two
//! runs agree. The weakened configs must turn their sweeps red with a
//! replay hint, and a replayed campaign seed must stay clean. Likewise
//! `protbench` and `shardbench` must pass their own gates and write
//! `--json` reports byte-identical to the committed
//! `BENCH_protection.json` and `BENCH_sharding.json`, and `repro
//! --quick` must print `ci/repro-quick.golden.txt`. CI runs this test
//! in release mode. Any intentional behaviour change must regenerate
//! the goldens in the same commit (and review the diff):
//!
//! ```text
//! cargo run --release -p ss-bench --bin faultsweep -- --seeds 8 \
//!     --json ci/faultsweep-seeds8.golden.json \
//!     --metrics-json ci/faultsweep-metrics-seeds8.golden.json \
//!     > ci/faultsweep-seeds8.golden.txt
//! cargo run --release -p ss-bench --bin attacksweep -- --seeds 8 \
//!     --json ci/attacksweep-seeds8.golden.json \
//!     > ci/attacksweep-seeds8.golden.txt
//! cargo run --release -p ss-bench --bin crashsweep -- --seeds 8 \
//!     --json ci/crashsweep-seeds8.golden.json \
//!     > ci/crashsweep-seeds8.golden.txt
//! cargo run --release -p ss-bench --bin protbench -- \
//!     --json BENCH_protection.json
//! cargo run --release -p ss-bench --bin shardbench -- \
//!     --json BENCH_sharding.json
//! cargo run --release -p ss-bench --bin repro -- --quick \
//!     > ci/repro-quick.golden.txt
//! ```

use std::path::Path;
use std::process::{Command, Stdio};

struct Sweep {
    name: &'static str,
    exe: &'static str,
    /// Whether the sweep writes `--metrics-json` (with its own goldens).
    metrics: bool,
    /// The `--weakened` config label, whose sweep must exit red.
    weakened: Option<&'static str>,
    /// What a `--seed 0` replay must show.
    replay_shows: &'static [&'static str],
}

const SWEEPS: [Sweep; 3] = [
    Sweep {
        name: "faultsweep",
        exe: env!("CARGO_BIN_EXE_faultsweep"),
        metrics: true,
        weakened: None,
        replay_shows: &["final check: ok"],
    },
    // Full step scripts, including per-shard scans.
    Sweep {
        name: "attacksweep",
        exe: env!("CARGO_BIN_EXE_attacksweep"),
        metrics: false,
        weakened: Some("weak-nomt"),
        replay_shows: &["adversary: cold scan", "config=ctr-bat-mt-x8"],
    },
    // Every crash point, including the torn variants and the sharded
    // drain.
    Sweep {
        name: "crashsweep",
        exe: env!("CARGO_BIN_EXE_crashsweep"),
        metrics: false,
        weakened: Some("weakened-norecovery"),
        replay_shows: &["torn 32", "config=adr-wt-x8", "shred-drain"],
    },
];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The repository root, where the committed bench reports live.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn golden(name: &str) -> String {
    read(&Path::new(ROOT).join("ci").join(name))
}

/// Runs `exe` with `args` to completion: exit success and stdout.
fn run(exe: &str, args: &[&str]) -> (bool, String) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {exe} {args:?}: {e}"));
    let text = String::from_utf8(output.stdout).expect("utf8 report");
    (output.status.success(), text)
}

#[test]
fn sweeps_match_goldens_and_gates_fire() {
    let scratch = std::env::temp_dir().join(format!("sweep-golden-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    // All three golden runs start at once; each is checked as it finishes.
    let mut runs = Vec::new();
    for sweep in &SWEEPS {
        let json = scratch.join(format!("{}-seeds8.json", sweep.name));
        let metrics = scratch.join(format!("{}-metrics-seeds8.json", sweep.name));
        let mut cmd = Command::new(sweep.exe);
        cmd.args(["--seeds", "8", "--json"]).arg(&json);
        if sweep.metrics {
            cmd.arg("--metrics-json").arg(&metrics);
        }
        let child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn();
        let child = child.unwrap_or_else(|e| panic!("spawning {}: {e}", sweep.name));
        runs.push((sweep, json, metrics, child));
    }
    for (sweep, json, metrics, child) in runs {
        let name = sweep.name;
        let output = child.wait_with_output().expect("waiting for sweep");
        assert!(
            output.status.success(),
            "{name} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = String::from_utf8(output.stdout).expect("utf8 report");
        let mut checks = vec![
            (text, format!("{name}-seeds8.golden.txt")),
            (read(&json), format!("{name}-seeds8.golden.json")),
        ];
        if sweep.metrics {
            checks.push((read(&metrics), format!("{name}-metrics-seeds8.golden.json")));
        }
        for (bytes, want) in checks {
            assert_eq!(bytes, golden(&want), "{name} drifted from ci/{want}");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for sweep in &SWEEPS {
        let name = sweep.name;
        let (ok, text) = run(sweep.exe, &["--seed", "0"]);
        assert!(ok, "{name} replay of a clean campaign seed failed:\n{text}");
        for needle in sweep.replay_shows {
            assert!(text.contains(needle), "{name} replay lacks {needle:?}");
        }
        // attacksweep: the no-Merkle config leaks on rollback-replay;
        // crashsweep: with recovery off, torn demand writes go silent.
        if let Some(label) = sweep.weakened {
            let (ok, text) = run(sweep.exe, &["--weakened", "--seeds", "2"]);
            assert!(!ok, "the weakened {name} config must turn the sweep red");
            assert!(text.contains("result: FAILED"), "{name}:\n{text}");
            let replay = format!("replay with: {name} --config {label} --seed 0");
            assert!(text.contains(&replay), "{name} lacks {replay:?}:\n{text}");
        }
    }
}

#[test]
fn bench_reports_match_committed_json() {
    let scratch = std::env::temp_dir().join(format!("bench-golden-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for (exe, committed) in [
        (env!("CARGO_BIN_EXE_protbench"), "BENCH_protection.json"),
        (env!("CARGO_BIN_EXE_shardbench"), "BENCH_sharding.json"),
    ] {
        let json = scratch.join(committed);
        let path = json.to_str().expect("utf8 scratch path");
        let (ok, text) = run(exe, &["--json", path]);
        assert!(ok, "{exe} failed its gate:\n{text}");
        let want = read(&Path::new(ROOT).join(committed));
        assert_eq!(read(&json), want, "{exe} drifted from {committed}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// `repro --quick` prints every quick-scale figure and table (Fig. 4-12,
/// Table 1, Table 2 with the RowClone row, the §4.2 shred strategies,
/// DEUCE, Start-Gap, the write-queue ablation); the output must match
/// the committed golden byte for byte. Regenerate (and review the diff)
/// with:
///
/// ```text
/// cargo run --release -p ss-bench --bin repro -- --quick \
///     > ci/repro-quick.golden.txt
/// ```
#[test]
fn repro_quick_matches_golden() {
    let (ok, text) = run(env!("CARGO_BIN_EXE_repro"), &["--quick"]);
    assert!(ok, "repro --quick failed:\n{text}");
    assert_eq!(
        text,
        golden("repro-quick.golden.txt"),
        "repro --quick drifted from ci/repro-quick.golden.txt"
    );
}
