//! Byte-identity and red-exit gates for the three sweep binaries.
//!
//! Every sweep campaign is a pure function of its seed set: no
//! wall-clock, no environment, DetRng-only randomness. This test pins
//! that property to bytes. Each sweep runs once per matrix (default and
//! `--scattered`) with `--seeds 8`, writing its text report, `--json`
//! and — for faultsweep — `--metrics-json` in the same run, and all 14
//! goldens in `ci/` must match exactly. The weakened configs must turn
//! their sweeps red, and a replayed campaign seed must stay clean. Any
//! intentional behaviour change must regenerate the goldens in the same
//! commit, e.g.:
//!
//! ```text
//! cargo run --release -p ss-bench --bin faultsweep -- --scattered --seeds 8 \
//!     --json ci/faultsweep-scattered-seeds8.golden.json \
//!     --metrics-json ci/faultsweep-metrics-scattered-seeds8.golden.json \
//!     > ci/faultsweep-scattered-seeds8.golden.txt
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

fn golden(name: &str) -> String {
    read(&Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci")).join(name))
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
    // All six golden runs start at once; each is checked as it finishes.
    let mut runs = Vec::new();
    for sweep in &SWEEPS {
        for matrix in ["", "scattered-"] {
            let json = scratch.join(format!("{}-{matrix}seeds8.json", sweep.name));
            let metrics = scratch.join(format!("{}-metrics-{matrix}seeds8.json", sweep.name));
            let mut cmd = Command::new(sweep.exe);
            if !matrix.is_empty() {
                cmd.arg("--scattered");
            }
            cmd.args(["--seeds", "8", "--json"]).arg(&json);
            if sweep.metrics {
                cmd.arg("--metrics-json").arg(&metrics);
            }
            let child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn();
            let child = child.unwrap_or_else(|e| panic!("spawning {}: {e}", sweep.name));
            runs.push((sweep, matrix, json, metrics, child));
        }
    }
    for (sweep, matrix, json, metrics, child) in runs {
        let name = sweep.name;
        let output = child.wait_with_output().expect("waiting for sweep");
        assert!(
            output.status.success(),
            "{name} {matrix}failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = String::from_utf8(output.stdout).expect("utf8 report");
        let mut checks = vec![
            (text, format!("{name}-{matrix}seeds8.golden.txt")),
            (read(&json), format!("{name}-{matrix}seeds8.golden.json")),
        ];
        if sweep.metrics {
            checks.push((
                read(&metrics),
                format!("{name}-metrics-{matrix}seeds8.golden.json"),
            ));
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
