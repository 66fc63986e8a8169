//! The benchmark's own tests: runs of the built binary with the same seed
//! agree bit for bit on every deterministic metric, another seed changes
//! the op sequence, and the metric names are the ones `BENCHMARK.json`
//! declares. Run with `cargo test --release` (debug builds are slow).

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

/// Runs are timed, so the tests take turns: two workloads sharing the
/// cores would push `serve` into overload and fail its guards.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run one workload, require it to succeed, and return the metrics it
/// printed on stderr (every end-to-end and per-layer value, as exact
/// bits) and its last stdout line.
fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> (BTreeMap<String, u64>, String) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut metrics = BTreeMap::new();
    for line in stderr.lines() {
        let Some(rest) = line.strip_prefix("e2ebench: ") else {
            continue;
        };
        let Some((name, value)) = rest.split_once(" = ") else {
            continue;
        };
        let number = value.split_whitespace().next().unwrap_or("");
        if let Ok(v) = number.parse::<u64>() {
            metrics.insert(name.to_string(), v);
        } else if let Ok(v) = number.parse::<f64>() {
            metrics.insert(name.to_string(), v.to_bits());
        }
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stderr}"
    );
    (metrics, last)
}

/// Metrics that are pure functions of the seed: the token clock, flash
/// counters, operator buckets and every other count a call returns.
/// `exec.serve.batch_size` is not one: it counts over every drain, and
/// the host's timing decides whether two bursts share a drain.
fn deterministic(name: &str) -> bool {
    [
        "token_ms_per_op",
        "token_iqm_ms",
        "token_tail_ms",
        "flash_kb_written_per_op",
        "sequence_digest",
    ]
    .contains(&name)
        || name.starts_with("flash.")
        || name.starts_with("exec.op.")
        || name.starts_with("token.")
        || name.starts_with("untrusted.")
        || [
            "exec.result_rows_per_op",
            "exec.serve.saved_traversals_per_drain",
            "index.merge_ops",
            "index.base_kb",
            "bench.warmup_ops",
        ]
        .contains(&name)
}

fn same_seed_agrees(workload: &str, seconds: u64) {
    let (a, line_a) = run(workload, 7, seconds, false);
    let (b, _) = run(workload, 7, seconds, false);
    let (c, _) = run(workload, 8, seconds, false);
    let checked: Vec<&String> = a.keys().filter(|n| deterministic(n)).collect();
    assert!(
        checked.len() >= 5,
        "{workload}: too few deterministic metrics"
    );
    for name in checked {
        assert_eq!(
            a[name],
            b.get(name).copied().unwrap_or(!a[name]),
            "{workload}: {name}"
        );
    }
    assert_ne!(
        a["sequence_digest"], c["sequence_digest"],
        "{workload}: another seed must change the op sequence"
    );
    assert!(
        line_a.starts_with("{\"correct\":true"),
        "{workload}: {line_a}"
    );
}

#[test]
fn adhoc_is_deterministic_per_seed() {
    same_seed_agrees("adhoc", 1);
}

#[test]
fn serve_is_deterministic_per_seed() {
    same_seed_agrees("serve", 1);
}

#[test]
fn update_is_deterministic_per_seed() {
    same_seed_agrees("update", 1);
}

/// The text of the first quoted string after `key` in `text`.
fn quoted_after<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let rest = text.split_once(key)?.1;
    let rest = &rest[rest.find('"')? + 1..];
    Some(&rest[..rest.find('"')?])
}

/// Every `(name, unit)` entry of `BENCHMARK.json`, in order; workloads
/// have no unit.
fn declared() -> Vec<(String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    text.split('{')
        .filter_map(|entry| {
            let name = quoted_after(entry, "\"name\":")?;
            let unit = quoted_after(entry, "\"unit\":");
            Some((name.to_string(), unit.map(str::to_string)))
        })
        .collect()
}

/// The `(name, unit)` pairs of a result line, in order.
fn printed(line: &str) -> Vec<(String, Option<String>)> {
    let body = line.split("\"metrics\":").nth(1).expect("metrics object");
    body.split("},")
        .map(|entry| {
            let entry = entry.trim_start_matches('{');
            let name = &entry[1..entry[1..].find('"').expect("name") + 1];
            let unit = quoted_after(entry, "\"unit\":").map(str::to_string);
            (name.to_string(), unit)
        })
        .collect()
}

#[test]
fn metrics_match_benchmark_json_and_use_allowed_characters() {
    let declared = declared();
    let (metrics, e2e) = run("update", 3, 1, false);
    let (_, layers) = run("update", 3, 1, true);
    let (e2e, layers) = (printed(&e2e), printed(&layers));
    assert!(!e2e.is_empty() && !layers.is_empty());
    let names = declared.iter().map(|d| &d.0).chain(metrics.keys());
    for name in names {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
    }
    let workloads: Vec<&String> = declared
        .iter()
        .filter(|d| d.1.is_none())
        .map(|d| &d.0)
        .collect();
    assert_eq!(workloads, ["adhoc", "serve", "update"]);
    let mut want: Vec<&(String, Option<String>)> =
        declared.iter().filter(|d| d.1.is_some()).collect();
    let mut got: Vec<&(String, Option<String>)> = e2e.iter().chain(&layers).collect();
    want.sort();
    got.sort();
    assert_eq!(got, want, "printed metrics differ from BENCHMARK.json");
}
