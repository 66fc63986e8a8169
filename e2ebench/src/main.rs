//! `e2ebench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! e2ebench --workload <adhoc|serve|update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from the seed, runs a fixed number of
//! operations (a function of `--seconds`, never of elapsed time), checks
//! every result, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Every
//! measurement is taken from outside the program: spans around calls to
//! public functions and the counters those functions return. The exit
//! code is nonzero, with no result line, when a result is wrong or a
//! steady-state or engagement guard fails. See `README.md` beside this
//! crate for what each metric means and which layer it belongs to.

mod adhoc;
mod common;
mod queries;
mod reads;
mod serve;
mod update;

use common::{result_line, Outcome, Sheet, Tracer};
use std::path::PathBuf;

/// The end-to-end metrics every workload prints with `--trace 0`, with
/// their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("token_ms_per_op", "ms"),
    ("token_iqm_ms", "ms"),
    ("token_tail_ms", "ms"),
    ("flash_kb_written_per_op", "KB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload prints with `--trace 1`, with
/// their units (0 where the workload bypasses the layer).
pub const PER_LAYER: [(&str, &str); 51] = [
    ("host.qps", "1/s"),
    ("host.p50_ms", "ms"),
    ("host.tail_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("core.ingest_s", "s"),
    ("exec.assemble_s", "s"),
    ("exec.op.vis_ms", "ms"),
    ("exec.op.ci_ms", "ms"),
    ("exec.op.merge_ms", "ms"),
    ("exec.op.sjoin_ms", "ms"),
    ("exec.op.store_ms", "ms"),
    ("exec.op.bloom_ms", "ms"),
    ("exec.op.partition_ms", "ms"),
    ("exec.op.projbloom_ms", "ms"),
    ("exec.op.mjoin_ms", "ms"),
    ("exec.op.finaljoin_ms", "ms"),
    ("exec.op.bruteforce_ms", "ms"),
    ("exec.result_rows_per_op", "count"),
    ("exec.serve.max_qps_at_slo", "1/s"),
    ("exec.serve.batch_size", "count"),
    ("exec.serve.saved_traversals_per_drain", "count"),
    ("exec.serve.parallel_drain_ratio", "ratio"),
    ("exec.serve.drain_p50_ms", "ms"),
    ("exec.serve.drain_p99_ms", "ms"),
    ("exec.serve.queue_wait_p99_ms", "ms"),
    ("exec.serve.rejected", "count"),
    ("exec.serve.generator_late_ms", "ms"),
    ("flash.pages_read_per_op", "count"),
    ("flash.pages_written_per_op", "count"),
    ("flash.gc_pages_written_per_op", "count"),
    ("flash.blocks_erased_per_op", "count"),
    ("flash.write_amp", "ratio"),
    ("index.insert_us", "us"),
    ("index.delete_us", "us"),
    ("index.lookup_eq_us", "us"),
    ("index.lookup_range_us", "us"),
    ("index.skt_set_row_us", "us"),
    ("index.merge_ops", "count"),
    ("index.merge_ms", "ms"),
    ("index.base_kb", "KB"),
    ("token.comm_ms_per_op", "ms"),
    ("token.kb_to_secure_per_op", "KB"),
    ("token.peak_ram_buffers", "count"),
    ("untrusted.trace_events_per_op", "count"),
    ("untrusted.response_kb_per_op", "KB"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_self_ms_per_op", "ms"),
    ("bench.warmup_ops", "count"),
    ("bench.rss_warm_mb", "MB"),
    ("bench.setup_wall_s", "s"),
    ("bench.calibration_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(args)
}

/// Run one workload.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "adhoc" => Ok(adhoc::run(args)),
        "serve" => Ok(serve::run(args)),
        "update" => Ok(update::run(args)),
        other => Err(format!("unknown workload {other:?} (adhoc, serve, update)")),
    }
}

/// Write the traced run's spans beside the benchmark and add the root
/// span's self time — the benchmark's own bookkeeping per op — to `m`.
pub fn finish_trace(tr: &Tracer, args: &Args, m: &mut Sheet) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write(&path) {
        eprintln!("e2ebench: writing {}: {e}", path.display());
    }
    let times = tr.self_times();
    if let Some((calls, _, own)) = times.get("op") {
        m.set(
            "bench.span_self_ms_per_op",
            own / *calls.max(&1) as f64,
            "ms",
        );
    }
    for (name, (calls, total, own)) in &times {
        eprintln!("e2ebench: span {name}: {calls} calls, {total:.3} ms total, {own:.3} ms self");
    }
}

/// The sheet a run prints: exactly the names of its mode with their
/// declared units, 0 for a per-layer metric the workload does not reach.
pub fn printed(outcome: &Outcome, trace: bool) -> Sheet {
    let (names, from): (&[(&str, &'static str)], &Sheet) = if trace {
        (&PER_LAYER, &outcome.layer)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    let mut s = Sheet::default();
    for (name, unit) in names {
        let v = from.0.get(*name).map_or(0.0, |(v, _)| *v);
        s.set(name, v, unit);
    }
    s
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--oracle") {
        let seed = argv.get(2).and_then(|s| s.parse().ok()).unwrap_or(0);
        if let Err(e) = queries::oracle_main(seed) {
            eprintln!("e2ebench oracle: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    for (name, (v, unit)) in outcome.e2e.0.iter().chain(outcome.layer.0.iter()) {
        eprintln!("e2ebench: {name} = {v} {unit}");
    }
    eprintln!("e2ebench: sequence_digest = {}", outcome.sequence_digest);
    if !outcome.errors.is_empty() || outcome.failed > 0 || outcome.attempted == 0 {
        for e in &outcome.errors {
            eprintln!("e2ebench: FAIL: {e}");
        }
        eprintln!(
            "e2ebench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
    println!(
        "{}",
        result_line(
            true,
            outcome.attempted,
            outcome.failed,
            &printed(&outcome, args.trace)
        )
    );
}
