//! `adhoc`: one client, closed loop, SQL through the sealed facade with
//! the automatic optimizer — the paper's user running the paper's queries.

use crate::common::{
    mean, median, rate, rss_mb, set_host, set_token, settled, Fnv, Outcome, SetupClock, Tracer,
};
use crate::queries::{self, Oracle, Shape};
use crate::reads::ReadCounters;
use crate::Args;
use ghostdb_core::{GhostDb, QueryOptions};
use std::collections::HashMap;
use std::time::Instant;

/// Database builds timed per run (see `common::SetupClock`).
pub const SETUPS: usize = 16;

/// Measured queries per second of `--seconds`: a fixed count, so a run
/// never stops on a time budget.
const QUERIES_PER_SECOND: u64 = 150;

/// Queries run after the first garbage-collection erase before the window
/// opens, so the window measures the steady state.
const WARM_AFTER_GC: usize = 64;

/// Upper bound on the warm-up, to fail fast if GC never starts.
const WARM_MAX: usize = 20_000;

/// The host-clock tail percentile, over queries settled per distinct query
/// (see `common::settled`): the 3 072 queries of a 20 s window leave 61
/// beyond it.
pub const TAIL_Q: f64 = 0.98;

/// Window length: whole shuffles of the shape set, so every distinct
/// query repeats equally often (12 times in a 20 s window).
pub fn window_len(seconds: u64, shapes: usize) -> usize {
    let n = shapes as u64;
    (seconds * QUERIES_PER_SECOND).div_ceil(n).max(1) as usize * n as usize
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let ds = queries::dataset();
    let shapes: Vec<Shape> = queries::shapes(&ds, args.seed);

    // Set-up: the x0.01 database build, several times; the last one serves.
    let (mut clock, mut assemble) = (SetupClock::default(), Vec::new());
    let mut db = None;
    for i in 0..SETUPS {
        drop(db.take());
        let built = clock.time(|| {
            let (built, ms) = tr.span("exec.assemble", i as u64, |_| ds.build());
            assemble.push(ms / 1e3);
            built.map(GhostDb::from_database)
        });
        match built {
            Ok(b) => db = Some(b),
            Err(e) => {
                out.errors.push(format!("database build failed: {e}"));
                return out;
            }
        }
    }
    let mut facade = db.expect("SETUPS > 0");
    let page_size = facade
        .database()
        .expect("assembled")
        .token
        .flash
        .page_size();
    let sealed = match facade.finalize() {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("finalize failed: {e}"));
            return out;
        }
    };
    let oracle = Oracle::spawn(args.seed);
    let sqls: Vec<String> = shapes.iter().map(|s| queries::spj(&ds, s).text).collect();
    let opts = QueryOptions::new();

    let window = window_len(args.seconds, shapes.len());
    let all: Vec<usize> = (0..shapes.len()).collect();
    let seq = queries::sequence(args.seed, &all, WARM_MAX + window);
    let mut first: HashMap<usize, (u64, u64)> = HashMap::new();
    let mut pos = 0usize;
    let mut sequence = Fnv::default();
    let mut exec_one = |tr: &mut Tracer, op: u64, traced: bool, out: &mut Outcome| {
        let shape = seq[pos];
        pos += 1;
        let sql = &sqls[shape];
        sequence.bytes(sql.as_bytes());
        out.sequence_digest = sequence.0;
        let mut plan_ms = None;
        let mut query_ms = 0.0;
        let (res, op_ms) = if traced {
            tr.span("op", op, |tr| {
                let (plan, pms) = tr.span("core.explain", op, |_| sealed.explain(sql));
                plan_ms = plan.ok().map(|_| pms);
                let (r, qms) = tr.span("core.query_with", op, |_| sealed.query_with(sql, &opts));
                query_ms = qms;
                r
            })
        } else {
            let t = Instant::now();
            let r = sealed.query_with(sql, &opts);
            query_ms = t.elapsed().as_secs_f64() * 1e3;
            (r, query_ms)
        };
        out.attempted += 1;
        let (rs, report) = match res {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("query {shape} failed: {e}"));
                return None;
            }
        };
        let trace = sealed.host_trace().unwrap_or_default();
        let d = queries::digest(&rs.rows);
        let expect = *first.entry(shape).or_insert(d);
        if d != expect {
            out.failed += 1;
            out.errors.push(format!(
                "query {shape}: repeat differs from its first result"
            ));
        }
        Some((shape, query_ms, op_ms, plan_ms, report, trace))
    };

    // Warm-up: until the flash has erased its first block, then a little
    // more, so GC onset and the RSS climb to its plateau sit outside the
    // window. Deterministic: erasures are a pure function of the sequence.
    let mut warm = 0usize;
    let mut erased_at = None;
    while warm < WARM_MAX {
        let Some((_, _, _, _, report, _)) = exec_one(&mut tr, u64::MAX, false, &mut out) else {
            return out;
        };
        warm += 1;
        if erased_at.is_none() && report.io.blocks_erased > 0 {
            erased_at = Some(warm);
        }
        if erased_at.is_some_and(|at| warm >= at + WARM_AFTER_GC) {
            break;
        }
    }
    if erased_at.is_none() {
        out.errors.push(format!(
            "no flash block erased in {WARM_MAX} warm-up queries"
        ));
        return out;
    }
    // The oracle must be done before the window so it never competes for
    // a core with the queries being timed.
    let expected =
        match oracle.and_then(|o| o.expected(shapes.len()).map_err(std::io::Error::other)) {
            Ok(e) => e,
            Err(e) => {
                out.errors.push(format!("oracle: {e}"));
                return out;
            }
        };
    let rss_warm = rss_mb();

    // The measured window. When tracing, every other op runs with spans on
    // (the odd ones), and the untraced even ones give the overhead.
    let mut lat = Vec::with_capacity(window);
    let (mut lat_traced, mut lat_plain) = (Vec::new(), Vec::new());
    let mut plan = Vec::new();
    let mut counters = ReadCounters::default();
    let mut ran: Vec<usize> = Vec::with_capacity(window);
    for i in 0..window {
        let traced = tr.on() && i % 2 == 1;
        let Some((shape, ms, op_ms, plan_ms, report, trace)) =
            exec_one(&mut tr, i as u64, traced, &mut out)
        else {
            continue;
        };
        ran.push(shape);
        lat.push(ms);
        if traced {
            lat_traced.push(op_ms);
        } else {
            lat_plain.push(op_ms);
        }
        plan.extend(plan_ms);
        counters.add(&report, &trace);
    }
    let rss_end = rss_mb();
    for (shape, got) in &first {
        if expected[*shape] != *got {
            out.failed += ran.iter().filter(|s| *s == shape).count() as u64;
            out.errors.push(format!(
                "query {shape} ({}): {} rows, oracle has {}",
                sqls[*shape], got.0, expected[*shape].0
            ));
        }
    }
    if counters.io.blocks_erased == 0 {
        out.errors
            .push("steady-state guard: no flash block erased inside the adhoc window".into());
    }

    let e = &mut out.e2e;
    set_token(e, &counters.token_ms, 0.01);
    e.set(
        "flash_kb_written_per_op",
        counters.flash_kb_written_per_op(page_size),
        "KB",
    );
    e.set("peak_rss_mb", rss_warm.max(rss_end), "MB");
    clock.report(e, &mut out.layer);

    let l = &mut out.layer;
    let busy = settled(&ran, &lat);
    set_host(l, rate(&busy), &busy, TAIL_Q);
    counters.fill_layers(l);
    l.set("core.plan_ms", median(&plan), "ms");
    l.set("bench.warmup_ops", warm as f64, "count");
    l.set("bench.rss_warm_mb", rss_warm, "MB");
    if tr.on() {
        let plain = mean(&lat_plain);
        l.set(
            "bench.trace_overhead_pct",
            100.0 * (mean(&lat_traced) / plain.max(1e-9) - 1.0),
            "%",
        );
        l.set("exec.assemble_s", median(&assemble), "s");
        crate::finish_trace(&tr, args, l);
    }
    out
}
