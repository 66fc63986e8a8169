//! `update`: one client, closed loop, writes beside reads. A parent/child
//! schema is bulk-ingested through the facade; then a seeded stream of
//! climbing-index inserts, deletes and lookups and in-place SKT row
//! rewrites runs on the facade's own device and allocator.

use crate::common::{
    mean, median, rate, rss_mb, set_host, set_token, settled, Fnv, Outcome, Rng, SetupClock, Tracer,
};
use crate::reads::fill_flash;
use crate::Args;
use ghostdb_core::{GhostDb, GhostDbConfig};
use ghostdb_exec::Database;
use ghostdb_flash::FlashStats;
use ghostdb_index::{MaintainedIndex, MaintainedSkt, MaintenanceStrategy};
use ghostdb_storage::{Id, Value};
use ghostdb_token::TokenConfig;
use std::collections::{BTreeMap, BTreeSet};

/// Times the window runs per run, each from a fresh ingest: the same
/// ops on the same state, so each op's best repetition measures its work.
const REPEATS: usize = 5;

/// Set-ups timed for `setup_s` (see `common::SetupClock`), after every
/// repetition has sampled RSS: the calibration job leaves about 4 MB with
/// the allocator, which would otherwise count in this workload's
/// `peak_rss_mb`. A set-up takes about 30 ms.
const SETUPS: usize = 16;

pub const CHILD_ROWS: u64 = 5_000;
pub const PARENT_ROWS: u64 = 25_000;

/// Distinct values of the indexed hidden column `Child.score`.
const KEYS: u64 = 500;

/// Index updates buffered before the tombstone merge rebuilds the base.
const MERGE_THRESHOLD: usize = 12;

/// Token flash, sized so ingest and the maintained structures fill most
/// of it and the stream reaches garbage collection quickly.
const FLASH_BYTES: u64 = 3 * 1024 * 1024;

/// Measured ops per second of `--seconds` (a fixed count, never a time
/// budget).
const OPS_PER_SECOND: u64 = 8_000;

/// Ops run after the first GC page copy before the window opens.
const WARM_AFTER_GC: usize = 2_000;
const WARM_MAX: usize = 400_000;

/// Ops per group for the token-clock percentiles.
const TOKEN_GROUP: usize = 32;

/// Width of a range probe, in keys.
const RANGE: u64 = 4;

/// One operation of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert {
        level: usize,
        key: u64,
    },
    /// Delete the live row at position `pick` (mod the live count).
    Delete {
        level: usize,
        pick: u64,
    },
    LookupEq {
        level: usize,
        key: u64,
    },
    LookupRange {
        level: usize,
        lo: u64,
    },
    SetRow {
        row: u64,
        child: Id,
    },
}

impl Op {
    /// Fold the op's kind and fields into `h`.
    fn fingerprint(&self, h: &mut Fnv) {
        let (kind, a, b) = match *self {
            Op::Insert { level, key } => (0, level as u64, key),
            Op::Delete { level, pick } => (1, level as u64, pick),
            Op::LookupEq { level, key } => (2, level as u64, key),
            Op::LookupRange { level, lo } => (3, level as u64, lo),
            Op::SetRow { row, child } => (4, row, child as u64),
        };
        h.u64(kind);
        h.u64(a);
        h.u64(b);
    }

    fn span(&self) -> &'static str {
        match self {
            Op::Insert { .. } => "index.insert",
            Op::Delete { .. } => "index.delete",
            Op::LookupEq { .. } => "index.lookup_eq",
            Op::LookupRange { .. } => "index.lookup_range",
            Op::SetRow { .. } => "index.skt_set_row",
        }
    }
}

/// The seeded stream: half writes (index inserts and deletes, SKT row
/// rewrites), half reads (equality and range probes).
pub fn stream(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x0bd47e);
    (0..len)
        .map(|_| {
            let r = rng.next_u64();
            let level = (r >> 8) as usize % 2;
            let v = r >> 16;
            match r % 20 {
                0..=3 => Op::Insert {
                    level,
                    key: v % KEYS,
                },
                4..=7 => Op::Delete { level, pick: v },
                8..=9 => Op::SetRow {
                    row: v % PARENT_ROWS,
                    child: ((v >> 20) % CHILD_ROWS) as Id,
                },
                10..=14 => Op::LookupEq {
                    level,
                    key: v % KEYS,
                },
                _ => Op::LookupRange {
                    level,
                    lo: v % (KEYS - RANGE),
                },
            }
        })
        .collect()
}

/// The ingested rows, as (child scores, parent links): children carry a
/// visible tag and the hidden score; parents a visible region, a hidden
/// amount and the hidden link.
fn inputs(seed: u64) -> (Vec<u64>, Vec<u64>) {
    let mut rng = Rng::new(seed ^ 0x1a9e57);
    let scores = (0..CHILD_ROWS).map(|_| rng.below(KEYS)).collect();
    let links = (0..PARENT_ROWS).map(|_| rng.below(CHILD_ROWS)).collect();
    (scores, links)
}

/// Ingest through the facade: DDL, staged rows, the burn.
fn ingest(scores: &[u64], links: &[u64]) -> Result<GhostDb, String> {
    let mut db = GhostDb::new(GhostDbConfig {
        token: TokenConfig::paper_platform(FLASH_BYTES),
        ..GhostDbConfig::default()
    });
    let children = scores
        .iter()
        .enumerate()
        .map(|(i, s)| vec![Value::Str(format!("C{:03}", i % 64)), Value::Int(*s as i64)])
        .collect();
    let parents = links
        .iter()
        .enumerate()
        .map(|(i, c)| {
            vec![
                Value::Str(format!("R{:02}", i % 32)),
                Value::Int((i as i64 * 7919) % 1_000_000),
                Value::Int(*c as i64),
            ]
        })
        .collect();
    let err = |e: ghostdb_core::CoreError| e.to_string();
    db.execute("CREATE TABLE Child (id INT, tag CHAR(8), score INT HIDDEN)")
        .map_err(err)?;
    db.execute(
        "CREATE TABLE Parent (id INT, region CHAR(8), amount INT HIDDEN, \
         child INT HIDDEN REFERENCES Child)",
    )
    .map_err(err)?;
    db.insert_rows("Child", children).map_err(err)?;
    db.insert_rows("Parent", parents).map_err(err)?;
    db.finalize().map_err(err)?;
    Ok(db)
}

/// Build the maintained climbing index on `Child.score` (levels Child,
/// then Parent) and wrap Parent's SKT, on the facade's own device.
fn maintained(
    db: &mut Database,
    scores: &[u64],
    links: &[u64],
) -> Result<(MaintainedIndex, MaintainedSkt), String> {
    let child = db.schema.table_id("Child").map_err(|e| e.to_string())?;
    let parent = db.schema.table_id("Parent").map_err(|e| e.to_string())?;
    let initial = vec![
        scores.to_vec(),
        links.iter().map(|c| scores[*c as usize]).collect(),
    ];
    let mi = MaintainedIndex::build(
        &mut db.token.flash,
        &mut db.alloc,
        child,
        "score",
        vec![child, parent],
        true,
        &initial,
        MaintenanceStrategy::TombstoneMerge,
        MERGE_THRESHOLD,
    )
    .map_err(|e| e.to_string())?;
    let skt = db.skts[parent].clone().ok_or("Parent has no SKT")?;
    Ok((mi, MaintainedSkt::new(skt, 64)))
}

/// The benchmark's own view of the index: per level, key → live ids, kept
/// in step with every write and compared with `MaintainedIndex::state()`.
#[derive(Debug, PartialEq)]
struct Mirror {
    by_key: Vec<BTreeMap<u64, BTreeSet<Id>>>,
    /// Live (id, key) pairs per level, for picking delete victims.
    live: Vec<Vec<(Id, u64)>>,
}

impl Mirror {
    fn from_state(mi: &MaintainedIndex) -> Mirror {
        let levels = mi.state().len();
        let mut m = Mirror {
            by_key: vec![BTreeMap::new(); levels],
            live: vec![Vec::new(); levels],
        };
        for (l, st) in mi.state().iter().enumerate() {
            for (id, key) in st {
                m.by_key[l].entry(*key).or_default().insert(*id);
                m.live[l].push((*id, *key));
            }
        }
        m
    }

    fn lookup(&self, level: usize, lo: u64, hi: u64) -> Vec<Id> {
        let mut v: Vec<Id> = self.by_key[level]
            .range(lo..=hi)
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        v.sort_unstable();
        v
    }

    fn same_keys_as(&self, mi: &MaintainedIndex) -> bool {
        self.by_key == Mirror::from_state(mi).by_key
    }
}

/// Everything the stream mutates.
struct Stream<'a> {
    db: &'a mut Database,
    mi: MaintainedIndex,
    skt: MaintainedSkt,
    mirror: Mirror,
}

impl Stream<'_> {
    /// Run one op inside a span named after its call; returns its wall
    /// time and whether it triggered an index merge. Every lookup is
    /// checked against the mirror, outside the timed call.
    fn apply(&mut self, op: Op, i: u64, tr: &mut Tracer) -> Result<(f64, bool), String> {
        let before = self.mi.pending_ops();
        let victim = match op {
            Op::Delete { level, pick } => {
                let live = &self.mirror.live[level];
                if live.is_empty() {
                    return Err(format!("op {i}: level {level} has no live row to delete"));
                }
                Some((pick % live.len() as u64) as usize)
            }
            _ => None,
        };
        let (mi, skt, db) = (&mut self.mi, &mut self.skt, &mut *self.db);
        let live = &self.mirror.live;
        let (res, ms) = tr.span(op.span(), i, |_| {
            let (dev, alloc, ram) = (&mut db.token.flash, &mut db.alloc, &db.token.ram);
            match op {
                Op::Insert { level, key } => mi.insert(dev, alloc, level, key).map(|id| vec![id]),
                Op::Delete { level, .. } => {
                    let (id, _) = live[level][victim.expect("picked")];
                    mi.delete(dev, alloc, level, id)
                        .map(|hit| if hit { vec![id] } else { vec![] })
                }
                Op::LookupEq { level, key } => mi.lookup_eq(dev, ram, level, key),
                Op::LookupRange { level, lo } => {
                    mi.lookup_range(dev, ram, level, lo, lo + RANGE - 1)
                }
                Op::SetRow { row, child } => skt.set_row(dev, row, &[child]).map(|_| vec![]),
            }
        });
        let got = res.map_err(|e| format!("op {i} {op:?}: {e}"))?;
        let m = &mut self.mirror;
        match op {
            Op::Insert { level, key } => {
                m.by_key[level].entry(key).or_default().insert(got[0]);
                m.live[level].push((got[0], key));
            }
            Op::Delete { level, .. } => {
                let (id, key) = m.live[level].swap_remove(victim.expect("picked"));
                if got != [id] {
                    return Err(format!("op {i}: delete of live id {id} found nothing"));
                }
                let ids = m.by_key[level].get_mut(&key).expect("mirrored key");
                ids.remove(&id);
                if ids.is_empty() {
                    m.by_key[level].remove(&key);
                }
            }
            Op::LookupEq { level, key } => check(i, &got, &m.lookup(level, key, key))?,
            Op::LookupRange { level, lo } => check(i, &got, &m.lookup(level, lo, lo + RANGE - 1))?,
            Op::SetRow { .. } => {}
        }
        let writes_index = matches!(op, Op::Insert { .. } | Op::Delete { .. });
        Ok((ms, writes_index && self.mi.pending_ops() <= before))
    }

    fn stats(&self) -> FlashStats {
        self.db.token.flash.stats()
    }
}

fn check(i: u64, got: &[Id], want: &[Id]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "op {i}: lookup returned {} ids, the index state holds {}",
            got.len(),
            want.len()
        ))
    }
}

/// What one repetition of the stream measured.
#[derive(Debug, Default)]
struct Rep {
    ingest_s: f64,
    warm: usize,
    /// Wall ms of each window op, in stream order.
    lat: Vec<f64>,
    /// Window ops that triggered an index merge.
    merged: Vec<bool>,
    io: FlashStats,
    /// Flash programmed in the window, GC copies included.
    kb_written: f64,
    /// Simulated device time of each window op, in ms.
    token_ms: Vec<f64>,
    base_kb: f64,
    rss_warm: f64,
    rss_end: f64,
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
}

/// Set up from scratch, warm up, and run the window once.
fn repetition(
    inputs: &(Vec<u64>, Vec<u64>),
    ops: &[Op],
    window: usize,
    tr: &mut Tracer,
    rep: usize,
) -> Result<Rep, String> {
    let (scores, links) = inputs;
    let mut r = Rep::default();
    let (facade, ms) = tr.span("core.ingest", rep as u64, |_| ingest(scores, links));
    r.ingest_s = ms / 1e3;
    let mut facade = facade?;
    let db = facade.database_mut().ok_or("not finalized")?;
    let (mi, skt) = maintained(db, scores, links)?;
    let mirror = Mirror::from_state(&mi);
    let mut st = Stream {
        db,
        mi,
        skt,
        mirror,
    };

    // Warm-up: until GC has relocated its first valid page, then more, so
    // the window measures the device in its steady state. Untraced ops
    // run under a disabled recorder.
    let mut quiet = Tracer::new(false);
    let base = st.stats();
    let mut gc_at = None;
    while r.warm < WARM_MAX && gc_at.is_none_or(|at| r.warm < at + WARM_AFTER_GC) {
        st.apply(ops[r.warm], r.warm as u64, &mut quiet)?;
        r.warm += 1;
        if gc_at.is_none() && st.stats().gc_pages_written > base.gc_pages_written {
            gc_at = Some(r.warm);
        }
    }
    if gc_at.is_none() {
        return Err(format!("no GC page copy in {WARM_MAX} warm-up ops"));
    }
    r.rss_warm = rss_mb();

    // The window. When tracing, the odd ops run inside an extra root span
    // and the even ones give the overhead.
    let snap = st.db.token.flash.snapshot();
    let mut clock = 0.0;
    for (i, op) in ops[r.warm..r.warm + window].iter().enumerate() {
        let id = (rep * window + i) as u64;
        let (ms, merged) = if tr.on() && i % 2 == 1 {
            let (res, total) = tr.span("op", id, |tr| st.apply(*op, id, tr));
            r.traced_ms.push(total);
            res?
        } else {
            let res = st.apply(*op, id, &mut quiet)?;
            r.plain_ms.push(res.0);
            res
        };
        r.lat.push(ms);
        r.merged.push(merged);
        let now = st.db.token.flash.elapsed_since(&snap).as_ms();
        r.token_ms.push(now - clock);
        clock = now;
    }
    r.io = st.db.token.flash.stats_since(&snap);
    let page_kb = st.db.token.flash.page_size() as f64 / 1024.0;
    r.kb_written = r.io.total_pages_written() as f64 * page_kb;
    r.base_kb = st.mi.bytes(st.db.token.flash.page_size()) as f64 / 1024.0;
    r.rss_end = rss_mb();
    if !st.mirror.same_keys_as(&st.mi) {
        return Err("the index state differs from the checked lookups' model".into());
    }
    if r.io.gc_pages_written == 0 {
        return Err("steady-state guard: no GC page copy inside the update window".into());
    }
    Ok(r)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let inputs = inputs(args.seed);
    let window = (args.seconds * OPS_PER_SECOND) as usize / REPEATS;
    let ops = stream(args.seed, WARM_MAX + window);

    let mut reps: Vec<Rep> = Vec::with_capacity(REPEATS);
    for rep in 0..REPEATS {
        match repetition(&inputs, &ops, window, &mut tr, rep) {
            Ok(r) => {
                out.attempted += (r.warm + window) as u64;
                reps.push(r);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.errors.push(e);
                return out;
            }
        }
    }
    // Every repetition replays the same ops on the same state: its counters
    // must agree exactly, or the stream is not deterministic.
    let first = &reps[0];
    let mut sequence = Fnv::default();
    for op in &ops[..first.warm + window] {
        op.fingerprint(&mut sequence);
    }
    out.sequence_digest = sequence.0;
    for r in &reps[1..] {
        if (r.io, r.warm, &r.merged) != (first.io, first.warm, &first.merged) {
            out.errors
                .push("repetitions of the same stream disagree on flash counters".into());
        }
    }
    // Each op's latency settles to the lower quartile over repetitions.
    let class: Vec<usize> = (0..REPEATS).flat_map(|_| 0..window).collect();
    let all: Vec<f64> = reps.iter().flat_map(|r| r.lat.iter().copied()).collect();
    let lat = settled(&class, &all)[..window].to_vec();

    let n = window.max(1) as f64;
    let mut setups = SetupClock::default();
    for _ in 0..SETUPS {
        let built = setups.time(|| {
            ingest(&inputs.0, &inputs.1).and_then(|mut f| {
                let db = f.database_mut().ok_or("not finalized")?;
                maintained(db, &inputs.0, &inputs.1).map(|_| ())
            })
        });
        if let Err(e) = built {
            out.errors.push(format!("set-up failed: {e}"));
            return out;
        }
    }
    let rss = reps
        .iter()
        .map(|r| r.rss_warm.max(r.rss_end))
        .fold(0.0, f64::max);
    let e = &mut out.e2e;
    // One op's device time is a whole number of page operations, so its
    // percentiles sit on a few repeated values; taken over 32-op groups
    // (the mean op of each group) they follow the stream, and every group
    // carries the merges and GC work it paid for.
    let groups: Vec<f64> = first
        .token_ms
        .chunks(TOKEN_GROUP)
        .map(|g| g.iter().sum::<f64>() / g.len() as f64)
        .collect();
    set_token(e, &groups, 0.01);
    e.set("flash_kb_written_per_op", first.kb_written / n, "KB");
    e.set("peak_rss_mb", rss, "MB");
    setups.report(e, &mut out.layer);

    let l = &mut out.layer;
    set_host(l, rate(&lat), &lat, 0.99);
    fill_flash(l, &first.io, window as u64);
    let mut by_kind: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut merges = Vec::new();
    for (i, op) in ops[first.warm..first.warm + window].iter().enumerate() {
        by_kind.entry(op.span()).or_default().push(lat[i]);
        if first.merged[i] {
            merges.push(lat[i]);
        }
    }
    for (name, samples) in &by_kind {
        l.set(&format!("{name}_us"), median(samples) * 1e3, "us");
    }
    l.set("index.merge_ops", merges.len() as f64, "count");
    l.set("index.merge_ms", median(&merges), "ms");
    l.set("index.base_kb", first.base_kb, "KB");
    let ingests: Vec<f64> = reps.iter().map(|r| r.ingest_s).collect();
    l.set("core.ingest_s", median(&ingests), "s");
    l.set("bench.warmup_ops", first.warm as f64, "count");
    l.set("bench.rss_warm_mb", first.rss_warm, "MB");
    if tr.on() {
        let traced: Vec<f64> = reps.iter().flat_map(|r| r.traced_ms.clone()).collect();
        let plain: Vec<f64> = reps.iter().flat_map(|r| r.plain_ms.clone()).collect();
        l.set(
            "bench.trace_overhead_pct",
            100.0 * (mean(&traced) / mean(&plain).max(1e-9) - 1.0),
            "%",
        );
        crate::finish_trace(&tr, args, l);
    }
    out
}
