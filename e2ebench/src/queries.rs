//! The synthetic dataset, the fixed set of query-Q shapes both read
//! workloads draw from, and the reference oracle that checks them.

use crate::common::{Fnv, Rng};
use ghostdb_bench::{SH, SV_SWEEP};
use ghostdb_datagen::{pad8, SyntheticDataset, SyntheticSpec};
use ghostdb_exec::SpjQuery;
use ghostdb_reference::RefQuery;
use ghostdb_storage::SchemaTree;
use ghostdb_storage::{CmpOp, Predicate, Value};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Dataset scale: x0.01 of the paper, so T0 holds 100 000 rows.
pub const SCALE: f64 = 0.01;

/// Hidden selectivities of the high-cardinality (`T1.h1`) shape.
pub const SH_HICARD: [f64; 2] = [0.01, 0.05];

/// Instances of each shape. Instance `j` selects its own seeded window of
/// `T1.v1` and the `j`-th seeded window of its hidden attribute, which it
/// shares with the same family's instance `j` at every sweep point (so
/// queries in one serving burst can share a climbing-index traversal). A
/// run's cost then averages over several draws of the data.
pub const INSTANCES: usize = 8;

/// One distinct query of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Visible selectivity on `T1.v1`, from the paper's sweep.
    pub sv: f64,
    /// First `T1.v1` value of the visible window (values are a
    /// permutation of `0..|T1|`, so the window selects exactly `sv·|T1|`).
    pub lo: u64,
    /// `None`: hidden selection on `T12.h2` at the paper's sh = 0.1.
    /// `Some(sh)`: hidden selection on `T1.h1` at `sh`.
    pub hicard: Option<f64>,
    /// First value of the hidden window (a permutation too, so the window
    /// selects exactly `sh` of its table).
    pub hlo: u64,
    /// Also project a hidden attribute of T1.
    pub hidden_proj: bool,
}

/// Every distinct query of the mix, in a fixed order: query Q at each
/// sweep point with and without its hidden projection, and the
/// high-cardinality variant at each sweep point and hidden selectivity,
/// [`INSTANCES`] windows of each.
pub fn shapes(ds: &SyntheticDataset, seed: u64) -> Vec<Shape> {
    let n = ds.rows("T1");
    let mut rng = Rng::new(seed ^ 0x5a9e5);
    let mut hidden = |hicard: Option<f64>| -> Vec<u64> {
        let (table, sh) = hidden_side(hicard);
        let rows = ds.rows(table);
        let k = width(sh, rows);
        (0..INSTANCES).map(|_| rng.below(rows - k + 1)).collect()
    };
    let families: Vec<(Option<f64>, Vec<u64>)> = [None, Some(SH_HICARD[0]), Some(SH_HICARD[1])]
        .into_iter()
        .map(|h| (h, hidden(h)))
        .collect();
    let hlo = |h: Option<f64>, j: usize| families.iter().find(|f| f.0 == h).expect("family").1[j];
    let mut out = Vec::new();
    for sv in SV_SWEEP {
        let k = width(sv, n);
        let mut variants = Vec::new();
        for hidden_proj in [false, true] {
            variants.push((None, hidden_proj));
        }
        for sh in SH_HICARD {
            variants.push((Some(sh), false));
        }
        for (hicard, hidden_proj) in variants {
            for j in 0..INSTANCES {
                out.push(Shape {
                    sv,
                    lo: rng.below(n - k + 1),
                    hicard,
                    hlo: hlo(hicard, j),
                    hidden_proj,
                });
            }
        }
    }
    out
}

/// The hidden side of a family: (table, selectivity) of its hidden window.
fn hidden_side(hicard: Option<f64>) -> (&'static str, f64) {
    match hicard {
        None => ("T12", SH),
        Some(sh) => ("T1", sh),
    }
}

/// Rows a window of selectivity `s` spans in a table of `rows`.
fn width(s: f64, rows: u64) -> u64 {
    ((s * rows as f64).round() as u64).clamp(1, rows)
}

/// `column BETWEEN lo AND lo + k - 1` over zero-padded ordinals.
fn window(column: &str, lo: u64, k: u64) -> Predicate {
    Predicate::new(column, CmpOp::Between, pad8(lo), Some(pad8(lo + k - 1)))
}

/// A seeded op sequence over `pool` (indices into [`shapes`]): successive
/// shuffles of the whole pool, so every stretch of `pool.len()` ops holds
/// each shape once and the mix's cost does not depend on the draw.
pub fn sequence(seed: u64, pool: &[usize], len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xad40c);
    let mut out = Vec::with_capacity(len + pool.len());
    while out.len() < len {
        let mut block = pool.to_vec();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(len);
    out
}

/// The paper's synthetic dataset at [`SCALE`], fixed like the paper's:
/// the benchmark seed draws the queries, not the data, so a run's token
/// cost differs from another seed's only by the query windows drawn.
pub fn dataset() -> SyntheticDataset {
    SyntheticDataset::generate(SyntheticSpec::paper(SCALE))
}

/// The same query as SQL text, for the facade.
fn sql(schema: &SchemaTree, q: &SpjQuery) -> String {
    let name = |t| schema.def(t).name.clone();
    let proj: Vec<String> = q
        .projections
        .iter()
        .map(|(t, c)| format!("{}.{c}", name(*t)))
        .collect();
    let mut tables: Vec<String> = q.tables.iter().map(|t| name(*t)).collect();
    tables.sort();
    let mut conds = Vec::new();
    if tables.iter().any(|t| t == "T1") {
        conds.push("T0.fk1 = T1.id".to_string());
    }
    if tables.iter().any(|t| t == "T12") {
        conds.push("T1.fk12 = T12.id".to_string());
    }
    for (t, p) in &q.predicates {
        let text = |v: &Value| match v {
            Value::Str(s) => s.clone(),
            other => panic!("synthetic values are strings, got {other:?}"),
        };
        let lhs = format!("{}.{}", name(*t), p.column);
        conds.push(match (p.op, &p.value2) {
            (CmpOp::Between, Some(hi)) => {
                format!("{lhs} BETWEEN '{}' AND '{}'", text(&p.value), text(hi))
            }
            (op, _) => panic!("query shapes use only BETWEEN, got {op:?}"),
        });
    }
    format!(
        "SELECT {} FROM {} WHERE {}",
        proj.join(", "),
        tables.join(", "),
        conds.join(" AND ")
    )
}

/// Fingerprint of a result: row count and a hash over every value.
pub fn digest(rows: &[Vec<Value>]) -> (u64, u64) {
    let mut h = Fnv::default();
    for row in rows {
        h.u64(row.len() as u64);
        for v in row {
            match v {
                Value::Int(i) => {
                    h.bytes(b"i");
                    h.u64(*i as u64);
                }
                Value::Float(f) => {
                    h.bytes(b"f");
                    h.u64(f.to_bits());
                }
                Value::Str(s) => {
                    h.bytes(b"s");
                    h.u64(s.len() as u64);
                    h.bytes(s.as_bytes());
                }
            }
        }
    }
    (rows.len() as u64, h.0)
}

/// Expected `(rows, digest)` of every shape, computed by the reference
/// oracle in a child process: the oracle holds every value of the dataset
/// in memory, and keeping it out of this process keeps `peak_rss_mb` the
/// program's own. Runs concurrently with the caller's warm-up.
pub struct Oracle(Child);

impl Oracle {
    pub fn spawn(seed: u64) -> std::io::Result<Oracle> {
        let exe = std::env::current_exe()?;
        let child = Command::new(exe)
            .args(["--oracle", "--seed", &seed.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        Ok(Oracle(child))
    }

    /// Wait for the child and return one `(rows, digest)` per shape.
    pub fn expected(mut self, shapes: usize) -> Result<Vec<(u64, u64)>, String> {
        let stdout = self.0.stdout.take().ok_or("oracle has no stdout")?;
        let mut out = Vec::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            let mut it = line.split_whitespace().map(str::parse::<u64>);
            match (it.next(), it.next()) {
                (Some(Ok(rows)), Some(Ok(d))) => out.push((rows, d)),
                _ => return Err(format!("bad oracle line: {line}")),
            }
        }
        let status = self.0.wait().map_err(|e| e.to_string())?;
        if !status.success() || out.len() != shapes {
            return Err(format!("oracle failed ({status}, {} lines)", out.len()));
        }
        Ok(out)
    }
}

impl Drop for Oracle {
    /// A run that ends early must not leave the oracle running.
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The child side of [`Oracle`]: print `rows digest` for every shape.
pub fn oracle_main(seed: u64) -> Result<(), String> {
    let ds = dataset();
    let refdb = ds.ref_db();
    for s in shapes(&ds, seed) {
        let q = spj(&ds, &s);
        let rows = refdb
            .run(&RefQuery {
                predicates: q.predicates.clone(),
                projections: q.projections.clone(),
            })
            .map_err(|e| e.to_string())?;
        let (n, d) = digest(&rows);
        println!("{n} {d}");
    }
    Ok(())
}

/// The executor-level query of a shape: the paper's query Q (§6.4) or
/// its high-cardinality variant (the shapes of `ghostdb_bench::query_q`
/// and `query_q_hicard`), with the shape's windows as its selections and
/// the SQL spelling as its text, so both read workloads ship the same
/// bytes.
pub fn spj(ds: &SyntheticDataset, s: &Shape) -> SpjQuery {
    let schema = &ds.schema;
    let t0 = schema.root();
    let t1 = schema.table_id("T1").expect("T1");
    let t12 = schema.table_id("T12").expect("T12");
    let (htable, sh) = hidden_side(s.hicard);
    let hk = width(sh, ds.rows(htable));
    let mut q = SpjQuery::new().pred(t1, window("v1", s.lo, width(s.sv, ds.rows("T1"))));
    match s.hicard {
        None => {
            q = q
                .pred(t12, window("h2", s.hlo, hk))
                .project(t0, "id")
                .project(t1, "id")
                .project(t12, "id")
                .project(t1, "v1");
            if s.hidden_proj {
                q = q.project(t1, "h1");
            }
        }
        Some(_) => {
            q = q
                .pred(t1, window("h1", s.hlo, hk))
                .project(t0, "id")
                .project(t1, "id");
            if s.hidden_proj {
                q = q.project(t1, "h2");
            }
        }
    }
    q.text = sql(schema, &q);
    q
}
