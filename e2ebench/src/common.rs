//! Shared plumbing: the seeded generator, percentiles, memory sampling,
//! the metric sheet a run prints, and the in-memory span recorder of the
//! traced run.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: a small, fully specified generator, so an op sequence is a
/// pure function of the seed and of nothing else in the build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Each op's latency replaced by the lower quartile of the latencies of
/// its class — the ops that did the same work (one distinct query, one
/// burst template, or one op of a repeated stream). On a shared host a
/// repeat that ran while a neighbour held the core measures the
/// neighbour; the lower quartile of a class's repeats measures the work.
/// Percentiles and rates are then taken over the settled values, so the
/// mix keeps its weights.
pub fn settled(class: &[usize], lat_ms: &[f64]) -> Vec<f64> {
    let mut by: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (c, l) in class.iter().zip(lat_ms) {
        by.entry(*c).or_default().push(*l);
    }
    let q: BTreeMap<usize, f64> = by
        .into_iter()
        .map(|(c, v)| (c, percentile(&v, 0.25)))
        .collect();
    class.iter().map(|c| q[c]).collect()
}

/// Operations per second of busy time: `n / Σ latency_ms`.
pub fn rate(lat_ms: &[f64]) -> f64 {
    lat_ms.len() as f64 / (lat_ms.iter().sum::<f64>() / 1e3).max(1e-12)
}

/// Interquartile mean: the mean of the samples between the 25th and the
/// 75th percentile.
pub fn iqm(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    mean(&v[n / 4..(3 * n).div_ceil(4).max(n / 4 + 1).min(n)])
}

/// Tail mean: the mean of the slowest `share` of the samples.
pub fn tail_mean(samples: &[f64], share: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    mean(&v[v.len().saturating_sub(k)..])
}

/// The end-to-end metrics of the token clock, from per-op simulated time
/// (the Table-1 cost model): mean, interquartile mean and the mean of the
/// slowest `tail_share`. Robust statistics in place of the median and
/// p99: a read mix is a few dozen query shapes of very different cost
/// whose token times repeat exactly, so a single order statistic sits on
/// one shape's value, or in the gap between two, and jumps from seed to
/// seed.
pub fn set_token(e: &mut Sheet, token_ms: &[f64], tail_share: f64) {
    e.set("token_ms_per_op", mean(token_ms), "ms");
    e.set("token_iqm_ms", iqm(token_ms), "ms");
    e.set("token_tail_ms", tail_mean(token_ms, tail_share), "ms");
}

/// The host wall-clock metrics: the workload's busy rate `qps`, and the
/// median and `tail_q` tail of settled latencies (see [`settled`]).
pub fn set_host(l: &mut Sheet, qps: f64, settled_ms: &[f64], tail_q: f64) {
    l.set("host.qps", qps, "1/s");
    l.set("host.p50_ms", median(settled_ms), "ms");
    l.set("host.tail_ms", percentile(settled_ms, tail_q), "ms");
}

/// The calibration job's time on the reference host, in seconds: about
/// its median on the 2-core host this benchmark was tuned on (14–26 ms).
pub const CALIBRATION_REF_S: f64 = 0.020;

/// A fixed job of the same kind as a set-up: fill 2 KB pages, sort keys,
/// build and probe a hash map. It is part of the benchmark, so no change to
/// the program can change it; its time measures the host's current speed.
pub fn calibration() -> u64 {
    let mut rng = Rng::new(0xca11b);
    let pages: Vec<Vec<u8>> = (0..1_500)
        .map(|_| {
            let mut x = rng.next_u64();
            (0..2048 / 8)
                .flat_map(|_| {
                    x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
                    x.to_le_bytes()
                })
                .collect()
        })
        .collect();
    let mut keys: Vec<u64> = (0..300_000).map(|_| rng.next_u64()).collect();
    keys.sort_unstable();
    let map: HashMap<u64, usize> = keys.iter().copied().zip(0..100_000).collect();
    let hits: u64 = keys
        .iter()
        .step_by(3)
        .filter_map(|k| map.get(k))
        .map(|i| *i as u64)
        .sum();
    hits + pages
        .iter()
        .map(|p| p[(hits % 2048) as usize] as u64)
        .sum::<u64>()
}

/// Times a workload's set-ups, each between two runs of [`calibration`],
/// so that the set-up and the calibrations around it see the same phase
/// of the host.
///
/// On a shared host every set-up of one run can be slow together (five
/// `adhoc` builds took 0.19–0.22 s in one run and 0.11–0.16 s in the
/// next), so no statistic over a run's raw set-up times is steady across
/// runs. Each set-up's time divided by the mean of the calibrations on
/// either side of it is: over twelve trials of 16 `adhoc` builds each, the
/// median of these ratios had an interquartile spread of 3 %, against 37 %
/// for the raw median and 11 % for the ratio of the raw median to the
/// median calibration. `setup_s` is the median ratio times
/// [`CALIBRATION_REF_S`]: the set-up time on a host of the reference
/// speed. A change to the program moves it exactly as it moves the set-up
/// itself, because the calibration runs no program code. The raw median
/// is `bench.setup_wall_s`.
#[derive(Debug, Default)]
pub struct SetupClock {
    wall_s: Vec<f64>,
    calibration_s: Vec<f64>,
    /// Each set-up's time over the mean of its two calibrations.
    relative: Vec<f64>,
}

impl SetupClock {
    fn calibrate(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(calibration());
        let s = secs(t);
        self.calibration_s.push(s);
        s
    }

    /// Time one set-up `f` between two calibrations.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.calibrate();
        let t = Instant::now();
        let r = f();
        let wall = secs(t);
        let after = self.calibrate();
        self.wall_s.push(wall);
        self.relative.push(2.0 * wall / (before + after));
        r
    }

    /// Record `setup_s` in `e` and the raw times behind it in `l`.
    pub fn report(&self, e: &mut Sheet, l: &mut Sheet) {
        e.set("setup_s", median(&self.relative) * CALIBRATION_REF_S, "s");
        l.set("bench.setup_wall_s", median(&self.wall_s), "s");
        l.set(
            "bench.calibration_ms",
            median(&self.calibration_s) * 1e3,
            "ms",
        );
    }
}

/// Resident set size of this process in MB (`VmRSS`), 0 where `/proc`
/// is unavailable.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Metric name → (value, unit), printed in name order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Sheet(pub BTreeMap<String, (f64, &'static str)>);

impl Sheet {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The end-to-end metrics (untraced measurement).
    pub e2e: Sheet,
    /// The per-layer metrics (counts always; spans only when traced).
    pub layer: Sheet,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the run is invalid (wrong results, a guard
    /// that did not hold). Any entry makes the command exit nonzero.
    pub errors: Vec<String>,
    /// The op sequence's fingerprint (the benchmark's own tests compare it
    /// across seeds).
    pub sequence_digest: u64,
}

/// FNV-1a over bytes, for fingerprints of op sequences and result rows.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 ^= *x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// One recorded span: a call into a layer, seen from the benchmark.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder. Disabled recorders record nothing and cost
/// one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name` for op `op` (when tracing is on)
    /// and return its result and wall duration in ms. The duration is
    /// measured either way.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        if !self.on {
            let r = f(self);
            return (r, start.elapsed().as_secs_f64() * 1e3);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = (end - self.epoch).as_nanos() as u64;
        (r, (end - start).as_secs_f64() * 1e3)
    }

    /// Per span name: (calls, total ms, self ms), where self time is the
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - child_ns[i] as f64 / 1e6;
        }
        out
    }

    /// Write every span as one JSON line to `path`, then a summary line
    /// per span name with its self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        for (name, (calls, total, own)) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"calls\":{calls},\"total_ms\":{total:.6},\"self_ms\":{own:.6}}}"
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Render the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Sheet) -> String {
    let mut m = String::new();
    for (i, (name, (value, unit))) in metrics.0.iter().enumerate() {
        if i > 0 {
            m.push(',');
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(m, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
    }
    format!("{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{m}}}}}")
}
