//! Per-query counters shared by the two read workloads: everything is
//! read from the `ExecReport` and `HostTrace` each query returns.

use crate::common::Sheet;
use ghostdb_exec::report::OpKind;
use ghostdb_exec::{ExecReport, HostTrace};
use ghostdb_flash::FlashStats;

/// Sums over the queries of a measured window, and each query's token time.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReadCounters {
    pub queries: u64,
    /// `ExecReport::total` of each query, in ms of simulated token time.
    pub token_ms: Vec<f64>,
    pub op_ns: [u128; 11],
    pub comm_ns: u128,
    pub io: FlashStats,
    pub bytes_to_secure: u64,
    pub result_rows: u64,
    pub peak_ram_buffers: usize,
    pub trace_events: u64,
    pub response_bytes: u64,
}

impl ReadCounters {
    pub fn add(&mut self, r: &ExecReport, trace: &HostTrace) {
        self.queries += 1;
        self.token_ms.push(r.total().as_ms());
        for (acc, k) in self.op_ns.iter_mut().zip(OpKind::ALL) {
            *acc += r.op(k).as_ns();
        }
        self.comm_ns += r.comm.as_ns();
        let (a, b) = (&mut self.io, &r.io);
        a.pages_read += b.pages_read;
        a.pages_written += b.pages_written;
        a.bytes_to_ram += b.bytes_to_ram;
        a.bytes_from_ram += b.bytes_from_ram;
        a.gc_pages_read += b.gc_pages_read;
        a.gc_pages_written += b.gc_pages_written;
        a.blocks_erased += b.blocks_erased;
        self.bytes_to_secure += r.bytes_to_secure;
        self.result_rows += r.result_rows;
        self.peak_ram_buffers = self.peak_ram_buffers.max(r.peak_ram_buffers);
        self.trace_events += trace.len() as u64;
        self.response_bytes += trace.response_bytes();
    }

    fn per_op(&self, x: f64) -> f64 {
        x / self.queries.max(1) as f64
    }

    /// Flash programs per query, GC relocations included, in KB.
    pub fn flash_kb_written_per_op(&self, page_size: usize) -> f64 {
        self.per_op(self.io.total_pages_written() as f64 * page_size as f64 / 1024.0)
    }

    /// The counter-derived per-layer metrics of the `exec`, `flash`,
    /// `token` and `untrusted` layers.
    pub fn fill_layers(&self, m: &mut Sheet) {
        for (ns, k) in self.op_ns.iter().zip(OpKind::ALL) {
            let name = format!("exec.op.{}_ms", k.name().to_ascii_lowercase());
            m.set(&name, self.per_op(*ns as f64 / 1e6), "ms");
        }
        m.set(
            "exec.result_rows_per_op",
            self.per_op(self.result_rows as f64),
            "count",
        );
        fill_flash(m, &self.io, self.queries);
        m.set(
            "token.comm_ms_per_op",
            self.per_op(self.comm_ns as f64 / 1e6),
            "ms",
        );
        m.set(
            "token.kb_to_secure_per_op",
            self.per_op(self.bytes_to_secure as f64 / 1024.0),
            "KB",
        );
        m.set(
            "token.peak_ram_buffers",
            self.peak_ram_buffers as f64,
            "count",
        );
        m.set(
            "untrusted.trace_events_per_op",
            self.per_op(self.trace_events as f64),
            "count",
        );
        m.set(
            "untrusted.response_kb_per_op",
            self.per_op(self.response_bytes as f64 / 1024.0),
            "KB",
        );
    }
}

/// The `flash` layer's per-op counters over `ops` operations.
pub fn fill_flash(m: &mut Sheet, io: &FlashStats, ops: u64) {
    let per = |x: u64| x as f64 / ops.max(1) as f64;
    m.set(
        "flash.pages_read_per_op",
        per(io.total_pages_read()),
        "count",
    );
    m.set("flash.pages_written_per_op", per(io.pages_written), "count");
    m.set(
        "flash.gc_pages_written_per_op",
        per(io.gc_pages_written),
        "count",
    );
    m.set("flash.blocks_erased_per_op", per(io.blocks_erased), "count");
    let wa = if io.pages_written == 0 {
        0.0
    } else {
        io.total_pages_written() as f64 / io.pages_written as f64
    };
    m.set("flash.write_amp", wa, "ratio");
}
