//! I/O counters and simulated-time accounting.
//!
//! The paper's simulator "delivers the exact number of pages read and written
//! in Flash", including FTL traffic, and "the exact number of bytes
//! transferred between the RAM and the Flash Data Register" (§6.1). These
//! counters are the ground truth from which all reported execution times are
//! derived, so they are first-class here.

use crate::timing::FlashTiming;
use std::fmt;
use std::ops::Sub;

/// A simulated duration, stored in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration {
    ns: u128,
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration { ns: 0 };

    /// Build from nanoseconds.
    pub fn from_ns(ns: u128) -> Self {
        SimDuration { ns }
    }

    /// Build from microseconds.
    pub fn from_us(us: u128) -> Self {
        SimDuration { ns: us * 1_000 }
    }

    /// Nanoseconds.
    pub fn as_ns(&self) -> u128 {
        self.ns
    }

    /// Microseconds (floating point, for reports).
    pub fn as_us(&self) -> f64 {
        self.ns as f64 / 1_000.0
    }

    /// Milliseconds (floating point, for reports).
    pub fn as_ms(&self) -> f64 {
        self.ns as f64 / 1_000_000.0
    }

    /// Seconds (floating point, for reports).
    pub fn as_secs(&self) -> f64 {
        self.ns as f64 / 1_000_000_000.0
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration {
            ns: self.ns.saturating_sub(other.ns),
        }
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            ns: self.ns + rhs.ns,
        }
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.ns += rhs.ns;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else {
            write!(f, "{:.1}µs", self.as_us())
        }
    }
}

/// Cumulative I/O counters of a flash device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStats {
    /// Pages loaded from the array into the data register (user traffic).
    pub pages_read: u64,
    /// Pages programmed from the data register (user traffic).
    pub pages_written: u64,
    /// Bytes moved data-register → RAM.
    pub bytes_to_ram: u64,
    /// Bytes moved RAM → data-register.
    pub bytes_from_ram: u64,
    /// Pages read by the FTL while relocating valid data during GC.
    pub gc_pages_read: u64,
    /// Pages programmed by the FTL while relocating valid data during GC.
    pub gc_pages_written: u64,
    /// Blocks erased (all erases happen inside the FTL).
    pub blocks_erased: u64,
}

impl FlashStats {
    /// Total pages read, including FTL-internal traffic.
    pub fn total_pages_read(&self) -> u64 {
        self.pages_read + self.gc_pages_read
    }

    /// Total pages programmed, including FTL-internal traffic.
    pub fn total_pages_written(&self) -> u64 {
        self.pages_written + self.gc_pages_written
    }

    /// Simulated elapsed time implied by these counters under `timing`,
    /// for a device with `page_size`-byte pages.
    ///
    /// GC relocations move whole pages register-to-register; we charge them
    /// the full-page read + program cost, consistent with "this includes the
    /// I/O performed by the Flash Translation Layer" (§6.1).
    pub fn elapsed(&self, timing: &FlashTiming, page_size: usize) -> SimDuration {
        let mut ns: u128 = 0;
        // User reads: page loads are counted per page; the byte transfer is
        // the precise bytes_to_ram counter.
        ns += self.pages_read as u128 * timing.read_page_us as u128 * 1_000;
        ns += self.bytes_to_ram as u128 * timing.transfer_ns_per_byte as u128;
        // User writes: full-page program + the actual RAM→register bytes.
        ns += self.pages_written as u128 * timing.program_page_us as u128 * 1_000;
        ns += self.bytes_from_ram as u128 * timing.transfer_ns_per_byte as u128;
        // GC traffic: full pages both ways.
        ns += self.gc_pages_read as u128 * timing.read_cost_ns(page_size);
        ns += self.gc_pages_written as u128 * timing.write_cost_ns(page_size);
        ns += self.blocks_erased as u128 * timing.erase_cost_ns();
        SimDuration::from_ns(ns)
    }
}

impl std::ops::Add for FlashStats {
    type Output = FlashStats;
    fn add(mut self, rhs: FlashStats) -> FlashStats {
        self += rhs;
        self
    }
}

impl std::ops::AddAssign for FlashStats {
    fn add_assign(&mut self, rhs: FlashStats) {
        self.pages_read += rhs.pages_read;
        self.pages_written += rhs.pages_written;
        self.bytes_to_ram += rhs.bytes_to_ram;
        self.bytes_from_ram += rhs.bytes_from_ram;
        self.gc_pages_read += rhs.gc_pages_read;
        self.gc_pages_written += rhs.gc_pages_written;
        self.blocks_erased += rhs.blocks_erased;
    }
}

impl Sub for FlashStats {
    type Output = FlashStats;
    fn sub(self, rhs: FlashStats) -> FlashStats {
        FlashStats {
            pages_read: self.pages_read - rhs.pages_read,
            pages_written: self.pages_written - rhs.pages_written,
            bytes_to_ram: self.bytes_to_ram - rhs.bytes_to_ram,
            bytes_from_ram: self.bytes_from_ram - rhs.bytes_from_ram,
            gc_pages_read: self.gc_pages_read - rhs.gc_pages_read,
            gc_pages_written: self.gc_pages_written - rhs.gc_pages_written,
            blocks_erased: self.blocks_erased - rhs.blocks_erased,
        }
    }
}

/// A point-in-time copy of the counters, used for per-operator attribution.
pub type FlashSnapshot = FlashStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_units() {
        let d = SimDuration::from_us(1_500);
        assert_eq!(d.as_ns(), 1_500_000);
        assert!((d.as_ms() - 1.5).abs() < 1e-9);
        assert_eq!(format!("{d}"), "1.500ms");
    }

    #[test]
    fn elapsed_accounts_every_counter() {
        let t = FlashTiming::default();
        let s = FlashStats {
            pages_read: 2,
            pages_written: 1,
            bytes_to_ram: 100,
            bytes_from_ram: 2048,
            gc_pages_read: 1,
            gc_pages_written: 1,
            blocks_erased: 1,
        };
        let expect = 2 * 25_000u128
            + 100 * 50
            + 200_000
            + 2048 * 50
            + t.read_cost_ns(2048)
            + t.write_cost_ns(2048)
            + t.erase_cost_ns();
        assert_eq!(s.elapsed(&t, 2048).as_ns(), expect);
    }

    #[test]
    fn snapshot_diff() {
        let a = FlashStats {
            pages_read: 10,
            ..Default::default()
        };
        let b = FlashStats {
            pages_read: 4,
            ..Default::default()
        };
        assert_eq!((a - b).pages_read, 6);
    }
}
