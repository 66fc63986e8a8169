//! On-flash tables: the columnar hidden image `TiH` and generic fixed-width
//! row tables (SKTs, materialised operator outputs).
//!
//! The hidden image of a table stores each hidden column in its own
//! contiguous segment, **sorted by tuple id** — so `MJoin` can merge hidden
//! values against sorted ID lists with a single sequential scan per column
//! (paper §4: "Ti.vlist, Ti.hlist and σVHTi.id are all sorted on idTi and
//! can be joined by a sequential scan of each list and a simple merge").
//! Row tables hold multi-ID records in id order (SKTs, `SJoin` results).

use crate::error::StorageError;
use crate::row::RowLayout;
use crate::value::{ColumnType, Value};
use crate::{Id, Result};
use ghostdb_flash::{FlashDevice, Segment, SegmentAllocator};
use ghostdb_token::{RamArena, RamBuffer};

/// One hidden column on flash, sorted by tuple id.
#[derive(Debug, Clone)]
pub struct HiddenColumn {
    /// Column name.
    pub name: String,
    /// Declared type (fixed width).
    pub ty: ColumnType,
    segment: Segment,
    rows: u64,
}

impl HiddenColumn {
    /// Bulk-load a column from a value generator (load path; charges
    /// sequential page writes, exactly what burning the key would cost).
    pub fn bulk_load_with(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        name: &str,
        ty: ColumnType,
        rows: u64,
        mut gen: impl FnMut(Id) -> Value,
    ) -> Result<Self> {
        let width = ty.width();
        let page_size = dev.page_size();
        let vals_per_page = (page_size / width) as u64;
        assert!(vals_per_page > 0, "column value wider than a page");
        let pages = rows.div_ceil(vals_per_page).max(1);
        let segment = alloc.alloc(pages)?;
        let mut image = vec![0u8; page_size];
        let mut row = 0u64;
        let mut page = 0u64;
        while row < rows {
            let on_page = vals_per_page.min(rows - row) as usize;
            for i in 0..on_page {
                gen((row + i as u64) as Id)
                    .encode(&ty, &mut image[i * width..(i + 1) * width])
                    .map_err(|_| StorageError::TypeMismatch {
                        column: name.into(),
                        expected: "declared column type",
                    })?;
            }
            dev.write(segment.lpn(page)?, &image[..on_page * width])?;
            row += on_page as u64;
            page += 1;
        }
        Ok(HiddenColumn {
            name: name.into(),
            ty,
            segment,
            rows,
        })
    }

    /// Bulk-load a column from host values.
    pub fn bulk_load(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        name: &str,
        ty: ColumnType,
        values: &[Value],
    ) -> Result<Self> {
        HiddenColumn::bulk_load_with(dev, alloc, name, ty, values.len() as u64, |r| {
            values[r as usize].clone()
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Bytes occupied (for size accounting).
    pub fn bytes(&self) -> u64 {
        self.rows * self.ty.width() as u64
    }

    /// Random access to one value (charges a page load + `width` bytes).
    pub fn get(&self, dev: &mut FlashDevice, row: Id) -> Result<Value> {
        if row as u64 >= self.rows {
            return Err(StorageError::RowOutOfRange {
                row: row as u64,
                rows: self.rows,
            });
        }
        let width = self.ty.width();
        let vpp = (dev.page_size() / width) as u64;
        let (page, off) = (row as u64 / vpp, (row as u64 % vpp) as usize * width);
        let mut buf = vec![0u8; width];
        dev.read(self.segment.lpn(page)?, off, &mut buf)?;
        Ok(Value::decode(&self.ty, &buf))
    }

    /// Open a scan (one RAM buffer) delivering values for an ascending
    /// sequence of rows: a full scan, or merge-style skips where each
    /// touched page is loaded once, from the first requested value to the
    /// end of the page's used bytes.
    pub fn scan(&self, ram: &RamArena, page_size: usize) -> Result<ColumnScan> {
        Ok(ColumnScan {
            ty: self.ty,
            pager: RecordPager::new(
                self.segment,
                self.rows,
                self.ty.width(),
                page_size,
                ram.alloc()?,
            ),
        })
    }
}

/// Sequential (or ascending-skip) scan over a hidden column.
#[derive(Debug)]
pub struct ColumnScan {
    ty: ColumnType,
    pager: RecordPager,
}

impl ColumnScan {
    /// Value at row `row`, which must be ≥ any previously requested row.
    /// Its callers interleave several columns per id, so a scan cannot
    /// group requests by page: a page miss loads the rest of the page's
    /// used bytes from `row` on (one page load per touched page).
    pub fn value_at(&mut self, dev: &mut FlashDevice, row: Id) -> Result<Value> {
        let slot = self.pager.fetch(dev, row as u64)?;
        Ok(Value::decode(&self.ty, self.pager.record(slot)))
    }

    /// Next value in sequence (plain full scan).
    pub fn next_value(&mut self, dev: &mut FlashDevice) -> Result<Option<Value>> {
        let row = self.pager.pos;
        if row >= self.pager.rows {
            return Ok(None);
        }
        let v = self.value_at(dev, row as Id)?;
        self.pager.pos = row + 1;
        Ok(Some(v))
    }
}

/// The hidden image `TiH`: all hidden columns of one table.
#[derive(Debug, Clone, Default)]
pub struct HiddenImage {
    /// Hidden columns, in schema order.
    pub columns: Vec<HiddenColumn>,
    /// Table cardinality.
    pub rows: u64,
}

impl HiddenImage {
    /// Find a column by name.
    pub fn column(&self, name: &str) -> Result<&HiddenColumn> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| StorageError::Unknown(name.into()))
    }

    /// Total bytes of the image.
    pub fn bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.bytes()).sum()
    }
}

/// A fixed-width row table on flash (SKTs, materialised intermediates).
/// Rows are implicitly numbered 0..rows in storage order.
#[derive(Debug, Clone)]
pub struct FlashTable {
    /// Row layout.
    pub layout: RowLayout,
    segment: Segment,
    rows: u64,
}

impl FlashTable {
    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Pages occupied.
    pub fn pages(&self, page_size: usize) -> u64 {
        self.layout.pages_for(self.rows, page_size)
    }

    /// Bytes of live data.
    pub fn bytes(&self) -> u64 {
        self.rows * self.layout.size() as u64
    }

    /// Backing segment (to free temporaries).
    pub fn segment(&self) -> Segment {
        self.segment
    }

    /// Rows the backing segment can hold (append headroom).
    pub fn capacity(&self, page_size: usize) -> u64 {
        self.segment.pages() * self.layout.rows_per_page(page_size) as u64
    }

    /// Overwrite row `row` in place. At the FTL this is a read-modify-write
    /// of the row's page (out of place physically, in place logically).
    pub fn write_row(&mut self, dev: &mut FlashDevice, row: u64, data: &[u8]) -> Result<()> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        debug_assert_eq!(data.len(), self.layout.size());
        let (page, off) = self.layout.locate(row, dev.page_size());
        dev.write_at(self.segment.lpn(page)?, off, data)?;
        Ok(())
    }

    /// Append one row into the segment's remaining capacity. Fails with
    /// `RowOutOfRange` when the segment is full — the caller decides
    /// whether to rebuild into a larger segment.
    pub fn append_row(&mut self, dev: &mut FlashDevice, data: &[u8]) -> Result<()> {
        let cap = self.capacity(dev.page_size());
        if self.rows >= cap {
            return Err(StorageError::RowOutOfRange {
                row: self.rows,
                rows: cap,
            });
        }
        debug_assert_eq!(data.len(), self.layout.size());
        let (page, off) = self.layout.locate(self.rows, dev.page_size());
        dev.write_at(self.segment.lpn(page)?, off, data)?;
        self.rows += 1;
        Ok(())
    }

    /// Random access: read row `row` into `out` (one page load, row bytes).
    pub fn read_row(&self, dev: &mut FlashDevice, row: u64, out: &mut [u8]) -> Result<()> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        let (page, off) = self.layout.locate(row, dev.page_size());
        dev.read(self.segment.lpn(page)?, off, &mut out[..self.layout.size()])?;
        Ok(())
    }

    /// Open a streaming reader (one RAM buffer).
    pub fn reader(&self, ram: &RamArena, page_size: usize) -> Result<FlashTableReader> {
        Ok(FlashTableReader {
            pager: RecordPager::new(
                self.segment,
                self.rows,
                self.layout.size(),
                page_size,
                ram.alloc()?,
            ),
        })
    }

    /// Bulk-load `n_rows` rows produced by a fill callback (build path:
    /// assembles page images host-side, charges sequential page writes).
    pub fn bulk_load_with(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        layout: RowLayout,
        n_rows: u64,
        fill: impl FnMut(u64, &mut [u8]),
    ) -> Result<FlashTable> {
        FlashTable::bulk_load_with_capacity(dev, alloc, layout, n_rows, n_rows, fill)
    }

    /// Like [`FlashTable::bulk_load_with`], but sizes the backing segment
    /// for `capacity_rows ≥ n_rows`, leaving headroom for
    /// [`FlashTable::append_row`].
    pub fn bulk_load_with_capacity(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        layout: RowLayout,
        n_rows: u64,
        capacity_rows: u64,
        mut fill: impl FnMut(u64, &mut [u8]),
    ) -> Result<FlashTable> {
        assert!(capacity_rows >= n_rows, "capacity below initial rows");
        let page_size = dev.page_size();
        let rpp = layout.rows_per_page(page_size) as u64;
        let pages = layout.pages_for(capacity_rows, page_size);
        let segment = alloc.alloc(pages)?;
        let size = layout.size();
        let mut image = vec![0u8; page_size];
        let mut row = 0u64;
        let mut page = 0u64;
        while row < n_rows {
            let on_page = rpp.min(n_rows - row);
            for i in 0..on_page {
                fill(
                    row + i,
                    &mut image[i as usize * size..(i as usize + 1) * size],
                );
            }
            dev.write(segment.lpn(page)?, &image[..on_page as usize * size])?;
            row += on_page;
            page += 1;
        }
        Ok(FlashTable {
            layout,
            segment,
            rows: n_rows,
        })
    }

    /// Bulk-load from host-side rows (build path, sequential writes).
    pub fn bulk_load<'a>(
        dev: &mut FlashDevice,
        alloc: &mut SegmentAllocator,
        layout: RowLayout,
        rows: impl ExactSizeIterator<Item = &'a [u8]>,
    ) -> Result<FlashTable> {
        let n = rows.len() as u64;
        let page_size = dev.page_size();
        let rpp = layout.rows_per_page(page_size);
        let pages = layout.pages_for(n, page_size);
        let segment = alloc.alloc(pages)?;
        let mut image = vec![0u8; page_size];
        let mut in_page = 0usize;
        let mut page = 0u64;
        let size = layout.size();
        for row in rows {
            debug_assert_eq!(row.len(), size);
            image[in_page * size..(in_page + 1) * size].copy_from_slice(row);
            in_page += 1;
            if in_page == rpp {
                dev.write(segment.lpn(page)?, &image[..in_page * size])?;
                page += 1;
                in_page = 0;
            }
        }
        if in_page > 0 {
            dev.write(segment.lpn(page)?, &image[..in_page * size])?;
        }
        Ok(FlashTable {
            layout,
            segment,
            rows: n,
        })
    }
}

/// Streaming writer for a new row table (one RAM buffer, sequential pages).
#[derive(Debug)]
pub struct FlashTableWriter {
    layout: RowLayout,
    segment: Segment,
    buf: RamBuffer,
    in_page: usize,
    next_page: u64,
    rows: u64,
    page_size: usize,
}

impl FlashTableWriter {
    /// Create a writer for up to `max_rows` rows.
    pub fn create(
        alloc: &mut SegmentAllocator,
        ram: &RamArena,
        layout: RowLayout,
        max_rows: u64,
        page_size: usize,
    ) -> Result<Self> {
        let pages = layout.pages_for(max_rows, page_size);
        let segment = alloc.alloc(pages)?;
        Ok(FlashTableWriter {
            layout,
            segment,
            buf: ram.alloc()?,
            in_page: 0,
            next_page: 0,
            rows: 0,
            page_size,
        })
    }

    /// Append one row.
    pub fn push(&mut self, dev: &mut FlashDevice, row: &[u8]) -> Result<()> {
        let size = self.layout.size();
        debug_assert_eq!(row.len(), size);
        let rpp = self.layout.rows_per_page(self.page_size);
        if self.in_page == rpp {
            self.flush(dev)?;
        }
        self.buf[self.in_page * size..(self.in_page + 1) * size].copy_from_slice(row);
        self.in_page += 1;
        self.rows += 1;
        Ok(())
    }

    fn flush(&mut self, dev: &mut FlashDevice) -> Result<()> {
        if self.in_page == 0 {
            return Ok(());
        }
        let used = self.in_page * self.layout.size();
        dev.write(self.segment.lpn(self.next_page)?, &self.buf[..used])?;
        self.next_page += 1;
        self.in_page = 0;
        Ok(())
    }

    /// Finish and return the table.
    pub fn finish(mut self, dev: &mut FlashDevice) -> Result<FlashTable> {
        self.flush(dev)?;
        Ok(FlashTable {
            layout: self.layout.clone(),
            segment: self.segment,
            rows: self.rows,
        })
    }
}

/// Streaming reader over a row table, with ascending random skip support
/// (key semi-join access pattern: each needed page visited once).
#[derive(Debug)]
pub struct FlashTableReader {
    pager: RecordPager,
}

impl FlashTableReader {
    /// Total rows.
    pub fn rows(&self) -> u64 {
        self.pager.rows
    }

    /// Row `row` of the set the last [`FlashTableReader::load_rows`] was
    /// given (rows requested in ascending order). Never touches the device;
    /// fails if `row` goes backwards, is past the table or is not on the
    /// loaded page. Other rows of that page are not loaded: which rows to
    /// ask for is the caller's set.
    pub fn loaded_row(&mut self, row: u64) -> Result<&[u8]> {
        let slot = self.pager.request(row)?;
        if slot >= self.pager.per_page {
            return Err(StorageError::Corrupt(format!(
                "row {row} is not on the loaded page"
            )));
        }
        Ok(self.pager.record(slot))
    }

    /// Next row in sequence, or `None` at the end.
    pub fn next_row(&mut self, dev: &mut FlashDevice) -> Result<Option<&[u8]>> {
        let row = self.pager.pos;
        if row >= self.pager.rows {
            return Ok(None);
        }
        let slot = self.pager.fetch(dev, row)?;
        self.pager.pos = row + 1;
        Ok(Some(self.pager.record(slot)))
    }

    /// An empty look-ahead set for this reader's pages.
    pub fn page_rows(&self) -> PageRows {
        PageRows::new(self.pager.per_page)
    }

    /// Load the rows of `rows` (all on one page) with byte-exact reads, so
    /// that [`FlashTableReader::loaded_row`] serves each of them without
    /// I/O. Rows before the last request or past the table are left for it
    /// to reject.
    pub fn load_rows(&mut self, dev: &mut FlashDevice, rows: &PageRows) -> Result<()> {
        debug_assert_eq!(rows.per_page, self.pager.per_page);
        let (pos, end) = (self.pager.pos, self.pager.rows);
        self.pager.load(
            dev,
            rows.first,
            rows.rows()
                .filter(|r| (pos..end).contains(r))
                .map(|r| r - rows.first),
        )
    }
}

/// The rows of one page an ascending reader is asked for at once, as a
/// bitmap of rows-per-page bits: a look-ahead of one page costs no RAM
/// buffer. Rows are pushed in strictly ascending order.
#[derive(Debug, Clone)]
pub struct PageRows {
    per_page: u64,
    /// First row of the page the set lies on.
    first: u64,
    last: Option<u64>,
    bits: Vec<u64>,
}

impl PageRows {
    fn new(per_page: u64) -> Self {
        PageRows {
            per_page,
            first: 0,
            last: None,
            bits: vec![0; per_page.div_ceil(64) as usize],
        }
    }

    /// Add `row`. Returns `false` and adds nothing when the set already
    /// holds rows and `row` lies on another page or does not follow the
    /// last row pushed.
    pub fn push(&mut self, row: u64) -> bool {
        match self.last {
            Some(last) if row <= last || row - self.first >= self.per_page => return false,
            Some(_) => {}
            None => self.first = row - row % self.per_page,
        }
        let slot = row - self.first;
        self.bits[(slot / 64) as usize] |= 1 << (slot % 64);
        self.last = Some(row);
        true
    }

    /// Empty the set.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.last = None;
    }

    /// The rows, ascending.
    pub fn rows(&self) -> impl Iterator<Item = u64> + '_ {
        let mut words = self.bits.iter();
        let (mut word, mut base) = (0u64, self.first);
        let end = self.last.map_or(0, |last| last + 1);
        std::iter::from_fn(move || loop {
            if word != 0 {
                let bit = word.trailing_zeros() as u64;
                word &= word - 1;
                return Some(base - 64 + bit);
            }
            if base >= end {
                return None;
            }
            word = *words.next()?;
            base += 64;
        })
    }
}

/// The page-load core of the ascending readers of fixed-width records
/// ([`FlashTableReader`] and [`ColumnScan`]). One RAM buffer holds loaded
/// records of one page, each at its own page offset.
///
/// Reads are priced by the Table 1 model: one `dev.read` costs a page
/// load plus the bytes it moves. A miss on a single record reads the rest
/// of its page in one range (`fetch`), so what a miss loads is always a
/// suffix of the page, kept as a watermark. A look-ahead set reads only
/// its records (`load`), which its caller then reads back: two neighbours
/// share a range exactly when the bytes between them cost no more to
/// transfer than the page load a second read would pay
/// (`gap × transfer_ns_per_byte ≤ read_page_us × 1000`, 500 B at Table 1
/// timing). The cost is additive over ranges, so this greedy cover is the
/// cheapest one.
#[derive(Debug)]
struct RecordPager {
    segment: Segment,
    rows: u64,
    width: usize,
    per_page: u64,
    buf: RamBuffer,
    /// First row of the page in `buf`.
    first: u64,
    /// Lowest slot of that page from which on `fetch` loaded every used
    /// record; `per_page` when it loaded none.
    lo: u64,
    /// Lowest row the next request may name (ascending access).
    pos: u64,
}

impl RecordPager {
    fn new(segment: Segment, rows: u64, width: usize, page_size: usize, buf: RamBuffer) -> Self {
        let per_page = (page_size / width) as u64;
        assert!(per_page > 0, "record wider than a page");
        RecordPager {
            segment,
            rows,
            width,
            per_page,
            buf,
            first: 0,
            lo: per_page,
            pos: 0,
        }
    }

    /// Make record `row` available (it must not precede the previous
    /// request) and return its slot. On a miss the rest of its page's used
    /// records is loaded from `row` on.
    fn fetch(&mut self, dev: &mut FlashDevice, row: u64) -> Result<u64> {
        let slot = self.request(row)?;
        if (self.lo..self.per_page).contains(&slot) {
            return Ok(slot);
        }
        self.first = row - row % self.per_page;
        self.lo = row - self.first;
        let used = (self.rows - self.first).min(self.per_page);
        self.read_range(dev, (self.lo, used - 1))?;
        Ok(self.lo)
    }

    /// Accept request `row` (ascending, within the store) and return its
    /// slot on the page in the buffer: `per_page` or more when `row` lies
    /// on another page (rows below `first` wrap).
    fn request(&mut self, row: u64) -> Result<u64> {
        if row < self.pos {
            return Err(StorageError::Corrupt(format!(
                "ascending reader going backwards: {row} after {}",
                self.pos
            )));
        }
        if row >= self.rows {
            return Err(StorageError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        self.pos = row;
        Ok(row.wrapping_sub(self.first))
    }

    /// The record in slot `slot` of the buffer.
    fn record(&self, slot: u64) -> &[u8] {
        let off = slot as usize * self.width;
        &self.buf[off..off + self.width]
    }

    /// Load the records `slots` (ascending in-page indices) of the page
    /// starting at row `first`, covering them with the cheapest ranges.
    fn load(
        &mut self,
        dev: &mut FlashDevice,
        first: u64,
        slots: impl Iterator<Item = u64>,
    ) -> Result<()> {
        self.first = first;
        self.lo = self.per_page;
        let timing = *dev.timing();
        let page_load_ns = timing.read_page_us as u128 * 1_000;
        let mut range: Option<(u64, u64)> = None;
        for slot in slots {
            range = match range {
                Some((lo, hi))
                    if ((slot - hi - 1) as usize * self.width) as u128
                        * timing.transfer_ns_per_byte as u128
                        <= page_load_ns =>
                {
                    Some((lo, slot))
                }
                Some(done) => {
                    self.read_range(dev, done)?;
                    Some((slot, slot))
                }
                None => Some((slot, slot)),
            };
        }
        if let Some(done) = range {
            self.read_range(dev, done)?;
        }
        Ok(())
    }

    /// One `dev.read` of records `lo..=hi` of the page in the buffer, into
    /// their own offsets.
    fn read_range(&mut self, dev: &mut FlashDevice, (lo, hi): (u64, u64)) -> Result<()> {
        let (from, to) = (lo as usize * self.width, (hi + 1) as usize * self.width);
        let lpn = self.segment.lpn(self.first / self.per_page)?;
        dev.read(lpn, from, &mut self.buf[from..to])?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ghostdb_flash::{FlashGeometry, FlashTiming};

    fn setup() -> (FlashDevice, SegmentAllocator, RamArena) {
        let dev = FlashDevice::new(
            FlashGeometry::for_capacity(8 * 1024 * 1024),
            FlashTiming::default(),
        );
        let alloc = SegmentAllocator::new(dev.logical_pages());
        let ram = RamArena::paper_default();
        (dev, alloc, ram)
    }

    #[test]
    fn hidden_column_roundtrip() {
        let (mut dev, mut alloc, ram) = setup();
        let values: Vec<Value> = (0..5000).map(|i| Value::Int(i * 7)).collect();
        let col = HiddenColumn::bulk_load(
            &mut dev,
            &mut alloc,
            "h1",
            ColumnType::Int { width: 8 },
            &values,
        )
        .unwrap();
        assert_eq!(col.rows(), 5000);
        assert_eq!(col.get(&mut dev, 4999).unwrap(), Value::Int(4999 * 7));
        assert_eq!(col.get(&mut dev, 0).unwrap(), Value::Int(0));
        assert!(col.get(&mut dev, 5000).is_err());
        let mut scan = col.scan(&ram, dev.page_size()).unwrap();
        for i in 0..5000 {
            assert_eq!(
                scan.next_value(&mut dev).unwrap(),
                Some(Value::Int(i * 7)),
                "row {i}"
            );
        }
        assert_eq!(scan.next_value(&mut dev).unwrap(), None);
    }

    #[test]
    fn scan_skips_load_each_page_once() {
        let (mut dev, mut alloc, ram) = setup();
        let values: Vec<Value> = (0..2048).map(Value::Int).collect();
        let col = HiddenColumn::bulk_load(
            &mut dev,
            &mut alloc,
            "h",
            ColumnType::Int { width: 8 },
            &values,
        )
        .unwrap();
        let snap = dev.snapshot();
        let mut scan = col.scan(&ram, dev.page_size()).unwrap();
        // 8-byte vals, 256 per page; probe two rows per page.
        for row in (0..2048u32).step_by(128) {
            let v = scan.value_at(&mut dev, row).unwrap();
            assert_eq!(v, Value::Int(row as i64));
        }
        let d = dev.stats_since(&snap);
        assert_eq!(d.pages_read, 8, "each of the 8 pages loaded exactly once");
        assert_eq!(d.bytes_to_ram, 8 * 2048, "each from its first probe on");
        // Probing from mid-page on loads only the rest of the page.
        let snap = dev.snapshot();
        let mut scan = col.scan(&ram, dev.page_size()).unwrap();
        for row in [200u32, 255, 300] {
            assert_eq!(
                scan.value_at(&mut dev, row).unwrap(),
                Value::Int(row as i64)
            );
        }
        let d = dev.stats_since(&snap);
        assert_eq!(d.pages_read, 2);
        assert_eq!(d.bytes_to_ram, (56 + 212) * 8);
        // Backwards access is rejected.
        assert!(scan.value_at(&mut dev, 0).is_err());
    }

    #[test]
    fn flash_table_writer_reader_roundtrip() {
        let (mut dev, mut alloc, ram) = setup();
        let layout = RowLayout::ids(3);
        let mut w =
            FlashTableWriter::create(&mut alloc, &ram, layout.clone(), 1000, dev.page_size())
                .unwrap();
        for i in 0..1000u32 {
            let mut row = vec![0u8; layout.size()];
            layout.put_id(&mut row, 0, i);
            layout.put_id(&mut row, 1, i * 2);
            layout.put_id(&mut row, 2, i * 3);
            w.push(&mut dev, &row).unwrap();
        }
        let table = w.finish(&mut dev).unwrap();
        assert_eq!(table.rows(), 1000);
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        let mut i = 0u32;
        while let Some(row) = r.next_row(&mut dev).unwrap() {
            assert_eq!(layout.get_id(row, 1), i * 2);
            i += 1;
        }
        assert_eq!(i, 1000);
    }

    #[test]
    fn flash_table_skip_access() {
        let (mut dev, mut alloc, ram) = setup();
        let layout = RowLayout::ids(2);
        let rows: Vec<Vec<u8>> = (0..500u32)
            .map(|i| {
                let mut row = vec![0u8; 8];
                layout.put_id(&mut row, 0, i);
                layout.put_id(&mut row, 1, 1000 + i);
                row
            })
            .collect();
        let table = FlashTable::bulk_load(
            &mut dev,
            &mut alloc,
            layout.clone(),
            rows.iter().map(|r| r.as_slice()),
        )
        .unwrap();
        // 8-byte rows, 256 per page: one look-ahead set per touched page.
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        let mut set = r.page_rows();
        for probes in [&[3u64, 100, 101][..], &[499]] {
            set.clear();
            assert!(probes.iter().all(|p| set.push(*p)));
            r.load_rows(&mut dev, &set).unwrap();
            for probe in set.rows() {
                let row = r.loaded_row(probe).unwrap();
                assert_eq!(layout.get_id(row, 1) as u64, 1000 + probe);
            }
        }
        // A backwards or out-of-range row is not loaded, and is rejected.
        let snap = dev.snapshot();
        for bad in [2u64, 500] {
            set.clear();
            assert!(set.push(bad));
            r.load_rows(&mut dev, &set).unwrap();
            match r.loaded_row(bad) {
                Err(StorageError::Corrupt(_)) => assert_eq!(bad, 2, "backwards rejected"),
                Err(StorageError::RowOutOfRange { .. }) => {
                    assert_eq!(bad, 500, "out of range rejected")
                }
                other => panic!("row {bad}: {other:?}"),
            }
        }
        assert_eq!(dev.stats_since(&snap).pages_read, 0);
        // So is a row off the loaded page.
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        set.clear();
        assert!(set.push(3));
        r.load_rows(&mut dev, &set).unwrap();
        assert!(matches!(r.loaded_row(300), Err(StorageError::Corrupt(_))));
    }

    /// 600 SKT-shaped rows of 16 bytes: 128 rows per page, 5 pages, the
    /// last holding 88 rows.
    fn skt_shaped(dev: &mut FlashDevice, alloc: &mut SegmentAllocator) -> FlashTable {
        let layout = RowLayout::ids(4);
        FlashTable::bulk_load_with(dev, alloc, layout.clone(), 600, |r, row| {
            layout.put_id(row, 0, r as u32)
        })
        .unwrap()
    }

    /// Load `rows` through one-page look-ahead sets, as `SJoin` does, and
    /// return the simulated nanoseconds it took.
    fn look_ahead_cost(dev: &mut FlashDevice, r: &mut FlashTableReader, rows: &[u64]) -> u128 {
        let snap = dev.snapshot();
        let mut set = r.page_rows();
        for chunk in rows.chunk_by(|a, b| a / 128 == b / 128) {
            set.clear();
            assert!(chunk.iter().all(|row| set.push(*row)));
            r.load_rows(dev, &set).unwrap();
            for row in set.rows() {
                assert_eq!(
                    RowLayout::ids(4).get_id(r.loaded_row(row).unwrap(), 0) as u64,
                    row
                );
            }
        }
        dev.elapsed_since(&snap).as_ns()
    }

    #[test]
    fn one_row_per_page_costs_one_record_read_per_page() {
        let (mut dev, mut alloc, ram) = setup();
        let table = skt_shaped(&mut dev, &mut alloc);
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        let rows: Vec<u64> = (0..5).map(|p| p * 128 + 5).collect();
        let t = *dev.timing();
        assert_eq!(
            look_ahead_cost(&mut dev, &mut r, &rows),
            5 * t.read_cost_ns(16)
        );
    }

    #[test]
    fn every_row_of_a_page_costs_one_used_prefix_read() {
        let (mut dev, mut alloc, ram) = setup();
        let table = skt_shaped(&mut dev, &mut alloc);
        let t = *dev.timing();
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        let full: Vec<u64> = (0..128).collect();
        assert_eq!(
            look_ahead_cost(&mut dev, &mut r, &full),
            t.read_cost_ns(2048)
        );
        let last: Vec<u64> = (512..600).collect();
        assert_eq!(
            look_ahead_cost(&mut dev, &mut r, &last),
            t.read_cost_ns(88 * 16)
        );
    }

    #[test]
    fn look_ahead_ranges_split_only_past_a_page_load_of_gap() {
        let (mut dev, mut alloc, ram) = setup();
        let table = skt_shaped(&mut dev, &mut alloc);
        let t = *dev.timing();
        // Table 1 merges gaps of up to 500 B: 31 skipped rows (496 B)
        // share one read, 32 (512 B) do not.
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        assert_eq!(
            look_ahead_cost(&mut dev, &mut r, &[0, 32]),
            t.read_cost_ns(33 * 16)
        );
        let mut r = table.reader(&ram, dev.page_size()).unwrap();
        assert_eq!(
            look_ahead_cost(&mut dev, &mut r, &[0, 33]),
            2 * t.read_cost_ns(16)
        );
    }

    #[test]
    fn random_row_read() {
        let (mut dev, mut alloc, _ram) = setup();
        let layout = RowLayout::ids(1);
        let rows: Vec<Vec<u8>> = (0..300u32)
            .map(|i| (i * 5).to_le_bytes().to_vec())
            .collect();
        let table = FlashTable::bulk_load(
            &mut dev,
            &mut alloc,
            layout.clone(),
            rows.iter().map(|r| r.as_slice()),
        )
        .unwrap();
        let mut out = vec![0u8; 4];
        table.read_row(&mut dev, 123, &mut out).unwrap();
        assert_eq!(layout.get_id(&out, 0), 123 * 5);
    }

    #[test]
    fn hidden_image_lookup() {
        let (mut dev, mut alloc, _ram) = setup();
        let c1 = HiddenColumn::bulk_load(
            &mut dev,
            &mut alloc,
            "h1",
            ColumnType::int(),
            &[Value::Int(1)],
        )
        .unwrap();
        let image = HiddenImage {
            columns: vec![c1],
            rows: 1,
        };
        assert!(image.column("h1").is_ok());
        assert!(image.column("nope").is_err());
        assert_eq!(image.bytes(), 4);
    }
}
