//! Property tests of the byte-exact read rule of the ascending readers.
//!
//! `FlashTableReader` (SKTs and row tables, fed one page of look-ahead as
//! `SJoin` does) and `ColumnScan` (hidden columns, no look-ahead) must
//! return exactly what the random-access reads return, and bill the
//! Table 1 model for the cheapest cover of the requested records by byte
//! ranges: never more than one read of each touched page's used bytes,
//! and as a function of the requested rows only, never of the data.

use ghostdb_flash::{FlashDevice, FlashGeometry, FlashStats, FlashTiming, SegmentAllocator};
use ghostdb_storage::row::RowLayout;
use ghostdb_storage::{ColumnType, FlashTable, HiddenColumn, Value};
use ghostdb_token::RamArena;
use proptest::prelude::*;

const PAGE_SIZES: [usize; 4] = [256, 512, 1024, 2048];

fn device(page_size: usize, timing: FlashTiming) -> (FlashDevice, SegmentAllocator, RamArena) {
    let geometry = FlashGeometry {
        page_size,
        pages_per_block: 32,
        block_count: 48,
        spare_blocks: 4,
    };
    let dev = FlashDevice::new(geometry, timing);
    let alloc = SegmentAllocator::new(dev.logical_pages());
    (dev, alloc, RamArena::new(page_size, 4))
}

/// Table 1 timing, or another page-load/transfer pair (the read rule is
/// derived from the timing, so it must hold for any).
fn timing(table1: bool, read_page_us: u64, transfer_ns_per_byte: u64) -> FlashTiming {
    if table1 {
        return FlashTiming::default();
    }
    FlashTiming {
        read_page_us,
        transfer_ns_per_byte,
        ..FlashTiming::default()
    }
}

/// Ascending, distinct rows below `n` from seeded runs `(start, len)`:
/// dense stretches and isolated rows alike.
fn row_set(n: u64, runs: &[(u64, u64)]) -> Vec<u64> {
    let mut rows: Vec<u64> = runs
        .iter()
        .flat_map(|(start, len)| {
            let start = start % n;
            start..(start + len).min(n)
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// The requested rows grouped by page, as in-page slots.
fn by_page(rows: &[u64], per_page: u64) -> Vec<(u64, Vec<u64>)> {
    rows.chunk_by(|a, b| a / per_page == b / per_page)
        .map(|c| (c[0] / per_page, c.iter().map(|r| r % per_page).collect()))
        .collect()
}

/// Bytes used on `page` of a `rows`-record store.
fn used(rows: u64, per_page: u64, page: u64, width: usize) -> usize {
    (rows - page * per_page).min(per_page) as usize * width
}

/// One read spanning the records `slots[0]..=slots[last]`.
fn range_cost(slots: &[u64], width: usize, t: &FlashTiming) -> u128 {
    t.read_cost_ns((slots[slots.len() - 1] - slots[0] + 1) as usize * width)
}

/// Cheapest cover of `slots` (ascending) by byte ranges, one read each.
/// A cheapest cover's ranges start and end at requested records, so it
/// splits the slots into consecutive runs: small sets try every split,
/// larger ones take the exact minimum over all splits by dynamic
/// programming over the last run.
fn cheapest_cover(slots: &[u64], width: usize, t: &FlashTiming) -> u128 {
    let k = slots.len();
    if k <= 12 {
        return (0..1u32 << (k - 1))
            .map(|splits| {
                let mut cost = 0;
                let mut first = 0;
                for i in 1..=k {
                    if i == k || splits >> (i - 1) & 1 == 1 {
                        cost += range_cost(&slots[first..i], width, t);
                        first = i;
                    }
                }
                cost
            })
            .min()
            .expect("at least one cover");
    }
    let mut best = vec![0u128; k + 1];
    for j in 1..=k {
        best[j] = (0..j)
            .map(|i| best[i] + range_cost(&slots[i..j], width, t))
            .min()
            .expect("non-empty");
    }
    best[k]
}

/// Read `rows` through a table reader with one page of look-ahead, as
/// `SJoin` does; returns the rows and the counters it took.
fn look_ahead_read(
    dev: &mut FlashDevice,
    ram: &RamArena,
    table: &FlashTable,
    rows: &[u64],
) -> (Vec<Vec<u8>>, FlashStats) {
    let mut reader = table.reader(ram, dev.page_size()).unwrap();
    let snap = dev.snapshot();
    let mut set = reader.page_rows();
    let mut out = Vec::with_capacity(rows.len());
    let mut next = 0;
    while next < rows.len() {
        set.clear();
        while next < rows.len() && set.push(rows[next]) {
            next += 1;
        }
        reader.load_rows(dev, &set).unwrap();
        for row in set.rows() {
            out.push(reader.loaded_row(row).unwrap().to_vec());
        }
    }
    (out, dev.stats_since(&snap))
}

/// Row contents of one world: `salt` changes every byte.
fn world(salt: u64) -> impl FnMut(u64, &mut [u8]) {
    move |r, row| {
        for (i, b) in row.iter_mut().enumerate() {
            *b = (r.wrapping_mul(31) ^ salt ^ (i as u64 * 7)) as u8;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_look_ahead_reads_rows_at_the_cheapest_cover(
        page_pick in 0..4usize,
        width_pick in any::<u64>(),
        n_pick in 1..4000u64,
        runs in proptest::collection::vec((any::<u64>(), 1..48u64), 0..24),
        table1 in any::<bool>(),
        read_page_us in 1..60u64,
        transfer in 0..120u64,
    ) {
        let page_size = PAGE_SIZES[page_pick];
        let width = 1 + (width_pick % (page_size as u64 / 2)) as usize;
        let per_page = (page_size / width) as u64;
        let n = n_pick.min(600 * per_page);
        let t = timing(table1, read_page_us, transfer);
        let (mut dev, mut alloc, ram) = device(page_size, t);
        let layout = RowLayout::new(&[width]);
        let a = FlashTable::bulk_load_with(&mut dev, &mut alloc, layout.clone(), n, world(0))
            .unwrap();
        let b = FlashTable::bulk_load_with(&mut dev, &mut alloc, layout, n, world(0x5a)).unwrap();
        let rows = row_set(n, &runs);

        let (got, io) = look_ahead_read(&mut dev, &ram, &a, &rows);
        prop_assert_eq!(got.len(), rows.len());
        for (row, bytes) in rows.iter().zip(&got) {
            let mut want = vec![0u8; width];
            a.read_row(&mut dev, *row, &mut want).unwrap();
            prop_assert_eq!(bytes, &want, "row {}", row);
        }

        let billed = io.elapsed(&t, page_size).as_ns();
        let pages = by_page(&rows, per_page);
        let optimum: u128 = pages.iter().map(|(_, s)| cheapest_cover(s, width, &t)).sum();
        prop_assert_eq!(billed, optimum);
        let whole_pages: u128 = pages
            .iter()
            .map(|(p, _)| t.read_cost_ns(used(n, per_page, *p, width)))
            .sum();
        prop_assert!(billed <= whole_pages, "{} > {}", billed, whole_pages);

        // Another world, same row stream: the same reads.
        let (_, io_b) = look_ahead_read(&mut dev, &ram, &b, &rows);
        prop_assert_eq!(io_b, io);
    }

    #[test]
    fn column_scan_reads_the_rest_of_each_touched_page(
        page_pick in 0..4usize,
        char_col in any::<bool>(),
        width_pick in any::<u64>(),
        n_pick in 1..4000u64,
        runs in proptest::collection::vec((any::<u64>(), 1..48u64), 0..24),
        table1 in any::<bool>(),
        read_page_us in 1..60u64,
        transfer in 0..120u64,
    ) {
        let page_size = PAGE_SIZES[page_pick];
        let ty = if char_col {
            ColumnType::char(1 + (width_pick % (page_size as u64 / 2)) as u16)
        } else {
            ColumnType::Int { width: 1 + (width_pick % 8) as u8 }
        };
        let width = ty.width();
        let per_page = (page_size / width) as u64;
        let n = n_pick.min(600 * per_page);
        let t = timing(table1, read_page_us, transfer);
        let (mut dev, mut alloc, ram) = device(page_size, t);
        let col = HiddenColumn::bulk_load_with(&mut dev, &mut alloc, "h", ty, n, |r| {
            if char_col {
                Value::Str(format!("{}", r % 10))
            } else {
                Value::Int(r as i64 % 100)
            }
        })
        .unwrap();
        let rows = row_set(n, &runs);

        let mut scan = col.scan(&ram, page_size).unwrap();
        let snap = dev.snapshot();
        let got: Vec<Value> = rows
            .iter()
            .map(|r| scan.value_at(&mut dev, *r as u32).unwrap())
            .collect();
        let billed = dev.elapsed_since(&snap).as_ns();
        for (row, v) in rows.iter().zip(&got) {
            prop_assert_eq!(v, &col.get(&mut dev, *row as u32).unwrap(), "row {}", row);
        }

        let pages = by_page(&rows, per_page);
        let rest_of_page: u128 = pages
            .iter()
            .map(|(p, s)| t.read_cost_ns(used(n, per_page, *p, width) - s[0] as usize * width))
            .sum();
        prop_assert_eq!(billed, rest_of_page);
        let whole_pages: u128 = pages
            .iter()
            .map(|(p, _)| t.read_cost_ns(used(n, per_page, *p, width)))
            .sum();
        prop_assert!(billed <= whole_pages, "{} > {}", billed, whole_pages);
    }
}
