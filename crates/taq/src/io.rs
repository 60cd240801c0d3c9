//! Tick-data I/O: the binary tape codec and the dataset directory.
//!
//! A day of quotes is stored in a compact binary form (via `bytes`) —
//! what a 50-GB-per-day feed would actually be stored in: a 16-byte
//! header, then 18 bytes per quote. [`save_dataset`] / [`load_dataset`]
//! keep a whole dataset as one such file per day plus its symbol list;
//! that directory is the "Custom TAQ Files" route of Figure 1, which the
//! `pairtrade` tool writes (`generate --out`) and backtests
//! (`backtest --dataset`).

use std::io;

use bytes::{Buf, BufMut, BytesMut};

use crate::dataset::DayData;
use crate::quote::Quote;
use crate::symbol::{Symbol, SymbolTable};
use crate::time::Timestamp;

/// Binary codec magic bytes ("TAQ1").
pub const BINARY_MAGIC: u32 = 0x5441_5131;

/// Encode a day of quotes into the compact binary form.
pub fn encode_binary(day: &DayData) -> BytesMut {
    let mut buf = BytesMut::with_capacity(16 + day.len() * 16);
    buf.put_u32(BINARY_MAGIC);
    buf.put_u16(day.day);
    buf.put_u16(0); // reserved
    buf.put_u64(day.len() as u64);
    for q in day.quotes() {
        buf.put_u32(q.ts.millis);
        buf.put_u16(q.symbol.0);
        buf.put_u32(q.bid_cents);
        buf.put_u32(q.ask_cents);
        buf.put_u16(q.bid_size);
        buf.put_u16(q.ask_size);
    }
    buf
}

/// Binary decoding error.
#[derive(Debug, PartialEq, Eq)]
pub enum BinaryError {
    /// Wrong magic bytes.
    BadMagic,
    /// Buffer ended early.
    Truncated,
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::BadMagic => write!(f, "bad magic"),
            BinaryError::Truncated => write!(f, "truncated buffer"),
        }
    }
}

impl std::error::Error for BinaryError {}

/// Decode a day of quotes from the binary form. `n_symbols` sizes the
/// per-symbol index of the resulting [`DayData`].
pub fn decode_binary(mut buf: &[u8], n_symbols: usize) -> Result<DayData, BinaryError> {
    if buf.remaining() < 16 {
        return Err(BinaryError::Truncated);
    }
    if buf.get_u32() != BINARY_MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let day = buf.get_u16();
    let _reserved = buf.get_u16();
    let count = buf.get_u64() as usize;
    // The count is the file's word: a byte size past `usize` is not there.
    let len = count.checked_mul(18).ok_or(BinaryError::Truncated)?;
    if buf.remaining() < len {
        return Err(BinaryError::Truncated);
    }
    let mut quotes = Vec::with_capacity(count);
    for _ in 0..count {
        quotes.push(Quote {
            ts: Timestamp::new(day, buf.get_u32()),
            symbol: Symbol(buf.get_u16()),
            bid_cents: buf.get_u32(),
            ask_cents: buf.get_u32(),
            bid_size: buf.get_u16(),
            ask_size: buf.get_u16(),
        });
    }
    Ok(DayData::new(day, quotes, n_symbols, Vec::new()))
}

/// Write a day of quotes to a binary file.
pub fn write_binary_file(day: &DayData, path: &std::path::Path) -> io::Result<()> {
    std::fs::write(path, encode_binary(day))
}

/// Read a day of quotes from a binary file.
pub fn read_binary_file(
    path: &std::path::Path,
    n_symbols: usize,
) -> Result<DayData, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    Ok(decode_binary(&bytes, n_symbols)?)
}

/// Persist a whole dataset to a directory: `symbols.txt` (one ticker per
/// line, interning order) plus `day_NNN.taq` binary files.
pub fn save_dataset(ds: &crate::dataset::TickDataset, dir: &std::path::Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("symbols.txt"), ds.symbols.names().join("\n"))?;
    for day in &ds.days {
        write_binary_file(day, &dir.join(format!("day_{:03}.taq", day.day)))?;
    }
    Ok(())
}

/// Load a dataset saved by [`save_dataset`]. Days load in filename order.
pub fn load_dataset(
    dir: &std::path::Path,
) -> Result<crate::dataset::TickDataset, Box<dyn std::error::Error>> {
    let names = std::fs::read_to_string(dir.join("symbols.txt"))?;
    let mut symbols = SymbolTable::new();
    for name in names.lines().filter(|l| !l.is_empty()) {
        symbols.intern(name);
    }
    let mut day_files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension().is_some_and(|e| e == "taq")
                && p.file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with("day_"))
        })
        .collect();
    day_files.sort();
    let n = symbols.len();
    let mut ds = crate::dataset::TickDataset::new(symbols);
    for path in day_files {
        ds.days.push(read_binary_file(&path, n)?);
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{MarketConfig, MarketGenerator};

    fn sample_day() -> (DayData, SymbolTable) {
        let mut cfg = MarketConfig::small(3, 1, 9);
        cfg.micro.quote_rate_hz = 0.01;
        let mut g = MarketGenerator::new(cfg);
        let table = g.symbols().clone();
        (g.next_day().unwrap(), table)
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let (day, table) = sample_day();
        let buf = encode_binary(&day);
        let parsed = decode_binary(&buf, table.len()).unwrap();
        assert_eq!(parsed.day, day.day);
        assert_eq!(parsed.quotes(), day.quotes());
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(matches!(
            decode_binary(&[1, 2, 3], 1),
            Err(BinaryError::Truncated)
        ));
        let mut buf = BytesMut::new();
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u16(0);
        buf.put_u16(0);
        buf.put_u64(0);
        assert!(matches!(decode_binary(&buf, 1), Err(BinaryError::BadMagic)));
        // Claimed count larger than the payload.
        let mut buf = BytesMut::new();
        buf.put_u32(BINARY_MAGIC);
        buf.put_u16(0);
        buf.put_u16(0);
        buf.put_u64(100);
        assert!(matches!(
            decode_binary(&buf, 1),
            Err(BinaryError::Truncated)
        ));
    }

    /// A count whose byte size wraps (⌈2⁶⁴ / 18⌉ × 18 = 2 mod 2⁶⁴) is
    /// refused as truncated, not multiplied past `usize` or allocated.
    #[test]
    fn a_count_whose_size_overflows_is_truncated() {
        let mut buf = BytesMut::new();
        buf.put_u32(BINARY_MAGIC);
        buf.put_u16(0);
        buf.put_u16(0);
        buf.put_u64(1_024_819_115_206_086_201);
        buf.put_u32(0);
        assert_eq!(buf.len(), 20);
        assert!(matches!(
            decode_binary(&buf, 1),
            Err(BinaryError::Truncated)
        ));
    }

    #[test]
    fn dataset_directory_round_trip() {
        let mut cfg = MarketConfig::small(3, 2, 77);
        cfg.micro.quote_rate_hz = 0.005;
        let ds = MarketGenerator::new(cfg).generate();

        let dir = std::env::temp_dir().join(format!("taq_io_test_{}", std::process::id()));
        save_dataset(&ds, &dir).unwrap();
        let loaded = load_dataset(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(loaded.n_stocks(), ds.n_stocks());
        assert_eq!(loaded.n_days(), ds.n_days());
        assert_eq!(loaded.symbols.names(), ds.symbols.names());
        for (a, b) in ds.days.iter().zip(&loaded.days) {
            assert_eq!(a.day, b.day);
            assert_eq!(a.quotes(), b.quotes());
        }
    }

    #[test]
    fn binary_file_round_trip() {
        let (day, table) = sample_day();
        let path = std::env::temp_dir().join(format!("taq_day_test_{}.taq", std::process::id()));
        write_binary_file(&day, &path).unwrap();
        let loaded = read_binary_file(&path, table.len()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.quotes(), day.quotes());
    }

    #[test]
    fn binary_is_compact() {
        let (day, _) = sample_day();
        let buf = encode_binary(&day);
        assert_eq!(buf.len(), 16 + day.len() * 18);
    }
}
