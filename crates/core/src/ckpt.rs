//! Durable epoch checkpoints: atomic writes, CRC validation, and
//! recovery to the latest *complete* epoch.
//!
//! The multi-process shard runner cuts the running sweep at epoch
//! boundaries and persists every component's encoded state as one blob.
//! This store makes those blobs survive `kill -9` at any instant:
//!
//! * **Torn writes are impossible to observe.** A checkpoint is written
//!   to a temporary file, `fsync`ed, then `rename`d into place — readers
//!   only ever see a file that was completely written or not at all. The
//!   directory is `fsync`ed after the rename so the entry itself is
//!   durable.
//! * **Corruption is detected, not trusted.** Every file carries a magic,
//!   a version, its payload length and a CRC-32 over the payload. A
//!   truncated or bit-flipped file fails validation and recovery falls
//!   back to the previous epoch.
//! * **The files are the only source of truth.** Recovery scans
//!   `ckpt-*.bin` newest-first and takes the first that validates;
//!   anything else in the directory is ignored.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use wire::{crc32, Reader, WireError};

/// File magic: "MMCK" (MarketMiner ChecKpoint).
const MAGIC: [u8; 4] = *b"MMCK";
/// Format version. Bumped whenever any component's encoded state changes
/// layout, so a file written by an older build is refused by version
/// ([`Rejected::UnsupportedVersion`]) instead of being offered to
/// decoders that would misread it. Version 9: a stream node keeps one
/// open batch for all its parameter sets, the gateway keeps per-stream
/// watermarks, and a node's cut carries `received`, `sent` and
/// `next_out` beside its state (CHANGES.md records every earlier bump).
pub const VERSION: u8 = 9;
/// Fixed header: magic(4) + version(1) + epoch(8) + len(8) + crc(4).
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// A checkpoint store error.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// No valid checkpoint exists; every file found was refused.
    NoCheckpoint {
        /// The refused files, newest first.
        rejected: Vec<CorruptCheckpoint>,
    },
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io: {e}"),
            CkptError::NoCheckpoint { rejected } => write!(
                f,
                "no valid checkpoint on disk ({} refused)",
                rejected.len()
            ),
        }
    }
}

/// Why a checkpoint file was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The file could not be read.
    Unreadable(String),
    /// Shorter than the fixed header.
    TruncatedHeader,
    /// Not a checkpoint file.
    BadMagic,
    /// Written under another format version (by another build): its
    /// payload layout is not this build's.
    UnsupportedVersion(u8),
    /// Shorter than its header claims.
    TruncatedPayload,
    /// Longer than its header claims.
    TrailingBytes,
    /// The payload does not match its CRC-32.
    CrcMismatch,
    /// The header's epoch is not the one the file name claims.
    EpochMismatch(u64),
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Unreadable(e) => write!(f, "unreadable: {e}"),
            Rejected::TruncatedHeader => write!(f, "truncated header"),
            Rejected::BadMagic => write!(f, "bad magic"),
            Rejected::UnsupportedVersion(v) => {
                write!(f, "format version {v}, this build reads {VERSION}")
            }
            Rejected::TruncatedPayload => write!(f, "truncated payload"),
            Rejected::TrailingBytes => write!(f, "trailing bytes"),
            Rejected::CrcMismatch => write!(f, "crc mismatch"),
            Rejected::EpochMismatch(e) => write!(f, "epoch mismatch: file says {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// A checkpoint file that failed validation during recovery, reported so
/// the caller can log a `checkpoint.corrupt` incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptCheckpoint {
    /// The offending file.
    pub path: PathBuf,
    /// The epoch its name claims.
    pub epoch: u64,
    /// Why validation failed.
    pub reason: Rejected,
}

/// The result of recovery: the newest valid checkpoint plus every newer
/// file that had to be skipped.
#[derive(Debug)]
pub struct Recovered {
    /// Epoch of the loaded checkpoint.
    pub epoch: u64,
    /// Its payload.
    pub payload: Vec<u8>,
    /// Newer checkpoint files that failed validation (newest first).
    pub corrupt: Vec<CorruptCheckpoint>,
}

/// Outcome of one durable save, for telemetry.
#[derive(Debug, Clone, Copy)]
pub struct SaveReport {
    /// Bytes written (header + payload).
    pub bytes: u64,
    /// Wall time of the save, microseconds.
    pub write_us: u64,
    /// `fsync` calls issued (file + directory).
    pub fsyncs: u32,
}

/// A directory of epoch checkpoints with atomic save and validated
/// recovery.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

fn ckpt_name(epoch: u64) -> String {
    format!("ckpt-{epoch:010}.bin")
}

fn parse_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn fsync_dir(&self) -> std::io::Result<()> {
        // Durability of the rename itself. Directory fsync is a no-op on
        // some platforms; best effort beyond Linux.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Durably save `payload` as the checkpoint for `epoch`.
    ///
    /// Write path: tmp file → fsync → rename → fsync dir. A crash at any
    /// point leaves either the old or the new checkpoint fully intact and
    /// discoverable.
    pub fn save(&self, epoch: u64, payload: &[u8]) -> Result<SaveReport, CkptError> {
        let start = std::time::Instant::now();

        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5..13].copy_from_slice(&epoch.to_le_bytes());
        header[13..21].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        header[21..].copy_from_slice(&crc32(payload).to_le_bytes());

        let tmp = self.dir.join(format!(".tmp-{}", ckpt_name(epoch)));
        let fin = self.dir.join(ckpt_name(epoch));
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&header)?;
            f.write_all(payload)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &fin)?;
        self.fsync_dir()?;

        Ok(SaveReport {
            bytes: (HEADER_LEN + payload.len()) as u64,
            write_us: start.elapsed().as_micros() as u64,
            // The file, then the directory entry the rename made.
            fsyncs: 2,
        })
    }

    /// Validate and load one checkpoint file, returning `(epoch, payload)`.
    fn load_file(path: &Path) -> Result<(u64, Vec<u8>), Rejected> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| Rejected::Unreadable(e.to_string()))?;
        if bytes.len() < HEADER_LEN {
            return Err(Rejected::TruncatedHeader);
        }
        let mut r = Reader::new(&bytes);
        let magic = r.take(4).expect("header length checked");
        if magic != MAGIC {
            return Err(Rejected::BadMagic);
        }
        let version = r.take(1).expect("header length checked")[0];
        if version != VERSION {
            return Err(Rejected::UnsupportedVersion(version));
        }
        let word = |r: &mut Reader<'_>| -> u64 {
            u64::from_le_bytes(r.take(8).unwrap().try_into().unwrap())
        };
        let epoch = word(&mut r);
        let len = word(&mut r) as usize;
        let crc = u32::from_le_bytes(r.take(4).unwrap().try_into().unwrap());
        let payload = r
            .take(len)
            .map_err(|_: WireError| Rejected::TruncatedPayload)?;
        if !r.is_empty() {
            return Err(Rejected::TrailingBytes);
        }
        if crc32(payload) != crc {
            return Err(Rejected::CrcMismatch);
        }
        Ok((epoch, payload.to_vec()))
    }

    /// All checkpoint epochs on disk, descending (no validation).
    fn epochs_desc(&self) -> Result<Vec<u64>, CkptError> {
        let mut epochs: Vec<u64> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| parse_epoch(&e.file_name().to_string_lossy()))
            .collect();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        Ok(epochs)
    }

    /// Recover the newest *valid* checkpoint.
    ///
    /// The newest epoch on disk is tried first; on any validation failure
    /// the scan falls back through older epochs, collecting a
    /// [`CorruptCheckpoint`] record for each skipped file. Returns
    /// [`CkptError::NoCheckpoint`] (carrying those records) when nothing
    /// valid exists.
    pub fn recover(&self) -> Result<Recovered, CkptError> {
        let mut corrupt = Vec::new();
        for epoch in self.epochs_desc()? {
            let path = self.dir.join(ckpt_name(epoch));
            match Self::load_file(&path) {
                Ok((file_epoch, payload)) if file_epoch == epoch => {
                    return Ok(Recovered {
                        epoch,
                        payload,
                        corrupt,
                    });
                }
                Ok((file_epoch, _)) => corrupt.push(CorruptCheckpoint {
                    path,
                    epoch,
                    reason: Rejected::EpochMismatch(file_epoch),
                }),
                Err(reason) => corrupt.push(CorruptCheckpoint {
                    path,
                    epoch,
                    reason,
                }),
            }
        }
        Err(CkptError::NoCheckpoint { rejected: corrupt })
    }

    /// Delete all but the newest `keep` checkpoints.
    pub fn retain_last(&self, keep: usize) -> Result<(), CkptError> {
        for epoch in self.epochs_desc()?.into_iter().skip(keep) {
            let _ = fs::remove_file(self.dir.join(ckpt_name(epoch)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mm-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn save_and_recover_roundtrip() {
        let store = CheckpointStore::open(tmpdir("roundtrip")).unwrap();
        let report = store.save(0, b"epoch zero").unwrap();
        assert!(report.bytes > 10);
        assert_eq!(report.fsyncs, 2);
        store.save(1, b"epoch one").unwrap();
        let r = store.recover().unwrap();
        assert_eq!(r.epoch, 1);
        assert_eq!(r.payload, b"epoch one");
        assert!(r.corrupt.is_empty());
    }

    #[test]
    fn truncation_falls_back_to_previous_epoch() {
        let store = CheckpointStore::open(tmpdir("truncate")).unwrap();
        store.save(3, b"good old state").unwrap();
        store.save(4, b"the torn one").unwrap();
        // Simulate a torn write that somehow survived (e.g. silent disk
        // truncation after the rename): chop the newest file mid-payload.
        let newest = store.dir().join(ckpt_name(4));
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() - 5]).unwrap();

        let r = store.recover().unwrap();
        assert_eq!(r.epoch, 3);
        assert_eq!(r.payload, b"good old state");
        assert_eq!(r.corrupt.len(), 1);
        assert_eq!(r.corrupt[0].epoch, 4);
        assert_eq!(r.corrupt[0].reason, Rejected::TruncatedPayload);
    }

    #[test]
    fn bit_flip_falls_back_to_previous_epoch() {
        let store = CheckpointStore::open(tmpdir("bitflip")).unwrap();
        store.save(7, b"pristine").unwrap();
        store.save(8, b"will be flipped").unwrap();
        let newest = store.dir().join(ckpt_name(8));
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip one payload bit
        fs::write(&newest, &bytes).unwrap();

        let r = store.recover().unwrap();
        assert_eq!(r.epoch, 7);
        assert_eq!(r.corrupt.len(), 1);
        assert_eq!(r.corrupt[0].reason, Rejected::CrcMismatch);
    }

    /// A directory written by a build that kept a `MANIFEST` pointer:
    /// the stale file names an epoch that is not the newest (or not
    /// there at all) and changes nothing.
    #[test]
    fn a_stale_manifest_is_ignored() {
        let store = CheckpointStore::open(tmpdir("stale-manifest")).unwrap();
        store.save(1, b"a").unwrap();
        store.save(2, b"b").unwrap();
        for stale in [ckpt_name(1), ckpt_name(9), "not a checkpoint name".into()] {
            fs::write(store.dir().join("MANIFEST"), stale).unwrap();
            let r = store.recover().unwrap();
            assert_eq!((r.epoch, r.payload.as_slice()), (2, &b"b"[..]));
            assert!(r.corrupt.is_empty());
        }
        store.save(3, b"c").unwrap();
        store.retain_last(1).unwrap();
        assert_eq!(store.recover().unwrap().epoch, 3);
        assert!(store.dir().join("MANIFEST").exists(), "not ours to delete");
    }

    #[test]
    fn empty_store_reports_no_checkpoint() {
        let store = CheckpointStore::open(tmpdir("empty")).unwrap();
        assert!(matches!(
            store.recover(),
            Err(CkptError::NoCheckpoint { rejected }) if rejected.is_empty()
        ));
    }

    #[test]
    fn retain_last_prunes_old_epochs() {
        let store = CheckpointStore::open(tmpdir("retain")).unwrap();
        for e in 0..6 {
            store.save(e, format!("e{e}").as_bytes()).unwrap();
        }
        store.retain_last(2).unwrap();
        let r = store.recover().unwrap();
        assert_eq!(r.epoch, 5);
        // Only 4 and 5 remain.
        let mut left: Vec<u64> = fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| parse_epoch(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        left.sort_unstable();
        assert_eq!(left, vec![4, 5]);
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let store = CheckpointStore::open(tmpdir("magic")).unwrap();
        store.save(0, b"ok").unwrap();
        store.save(1, b"bad").unwrap();
        let newest = store.dir().join(ckpt_name(1));
        let mut bytes = fs::read(&newest).unwrap();
        bytes[0] = b'X';
        fs::write(&newest, &bytes).unwrap();
        let r = store.recover().unwrap();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.corrupt[0].reason, Rejected::BadMagic);
    }

    #[test]
    fn another_format_version_is_refused_not_decoded() {
        let store = CheckpointStore::open(tmpdir("version")).unwrap();
        store.save(5, b"state in another layout").unwrap();
        let path = store.dir().join(ckpt_name(5));
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = VERSION - 1; // the CRC covers the payload only
        fs::write(&path, &bytes).unwrap();
        match store.recover() {
            Err(CkptError::NoCheckpoint { rejected }) => {
                assert_eq!(rejected.len(), 1);
                assert_eq!(rejected[0].epoch, 5);
                assert_eq!(
                    rejected[0].reason,
                    Rejected::UnsupportedVersion(VERSION - 1)
                );
            }
            other => panic!("an old-format file must be refused, got {other:?}"),
        }
    }
}
