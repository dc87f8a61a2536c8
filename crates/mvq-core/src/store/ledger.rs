//! Blob-file I/O for the disk tier: atomic persists, deletes,
//! quarantine, and the restart directory scan.
//!
//! Every function here is a free function over a directory path — none
//! takes the cache's lock guard — so all disk I/O happens outside the
//! cache's critical section by construction (the lock-scope lint keeps
//! the call sites honest).

use std::path::Path;

use crate::error::MvqError;

/// Suffix a corrupt blob's unique quarantine name ends in. The restart
/// scan skips quarantined files (they no longer end in `.mvqa`), so a
/// poisoned blob stops counting toward the disk budget and stops being
/// re-read, but stays on disk for post-mortem inspection.
pub(super) const QUARANTINE_SUFFIX: &str = ".corrupt";

/// Monotonic per-process counter making concurrent tmp names unique.
static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Atomically persists `bytes` as `dir/name`: writes to a uniquely
/// named `<name>.<pid>-<n>.mvqa.tmp` sibling, fsyncs it, then renames
/// over the final path. Two racing puts of the same key each write
/// their own tmp file, so the published blob is always one writer's
/// complete bytes — never an interleaving — and a crash strands only
/// tmp files, which the restart scan deletes.
///
/// The `sync_all` before the rename is load-bearing: without it, a
/// crash *after* the rename could publish a truncated or empty blob
/// under the final `.mvqa` name (the rename is a metadata operation
/// and may hit stable storage before the data blocks do), which would
/// then cost a quarantine cycle on every restart that reads it.
pub(super) fn persist_blob(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), MvqError> {
    let path = dir.join(name);
    let n = TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!("{name}.{}-{n}.mvqa.tmp", std::process::id()));
    let write_synced = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        // flush data to stable storage *before* the rename publishes the
        // name; see the doc comment above
        file.sync_all()?;
        std::fs::rename(&tmp, &path)
    };
    write_synced()
        .map_err(|e| MvqError::Codec(format!("cannot persist blob {}: {e}", path.display())))
}

/// Reads `dir/name`, mapping a missing file to `None`.
pub(super) fn load_blob(dir: &Path, name: &str) -> Result<Option<Vec<u8>>, MvqError> {
    let path = dir.join(name);
    match std::fs::read(&path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(MvqError::Codec(format!("cannot read blob {}: {e}", path.display()))),
    }
}

/// Deletes `dir/name`, tolerating a file already gone.
pub(super) fn delete_blob(dir: &Path, name: &str) -> Result<(), MvqError> {
    match std::fs::remove_file(dir.join(name)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(MvqError::Codec(format!("cannot evict blob {name}: {e}"))),
    }
}

/// Moves a corrupt blob out of the addressable namespace by renaming it
/// to a uniquely named `<name>.<pid>-<n>.corrupt` sibling (pid +
/// counter, like tmp names — a fixed `.corrupt` name would let a second
/// corruption of the same key silently clobber the first quarantined
/// file, destroying post-mortem evidence); falls back to deleting the
/// blob when the rename fails (a blob that can be neither quarantined
/// nor removed would poison every future lookup).
pub(super) fn quarantine_blob(dir: &Path, name: &str) -> Result<(), MvqError> {
    let path = dir.join(name);
    let n = TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let quarantined = dir.join(format!("{name}.{}-{n}{QUARANTINE_SUFFIX}", std::process::id()));
    match std::fs::rename(&path, &quarantined) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(rename_err) => match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(remove_err) => Err(MvqError::Codec(format!(
                "cannot quarantine corrupt blob {name}: rename failed ({rename_err}), \
                 remove failed ({remove_err})"
            ))),
        },
    }
}

/// What [`scan_dir`] found: the blob list in replay order, plus how many
/// entries needed the mtime fallback (surfaced in
/// [`super::CacheStats::mtime_fallbacks`]).
pub(super) struct ScanReport {
    /// `(name, len)` pairs sorted least recently written first
    /// (modification time, file name as a deterministic tie-break), the
    /// order the restart admission replays them in.
    pub(super) blobs: Vec<(String, u64)>,
    /// Blobs whose mtime could not be read and were ordered as if written
    /// at scan time instead.
    pub(super) mtime_fallbacks: u64,
}

/// Scans `dir` for blob files, deleting stranded `.mvqa.tmp` files from
/// interrupted puts (unaddressable, and they would leak bytes outside
/// the budget) and skipping foreign content — including `.corrupt`
/// quarantined blobs.
pub(super) fn scan_dir(dir: &Path) -> Result<ScanReport, MvqError> {
    scan_dir_with(dir, |_, meta| meta.modified())
}

/// [`scan_dir`] with the per-blob mtime read injectable, so tests can
/// simulate filesystems whose timestamps are unreadable.
///
/// A blob whose mtime cannot be read is ordered at the scan-time `now` —
/// the *newest*, most conservative position. The old
/// `unwrap_or(UNIX_EPOCH)` fallback put it at the globally stalest
/// position instead, so restart pruning under a disk budget evicted
/// exactly the blobs it knew least about, regardless of their real age.
/// One `now` is captured for the whole scan (not per blob) so fallback
/// entries still order deterministically among themselves by name.
pub(super) fn scan_dir_with(
    dir: &Path,
    mtime: impl Fn(&str, &std::fs::Metadata) -> std::io::Result<std::time::SystemTime>,
) -> Result<ScanReport, MvqError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| MvqError::Codec(format!("cannot scan cache dir {}: {e}", dir.display())))?;
    let now = std::time::SystemTime::now();
    let mut fallbacks = 0u64;
    let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| {
            MvqError::Codec(format!("cannot scan cache dir {}: {e}", dir.display()))
        })?;
        // a non-UTF-8 file name can never have been written by this
        // cache (blob names are ASCII), and admitting it under a lossy
        // name would ledger bytes that `load_blob`/`delete_blob` can
        // never address — a permanent budget leak; skip it as foreign
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if name.ends_with(".mvqa.tmp") {
            match std::fs::remove_file(entry.path()) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(MvqError::Codec(format!(
                        "cannot remove stale tmp blob {name}: {e}"
                    )));
                }
            }
            continue;
        }
        if !name.ends_with(".mvqa") {
            continue; // foreign content (and quarantined blobs) left alone
        }
        let meta = entry
            .metadata()
            .map_err(|e| MvqError::Codec(format!("cannot stat cache blob {name}: {e}")))?;
        if !meta.is_file() {
            continue;
        }
        let mtime = mtime(&name, &meta).unwrap_or_else(|_| {
            fallbacks += 1;
            now
        });
        found.push((name, meta.len(), mtime));
    }
    found.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
    Ok(ScanReport {
        blobs: found.into_iter().map(|(name, len, _)| (name, len)).collect(),
        mtime_fallbacks: fallbacks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mvq-ledger-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn persisted_blob_round_trips_after_a_simulated_short_write() {
        // regression (durability): a crash mid-write used to be able to
        // publish a truncated blob under the final name; with the
        // write-tmp → fsync → rename sequence, an interrupted put leaves
        // only an unaddressable tmp file, and a completed put always
        // round-trips its full bytes
        let dir = tmp_dir("shortwrite");
        let payload = b"full blob bytes that must survive".to_vec();
        // simulate the crash: a short write stranded in a tmp sibling,
        // never renamed — exactly what an interrupted persist leaves
        std::fs::write(dir.join("key.mvqa.1-0.mvqa.tmp"), &payload[..5]).unwrap();
        assert_eq!(load_blob(&dir, "key.mvqa").unwrap(), None, "short write became addressable");
        // the completed persist publishes the full bytes
        persist_blob(&dir, "key.mvqa", &payload).unwrap();
        assert_eq!(load_blob(&dir, "key.mvqa").unwrap(), Some(payload.clone()));
        // the restart scan ledgers the published blob at its full length
        // and deletes the stranded tmp file
        let scanned = scan_dir(&dir).unwrap();
        assert_eq!(scanned.blobs, vec![("key.mvqa".to_string(), payload.len() as u64)]);
        assert_eq!(scanned.mtime_fallbacks, 0, "healthy blobs need no mtime fallback");
        assert!(!dir.join("key.mvqa.1-0.mvqa.tmp").exists(), "tmp orphan survived");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_quarantines_of_one_key_preserve_both_files() {
        // regression (evidence loss): the fixed `<name>.corrupt` target
        // let a second corruption of the same key silently clobber the
        // first quarantined file
        let dir = tmp_dir("quarantine");
        persist_blob(&dir, "key.mvqa", b"first corruption").unwrap();
        quarantine_blob(&dir, "key.mvqa").unwrap();
        persist_blob(&dir, "key.mvqa", b"second corruption").unwrap();
        quarantine_blob(&dir, "key.mvqa").unwrap();
        let quarantined: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(QUARANTINE_SUFFIX))
            .collect();
        assert_eq!(quarantined.len(), 2, "a quarantine clobbered its predecessor: {quarantined:?}");
        // neither is addressable or scanned back in
        assert_eq!(load_blob(&dir, "key.mvqa").unwrap(), None);
        assert!(scan_dir(&dir).unwrap().blobs.is_empty(), "quarantined file was scanned back in");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_mtime_orders_the_blob_newest_not_stalest() {
        // regression (satellite bugfix): `modified().unwrap_or(UNIX_EPOCH)`
        // made any blob with an unreadable mtime the globally *stalest*
        // entry, so restart pruning under a disk budget evicted it first
        // regardless of its real age. The fallback is now the scan-time
        // `now` — the newest, most conservative position — and counted.
        let dir = tmp_dir("mtimefail");
        persist_blob(&dir, "aaa-old.mvqa", b"genuinely old").unwrap();
        persist_blob(&dir, "bbb-unknowable.mvqa", b"mtime unreadable").unwrap();
        persist_blob(&dir, "ccc-new.mvqa", b"genuinely new").unwrap();
        // age the readable blobs so their order is unambiguous
        let base = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        std::fs::File::open(dir.join("aaa-old.mvqa")).unwrap().set_modified(base).unwrap();
        std::fs::File::open(dir.join("ccc-new.mvqa"))
            .unwrap()
            .set_modified(base + std::time::Duration::from_secs(60))
            .unwrap();
        let report = scan_dir_with(&dir, |name, meta| {
            if name.starts_with("bbb") {
                Err(std::io::Error::other("EIO: mtime unreadable"))
            } else {
                meta.modified()
            }
        })
        .unwrap();
        let names: Vec<&str> = report.blobs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["aaa-old.mvqa", "ccc-new.mvqa", "bbb-unknowable.mvqa"],
            "the unknowable blob must sort newest (last to be pruned), not stalest"
        );
        assert_eq!(report.mtime_fallbacks, 1, "the fallback must be counted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_mtime_blobs_scan_in_name_order() {
        // regression (satellite bugfix): under mtime ties (coarse-mtime
        // filesystems make them common) the replay order — and therefore
        // the restart-prune victim set — depended on directory iteration
        // order; ties now break by blob name so two identical restarts
        // prune identically
        let dir = tmp_dir("mtimetie");
        for name in ["zz.mvqa", "aa.mvqa", "mm.mvqa"] {
            persist_blob(&dir, name, b"tied").unwrap();
        }
        let tied = std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(2_000_000);
        for name in ["zz.mvqa", "aa.mvqa", "mm.mvqa"] {
            std::fs::File::open(dir.join(name)).unwrap().set_modified(tied).unwrap();
        }
        let names: Vec<String> =
            scan_dir(&dir).unwrap().blobs.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["aa.mvqa", "mm.mvqa", "zz.mvqa"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn scan_skips_non_utf8_names_instead_of_ledgering_lossy_ones() {
        // regression (restart scan): `to_string_lossy` admitted non-UTF-8
        // entries under a replacement-character name that load/delete
        // could never address, leaking their bytes from the budget forever
        use std::os::unix::ffi::OsStrExt;
        let dir = tmp_dir("nonutf8");
        persist_blob(&dir, "good.mvqa", b"addressable").unwrap();
        let evil = std::ffi::OsStr::from_bytes(b"evil\xFF.mvqa");
        std::fs::write(dir.join(evil), b"unaddressable").unwrap();
        let scanned = scan_dir(&dir).unwrap();
        assert_eq!(
            scanned.blobs,
            vec![("good.mvqa".to_string(), "addressable".len() as u64)],
            "non-UTF-8 entry was ledgered"
        );
        assert!(dir.join(evil).exists(), "foreign non-UTF-8 file was deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
