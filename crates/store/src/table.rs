//! Typed tables over the segmented WAL.
//!
//! A [`Table<T>`] stores rows of any `Serialize + DeserializeOwned` type,
//! keyed by a `u64` row id the table assigns. Mutations are WAL-logged as
//! JSON operations before the in-memory index changes; a compaction
//! persists the whole index as a snapshot and drops the log segments.
//!
//! On-disk layout for a table named `readings` in directory `dir`:
//!
//! ```text
//! dir/readings.snap      — JSON snapshot: { next_id, rows: { id -> row } }
//! dir/readings.wal.<seq> — redo-log segments since the snapshot; the
//!                          highest sequence number is the active tail
//! ```
//!
//! Compaction durability order (each step is a barrier for the next):
//! temp snapshot written **and fsynced**, renamed over the live snapshot,
//! parent directory fsynced, and only then the log truncated — so a crash
//! at any point leaves either the old snapshot + full log or the new
//! snapshot (+ a replayable, idempotent log suffix), never a hole.

use crate::segment::{RecoveredRecord, SegmentConfig, SegmentedLog};
use crate::wal::{WalOp, HEADER_LEN};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Below this many recovered records in a segment, replay decodes them on
/// the opening thread; from this count on, decoding fans out over
/// `imcf-pool` workers.
/// Measured with ≈280-byte records on a 2-core VM (≈3 µs to decode each):
/// the pool broke even at about 256 records and was ahead from 512 on.
const PARALLEL_DECODE_MIN_RECORDS: usize = 512;

/// A logged mutation.
#[derive(Debug, Serialize, Deserialize)]
enum Op<T> {
    Insert { id: u64, row: T },
    Update { id: u64, row: T },
    Delete { id: u64 },
}

#[derive(Debug, Serialize, Deserialize)]
struct Snapshot<T> {
    next_id: u64,
    rows: BTreeMap<u64, T>,
}

/// Errors from table operations.
#[derive(Debug)]
pub enum TableError {
    /// An I/O failure from the log or snapshot files.
    Io(io::Error),
    /// A serialization failure.
    Codec(serde_json::Error),
    /// The row id does not exist.
    NoSuchRow(u64),
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::Io(e) => write!(f, "i/o error: {e}"),
            TableError::Codec(e) => write!(f, "codec error: {e}"),
            TableError::NoSuchRow(id) => write!(f, "no such row {id}"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<io::Error> for TableError {
    fn from(e: io::Error) -> Self {
        TableError::Io(e)
    }
}

impl From<serde_json::Error> for TableError {
    fn from(e: serde_json::Error) -> Self {
        TableError::Codec(e)
    }
}

/// A persistent, WAL-backed table of typed rows.
pub struct Table<T> {
    name: String,
    snap_path: PathBuf,
    log: SegmentedLog,
    rows: BTreeMap<u64, T>,
    next_id: u64,
}

impl<T: Serialize + DeserializeOwned + Clone + Send> Table<T> {
    /// Opens (or creates) the table `name` in `dir` with the default
    /// segment configuration.
    pub fn open(dir: impl AsRef<Path>, name: &str) -> Result<Table<T>, TableError> {
        Self::open_with(dir, name, SegmentConfig::default())
    }

    /// Opens (or creates) the table `name` in `dir`, loading the snapshot
    /// and replaying the WAL segments in sequence order. Each segment's
    /// records are decoded across the pool, then applied one by one in
    /// log order.
    pub fn open_with(
        dir: impl AsRef<Path>,
        name: &str,
        config: SegmentConfig,
    ) -> Result<Table<T>, TableError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snap_path = dir.join(format!("{name}.snap"));

        // A `.snap.tmp` left behind by a crash mid-compaction is garbage:
        // the rename never happened, so the live snapshot is still the
        // authority. Remove the orphan so it cannot accumulate.
        let orphan = snap_path.with_extension("snap.tmp");
        match std::fs::remove_file(&orphan) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }

        let (mut rows, mut next_id) = match std::fs::read(&snap_path) {
            Ok(bytes) => {
                let snap: Snapshot<T> = serde_json::from_slice(&bytes)?;
                (snap.rows, snap.next_id)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (BTreeMap::new(), 0),
            Err(e) => return Err(e.into()),
        };

        let recovery = imcf_telemetry::Stopwatch::start();
        let mut log = SegmentedLog::open(dir, name, config)?;
        // One segment at a time: its records decode, apply in log order,
        // and its buffer is dropped before the next segment decodes.
        for segment in log.take_recovered().into_segments() {
            let records: Vec<RecoveredRecord<'_>> = segment.records().collect();
            let ops = decode_ops::<T>(&records);
            let decoded = ops.len();
            for op in ops {
                match op {
                    Op::Insert { id, row } => {
                        rows.insert(id, row);
                        next_id = next_id.max(id + 1);
                    }
                    Op::Update { id, row } => {
                        rows.insert(id, row);
                    }
                    Op::Delete { id } => {
                        rows.remove(&id);
                    }
                }
            }
            if let Some(record) = records.get(decoded) {
                // A CRC-valid record that fails to decode (a version
                // mismatch) ends replay — and must also end the *log*,
                // truncated right before the undecodable record.
                // Otherwise later appends would land beyond records that
                // are silently never replayed on the next open.
                let framed = (HEADER_LEN + record.payload.len()) as u64;
                let start = record.end_offset.saturating_sub(framed);
                log.truncate_to(record.seq, start)?;
                break;
            }
        }
        imcf_telemetry::global()
            .histogram("store.recovery_micros")
            .observe(recovery.elapsed_micros() as f64);
        let table = Table {
            name: name.to_string(),
            snap_path,
            log,
            rows,
            next_id,
        };
        table.update_segment_gauge();
        Ok(table)
    }

    fn update_segment_gauge(&self) {
        imcf_telemetry::global()
            .gauge_with("store.segments", &[("table", &self.name)])
            .set(self.log.segment_count() as f64);
    }

    /// Inserts a row and returns its id.
    pub fn insert(&mut self, row: T) -> Result<u64, TableError> {
        let row_json = serde_json::to_vec(&row)?;
        self.insert_with_encoded_row(row, &row_json)
    }

    /// Insert with the row JSON already encoded — [`crate::commit`] uses
    /// this to keep serialization outside the table lock. The op record is
    /// assembled by hand in the exact shape `Op::Insert` serializes to, so
    /// replay decodes it identically.
    pub(crate) fn insert_with_encoded_row(
        &mut self,
        row: T,
        row_json: &[u8],
    ) -> Result<u64, TableError> {
        let id = self.next_id;
        let mut payload = Vec::with_capacity(row_json.len() + 32);
        payload.extend_from_slice(b"{\"Insert\":{\"id\":");
        payload.extend_from_slice(id.to_string().as_bytes());
        payload.extend_from_slice(b",\"row\":");
        payload.extend_from_slice(row_json);
        payload.extend_from_slice(b"}}");
        self.log.append(&payload)?;
        self.rows.insert(id, row);
        self.next_id += 1;
        Ok(id)
    }

    /// Replaces the row at `id`.
    pub fn update(&mut self, id: u64, row: T) -> Result<(), TableError> {
        if !self.rows.contains_key(&id) {
            return Err(TableError::NoSuchRow(id));
        }
        let op = Op::Update {
            id,
            row: row.clone(),
        };
        self.log.append(&serde_json::to_vec(&op)?)?;
        self.rows.insert(id, row);
        Ok(())
    }

    /// Deletes the row at `id`.
    pub fn delete(&mut self, id: u64) -> Result<(), TableError> {
        if !self.rows.contains_key(&id) {
            return Err(TableError::NoSuchRow(id));
        }
        let op: Op<T> = Op::Delete { id };
        self.log.append(&serde_json::to_vec(&op)?)?;
        self.rows.remove(&id);
        Ok(())
    }

    /// Fetches a row by id.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.rows.get(&id)
    }

    /// Iterates over `(id, row)` pairs in id order.
    pub fn scan(&self) -> impl Iterator<Item = (u64, &T)> {
        self.rows.iter().map(|(id, row)| (*id, row))
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Forces the WAL to disk.
    pub fn sync(&mut self) -> Result<(), TableError> {
        self.log.sync()?;
        Ok(())
    }

    /// Snapshot of the current log position plus a file handle that, once
    /// `sync_data`-ed, makes everything up to that position durable. The
    /// group commit leader calls this under the table lock, then fsyncs
    /// the handle with the lock released so writers keep appending.
    pub(crate) fn sync_prepare(&mut self) -> Result<(u64, std::fs::File), TableError> {
        let goal = self.log.lsn();
        let file = self.log.sync_handle()?;
        Ok((goal, file))
    }

    /// Persists the full state as a snapshot and truncates the log
    /// (sequential compaction; [`Table::compact`] is the parallel form).
    pub fn snapshot(&mut self) -> Result<(), TableError> {
        self.log.check_fault(WalOp::Compact)?;
        let mut parts = Vec::with_capacity(self.rows.len());
        for (id, row) in &self.rows {
            parts.push(encode_pair(*id, row)?);
        }
        let bytes = assemble_snapshot(self.next_id, &parts);
        self.finish_compaction(bytes)
    }

    /// Writes the snapshot durably (fsync before and after the rename),
    /// then truncates the log — the crash-safe publication order.
    fn finish_compaction(&mut self, bytes: Vec<u8>) -> Result<(), TableError> {
        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            // The snapshot's bytes must hit disk before the rename makes
            // them the authority — a rename can survive a crash that the
            // unflushed data does not.
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.snap_path)?;
        if let Some(parent) = self.snap_path.parent() {
            // Persist the rename (a directory-entry change) before the
            // log it supersedes is destroyed.
            std::fs::File::open(parent)?.sync_all()?;
        }
        self.log.truncate_all()?;
        imcf_telemetry::global().counter("store.compactions").inc();
        self.update_segment_gauge();
        Ok(())
    }

    /// Bytes currently in the WAL segments (useful for compaction
    /// policies).
    pub fn wal_bytes(&self) -> u64 {
        self.log.tail_bytes()
    }

    /// Number of on-disk log segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }

    /// Number of sealed (read-only) segments awaiting compaction.
    pub fn sealed_count(&self) -> usize {
        self.log.sealed_count()
    }

    /// Monotonic log position (bytes ever appended); group commit compares
    /// these positions to decide which callers an fsync satisfied.
    pub fn wal_lsn(&self) -> u64 {
        self.log.lsn()
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs a fault hook on the underlying log (see
    /// [`crate::wal::Wal::set_fault_hook`]). Injected errors surface from
    /// `insert` / `update` / `delete` / `sync` / `snapshot` / `compact` as
    /// [`TableError::Io`]; the in-memory index is not mutated when the log
    /// write fails.
    pub fn set_wal_fault_hook<F>(&mut self, hook: F)
    where
        F: Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static,
    {
        self.log.set_fault_hook(hook);
    }

    /// Removes the WAL fault hook.
    pub fn clear_wal_fault_hook(&mut self) {
        self.log.clear_fault_hook();
    }
}

impl<T: Serialize + DeserializeOwned + Clone + Send + Sync> Table<T> {
    /// Compacts the table: rewrites the live rows into a fresh snapshot —
    /// row encoding fanned out over `jobs` `imcf-pool` workers — and drops
    /// the log segments. The snapshot bytes are byte-identical for any
    /// `jobs` value: workers encode disjoint rows and the parts are
    /// concatenated in id order.
    pub fn compact(&mut self, jobs: usize) -> Result<(), TableError> {
        self.log.check_fault(WalOp::Compact)?;
        let pairs: Vec<(u64, &T)> = self.rows.iter().map(|(id, row)| (*id, row)).collect();
        let encoded = imcf_pool::map_indexed(jobs, pairs, |_, (id, row)| {
            encode_pair(id, row).map_err(|e| e.to_string())
        });
        let mut parts = Vec::with_capacity(encoded.len());
        for part in encoded {
            parts.push(part.map_err(io::Error::other)?);
        }
        let bytes = assemble_snapshot(self.next_id, &parts);
        self.finish_compaction(bytes)
    }
}

/// Decodes recovered op records in log order, stopping before the first
/// that does not decode. From [`PARALLEL_DECODE_MIN_RECORDS`] on, the
/// records decode on `imcf-pool` workers; the results come back in index
/// order, so the prefix equals a sequential decode.
fn decode_ops<T: DeserializeOwned + Send>(records: &[RecoveredRecord<'_>]) -> Vec<Op<T>> {
    let jobs = if records.len() < PARALLEL_DECODE_MIN_RECORDS {
        1
    } else {
        imcf_pool::available_jobs()
    };
    imcf_pool::map_indexed(jobs, records.to_vec(), |_, record| {
        serde_json::from_slice::<Op<T>>(record.payload).ok()
    })
    .into_iter()
    .map_while(std::convert::identity)
    .collect()
}

/// Encodes one `id: row` snapshot entry as JSON object-member bytes.
fn encode_pair<T: Serialize>(id: u64, row: &T) -> Result<Vec<u8>, TableError> {
    let mut out = format!("\"{id}\":").into_bytes();
    out.extend_from_slice(&serde_json::to_vec(row)?);
    Ok(out)
}

/// Assembles the snapshot document from pre-encoded `id: row` members.
/// The layout matches what `serde_json` produces for [`Snapshot`], so
/// snapshots written by any engine version parse identically.
fn assemble_snapshot(next_id: u64, parts: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(body + parts.len() + 32);
    out.extend_from_slice(format!("{{\"next_id\":{next_id},\"rows\":{{").as_bytes());
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(part);
    }
    out.extend_from_slice(b"}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_path;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Pref {
        user: String,
        kwh_limit: f64,
    }

    fn pref(user: &str, kwh: f64) -> Pref {
        Pref {
            user: user.into(),
            kwh_limit: kwh,
        }
    }

    #[test]
    fn insert_get_scan() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let a = t.insert(pref("father", 165.0)).unwrap();
        let b = t.insert(pref("mother", 165.0)).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.get(a).unwrap().user, "father");
        assert_eq!(t.len(), 2);
        let users: Vec<&str> = t.scan().map(|(_, r)| r.user.as_str()).collect();
        assert_eq!(users, vec!["father", "mother"]);
    }

    #[test]
    fn update_and_delete() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let id = t.insert(pref("daughter", 100.0)).unwrap();
        t.update(id, pref("daughter", 120.0)).unwrap();
        assert_eq!(t.get(id).unwrap().kwh_limit, 120.0);
        t.delete(id).unwrap();
        assert!(t.get(id).is_none());
        assert!(t.is_empty());
        assert!(matches!(
            t.update(id, pref("x", 1.0)),
            Err(TableError::NoSuchRow(_))
        ));
        assert!(matches!(t.delete(id), Err(TableError::NoSuchRow(_))));
    }

    #[test]
    fn reopen_replays_wal() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("father", 165.0)).unwrap();
            let id = t.insert(pref("mother", 165.0)).unwrap();
            t.update(id, pref("mother", 150.0)).unwrap();
            t.sync().unwrap();
        }
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 2);
        let mother = t.scan().find(|(_, r)| r.user == "mother").unwrap().1;
        assert_eq!(mother.kwh_limit, 150.0);
    }

    #[test]
    fn snapshot_compacts_and_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            for i in 0..10 {
                t.insert(pref(&format!("u{i}"), i as f64)).unwrap();
            }
            assert!(t.wal_bytes() > 0);
            t.snapshot().unwrap();
            assert_eq!(t.wal_bytes(), 0);
            // Post-snapshot mutations land in the fresh WAL.
            t.insert(pref("late", 9.0)).unwrap();
        }
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 11);
        assert!(t.scan().any(|(_, r)| r.user == "late"));
    }

    #[test]
    fn parallel_compaction_is_byte_identical_to_sequential() {
        let dir = tempfile::tempdir().unwrap();
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        for jobs in [1usize, 4] {
            let sub = dir.path().join(format!("jobs{jobs}"));
            let mut t: Table<Pref> = Table::open(&sub, "prefs").unwrap();
            for i in 0..64 {
                t.insert(pref(&format!("user-{i}"), i as f64 * 0.5))
                    .unwrap();
            }
            t.compact(jobs).unwrap();
            snaps.push(std::fs::read(sub.join("prefs.snap")).unwrap());
        }
        assert_eq!(
            snaps[0], snaps[1],
            "snapshot bytes must not depend on --jobs"
        );
        // And the hand-assembled document round-trips through serde.
        let parsed: Snapshot<Pref> = serde_json::from_slice(&snaps[0]).unwrap();
        assert_eq!(parsed.rows.len(), 64);
        assert_eq!(parsed.next_id, 64);
    }

    #[test]
    fn ids_not_reused_after_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let first;
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            first = t.insert(pref("a", 1.0)).unwrap();
        }
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let second = t.insert(pref("b", 2.0)).unwrap();
        assert!(second > first);
    }

    #[test]
    fn torn_wal_tail_loses_only_last_op() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("keep", 1.0)).unwrap();
            t.insert(pref("lose", 2.0)).unwrap();
            t.sync().unwrap();
        }
        let wal_path = segment_path(dir.path(), "prefs", 1);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap();
        f.set_len(len - 2).unwrap();

        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.scan().next().unwrap().1.user, "keep");
    }

    #[test]
    fn injected_wal_fault_leaves_index_consistent() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        let id = t.insert(pref("stable", 1.0)).unwrap();
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Append).then(|| io::Error::other("injected: wal_write"))
        });
        assert!(matches!(
            t.insert(pref("ghost", 2.0)),
            Err(TableError::Io(_))
        ));
        assert!(matches!(
            t.update(id, pref("stable", 9.0)),
            Err(TableError::Io(_))
        ));
        assert!(matches!(t.delete(id), Err(TableError::Io(_))));
        // The failed ops never touched the in-memory index.
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap().kwh_limit, 1.0);
        // Sync-only faults: appends work again, sync fails.
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Sync).then(|| io::Error::other("injected: wal_sync"))
        });
        t.insert(pref("landed", 3.0)).unwrap();
        assert!(matches!(t.sync(), Err(TableError::Io(_))));
        t.clear_wal_fault_hook();
        t.sync().unwrap();
        // Everything that reported success is durable across reopen.
        drop(t);
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn injected_truncate_fault_aborts_compaction_without_data_loss() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        for i in 0..5 {
            t.insert(pref(&format!("u{i}"), i as f64)).unwrap();
        }
        t.sync().unwrap();
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Truncate).then(|| io::Error::other("injected: wal_truncate"))
        });
        // The snapshot is published but the log truncation fails: the
        // compaction reports the error and every row stays recoverable
        // (replaying the untruncated log over the snapshot is idempotent).
        assert!(matches!(t.snapshot(), Err(TableError::Io(_))));
        assert!(t.wal_bytes() > 0, "log must survive the failed truncate");
        drop(t);
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 5);
        for i in 0..5u64 {
            assert_eq!(t.get(i).unwrap().user, format!("u{i}"));
        }
    }

    #[test]
    fn injected_compact_fault_blocks_snapshot_before_any_write() {
        let dir = tempfile::tempdir().unwrap();
        let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        t.insert(pref("solo", 1.0)).unwrap();
        t.set_wal_fault_hook(|op| {
            matches!(op, WalOp::Compact).then(|| io::Error::other("injected: wal_compact"))
        });
        assert!(matches!(t.snapshot(), Err(TableError::Io(_))));
        assert!(matches!(t.compact(2), Err(TableError::Io(_))));
        // Nothing was published and the log is untouched.
        assert!(!dir.path().join("prefs.snap").exists());
        assert!(t.wal_bytes() > 0);
    }

    #[test]
    fn undecodable_record_truncates_log_so_no_later_append_is_lost() {
        // (rows before the bad record, decodable records planted after it,
        // seal threshold): a one-row table decodes inline; the large one
        // fans decoding out so the bad record falls in a later chunk than
        // the first, and the records after it decode in chunks of their
        // own; with small segments the bad record sits in a later segment
        // than the first, whose ops are already applied.
        let default = SegmentConfig::default().segment_bytes;
        for (before, after, seal) in [
            (1usize, 0usize, default),
            (1536, 512, default),
            (1536, 512, 8192),
        ] {
            let config = SegmentConfig::with_segment_bytes(seal);
            let dir = tempfile::tempdir().unwrap();
            {
                let mut t: Table<Pref> = Table::open_with(dir.path(), "prefs", config).unwrap();
                for i in 0..before {
                    t.insert(pref(&format!("keep-{i}"), 1.0)).unwrap();
                }
                t.sync().unwrap();
            }
            // Plant a CRC-valid record that is not a decodable Op<T> — the
            // shape of a version-mismatched write — then well-formed ops
            // that replay must never reach.
            let segments = crate::segment::segment_files(dir.path(), "prefs").unwrap();
            assert_eq!(segments.len() > 1, seal < default);
            {
                let (_, active) = segments.last().unwrap();
                let mut wal = crate::wal::Wal::open(active).unwrap();
                wal.append(b"{\"not\":\"an op\"}").unwrap();
                for i in 0..after {
                    let op = Op::Insert {
                        id: (before + i) as u64,
                        row: pref("beyond-the-break", 0.0),
                    };
                    wal.append(&serde_json::to_vec(&op).unwrap()).unwrap();
                }
                wal.sync().unwrap();
            }
            // Replay stops at the undecodable record AND the log is
            // truncated there, so the next append lands where replay will
            // find it.
            let mut t: Table<Pref> = Table::open_with(dir.path(), "prefs", config).unwrap();
            assert_eq!(t.len(), before);
            let id = t.insert(pref("after-break", 2.0)).unwrap();
            t.sync().unwrap();
            drop(t);
            // Before the fix, this append sat beyond the undecodable record
            // and silently vanished on every subsequent open.
            let t: Table<Pref> = Table::open_with(dir.path(), "prefs", config).unwrap();
            assert_eq!(t.len(), before + 1);
            assert_eq!(t.get(id).unwrap().user, "after-break");
            assert!(t.scan().all(|(_, r)| r.user != "beyond-the-break"));
        }
    }

    #[test]
    fn chunked_decode_stops_at_the_first_undecodable_record() {
        let n = 3 * PARALLEL_DECODE_MIN_RECORDS;
        let good: Vec<Vec<u8>> = (0..n as u64)
            .map(|id| serde_json::to_vec(&Op::Delete::<Pref> { id }).unwrap())
            .collect();
        // No failure; one at chunk edges and inside chunks; a second,
        // later failure that must not matter.
        let cases = [0, 1, n / 8, n / 2 - 1, n / 2, n - 1]
            .into_iter()
            .flat_map(|first| {
                [
                    vec![first],
                    vec![first, (first + 1).min(n - 1)],
                    vec![first, n - 1],
                ]
            });
        for bad in std::iter::once(vec![]).chain(cases) {
            let mut payloads = good.clone();
            for &i in &bad {
                payloads[i] = b"{}".to_vec();
            }
            let records: Vec<RecoveredRecord<'_>> = (0..n)
                .map(|i| RecoveredRecord {
                    seq: 1,
                    end_offset: i as u64,
                    payload: &payloads[i],
                })
                .collect();
            let ops = decode_ops::<Pref>(&records);
            let first = bad.first().copied();
            assert_eq!(ops.len(), first.unwrap_or(n), "bad records {bad:?}");
            for (i, op) in ops.iter().enumerate() {
                assert!(matches!(op, Op::Delete { id } if *id == i as u64));
            }
        }
    }

    #[test]
    fn orphan_snap_tmp_is_cleaned_on_open() {
        let dir = tempfile::tempdir().unwrap();
        {
            let mut t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
            t.insert(pref("real", 1.0)).unwrap();
            t.snapshot().unwrap();
        }
        // A crash mid-compaction leaves a temp snapshot behind.
        let orphan = dir.path().join("prefs.snap.tmp");
        std::fs::write(&orphan, b"{\"half\":\"written").unwrap();
        let t: Table<Pref> = Table::open(dir.path(), "prefs").unwrap();
        assert_eq!(t.len(), 1);
        assert!(!orphan.exists(), "orphan temp snapshot must be removed");
    }

    #[test]
    fn distinct_tables_are_isolated() {
        let dir = tempfile::tempdir().unwrap();
        let mut a: Table<Pref> = Table::open(dir.path(), "a").unwrap();
        let mut b: Table<Pref> = Table::open(dir.path(), "b").unwrap();
        a.insert(pref("only-in-a", 1.0)).unwrap();
        b.insert(pref("only-in-b", 2.0)).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a.scan().next().unwrap().1.user, "only-in-a");
    }
}
