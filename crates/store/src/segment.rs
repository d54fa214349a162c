//! Segmented write-ahead logs.
//!
//! A [`SegmentedLog`] spreads one table's redo log across numbered files
//! `<table>.wal.<seq>` with monotonically increasing sequence numbers. The
//! highest-numbered segment is *active* (appends go there); lower segments
//! are *sealed* — fsynced at the moment they rolled, never written again.
//! A segment seals when the active file reaches the configured threshold,
//! so replay cost and compaction granularity are bounded by segment size,
//! not total history.
//!
//! Recovery discipline across segments extends the single-file torn-tail
//! rule: segments replay in sequence order, and the first segment whose
//! valid record prefix is shorter than its physical length marks the crash
//! point — every later segment is debris of an interrupted roll and is
//! removed, exactly as bytes after a torn record are discarded within one
//! file. Each segment up to that point is read once; its records are
//! handed out as views into that one buffer ([`Recovered`]).

use crate::wal::{Frames, Wal, WalFaultHook, WalOp};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default segment-size threshold: the active segment seals once it holds
/// at least this many bytes.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// Tuning knobs for the segmented log.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Seal the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

impl SegmentConfig {
    /// A config with the given seal threshold (floored at one byte so a
    /// zero threshold cannot seal empty segments forever).
    pub fn with_segment_bytes(segment_bytes: u64) -> Self {
        SegmentConfig {
            segment_bytes: segment_bytes.max(1),
        }
    }
}

/// A sealed (read-only) segment.
#[derive(Debug, Clone)]
struct SealedSegment {
    seq: u64,
    path: PathBuf,
    bytes: u64,
}

/// One record recovered at open, with the coordinates needed to truncate
/// the log right after it (or right before it, via its payload length).
#[derive(Debug, Clone, Copy)]
pub struct RecoveredRecord<'a> {
    /// Sequence number of the segment holding the record.
    pub seq: u64,
    /// Byte offset within that segment at which the record ends.
    pub end_offset: u64,
    /// The record payload.
    pub payload: &'a [u8],
}

/// The records recovered at open: the valid prefix of every replayed
/// segment, each read once into one buffer.
#[derive(Debug, Default)]
pub struct Recovered {
    segments: Vec<RecoveredSegment>,
}

impl Recovered {
    /// Every record, in segment order and then file order.
    pub fn records(&self) -> impl Iterator<Item = RecoveredRecord<'_>> + '_ {
        self.segments.iter().flat_map(RecoveredSegment::records)
    }

    /// The replayed segments in sequence order. Each buffer is freed when
    /// its segment is dropped, so a replay that drops each segment once
    /// applied never holds all of them decoded at once.
    pub fn into_segments(self) -> impl Iterator<Item = RecoveredSegment> {
        self.segments.into_iter()
    }
}

/// The valid record prefix of one replayed segment, read into one buffer.
#[derive(Debug)]
pub struct RecoveredSegment {
    seq: u64,
    frames: Frames,
}

impl RecoveredSegment {
    /// The segment's records, in file order.
    pub fn records(&self) -> impl Iterator<Item = RecoveredRecord<'_>> + '_ {
        self.frames
            .records()
            .map(move |(end_offset, payload)| RecoveredRecord {
                seq: self.seq,
                end_offset,
                payload,
            })
    }
}

/// The path of segment `seq` of table `name` in `dir`.
pub fn segment_path(dir: &Path, name: &str, seq: u64) -> PathBuf {
    dir.join(format!("{name}.wal.{seq}"))
}

/// Lists the on-disk segments of table `name`, sorted by sequence number.
pub fn segment_files(dir: &Path, name: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let prefix = format!("{name}.wal.");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        if let Some(tail) = fname.strip_prefix(prefix.as_str()) {
            if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(seq) = tail.parse::<u64>() {
                    out.push((seq, entry.path()));
                }
            }
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// A write-ahead log split across sealed segments plus one active tail.
pub struct SegmentedLog {
    dir: PathBuf,
    name: String,
    config: SegmentConfig,
    sealed: Vec<SealedSegment>,
    sealed_bytes: u64,
    active: Wal,
    active_seq: u64,
    /// Bytes retired by past compactions; keeps [`SegmentedLog::lsn`]
    /// monotonic across truncation so group commit can compare positions.
    base: u64,
    faults: Option<Arc<WalFaultHook>>,
    recovered: Recovered,
}

impl SegmentedLog {
    /// Opens (or creates) the segmented log for table `name` in `dir`,
    /// applying the cross-segment torn-tail discipline. Each replayed
    /// segment is read and checked once.
    pub fn open(dir: &Path, name: &str, config: SegmentConfig) -> io::Result<SegmentedLog> {
        let mut segs = segment_files(dir, name)?;
        if segs.is_empty() {
            segs.push((1, segment_path(dir, name, 1)));
        }
        let mut wals = Vec::with_capacity(segs.len());
        let mut recovered = Recovered::default();
        for (seq, path) in &segs {
            let (wal, frames) = Wal::open_frames(path)?;
            let torn = wal.has_torn_tail();
            wals.push(wal);
            recovered
                .segments
                .push(RecoveredSegment { seq: *seq, frames });
            if torn {
                break;
            }
        }
        // The first segment whose valid prefix is shorter than its
        // physical length is the crash point: every later segment is the
        // debris of an interrupted roll and must not replay (appends after
        // the tear would otherwise land beyond never-replayed records).
        for (_, path) in segs.drain(wals.len()..) {
            std::fs::remove_file(path)?;
        }
        Self::assemble(dir, name, config, &segs, wals, recovered)
    }

    /// Builds the log over its surviving segments `segs`, opened as `wals`
    /// in sequence order: the last is the active tail, the rest are sealed.
    fn assemble(
        dir: &Path,
        name: &str,
        config: SegmentConfig,
        segs: &[(u64, PathBuf)],
        mut wals: Vec<Wal>,
        recovered: Recovered,
    ) -> io::Result<SegmentedLog> {
        let active = wals
            .pop()
            .ok_or_else(|| io::Error::other("no segments after recovery"))?;
        let (active_seq, _) = segs[wals.len()];
        let sealed: Vec<SealedSegment> = segs
            .iter()
            .zip(&wals)
            .map(|((seq, path), wal)| SealedSegment {
                seq: *seq,
                path: path.clone(),
                bytes: wal.len_bytes(),
            })
            .collect();
        let sealed_bytes = sealed.iter().map(|s| s.bytes).sum();
        Ok(SegmentedLog {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            config,
            sealed,
            sealed_bytes,
            active,
            active_seq,
            base: 0,
            faults: None,
            recovered,
        })
    }

    /// Takes the records recovered at open. Subsequent calls return an
    /// empty set.
    pub fn take_recovered(&mut self) -> Recovered {
        std::mem::take(&mut self.recovered)
    }

    /// Installs a fault hook consulted before every append, sync, seal,
    /// compact and truncate on any segment.
    pub fn set_fault_hook<F>(&mut self, hook: F)
    where
        F: Fn(WalOp) -> Option<io::Error> + Send + Sync + 'static,
    {
        let hook: Arc<WalFaultHook> = Arc::new(hook);
        self.faults = Some(Arc::clone(&hook));
        self.active.set_fault_hook_shared(Some(hook));
    }

    /// Removes the fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.faults = None;
        self.active.set_fault_hook_shared(None);
    }

    /// Consults the fault hook about `op` (no-op without a hook).
    pub fn check_fault(&self, op: WalOp) -> io::Result<()> {
        if let Some(hook) = &self.faults {
            if let Some(err) = hook(op) {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Appends one record, sealing the active segment first when it has
    /// reached the size threshold. Seal-before-append keeps failure atomic:
    /// an injected seal fault leaves the log exactly as it was.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.active.len_bytes() >= self.config.segment_bytes && self.active.len_bytes() > 0 {
            self.seal()?;
        }
        self.active.append(payload)
    }

    /// Seals the active segment (fsync, then roll to the next sequence
    /// number). The sealed file is never written again.
    fn seal(&mut self) -> io::Result<()> {
        self.check_fault(WalOp::Seal)?;
        // A torn tail inherited at open must not survive into a sealed
        // (read-only) file, where no append would ever truncate it.
        self.active.discard_debris()?;
        self.active.sync()?;
        let next_seq = self
            .active_seq
            .checked_add(1)
            .ok_or_else(|| io::Error::other("segment sequence overflow"))?;
        let mut next = Wal::open(segment_path(&self.dir, &self.name, next_seq))?;
        next.set_fault_hook_shared(self.faults.clone());
        let old = std::mem::replace(&mut self.active, next);
        self.sealed_bytes = self.sealed_bytes.saturating_add(old.len_bytes());
        self.sealed.push(SealedSegment {
            seq: self.active_seq,
            path: old.path().to_path_buf(),
            bytes: old.len_bytes(),
        });
        self.active_seq = next_seq;
        Ok(())
    }

    /// Forces an fsync of the active segment (sealed segments were synced
    /// when they rolled).
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync()
    }

    /// A duplicated handle to the active segment, for fsyncing outside the
    /// owner's lock. Consults the fault hook as a [`WalOp::Sync`]. Bytes
    /// up to the current [`SegmentedLog::lsn`] are covered: sealed
    /// segments were fsynced when they rolled, and every active-segment
    /// append is visible through the clone.
    pub(crate) fn sync_handle(&self) -> io::Result<std::fs::File> {
        self.check_fault(WalOp::Sync)?;
        self.active.file_clone()
    }

    /// Truncates the log so that segment `seq` ends at `offset` and no
    /// later segment exists; segment `seq` becomes the active tail. Used
    /// when replay stops mid-log (undecodable record) so later appends can
    /// never land beyond never-replayed records.
    pub fn truncate_to(&mut self, seq: u64, offset: u64) -> io::Result<()> {
        while self.active_seq > seq {
            std::fs::remove_file(self.active.path())?;
            let prev = self
                .sealed
                .pop()
                .ok_or_else(|| io::Error::other("truncate_to below the first segment"))?;
            self.sealed_bytes = self.sealed_bytes.saturating_sub(prev.bytes);
            let mut wal = Wal::open(&prev.path)?;
            wal.set_fault_hook_shared(self.faults.clone());
            self.active = wal;
            self.active_seq = prev.seq;
        }
        self.active.truncate_to(offset)
    }

    /// Drops every record in the log: truncates the active segment and
    /// removes the sealed ones (the durability point after a compaction
    /// has persisted a snapshot). The log position stays monotonic.
    pub fn truncate_all(&mut self) -> io::Result<()> {
        let new_base = self.lsn();
        self.active.truncate()?;
        self.base = new_base;
        for s in self.sealed.drain(..) {
            std::fs::remove_file(&s.path)?;
        }
        self.sealed_bytes = 0;
        Ok(())
    }

    /// Monotonic log position: bytes ever appended (never decreases, even
    /// across compaction). Group commit compares these positions.
    pub fn lsn(&self) -> u64 {
        self.base
            .saturating_add(self.sealed_bytes)
            .saturating_add(self.active.len_bytes())
    }

    /// Bytes currently in the log (sealed segments + active tail).
    pub fn tail_bytes(&self) -> u64 {
        self.sealed_bytes.saturating_add(self.active.len_bytes())
    }

    /// Number of on-disk segments (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len().saturating_add(1)
    }

    /// Number of sealed (read-only) segments — compaction's reclaimable set.
    pub fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// Path of the active segment (the one appends go to).
    pub fn active_path(&self) -> &Path {
        self.active.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::two_pass;
    use proptest::prelude::*;

    /// `SegmentedLog::open` as it was before the one-pass scan: every
    /// segment opened with the two-pass reader's buffered scan, the cut
    /// computed over all of them, then every surviving segment read a
    /// second time. Returns the records as `(seq, end_offset, payload)`.
    #[allow(clippy::type_complexity)]
    fn open_two_pass(
        dir: &Path,
        config: SegmentConfig,
    ) -> io::Result<(SegmentedLog, Vec<(u64, u64, Vec<u8>)>)> {
        let mut segs = segment_files(dir, "t")?;
        if segs.is_empty() {
            segs.push((1, segment_path(dir, "t", 1)));
        }
        let mut wals = Vec::with_capacity(segs.len());
        for (_, path) in &segs {
            wals.push(two_pass::open(path)?);
        }
        if let Some(cut) = wals.iter().position(Wal::has_torn_tail) {
            for (_, path) in segs.drain(cut + 1..) {
                std::fs::remove_file(path)?;
            }
            wals.truncate(cut + 1);
        }
        let mut recovered = Vec::new();
        for ((seq, _), wal) in segs.iter().zip(wals.iter_mut()) {
            for (end_offset, payload) in two_pass::read_all_with_offsets(wal)? {
                recovered.push((*seq, end_offset, payload));
            }
        }
        let log = SegmentedLog::assemble(dir, "t", config, &segs, wals, Recovered::default())?;
        Ok((log, recovered))
    }

    /// Every segment of table `t` in `dir` with its bytes.
    fn segments(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        let files = segment_files(dir, "t").unwrap();
        files
            .into_iter()
            .map(|(seq, path)| (seq, std::fs::read(path).unwrap()))
            .collect()
    }

    /// Sealed segments, active segment and position: where the next
    /// append lands.
    fn layout(log: &SegmentedLog) -> (Vec<(u64, u64)>, u64, u64, u64, u64) {
        let sealed = log.sealed.iter().map(|s| (s.seq, s.bytes)).collect();
        let active = &log.active;
        (
            sealed,
            log.active_seq,
            active.len_bytes(),
            active.physical_bytes(),
            log.lsn(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random record streams, seal thresholds and damage (none, a
        /// truncation or one flipped bit in any segment), the one-pass
        /// open recovers exactly what the two-pass reference does: the
        /// same payloads at the same end offsets, the same valid lengths,
        /// the same later segments dropped, and the next append lands in
        /// the same place.
        #[test]
        fn one_pass_open_equals_two_pass_reference(
            lens in proptest::collection::vec(0usize..48, 0..40),
            threshold in 1u64..200,
            damage in (0u8..3, any::<u64>(), any::<u64>()),
            fill in any::<u8>(),
        ) {
            let t = tempfile::tempdir().unwrap();
            let (one, two) = (t.path().join("one"), t.path().join("two"));
            std::fs::create_dir_all(&one).unwrap();
            std::fs::create_dir_all(&two).unwrap();
            let config = SegmentConfig::with_segment_bytes(threshold);
            let mut log = SegmentedLog::open(&one, "t", config).unwrap();
            for (i, len) in lens.iter().enumerate() {
                let payload: Vec<u8> = (0..*len).map(|j| fill ^ (i * 31 + j * 7) as u8).collect();
                log.append(&payload).unwrap();
            }
            drop(log);
            let mut files = segments(&one);
            let (kind, which, at) = damage;
            let victim = (which % files.len() as u64) as usize;
            let victim = &mut files[victim].1;
            match kind {
                1 => victim.truncate((at % (victim.len() as u64 + 1)) as usize),
                2 if !victim.is_empty() => {
                    let bit = at % (victim.len() as u64 * 8);
                    victim[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                _ => {}
            }
            for (seq, bytes) in &files {
                std::fs::write(segment_path(&one, "t", *seq), bytes).unwrap();
                std::fs::write(segment_path(&two, "t", *seq), bytes).unwrap();
            }

            let mut log = SegmentedLog::open(&one, "t", config).unwrap();
            let (mut reference, expected) = open_two_pass(&two, config).unwrap();
            let recovered: Vec<(u64, u64, Vec<u8>)> = log
                .take_recovered()
                .records()
                .map(|r| (r.seq, r.end_offset, r.payload.to_vec()))
                .collect();
            prop_assert_eq!(recovered, expected);
            for step in 0..2 {
                prop_assert_eq!(layout(&log), layout(&reference), "step {}", step);
                prop_assert_eq!(segments(&one), segments(&two), "step {}", step);
                log.append(b"next").unwrap();
                reference.append(b"next").unwrap();
            }
        }
    }

    fn tiny(dir: &Path) -> SegmentedLog {
        // 64-byte threshold: a handful of records per segment.
        SegmentedLog::open(dir, "t", SegmentConfig::with_segment_bytes(64)).unwrap()
    }

    fn replay(dir: &Path) -> Vec<Vec<u8>> {
        let mut log = tiny(dir);
        log.take_recovered()
            .records()
            .map(|r| r.payload.to_vec())
            .collect()
    }

    #[test]
    fn appends_roll_into_numbered_segments() {
        let t = tempfile::tempdir().unwrap();
        let mut log = tiny(t.path());
        for i in 0..20u32 {
            log.append(format!("record-{i:04}").as_bytes()).unwrap();
        }
        assert!(log.segment_count() > 1, "64-byte threshold must roll");
        let files = segment_files(t.path(), "t").unwrap();
        assert_eq!(files.len(), log.segment_count());
        let seqs: Vec<u64> = files.iter().map(|(s, _)| *s).collect();
        let expect: Vec<u64> = (1..=seqs.len() as u64).collect();
        assert_eq!(seqs, expect, "sequence numbers are contiguous from 1");
        drop(log);
        let records = replay(t.path());
        assert_eq!(records.len(), 20);
        assert_eq!(records[7], b"record-0007".to_vec());
    }

    #[test]
    fn lsn_is_monotonic_across_truncate_all() {
        let t = tempfile::tempdir().unwrap();
        let mut log = tiny(t.path());
        for _ in 0..12 {
            log.append(b"0123456789abcdef").unwrap();
        }
        let before = log.lsn();
        assert!(before > 0);
        log.truncate_all().unwrap();
        assert_eq!(log.lsn(), before, "truncation must not rewind the lsn");
        assert_eq!(log.tail_bytes(), 0);
        assert_eq!(log.segment_count(), 1);
        log.append(b"more").unwrap();
        assert!(log.lsn() > before);
    }

    #[test]
    fn seal_fault_leaves_log_unchanged() {
        let t = tempfile::tempdir().unwrap();
        let mut log = tiny(t.path());
        // 3 × 28 framed bytes = 84 > 64: the NEXT append must seal first.
        for _ in 0..3 {
            log.append(b"0123456789abcdefghij").unwrap();
        }
        let segments = log.segment_count();
        let lsn = log.lsn();
        log.set_fault_hook(|op| {
            matches!(op, WalOp::Seal).then(|| io::Error::other("injected: wal_seal"))
        });
        // The active segment is over threshold, so this append must seal
        // first — and the injected seal fault must fail it atomically.
        assert!(log.append(b"never-lands").is_err());
        assert_eq!(log.segment_count(), segments);
        assert_eq!(log.lsn(), lsn);
        log.clear_fault_hook();
        log.append(b"lands").unwrap();
        assert_eq!(log.segment_count(), segments + 1);
    }
}
