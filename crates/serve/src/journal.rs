//! Durable checkpoint journal: the crash-restart backbone of serve
//! mode.
//!
//! The in-sim failover protocol (PR 5) replicates
//! [`CheckpointState`] between a primary and a standby over the
//! fabric; a lone `mcps-serve` process has no standby, so the same
//! payload is made durable instead — an append-only, CRC-framed,
//! length-prefixed write-ahead log on disk. A restarted process
//! replays the journal, resumes via
//! [`SupervisorCore::resume_from`](mcps_core::supervisor::SupervisorCore)
//! with a strictly higher epoch, and inherits the degraded /
//! stop-unconfirmed latches, so `kill -9` → restart is a recoverable
//! event rather than a state wipe.
//!
//! # On-disk format
//!
//! A journal is a directory-less family of segment files
//! `{base}.{index:06}.wal`. Each segment is a sequence of records:
//!
//! ```text
//! "MCJ1" (4 bytes) ++ len (u32 LE) ++ crc32(payload) (u32 LE) ++ payload
//! ```
//!
//! where the payload is the JSON serialization of one
//! [`CheckpointState`] and the CRC is the same IEEE polynomial as the
//! wire codec ([`crate::wire::crc32`]). A torn tail — the process died
//! mid-`write` — therefore fails its length or checksum and replay
//! stops cleanly at the last intact record; everything before it is
//! trusted.
//!
//! # Durability policy
//!
//! Not every record is fsynced. A record is *epoch-bearing* when its
//! epoch, `next_command_id` high-water mark, or a safety latch
//! (degraded / stop-unconfirmed) differs from the previously synced
//! record — exactly the state a resurrected supervisor must not
//! un-learn (losing an epoch bump would let it reuse a fenced epoch;
//! losing a latch would un-latch a safety hold). Those records are
//! followed by `sync_data`. Routine checkpoints between them ride on
//! the page cache: losing them costs freshness, never fencing.
//!
//! # Rotation
//!
//! [`Journal::open`] always starts a **new** segment (`last index +
//! 1`) rather than appending to the newest existing one — appending
//! after a torn tail would bury valid records behind garbage. Segments
//! rotate once they exceed a size budget; superseded segments are
//! removed only after the fresh segment holds at least one durable
//! record, so the most recent checkpoint is always recoverable.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use mcps_core::supervisor::CheckpointState;

use crate::wire::crc32;

/// Record start marker ("Medical Checkpoint Journal v1").
pub const JOURNAL_MAGIC: [u8; 4] = *b"MCJ1";

/// Bytes before a record payload: magic, length, CRC32.
pub const RECORD_HEADER_LEN: usize = 12;

/// Upper bound on a record payload; larger claims are corruption.
pub const MAX_RECORD: usize = 1 << 20;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// What replaying a journal found.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The newest intact checkpoint, if any record survived.
    pub state: Option<CheckpointState>,
    /// Intact records replayed across all segments.
    pub records: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// A segment ended in a partial record (interrupted write).
    pub torn_tail: bool,
    /// Replay of a segment stopped early on a corrupt (checksum or
    /// parse-failed) record.
    pub corrupt_stopped: bool,
}

/// Serializes one checkpoint as a journal record.
fn encode_record(state: &CheckpointState) -> Vec<u8> {
    let body = serde_json::to_string(state).expect("CheckpointState serializes");
    let body = body.as_bytes();
    let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
    rec.extend_from_slice(&JOURNAL_MAGIC);
    rec.extend_from_slice(&u32::try_from(body.len()).expect("record < 4 GiB").to_le_bytes());
    rec.extend_from_slice(&crc32(body).to_le_bytes());
    rec.extend_from_slice(body);
    rec
}

/// Replays one segment's bytes, returning intact records and what
/// ended the scan.
fn replay_segment(bytes: &[u8]) -> (Vec<CheckpointState>, bool, bool) {
    let mut records = Vec::new();
    let mut torn = false;
    let mut corrupt = false;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        if rest.len() < RECORD_HEADER_LEN {
            torn = true;
            break;
        }
        if rest[..4] != JOURNAL_MAGIC {
            corrupt = true;
            break;
        }
        let len = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]) as usize;
        let want_crc = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
        if len > MAX_RECORD {
            corrupt = true;
            break;
        }
        if rest.len() < RECORD_HEADER_LEN + len {
            torn = true;
            break;
        }
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        if crc32(payload) != want_crc {
            corrupt = true;
            break;
        }
        match std::str::from_utf8(payload).ok().and_then(|s| serde_json::from_str(s).ok()) {
            Some(state) => records.push(state),
            None => {
                corrupt = true;
                break;
            }
        }
        pos += RECORD_HEADER_LEN + len;
    }
    (records, torn, corrupt)
}

/// The fencing state: the fields whose change makes a record
/// epoch-bearing (must be durable before the supervisor acts on the new
/// value). The host journals a checkpoint only when it changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    epoch: u64,
    next_command_id: u64,
    degraded: bool,
    stop_unconfirmed: bool,
}

impl Fingerprint {
    pub(crate) fn of(state: &CheckpointState) -> Self {
        Self {
            epoch: state.epoch,
            next_command_id: state.next_command_id,
            degraded: state.degraded,
            stop_unconfirmed: state.stop_unconfirmed,
        }
    }
}

/// An open, appendable checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    base: PathBuf,
    segment_index: u64,
    file: File,
    segment_bytes: u64,
    max_segment_bytes: u64,
    /// Segments superseded by the current one, deletable once the
    /// current segment holds a durable record.
    stale_segments: Vec<PathBuf>,
    /// Fingerprint of the last *synced* record.
    synced: Option<Fingerprint>,
    appended: u64,
    syncs: u64,
}

impl Journal {
    /// Replays every existing segment of `base` (newest last), then
    /// opens a fresh segment for appending.
    ///
    /// # Errors
    ///
    /// Fails only on filesystem errors (unreadable directory, segment
    /// creation failure) — corrupt or torn journal *content* is
    /// reported in [`Recovery`], never an error.
    pub fn open(base: &Path) -> std::io::Result<(Self, Recovery)> {
        Self::open_with(base, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Journal::open`] with an explicit rotation threshold.
    ///
    /// # Errors
    ///
    /// See [`Journal::open`].
    pub fn open_with(base: &Path, max_segment_bytes: u64) -> std::io::Result<(Self, Recovery)> {
        let segments = list_segments(base)?;
        let mut recovery = Recovery::default();
        for (_, path) in &segments {
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            let (records, torn, corrupt) = replay_segment(&bytes);
            recovery.segments_scanned += 1;
            recovery.records += records.len() as u64;
            recovery.torn_tail |= torn;
            recovery.corrupt_stopped |= corrupt;
            if let Some(last) = records.into_iter().last() {
                // Segments are scanned in index order, so the last
                // intact record of the highest-indexed readable
                // segment wins.
                recovery.state = Some(last);
            }
        }
        // Never append after a possibly-torn tail: start clean.
        let segment_index = segments.last().map_or(0, |(i, _)| i + 1);
        let path = segment_path(base, segment_index);
        let file = OpenOptions::new().create_new(true).write(true).open(&path)?;
        Ok((
            Self {
                base: base.to_path_buf(),
                segment_index,
                file,
                segment_bytes: 0,
                max_segment_bytes,
                stale_segments: segments.into_iter().map(|(_, p)| p).collect(),
                synced: None,
                appended: 0,
                syncs: 0,
            },
            recovery,
        ))
    }

    /// Appends one checkpoint, fsyncing when the record is
    /// epoch-bearing (see the module docs) or the first of a segment.
    ///
    /// # Errors
    ///
    /// Propagates write/sync/rotation I/O failures; the caller decides
    /// whether losing durability is fatal.
    pub fn append(&mut self, state: &CheckpointState) -> std::io::Result<()> {
        if self.segment_bytes >= self.max_segment_bytes {
            self.rotate()?;
        }
        let rec = encode_record(state);
        self.file.write_all(&rec)?;
        self.segment_bytes += rec.len() as u64;
        self.appended += 1;
        let fp = Fingerprint::of(state);
        // First record of a fresh journal/segment is always synced so
        // rotation may safely delete the superseded segments.
        if self.synced != Some(fp) {
            self.file.sync_data()?;
            self.syncs += 1;
            self.synced = Some(fp);
            self.drop_stale_segments();
        }
        Ok(())
    }

    /// Closes the current segment and opens the next; the old segment
    /// joins the stale set (deleted after the next durable record).
    fn rotate(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.syncs += 1;
        self.stale_segments.push(segment_path(&self.base, self.segment_index));
        self.segment_index += 1;
        let path = segment_path(&self.base, self.segment_index);
        self.file = OpenOptions::new().create_new(true).write(true).open(&path)?;
        self.segment_bytes = 0;
        // Force the next append to sync (first record of the segment),
        // even if its fingerprint matches the last synced one.
        self.synced = None;
        Ok(())
    }

    /// Removes superseded segments. Only called once the current
    /// segment has a durable record, so history is never the sole copy
    /// deleted. Deletion failures are ignored: stale segments are a
    /// space concern, not a correctness one.
    fn drop_stale_segments(&mut self) {
        for path in self.stale_segments.drain(..) {
            let _ = fs::remove_file(path);
        }
    }

    /// The segment file currently being appended to.
    pub fn current_segment(&self) -> PathBuf {
        segment_path(&self.base, self.segment_index)
    }

    /// Records appended since open.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// `sync_data` calls since open.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// `{base}.{index:06}.wal`.
fn segment_path(base: &Path, index: u64) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".{index:06}.wal"));
    PathBuf::from(name)
}

/// Existing segments of `base`, sorted by index.
fn list_segments(base: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let dir = base.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let stem = match base.file_name().and_then(|n| n.to_str()) {
        Some(s) => s,
        None => return Ok(Vec::new()),
    };
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        // A not-yet-created parent directory simply means no history.
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(stem).and_then(|r| r.strip_prefix('.')) else {
            continue;
        };
        let Some(idx) = rest.strip_suffix(".wal") else { continue };
        if let Ok(idx) = idx.parse::<u64>() {
            out.push((idx, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(i, _)| *i);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(epoch: u64) -> CheckpointState {
        CheckpointState {
            epoch,
            next_command_id: 10 * epoch,
            degraded: false,
            stop_unconfirmed: false,
            inflight_ids: vec![1, 2],
            last_data: Vec::new(),
        }
    }

    fn tmp_base(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcps-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("ckpt")
    }

    #[test]
    fn fresh_journal_recovers_nothing() {
        let base = tmp_base("fresh");
        let (journal, recovery) = Journal::open(&base).unwrap();
        assert!(recovery.state.is_none());
        assert_eq!(recovery.records, 0);
        assert!(!recovery.torn_tail);
        drop(journal);
    }

    #[test]
    fn roundtrip_last_record_wins() {
        let base = tmp_base("roundtrip");
        {
            let (mut journal, _) = Journal::open(&base).unwrap();
            for e in 1..=5 {
                journal.append(&ckpt(e)).unwrap();
            }
            assert_eq!(journal.appended(), 5);
            // Every record here bumps the epoch → every record syncs.
            assert_eq!(journal.syncs(), 5);
        }
        let (_, recovery) = Journal::open(&base).unwrap();
        assert_eq!(recovery.state, Some(ckpt(5)));
        assert_eq!(recovery.records, 5);
        assert!(!recovery.torn_tail && !recovery.corrupt_stopped);
    }

    #[test]
    fn unchanged_fingerprint_skips_fsync() {
        let base = tmp_base("fsync");
        let (mut journal, _) = Journal::open(&base).unwrap();
        let mut state = ckpt(3);
        journal.append(&state).unwrap();
        // Same epoch/latches, fresher inflight view: no sync needed.
        state.inflight_ids = vec![7];
        journal.append(&state).unwrap();
        journal.append(&state).unwrap();
        assert_eq!(journal.appended(), 3);
        assert_eq!(journal.syncs(), 1);
        // But a latch flip forces one.
        state.degraded = true;
        journal.append(&state).unwrap();
        assert_eq!(journal.syncs(), 2);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let base = tmp_base("torn");
        {
            let (mut journal, _) = Journal::open(&base).unwrap();
            journal.append(&ckpt(1)).unwrap();
            journal.append(&ckpt(2)).unwrap();
        }
        // Truncate the newest segment mid-record.
        let segments = list_segments(&base).unwrap();
        let (_, last) = segments.last().unwrap();
        let bytes = fs::read(last).unwrap();
        fs::write(last, &bytes[..bytes.len() - 5]).unwrap();
        let (_, recovery) = Journal::open(&base).unwrap();
        assert_eq!(recovery.state, Some(ckpt(1)));
        assert!(recovery.torn_tail);
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_good() {
        let base = tmp_base("corrupt");
        {
            let (mut journal, _) = Journal::open(&base).unwrap();
            journal.append(&ckpt(1)).unwrap();
            journal.append(&ckpt(2)).unwrap();
            journal.append(&ckpt(3)).unwrap();
        }
        let segments = list_segments(&base).unwrap();
        let (_, last) = segments.last().unwrap();
        let mut bytes = fs::read(last).unwrap();
        // Flip a bit inside the second record's payload.
        let first_len = {
            let len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
            RECORD_HEADER_LEN + len
        };
        bytes[first_len + RECORD_HEADER_LEN + 3] ^= 0x40;
        fs::write(last, &bytes).unwrap();
        let (_, recovery) = Journal::open(&base).unwrap();
        assert_eq!(recovery.state, Some(ckpt(1)));
        assert!(recovery.corrupt_stopped);
    }

    #[test]
    fn rotation_keeps_newest_state_and_prunes_history() {
        let base = tmp_base("rotate");
        {
            // Tiny budget: every append lands in its own segment.
            let (mut journal, _) = Journal::open_with(&base, 8).unwrap();
            for e in 1..=6 {
                journal.append(&ckpt(e)).unwrap();
            }
        }
        let segments = list_segments(&base).unwrap();
        assert!(segments.len() <= 2, "stale segments not pruned: {} left", segments.len());
        let (_, recovery) = Journal::open(&base).unwrap();
        assert_eq!(recovery.state, Some(ckpt(6)));
    }

    #[test]
    fn reopen_never_appends_to_old_segment() {
        let base = tmp_base("reopen");
        let first_segment;
        {
            let (mut journal, _) = Journal::open(&base).unwrap();
            journal.append(&ckpt(1)).unwrap();
            first_segment = journal.current_segment();
        }
        let (journal, recovery) = Journal::open(&base).unwrap();
        assert_ne!(journal.current_segment(), first_segment);
        assert_eq!(recovery.state, Some(ckpt(1)));
    }
}
