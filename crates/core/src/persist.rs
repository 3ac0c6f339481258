//! Persist-step torn-write model and the NVM-resident ordering journal.
//!
//! Every durable line write a [`crate::MemoryController`] issues inside
//! a multi-step persist sequence (write-queue drain entries, counter
//! write + Merkle leaf update, spare-pool remap under a fresh IV,
//! batched shred drains, scrubber repairs) is a numbered
//! **persist step**. Under [`crate::PersistDomain::Adr`] a harness-side
//! crash injector can arm a [`CrashCut`] that stops the machine at any
//! step — before the step's line write, or mid-write with only a torn
//! 8-byte-aligned prefix of the 64 B line persisted. Under
//! [`crate::PersistDomain::Eadr`] the cut never fires: stored energy
//! completes the in-flight sequence, which is exactly the historical
//! behaviour.
//!
//! To make an arbitrary cut recoverable, ADR mode keeps an **ordering
//! journal**, a ring of 193 lines in its own NVM region (the controller's
//! region layout, `controller/regions.rs`).
//!
//! Each top-level operation that persists anything is one **sequence**.
//! It appends one entry per line it is about to write (dead-block lines
//! aside, see below): the **pre-image** for undo sequences, the
//! **post-image** for redo sequences (pure metadata flushes whose data
//! is already durable). Its
//! first record opens it; there is no separate header write. It ends
//! with one **commit record**. Records are appended round-robin over the
//! whole ring, so no journal line is hotter than the others.
//!
//! Every record is stamped with its sequence number and its index in
//! the sequence, and carries a checksum over its fields and its image.
//! An entry's 64 B image sits in the line after its record, paired with
//! it. Its first word is displaced into the record and replaced by a
//! payload marker, so a payload line is never parsed as a record.
//!
//! **Dead-block elision.** A line of a block that zero-fills under the
//! operation's pre-op metadata (a `Ctr` minor of 0 with the shredder on,
//! or a dead `Scattered` liveness bit) gets no undo image: nobody can
//! read its old bytes. The same sequence journals the counter or
//! liveness line's pre-image, and restoring that makes the block
//! zero-fill again.
//!
//! Journal writes model a battery-latched path: they are not cuttable,
//! not torn, and not persist steps.
//!
//! On reboot, [`crate::MemoryController::recover_mut`] [`scan`]s the
//! ring and takes the newest sequence. If it has no commit record, redo
//! entries are applied forward and undo entries in reverse (restoring
//! Merkle leaves for counter lines and rolling back spare-pool
//! allocations), and recovery appends the commit itself. It then
//! re-verifies every Merkle leaf against the persisted counter region,
//! and re-counts the shredded-page population — re-establishing the
//! shred-reads-zero invariant before the first demand access.

use ss_common::{BlockAddr, Error, Result, LINE_SIZE};
use ss_crypto::Line;

/// Maximum journal entries one sequence may hold. The worst real
/// sequence is a minor-overflow re-encryption (64 data lines + counter
/// pre-image + remap bookkeeping); 96 leaves headroom.
pub const JOURNAL_MAX_ENTRIES: usize = 96;

/// Lines occupied by the journal ring.
pub const JOURNAL_LINES: u64 = 193;

/// Ring lines the largest sequence takes: a record and a payload line
/// per entry, then its commit record.
const MAX_SEQUENCE_LINES: u64 = 2 * JOURNAL_MAX_ENTRIES as u64 + 1;

// The ring holds the largest sequence whole, so a sequence never
// overwrites its own records and recovery finds all of the newest one.
const _: () = assert!(MAX_SEQUENCE_LINES <= JOURNAL_LINES);

/// Record-line magic ("SSJREC02" as little-endian bytes).
const RECORD_MAGIC: u64 = 0x3230_4345_524A_5353;
/// Payload-line marker ("SSJPAY02"): it displaces the image's first
/// word, which the record carries, so a payload never reads as a record.
const PAYLOAD_MAGIC: u64 = 0x3230_5941_504A_5353;
/// Kind byte of a commit record (entry kinds use 1..=4).
const COMMIT: u8 = 0xC0;

// Record-line layout: magic, then these byte offsets.
const AT_KIND: usize = 8;
const AT_QUARANTINED: usize = 9;
const AT_TAG: usize = 10;
const AT_INDEX: usize = 12;
const AT_SEQ: usize = 16;
const AT_TARGET: usize = 24;
const AT_AUX: usize = 32;
const AT_WORD0: usize = 40;
const AT_SUM: usize = 48;

/// Which multi-step persist sequence a journal record belongs to.
/// Stored as a stable u8 tag; purely diagnostic — recovery semantics
/// are carried by the per-entry [`EntryKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqTag {
    /// A demand write (`write_block`) or in-place page zeroing.
    DemandWrite,
    /// A shred command (counter update, possibly an overflow
    /// re-encryption sweep).
    Shred,
    /// A spare-pool remap (demand-read heal or scrubber repair).
    Remap,
    /// A background scrubber step.
    Scrub,
    /// One write-queue drain entry at top level (fence / power-down).
    DrainEntry,
    /// An explicit dirty-counter flush (pure metadata roll-forward).
    CounterFlush,
}

impl SeqTag {
    /// Stable on-NVM encoding.
    pub fn raw(self) -> u8 {
        match self {
            SeqTag::DemandWrite => 1,
            SeqTag::Shred => 2,
            SeqTag::Remap => 3,
            SeqTag::Scrub => 4,
            SeqTag::DrainEntry => 5,
            SeqTag::CounterFlush => 6,
        }
    }

    /// Decodes a stored tag.
    pub fn from_raw(raw: u8) -> Option<SeqTag> {
        Some(match raw {
            1 => SeqTag::DemandWrite,
            2 => SeqTag::Shred,
            3 => SeqTag::Remap,
            4 => SeqTag::Scrub,
            5 => SeqTag::DrainEntry,
            6 => SeqTag::CounterFlush,
            _ => return None,
        })
    }

    /// Human-readable label (stable; used in reports).
    pub fn label(self) -> &'static str {
        match self {
            SeqTag::DemandWrite => "demand-write",
            SeqTag::Shred => "shred",
            SeqTag::Remap => "remap",
            SeqTag::Scrub => "scrub",
            SeqTag::DrainEntry => "drain-entry",
            SeqTag::CounterFlush => "counter-flush",
        }
    }

    /// Whether this sequence journals post-images (roll forward on
    /// recovery) instead of pre-images (roll back). Only the pure
    /// metadata flush rolls forward: its data lines are already durable,
    /// so re-persisting the newest counter value is always consistent.
    pub fn is_redo(self) -> bool {
        matches!(self, SeqTag::CounterFlush)
    }
}

/// What one journal entry undoes or redoes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Restore the payload (pre-image) to a data/spare line.
    DataUndo,
    /// Restore the payload (pre-image) to a counter line and roll the
    /// Merkle leaf of `page` back to it.
    CounterUndo,
    /// Rewrite the payload (post-image) to a counter line and roll the
    /// Merkle leaf of `page` forward to it.
    CounterRedo,
    /// Roll back a spare-pool allocation: remove the `target → aux`
    /// redirect installed mid-sequence (re-quarantining the target when
    /// the allocation revived a quarantined line). Payload unused.
    RemapAlloc,
}

impl EntryKind {
    fn raw(self) -> u8 {
        match self {
            EntryKind::DataUndo => 1,
            EntryKind::CounterUndo => 2,
            EntryKind::CounterRedo => 3,
            EntryKind::RemapAlloc => 4,
        }
    }

    fn from_raw(raw: u8) -> Option<EntryKind> {
        Some(match raw {
            1 => EntryKind::DataUndo,
            2 => EntryKind::CounterUndo,
            3 => EntryKind::CounterRedo,
            4 => EntryKind::RemapAlloc,
            _ => return None,
        })
    }

    /// Whether the entry carries a 64 B image (in the ring line after
    /// its record).
    fn has_payload(self) -> bool {
        self != EntryKind::RemapAlloc
    }
}

/// One decoded journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// What recovery does with it.
    pub kind: EntryKind,
    /// The line the entry protects (device address), or the failed
    /// original for [`EntryKind::RemapAlloc`].
    pub target: BlockAddr,
    /// Owning page for counter entries; the allocated spare slot for
    /// [`EntryKind::RemapAlloc`]; 0 otherwise.
    pub aux: u64,
    /// Whether a revived quarantined line must be re-quarantined on
    /// undo (only meaningful for [`EntryKind::RemapAlloc`]).
    pub was_quarantined: bool,
    /// Pre- or post-image (unused for [`EntryKind::RemapAlloc`]).
    pub payload: Line,
}

/// An armed crash cut: stop the machine at persist step `at_step`
/// (1-based, counted over the controller's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashCut {
    /// The step at which the cut lands.
    pub at_step: u64,
    /// Bytes of the in-flight 64 B line write that persist before the
    /// cut, rounded down to the 8-byte store granularity. 0 models a cut
    /// just before the write; 64 would be a completed write (use a later
    /// step instead).
    pub torn_bytes: usize,
}

/// Volatile persist-path state of one controller: the step counter, the
/// armed cut, and the mirror of the currently open journal sequence.
#[derive(Debug, Default)]
pub struct PersistState {
    /// Lifetime persist-step counter (also ticks under eADR so the
    /// census is domain-independent).
    pub steps: u64,
    /// Armed crash cut, if any (honoured only under ADR).
    pub armed: Option<CrashCut>,
    /// Whether the armed cut has fired: the machine is "off" and every
    /// further persist attempt fails until the power cycle.
    pub cut_fired: bool,
    /// Tag of the open top-level sequence (None between operations).
    pub tag: Option<SeqTag>,
    /// Nesting depth of `seq_begin` calls (inner sequences join the
    /// outermost).
    pub depth: u32,
    /// Next sequence number to use.
    pub next_seq: u64,
    /// Ring line the next journal record goes to.
    pub head: u64,
    /// Lines the open sequence already covers: journaled (dedupe: first
    /// pre-image wins), or dead-block lines that need no undo image.
    pub journaled: Vec<u64>,
    /// Entries appended to the open sequence (mirror of NVM state; the
    /// index of its next record).
    pub entry_count: usize,
    /// Set while flushing an evicted dirty victim: its data lines are
    /// already durable, so the counter write journals a post-image
    /// (roll forward) instead of a pre-image.
    pub victim_flush: bool,
}

impl PersistState {
    /// Fresh state with sequence numbering starting at 1.
    pub fn new() -> Self {
        PersistState {
            next_seq: 1,
            ..PersistState::default()
        }
    }

    /// Whether a counter write journals its post-image (redo): a dirty
    /// victim's writeback, or a sequence whose tag rolls forward.
    pub(crate) fn redo(&self) -> bool {
        self.victim_flush || self.tag.is_some_and(SeqTag::is_redo)
    }

    /// Whether the open sequence has a record on NVM: its first record
    /// opened it, and a commit record will close it.
    pub(crate) fn is_open(&self) -> bool {
        self.entry_count > 0
    }

    /// Claims the ring lines of a record spanning `lines` lines and
    /// returns the first.
    pub(crate) fn advance_head(&mut self, lines: u64) -> u64 {
        let at = self.head;
        self.head = (at + lines) % JOURNAL_LINES;
        at
    }

    /// Power loss: the ring's head and the sequence counter are lost
    /// with the open sequence's mirror, and recovery rebuilds them from
    /// the ring. The step counter is a census, not a register.
    pub(crate) fn drop_journal_registers(&mut self) {
        self.head = 0;
        self.next_seq = 1;
        self.end_sequence();
    }

    /// Forgets the mirror of a committed or resolved sequence.
    pub(crate) fn end_sequence(&mut self) {
        self.journaled.clear();
        self.entry_count = 0;
    }

    /// Leaves the current operation: no nesting, tag or victim flush.
    pub(crate) fn end_operation(&mut self) {
        self.depth = 0;
        self.tag = None;
        self.victim_flush = false;
    }
}

/// What [`crate::MemoryController::recover_mut`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Whether an open (interrupted) journal sequence was found.
    pub journal_open: bool,
    /// Diagnostic tag of the interrupted sequence (raw encoding; 0 when
    /// none).
    pub interrupted_tag: u8,
    /// Pre-images restored (lines rolled back).
    pub undone: u64,
    /// Post-images re-applied (lines rolled forward).
    pub redone: u64,
    /// Spare-pool allocations rolled back.
    pub remaps_rolled_back: u64,
    /// Whether the persisted counter region re-verified against the
    /// Merkle tree. `true` in every report
    /// [`crate::MemoryController::recover_mut`] returns, integrity
    /// disabled included: a mismatch returns
    /// [`Error::IntegrityViolation`] instead of a report.
    pub root_verified: bool,
    /// Pages whose persisted counters are fully shredded with a non-zero
    /// major (i.e. shredded by command, zero-filling on read).
    pub shredded_pages: u64,
}

impl RecoveryReport {
    /// Whether recovery changed any persisted state.
    pub fn repaired(&self) -> bool {
        self.undone > 0 || self.redone > 0 || self.remaps_rolled_back > 0
    }
}

fn put_u64(line: &mut Line, at: usize, v: u64) {
    line[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(line: &Line, at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&line[at..at + 8]);
    u64::from_le_bytes(b)
}

fn get_u32(line: &Line, at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&line[at..at + 4]);
    u32::from_le_bytes(b)
}

/// One journal record: an entry of a sequence, or its commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Number of the sequence the record belongs to.
    pub seq_no: u64,
    /// Position in its sequence (0 = the record that opened it).
    pub index: u32,
    /// Diagnostic tag of the sequence's operation (raw [`SeqTag`]).
    pub tag: u8,
    /// The entry, or `None` for the sequence's commit record.
    pub entry: Option<JournalEntry>,
}

impl Record {
    /// Ring lines the record takes: its own, and the payload line of
    /// an entry with an image.
    pub fn lines(&self) -> u64 {
        match self.entry {
            Some(e) if e.kind.has_payload() => 2,
            _ => 1,
        }
    }
}

/// Checksum over a record's fields and, for an entry with an image, the
/// payload line (whose marker word the record's displaced word stands
/// in for). Each step is a bijection of the running state, so any one
/// changed word always changes the sum.
fn checksum(record: &Line, payload: Option<&Line>) -> u64 {
    let fields = (AT_KIND..LINE_SIZE)
        .step_by(8)
        .filter(|&at| at != AT_SUM)
        .map(|at| get_u64(record, at));
    let image = payload
        .into_iter()
        .flat_map(|p| (8..LINE_SIZE).step_by(8).map(move |at| get_u64(p, at)));
    fields.chain(image).fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29)
    })
}

/// Encodes `rec` as its record line and, for an entry with an image,
/// the payload line that follows it in the ring.
pub fn encode_record(rec: &Record) -> (Line, Option<Line>) {
    let mut line = [0u8; LINE_SIZE];
    put_u64(&mut line, 0, RECORD_MAGIC);
    line[AT_TAG] = rec.tag;
    line[AT_INDEX..AT_INDEX + 4].copy_from_slice(&rec.index.to_le_bytes());
    put_u64(&mut line, AT_SEQ, rec.seq_no);
    let mut payload = None;
    match rec.entry {
        None => line[AT_KIND] = COMMIT,
        Some(e) => {
            line[AT_KIND] = e.kind.raw();
            line[AT_QUARANTINED] = u8::from(e.was_quarantined);
            put_u64(&mut line, AT_TARGET, e.target.raw());
            put_u64(&mut line, AT_AUX, e.aux);
            if e.kind.has_payload() {
                let mut p = e.payload;
                put_u64(&mut line, AT_WORD0, get_u64(&p, 0));
                put_u64(&mut p, 0, PAYLOAD_MAGIC);
                payload = Some(p);
            }
        }
    }
    let sum = checksum(&line, payload.as_ref());
    put_u64(&mut line, AT_SUM, sum);
    (line, payload)
}

/// What one journal ring line holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// Not a record: a payload line, or a line never written.
    Other,
    /// A record whose checksum holds.
    Record(Record),
    /// A line with the record magic that fails its checksum, or names
    /// no known kind; `seq_no` is the stamp it claims.
    Corrupt {
        /// The sequence number stored in the line.
        seq_no: u64,
    },
}

/// Decodes ring line `line`. `next` is the ring line after it, the
/// payload of an entry that has an image.
pub fn decode_record(line: &Line, next: &Line) -> Decoded {
    if get_u64(line, 0) != RECORD_MAGIC {
        return Decoded::Other;
    }
    let seq_no = get_u64(line, AT_SEQ);
    let kind = match line[AT_KIND] {
        COMMIT => None,
        raw => match EntryKind::from_raw(raw) {
            Some(kind) => Some(kind),
            None => return Decoded::Corrupt { seq_no },
        },
    };
    let payload = kind.filter(|k| k.has_payload()).map(|_| next);
    if payload.is_some_and(|p| get_u64(p, 0) != PAYLOAD_MAGIC)
        || get_u64(line, AT_SUM) != checksum(line, payload)
    {
        return Decoded::Corrupt { seq_no };
    }
    let entry = kind.map(|kind| {
        let mut image = payload.copied().unwrap_or([0u8; LINE_SIZE]);
        if payload.is_some() {
            put_u64(&mut image, 0, get_u64(line, AT_WORD0));
        }
        JournalEntry {
            kind,
            target: BlockAddr::new(get_u64(line, AT_TARGET)),
            aux: get_u64(line, AT_AUX),
            was_quarantined: line[AT_QUARANTINED] != 0,
            payload: image,
        }
    });
    Decoded::Record(Record {
        seq_no,
        index: get_u32(line, AT_INDEX),
        tag: line[AT_TAG],
        entry,
    })
}

/// The newest sequence in the journal ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewestSequence {
    /// Its number: the highest stamp in the ring.
    pub seq_no: u64,
    /// Diagnostic tag of its operation (raw [`SeqTag`]), from the
    /// record that opened it: the battery flush's redo records that
    /// join an interrupted sequence carry none.
    pub tag: u8,
    /// Its entries in append order.
    pub entries: Vec<JournalEntry>,
    /// Whether its commit record is in the ring.
    pub committed: bool,
    /// The ring line after its last record, where the next one goes.
    pub head: u64,
}

fn journal_error(detail: String) -> Error {
    Error::IntegrityViolation {
        detail: format!("ordering journal: {detail}"),
    }
}

/// Scans the journal ring (`lines`, in ring order) for the newest
/// sequence; `None` when the ring holds no record.
///
/// # Errors
///
/// [`Error::IntegrityViolation`] when a record claiming the newest
/// stamp fails its checksum, or the newest sequence's records do not
/// run from index 0 without a gap — rolling back only a prefix of it
/// would be silent corruption.
pub fn scan(lines: &[Line]) -> Result<Option<NewestSequence>> {
    let ring = lines.len() as u64;
    let mut records = Vec::new();
    let mut corrupt = Vec::new();
    for (pos, line) in (0u64..).zip(lines) {
        let next = lines.get(((pos + 1) % ring) as usize).unwrap_or(line);
        match decode_record(line, next) {
            Decoded::Other => {}
            Decoded::Record(r) => records.push((pos, r)),
            Decoded::Corrupt { seq_no } => corrupt.push((pos, seq_no)),
        }
    }
    let newest = records.iter().map(|(_, r)| r.seq_no).max();
    if let Some((pos, seq_no)) = corrupt
        .into_iter()
        .find(|&(_, s)| newest.is_none_or(|n| s >= n))
    {
        return Err(journal_error(format!(
            "record at line {pos} of sequence {seq_no} fails its checksum"
        )));
    }
    let Some(seq_no) = newest else {
        return Ok(None);
    };
    records.retain(|(_, r)| r.seq_no == seq_no);
    records.sort_by_key(|(_, r)| r.index);
    let mut newest = NewestSequence {
        seq_no,
        tag: 0,
        entries: Vec::with_capacity(records.len()),
        committed: false,
        head: 0,
    };
    for (i, (pos, r)) in (0u32..).zip(&records) {
        if r.index != i || newest.committed {
            return Err(journal_error(format!(
                "sequence {seq_no} has record {} where record {i} belongs",
                r.index
            )));
        }
        if i == 0 {
            newest.tag = r.tag;
        }
        newest.head = (pos + r.lines()) % ring;
        match r.entry {
            Some(e) => newest.entries.push(e),
            None => newest.committed = true,
        }
    }
    Ok(Some(newest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(kind: EntryKind, target: u64, fill: u8) -> JournalEntry {
        JournalEntry {
            kind,
            target: BlockAddr::new(target),
            aux: 9,
            was_quarantined: kind == EntryKind::RemapAlloc,
            payload: if kind.has_payload() {
                [fill; LINE_SIZE]
            } else {
                [0u8; LINE_SIZE]
            },
        }
    }

    fn record(seq_no: u64, index: u32, entry: Option<JournalEntry>) -> Record {
        Record {
            seq_no,
            index,
            tag: SeqTag::DemandWrite.raw(),
            entry,
        }
    }

    /// Appends `rec` to `ring` at `head`, the way the controller does.
    fn append(ring: &mut [Line], head: &mut usize, rec: &Record) {
        let (line, payload) = encode_record(rec);
        ring[*head] = line;
        *head = (*head + 1) % ring.len();
        if let Some(p) = payload {
            ring[*head] = p;
            *head = (*head + 1) % ring.len();
        }
    }

    #[test]
    fn records_roundtrip() {
        for rec in [
            record(5, 0, Some(entry(EntryKind::CounterUndo, 0x1_0040, 0xAB))),
            record(5, 1, Some(entry(EntryKind::DataUndo, 0x40, 0x3C))),
            record(6, 0, Some(entry(EntryKind::CounterRedo, 0x1_0080, 0x01))),
            record(7, 2, Some(entry(EntryKind::RemapAlloc, 0x80, 0))),
            record(7, 3, None),
        ] {
            let (line, payload) = encode_record(&rec);
            assert_eq!(payload.is_some(), rec.lines() == 2, "{rec:?}");
            let next = payload.unwrap_or([0xEE; LINE_SIZE]);
            assert_eq!(decode_record(&line, &next), Decoded::Record(rec));
        }
    }

    #[test]
    fn a_payload_never_decodes_as_a_record() {
        // An image that is itself a valid record line (a data pre-image
        // is attacker-chosen under `Plain`) still reads as a payload.
        let (forged, _) = encode_record(&record(99, 0, None));
        let rec = record(3, 0, Some(entry(EntryKind::DataUndo, 0x40, 0)));
        let rec = Record {
            entry: rec.entry.map(|e| JournalEntry {
                payload: forged,
                ..e
            }),
            ..rec
        };
        let (line, payload) = encode_record(&rec);
        let payload = payload.unwrap_or([0u8; LINE_SIZE]);
        assert_eq!(decode_record(&payload, &line), Decoded::Other);
        assert_eq!(decode_record(&line, &payload), Decoded::Record(rec));
    }

    #[test]
    fn decoder_rejects_every_flipped_bit() {
        let rec = record(5, 1, Some(entry(EntryKind::CounterUndo, 0x1_0040, 0xAB)));
        let (line, payload) = encode_record(&rec);
        let payload = payload.unwrap_or([0u8; LINE_SIZE]);
        for bit in 0..LINE_SIZE * 8 {
            let flip = |l: &Line| {
                let mut l = *l;
                l[bit / 8] ^= 1 << (bit % 8);
                l
            };
            // A flip in the magic leaves no record; anywhere else in the
            // record or its payload, the checksum (or the payload
            // marker) catches it under the stamp the line claims.
            let want = if bit < 64 {
                Decoded::Other
            } else {
                Decoded::Corrupt {
                    seq_no: get_u64(&flip(&line), AT_SEQ),
                }
            };
            assert_eq!(
                decode_record(&flip(&line), &payload),
                want,
                "record bit {bit}"
            );
            assert_eq!(
                decode_record(&line, &flip(&payload)),
                Decoded::Corrupt { seq_no: 5 },
                "payload bit {bit}"
            );
        }
        // An unknown kind is corrupt too, whatever its checksum says.
        let mut odd = line;
        odd[AT_KIND] = 0x7F;
        let sum = checksum(&odd, Some(&payload));
        put_u64(&mut odd, AT_SUM, sum);
        assert_eq!(
            decode_record(&odd, &payload),
            Decoded::Corrupt { seq_no: 5 }
        );
    }

    #[test]
    fn scan_takes_the_newest_sequence_across_the_wrap() {
        let mut ring = vec![[0u8; LINE_SIZE]; 9];
        assert_eq!(scan(&ring).unwrap(), None, "an empty ring");
        let mut head = 0;
        // Sequence 1 commits; sequence 2 opens at line 4 and wraps.
        let s1 = entry(EntryKind::CounterUndo, 0x100, 1);
        append(&mut ring, &mut head, &record(1, 0, Some(s1)));
        append(&mut ring, &mut head, &record(1, 1, None));
        head = 4;
        let s2 = [
            entry(EntryKind::RemapAlloc, 0x40, 0),
            entry(EntryKind::DataUndo, 0x80, 2),
            entry(EntryKind::CounterUndo, 0x100, 3),
        ];
        for (i, e) in (0..).zip(s2) {
            append(&mut ring, &mut head, &record(2, i, Some(e)));
        }
        assert_eq!(head, 0);
        let newest = scan(&ring).unwrap().expect("a sequence");
        assert_eq!(newest.seq_no, 2);
        assert_eq!(newest.entries, s2);
        assert!(!newest.committed);
        assert_eq!(newest.head, 0);
        // Its commit record closes it, and the head moves past it.
        append(&mut ring, &mut head, &record(2, 3, None));
        let newest = scan(&ring).unwrap().expect("a sequence");
        assert!(newest.committed);
        assert_eq!(newest.head, 1);
    }

    #[test]
    fn scan_refuses_to_roll_back_part_of_a_sequence() {
        let mut ring = vec![[0u8; LINE_SIZE]; 9];
        let mut head = 0;
        append(&mut ring, &mut head, &record(1, 0, None));
        for i in 0..3 {
            let e = entry(EntryKind::DataUndo, 0x40 * u64::from(i), i as u8);
            append(&mut ring, &mut head, &record(2, i, Some(e)));
        }
        assert!(scan(&ring).is_ok());
        // A flipped bit in the newest sequence's second record.
        let mut torn = ring.clone();
        torn[3][AT_TARGET] ^= 1;
        assert!(matches!(scan(&torn), Err(Error::IntegrityViolation { .. })));
        // A record lost outright leaves a gap.
        let mut gap = ring.clone();
        gap[3] = [0u8; LINE_SIZE];
        assert!(matches!(scan(&gap), Err(Error::IntegrityViolation { .. })));
        // A record after the commit.
        let mut late = ring.clone();
        let mut at = 5;
        append(&mut late, &mut at, &record(2, 2, None));
        let mut at = 7;
        let e = entry(EntryKind::DataUndo, 0, 0);
        append(&mut late, &mut at, &record(2, 3, Some(e)));
        assert!(scan(&late).is_err());
        // A corrupt record of an older sequence is history, not damage.
        let mut stale = ring;
        stale[0][AT_TAG] ^= 1;
        assert!(scan(&stale).is_ok());
    }

    #[test]
    fn tags_roundtrip() {
        for tag in [
            SeqTag::DemandWrite,
            SeqTag::Shred,
            SeqTag::Remap,
            SeqTag::Scrub,
            SeqTag::DrainEntry,
            SeqTag::CounterFlush,
        ] {
            assert_eq!(SeqTag::from_raw(tag.raw()), Some(tag));
            assert!(!tag.label().is_empty());
        }
        assert_eq!(SeqTag::from_raw(0), None);
        assert!(SeqTag::CounterFlush.is_redo());
        assert!(!SeqTag::Shred.is_redo());
    }
}
