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
//! To make an arbitrary cut recoverable, ADR mode maintains an
//! **ordering journal** in a dedicated NVM region after the spare pool:
//!
//! ```text
//! [data][gap][counters][spares][journal: header + up to 96 entries]
//! ```
//!
//! Each top-level operation that persists anything opens a journal
//! sequence (header line, lazily on the first entry), appends one entry
//! per line it is about to write — the **pre-image** for undo
//! sequences, the **post-image** for redo sequences (pure metadata
//! flushes whose data is already durable) — and closes the header when
//! the operation completes. Journal writes themselves model a
//! battery-latched path: they are not cuttable and not torn.
//!
//! On reboot, [`crate::MemoryController::recover_mut`] finds an open
//! sequence, applies redo entries forward and undo entries in reverse
//! (restoring Merkle leaves for counter lines and rolling back
//! spare-pool allocations), closes the journal, re-verifies every
//! Merkle leaf against the persisted counter region, and re-counts the
//! shredded-page population — re-establishing the shred-reads-zero
//! invariant before the first demand access.

use ss_common::{BlockAddr, PageId, LINE_SIZE};
use ss_crypto::Line;

/// Maximum journal entries one sequence may hold. The worst real
/// sequence is a minor-overflow re-encryption (64 data lines + counter
/// pre-image + remap bookkeeping); 96 leaves headroom.
pub const JOURNAL_MAX_ENTRIES: usize = 96;

/// Lines occupied by the journal region: one header plus two lines
/// (entry header + payload) per entry.
pub const JOURNAL_LINES: u64 = 1 + 2 * JOURNAL_MAX_ENTRIES as u64;

/// Journal header magic ("SSJRNL01" as little-endian bytes).
const HEADER_MAGIC: u64 = 0x3130_4C4E_524A_5353;
/// Journal entry magic ("SSJENT01").
const ENTRY_MAGIC: u64 = 0x3130_544E_454A_5353;

const STATE_OPEN: u8 = 1;
const STATE_CLOSED: u8 = 2;

/// Which multi-step persist sequence a journal header belongs to.
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

/// A decoded open journal sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenSequence {
    /// Diagnostic tag of the interrupted operation.
    pub tag: Option<SeqTag>,
    /// Sequence number (monotonic per controller lifetime).
    pub seq_no: u64,
    /// Entries in append order.
    pub entries: Vec<JournalEntry>,
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
    /// Whether the open sequence's header has been written to NVM.
    pub header_written: bool,
    /// Next sequence number to use.
    pub next_seq: u64,
    /// Targets journaled in the open sequence (dedupe: first pre-image
    /// wins).
    pub journaled: Vec<u64>,
    /// Entries appended to the open sequence (mirror of NVM state).
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

    /// Forgets the mirror of a committed or resolved sequence.
    pub(crate) fn end_sequence(&mut self) {
        self.header_written = false;
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
    /// Whether every Merkle leaf re-verified against the persisted
    /// counter region (always true when integrity is disabled).
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

/// Encodes a journal header line.
pub fn encode_header(open: bool, tag: u8, seq_no: u64) -> Line {
    let mut line = [0u8; LINE_SIZE];
    put_u64(&mut line, 0, HEADER_MAGIC);
    line[8] = if open { STATE_OPEN } else { STATE_CLOSED };
    line[9] = tag;
    put_u64(&mut line, 16, seq_no);
    line
}

/// Decodes a journal header: `Some((open, tag, seq_no))` when the magic
/// matches.
pub fn decode_header(line: &Line) -> Option<(bool, u8, u64)> {
    if get_u64(line, 0) != HEADER_MAGIC {
        return None;
    }
    let open = match line[8] {
        STATE_OPEN => true,
        STATE_CLOSED => false,
        _ => return None,
    };
    Some((open, line[9], get_u64(line, 16)))
}

/// Encodes a journal entry header line.
pub fn encode_entry(entry: &JournalEntry, seq_no: u64) -> Line {
    let mut line = [0u8; LINE_SIZE];
    put_u64(&mut line, 0, ENTRY_MAGIC);
    line[8] = entry.kind.raw();
    line[9] = u8::from(entry.was_quarantined);
    put_u64(&mut line, 16, entry.target.raw());
    put_u64(&mut line, 24, entry.aux);
    put_u64(&mut line, 32, seq_no);
    line
}

/// Decodes an entry header belonging to sequence `seq_no`; the payload
/// is supplied separately by the caller.
pub fn decode_entry(line: &Line, seq_no: u64, payload: Line) -> Option<JournalEntry> {
    if get_u64(line, 0) != ENTRY_MAGIC || get_u64(line, 32) != seq_no {
        return None;
    }
    Some(JournalEntry {
        kind: EntryKind::from_raw(line[8])?,
        target: BlockAddr::new(get_u64(line, 16)),
        aux: get_u64(line, 24),
        was_quarantined: line[9] != 0,
        payload,
    })
}

/// Owning page of a counter entry's `aux` field.
pub fn entry_page(entry: &JournalEntry) -> PageId {
    PageId::new(entry.aux)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let line = encode_header(true, SeqTag::Remap.raw(), 42);
        assert_eq!(decode_header(&line), Some((true, 3, 42)));
        let closed = encode_header(false, 0, 7);
        assert_eq!(decode_header(&closed), Some((false, 0, 7)));
        assert_eq!(decode_header(&[0u8; LINE_SIZE]), None);
    }

    #[test]
    fn entry_roundtrip() {
        let e = JournalEntry {
            kind: EntryKind::CounterUndo,
            target: BlockAddr::new(0x1_0040),
            aux: 9,
            was_quarantined: false,
            payload: [0xAB; LINE_SIZE],
        };
        let line = encode_entry(&e, 5);
        assert_eq!(decode_entry(&line, 5, [0xAB; LINE_SIZE]), Some(e));
        // A stale entry from an earlier sequence does not decode.
        assert_eq!(decode_entry(&line, 6, [0xAB; LINE_SIZE]), None);
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
