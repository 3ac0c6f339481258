//! The event ring: where emitted [`TraceEvent`]s go.
//!
//! The hot-path contract is that tracing must be *zero-cost when
//! disabled*: the controller calls [`Tracer::emit`] with a closure, and
//! the [`Tracer::Null`] arm returns after a single discriminant test
//! without ever constructing the event. When enabled, events land in a
//! bounded ring ([`RingSink`]) that drops the *oldest* records, so the
//! tail of a long run is always retained for post-mortem inspection.

use std::collections::VecDeque;

use ss_common::Cycles;

use crate::event::{TraceEvent, TraceRecord};

/// Bounded ring buffer of [`TraceRecord`]s. When full, the oldest record
/// is evicted; `seq` numbers keep counting, so consumers can tell how
/// much of the stream they are missing.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Copies the retained records out, oldest first.
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.buf.iter().copied().collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity (maximum retained records).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event stamped at simulated time `at`, evicting the
    /// oldest record when full.
    pub fn record(&mut self, at: Cycles, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord {
            seq: self.next_seq,
            at,
            event,
        });
        self.next_seq += 1;
    }

    /// Events recorded over the ring's lifetime, including dropped ones.
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// The controller-facing tracer: either disabled (the default) or a
/// bounded ring.
///
/// `emit` takes the event as a *closure* so that formatting-free
/// construction cost is only paid when tracing is on:
///
/// ```
/// use ss_trace::{Tracer, TraceEvent, Cycles};
/// use ss_common::PageId;
///
/// let mut t = Tracer::ring(16);
/// t.emit(Cycles::new(10), || TraceEvent::Shred { page: PageId::new(3) });
/// assert_eq!(t.records().len(), 1);
///
/// let mut off = Tracer::disabled();
/// off.emit(Cycles::new(10), || unreachable!("never evaluated"));
/// assert!(off.records().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub enum Tracer {
    /// Tracing off: `emit` is a discriminant test, nothing else runs.
    #[default]
    Null,
    /// Tracing on, recording into a bounded ring.
    Ring(RingSink),
}

impl Tracer {
    /// A disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Self {
        Tracer::Null
    }

    /// An enabled tracer retaining the last `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Tracer::Ring(RingSink::new(capacity))
    }

    /// From an optional depth, as carried in controller config:
    /// `None` → disabled, `Some(n)` → ring of `n`.
    pub fn from_depth(depth: Option<usize>) -> Self {
        match depth {
            None => Tracer::Null,
            Some(n) => Tracer::ring(n),
        }
    }

    /// True when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        matches!(self, Tracer::Ring(_))
    }

    /// Record the event produced by `f` at simulated time `at`. When the
    /// tracer is [`Tracer::Null`], `f` is never evaluated.
    #[inline]
    pub fn emit(&mut self, at: Cycles, f: impl FnOnce() -> TraceEvent) {
        if let Tracer::Ring(ring) = self {
            ring.record(at, f());
        }
    }

    /// The retained records, oldest first (empty when disabled).
    pub fn records(&self) -> Vec<TraceRecord> {
        match self {
            Tracer::Null => Vec::new(),
            Tracer::Ring(ring) => ring.to_vec(),
        }
    }

    /// Lifetime totals `(emitted, dropped)` — both 0 when disabled.
    pub fn totals(&self) -> (u64, u64) {
        match self {
            Tracer::Null => (0, 0),
            Tracer::Ring(ring) => (ring.emitted(), ring.dropped()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::PageId;

    fn shred(p: u64) -> TraceEvent {
        TraceEvent::Shred {
            page: PageId::new(p),
        }
    }

    #[test]
    fn ring_drops_oldest_and_keeps_sequencing() {
        let mut ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(Cycles::new(i), shred(i));
        }
        assert_eq!(ring.emitted(), 5);
        assert_eq!(ring.dropped(), 3);
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
    }

    #[test]
    fn null_tracer_never_evaluates_the_closure() {
        let mut t = Tracer::disabled();
        let mut evaluated = false;
        t.emit(Cycles::ZERO, || {
            evaluated = true;
            shred(0)
        });
        assert!(!evaluated);
        assert!(!t.is_enabled());
        assert_eq!(t.totals(), (0, 0));
    }

    #[test]
    fn from_depth_matches_config_convention() {
        assert!(!Tracer::from_depth(None).is_enabled());
        assert!(Tracer::from_depth(Some(8)).is_enabled());
    }

    #[test]
    fn ring_tracer_records_in_order() {
        let mut t = Tracer::ring(8);
        t.emit(Cycles::new(1), || shred(10));
        t.emit(Cycles::new(2), || shred(11));
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].at, Cycles::new(2));
        assert_eq!(t.totals(), (2, 0));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = RingSink::new(0);
        ring.record(Cycles::ZERO, shred(0));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.capacity(), 1);
        assert!(!ring.is_empty());
    }
}
