//! The typed trace-event stream.
//!
//! Every observable pipeline step of the secure-NVM controller maps to
//! one [`TraceEvent`] variant. Events carry *logical* coordinates
//! (pages, block addresses) so a trace reads like the paper's Fig. 6/7
//! walkthroughs; device-space addresses (post wear-levelling, post
//! remap) stay internal to the controller.

use std::fmt;

use ss_common::{BlockAddr, Cycles, PageId};

/// One controller-pipeline event. Variants mirror the mechanisms of the
/// paper (§4) and the self-healing path (DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A shred command completed for `page` (Fig. 6 steps 3–5).
    Shred {
        /// The shredded page.
        page: PageId,
    },
    /// A read was served by the zero-fill path without touching the NVM
    /// array (Fig. 7 step 3b).
    ZeroFillRead {
        /// The logical line that was zero-filled.
        addr: BlockAddr,
    },
    /// A minor-counter overflow forced a page re-encryption (§4.2).
    CounterOverflow {
        /// The page being re-encrypted.
        page: PageId,
        /// The block whose write overflowed its minor counter.
        block: u8,
    },
    /// A counter line fetched from NVM was checked against the Merkle
    /// tree.
    MerkleVerify {
        /// The page whose counter line was verified.
        page: PageId,
        /// Whether verification passed.
        ok: bool,
    },
    /// The device ECC corrected a read on the controller's behalf.
    EccCorrection {
        /// The logical line whose read was corrected.
        addr: BlockAddr,
    },
    /// A degrading line was remapped to a spare (or failed to be).
    LineRemap {
        /// The device data line being rescued: the logical line's own
        /// address unless Start-Gap wear levelling has moved it.
        addr: BlockAddr,
        /// `true` for a successful rescue, `false` for quarantine.
        ok: bool,
    },
    /// One background-scrubber step visited a line.
    ScrubStep {
        /// The line the scrubber visited.
        addr: BlockAddr,
        /// Whether the step corrected, remapped, or retired the line.
        healed: bool,
    },
    /// The write queue drained a burst of writes to the device.
    WriteQueueDrain {
        /// Number of writes drained in this burst.
        drained: u32,
    },
    /// A scattered-backend read recombined both shares of a line
    /// (DESIGN.md §15; emitted only under the scattered backend).
    ShareRecombine {
        /// The logical line that was recombined.
        addr: BlockAddr,
    },
    /// A scattered-backend shred discarded the mask shares of a page
    /// (DESIGN.md §15; emitted only under the scattered backend).
    MaskDiscard {
        /// The shredded page.
        page: PageId,
        /// Number of live mask lines overwritten with fresh randomness.
        lines: u32,
    },
}

impl TraceEvent {
    /// Short stable kind label (used in JSON and text renderings, and
    /// by tests filtering the stream).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Shred { .. } => "shred",
            TraceEvent::ZeroFillRead { .. } => "zero_fill_read",
            TraceEvent::CounterOverflow { .. } => "counter_overflow",
            TraceEvent::MerkleVerify { .. } => "merkle_verify",
            TraceEvent::EccCorrection { .. } => "ecc_correction",
            TraceEvent::LineRemap { .. } => "line_remap",
            TraceEvent::ScrubStep { .. } => "scrub_step",
            TraceEvent::WriteQueueDrain { .. } => "wqueue_drain",
            TraceEvent::ShareRecombine { .. } => "share_recombine",
            TraceEvent::MaskDiscard { .. } => "mask_discard",
        }
    }

    /// The event payload as fixed-order JSON fields (no braces).
    fn json_fields(&self) -> String {
        match self {
            TraceEvent::Shred { page } => format!("\"page\":{}", page.raw()),
            TraceEvent::ZeroFillRead { addr } => format!("\"addr\":{}", addr.raw()),
            TraceEvent::CounterOverflow { page, block } => {
                format!("\"page\":{},\"block\":{}", page.raw(), block)
            }
            TraceEvent::MerkleVerify { page, ok } => {
                format!("\"page\":{},\"ok\":{}", page.raw(), ok)
            }
            TraceEvent::EccCorrection { addr } => format!("\"addr\":{}", addr.raw()),
            TraceEvent::LineRemap { addr, ok } => {
                format!("\"addr\":{},\"ok\":{}", addr.raw(), ok)
            }
            TraceEvent::ScrubStep { addr, healed } => {
                format!("\"addr\":{},\"healed\":{}", addr.raw(), healed)
            }
            TraceEvent::WriteQueueDrain { drained } => format!("\"drained\":{drained}"),
            TraceEvent::ShareRecombine { addr } => format!("\"addr\":{}", addr.raw()),
            TraceEvent::MaskDiscard { page, lines } => {
                format!("\"page\":{},\"lines\":{}", page.raw(), lines)
            }
        }
    }
}

/// A recorded event: sequence number, cycle stamp, payload. The
/// sequence number is the position in the *full* stream, so after ring
/// wrap-around the record still says which events were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// 0-based position in the full event stream.
    pub seq: u64,
    /// Simulated time the event was emitted at (never wall-clock).
    pub at: Cycles,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders as one JSON object with a fixed key order — byte-stable
    /// across identical runs, like every export in this workspace.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"cycle\":{},\"kind\":\"{}\",{}}}",
            self.seq,
            self.at.raw(),
            self.event.kind(),
            self.event.json_fields()
        )
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<6} @{:<8} {:<16} {}",
            self.seq,
            self.at.raw(),
            self.event.kind(),
            self.event.json_fields()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable() {
        let e = TraceEvent::Shred {
            page: PageId::new(3),
        };
        assert_eq!(e.kind(), "shred");
        let r = TraceRecord {
            seq: 7,
            at: Cycles::new(42),
            event: e,
        };
        assert_eq!(
            r.to_json(),
            "{\"seq\":7,\"cycle\":42,\"kind\":\"shred\",\"page\":3}"
        );
        assert!(r.to_string().contains("shred"));
    }

    #[test]
    fn every_variant_renders_valid_fields() {
        let a = BlockAddr::new(64);
        let p = PageId::new(1);
        let events = [
            TraceEvent::Shred { page: p },
            TraceEvent::ZeroFillRead { addr: a },
            TraceEvent::CounterOverflow { page: p, block: 5 },
            TraceEvent::MerkleVerify { page: p, ok: true },
            TraceEvent::EccCorrection { addr: a },
            TraceEvent::LineRemap { addr: a, ok: false },
            TraceEvent::ScrubStep {
                addr: a,
                healed: true,
            },
            TraceEvent::WriteQueueDrain { drained: 6 },
            TraceEvent::ShareRecombine { addr: a },
            TraceEvent::MaskDiscard { page: p, lines: 4 },
        ];
        for (i, e) in events.into_iter().enumerate() {
            let r = TraceRecord {
                seq: i as u64,
                at: Cycles::ZERO,
                event: e,
            };
            let json = r.to_json();
            assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
            assert!(json.contains(e.kind()), "{json}");
        }
    }
}
