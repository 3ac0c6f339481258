//! Physical frame allocation.
//!
//! Frames follow the Linux zero-on-demand discipline of §2.3: a freed
//! frame comes back dirty, and the fault handler that takes it next
//! shreds it right before mapping, so every reused frame is shredded
//! exactly once per reallocation.

use std::collections::VecDeque;

use ss_common::{Error, PageId, Result};

/// A physical frame with its cleanliness state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeFrame {
    page: PageId,
    clean: bool,
}

/// The frame allocator.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    free: VecDeque<FreeFrame>,
    total: usize,
}

/// Result of taking a frame: the page and whether it still needs
/// shredding before being mapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakenFrame {
    /// The allocated physical page.
    pub page: PageId,
    /// `true` when the caller must shred before mapping (the frame may
    /// hold a previous owner's data).
    pub needs_shred: bool,
}

impl FrameAllocator {
    /// Creates an allocator over `frames`. Frames are initially *clean*:
    /// fresh NVM (or a fully shredded device) holds no one's data, so
    /// first-ever allocations need no shredding — matching the paper's
    /// focus on page *reuse*.
    pub fn new(frames: Vec<PageId>) -> Self {
        let total = frames.len();
        FrameAllocator {
            free: frames
                .into_iter()
                .map(|page| FreeFrame { page, clean: true })
                .collect(),
            total,
        }
    }

    /// Frames currently free.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Total frames managed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Takes a frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] when no frame is free.
    pub fn alloc(&mut self) -> Result<TakenFrame> {
        let f = self.free.pop_front().ok_or(Error::OutOfMemory)?;
        Ok(TakenFrame {
            page: f.page,
            needs_shred: !f.clean,
        })
    }

    /// Returns a frame; `shredded` marks a frame the caller has already
    /// shredded, so its next allocation needs no shred.
    ///
    /// Freed frames are reused LIFO (like Linux's per-CPU page lists),
    /// which maximises frame reuse — the case shredding exists for.
    pub fn free(&mut self, page: PageId, shredded: bool) {
        self.free.push_front(FreeFrame {
            page,
            clean: shredded,
        });
    }

    /// Adds frames granted later (hypervisor ballooning in).
    pub fn grant(&mut self, frames: impl IntoIterator<Item = PageId>, clean: bool) {
        for page in frames {
            self.total += 1;
            self.free.push_back(FreeFrame { page, clean });
        }
    }

    /// Marks every free frame dirty, as if the machine had been running
    /// other workloads since boot (steady-state page reuse, the regime
    /// the paper evaluates).
    pub fn dirty_all(&mut self) {
        for f in &mut self.free {
            f.clean = false;
        }
    }

    /// Allocates `n` *contiguous* frames (persistent regions need stable,
    /// compactly-describable extents). Returns the first frame.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfMemory`] when no contiguous run of `n` free
    /// frames exists.
    pub fn alloc_contiguous(&mut self, n: u64) -> Result<PageId> {
        if n == 0 {
            return Err(Error::OutOfMemory);
        }
        let mut frames: Vec<u64> = self.free.iter().map(|f| f.page.raw()).collect();
        frames.sort_unstable();
        let mut run_start = 0usize;
        for i in 0..frames.len() {
            if i > 0 && frames[i] != frames[i - 1] + 1 {
                run_start = i;
            }
            if (i - run_start + 1) as u64 >= n {
                let first = frames[i + 1 - n as usize];
                self.remove_specific((0..n).map(|k| PageId::new(first + k)));
                return Ok(PageId::new(first));
            }
        }
        Err(Error::OutOfMemory)
    }

    /// Removes specific frames from the free list (recovery of persistent
    /// regions after a reboot, or contiguous allocation). Frames not in
    /// the free list are ignored.
    pub fn remove_specific(&mut self, frames: impl IntoIterator<Item = PageId>) {
        let wanted: std::collections::BTreeSet<u64> = frames.into_iter().map(|p| p.raw()).collect();
        self.free.retain(|f| !wanted.contains(&f.page.raw()));
    }

    /// Removes up to `n` free frames (hypervisor ballooning out).
    /// Returns the reclaimed pages.
    pub fn reclaim(&mut self, n: usize) -> Vec<PageId> {
        let take = n.min(self.free.len());
        self.total -= take;
        (0..take)
            .map(|_| self.free.pop_front().expect("bounded by len").page)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: u64) -> Vec<PageId> {
        (0..n).map(PageId::new).collect()
    }

    #[test]
    fn fresh_frames_need_no_shred() {
        let mut a = FrameAllocator::new(frames(2));
        assert!(!a.alloc().unwrap().needs_shred);
    }

    #[test]
    fn reused_frames_need_shred() {
        let mut a = FrameAllocator::new(frames(1));
        let f = a.alloc().unwrap();
        a.free(f.page, false);
        let g = a.alloc().unwrap();
        assert_eq!(g.page, f.page);
        assert!(g.needs_shred);
    }

    #[test]
    fn exhaustion_reported() {
        let mut a = FrameAllocator::new(frames(1));
        a.alloc().unwrap();
        assert_eq!(a.alloc().unwrap_err(), Error::OutOfMemory);
    }

    #[test]
    fn contiguous_allocation() {
        let mut a = FrameAllocator::new(frames(16));
        let first = a.alloc_contiguous(4).unwrap();
        // The run is removed from the free list.
        assert_eq!(a.free_count(), 12);
        for k in 0..4 {
            let taken: Vec<_> = (0..12).map(|_| a.alloc().unwrap().page).collect();
            assert!(!taken.contains(&PageId::new(first.raw() + k)));
            for t in taken {
                a.free(t, false);
            }
        }
    }

    #[test]
    fn contiguous_allocation_fails_without_a_run() {
        let mut a = FrameAllocator::new(vec![PageId::new(0), PageId::new(2), PageId::new(4)]);
        assert!(a.alloc_contiguous(2).is_err());
        assert!(a.alloc_contiguous(1).is_ok());
        assert!(a.alloc_contiguous(0).is_err());
    }

    #[test]
    fn remove_specific_ignores_absent() {
        let mut a = FrameAllocator::new(frames(4));
        a.remove_specific([PageId::new(1), PageId::new(99)]);
        assert_eq!(a.free_count(), 3);
    }

    #[test]
    fn grant_and_reclaim() {
        let mut a = FrameAllocator::new(frames(2));
        assert_eq!(a.free_count(), 2);
        a.grant([PageId::new(10), PageId::new(11)], false);
        assert_eq!(a.total(), 4);
        let taken = a.reclaim(3);
        assert_eq!(taken.len(), 3);
        assert_eq!(a.total(), 1);
        assert_eq!(a.free_count(), 1);
        // Reclaim more than available is bounded.
        assert_eq!(a.reclaim(5).len(), 1);
    }
}
