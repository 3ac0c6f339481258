//! Per-process page tables with the shared zero page.
//!
//! Linux maps every freshly `malloc`ed virtual page read-only to a single
//! shared **Zero Page**; the real frame is allocated (and shredded) only
//! on the first write, via copy-on-write (§2.3). [`PageTable`] implements
//! that discipline.

use std::collections::BTreeMap;

use ss_common::{PageId, PhysAddr, VirtAddr};

/// How a virtual page is currently backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Read-only mapping of the shared zero page.
    ZeroPage,
    /// A private writable frame.
    Frame(PageId),
    /// A frame belonging to a named persistent region (§2.1): writable,
    /// but owned by the region, not the process — process teardown must
    /// not recycle it.
    Persistent(PageId),
}

/// Result of translating an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// The access proceeds at this physical address.
    Ok(PhysAddr),
    /// First touch of a reserved page by a load: map the zero page
    /// (minor fault).
    LoadFault,
    /// Write to an unbacked or zero-page-backed page: allocate a frame
    /// (major fault with shredding).
    StoreFault,
    /// The address was never reserved: segmentation fault.
    Invalid,
}

/// A process's address-space state.
#[derive(Debug, Clone)]
pub struct PageTable {
    mappings: BTreeMap<u64, Mapping>,
    /// Reserved (malloc'ed but possibly untouched) virtual page numbers.
    reserved: BTreeMap<u64, ()>,
    zero_page: PageId,
}

impl PageTable {
    /// Creates an empty address space; `zero_page` is the kernel's shared
    /// zero frame.
    pub fn new(zero_page: PageId) -> Self {
        PageTable {
            mappings: BTreeMap::new(),
            reserved: BTreeMap::new(),
            zero_page,
        }
    }

    /// Marks `n` virtual pages starting at `vpn` as reserved.
    pub fn reserve(&mut self, vpn: u64, n: u64) {
        for v in vpn..vpn + n {
            self.reserved.insert(v, ());
        }
    }

    /// Forgets a reserved range, returning any private frames that were
    /// mapped there (for the kernel to free).
    pub fn unreserve(&mut self, vpn: u64, n: u64) -> Vec<PageId> {
        let mut frames = Vec::new();
        for v in vpn..vpn + n {
            self.reserved.remove(&v);
            if let Some(Mapping::Frame(p)) = self.mappings.remove(&v) {
                frames.push(p);
            }
        }
        frames
    }

    /// Translates an access to `va`.
    pub fn translate(&self, va: VirtAddr, is_write: bool) -> Translation {
        let vpn = va.vpn();
        match self.mappings.get(&vpn) {
            Some(Mapping::Frame(p)) | Some(Mapping::Persistent(p)) => {
                Translation::Ok(p.base_addr().add(va.page_offset() as u64))
            }
            Some(Mapping::ZeroPage) => {
                if is_write {
                    Translation::StoreFault
                } else {
                    Translation::Ok(self.zero_page.base_addr().add(va.page_offset() as u64))
                }
            }
            None => {
                if !self.reserved.contains_key(&vpn) {
                    Translation::Invalid
                } else if is_write {
                    Translation::StoreFault
                } else {
                    Translation::LoadFault
                }
            }
        }
    }

    /// Installs the zero page for `vpn` (minor-fault completion).
    pub fn map_zero(&mut self, vpn: u64) {
        self.mappings.insert(vpn, Mapping::ZeroPage);
    }

    /// Installs a private frame for `vpn` (major-fault completion).
    pub fn map_frame(&mut self, vpn: u64, page: PageId) {
        self.mappings.insert(vpn, Mapping::Frame(page));
    }

    /// Installs a persistent-region frame for `vpn`.
    pub fn map_persistent(&mut self, vpn: u64, page: PageId) {
        self.mappings.insert(vpn, Mapping::Persistent(page));
    }

    /// All private frames currently mapped (for process teardown).
    pub fn private_frames(&self) -> Vec<PageId> {
        self.mappings
            .values()
            .filter_map(|m| match m {
                Mapping::Frame(p) => Some(*p),
                Mapping::ZeroPage | Mapping::Persistent(_) => None,
            })
            .collect()
    }

    /// The mapping of `vpn`, if any.
    pub fn mapping(&self, vpn: u64) -> Option<Mapping> {
        self.mappings.get(&vpn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PageTable {
        PageTable::new(PageId::new(0))
    }

    #[test]
    fn unreserved_access_is_invalid() {
        let t = pt();
        assert_eq!(
            t.translate(VirtAddr::new(0x5000), false),
            Translation::Invalid
        );
        assert_eq!(
            t.translate(VirtAddr::new(0x5000), true),
            Translation::Invalid
        );
    }

    #[test]
    fn first_load_faults_to_zero_page() {
        let mut t = pt();
        t.reserve(5, 1);
        assert_eq!(
            t.translate(VirtAddr::new(5 * 4096), false),
            Translation::LoadFault
        );
        t.map_zero(5);
        match t.translate(VirtAddr::new(5 * 4096 + 8), false) {
            Translation::Ok(pa) => assert_eq!(pa, PhysAddr::new(8)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn write_to_zero_page_store_faults() {
        let mut t = pt();
        t.reserve(5, 1);
        t.map_zero(5);
        assert_eq!(
            t.translate(VirtAddr::new(5 * 4096), true),
            Translation::StoreFault
        );
        t.map_frame(5, PageId::new(9));
        match t.translate(VirtAddr::new(5 * 4096), true) {
            Translation::Ok(pa) => assert_eq!(pa.page(), PageId::new(9)),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn first_write_store_faults_directly() {
        let mut t = pt();
        t.reserve(7, 2);
        assert_eq!(
            t.translate(VirtAddr::new(7 * 4096), true),
            Translation::StoreFault
        );
    }

    #[test]
    fn unreserve_returns_private_frames_only() {
        let mut t = pt();
        t.reserve(0, 3);
        t.map_zero(0);
        t.map_frame(1, PageId::new(4));
        let frames = t.unreserve(0, 3);
        assert_eq!(frames, vec![PageId::new(4)]);
        // The whole range is gone, its never-touched page included.
        for vpn in 0..3 {
            assert_eq!(
                t.translate(VirtAddr::new(vpn * 4096), true),
                Translation::Invalid
            );
        }
    }

    #[test]
    fn private_frames_listed() {
        let mut t = pt();
        t.reserve(0, 2);
        t.map_frame(0, PageId::new(1));
        t.map_frame(1, PageId::new(2));
        let mut frames = t.private_frames();
        frames.sort();
        assert_eq!(frames, vec![PageId::new(1), PageId::new(2)]);
    }
}
