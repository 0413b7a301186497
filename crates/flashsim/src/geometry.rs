//! Device geometry: capacity, page size and erase-block size.

use serde::{Deserialize, Serialize};

use crate::error::{DeviceError, Result};

/// Physical layout of a storage device.
///
/// * `page_size` is the smallest unit that can be read or programmed
///   (a flash page / SSD sector / disk sector).
/// * `block_size` is the erase granularity for flash media. For devices
///   without an erase concept (disk, DRAM) it is equal to `page_size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Geometry {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Read/program granularity in bytes.
    pub page_size: u32,
    /// Erase granularity in bytes (a multiple of `page_size`).
    pub block_size: u32,
}

impl Geometry {
    /// Creates a new geometry, validating the invariants.
    pub fn new(capacity: u64, page_size: u32, block_size: u32) -> Result<Self> {
        if page_size == 0 {
            return Err(DeviceError::InvalidConfig("page_size must be non-zero".into()));
        }
        if block_size == 0 || !block_size.is_multiple_of(page_size) {
            return Err(DeviceError::InvalidConfig(
                "block_size must be a non-zero multiple of page_size".into(),
            ));
        }
        if capacity == 0 || !capacity.is_multiple_of(block_size as u64) {
            return Err(DeviceError::InvalidConfig(
                "capacity must be a non-zero multiple of block_size".into(),
            ));
        }
        Ok(Geometry { capacity, page_size, block_size })
    }

    /// Number of pages on the device.
    pub fn pages(&self) -> u64 {
        self.capacity / self.page_size as u64
    }

    /// Number of erase blocks on the device.
    pub fn blocks(&self) -> u64 {
        self.capacity / self.block_size as u64
    }

    /// Number of pages per erase block.
    pub fn pages_per_block(&self) -> u32 {
        self.block_size / self.page_size
    }

    /// Page index containing byte `offset`.
    pub fn page_of(&self, offset: u64) -> u64 {
        offset / self.page_size as u64
    }

    /// Byte offset of the start of `page`.
    pub fn page_offset(&self, page: u64) -> u64 {
        page * self.page_size as u64
    }

    /// Byte offset of the start of erase block `block`.
    pub fn block_offset(&self, block: u64) -> u64 {
        block * self.block_size as u64
    }

    /// Number of pages touched by a byte range `[offset, offset + len)`.
    ///
    /// Per the paper's design principle P2, any I/O smaller than a page costs
    /// a full page, so this is the unit in which costs are charged.
    pub fn pages_spanned(&self, offset: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = self.page_of(offset);
        let last = self.page_of(offset + len as u64 - 1);
        last - first + 1
    }

    /// Validates that `[offset, offset + len)` lies within the device.
    pub fn check_bounds(&self, offset: u64, len: usize) -> Result<()> {
        match offset.checked_add(len as u64) {
            Some(end) if end <= self.capacity => Ok(()),
            _ => Err(DeviceError::OutOfBounds { offset, len, capacity: self.capacity }),
        }
    }

    /// Validates that erase block `block` exists on the device.
    pub fn check_block(&self, block: u64) -> Result<()> {
        let blocks = self.blocks();
        if block >= blocks {
            return Err(DeviceError::InvalidBlock { block, blocks });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::new(1 << 20, 2048, 128 * 1024).unwrap()
    }

    #[test]
    fn construction_validates_invariants() {
        assert!(Geometry::new(1 << 20, 0, 4096).is_err());
        assert!(Geometry::new(1 << 20, 4096, 4096 * 3 + 1).is_err());
        assert!(Geometry::new(0, 2048, 4096).is_err());
        assert!(Geometry::new(1 << 20 | 1, 2048, 4096).is_err());
        assert!(Geometry::new(1 << 20, 2048, 128 * 1024).is_ok());
    }

    #[test]
    fn derived_counts() {
        let g = geo();
        assert_eq!(g.pages(), 512);
        assert_eq!(g.blocks(), 8);
        assert_eq!(g.pages_per_block(), 64);
    }

    #[test]
    fn addressing_helpers() {
        let g = geo();
        assert_eq!(g.page_of(0), 0);
        assert_eq!(g.page_of(2047), 0);
        assert_eq!(g.page_of(2048), 1);
        assert_eq!(g.page_offset(3), 6144);
        assert_eq!(g.block_offset(2), 256 * 1024);
    }

    #[test]
    fn pages_spanned_counts_partial_pages() {
        let g = geo();
        assert_eq!(g.pages_spanned(0, 0), 0);
        assert_eq!(g.pages_spanned(0, 1), 1);
        assert_eq!(g.pages_spanned(0, 2048), 1);
        assert_eq!(g.pages_spanned(0, 2049), 2);
        assert_eq!(g.pages_spanned(2047, 2), 2);
        assert_eq!(g.pages_spanned(4096, 128 * 1024), 64);
    }

    #[test]
    fn bounds_checking() {
        let g = geo();
        assert!(g.check_bounds(0, 1 << 20).is_ok());
        assert!(g.check_bounds(1 << 20, 0).is_ok());
        assert!(g.check_bounds((1 << 20) - 1, 2).is_err());
        assert!(g.check_bounds(u64::MAX, 2).is_err());
        assert!(g.check_block(7).is_ok());
        assert_eq!(g.check_block(8), Err(DeviceError::InvalidBlock { block: 8, blocks: 8 }));
    }
}
