//! CLAM configuration and the §6.4 parameter-tuning rules.
//!
//! A CLAM is configured by a handful of quantities: the flash capacity `F`,
//! the DRAM budget `M`, how much of that DRAM goes to buffers (`B`) versus
//! Bloom filters (`b = M − B`), the per-super-table buffer size `B'` (which
//! fixes the number of super tables `B / B'`), and the entry size `s`.
//! [`tuning`] implements the closed-form rules the paper derives for picking
//! them; [`ClamConfig::recommended`] applies those rules.

use flashsim::Geometry;

use crate::error::{BufferHashError, Result};
use crate::eviction::EvictionPolicy;
use crate::filters::FilterMode;
use crate::types::ENTRY_SIZE;

/// Complete configuration of a CLAM.
#[derive(Debug, Clone, PartialEq)]
pub struct ClamConfig {
    /// Flash capacity in bytes (`F`).
    pub flash_capacity: u64,
    /// Total DRAM budget in bytes (`M`).
    pub dram_bytes: u64,
    /// DRAM dedicated to buffers across all super tables, in bytes (`B`).
    pub buffer_bytes_total: u64,
    /// Per-super-table buffer size in bytes (`B'`); with
    /// `buffer_bytes_total` this fixes the number of super tables. It is
    /// also the size of an incarnation's slot in the flash log, so on a
    /// medium that erases before it programs (a raw flash chip) it must be
    /// a whole number of erase blocks or divide one exactly:
    /// [`Clam::new`](crate::Clam::new) refuses any other size there.
    pub buffer_bytes_per_table: u64,
    /// Size of a hash entry in bytes (`s`); 16 in the paper.
    pub entry_size: usize,
    /// Maximum utilisation of the in-memory buffer hash table (0.5 in the
    /// paper, to keep cuckoo displacement cheap).
    pub max_buffer_utilization: f64,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Organisation of the incarnation membership filters.
    pub filter_mode: FilterMode,
    /// Ablation switch: when `false`, inserts bypass buffering and every
    /// insert is flushed to flash immediately (§7.3.1).
    pub enable_buffering: bool,
}

impl ClamConfig {
    /// A configuration following the paper's tuning rules for the given
    /// flash capacity, DRAM budget and device geometry.
    ///
    /// * total buffer memory `B` is set to the optimum `F / (s·ln²2)`,
    ///   capped at half the DRAM budget so Bloom filters always get space;
    /// * the per-table buffer is the flash erase-block size (the paper's
    ///   recommendation for flash chips, where each flush then erases
    ///   exactly its own block, and its measured sweet spot of 128 KiB for
    ///   SSDs);
    /// * the remaining DRAM is given to Bloom filters.
    pub fn recommended(flash_capacity: u64, dram_bytes: u64, geometry: Geometry) -> Result<Self> {
        let b_opt = tuning::optimal_total_buffer_bytes(flash_capacity, ENTRY_SIZE * 2);
        let buffer_bytes_total = b_opt.min(dram_bytes / 2).max(geometry.block_size as u64);
        let buffer_bytes_per_table = (geometry.block_size as u64).max(4 * 1024);
        let cfg = ClamConfig {
            flash_capacity,
            dram_bytes,
            buffer_bytes_total,
            buffer_bytes_per_table,
            entry_size: ENTRY_SIZE,
            max_buffer_utilization: 0.5,
            eviction: EvictionPolicy::Fifo,
            filter_mode: FilterMode::BitSliced,
            enable_buffering: true,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// A small configuration convenient for tests and examples: `F` and `M`
    /// scaled down but with the same structure as the paper's 32 GB / 4 GB
    /// prototype.
    pub fn small_test(flash_capacity: u64, dram_bytes: u64) -> Result<Self> {
        let buffer_bytes_per_table = 32 * 1024u64;
        let buffer_bytes_total = tuning::optimal_total_buffer_bytes(flash_capacity, ENTRY_SIZE * 2)
            .clamp(buffer_bytes_per_table, dram_bytes / 2);
        let cfg = ClamConfig {
            flash_capacity,
            dram_bytes,
            buffer_bytes_total,
            buffer_bytes_per_table,
            entry_size: ENTRY_SIZE,
            max_buffer_utilization: 0.5,
            eviction: EvictionPolicy::Fifo,
            filter_mode: FilterMode::BitSliced,
            enable_buffering: true,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks internal consistency.
    pub fn validate(&self) -> Result<()> {
        let err = |msg: String| Err(BufferHashError::InvalidConfig(msg));
        if self.flash_capacity == 0 {
            return err("flash capacity must be non-zero".into());
        }
        if self.entry_size < ENTRY_SIZE {
            return err(format!("entry size must be at least {ENTRY_SIZE} bytes"));
        }
        if self.buffer_bytes_per_table == 0 || self.buffer_bytes_total == 0 {
            return err("buffer sizes must be non-zero".into());
        }
        if self.buffer_bytes_per_table > self.buffer_bytes_total {
            return err(format!(
                "per-table buffer ({}) exceeds total buffer memory ({})",
                self.buffer_bytes_per_table, self.buffer_bytes_total
            ));
        }
        if self.buffer_bytes_total > self.dram_bytes {
            return err(format!(
                "buffers ({}) exceed the DRAM budget ({})",
                self.buffer_bytes_total, self.dram_bytes
            ));
        }
        if self.buffer_bytes_total > self.flash_capacity {
            return err("total buffer memory exceeds flash capacity".into());
        }
        if !(0.05..=1.0).contains(&self.max_buffer_utilization) {
            return err(format!(
                "buffer utilisation {} outside [0.05, 1.0]",
                self.max_buffer_utilization
            ));
        }
        if self.num_super_tables() == 0 {
            return err("configuration yields zero super tables".into());
        }
        if self.incarnations_per_table() == 0 {
            return err("flash must hold at least one incarnation per super table".into());
        }
        Ok(())
    }

    /// Number of super tables (`B / B'`).
    pub fn num_super_tables(&self) -> usize {
        (self.buffer_bytes_total / self.buffer_bytes_per_table) as usize
    }

    /// Incarnations per super table in steady state (`k = F / B`).
    pub fn incarnations_per_table(&self) -> usize {
        (self.flash_capacity / self.buffer_bytes_total) as usize
    }

    /// DRAM available for Bloom filters (`b = M − B`), in bytes.
    pub fn bloom_bytes_total(&self) -> u64 {
        self.dram_bytes.saturating_sub(self.buffer_bytes_total)
    }

    /// Bloom-filter bits per incarnation (`m'`).
    pub fn bloom_bits_per_incarnation(&self) -> usize {
        let filters = self.num_super_tables() as u64 * self.incarnations_per_table() as u64;
        if filters == 0 {
            return 0;
        }
        ((self.bloom_bytes_total() * 8) / filters) as usize
    }

    /// Entries one buffer (and hence one incarnation) holds (`n'`).
    pub fn entries_per_incarnation(&self) -> usize {
        ((self.buffer_bytes_per_table as f64 / self.entry_size as f64)
            * self.max_buffer_utilization) as usize
    }

    /// Optimal number of Bloom hash functions (`h = (m'/n')·ln2`, §6.2).
    pub fn bloom_hashes(&self) -> u32 {
        let n = self.entries_per_incarnation().max(1) as f64;
        let m = self.bloom_bits_per_incarnation() as f64;
        ((m / n) * std::f64::consts::LN_2).round().clamp(1.0, 16.0) as u32
    }

    /// Expected Bloom-filter false-positive rate per incarnation.
    pub fn expected_false_positive_rate(&self) -> f64 {
        let h = self.bloom_hashes() as f64;
        0.5f64.powf(h)
    }

    /// Total slots in the flash log (one per incarnation held on flash).
    pub fn total_flash_slots(&self) -> u64 {
        self.flash_capacity / self.buffer_bytes_per_table
    }
}

/// Closed-form parameter tuning from §6.4.
pub mod tuning {
    /// Optimal total buffer memory `B_opt = F / (s·ln²2)` (same units as
    /// `F`). `s_effective` is the effective bytes per entry, i.e. the raw
    /// entry size divided by the buffer utilisation (32 bytes for 16-byte
    /// entries at 50% utilisation).
    pub fn optimal_total_buffer_bytes(flash_capacity: u64, s_effective: usize) -> u64 {
        let ln2_sq = std::f64::consts::LN_2 * std::f64::consts::LN_2;
        (flash_capacity as f64 / (s_effective.max(1) as f64 * ln2_sq)) as u64
    }

    /// Expected lookup I/O overhead (in the same time unit as
    /// `page_read_cost`) for a given Bloom budget:
    /// `C = (F/B)·(1/2)^(b·s·ln2 / F)·c_r` (§6.2).
    pub fn expected_lookup_overhead(
        flash_capacity: u64,
        total_buffer_bytes: u64,
        bloom_bytes: u64,
        s_effective: usize,
        page_read_cost: f64,
    ) -> f64 {
        if total_buffer_bytes == 0 {
            return f64::INFINITY;
        }
        let k = flash_capacity as f64 / total_buffer_bytes as f64;
        let exponent =
            (bloom_bytes as f64 * 8.0) * s_effective as f64 * 8.0 * std::f64::consts::LN_2
                / (flash_capacity as f64 * 8.0);
        k * 0.5f64.powf(exponent) * page_read_cost
    }

    /// Bloom memory needed (bytes) to keep the expected lookup I/O overhead
    /// below `target` (same unit as `page_read_cost`):
    /// `b ≥ F/(s·ln²2) · ln(s·ln²2·c_r / C_target)` (§6.4).
    pub fn bloom_bytes_for_target_overhead(
        flash_capacity: u64,
        s_effective: usize,
        page_read_cost: f64,
        target: f64,
    ) -> u64 {
        let ln2_sq = std::f64::consts::LN_2 * std::f64::consts::LN_2;
        let s = s_effective.max(1) as f64;
        let inner = (s * ln2_sq * page_read_cost / target).max(1.0);
        // The closed form yields a bit count; convert to bytes.
        let bits = (flash_capacity as f64 / (s * ln2_sq)) * inner.ln();
        (bits / 8.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(1 << 30, 4096, 256 * 1024).unwrap()
    }

    #[test]
    fn paper_scale_configuration_matches_reported_structure() {
        // 32 GB flash, 4 GB DRAM, 128 KiB buffers, 16-byte entries.
        let cfg = ClamConfig {
            flash_capacity: 32 << 30,
            dram_bytes: 4 << 30,
            buffer_bytes_total: 2 << 30,
            buffer_bytes_per_table: 128 * 1024,
            entry_size: 16,
            max_buffer_utilization: 0.5,
            eviction: EvictionPolicy::Fifo,
            filter_mode: FilterMode::BitSliced,
            enable_buffering: true,
        };
        cfg.validate().unwrap();
        // The paper reports 16,384 super tables, 16 incarnations each and
        // 4096 entries per buffer for this configuration (§7.1.1).
        assert_eq!(cfg.num_super_tables(), 16_384);
        assert_eq!(cfg.incarnations_per_table(), 16);
        assert_eq!(cfg.entries_per_incarnation(), 4096);
        // 2 GB of Bloom filters over 262,144 incarnations -> 64 Kib each.
        assert_eq!(cfg.bloom_bits_per_incarnation(), 65_536);
        // h = (m/n)·ln2 = 16·ln2 ≈ 11.
        assert_eq!(cfg.bloom_hashes(), 11);
        assert!(cfg.expected_false_positive_rate() < 0.001);
    }

    #[test]
    fn recommended_config_is_valid_and_balanced() {
        let cfg = ClamConfig::recommended(1 << 30, 256 << 20, geom()).unwrap();
        assert!(cfg.validate().is_ok());
        assert!(cfg.bloom_bytes_total() > 0);
        assert!(cfg.num_super_tables() >= 1);
        assert!(cfg.incarnations_per_table() >= 1);
    }

    #[test]
    fn small_test_config_is_valid() {
        let cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
        assert!(cfg.num_super_tables() >= 1);
        assert!(cfg.incarnations_per_table() >= 2);
    }

    #[test]
    fn optimal_buffer_size_formula() {
        // B_opt = F/(s·ln²2) ≈ 2.08·F/s.
        let b = tuning::optimal_total_buffer_bytes(32 << 30, 32);
        let expected = (32u64 << 30) as f64 / 32.0 / 0.4805;
        assert!((b as f64 - expected).abs() / expected < 0.01);
    }

    #[test]
    fn lookup_overhead_decreases_with_bloom_memory() {
        let f = 32u64 << 30;
        let b = 2u64 << 30;
        let small = tuning::expected_lookup_overhead(f, b, 256 << 20, 32, 0.3);
        let large = tuning::expected_lookup_overhead(f, b, 1 << 30, 32, 0.3);
        assert!(large < small);
        assert!(small.is_finite());
    }

    #[test]
    fn bloom_budget_meets_its_target() {
        let f = 32u64 << 30;
        let cr = 0.3; // ms per page read
        let target = 0.01; // ms
        let bloom = tuning::bloom_bytes_for_target_overhead(f, 32, cr, target);
        let b_opt = tuning::optimal_total_buffer_bytes(f, 32);
        let achieved = tuning::expected_lookup_overhead(f, b_opt, bloom, 32, cr);
        assert!(
            achieved <= target * 1.05,
            "bloom budget {bloom} gives overhead {achieved}, target {target}"
        );
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        let mut cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
        cfg.buffer_bytes_total = cfg.dram_bytes + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
        cfg.buffer_bytes_per_table = cfg.buffer_bytes_total * 2;
        assert!(cfg.validate().is_err());

        let mut cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
        cfg.flash_capacity = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
        cfg.max_buffer_utilization = 0.0;
        assert!(cfg.validate().is_err());
    }
}
