//! The superblock at the head of a file-backed `clamd` image: the layout
//! the image was created with, so that a reboot builds its stripes from
//! the image and not from whatever flags it is given.
//!
//! [`boot_file`](crate::boot_file) reserves the image's first
//! [`SUPERBLOCK_BYTES`] for it and writes it once, when it creates the
//! image; the stripes follow it. Every later boot reads it before any slot
//! and refuses a configuration that disagrees, leaving the image
//! untouched. The page holds, little-endian:
//!
//! | bytes | field |
//! |---|---|
//! | 0..8 | magic `CLAMDIMG` |
//! | 8..12 | format version, 1 |
//! | 12..16 | CRC32 of the whole page with this field zero |
//! | 16..80 | eight `u64`s, in the order of `Superblock::fields` |
//!
//! and zeros after. An image whose first page lacks the magic, and is no
//! superblock with a damaged magic, predates superblocks and boots as it
//! always did, its layout derived from the configuration.

use std::fmt;

use bufferhash::{crc32, ClamConfig};
use flashsim::{Device, SharedDevice};

use crate::server::{BootError, ServerConfig};

/// Bytes the superblock reserves at the head of an image: one page and
/// erase block of a [`FileDevice`](flashsim::FileDevice), so the stripe
/// windows after it stay block-aligned.
pub const SUPERBLOCK_BYTES: u64 = 4096;

const MAGIC: &[u8; 8] = b"CLAMDIMG";
const VERSION: u32 = 1;
const CRC_FIELD: std::ops::Range<usize> = 12..16;
const FIELDS_AT: usize = 16;

/// An image's layout: the configuration it was created under, its
/// stripes' windows (stripe `i` spans `stripe_base + i * stripe_bytes`
/// for `stripe_bytes`) and the CLAM layout of each stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    flash_bytes: u64,
    dram_bytes: u64,
    stripes: u64,
    stripe_base: u64,
    stripe_bytes: u64,
    super_tables: u64,
    /// Also the size of a slot in the stripe's flash log.
    buffer_bytes_per_table: u64,
    incarnations_per_table: u64,
}

/// Why an image's superblock refuses a boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuperblockError {
    /// The page does not match the checksum it carries.
    Crc {
        /// The checksum the page carries.
        stored: u32,
        /// The checksum of the page as read.
        computed: u32,
    },
    /// A format version this build does not read.
    Version(u32),
    /// A layout value differs between the image and the configuration.
    InvalidConfig {
        /// The value's name.
        field: &'static str,
        /// What the image was created with.
        image: u64,
        /// What the configuration gives.
        config: u64,
    },
}

impl fmt::Display for SuperblockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperblockError::Crc { stored, computed } => write!(
                f,
                "image superblock fails its CRC: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SuperblockError::Version(v) => {
                write!(f, "image superblock version {v}; this build reads {VERSION}")
            }
            SuperblockError::InvalidConfig { field, image, config } => write!(
                f,
                "invalid configuration: the image was created with {field} {image}, \
                 the configuration gives {config}"
            ),
        }
    }
}

impl std::error::Error for SuperblockError {}

impl Superblock {
    /// The superblock of an image created under `config`, whose stripes
    /// are `stripes`, laid out from `stripe_base` on.
    pub(crate) fn describe<D: Device>(
        config: &ServerConfig,
        stripe_base: u64,
        stripes: &[(SharedDevice<D>, ClamConfig)],
    ) -> Superblock {
        let (partition, clam) = &stripes[0];
        Superblock {
            flash_bytes: config.flash_bytes,
            dram_bytes: config.dram_bytes,
            stripes: stripes.len() as u64,
            stripe_base,
            stripe_bytes: partition.geometry().capacity,
            super_tables: clam.num_super_tables() as u64,
            buffer_bytes_per_table: clam.buffer_bytes_per_table,
            incarnations_per_table: clam.incarnations_per_table() as u64,
        }
    }

    /// Every value, named, in page order.
    fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("flash_bytes", self.flash_bytes),
            ("dram_bytes", self.dram_bytes),
            ("stripes", self.stripes),
            ("stripe_base", self.stripe_base),
            ("stripe_bytes", self.stripe_bytes),
            ("super_tables", self.super_tables),
            ("buffer_bytes_per_table", self.buffer_bytes_per_table),
            ("incarnations_per_table", self.incarnations_per_table),
        ]
    }

    /// The superblock's page.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut page = vec![0u8; SUPERBLOCK_BYTES as usize];
        page[..8].copy_from_slice(MAGIC);
        page[8..12].copy_from_slice(&VERSION.to_le_bytes());
        for (i, (_, value)) in self.fields().into_iter().enumerate() {
            page[FIELDS_AT + 8 * i..][..8].copy_from_slice(&value.to_le_bytes());
        }
        let crc = checksum(&page, MAGIC);
        page[CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
        page
    }

    /// The superblock in `page`, the image's first [`SUPERBLOCK_BYTES`];
    /// `None` if the image predates superblocks.
    pub(crate) fn decode(page: &[u8]) -> Result<Option<Superblock>, SuperblockError> {
        let word = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"));
        let magic: &[u8; 8] = page[..8].try_into().expect("8 bytes");
        let (stored, computed) = (word(CRC_FIELD.start), checksum(page, magic));
        if magic != MAGIC {
            // A superblock whose magic alone is damaged still matches its
            // checksum with the magic restored: it is refused, not read as
            // an image from before superblocks.
            if checksum(page, MAGIC) == stored {
                return Err(SuperblockError::Crc { stored, computed });
            }
            return Ok(None);
        }
        if stored != computed {
            return Err(SuperblockError::Crc { stored, computed });
        }
        if word(8) != VERSION {
            return Err(SuperblockError::Version(word(8)));
        }
        let value = |i: usize| {
            u64::from_le_bytes(page[FIELDS_AT + 8 * i..][..8].try_into().expect("8 bytes"))
        };
        Ok(Some(Superblock {
            flash_bytes: value(0),
            dram_bytes: value(1),
            stripes: value(2),
            stripe_base: value(3),
            stripe_bytes: value(4),
            super_tables: value(5),
            buffer_bytes_per_table: value(6),
            incarnations_per_table: value(7),
        }))
    }

    /// The stripes of the image on `device`, each in its recorded window
    /// and with the CLAM configuration `config` derives for it, which must
    /// be the one the image was created with. `config`'s own values are
    /// compared first, so a flag that differs is named, and nothing is
    /// read or written.
    pub(crate) fn stripes<D: Device>(
        &self,
        device: &SharedDevice<D>,
        config: &ServerConfig,
    ) -> Result<Vec<(SharedDevice<D>, ClamConfig)>, BootError> {
        let asked = [config.flash_bytes, config.dram_bytes, config.stripes as u64];
        self.first_difference(asked.into_iter())?;
        let region = self.stripe_bytes.checked_mul(self.stripes).ok_or_else(|| {
            format!("image superblock: {} stripes of {} bytes", self.stripes, self.stripe_bytes)
        })?;
        let stripes = config.stripe_partitions(&device.partition(self.stripe_base, region)?)?;
        let derived = Superblock::describe(config, self.stripe_base, &stripes);
        self.first_difference(derived.fields().into_iter().map(|(_, value)| value))?;
        Ok(stripes)
    }

    /// The first of `theirs`, compared field by field in page order, that
    /// differs from this superblock's value.
    fn first_difference(&self, theirs: impl Iterator<Item = u64>) -> Result<(), SuperblockError> {
        match self.fields().into_iter().zip(theirs).find(|((_, image), config)| image != config) {
            Some(((field, image), config)) => {
                Err(SuperblockError::InvalidConfig { field, image, config })
            }
            None => Ok(()),
        }
    }
}

/// The CRC of `page` with `magic` in its first bytes and its CRC field
/// zero.
fn checksum(page: &[u8], magic: &[u8; 8]) -> u32 {
    let mut page = page.to_vec();
    page[..8].copy_from_slice(magic);
    page[CRC_FIELD].fill(0);
    crc32(&page)
}

impl fmt::Display for Superblock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bytes of flash and {} of DRAM over {} stripes of {} bytes from byte {}; \
             each {} super tables of {}-byte buffers and slots, k = {}",
            self.flash_bytes,
            self.dram_bytes,
            self.stripes,
            self.stripe_bytes,
            self.stripe_base,
            self.super_tables,
            self.buffer_bytes_per_table,
            self.incarnations_per_table
        )
    }
}

#[cfg(test)]
mod tests {
    use flashsim::DramDevice;

    use super::*;

    fn described(config: &ServerConfig) -> Superblock {
        let device = SharedDevice::new(DramDevice::new(config.flash_bytes).unwrap());
        Superblock::describe(config, 0, &config.stripe_partitions(&device).unwrap())
    }

    #[test]
    fn a_superblock_round_trips_through_its_page() {
        let superblock = described(&ServerConfig::default());
        let page = superblock.encode();
        assert_eq!(page.len() as u64, SUPERBLOCK_BYTES);
        assert_eq!(Superblock::decode(&page), Ok(Some(superblock.clone())));
        assert_eq!(superblock.stripes, 4);
        assert_eq!(superblock.stripe_bytes, 16 << 20);
        assert_eq!(superblock.buffer_bytes_per_table, 32 << 10);
        assert_eq!(Superblock::decode(&[0u8; 4096]), Ok(None), "no magic: an older image");
    }

    #[test]
    fn every_flipped_byte_fails_the_crc() {
        let page = described(&ServerConfig::default()).encode();
        for at in (0..8).chain((8..page.len()).step_by(7)) {
            let mut flipped = page.clone();
            flipped[at] ^= 0x10;
            let refused = Superblock::decode(&flipped);
            assert!(matches!(refused, Err(SuperblockError::Crc { .. })), "byte {at}: {refused:?}");
        }
    }

    #[test]
    fn a_differing_flag_is_named_with_both_values() {
        let superblock = described(&ServerConfig::default());
        let device = SharedDevice::new(DramDevice::new(64 << 20).unwrap());
        let config = ServerConfig { dram_bytes: 32 << 20, ..ServerConfig::default() };
        let refused = superblock.stripes(&device, &config).unwrap_err();
        assert_eq!(
            refused.to_string(),
            "invalid configuration: the image was created with dram_bytes 8388608, \
             the configuration gives 33554432"
        );
    }
}
