//! On-flash incarnation format.
//!
//! When a buffer fills, its entries are written to flash as an
//! *incarnation*: a small, immutable hash table laid out so that looking up
//! a key needs to read only one flash page (§5.1.1). Keys are assigned to
//! pages by hash; each page stores its entries sorted, behind a small
//! header. Because the buffer runs at 50% utilisation, pages have roughly 2×
//! the room they need on average and overflow is rare; when a page does
//! overflow, the excess spills into the next page and the page is flagged so
//! lookups know to continue.
//!
//! ## Self-describing pages and crash recovery
//!
//! Every page carries a 32-byte header that identifies the incarnation it
//! belongs to from flash contents alone:
//!
//! ```text
//!  0        4      6      8        10      12         16       24      28     32
//!  +--------+------+------+--------+-------+----------+--------+-------+------+
//!  | magic  |count |flags |version | table | page idx |  seq   | epoch | CRC  |
//!  | "BHIN" | u16  | u16  |  u16   |  u16  |   u32    |  u64   |  u32  | u32  |
//!  +--------+------+------+--------+-------+----------+--------+-------+------+
//! ```
//!
//! `seq` is the global flush sequence number (the incarnation's identity
//! within a CLAM lifetime), `table` the super table that flushed it, and
//! `epoch` the CLAM lifetime that wrote it. The CRC32 covers the whole page
//! (header with the CRC field zeroed, plus the payload), so a torn write —
//! a power cut mid-page — fails the checksum, and a cut at a page boundary
//! leaves pages whose identities disagree across the slot. The recovery
//! scan ([`scan_incarnation`]) classifies a slot as empty, torn, or a valid
//! incarnation; steady-state lookups skip the CRC (pages are verified once
//! at recovery, not on every probe) but check that a page's table, index,
//! `seq` and `epoch` are the ones they meant to read (`page_identity`).

use serde::{Deserialize, Serialize};

use crate::error::{BufferHashError, Result};
use crate::types::{group_stable, hash_with_seed, Entry, Key, Modulus, Value, ENTRY_SIZE};

/// Magic number identifying an incarnation page ("BHIN").
const PAGE_MAGIC: u32 = 0x4248_494e;
/// Bytes reserved for the per-page header.
pub const PAGE_HEADER_SIZE: usize = 32;
/// Flag bit: this page overflowed into the next page.
const FLAG_OVERFLOW: u16 = 1;
/// On-flash format version written into every page header.
pub const INCARNATION_VERSION: u16 = 1;

/// CRC32 (IEEE, reflected polynomial `0xEDB88320`) lookup tables for
/// slicing-by-16 (16 KiB): `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table, and `CRC32_TABLES[k][b]` is the CRC state byte `b` leaves behind
/// after `k` further zero bytes, so sixteen table reads advance the state
/// by sixteen input bytes at once.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The table reads for four bytes of a 16-byte block, `word` holding them
/// and `after + 3` bytes of the block following the first.
#[inline(always)]
fn slice4(after: usize, word: u32) -> u32 {
    let t = &CRC32_TABLES;
    t[after + 3][(word & 0xFF) as usize]
        ^ t[after + 2][(word >> 8 & 0xFF) as usize]
        ^ t[after + 1][(word >> 16 & 0xFF) as usize]
        ^ t[after][(word >> 24) as usize]
}

/// Advances a raw (pre-inverted) CRC32 state by one byte.
fn crc32_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// Advances a raw (pre-inverted) CRC32 state over `data`, sixteen bytes
/// per step; [`crc32`] and the page checksums are built from this.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("16-byte block"));
        let hi = u64::from_le_bytes(block[8..].try_into().expect("16-byte block"));
        crc = slice4(12, lo as u32 ^ crc)
            ^ slice4(8, (lo >> 32) as u32)
            ^ slice4(4, hi as u32)
            ^ slice4(0, (hi >> 32) as u32);
    }
    blocks.remainder().iter().fold(crc, |crc, &byte| crc32_byte(crc, byte))
}

/// Computes the CRC32 (IEEE) checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Byte range of the CRC field: the header's last four bytes.
const CRC_FIELD: std::ops::Range<usize> = 28..PAGE_HEADER_SIZE;

/// The checksum a page carries: CRC32 over the page, the CRC field and
/// every byte from `zero_from` on taken as zero. The write path passes the
/// end of its entries (a zero 16-byte block costs four table reads, not
/// sixteen); verification passes `page.len()`, reading every byte. Panics
/// unless `PAGE_HEADER_SIZE <= zero_from <= page.len()`.
pub fn page_crc(page: &[u8], zero_from: usize) -> u32 {
    let mut header = [0u8; PAGE_HEADER_SIZE];
    header[..CRC_FIELD.start].copy_from_slice(&page[..CRC_FIELD.start]);
    let crc = crc32_update(0xFFFF_FFFF, &header);
    let crc = crc32_update(crc, &page[PAGE_HEADER_SIZE..zero_from]);
    let zeros = page.len() - zero_from;
    let crc = (0..zeros / 16).fold(crc, |crc, _| slice4(12, crc));
    !(0..zeros % 16).fold(crc, |crc, _| crc32_byte(crc, 0))
}

/// Identity an incarnation is stamped with when serialized: which super
/// table flushed it, its global flush sequence number, and the CLAM
/// lifetime (epoch) that wrote it. Recovery reads these back from the page
/// headers alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncarnationIdentity {
    /// Super table that flushed this incarnation.
    pub table: u16,
    /// Global flush sequence number (the incarnation's identity within a
    /// lifetime; younger incarnations shadow older ones).
    pub seq: u64,
    /// CLAM lifetime that wrote this incarnation. Incarnations are ordered
    /// by `(epoch, seq)`: when two valid slots claim the same flush
    /// sequence, the higher epoch wins and the lower is a stale lifetime's
    /// leftover.
    pub epoch: u32,
}

/// Geometry of an incarnation: how many pages it spans and how large each is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncarnationLayout {
    /// Flash page (or SSD sector) size in bytes.
    pub page_size: usize,
    /// The page count, to reduce hashes to pages without dividing.
    pages: Modulus,
}

impl IncarnationLayout {
    /// Creates a layout for an incarnation of `incarnation_bytes` total size
    /// on pages of `page_size` bytes.
    pub fn new(incarnation_bytes: usize, page_size: usize) -> Result<Self> {
        if page_size <= PAGE_HEADER_SIZE + ENTRY_SIZE {
            return Err(BufferHashError::InvalidConfig(format!(
                "page size {page_size} too small for incarnation pages"
            )));
        }
        let num_pages = (incarnation_bytes / page_size).max(1);
        Ok(IncarnationLayout { page_size, pages: Modulus::new(num_pages) })
    }

    /// Number of pages per incarnation.
    pub fn num_pages(&self) -> usize {
        self.pages.get()
    }

    /// Total size of a serialized incarnation in bytes.
    pub fn total_bytes(&self) -> usize {
        self.page_size * self.num_pages()
    }

    /// Number of entries one page can hold.
    pub fn entries_per_page(&self) -> usize {
        (self.page_size - PAGE_HEADER_SIZE) / ENTRY_SIZE
    }

    /// Maximum number of entries the incarnation can hold.
    pub fn max_entries(&self) -> usize {
        self.entries_per_page() * self.num_pages()
    }

    /// The page a key hashes to.
    pub fn page_of_key(&self, key: Key) -> usize {
        self.pages.reduce(hash_with_seed(key, 0x9a6e_5c01))
    }

    /// Flash byte offset of page `page_idx` of an incarnation whose image
    /// starts at `flash_offset` — the address a probe of that page reads.
    pub fn page_offset(&self, flash_offset: u64, page_idx: usize) -> u64 {
        flash_offset + (self.pages.reduce(page_idx as u64) * self.page_size) as u64
    }

    /// The page an overflow chain continues on after `page_idx` (wrapping
    /// spill, matching [`serialize_identified`](Self::serialize_identified)'s
    /// forward spill).
    pub fn next_page(&self, page_idx: usize) -> usize {
        (page_idx + 1) % self.num_pages()
    }

    /// Serializes `entries` into an incarnation image of
    /// `total_bytes()` bytes, stamping every page header with `identity`
    /// and a CRC32 over the page contents.
    ///
    /// Entries whose home page is full spill into subsequent pages; the
    /// overflowing page is flagged so lookups follow the chain. Returns an
    /// error if there are more entries than the incarnation can hold.
    pub fn serialize_identified(
        &self,
        entries: &[Entry],
        identity: IncarnationIdentity,
    ) -> Result<Vec<u8>> {
        if entries.len() > self.max_entries() {
            return Err(BufferHashError::InvalidConfig(format!(
                "{} entries exceed incarnation capacity {}",
                entries.len(),
                self.max_entries()
            )));
        }
        let per_page = self.entries_per_page();
        // `staged` holds every page's own entries as one contiguous run, in
        // input order.
        let (staged, starts) = group_stable(entries, self.num_pages(), |e| self.page_of_key(e.key));
        // One pass over the pages. A page keeps its first `per_page`
        // entries — its own before anything spilled into it — and hands
        // the rest to the next page as `carry` (own tail first), flagged
        // as overflowed. At 50 % fill nothing ever spills and `carry`
        // never allocates.
        let mut out = vec![0u8; self.total_bytes()];
        let mut carry: Vec<Entry> = Vec::new();
        let mut kept: Vec<Entry> = Vec::with_capacity(per_page);
        let mut sorted: Vec<Entry> = Vec::with_capacity(per_page);
        for (i, page) in out.chunks_exact_mut(self.page_size).enumerate() {
            let own = &staged[starts[i]..starts[i + 1]];
            let (own, own_tail) = own.split_at(own.len().min(per_page));
            kept.clear();
            kept.extend_from_slice(own);
            kept.extend(carry.drain(..carry.len().min(per_page - own.len())));
            carry.splice(0..0, own_tail.iter().copied());
            self.emit_page(page, i, &kept, &mut sorted, !carry.is_empty(), identity);
        }
        // Whatever spilled past the last page wraps into the first pages'
        // free room. The volume fits, so one more lap absorbs it all.
        for (i, page) in out.chunks_exact_mut(self.page_size).enumerate() {
            if carry.is_empty() {
                break;
            }
            let (_, flags) = parse_header(page)?;
            kept = parse_page_entries(page)?;
            kept.extend(carry.drain(..carry.len().min(per_page - kept.len())));
            let overflowed = flags & FLAG_OVERFLOW != 0 || !carry.is_empty();
            self.emit_page(page, i, &kept, &mut sorted, overflowed, identity);
        }
        if !carry.is_empty() {
            return Err(BufferHashError::InvalidConfig(
                "incarnation overflow could not be resolved; too many entries".into(),
            ));
        }
        Ok(out)
    }

    /// Writes page `page_idx` of an incarnation: header, `entries` sorted
    /// by key (into `sorted`, a scratch buffer), zero padding, and the
    /// CRC32 over all of it.
    fn emit_page(
        &self,
        page: &mut [u8],
        page_idx: usize,
        entries: &[Entry],
        sorted: &mut Vec<Entry>,
        overflowed: bool,
        identity: IncarnationIdentity,
    ) {
        sort_by_key_into(entries, sorted);
        let entries = &sorted[..];
        page[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        page[4..6].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        let flags = if overflowed { FLAG_OVERFLOW } else { 0 };
        page[6..8].copy_from_slice(&flags.to_le_bytes());
        page[8..10].copy_from_slice(&INCARNATION_VERSION.to_le_bytes());
        page[10..12].copy_from_slice(&identity.table.to_le_bytes());
        page[12..16].copy_from_slice(&(page_idx as u32).to_le_bytes());
        page[16..24].copy_from_slice(&identity.seq.to_le_bytes());
        page[24..28].copy_from_slice(&identity.epoch.to_le_bytes());
        // A page is only ever re-emitted with more entries, so everything
        // past them is still zero.
        for (slot, e) in page[PAGE_HEADER_SIZE..].chunks_exact_mut(ENTRY_SIZE).zip(entries.iter()) {
            slot.copy_from_slice(&e.to_bytes());
        }
        let crc = page_crc(page, PAGE_HEADER_SIZE + entries.len() * ENTRY_SIZE);
        page[CRC_FIELD].copy_from_slice(&crc.to_le_bytes());
    }
}

/// The furthest [`sort_by_key_into`]'s insertion pass moves an entry.
const SORT_BUCKET_MAX: usize = 8;

/// Writes `entries`, whose keys are unique, to `sorted` in key order: a
/// counting pass into 256 buckets by the top 8 bits of `key - min`, then an
/// insertion pass. A bucket of more than [`SORT_BUCKET_MAX`] entries
/// (clustered keys) sends the page to `sort_unstable_by_key` instead.
fn sort_by_key_into(entries: &[Entry], sorted: &mut Vec<Entry>) {
    sorted.clear();
    sorted.extend_from_slice(entries);
    let Some(min) = entries.iter().map(|e| e.key).min() else { return };
    let span = entries.iter().map(|e| e.key - min).max().unwrap_or(0);
    let shift = (u64::BITS - span.leading_zeros()).saturating_sub(8);
    let bucket = |e: &Entry| ((e.key - min) >> shift) as usize;
    // Bucket sizes in `next[1..]`, then, summed, where each bucket starts.
    let mut next = [0u32; 257];
    for e in entries {
        let size = &mut next[bucket(e) + 1];
        *size += 1;
        if *size as usize > SORT_BUCKET_MAX {
            sorted.sort_unstable_by_key(|e| e.key);
            return;
        }
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    for e in entries {
        let at = &mut next[bucket(e)];
        sorted[*at as usize] = *e;
        *at += 1;
    }
    for i in 1..sorted.len() {
        let e = sorted[i];
        let mut j = i;
        while j > 0 && i - j < SORT_BUCKET_MAX && sorted[j - 1].key > e.key {
            sorted[j] = sorted[j - 1];
            j -= 1;
        }
        sorted[j] = e;
    }
}

/// Result of probing one incarnation page for a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLookup {
    /// The key was found with this value.
    Found(Value),
    /// The key is not on this page and the page did not overflow: the key is
    /// not in this incarnation.
    Absent,
    /// The key is not on this page but the page overflowed into the next
    /// one; the search must continue there.
    Continue,
}

/// Probes a single serialized page for `key`.
pub fn lookup_in_page(page: &[u8], key: Key) -> Result<PageLookup> {
    let (count, flags) = parse_header(page)?;
    let entries = &page[PAGE_HEADER_SIZE..];
    // Binary search over the sorted, densely packed entries.
    let mut lo = 0usize;
    let mut hi = count;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let e = Entry::from_bytes(&entries[mid * ENTRY_SIZE..]).ok_or_else(|| {
            BufferHashError::CorruptIncarnation {
                flash_offset: 0,
                reason: "truncated entry".into(),
            }
        })?;
        match e.key.cmp(&key) {
            std::cmp::Ordering::Equal => return Ok(PageLookup::Found(e.value)),
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
        }
    }
    if flags & FLAG_OVERFLOW != 0 {
        Ok(PageLookup::Continue)
    } else {
        Ok(PageLookup::Absent)
    }
}

/// Parses all entries from a serialized page: the wrap lap of
/// [`IncarnationLayout::serialize_identified`] and [`scan_incarnation`].
fn parse_page_entries(page: &[u8]) -> Result<Vec<Entry>> {
    let (count, _) = parse_header(page)?;
    let mut out = Vec::with_capacity(count);
    for j in 0..count {
        let at = PAGE_HEADER_SIZE + j * ENTRY_SIZE;
        let e = Entry::from_bytes(&page[at..at + ENTRY_SIZE]).ok_or_else(|| {
            BufferHashError::CorruptIncarnation {
                flash_offset: 0,
                reason: "truncated entry".into(),
            }
        })?;
        out.push(e);
    }
    Ok(out)
}

fn parse_header(page: &[u8]) -> Result<(usize, u16)> {
    if page.len() < PAGE_HEADER_SIZE {
        return Err(BufferHashError::CorruptIncarnation {
            flash_offset: 0,
            reason: format!("page of {} bytes is smaller than the header", page.len()),
        });
    }
    let magic = u32::from_le_bytes(page[0..4].try_into().unwrap());
    if magic != PAGE_MAGIC {
        return Err(BufferHashError::CorruptIncarnation {
            flash_offset: 0,
            reason: format!("bad page magic {magic:#x}"),
        });
    }
    let count = u16::from_le_bytes(page[4..6].try_into().unwrap()) as usize;
    let flags = u16::from_le_bytes(page[6..8].try_into().unwrap());
    let max = (page.len() - PAGE_HEADER_SIZE) / ENTRY_SIZE;
    if count > max {
        return Err(BufferHashError::CorruptIncarnation {
            flash_offset: 0,
            reason: format!("entry count {count} exceeds page capacity {max}"),
        });
    }
    Ok((count, flags))
}

/// Fully decoded page header (the 32 bytes in front of every incarnation
/// page), as read back by the recovery scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// Number of entries stored on the page.
    pub count: usize,
    /// Page flags (overflow chain marker).
    pub flags: u16,
    /// On-flash format version the page was written with.
    pub version: u16,
    /// Index of this page within its incarnation.
    pub page_idx: u32,
    /// Identity of the incarnation the page belongs to.
    pub identity: IncarnationIdentity,
}

/// Parses and *verifies* one page header: magic, format version, entry
/// count, and the CRC32 over the whole page. This is the recovery-scan
/// strength check — steady-state lookups use the cheaper magic/count check
/// and compare the page's identity, trusting the contents of pages that
/// recovery (or the flush path) already validated.
pub fn parse_page_header_checked(page: &[u8]) -> Result<PageHeader> {
    let (count, flags) = parse_header(page)?;
    let version = u16::from_le_bytes(page[8..10].try_into().unwrap());
    if version != INCARNATION_VERSION {
        return Err(BufferHashError::CorruptIncarnation {
            flash_offset: 0,
            reason: format!("unsupported format version {version}"),
        });
    }
    let stored_crc = u32::from_le_bytes(page[CRC_FIELD].try_into().unwrap());
    let actual = page_crc(page, page.len());
    if actual != stored_crc {
        return Err(BufferHashError::CorruptIncarnation {
            flash_offset: 0,
            reason: format!(
                "page CRC mismatch: stored {stored_crc:#010x}, computed {actual:#010x}"
            ),
        });
    }
    let (identity, page_idx) = page_identity(page);
    Ok(PageHeader { count, flags, version, page_idx, identity })
}

/// The incarnation identity and page index a page's header claims,
/// unverified: what a lookup probe compares with the incarnation it meant
/// to read. The page must be at least a header long, as any page
/// [`lookup_in_page`] accepted is.
pub(crate) fn page_identity(page: &[u8]) -> (IncarnationIdentity, u32) {
    let identity = IncarnationIdentity {
        table: u16::from_le_bytes(page[10..12].try_into().unwrap()),
        seq: u64::from_le_bytes(page[16..24].try_into().unwrap()),
        epoch: u32::from_le_bytes(page[24..28].try_into().unwrap()),
    };
    (identity, u32::from_le_bytes(page[12..16].try_into().unwrap()))
}

/// Recovery classification of one log slot's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotScan {
    /// No page in the slot carries a valid magic: the slot was never
    /// written (or was erased).
    Empty,
    /// The slot holds incarnation data that fails validation — a torn
    /// write, a partially overwritten older incarnation, or corruption.
    Torn {
        /// What failed to validate, for the recovery report.
        reason: String,
    },
    /// Every page validates and agrees on one identity: a complete
    /// incarnation.
    Valid {
        /// The incarnation's identity as stamped at flush time.
        identity: IncarnationIdentity,
        /// Every entry stored in the incarnation.
        entries: Vec<Entry>,
    },
}

/// Classifies the raw bytes of one log slot for recovery: [`SlotScan::Empty`]
/// if nothing recognizable was ever written there, [`SlotScan::Torn`] if the
/// slot holds incarnation data that fails per-page CRC/version checks or
/// whose pages disagree about which incarnation they belong to (a cut at a
/// page boundary), and [`SlotScan::Valid`] with the decoded identity and
/// entries otherwise. Never panics, whatever the bytes contain.
pub fn scan_incarnation(bytes: &[u8], layout: &IncarnationLayout) -> SlotScan {
    if bytes.len() < layout.total_bytes() {
        return SlotScan::Torn {
            reason: format!("slot holds {} bytes, expected {}", bytes.len(), layout.total_bytes()),
        };
    }
    let mut identity: Option<IncarnationIdentity> = None;
    let mut any_magic = false;
    let mut entries = Vec::new();
    for i in 0..layout.num_pages() {
        let page = &bytes[i * layout.page_size..(i + 1) * layout.page_size];
        let magic = u32::from_le_bytes(page[0..4].try_into().unwrap());
        if magic == PAGE_MAGIC {
            any_magic = true;
        }
        let header = match parse_page_header_checked(page) {
            Ok(h) => h,
            Err(e) => {
                // A slot is empty only when *no* page carries the magic;
                // scan the remaining pages' magics to tell an empty slot
                // from a torn prefix.
                let rest_empty = ((i + 1)..layout.num_pages()).all(|j| {
                    let p = &bytes[j * layout.page_size..(j + 1) * layout.page_size];
                    u32::from_le_bytes(p[0..4].try_into().unwrap()) != PAGE_MAGIC
                });
                if !any_magic && identity.is_none() && rest_empty {
                    return SlotScan::Empty;
                }
                return SlotScan::Torn { reason: format!("page {i}: {e}") };
            }
        };
        if header.page_idx != i as u32 {
            return SlotScan::Torn { reason: format!("page {i} claims index {}", header.page_idx) };
        }
        match identity {
            None => identity = Some(header.identity),
            Some(id) if id != header.identity => {
                return SlotScan::Torn {
                    reason: format!(
                        "page {i} identity {:?} disagrees with {:?}",
                        header.identity, id
                    ),
                };
            }
            Some(_) => {}
        }
        let page_entries = match parse_page_entries(page) {
            Ok(e) => e,
            Err(e) => return SlotScan::Torn { reason: format!("page {i}: {e}") },
        };
        entries.extend(page_entries);
    }
    match identity {
        Some(identity) => SlotScan::Valid { identity, entries },
        None => SlotScan::Empty,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> IncarnationLayout {
        // 128 KiB incarnation on 2 KiB pages, as in the paper's flash-chip
        // configuration.
        IncarnationLayout::new(128 * 1024, 2048).unwrap()
    }

    fn sample_entries(n: u64) -> Vec<Entry> {
        (0..n).map(|i| Entry::new(hash_with_seed(i, 5), i * 10)).collect()
    }

    #[test]
    fn layout_capacities() {
        let l = layout();
        assert_eq!(l.num_pages(), 64);
        assert_eq!(l.entries_per_page(), 126);
        assert_eq!(l.total_bytes(), 128 * 1024);
        assert!(l.max_entries() >= 4096);
    }

    #[test]
    fn page_offsets_and_overflow_hops_wrap() {
        let l = layout();
        assert_eq!(l.page_offset(1 << 20, 0), 1 << 20);
        assert_eq!(l.page_offset(1 << 20, 3), (1 << 20) + 3 * 2048);
        // Probing past the last page wraps, like the overflow spill does.
        assert_eq!(l.page_offset(0, l.num_pages()), 0);
        assert_eq!(l.next_page(0), 1);
        assert_eq!(l.next_page(l.num_pages() - 1), 0);
    }

    #[test]
    fn every_entry_is_findable_via_single_page_probe_chain() {
        let l = layout();
        let entries = sample_entries(4096);
        let image = l.serialize_identified(&entries, IncarnationIdentity::default()).unwrap();
        for e in &entries {
            let mut page_idx = l.page_of_key(e.key);
            let mut hops = 0;
            loop {
                let page = &image[page_idx * l.page_size..(page_idx + 1) * l.page_size];
                match lookup_in_page(page, e.key).unwrap() {
                    PageLookup::Found(v) => {
                        assert_eq!(v, e.value);
                        break;
                    }
                    PageLookup::Continue => {
                        page_idx = (page_idx + 1) % l.num_pages();
                        hops += 1;
                        assert!(hops < l.num_pages(), "unbounded overflow chain");
                    }
                    PageLookup::Absent => panic!("entry {e:?} not found"),
                }
            }
        }
    }

    #[test]
    fn most_lookups_touch_exactly_one_page() {
        let l = layout();
        let entries = sample_entries(4096);
        let image = l.serialize_identified(&entries, IncarnationIdentity::default()).unwrap();
        let multi_hop = entries
            .iter()
            .filter(|e| {
                let page_idx = l.page_of_key(e.key);
                let page = &image[page_idx * l.page_size..(page_idx + 1) * l.page_size];
                !matches!(lookup_in_page(page, e.key).unwrap(), PageLookup::Found(_))
            })
            .count();
        // At 50% page fill, overflow is essentially non-existent.
        assert!(multi_hop * 100 < entries.len(), "too many multi-page lookups: {multi_hop}");
    }

    #[test]
    fn absent_keys_report_absent() {
        let l = layout();
        let entries = sample_entries(1000);
        let image = l.serialize_identified(&entries, IncarnationIdentity::default()).unwrap();
        let absent_key = hash_with_seed(999_999, 777);
        let page_idx = l.page_of_key(absent_key);
        let page = &image[page_idx * l.page_size..(page_idx + 1) * l.page_size];
        assert!(matches!(
            lookup_in_page(page, absent_key).unwrap(),
            PageLookup::Absent | PageLookup::Continue
        ));
    }

    /// Every entry of a slot that scans valid.
    fn valid_entries(image: &[u8], l: &IncarnationLayout) -> Vec<Entry> {
        match scan_incarnation(image, l) {
            SlotScan::Valid { entries, .. } => entries,
            other => panic!("expected a valid incarnation, scanned {other:?}"),
        }
    }

    #[test]
    fn scan_incarnation_recovers_all_entries() {
        let l = layout();
        let entries = sample_entries(3000);
        let image = l.serialize_identified(&entries, IncarnationIdentity::default()).unwrap();
        let mut recovered = valid_entries(&image, &l);
        let mut expected = entries.clone();
        recovered.sort_unstable_by_key(|e| e.key);
        expected.sort_unstable_by_key(|e| e.key);
        assert_eq!(recovered, expected);
    }

    #[test]
    fn overflow_pages_are_flagged_and_followable() {
        // Force overflow with a tiny layout: 4 pages of 256 bytes -> 14
        // entries per page, 56 total; insert 55 entries that all hash
        // wherever they like — some pages will overflow with high
        // probability when we use many entries relative to capacity.
        let l = IncarnationLayout::new(1024, 256).unwrap();
        assert_eq!(l.num_pages(), 4);
        let entries = sample_entries(55);
        let image = l.serialize_identified(&entries, IncarnationIdentity::default()).unwrap();
        // Every entry must still be findable.
        for e in &entries {
            let mut page_idx = l.page_of_key(e.key);
            let mut found = false;
            for _ in 0..l.num_pages() {
                let page = &image[page_idx * l.page_size..(page_idx + 1) * l.page_size];
                match lookup_in_page(page, e.key).unwrap() {
                    PageLookup::Found(v) => {
                        assert_eq!(v, e.value);
                        found = true;
                        break;
                    }
                    PageLookup::Continue => page_idx = (page_idx + 1) % l.num_pages(),
                    PageLookup::Absent => break,
                }
            }
            assert!(found, "entry {e:?} lost after overflow spill");
        }
    }

    #[test]
    fn serialize_rejects_too_many_entries() {
        let l = IncarnationLayout::new(1024, 256).unwrap();
        let entries = sample_entries(l.max_entries() as u64 + 1);
        assert!(l.serialize_identified(&entries, IncarnationIdentity::default()).is_err());
    }

    #[test]
    fn corrupt_pages_are_detected() {
        let l = layout();
        let image =
            l.serialize_identified(&sample_entries(10), IncarnationIdentity::default()).unwrap();
        let mut bad = image.clone();
        bad[0] ^= 0xff; // clobber the magic
        assert!(matches!(
            lookup_in_page(&bad[..l.page_size], 1),
            Err(BufferHashError::CorruptIncarnation { .. })
        ));
        let mut bad_count = image;
        bad_count[4] = 0xff;
        bad_count[5] = 0xff;
        assert!(lookup_in_page(&bad_count[..l.page_size], 1).is_err());
        assert!(lookup_in_page(&[0u8; 8], 1).is_err());
    }

    #[test]
    fn tiny_page_size_is_rejected() {
        assert!(IncarnationLayout::new(1024, 16).is_err());
    }

    #[test]
    fn empty_incarnation_serializes_and_parses() {
        let l = layout();
        let image = l.serialize_identified(&[], IncarnationIdentity::default()).unwrap();
        assert_eq!(valid_entries(&image, &l), Vec::new());
    }

    fn identity() -> IncarnationIdentity {
        IncarnationIdentity { table: 3, seq: 41, epoch: 7 }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC32 the sliced kernel replaced, kept as the
    /// reference it must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFF, |crc, &byte| bytewise_step(crc, byte))
    }

    fn bytewise_step(crc: u32, byte: u8) -> u32 {
        (crc >> 8) ^ CRC32_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
    }

    /// The bucket-of-`Vec` serializer the single-pass one replaced, kept as
    /// the reference it must match byte for byte.
    fn serialize_bucketed(
        l: &IncarnationLayout,
        entries: &[Entry],
        identity: IncarnationIdentity,
    ) -> Vec<u8> {
        let per_page = l.entries_per_page();
        let mut buckets: Vec<Vec<Entry>> = vec![Vec::new(); l.num_pages()];
        for &e in entries {
            buckets[l.page_of_key(e.key)].push(e);
        }
        let mut overflowed = vec![false; l.num_pages()];
        for _sweep in 0..l.num_pages() {
            let mut moved = false;
            for i in 0..l.num_pages() {
                if buckets[i].len() > per_page {
                    let excess = buckets[i].split_off(per_page);
                    overflowed[i] = true;
                    buckets[(i + 1) % l.num_pages()].extend(excess);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        let mut out = vec![0u8; l.total_bytes()];
        for (i, bucket) in buckets.iter_mut().enumerate() {
            bucket.sort_unstable_by_key(|e| e.key);
            let page = &mut out[i * l.page_size..(i + 1) * l.page_size];
            page[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
            page[4..6].copy_from_slice(&(bucket.len() as u16).to_le_bytes());
            let flags = if overflowed[i] { FLAG_OVERFLOW } else { 0 };
            page[6..8].copy_from_slice(&flags.to_le_bytes());
            page[8..10].copy_from_slice(&INCARNATION_VERSION.to_le_bytes());
            page[10..12].copy_from_slice(&identity.table.to_le_bytes());
            page[12..16].copy_from_slice(&(i as u32).to_le_bytes());
            page[16..24].copy_from_slice(&identity.seq.to_le_bytes());
            page[24..28].copy_from_slice(&identity.epoch.to_le_bytes());
            for (j, e) in bucket.iter().enumerate() {
                let at = PAGE_HEADER_SIZE + j * ENTRY_SIZE;
                page[at..at + ENTRY_SIZE].copy_from_slice(&e.to_bytes());
            }
            let crc = crc32_bytewise(page);
            page[28..32].copy_from_slice(&crc.to_le_bytes());
        }
        out
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let pool: Vec<u8> = (0..4200 + 8).map(|i| (hash_with_seed(i, 0xc4c) >> 17) as u8).collect();
        // Every length 0..=4200 at every misalignment of the 8-byte steps.
        for skew in 0..8 {
            let mut running = 0xFFFF_FFFFu32; // the reference, one byte per length
            for len in 0..=4200usize {
                assert_eq!(crc32(&pool[skew..skew + len]), !running, "len {len} skew {skew}");
                running = bytewise_step(running, pool[skew + len]);
            }
        }
        // The page checksum reads the CRC field as zero without a copy.
        let mut page = pool[..4096].to_vec();
        let mut zeroed = page.clone();
        zeroed[CRC_FIELD].fill(0);
        assert_eq!(page_crc(&page, page.len()), crc32_bytewise(&zeroed));
        page[CRC_FIELD].fill(0xA5);
        assert_eq!(page_crc(&page, page.len()), crc32_bytewise(&zeroed));
    }

    #[test]
    fn the_zero_tail_fold_equals_the_full_checksum_at_every_fill() {
        // The benchmark's pages, the paper's flash-chip pages, and a size
        // whose zero tail is not whole 16-byte blocks.
        for page_size in [4096, 2048, 1000] {
            let per_page = (page_size - PAGE_HEADER_SIZE) / ENTRY_SIZE;
            for count in 0..=per_page {
                let written = PAGE_HEADER_SIZE + count * ENTRY_SIZE;
                let mut page = vec![0u8; page_size];
                for (i, byte) in page[..written].iter_mut().enumerate() {
                    *byte = (hash_with_seed(i as u64, count as u64) >> 29) as u8;
                }
                let mut zeroed = page.clone();
                zeroed[CRC_FIELD].fill(0);
                let full = crc32_bytewise(&zeroed);
                for zero_from in [written, page_size] {
                    let crc = page_crc(&page, zero_from);
                    assert_eq!(crc, full, "{page_size}-byte page, {count} entries, {zero_from}");
                }
            }
        }
    }

    #[test]
    fn garbage_past_the_entries_fails_the_checked_header() {
        let l = IncarnationLayout::new(32 * 1024, 4096).unwrap();
        let image = l.serialize_identified(&sample_entries(1000), identity()).unwrap();
        for (i, page) in image.chunks_exact(l.page_size).enumerate() {
            let written =
                PAGE_HEADER_SIZE + parse_page_header_checked(page).unwrap().count * ENTRY_SIZE;
            for at in [written, written + 15, page.len() - 1] {
                let mut bad = page.to_vec();
                bad[at] = 0x01;
                let err = parse_page_header_checked(&bad).unwrap_err();
                assert!(err.to_string().contains("CRC mismatch"), "page {i} byte {at}: {err}");
            }
        }
    }

    #[test]
    fn bucketed_sort_matches_sort_unstable_for_unique_keys() {
        let shuffled = |keys: Vec<Key>, seed: u64| {
            let mut keys = keys;
            keys.sort_unstable_by_key(|&k| hash_with_seed(k, seed));
            keys
        };
        for n in 0..=254u64 {
            for seed in 0..3 {
                let key_sets = [
                    // Uniform, as fingerprints are.
                    (0..n).map(|i| hash_with_seed(i, seed)).collect(),
                    // Small integers: the span, not the key width, sets
                    // the buckets.
                    shuffled((0..n).map(|i| 3 * i + seed).collect(), seed),
                    // A tight cluster plus an outlier: every key but one
                    // in the lowest bucket, which sends the page to the
                    // fallback from nine clustered keys on.
                    shuffled(
                        (1..n).map(|i| (seed << 20) + i).chain([u64::MAX - seed]).collect(),
                        seed,
                    ),
                    // Eight to a bucket at 254 keys, the most the
                    // insertion pass sorts.
                    shuffled((0..n).map(|i| (i % 32) << 58 | i << 3 | seed).collect(), seed),
                ];
                for (set, keys) in key_sets.into_iter().enumerate() {
                    let entries: Vec<Entry> = keys.iter().map(|&k| Entry::new(k, !k)).collect();
                    let mut expected = entries.clone();
                    expected.sort_unstable_by_key(|e| e.key);
                    let mut sorted = vec![Entry::new(1, 1); 3];
                    sort_by_key_into(&entries, &mut sorted);
                    assert_eq!(sorted, expected, "set {set}, {n} keys, seed {seed}");
                }
            }
        }
    }

    /// `n` entries with distinct pseudo-random keys, in pseudo-random order.
    fn random_entries(n: usize, seed: u64) -> Vec<Entry> {
        (0..n as u64)
            .map(|i| Entry::new(hash_with_seed(i, seed), hash_with_seed(i, !seed)))
            .collect()
    }

    /// `n` distinct keys that all call page `page` of `l` home.
    fn entries_homed_on(l: &IncarnationLayout, page: usize, n: usize, seed: u64) -> Vec<Entry> {
        (0u64..)
            .map(|i| hash_with_seed(i, seed))
            .filter(|&k| l.page_of_key(k) == page)
            .take(n)
            .map(|k| Entry::new(k, !k))
            .collect()
    }

    #[test]
    fn single_pass_serializer_matches_the_bucketed_reference() {
        let layouts = [
            layout(),
            IncarnationLayout::new(32 * 1024, 4096).unwrap(), // the benchmark's: 8 pages
            IncarnationLayout::new(1024, 256).unwrap(),       // 4 pages of 14
            IncarnationLayout::new(768, 256).unwrap(),        // 3 pages: not a power of two
            IncarnationLayout::new(256, 256).unwrap(),        // 1 page: spills onto itself
        ];
        for (n, l) in layouts.iter().enumerate() {
            let max = l.max_entries();
            // Empty, one, half full (the steady state), nearly full, full.
            for count in [0, 1, max / 2, max - 1, max] {
                for seed in 0..8u64 {
                    let entries = random_entries(count, seed * 31 + n as u64);
                    let id = IncarnationIdentity { table: n as u16, seq: seed, epoch: 9 };
                    assert_eq!(
                        l.serialize_identified(&entries, id).unwrap(),
                        serialize_bucketed(l, &entries, id),
                        "layout {n} count {count} seed {seed}"
                    );
                }
            }
            assert!(l
                .serialize_identified(&random_entries(max + 1, 1), IncarnationIdentity::default())
                .is_err());
        }
    }

    #[test]
    fn forced_overflow_chains_match_the_reference_and_wrap() {
        let l = IncarnationLayout::new(1024, 256).unwrap();
        let per_page = l.entries_per_page();
        let id = identity();
        // Everything on the last page: the chain wraps past it and laps
        // most of the way round; fill the rest from other pages both
        // before and after the heavy run so spill order matters.
        for heavy in 0..l.num_pages() {
            for extra in [0, 1, per_page - 1, per_page, 2 * per_page, 3 * per_page] {
                for light in [0, 3, per_page - 1] {
                    if per_page + extra + light > l.max_entries() {
                        continue;
                    }
                    let mut entries = entries_homed_on(&l, heavy, per_page + extra, 7);
                    let other = entries_homed_on(&l, (heavy + 1) % l.num_pages(), light, 8);
                    entries.splice(per_page / 2..per_page / 2, other);
                    let image = l.serialize_identified(&entries, id).unwrap();
                    assert_eq!(
                        image,
                        serialize_bucketed(&l, &entries, id),
                        "{heavy}/{extra}/{light}"
                    );
                    // And the chain is followable: every entry is found.
                    let mut found = valid_entries(&image, &l);
                    found.sort_unstable_by_key(|e| e.key);
                    entries.sort_unstable_by_key(|e| e.key);
                    assert_eq!(found, entries);
                    if extra > 0 {
                        let last = &image[heavy * l.page_size..(heavy + 1) * l.page_size];
                        assert_eq!(parse_header(last).unwrap(), (per_page, FLAG_OVERFLOW));
                    }
                }
            }
        }
    }

    #[test]
    fn identity_round_trips_through_page_headers() {
        let l = layout();
        let image = l.serialize_identified(&sample_entries(500), identity()).unwrap();
        for i in 0..l.num_pages() {
            let page = &image[i * l.page_size..(i + 1) * l.page_size];
            let header = parse_page_header_checked(page).unwrap();
            assert_eq!(header.identity, identity());
            assert_eq!(header.page_idx, i as u32);
            assert_eq!(header.version, INCARNATION_VERSION);
        }
        match scan_incarnation(&image, &l) {
            SlotScan::Valid { identity: id, mut entries } => {
                assert_eq!(id, identity());
                entries.sort_unstable_by_key(|e| e.key);
                let mut expected = sample_entries(500);
                expected.sort_unstable_by_key(|e| e.key);
                assert_eq!(entries, expected);
            }
            other => panic!("expected a valid scan, got {other:?}"),
        }
    }

    #[test]
    fn payload_bit_flip_fails_the_page_crc() {
        let l = layout();
        let mut image = l.serialize_identified(&sample_entries(500), identity()).unwrap();
        // Flip one payload bit in the middle of page 0.
        image[PAGE_HEADER_SIZE + 5] ^= 0x10;
        let err = parse_page_header_checked(&image[..l.page_size]).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "unexpected error: {err}");
        assert!(matches!(scan_incarnation(&image, &l), SlotScan::Torn { .. }));
    }

    #[test]
    fn half_written_page_is_torn_not_valid() {
        let l = layout();
        let image = l.serialize_identified(&sample_entries(500), identity()).unwrap();
        // Simulate a power cut mid-page: page 2 keeps only the first few
        // header bytes of the new image, the rest stays zero — the CRC (or
        // version) of the half-written page cannot validate.
        let mut torn = image.clone();
        let cut = 2 * l.page_size + 6;
        torn[cut..3 * l.page_size].fill(0);
        assert!(matches!(scan_incarnation(&torn, &l), SlotScan::Torn { .. }));
        // A cut at a page boundary over a previous incarnation leaves pages
        // whose seq fields disagree: also torn.
        let older = l
            .serialize_identified(
                &sample_entries(40),
                IncarnationIdentity { seq: 12, ..identity() },
            )
            .unwrap();
        let mut boundary = older;
        boundary[..2 * l.page_size].copy_from_slice(&image[..2 * l.page_size]);
        match scan_incarnation(&boundary, &l) {
            SlotScan::Torn { reason } => assert!(reason.contains("disagrees"), "{reason}"),
            other => panic!("expected torn, got {other:?}"),
        }
    }

    #[test]
    fn unknown_format_version_is_rejected() {
        let l = layout();
        let mut image = l.serialize_identified(&sample_entries(10), identity()).unwrap();
        image[8] = 0x99;
        // Re-stamp the CRC so only the version is wrong.
        let mut page = image[..l.page_size].to_vec();
        page[28..32].fill(0);
        let crc = crc32(&page);
        image[28..32].copy_from_slice(&crc.to_le_bytes());
        let err = parse_page_header_checked(&image[..l.page_size]).unwrap_err();
        assert!(err.to_string().contains("version"), "unexpected error: {err}");
    }

    #[test]
    fn scan_classifies_empty_and_never_panics_on_junk() {
        let l = IncarnationLayout::new(1024, 256).unwrap();
        assert_eq!(scan_incarnation(&vec![0u8; l.total_bytes()], &l), SlotScan::Empty);
        assert!(matches!(scan_incarnation(&[], &l), SlotScan::Torn { .. }));
        // Deterministic pseudo-random junk never classifies as valid (the
        // odds of a correct CRC are negligible) and never panics. Without
        // the magic anywhere it reads as empty; with a magic planted it
        // reads as torn.
        let mut junk: Vec<u8> =
            (0..l.total_bytes()).map(|i| (hash_with_seed(i as u64, 99) & 0xff) as u8).collect();
        assert!(!matches!(scan_incarnation(&junk, &l), SlotScan::Valid { .. }));
        junk[l.page_size..l.page_size + 4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        assert!(matches!(scan_incarnation(&junk, &l), SlotScan::Torn { .. }));
    }
}
