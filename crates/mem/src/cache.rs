use crate::CacheParams;

/// A direct-mapped cache tag array.
///
/// Stores tags and dirty bits only — the simulator never needs data values.
/// All caches in the paper are direct-mapped (Table 1).
///
/// # Examples
///
/// ```
/// use interleave_mem::{CacheParams, DirectCache};
///
/// let mut c = DirectCache::new(CacheParams::primary_data());
/// assert!(!c.probe(0x1000));
/// c.fill(0x1000, false);
/// assert!(c.probe(0x1000));
/// assert!(c.probe(0x101F)); // same 32-byte line
/// assert!(!c.probe(0x1020)); // next line
/// ```
#[derive(Debug, Clone)]
pub struct DirectCache {
    params: CacheParams,
    line_shift: u32,
    index_mask: u64,
    /// `line_shift` plus the index width: a tag is the address above
    /// both (stored so lookups need no bit count). At least 1, so no
    /// tag can equal [`EMPTY`].
    tag_shift: u32,
    /// Tag per set, or [`EMPTY`] if the set is empty.
    tags: Vec<u64>,
    /// Dirty bit per set, 64 sets per word.
    dirty: Vec<u64>,
}

/// The tag of an empty frame. A tag is an address shifted right by at
/// least one bit, so it is at most `u64::MAX >> 1`.
const EMPTY: u64 = u64::MAX;

/// A line written back on eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Address of the evicted line.
    pub addr: u64,
    /// Whether the evicted line was dirty (needs a writeback transaction).
    pub dirty: bool,
}

impl DirectCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`CacheParams::validate`], or if the
    /// geometry leaves no bit between the address and its tag (a
    /// one-line cache of one-byte lines), since the empty-frame sentinel
    /// relies on every tag dropping at least one address bit.
    pub fn new(params: CacheParams) -> DirectCache {
        params.validate();
        let lines = params.lines() as usize;
        let line_shift = params.line.trailing_zeros();
        let tag_shift = line_shift + (params.lines() - 1).count_ones();
        assert!(tag_shift >= 1, "a cache needs at least two bytes of lines");
        DirectCache {
            line_shift,
            index_mask: params.lines() - 1,
            tag_shift,
            tags: vec![EMPTY; lines],
            dirty: vec![0; lines.div_ceil(64)],
            params,
        }
    }

    /// The cache geometry this cache was built with.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Line-aligned address of `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn index(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.index_mask) as usize
    }

    /// The set (frame) the line containing `addr` maps to, in
    /// `0..sets()`: two addresses with the same set evict each other.
    pub fn set_of(&self, addr: u64) -> usize {
        self.index(addr)
    }

    #[inline]
    fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    #[inline]
    fn dirty_bit(&self, index: usize) -> bool {
        self.dirty[index / 64] >> (index % 64) & 1 != 0
    }

    #[inline]
    fn set_dirty_bit(&mut self, index: usize, dirty: bool) {
        let word = &mut self.dirty[index / 64];
        let bit = 1u64 << (index % 64);
        if dirty {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Whether `addr` currently hits.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        self.tags[self.index(addr)] == self.tag(addr)
    }

    /// Installs the line containing `addr`, optionally marking it dirty,
    /// and returns the evicted line if one was displaced.
    #[inline]
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Writeback> {
        let index = self.index(addr);
        let new_tag = self.tag(addr);
        let old_tag = self.tags[index];
        let evicted = (old_tag != EMPTY && old_tag != new_tag).then(|| Writeback {
            addr: old_tag << self.tag_shift | (index as u64) << self.line_shift,
            dirty: self.dirty_bit(index),
        });
        self.tags[index] = new_tag;
        self.set_dirty_bit(index, dirty);
        evicted
    }

    /// Whether the line containing `addr` is present and dirty.
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.probe(addr) && self.dirty_bit(self.index(addr))
    }

    /// Marks the line containing `addr` dirty.
    ///
    /// # Panics
    ///
    /// Panics if the line is not present.
    #[inline]
    pub fn mark_dirty(&mut self, addr: u64) {
        assert!(self.probe(addr), "cannot dirty a line that is not cached");
        self.set_dirty_bit(self.index(addr), true);
    }

    /// Removes the line containing `addr` if present; returns whether it
    /// was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let index = self.index(addr);
        if self.tags[index] == self.tag(addr) {
            self.tags[index] = EMPTY;
            self.set_dirty_bit(index, false);
            true
        } else {
            false
        }
    }

    /// Invalidates the set with the given index (used by the OS-interference
    /// model, which displaces lines without knowing their addresses).
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn invalidate_set(&mut self, set: usize) {
        assert!(set < self.tags.len(), "set index out of range");
        self.tags[set] = EMPTY;
        self.set_dirty_bit(set, false);
    }

    /// Number of sets (== lines for a direct-mapped cache).
    pub fn sets(&self) -> usize {
        self.tags.len()
    }

    /// Number of valid lines currently held.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// Empties the cache.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.dirty.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DirectCache {
        // 4 lines of 32 bytes.
        DirectCache::new(CacheParams {
            size: 128,
            line: 32,
            fetch_lines: 1,
            read_occupancy: 1,
            write_occupancy: 1,
            invalidate_occupancy: 1,
            fill_occupancy: 1,
        })
    }

    #[test]
    fn fill_then_hit() {
        let mut c = small();
        assert!(!c.probe(0x40));
        assert!(c.fill(0x40, false).is_none());
        assert!(c.probe(0x40));
        assert!(c.probe(0x5F));
        assert!(!c.probe(0x60));
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = small();
        c.fill(0x00, false);
        // 0x80 maps to the same set (4 lines * 32 B = 128 B period).
        let wb = c.fill(0x80, false).unwrap();
        assert_eq!(wb.addr, 0x00);
        assert!(!wb.dirty);
        assert!(!c.probe(0x00));
        assert!(c.probe(0x80));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        c.fill(0x00, true);
        let wb = c.fill(0x80, false).unwrap();
        assert!(wb.dirty);
    }

    #[test]
    fn refill_same_line_is_not_eviction() {
        let mut c = small();
        c.fill(0x00, false);
        assert!(c.fill(0x10, true).is_none()); // same line
                                               // Dirty state updated by the refill.
        let wb = c.fill(0x80, false).unwrap();
        assert!(wb.dirty);
    }

    #[test]
    fn invalidate() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn mark_dirty_and_writeback() {
        let mut c = small();
        c.fill(0x20, false);
        c.mark_dirty(0x20);
        let wb = c.fill(0xA0, false).unwrap();
        assert!(wb.dirty);
        assert_eq!(wb.addr, 0x20);
    }

    #[test]
    #[should_panic]
    fn mark_dirty_missing_line_panics() {
        let mut c = small();
        c.mark_dirty(0x20);
    }

    #[test]
    fn is_dirty_tracks_fills_and_marks() {
        let mut c = small();
        assert!(!c.is_dirty(0x20));
        c.fill(0x20, false);
        assert!(!c.is_dirty(0x20));
        c.mark_dirty(0x20);
        assert!(c.is_dirty(0x20));
        // A different line in the same set is not dirty.
        assert!(!c.is_dirty(0xA0));
        c.invalidate(0x20);
        assert!(!c.is_dirty(0x20));
    }

    #[test]
    fn occupancy_and_clear() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.fill(0x00, false);
        c.fill(0x20, false);
        assert_eq!(c.occupancy(), 2);
        c.clear();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn invalidate_set_displaces() {
        let mut c = small();
        c.fill(0x20, false);
        c.invalidate_set(1); // 0x20 >> 5 = set 1
        assert!(!c.probe(0x20));
    }

    #[test]
    fn line_addr_alignment() {
        let c = small();
        assert_eq!(c.line_addr(0x47), 0x40);
        assert_eq!(c.line_addr(0x40), 0x40);
    }

    #[test]
    fn paper_l1_tag_array_bytes() {
        // 2,048 lines: 8 bytes of tag each plus one dirty bit each.
        let c = DirectCache::new(CacheParams::primary_data());
        let bytes = (c.tags.capacity() + c.dirty.capacity()) * std::mem::size_of::<u64>();
        assert_eq!(bytes, 16_640);
    }

    #[test]
    #[should_panic(expected = "at least two bytes")]
    fn zero_tag_shift_rejected() {
        DirectCache::new(CacheParams { size: 1, line: 1, ..CacheParams::primary_data() });
    }

    #[test]
    fn two_byte_caches_are_accepted() {
        // The smallest geometries that keep one tag bit: one 2-byte line,
        // and two 1-byte lines.
        for (size, line) in [(2, 2), (2, 1)] {
            let mut c = DirectCache::new(CacheParams { size, line, ..CacheParams::primary_data() });
            let top = u64::MAX;
            assert!(!c.probe(top));
            assert!(c.fill(top, true).is_none());
            assert!(c.probe(top));
            assert!(c.is_dirty(top));
            let wb = c.fill(top - size, false).expect("same set, other tag");
            assert_eq!(wb, Writeback { addr: c.line_addr(top), dirty: true });
        }
    }

    #[test]
    fn full_size_cache_geometry() {
        let c = DirectCache::new(CacheParams::primary_data());
        assert_eq!(c.sets(), 2048);
        // Addresses 64 KB apart conflict.
        let mut c = c;
        c.fill(0x0, false);
        assert!(c.fill(0x10000, false).is_some());
    }
}
