use interleave_obs::validate::Violation;

/// How a data access was serviced, for latency sampling and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// Satisfied by the local primary cache (and ownership was already
    /// sufficient).
    Hit,
    /// Reply from the node's own memory slice.
    LocalMem,
    /// Reply from another node's memory slice.
    RemoteMem,
    /// Reply from another node's cache (dirty intervention).
    RemoteCache,
    /// Ownership upgrade for a write to a line already cached shared.
    Upgrade,
}

impl MissClass {
    /// The four miss (non-hit) classes, in [`MissClass::index`] order.
    pub const MISSES: [MissClass; 4] =
        [MissClass::LocalMem, MissClass::RemoteMem, MissClass::RemoteCache, MissClass::Upgrade];

    /// Dense index of a miss class (latency-histogram slot).
    ///
    /// # Panics
    ///
    /// Panics on [`MissClass::Hit`], which has no latency to sample.
    pub fn index(self) -> usize {
        match self {
            MissClass::Hit => panic!("hits have no sampled latency"),
            MissClass::LocalMem => 0,
            MissClass::RemoteMem => 1,
            MissClass::RemoteCache => 2,
            MissClass::Upgrade => 3,
        }
    }

    /// Metric-name segment for this miss class.
    pub fn label(self) -> &'static str {
        match self {
            MissClass::Hit => "hit",
            MissClass::LocalMem => "local",
            MissClass::RemoteMem => "remote",
            MissClass::RemoteCache => "remote_cache",
            MissClass::Upgrade => "upgrade",
        }
    }
}

/// Coherence state of one line in the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    /// Cached read-only by the nodes in the bit mask.
    Shared(u64),
    /// Cached modified by one node.
    Dirty(usize),
}

/// Aggregate protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Misses serviced by local memory.
    pub local: u64,
    /// Misses serviced by remote memory.
    pub remote: u64,
    /// Misses serviced by a remote dirty cache.
    pub remote_cache: u64,
    /// Ownership upgrades.
    pub upgrades: u64,
    /// Invalidation messages sent to sharers.
    pub invalidations: u64,
    /// Dirty lines written back on eviction or intervention.
    pub writebacks: u64,
}

/// Outcome of a directory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Service class for latency sampling.
    pub class: MissClass,
    /// Nodes whose cached copies must be invalidated, as a bit mask
    /// (bit `n` = node `n`); [`Transaction::invalidated`] lists them.
    pub invalidate: u64,
    /// Node whose dirty copy supplies the data (intervention).
    pub intervene: Option<usize>,
}

impl Transaction {
    fn new(class: MissClass) -> Transaction {
        Transaction { class, invalidate: 0, intervene: None }
    }

    /// The nodes to invalidate, in ascending node order.
    pub fn invalidated(&self) -> impl Iterator<Item = usize> {
        let mut rest = self.invalidate;
        std::iter::from_fn(move || {
            let node = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (node < 64).then_some(node)
        })
    }
}

/// Bit 0 of a slot's line word, set for a dirty line. Lines are at
/// least two bytes, so a line address never has it set.
const DIRTY: u64 = 1;

/// One tracked line in 16 bytes: the line address with [`DIRTY`]
/// folded into bit 0, and the sharer bit vector of a shared line or the
/// owner of a dirty line (any `usize`, so a corrupted owner stays
/// representable for the checker to catch).
///
/// The all-zero slot reads as a line shared by nobody. The protocol
/// never stores that state — the last sharer's eviction removes the
/// line — so it marks a vacant slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    state: u64,
}

impl Slot {
    const VACANT: Slot = Slot { line: 0, state: 0 };

    fn new(line: u64, state: LineState) -> Slot {
        match state {
            LineState::Shared(mask) => Slot { line, state: mask },
            LineState::Dirty(owner) => Slot { line: line | DIRTY, state: owner as u64 },
        }
    }

    fn is_vacant(self) -> bool {
        self.line & DIRTY == 0 && self.state == 0
    }

    fn line(self) -> u64 {
        self.line & !DIRTY
    }

    fn state(self) -> LineState {
        if self.line & DIRTY == 0 {
            LineState::Shared(self.state)
        } else {
            LineState::Dirty(self.state as usize)
        }
    }
}

/// The smallest line table: [`Directory::new`] starts here and grows.
const MIN_SLOTS: usize = 16;

/// The directory's line table: open addressing with linear probing over
/// a power-of-two array of [`Slot`]s, at most three quarters full, with
/// backward-shift deletion (no tombstones).
#[derive(Debug, Clone)]
struct LineTable {
    slots: Vec<Slot>,
    /// Occupied slots.
    len: usize,
    /// `64 - log2(slots.len())`: the top bits of a line's hash pick its
    /// home slot.
    shift: u32,
}

impl LineTable {
    /// A table of `slots` vacant slots (a power of two, at least
    /// [`MIN_SLOTS`]).
    fn with_slots(slots: usize) -> LineTable {
        debug_assert!(slots.is_power_of_two() && slots >= MIN_SLOTS);
        LineTable { slots: vec![Slot::VACANT; slots], len: 0, shift: 64 - slots.trailing_zeros() }
    }

    /// The home slot of `line`: one multiply by the 64-bit golden ratio,
    /// whose top bits depend on every bit of the line address (its low
    /// bits are all zero). Keys are simulator-generated, so collision
    /// resistance is not needed.
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn next(&self, i: usize) -> usize {
        (i + 1) & (self.slots.len() - 1)
    }

    /// `Ok` with the slot holding `line`, or `Err` with the vacant slot
    /// that ends its probe sequence.
    fn find(&self, line: u64) -> Result<usize, usize> {
        let mut i = self.home(line);
        loop {
            let slot = self.slots[i];
            if slot.is_vacant() {
                return Err(i);
            }
            if slot.line() == line {
                return Ok(i);
            }
            i = self.next(i);
        }
    }

    fn get(&self, line: u64) -> Option<LineState> {
        self.find(line).ok().map(|i| self.slots[i].state())
    }

    fn state(&self, at: usize) -> LineState {
        self.slots[at].state()
    }

    /// Replaces the state of the line held at `at`.
    fn set(&mut self, at: usize, state: LineState) {
        self.slots[at] = Slot::new(self.slots[at].line(), state);
    }

    /// Stores `line` in the vacant slot [`LineTable::find`] returned,
    /// doubling the table first if it would pass three quarters full.
    fn insert(&mut self, vacant: usize, line: u64, state: LineState) {
        let slot = Slot::new(line, state);
        debug_assert!(!slot.is_vacant(), "a shared line needs a sharer");
        let at = if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            self.find(line).unwrap_err()
        } else {
            vacant
        };
        self.slots[at] = slot;
        self.len += 1;
    }

    fn grow(&mut self) {
        let grown = vec![Slot::VACANT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| !s.is_vacant()) {
            let at = self.find(slot.line()).unwrap_err();
            self.slots[at] = slot;
        }
    }

    /// Empties the slot at `hole`, moving later members of its probe run
    /// back so every line stays reachable from its home slot.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut i = hole;
        loop {
            i = self.next(i);
            let slot = self.slots[i];
            if slot.is_vacant() {
                break;
            }
            // The slot may fill the hole iff the hole lies on its probe
            // path: no farther from `i` than its home slot is.
            if i.wrapping_sub(self.home(slot.line())) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = slot;
                hole = i;
            }
        }
        self.slots[hole] = Slot::VACANT;
        self.len -= 1;
    }

    /// Every tracked line and its state, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.slots.iter().filter(|s| !s.is_vacant()).map(|s| (s.line(), s.state()))
    }
}

/// Full-bit-vector invalidation directory (DASH-like), simulated
/// functionally: it tracks who caches what so each access can be
/// classified and the coherence traffic (invalidations, interventions)
/// generated; timing is sampled by the caller per class.
///
/// Lines are home-interleaved across nodes by line address.
///
/// # Examples
///
/// ```
/// use interleave_mp::{Directory, MissClass};
///
/// let mut dir = Directory::new(4, 32);
/// // Node 1 reads a line homed on node 0: remote memory.
/// let t = dir.read(1, 0x0);
/// assert_eq!(t.class, MissClass::RemoteMem);
/// // Node 0 reads the same line: local memory, no traffic.
/// let t = dir.read(0, 0x0);
/// assert_eq!(t.class, MissClass::LocalMem);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    nodes: usize,
    line: u64,
    /// `log2(line)`.
    line_shift: u32,
    table: LineTable,
    stats: DirectoryStats,
}

/// The most nodes a [`Directory`] tracks: its sharer set is one `u64`
/// bit vector.
pub const MAX_NODES: usize = 64;

impl Directory {
    /// Creates a directory for `nodes` nodes with `line`-byte lines. Its
    /// line table starts small and doubles as lines arrive.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds [`MAX_NODES`], or if `line`
    /// is not a power of two of at least 2 bytes.
    pub fn new(nodes: usize, line: u64) -> Directory {
        Directory::with_capacity(nodes, line, 0)
    }

    /// Creates a directory that tracks up to `lines` lines at most half
    /// full, so it never grows below that bound. A machine whose nodes
    /// notify every eviction tracks only lines some node caches: at
    /// most `nodes` × primary-cache frames.
    ///
    /// # Panics
    ///
    /// As [`Directory::new`].
    pub fn with_capacity(nodes: usize, line: u64, lines: usize) -> Directory {
        assert!((1..=MAX_NODES).contains(&nodes), "bit-vector directory supports 1..=64 nodes");
        assert!(
            line.is_power_of_two() && line >= 2,
            "line size must be a power of two of at least 2 bytes"
        );
        Directory {
            nodes,
            line,
            line_shift: line.trailing_zeros(),
            table: LineTable::with_slots((lines * 2).next_power_of_two().max(MIN_SLOTS)),
            stats: DirectoryStats::default(),
        }
    }

    /// Host bytes held by the line table (16 per slot).
    pub fn table_bytes(&self) -> usize {
        self.table.slots.len() * std::mem::size_of::<Slot>()
    }

    /// The home node of the line containing `addr` (address-interleaved).
    pub fn home(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) % self.nodes as u64) as usize
    }

    /// Accumulated protocol statistics.
    pub fn stats(&self) -> &DirectoryStats {
        &self.stats
    }

    /// Resets statistics (after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = DirectoryStats::default();
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line - 1)
    }

    fn memory_class(&self, node: usize, addr: u64) -> MissClass {
        if self.home(addr) == node {
            MissClass::LocalMem
        } else {
            MissClass::RemoteMem
        }
    }

    fn count(&mut self, class: MissClass) {
        match class {
            MissClass::LocalMem => self.stats.local += 1,
            MissClass::RemoteMem => self.stats.remote += 1,
            MissClass::RemoteCache => self.stats.remote_cache += 1,
            MissClass::Upgrade => self.stats.upgrades += 1,
            MissClass::Hit => {}
        }
    }

    /// Classifies a read miss by `node` without mutating state or
    /// statistics — the shard-local first pass of the parallel driver,
    /// which samples latency from this class immediately and replays the
    /// mutating [`Directory::read`] at the next quantum barrier.
    pub fn classify_read(&self, node: usize, addr: u64) -> MissClass {
        match self.table.get(self.line_of(addr)) {
            None | Some(LineState::Shared(_)) => self.memory_class(node, addr),
            Some(LineState::Dirty(owner)) if owner == node => MissClass::Hit,
            Some(LineState::Dirty(_)) => MissClass::RemoteCache,
        }
    }

    /// Classifies a write by `node` without mutating state or statistics
    /// (see [`Directory::classify_read`]). `cached` indicates whether the
    /// node already holds the line.
    pub fn classify_write(&self, node: usize, addr: u64, cached: bool) -> MissClass {
        match self.table.get(self.line_of(addr)) {
            None => self.memory_class(node, addr),
            Some(LineState::Dirty(owner)) if owner == node => MissClass::Hit,
            Some(LineState::Dirty(_)) => MissClass::RemoteCache,
            Some(LineState::Shared(mask)) => {
                let others = mask & !(1 << node) != 0;
                if cached {
                    if !others && self.home(addr) == node {
                        MissClass::Hit
                    } else {
                        MissClass::Upgrade
                    }
                } else {
                    self.memory_class(node, addr)
                }
            }
        }
    }

    /// A read miss by `node` for the line containing `addr`.
    pub fn read(&mut self, node: usize, addr: u64) -> Transaction {
        debug_assert!(node < self.nodes);
        let memory = self.memory_class(node, addr);
        let bit = 1u64 << node;
        let line = self.line_of(addr);
        let tx = match self.table.find(line) {
            Err(vacant) => {
                self.table.insert(vacant, line, LineState::Shared(bit));
                Transaction::new(memory)
            }
            Ok(at) => match self.table.state(at) {
                LineState::Shared(mask) => {
                    self.table.set(at, LineState::Shared(mask | bit));
                    Transaction::new(memory)
                }
                // Re-read of our own dirty line (should normally hit).
                LineState::Dirty(owner) if owner == node => Transaction::new(MissClass::Hit),
                LineState::Dirty(owner) => {
                    // Intervention: owner writes back and keeps a shared copy.
                    self.stats.writebacks += 1;
                    self.table.set(at, LineState::Shared(bit | (1 << owner)));
                    Transaction {
                        intervene: Some(owner),
                        ..Transaction::new(MissClass::RemoteCache)
                    }
                }
            },
        };
        self.count(tx.class);
        tx
    }

    /// A write (store) by `node` for the line containing `addr`.
    ///
    /// `cached` indicates whether the node already holds the line (an
    /// upgrade rather than a fill).
    pub fn write(&mut self, node: usize, addr: u64, cached: bool) -> Transaction {
        debug_assert!(node < self.nodes);
        let memory = self.memory_class(node, addr);
        let local_home = self.home(addr) == node;
        let line = self.line_of(addr);
        let tx = match self.table.find(line) {
            Err(vacant) => {
                self.table.insert(vacant, line, LineState::Dirty(node));
                Transaction::new(memory)
            }
            Ok(at) => {
                let tx = match self.table.state(at) {
                    LineState::Dirty(owner) if owner == node => Transaction::new(MissClass::Hit),
                    LineState::Dirty(owner) => {
                        self.stats.writebacks += 1;
                        Transaction {
                            class: MissClass::RemoteCache,
                            invalidate: 1 << owner,
                            intervene: Some(owner),
                        }
                    }
                    LineState::Shared(mask) => {
                        let others = mask & !(1 << node);
                        self.stats.invalidations += u64::from(others.count_ones());
                        let class = if !cached {
                            memory
                        } else if others == 0 && local_home {
                            // Sole sharer with a local home: silent upgrade.
                            MissClass::Hit
                        } else {
                            MissClass::Upgrade
                        };
                        Transaction { invalidate: others, ..Transaction::new(class) }
                    }
                };
                self.table.set(at, LineState::Dirty(node));
                tx
            }
        };
        self.count(tx.class);
        tx
    }

    /// Notifies the directory that `node` evicted the line containing
    /// `addr` (`dirty` if it was modified).
    pub fn evict(&mut self, node: usize, addr: u64, dirty: bool) {
        let Ok(at) = self.table.find(self.line_of(addr)) else {
            return;
        };
        match self.table.state(at) {
            LineState::Dirty(owner) if owner == node => {
                if dirty {
                    self.stats.writebacks += 1;
                }
                self.table.remove(at);
            }
            LineState::Shared(mask) => {
                let rest = mask & !(1 << node);
                if rest == 0 {
                    self.table.remove(at);
                } else {
                    self.table.set(at, LineState::Shared(rest));
                }
            }
            LineState::Dirty(_) => {}
        }
    }

    /// Current sharer count of the line containing `addr` (for tests).
    pub fn sharers(&self, addr: u64) -> usize {
        match self.table.get(self.line_of(addr)) {
            None => 0,
            Some(LineState::Dirty(_)) => 1,
            Some(LineState::Shared(mask)) => mask.count_ones() as usize,
        }
    }

    /// Checks the directory's state-machine legality at `cycle`: every
    /// tracked line is aligned; a shared line's sharer vector has no
    /// bits beyond the node count; a dirty line's owner is a real node.
    /// A dirty line with sharers, or a shared line with none, cannot be
    /// represented (the latter is a vacant slot). O(table slots) —
    /// drivers run this at chunk boundaries, not per tick.
    pub fn check_invariants(&self, cycle: u64) -> Result<(), Violation> {
        for (line, state) in self.table.iter() {
            if line % self.line != 0 {
                return Err(Violation::new(
                    "mp.directory",
                    "tracked line address is not line-aligned",
                    cycle,
                    format!("line {line:#x} with {}-byte lines", self.line),
                ));
            }
            match state {
                LineState::Shared(mask) => {
                    if self.nodes < 64 && mask >> self.nodes != 0 {
                        let ghost = 63 - mask.leading_zeros() as usize;
                        return Err(Violation::new(
                            "mp.directory",
                            "sharer vector names a nonexistent node",
                            cycle,
                            format!("line {line:#x} mask {mask:#x} with {} nodes", self.nodes),
                        )
                        .with_context(ghost));
                    }
                }
                LineState::Dirty(owner) => {
                    if owner >= self.nodes {
                        return Err(Violation::new(
                            "mp.directory",
                            "dirty line has an out-of-range owner",
                            cycle,
                            format!("line {line:#x} owned by node {owner} of {}", self.nodes),
                        )
                        .with_context(owner));
                    }
                }
            }
        }
        Ok(())
    }

    /// Visits every line the directory believes is cached somewhere,
    /// as `(line_address, node, dirty)` per cached copy — the driver's
    /// directory↔cache cross-check.
    pub fn for_each_cached_copy(&self, mut f: impl FnMut(u64, usize, bool)) {
        for (line, state) in self.table.iter() {
            match state {
                LineState::Dirty(owner) => f(line, owner, true),
                LineState::Shared(mask) => {
                    for node in 0..self.nodes.min(64) {
                        if mask & (1 << node) != 0 {
                            f(line, node, false);
                        }
                    }
                }
            }
        }
    }

    /// Corrupts the directory by marking `line_addr` (bit 0 clear)
    /// dirty-owned by `owner` without any legality checks. Fault
    /// injection for the validation layer's own regression tests —
    /// never called by the protocol paths.
    #[doc(hidden)]
    pub fn corrupt_line_for_test(&mut self, line_addr: u64, owner: usize) {
        match self.table.find(line_addr) {
            Ok(at) => self.table.set(at, LineState::Dirty(owner)),
            Err(vacant) => self.table.insert(vacant, line_addr, LineState::Dirty(owner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_sharing_accumulates() {
        let mut dir = Directory::new(4, 32);
        // 0x100 / 32 = line 8, home 8 % 4 = node 0: local for node 0.
        assert_eq!(dir.read(0, 0x100).class, MissClass::LocalMem);
        assert_eq!(dir.sharers(0x100), 1);
        dir.read(3, 0x100);
        assert_eq!(dir.sharers(0x100), 2);
    }

    #[test]
    fn home_interleaving() {
        let dir = Directory::new(4, 32);
        assert_eq!(dir.home(0x00), 0);
        assert_eq!(dir.home(0x20), 1);
        assert_eq!(dir.home(0x40), 2);
        assert_eq!(dir.home(0x60), 3);
        assert_eq!(dir.home(0x80), 0);
    }

    #[test]
    fn local_vs_remote_classification() {
        let mut dir = Directory::new(4, 32);
        assert_eq!(dir.read(0, 0x00).class, MissClass::LocalMem);
        assert_eq!(dir.read(0, 0x20).class, MissClass::RemoteMem);
    }

    #[test]
    fn dirty_intervention_on_read() {
        let mut dir = Directory::new(4, 32);
        dir.write(2, 0x00, false);
        let t = dir.read(1, 0x00);
        assert_eq!(t.class, MissClass::RemoteCache);
        assert_eq!(t.intervene, Some(2));
        // Both now share.
        assert_eq!(dir.sharers(0x00), 2);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00);
        dir.read(1, 0x00);
        dir.read(2, 0x00);
        let t = dir.write(1, 0x00, true);
        assert_eq!(t.class, MissClass::Upgrade);
        assert_eq!(t.invalidated().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(dir.sharers(0x00), 1);
        assert_eq!(dir.stats().invalidations, 2);
    }

    #[test]
    fn sole_local_sharer_upgrades_silently() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00); // home 0, sole sharer
        let t = dir.write(0, 0x00, true);
        assert_eq!(t.class, MissClass::Hit);
        assert_eq!(t.invalidate, 0);
    }

    #[test]
    fn write_to_dirty_remote_intervenes() {
        let mut dir = Directory::new(4, 32);
        dir.write(3, 0x20, false);
        let t = dir.write(1, 0x20, false);
        assert_eq!(t.class, MissClass::RemoteCache);
        assert_eq!(t.intervene, Some(3));
        assert_eq!(t.invalidated().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn eviction_clears_state() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00);
        dir.read(1, 0x00);
        dir.evict(0, 0x00, false);
        assert_eq!(dir.sharers(0x00), 1);
        dir.evict(1, 0x00, false);
        assert_eq!(dir.sharers(0x00), 0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut dir = Directory::new(4, 32);
        dir.write(0, 0x00, false);
        dir.evict(0, 0x00, true);
        assert_eq!(dir.stats().writebacks, 1);
        assert_eq!(dir.sharers(0x00), 0);
    }

    #[test]
    #[should_panic]
    fn too_many_nodes_rejected() {
        let _ = Directory::new(65, 32);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn one_byte_lines_rejected() {
        // Bit 0 of a line address carries the dirty flag.
        let _ = Directory::new(4, 1);
    }

    #[test]
    fn table10_sizing_is_512_kib_and_holds_its_bound() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
        let frames = 2_048;
        let mut dir = Directory::with_capacity(8, 32, 8 * frames);
        assert_eq!(dir.table_bytes(), 512 * 1024);
        for line in 0..8 * frames as u64 {
            dir.read((line % 8) as usize, line * 32);
        }
        assert_eq!(dir.table_bytes(), 512 * 1024, "the bound fits without growing");
        assert_eq!(dir.table.len, 8 * frames);
    }

    #[test]
    fn unsized_directory_grows_by_doubling() {
        let mut dir = Directory::new(4, 32);
        assert_eq!(dir.table_bytes(), MIN_SLOTS * 16);
        for line in 0..1_000u64 {
            dir.write((line % 4) as usize, line * 32, false);
        }
        assert_eq!(dir.table_bytes(), 2_048 * 16);
        assert!((0..1_000u64).all(|line| dir.sharers(line * 32) == 1));
    }

    #[test]
    fn vacancy_is_the_unstored_state() {
        // Dirty at node 0 has an all-zero state word, but its dirty bit
        // keeps the slot occupied.
        assert!(Slot::VACANT.is_vacant());
        assert!(!Slot::new(0, LineState::Dirty(0)).is_vacant());
        assert!(!Slot::new(0, LineState::Shared(1 << 63)).is_vacant());
        assert_eq!(Slot::new(0x40, LineState::Dirty(63)).state(), LineState::Dirty(63));
        assert_eq!(Slot::new(0x40, LineState::Dirty(69)).line(), 0x40);
    }

    #[test]
    fn invariants_hold_through_protocol_traffic() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00);
        dir.read(1, 0x00);
        dir.write(2, 0x00, false);
        dir.read(3, 0x00);
        dir.evict(2, 0x00, false);
        dir.write(1, 0x40, false);
        dir.evict(1, 0x40, true);
        assert!(dir.check_invariants(100).is_ok());
    }

    #[test]
    fn corrupted_owner_is_caught() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00);
        dir.corrupt_line_for_test(0x40, 9);
        let v = dir.check_invariants(777).unwrap_err();
        assert_eq!(v.context, Some(9));
        let msg = v.to_string();
        assert!(msg.contains("cycle 777"), "{msg}");
        assert!(msg.contains("owner"), "{msg}");
    }

    #[test]
    fn classify_matches_mutating_transactions() {
        // Drive a directory through mixed traffic; before every mutating
        // call, the read-only classifier must predict the same class.
        let mut dir = Directory::new(4, 32);
        let script: [(usize, u64, bool); 8] = [
            (0, 0x00, false),
            (1, 0x00, false),
            (2, 0x00, true),
            (3, 0x20, false),
            (3, 0x20, true),
            (0, 0x20, true),
            (2, 0x40, false),
            (1, 0x40, false),
        ];
        for (node, addr, write) in script {
            if write {
                let cached = dir.sharers(addr) > 0; // approximation for the test
                let predicted = dir.classify_write(node, addr, cached);
                assert_eq!(
                    predicted,
                    dir.write(node, addr, cached).class,
                    "write {node} {addr:#x}"
                );
            } else {
                let predicted = dir.classify_read(node, addr);
                assert_eq!(predicted, dir.read(node, addr).class, "read {node} {addr:#x}");
            }
        }
    }

    #[test]
    fn classify_does_not_mutate() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00);
        let stats_before = *dir.stats();
        dir.classify_read(1, 0x00);
        dir.classify_write(1, 0x00, false);
        assert_eq!(*dir.stats(), stats_before);
        assert_eq!(dir.sharers(0x00), 1);
    }

    #[test]
    fn cached_copy_walk_matches_state() {
        let mut dir = Directory::new(4, 32);
        dir.read(0, 0x00);
        dir.read(1, 0x00);
        dir.write(2, 0x20, false);
        let mut copies = vec![];
        dir.for_each_cached_copy(|line, node, dirty| copies.push((line, node, dirty)));
        copies.sort_unstable();
        assert_eq!(copies, vec![(0x00, 0, false), (0x00, 1, false), (0x20, 2, true)]);
    }
}
