use std::fmt;
use std::ops::{Add, AddAssign};

/// Where a processor cycle went.
///
/// One category is charged per processor cycle. The uniprocessor study
/// (Figures 6–7) reports `InstrShort + InstrLong` as a single "instruction
/// stall" bar; the multiprocessor study (Figures 8–9) separates them at the
/// paper's four-cycle boundary (the maximum FP add/sub/mult result hazard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// A useful instruction issued this cycle.
    Busy,
    /// Pipeline-dependency stall of four cycles or fewer.
    InstrShort,
    /// Pipeline-dependency stall of more than four cycles (e.g. waiting on
    /// a divide result).
    InstrLong,
    /// Stalled on instruction memory (I-cache or I-TLB miss).
    InstMem,
    /// Stalled on data memory (D-cache or D-TLB miss), or idle because every
    /// context is waiting on an outstanding data reference.
    DataMem,
    /// Waiting on interprocess synchronization (locks, barriers).
    Sync,
    /// Context-switch overhead: squashed instructions and pipeline-refill
    /// bubbles caused by making a context unavailable.
    Switch,
}

impl Category {
    /// Number of categories.
    pub const COUNT: usize = 7;

    /// All categories, in display order.
    pub const ALL: [Category; Category::COUNT] = [
        Category::Busy,
        Category::InstrShort,
        Category::InstrLong,
        Category::InstMem,
        Category::DataMem,
        Category::Sync,
        Category::Switch,
    ];

    #[inline]
    fn slot(self) -> usize {
        match self {
            Category::Busy => 0,
            Category::InstrShort => 1,
            Category::InstrLong => 2,
            Category::InstMem => 3,
            Category::DataMem => 4,
            Category::Sync => 5,
            Category::Switch => 6,
        }
    }

    /// Short label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            Category::Busy => "busy",
            Category::InstrShort => "instr(short)",
            Category::InstrLong => "instr(long)",
            Category::InstMem => "inst-mem",
            Category::DataMem => "data-mem",
            Category::Sync => "sync",
            Category::Switch => "switch",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-category cycle counters for one simulation run.
///
/// Supports the retroactive re-attribution the context-switch accounting
/// needs: when an already-issued instruction is squashed, its issue cycle is
/// moved from [`Category::Busy`] to [`Category::Switch`] via
/// [`Breakdown::transfer`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    counts: [u64; Category::COUNT],
}

impl Breakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Breakdown {
        Breakdown::default()
    }

    /// Adds `n` cycles to `category`.
    #[inline]
    pub fn record(&mut self, category: Category, n: u64) {
        self.counts[category.slot()] += n;
    }

    /// Cycles charged to `category`.
    pub fn get(&self, category: Category) -> u64 {
        self.counts[category.slot()]
    }

    /// Moves `n` cycles from one category to another.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` cycles are currently charged to `from`.
    pub fn transfer(&mut self, from: Category, to: Category, n: u64) {
        let src = &mut self.counts[from.slot()];
        assert!(*src >= n, "cannot move {n} cycles out of {from}: only {src} charged");
        *src -= n;
        self.counts[to.slot()] += n;
    }

    /// Moves up to `n` cycles from one category to another, saturating at
    /// what is actually charged to `from` (used when counters were reset
    /// while the charged work was still in flight). Returns the number of
    /// cycles moved.
    pub fn transfer_upto(&mut self, from: Category, to: Category, n: u64) -> u64 {
        let moved = n.min(self.counts[from.slot()]);
        self.counts[from.slot()] -= moved;
        self.counts[to.slot()] += moved;
        moved
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of total cycles charged to `category` (0.0 if empty).
    pub fn fraction(&self, category: Category) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(category) as f64 / total as f64
        }
    }

    /// Fractions for all categories in [`Category::ALL`] order.
    pub fn fractions(&self) -> [f64; Category::COUNT] {
        let mut out = [0.0; Category::COUNT];
        for (slot, category) in Category::ALL.iter().enumerate() {
            out[slot] = self.fraction(*category);
        }
        out
    }

    /// Combined instruction-stall cycles (short + long), as reported by the
    /// uniprocessor figures.
    pub fn instr_stall(&self) -> u64 {
        self.get(Category::InstrShort) + self.get(Category::InstrLong)
    }
}

impl Add for Breakdown {
    type Output = Breakdown;

    fn add(mut self, rhs: Breakdown) -> Breakdown {
        self += rhs;
        self
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        for (a, b) in self.counts.iter_mut().zip(rhs.counts) {
            *a += b;
        }
    }
}

impl<'a> std::iter::Sum<&'a Breakdown> for Breakdown {
    fn sum<I: Iterator<Item = &'a Breakdown>>(iter: I) -> Breakdown {
        let mut acc = Breakdown::new();
        for b in iter {
            acc += b.clone();
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut b = Breakdown::new();
        b.record(Category::Busy, 10);
        b.record(Category::Switch, 5);
        assert_eq!(b.total(), 15);
        assert_eq!(b.get(Category::Busy), 10);
    }

    #[test]
    fn transfer_moves_cycles() {
        let mut b = Breakdown::new();
        b.record(Category::Busy, 10);
        b.transfer(Category::Busy, Category::Switch, 4);
        assert_eq!(b.get(Category::Busy), 6);
        assert_eq!(b.get(Category::Switch), 4);
        assert_eq!(b.total(), 10);
    }

    #[test]
    #[should_panic]
    fn transfer_overdraw_panics() {
        let mut b = Breakdown::new();
        b.record(Category::Busy, 1);
        b.transfer(Category::Busy, Category::Switch, 2);
    }

    #[test]
    fn transfer_upto_saturates() {
        let mut b = Breakdown::new();
        b.record(Category::Busy, 2);
        assert_eq!(b.transfer_upto(Category::Busy, Category::Switch, 5), 2);
        assert_eq!(b.get(Category::Busy), 0);
        assert_eq!(b.get(Category::Switch), 2);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = Breakdown::new();
        for (i, c) in Category::ALL.iter().enumerate() {
            b.record(*c, (i as u64 + 1) * 3);
        }
        let sum: f64 = b.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(Breakdown::new().fraction(Category::Busy), 0.0);
    }

    #[test]
    fn sum_and_add() {
        let mut a = Breakdown::new();
        a.record(Category::Busy, 3);
        let mut b = Breakdown::new();
        b.record(Category::Busy, 4);
        b.record(Category::Sync, 1);
        let all = [a.clone(), b.clone()];
        let merged: Breakdown = all.iter().sum();
        assert_eq!(merged.get(Category::Busy), 7);
        assert_eq!(merged.get(Category::Sync), 1);
        assert_eq!((a + b).total(), 8);
    }

    #[test]
    fn instr_stall_combines_short_and_long() {
        let mut b = Breakdown::new();
        b.record(Category::InstrShort, 2);
        b.record(Category::InstrLong, 5);
        assert_eq!(b.instr_stall(), 7);
    }

    #[test]
    fn labels_are_unique() {
        for (i, a) in Category::ALL.iter().enumerate() {
            for b in &Category::ALL[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
    }
}
