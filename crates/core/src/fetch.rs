use std::collections::VecDeque;
use std::fmt;

use interleave_isa::Instr;

/// A producer of one context's instruction stream.
///
/// Sources are pull-based generators: the fetch unit asks for the next
/// instruction in program order. Returning `None` ends the stream (the
/// context is done once everything retires). Workload models in
/// `interleave-workloads` and `interleave-mp` implement this trait.
///
/// Sources are `Send` so a whole [`Processor`](crate::Processor) can be
/// moved onto a worker thread — the multiprocessor driver advances each
/// node on its own host thread between conservative quantum barriers.
pub trait InstrSource: Send {
    /// Appends up to `max` further instructions of the stream to `out`
    /// (program order, nothing cleared) and returns how many were
    /// produced. Fewer than `max` — including zero — means end of
    /// stream.
    ///
    /// `out` may be the fetch unit's live buffer, whose existing entries
    /// are fetched instructions that have not retired yet. So an
    /// implementation must not touch entries that were in `out` before
    /// the call: it may rewrite what it appended itself (the SPLASH
    /// wrapper redirects data references in place), but must not clear,
    /// truncate or rewrite older entries, and it must return exactly the
    /// number of instructions it appended. [`FetchUnit`] panics on a
    /// refill that changes the buffer's length by anything else.
    ///
    /// The stream must not depend on how it is cut into runs: any
    /// sequence of `max` values yields the same instructions in the same
    /// order.
    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize;
}

/// An [`InstrSource`] backed by a fixed vector — handy for tests and the
/// paper's Figure 2/3 micro-examples.
///
/// # Examples
///
/// ```
/// use interleave_core::{InstrSource, VecSource};
/// use interleave_isa::Instr;
///
/// let mut s = VecSource::new([Instr::nop(0), Instr::nop(4)]);
/// let mut out = Vec::new();
/// assert_eq!(s.next_run(&mut out, 1), 1);
/// assert_eq!(s.next_run(&mut out, 8), 1);
/// assert_eq!(s.next_run(&mut out, 8), 0);
/// assert_eq!(out, [Instr::nop(0), Instr::nop(4)]);
/// ```
#[derive(Debug, Clone)]
pub struct VecSource {
    items: VecDeque<Instr>,
}

impl VecSource {
    /// Creates a source yielding `items` in order.
    pub fn new(items: impl IntoIterator<Item = Instr>) -> VecSource {
        VecSource { items: items.into_iter().collect() }
    }
}

impl InstrSource for VecSource {
    fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
        let n = max.min(self.items.len());
        out.extend(self.items.drain(..n));
        n
    }
}

/// Per-context fetch unit: buffers the instruction stream between fetch
/// and retirement so that squashed instructions can be re-fetched.
///
/// Instructions are identified by their *fetch index* (position in the
/// stream). The buffer holds every fetched-but-not-retired instruction;
/// a squash simply rolls the fetch cursor back to the oldest squashed
/// index. Because integer and FP instructions retire up to two cycles
/// apart, retirement may arrive out of index order; the buffer only
/// releases a contiguous retired prefix. Each buffered slot carries its
/// own retired flag, so retiring, absorbing the prefix, and skipping
/// retired slots on advance are all O(1) per instruction.
///
/// The buffer is one `Vec` the source appends into directly, so an
/// instruction is copied once on its way from the generator to the
/// issue stage, which reads it in place with [`FetchUnit::at`]. Released
/// entries stay in front of a `head` offset until the next refill
/// compacts them away.
///
/// The unit eagerly normalizes after every mutation (cursor clamped past
/// the retired prefix, buffer filled through the cursor), so the hot
/// read-side queries — [`FetchUnit::peek`], [`FetchUnit::cursor`],
/// [`FetchUnit::is_done`] — take `&self`. Sources are self-contained
/// deterministic generators, so pulling one instruction early never
/// changes the stream.
pub struct FetchUnit {
    source: Box<dyn InstrSource>,
    /// buffer[head + i] holds the instruction at index `base + i`;
    /// `buffer[..head]` is released and dropped at the next refill.
    buffer: Vec<Instr>,
    /// retired[head + i] is set once the instruction at `base + i`
    /// retired (out of order, not yet absorbed into `base`); kept in
    /// step with `buffer`.
    retired: Vec<bool>,
    /// Buffer position of fetch index `base`.
    head: usize,
    /// Oldest unretired fetch index.
    base: u64,
    /// Index of the next instruction to fetch.
    cursor: u64,
    /// Number of set flags in `retired[head..]`.
    retired_count: u64,
    /// Set once the source reports end of stream.
    exhausted: bool,
}

/// Instructions pulled per source round-trip when the buffer runs dry.
/// Sized to a typical basic-block run so the generator amortizes its
/// per-batch bookkeeping without buffering far past what a squash window
/// ever needs.
const REFILL_RUN: usize = 32;

impl fmt::Debug for FetchUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchUnit")
            .field("base", &self.base)
            .field("cursor", &self.cursor)
            .field("buffered", &(self.buffer.len() - self.head))
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl FetchUnit {
    /// Wraps an instruction source.
    pub fn new(source: Box<dyn InstrSource>) -> FetchUnit {
        let mut unit = FetchUnit {
            source,
            buffer: Vec::with_capacity(REFILL_RUN),
            retired: Vec::with_capacity(REFILL_RUN),
            head: 0,
            base: 0,
            cursor: 0,
            retired_count: 0,
            exhausted: false,
        };
        unit.normalize();
        unit
    }

    /// Buffer position of fetch index `index` (at or past `base`).
    #[inline]
    fn pos(&self, index: u64) -> usize {
        self.head + (index - self.base) as usize
    }

    /// Restores the cursor/buffer invariant after a mutation: the cursor
    /// sits at or past `base`, skips over instructions that already
    /// retired (a rollback target can precede out-of-order-retired
    /// younger instructions; those must not execute twice — and
    /// absorbing a retired prefix can move `base` past a rolled-back
    /// cursor), and the buffer covers the cursor unless the source is
    /// exhausted.
    #[inline]
    fn normalize(&mut self) {
        self.cursor = self.cursor.max(self.base);
        while self.retired.get(self.pos(self.cursor)) == Some(&true) {
            self.cursor += 1;
        }
        while !self.exhausted && !self.has_next() {
            self.refill();
        }
    }

    /// Drops the released prefix, then appends a whole run from the
    /// source straight into the buffer. Sources are self-contained
    /// deterministic generators, so buffering past the cursor never
    /// changes the stream, and batch-aware sources amortize their
    /// per-batch bookkeeping across the run.
    ///
    /// # Panics
    ///
    /// Panics if the source breaks the append-only contract of
    /// [`InstrSource::next_run`] (the buffer did not grow by exactly the
    /// count it returned): the buffer holds fetched instructions that
    /// have not retired yet.
    fn refill(&mut self) {
        // Compacting at every refill keeps the buffer at the in-flight
        // window plus one run.
        self.buffer.drain(..self.head);
        self.retired.drain(..self.head);
        self.head = 0;
        let need = (self.cursor + 1 - self.base) as usize - self.buffer.len();
        let want = need.max(REFILL_RUN);
        let before = self.buffer.len();
        let got = self.source.next_run(&mut self.buffer, want);
        assert_eq!(
            self.buffer.len(),
            before + got,
            "instruction source must append exactly the count it returns to next_run's buffer"
        );
        self.retired.resize(self.buffer.len(), false);
        if got < want {
            self.exhausted = true;
        }
    }

    /// The instruction at the fetch cursor. `None` once the stream is
    /// exhausted.
    #[inline]
    pub fn peek(&self) -> Option<&Instr> {
        self.buffer.get(self.pos(self.cursor))
    }

    /// Whether an instruction is buffered at the cursor (`peek` is
    /// `Some`).
    #[inline]
    pub fn has_next(&self) -> bool {
        self.pos(self.cursor) < self.buffer.len()
    }

    /// The buffered instruction at fetch index `index`, which must have
    /// been fetched (it lies behind the cursor) and not yet been
    /// released by retirement.
    ///
    /// # Panics
    ///
    /// Panics if `index` lies before the retired prefix or at or past the
    /// cursor.
    #[inline]
    pub fn at(&self, index: u64) -> &Instr {
        assert!(
            self.base <= index && index < self.cursor,
            "fetch index {index} is not in flight (base {}, cursor {})",
            self.base,
            self.cursor
        );
        &self.buffer[self.pos(index)]
    }

    /// Index of the instruction the cursor points at.
    #[inline]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Consumes the instruction at the cursor.
    ///
    /// # Panics
    ///
    /// Panics if the stream is exhausted at the cursor; call
    /// [`FetchUnit::has_next`] first.
    #[inline]
    pub fn advance(&mut self) {
        assert!(self.has_next(), "advance past end of stream");
        self.cursor += 1;
        self.normalize();
    }

    /// Rolls the cursor back to `index` so squashed instructions are
    /// re-fetched.
    ///
    /// # Panics
    ///
    /// Panics if `index` has already been released by retirement or lies
    /// ahead of the cursor.
    pub fn rollback(&mut self, index: u64) {
        assert!(index >= self.base, "cannot roll back before retired prefix");
        assert!(index <= self.cursor, "cannot roll forward");
        self.cursor = index;
        self.normalize();
    }

    /// Rolls the cursor back to the oldest unretired instruction, so that
    /// everything in flight is re-fetched (used when an OS scheduler swap
    /// squashes the whole context).
    pub fn rollback_to_base(&mut self) {
        self.cursor = self.base;
        self.normalize();
    }

    /// Marks the instruction at `index` retired, releasing buffer space
    /// once the retired prefix is contiguous.
    ///
    /// # Panics
    ///
    /// Panics if `index` was never fetched, was already retired, or is at
    /// or ahead of the cursor.
    #[inline]
    pub fn retire(&mut self, index: u64) {
        assert!(index >= self.base, "double retirement of index {index}");
        assert!(index < self.cursor, "retiring unfetched index {index}");
        let pos = self.pos(index);
        let flag = &mut self.retired[pos];
        assert!(!*flag, "double retirement of index {index}");
        *flag = true;
        self.retired_count += 1;
        while self.retired.get(self.head) == Some(&true) {
            self.head += 1;
            self.retired_count -= 1;
            self.base += 1;
        }
        self.normalize();
    }

    /// Whether every fetched instruction has retired and the stream is
    /// exhausted.
    #[inline]
    pub fn is_done(&self) -> bool {
        !self.has_next() && self.base == self.cursor
    }

    /// Number of fetched-but-unretired instructions.
    #[inline]
    pub fn outstanding(&self) -> u64 {
        (self.cursor - self.base).saturating_sub(self.retired_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(n: u64) -> FetchUnit {
        FetchUnit::new(Box::new(VecSource::new((0..n).map(|i| Instr::nop(i * 4)))))
    }

    #[test]
    fn fetch_in_order() {
        let mut f = unit(3);
        assert_eq!(f.peek().unwrap().pc, 0);
        f.advance();
        assert_eq!(f.peek().unwrap().pc, 4);
        f.advance();
        f.advance();
        assert!(f.peek().is_none());
    }

    #[test]
    fn rollback_refetches() {
        let mut f = unit(5);
        for _ in 0..3 {
            f.advance();
        }
        f.rollback(1);
        assert_eq!(f.peek().unwrap().pc, 4);
        assert_eq!(f.cursor(), 1);
    }

    #[test]
    fn retirement_releases_prefix() {
        let mut f = unit(5);
        for _ in 0..3 {
            f.advance();
        }
        f.retire(0);
        f.retire(1);
        assert_eq!(f.outstanding(), 1);
        // Index 0 and 1 are gone; rollback to 2 still works.
        f.rollback(2);
        assert_eq!(f.peek().unwrap().pc, 8);
    }

    #[test]
    fn out_of_order_retirement_absorbed_when_prefix_completes() {
        let mut f = unit(5);
        for _ in 0..3 {
            f.advance();
        }
        f.retire(1);
        assert_eq!(f.outstanding(), 2);
        f.retire(0);
        // Both absorbed once the prefix is contiguous.
        assert_eq!(f.outstanding(), 1);
        f.rollback(2);
        assert_eq!(f.peek().unwrap().pc, 8);
    }

    #[test]
    fn rollback_across_retired_instruction_skips_it() {
        let mut f = unit(5);
        for _ in 0..3 {
            f.advance();
        }
        f.retire(1);
        // Index 1 already committed; a rollback to 0 re-fetches 0 and
        // then skips straight to 2.
        f.rollback(0);
        assert_eq!(f.peek().unwrap().pc, 0);
        f.advance();
        assert_eq!(f.peek().unwrap().pc, 8);
    }

    #[test]
    #[should_panic]
    fn rollback_past_retired_prefix_panics() {
        let mut f = unit(5);
        f.advance();
        f.retire(0);
        f.rollback(0);
    }

    #[test]
    #[should_panic(expected = "double retirement")]
    fn double_retire_panics() {
        let mut f = unit(5);
        f.advance();
        f.advance();
        f.retire(1);
        f.retire(1);
    }

    #[test]
    #[should_panic(expected = "retiring unfetched index")]
    fn unfetched_retire_panics() {
        let mut f = unit(5);
        f.advance();
        f.retire(1);
    }

    #[test]
    fn done_when_all_retired() {
        let mut f = unit(2);
        f.advance();
        f.advance();
        assert!(!f.is_done());
        f.retire(0);
        f.retire(1);
        assert!(f.is_done());
    }

    #[test]
    fn rollback_to_base_refetches_all_unretired() {
        let mut f = unit(6);
        for _ in 0..5 {
            f.advance();
        }
        f.retire(0);
        f.retire(1);
        f.rollback_to_base();
        // Indices 2..5 re-fetch; 0 and 1 stay retired.
        assert_eq!(f.peek().unwrap().pc, 8);
        assert_eq!(f.cursor(), 2);
    }

    #[test]
    fn cursor_clamps_to_base_after_absorption() {
        let mut f = unit(6);
        for _ in 0..3 {
            f.advance();
        }
        // Out-of-order retire then rollback to 0, then absorb the prefix.
        f.retire(1);
        f.retire(2);
        f.rollback(0);
        f.advance(); // re-executes 0
        f.retire(0); // base jumps to 3 while cursor sits at 1
        assert_eq!(f.peek().unwrap().pc, 12, "cursor must catch up to base");
        assert_eq!(f.outstanding(), 0);
    }

    #[test]
    fn empty_source_is_done() {
        let f = unit(0);
        assert!(f.is_done());
        assert!(f.peek().is_none());
        assert!(!f.has_next());
    }

    #[test]
    #[should_panic(expected = "is not in flight")]
    fn at_rejects_unfetched_index() {
        let f = unit(5);
        f.at(0);
    }

    #[test]
    fn vec_source_appends_what_it_returns_and_runs_short_only_at_end() {
        let sentinel = Instr::nop(0xdead);
        let mut s = VecSource::new((0..10).map(|i| Instr::nop(i * 4)));
        let mut out = vec![sentinel];
        for (max, want) in [(0, 0), (3, 3), (1, 1), (4, 4), (5, 2), (5, 0)] {
            let before = out.len();
            assert_eq!(s.next_run(&mut out, max), want);
            assert_eq!(out.len(), before + want);
        }
        assert_eq!(out[0], sentinel);
        let pcs: Vec<u64> = out[1..].iter().map(|i| i.pc).collect();
        assert_eq!(pcs, (0..10).map(|i| i * 4).collect::<Vec<_>>());
    }

    /// Clears the buffer it is handed before appending: breaks the
    /// append-only contract of `next_run`.
    struct Clobbering;

    impl InstrSource for Clobbering {
        fn next_run(&mut self, out: &mut Vec<Instr>, max: usize) -> usize {
            out.clear();
            out.extend((0..max).map(|_| Instr::nop(0)));
            max
        }
    }

    #[test]
    #[should_panic(expected = "must append exactly the count it returns")]
    fn refill_rejects_a_source_that_clears_the_buffer() {
        let mut f = FetchUnit::new(Box::new(Clobbering));
        // Hold index 0 in flight through the next refill.
        for _ in 0..REFILL_RUN {
            f.advance();
        }
    }
}
