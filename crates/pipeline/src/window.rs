use std::collections::VecDeque;

use interleave_isa::Op;
use interleave_obs::{Counter, Registry};

/// An instruction between issue (entering EX) and retirement (end of WB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Hardware context it belongs to.
    pub ctx: usize,
    /// Position in the context's instruction stream.
    pub fetch_index: u64,
    /// Operation class (selects the integer or FP pipe).
    pub op: Op,
    /// Cycle it entered EX.
    pub issued_at: u64,
    /// Cycle it leaves WB (end of cycle).
    pub retires_at: u64,
}

/// One window row: an [`InFlight`] tagged with its issue sequence
/// number, so rows of the two pipes can be merged back into issue order.
#[derive(Debug, Clone, Copy)]
struct Row {
    seq: u64,
    inflight: InFlight,
}

/// The set of issued-but-not-retired instructions.
///
/// The blocked scheme's cache-miss flush squashes *everything* here plus
/// the front end (≈ pipeline depth, 7 cycles of lost work); the interleaved
/// scheme squashes only the missing context's entries (1–4 cycles with four
/// contexts) — the contrast of paper Figure 2.
///
/// Stored as two FIFOs, one per pipe (integer and FP). Issue is in order
/// and each pipe retires a fixed number of cycles after issue, so within
/// a pipe `retires_at` never decreases: the due rows of a cycle are a
/// prefix of each FIFO. Retirement pops those prefixes and never moves a
/// surviving row, and a cached `min_retire` (the earlier of the two
/// FIFO heads) makes a cycle with nothing due one comparison. A per-row
/// issue sequence number merges the two pipes back into issue order
/// wherever rows leave the window.
///
/// # Examples
///
/// ```
/// use interleave_isa::Op;
/// use interleave_pipeline::{InFlight, IssueWindow};
///
/// let mut w = IssueWindow::new();
/// w.issue(InFlight { ctx: 0, fetch_index: 0, op: Op::Nop, issued_at: 5, retires_at: 8 });
/// assert_eq!(w.retire_due(7).len(), 0);
/// assert_eq!(w.retire_due(8).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IssueWindow {
    /// `pipes[0]` holds integer-pipe rows, `pipes[1]` FP-pipe rows, each
    /// in issue order.
    pipes: [VecDeque<Row>; 2],
    /// Sequence number of the next issued row.
    next_seq: u64,
    /// Issue cycle of the most recently issued row.
    last_issued_at: u64,
    /// Earliest `retires_at` in the window (`u64::MAX` when empty).
    min_retire: u64,
    stats: WindowStats,
}

impl Default for IssueWindow {
    fn default() -> IssueWindow {
        IssueWindow::new()
    }
}

/// Squash counters for an [`IssueWindow`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowStats {
    /// Squash operations that removed at least one instruction.
    pub squash_events: Counter,
    /// Total in-flight instructions removed by squashes.
    pub squashed_instrs: Counter,
}

impl IssueWindow {
    /// Creates an empty window.
    pub fn new() -> IssueWindow {
        IssueWindow {
            pipes: Default::default(),
            next_seq: 0,
            last_issued_at: 0,
            min_retire: u64::MAX,
            stats: WindowStats::default(),
        }
    }

    /// Re-derives `min_retire` from the FIFO heads.
    #[inline]
    fn refresh_min_retire(&mut self) {
        let head = |pipe: &VecDeque<Row>| pipe.front().map_or(u64::MAX, |r| r.inflight.retires_at);
        self.min_retire = head(&self.pipes[0]).min(head(&self.pipes[1]));
    }

    /// Records an issued instruction.
    ///
    /// # Panics
    ///
    /// Panics if `retires_at` precedes `issued_at` (instructions spend at
    /// least one cycle in flight), if issue order is violated, or if the
    /// instruction would leave its pipe before an older one of the same
    /// pipe.
    #[inline]
    pub fn issue(&mut self, inflight: InFlight) {
        assert!(inflight.retires_at >= inflight.issued_at, "retire before issue");
        assert!(self.last_issued_at <= inflight.issued_at, "issue order violated");
        self.last_issued_at = inflight.issued_at;
        let pipe = &mut self.pipes[usize::from(inflight.op.is_fp())];
        if let Some(last) = pipe.back() {
            assert!(last.inflight.retires_at <= inflight.retires_at, "pipe retire order violated");
        }
        pipe.push_back(Row { seq: self.next_seq, inflight });
        self.next_seq += 1;
        self.min_retire = self.min_retire.min(inflight.retires_at);
    }

    /// Removes and returns the oldest instruction retiring at or before
    /// `now`, if any — the allocation-free per-cycle retirement step:
    /// calling it until `None` yields the due instructions in issue
    /// order.
    ///
    /// Integer and FP instructions leave their pipes independently, so an
    /// integer instruction may retire past an older FP instruction of the
    /// same context (squashes never reach behind the faulting instruction,
    /// so completed work is never re-executed).
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<InFlight> {
        if now < self.min_retire {
            return None;
        }
        // Sequence number of a pipe's front row if it is due.
        let due = |pipe: &VecDeque<Row>| {
            pipe.front().filter(|r| r.inflight.retires_at <= now).map(|r| r.seq)
        };
        let [int, fp] = &self.pipes;
        let pipe = match (due(int), due(fp)) {
            (Some(a), Some(b)) => usize::from(b < a),
            (Some(_), None) => 0,
            (None, Some(_)) => 1,
            (None, None) => return None,
        };
        let row = self.pipes[pipe].pop_front();
        self.refresh_min_retire();
        row.map(|row| row.inflight)
    }

    /// The earliest cycle an instruction in the window retires
    /// (`u64::MAX` when empty): [`IssueWindow::pop_due`] yields nothing
    /// before it.
    #[inline]
    pub fn next_retire(&self) -> u64 {
        self.min_retire
    }

    /// Removes and returns the instructions retiring at or before `now`,
    /// in issue order.
    pub fn retire_due(&mut self, now: u64) -> Vec<InFlight> {
        std::iter::from_fn(|| self.pop_due(now)).collect()
    }

    /// Moves every row matching `pred` into `out` (cleared first) in
    /// issue order, and counts the squash.
    fn squash_where_into(&mut self, out: &mut Vec<InFlight>, pred: impl Fn(&InFlight) -> bool) {
        out.clear();
        let [int, fp] = &self.pipes;
        let (mut i, mut j) = (0, 0);
        loop {
            let row = match (int.get(i), fp.get(j)) {
                (Some(a), Some(b)) if b.seq < a.seq => {
                    j += 1;
                    b
                }
                (Some(a), _) => {
                    i += 1;
                    a
                }
                (None, Some(b)) => {
                    j += 1;
                    b
                }
                (None, None) => break,
            };
            if pred(&row.inflight) {
                out.push(row.inflight);
            }
        }
        if !out.is_empty() {
            for pipe in &mut self.pipes {
                pipe.retain(|r| !pred(&r.inflight));
            }
            self.refresh_min_retire();
        }
        self.note_squash(out.len());
    }

    /// Moves every in-flight instruction of `ctx` into `out` (cleared
    /// first) — used when the whole context leaves the machine, e.g. an
    /// OS swap.
    pub fn squash_ctx_into(&mut self, ctx: usize, out: &mut Vec<InFlight>) {
        self.squash_ctx_from_into(ctx, 0, out);
    }

    /// Removes and returns every in-flight instruction of `ctx`.
    pub fn squash_ctx(&mut self, ctx: usize) -> Vec<InFlight> {
        self.squash_ctx_from(ctx, 0)
    }

    /// Moves `ctx`'s in-flight instructions at or after stream position
    /// `from` into `out` (cleared first) — the faulting instruction and
    /// everything younger. Older instructions (e.g. FP operations still
    /// draining) complete normally, exactly as in a machine that squashes
    /// by CID at the detection point.
    pub fn squash_ctx_from_into(&mut self, ctx: usize, from: u64, out: &mut Vec<InFlight>) {
        self.squash_where_into(out, |i| i.ctx == ctx && i.fetch_index >= from);
    }

    /// Removes and returns `ctx`'s in-flight instructions at or after
    /// stream position `from`.
    pub fn squash_ctx_from(&mut self, ctx: usize, from: u64) -> Vec<InFlight> {
        let mut squashed = Vec::new();
        self.squash_ctx_from_into(ctx, from, &mut squashed);
        squashed
    }

    /// Moves every in-flight instruction into `out` (cleared first) —
    /// the blocked scheme's full flush.
    pub fn squash_all_into(&mut self, out: &mut Vec<InFlight>) {
        self.squash_where_into(out, |_| true);
    }

    /// Removes and returns every in-flight instruction.
    pub fn squash_all(&mut self) -> Vec<InFlight> {
        let mut squashed = Vec::new();
        self.squash_all_into(&mut squashed);
        squashed
    }

    fn note_squash(&mut self, removed: usize) {
        if removed > 0 {
            self.stats.squash_events.inc();
            self.stats.squashed_instrs.add(removed as u64);
        }
    }

    /// Accumulated squash counters.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }

    /// Clears the squash counters (in-flight contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = WindowStats::default();
    }

    /// Registers squash counters under `pipeline.window.*`.
    pub fn collect_metrics(&self, reg: &mut Registry) {
        reg.counter("pipeline.window.squash_events", self.stats.squash_events.get());
        reg.counter("pipeline.window.squashed_instrs", self.stats.squashed_instrs.get());
    }

    /// Number of in-flight instructions belonging to `ctx`.
    #[inline]
    pub fn count_ctx(&self, ctx: usize) -> usize {
        self.pipes.iter().flatten().filter(|r| r.inflight.ctx == ctx).count()
    }

    /// Total in-flight instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.pipes[0].len() + self.pipes[1].len()
    }

    /// Whether nothing is in flight.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pipes[0].is_empty() && self.pipes[1].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inflight(ctx: usize, index: u64, issued: u64, retires: u64) -> InFlight {
        InFlight { ctx, fetch_index: index, op: Op::IntAlu, issued_at: issued, retires_at: retires }
    }

    fn fp(ctx: usize, index: u64, issued: u64, retires: u64) -> InFlight {
        InFlight { op: Op::FpAdd, ..inflight(ctx, index, issued, retires) }
    }

    #[test]
    fn retire_in_order() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(0, 1, 2, 5));
        let r = w.retire_due(4);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].fetch_index, 0);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn younger_int_retires_past_older_fp() {
        let mut w = IssueWindow::new();
        w.issue(fp(0, 0, 1, 6)); // FP: retires at issue + 5
        w.issue(inflight(0, 1, 2, 5)); // int: leaves its pipe first
        let r = w.retire_due(5);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].fetch_index, 1);
        let r = w.retire_due(6);
        assert_eq!(r[0].fetch_index, 0);
    }

    #[test]
    fn squash_from_spares_older_instructions() {
        let mut w = IssueWindow::new();
        w.issue(fp(0, 5, 1, 8)); // older FP, still draining
        w.issue(inflight(0, 7, 2, 5)); // the faulting load
        w.issue(inflight(0, 8, 3, 6)); // younger
        let squashed = w.squash_ctx_from(0, 7);
        assert_eq!(squashed.len(), 2);
        assert!(squashed.iter().all(|i| i.fetch_index >= 7));
        assert_eq!(w.len(), 1);
        assert_eq!(w.retire_due(8)[0].fetch_index, 5);
    }

    #[test]
    fn squash_ctx_selective() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(1, 0, 2, 5));
        w.issue(inflight(0, 1, 3, 6));
        let squashed = w.squash_ctx(0);
        assert_eq!(squashed.len(), 2);
        assert_eq!(w.len(), 1);
        assert_eq!(w.count_ctx(1), 1);
    }

    #[test]
    fn squash_all_empties() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(1, 0, 2, 5));
        assert_eq!(w.squash_all().len(), 2);
        assert!(w.is_empty());
    }

    #[test]
    fn squash_stats_count_events_and_instrs() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(inflight(0, 1, 2, 5));
        w.squash_ctx(0);
        w.squash_ctx(0); // empty squash: no event counted
        assert_eq!(w.stats().squash_events.get(), 1);
        assert_eq!(w.stats().squashed_instrs.get(), 2);

        let mut reg = Registry::new();
        w.collect_metrics(&mut reg);
        assert_eq!(reg.counter_value("pipeline.window.squashed_instrs"), Some(2));

        w.reset_stats();
        assert_eq!(w.stats().squash_events.get(), 0);
    }

    #[test]
    fn into_variants_clear_reused_buffers() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 1, 4));
        w.issue(fp(1, 1, 2, 9));
        assert_eq!(w.pop_due(4).map(|i| i.fetch_index), Some(0));
        assert_eq!(w.pop_due(4), None);
        let mut buf = vec![inflight(9, 9, 9, 9)];
        w.squash_all_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].ctx, 1);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic]
    fn issue_order_enforced() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 5, 8));
        w.issue(inflight(0, 1, 4, 7));
    }

    #[test]
    #[should_panic(expected = "pipe retire order")]
    fn pipe_retire_order_enforced() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 5, 9));
        w.issue(inflight(0, 1, 6, 8));
    }

    #[test]
    #[should_panic]
    fn retire_before_issue_rejected() {
        let mut w = IssueWindow::new();
        w.issue(inflight(0, 0, 5, 4));
    }
}
