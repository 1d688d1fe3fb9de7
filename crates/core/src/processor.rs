use interleave_isa::{Access, Instr, Op};
use interleave_obs::chrome::ChromeTrace;
use interleave_obs::profile;
use interleave_obs::validate::Violation;
use interleave_obs::{Counter, Histogram, Registry};
use interleave_pipeline::{
    Btb, BubbleCause, FrontEnd, FrontSlot, InFlight, IssueWindow, Scoreboard, Slot,
    FP_ISSUE_TO_RETIRE, INT_ISSUE_TO_RETIRE,
};
use interleave_stats::{Breakdown, Category};

use crate::context::{rr_order, set_bits, ContextTable, CtxState};
use crate::events::{Event, EventQueue};
use crate::{
    CtxView, DataOutcome, FetchUnit, InstOutcome, InstrSource, ProcConfig, Scheme, StorePolicy,
    SyncOutcome, SystemPort, WaitReason,
};

/// Context-switch event counters, by the cause that made the context
/// unavailable (paper Section 5: data misses, failed synchronization,
/// and explicit backoff/switch instructions).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SwitchStats {
    /// Switches triggered by a detected data-cache miss.
    pub data: Counter,
    /// Switches triggered by a failed synchronization attempt.
    pub sync: Counter,
    /// Switches triggered by an explicit backoff / switch-hint
    /// instruction.
    pub backoff: Counter,
}

/// What happened in the issue slot of one cycle (optional trace for the
/// Figure 2/3 illustrations and the Chrome-trace export).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueRecord {
    /// Context `ctx` issued an instruction of class `op`; the cycle was
    /// charged to `category` (busy for useful work, switch for
    /// latency-tolerance ops and issue slots later squashed).
    Issued {
        /// Issuing context.
        ctx: usize,
        /// Operation class.
        op: Op,
        /// Category the issue slot is charged to. Normally
        /// [`Category::Busy`]; [`Category::Switch`] for
        /// backoff/switch-hint ops, and re-attributed to switch in place
        /// when the slot is squashed (keeping the trace in agreement
        /// with the [`Breakdown`]'s busy→switch transfer).
        category: Category,
    },
    /// The RF occupant of context `ctx` stalled; cycle charged to
    /// `category`.
    Stalled {
        /// Stalling context.
        ctx: usize,
        /// Category charged.
        category: Category,
    },
    /// A bubble reached the issue point; cycle charged to `category`
    /// (`None` for drained cycles, which are not charged).
    Bubble(Option<Category>),
}

/// Stable snake-case metric-name suffix for a breakdown category
/// (`Category::label` uses display punctuation unsuitable for metric
/// names).
fn metric_name(category: Category) -> &'static str {
    match category {
        Category::Busy => "busy",
        Category::InstrShort => "instr_short",
        Category::InstrLong => "instr_long",
        Category::InstMem => "inst_mem",
        Category::DataMem => "data_mem",
        Category::Sync => "sync",
        Category::Switch => "switch",
    }
}

/// Coarse Chrome-trace category (`cat` field) for viewer filtering.
fn span_class(category: Category) -> &'static str {
    match category {
        Category::Busy => "issue",
        Category::Switch => "switch",
        _ => "stall",
    }
}

/// Breakdown category a bubble reaching the issue point is charged to
/// (`None` for drained cycles, which are uncharged).
fn bubble_category(cause: BubbleCause) -> Option<Category> {
    match cause {
        BubbleCause::Switch => Some(Category::Switch),
        BubbleCause::Mispredict => Some(Category::InstrShort),
        BubbleCause::InstMem => Some(Category::InstMem),
        BubbleCause::DataWait => Some(Category::DataMem),
        BubbleCause::SyncWait => Some(Category::Sync),
        BubbleCause::BackoffWait => Some(Category::InstrLong),
        BubbleCause::Drained => None,
    }
}

/// How long the processor will stay idle (see [`Processor::idle_bound`]);
/// defined by the shared engine substrate so the multiprocessor driver can
/// fold per-processor bounds into machine-wide quiescence.
pub use interleave_engine::IdleBound;

/// A multiple-context processor attached to a memory system.
///
/// Composes the `interleave-pipeline` building blocks (front end, issue
/// window, scoreboard, BTB) with per-context fetch units and the
/// scheduling scheme. Drive it with [`Processor::tick`] /
/// [`Processor::run_cycles`] / [`Processor::run_until_done`]; read results
/// from [`Processor::breakdown`] and [`Processor::retired`].
///
/// See the crate-level documentation for an end-to-end example.
pub struct Processor<P: SystemPort> {
    cfg: ProcConfig,
    port: P,
    front: FrontEnd,
    window: IssueWindow,
    scoreboard: Scoreboard,
    btb: Btb,
    units: Vec<Option<FetchUnit>>,
    /// Per-context scheduling state in struct-of-arrays layout, with
    /// readiness masks kept current by its setters: context select, the
    /// idle bound and bubble attribution visit only the contexts whose
    /// mask bit is set.
    ctx: ContextTable,
    events: EventQueue,
    now: u64,
    /// Lower bound on every timed context wait's resume cycle
    /// (`u64::MAX` when none is pending).
    next_wake: u64,
    /// Round-robin fetch pointer (interleaved scheme).
    rr: usize,
    /// Running context (blocked / single schemes).
    current: Option<usize>,
    /// Fetch blocked on the (blocking) instruction cache until this cycle.
    fetch_stall_until: u64,
    /// Category the current RF occupant's stall was classified as.
    rf_stall_class: Option<Category>,
    /// Cached scoreboard verdict for the current RF occupant: the cycle
    /// its register and functional-unit constraints clear (see
    /// [`Processor::cached_rf_verdict`]).
    rf_verdict: Option<u64>,
    breakdown: Breakdown,
    drained_cycles: u64,
    /// Cycle the breakdown last restarted at ([`Processor::reset_breakdown`]);
    /// the validation pass checks `breakdown + drained == now - accounted_since`.
    accounted_since: u64,
    trace: Option<Vec<IssueRecord>>,
    /// Cycle at which the current trace buffer started (for mapping an
    /// in-flight instruction's issue cycle back to its trace record).
    trace_start: u64,
    run_lengths: Histogram,
    /// Instructions issued per context since it last became unavailable.
    current_run: Vec<u64>,
    switches: SwitchStats,
    /// Attached units whose `done` flag is latched (stream exhausted,
    /// everything retired); completion is `done_units == attached_units`.
    done_units: usize,
    attached_units: usize,
    /// Reusable buffers for the squash paths, so the hot loop allocates
    /// nothing in steady state.
    squash_scratch: Vec<InFlight>,
    mins_scratch: Vec<(usize, u64)>,
}

impl<P: SystemPort> Processor<P> {
    /// Creates a processor over `port` with no streams attached.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ProcConfig::validate`].
    pub fn new(cfg: ProcConfig, port: P) -> Processor<P> {
        cfg.validate();
        Processor {
            front: FrontEnd::new(),
            window: IssueWindow::new(),
            scoreboard: Scoreboard::new(cfg.contexts),
            btb: Btb::new(cfg.btb_entries),
            units: (0..cfg.contexts).map(|_| None).collect(),
            ctx: ContextTable::new(cfg.contexts),
            events: EventQueue::new(),
            now: 0,
            next_wake: u64::MAX,
            rr: 0,
            current: None,
            fetch_stall_until: 0,
            rf_stall_class: None,
            rf_verdict: None,
            breakdown: Breakdown::new(),
            drained_cycles: 0,
            accounted_since: 0,
            trace: None,
            trace_start: 0,
            run_lengths: Histogram::new(),
            current_run: vec![0; cfg.contexts],
            switches: SwitchStats::default(),
            done_units: 0,
            attached_units: 0,
            squash_scratch: Vec::new(),
            mins_scratch: Vec::new(),
            cfg,
            port,
        }
    }

    /// Attaches an instruction stream to context `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range or already has a stream attached.
    pub fn attach(&mut self, ctx: usize, source: Box<dyn InstrSource>) {
        assert!(self.units[ctx].is_none(), "context {ctx} already attached");
        let unit = FetchUnit::new(source);
        let done = unit.is_done();
        self.units[ctx] = Some(unit);
        self.ctx.attach(ctx);
        self.attached_units += 1;
        self.ctx.done[ctx] = done;
        if done {
            self.done_units += 1;
        }
    }

    /// Replaces the fetch unit of `ctx` (the OS scheduler swapping resident
    /// applications), squashing any of its in-flight work and returning the
    /// outgoing unit so its application can be resumed later.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` has no unit attached.
    pub fn swap_unit(&mut self, ctx: usize, incoming: FetchUnit) -> FetchUnit {
        assert!(self.units[ctx].is_some(), "context {ctx} has no unit to swap");
        self.squash_context(ctx);
        if self.ctx.done[ctx] {
            self.ctx.done[ctx] = false;
            self.done_units -= 1;
        }
        let mut outgoing = self.units[ctx].replace(incoming).expect("checked above");
        // Re-fetch everything unretired when this unit runs again.
        outgoing.rollback_to_base();
        self.ctx.set_state(ctx, CtxState::Ready);
        self.ctx.retired[ctx] = 0;
        if self.units[ctx].as_ref().expect("just replaced").is_done() {
            self.ctx.done[ctx] = true;
            self.done_units += 1;
        }
        outgoing
    }

    /// Enables or disables the per-cycle issue trace.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace = if enabled { Some(Vec::new()) } else { None };
        self.trace_start = self.now;
    }

    /// The issue trace collected so far (empty when tracing is disabled).
    pub fn trace(&self) -> &[IssueRecord] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The processor configuration.
    pub fn config(&self) -> &ProcConfig {
        &self.cfg
    }

    /// Execution-time breakdown accumulated so far.
    pub fn breakdown(&self) -> &Breakdown {
        &self.breakdown
    }

    /// Cycles in which nothing remained to execute (excluded from the
    /// breakdown).
    pub fn drained_cycles(&self) -> u64 {
        self.drained_cycles
    }

    /// Run-length histogram: instructions a context issues between
    /// successive unavailability events (paper Section 5.1 — run lengths
    /// govern how a strict round-robin shares the machine among
    /// applications).
    ///
    /// Issue slots later squashed by the unavailability event are
    /// counted in the run they issued in *and* again when re-executed,
    /// so means run a cycle or two above the pure useful-instruction
    /// spacing.
    pub fn run_lengths(&self) -> &Histogram {
        &self.run_lengths
    }

    /// Instructions retired by context `ctx`.
    pub fn retired(&self, ctx: usize) -> u64 {
        self.ctx.retired[ctx]
    }

    /// Resets `ctx`'s retired-instruction counter (per-slice accounting).
    pub fn reset_retired(&mut self, ctx: usize) {
        self.ctx.retired[ctx] = 0;
    }

    /// Clears the accumulated breakdown, drained-cycle count, and trace
    /// (used to discard warmup before measurement).
    pub fn reset_breakdown(&mut self) {
        self.breakdown = Breakdown::new();
        self.drained_cycles = 0;
        self.accounted_since = self.now;
        if let Some(trace) = self.trace.as_mut() {
            trace.clear();
        }
        self.trace_start = self.now;
    }

    /// Registers the processor's metrics: the run-length histogram and
    /// switch counters under `core.*`, the cycle breakdown under
    /// `cycles.*`, retired instructions, and the pipeline structures'
    /// counters (`pipeline.*`).
    pub fn collect_metrics(&self, reg: &mut Registry) {
        reg.histogram("core.run_length", &self.run_lengths);
        reg.counter("core.switches.data", self.switches.data.get());
        reg.counter("core.switches.sync", self.switches.sync.get());
        reg.counter("core.switches.backoff", self.switches.backoff.get());
        for category in Category::ALL {
            reg.counter(&format!("cycles.{}", metric_name(category)), self.breakdown.get(category));
        }
        reg.counter("cycles.drained", self.drained_cycles);
        reg.counter("instructions.retired", self.ctx.retired.iter().sum());
        self.btb.collect_metrics(reg);
        self.window.collect_metrics(reg);
        self.front.collect_metrics(reg);
    }

    /// Exports the collected issue trace as a Chrome trace-event
    /// document: one track per hardware context carrying its issue and
    /// stall spans (issue slots later squashed appear as `switch`
    /// spans), plus a `machine` track for bubbles that reached the issue
    /// point unattributed to any context. One trace microsecond equals
    /// one simulated cycle, and drained (uncharged) cycles leave gaps,
    /// so per-category span totals reconcile exactly with
    /// [`Processor::breakdown`] over the traced interval.
    ///
    /// Returns an empty trace when tracing is disabled.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut t = ChromeTrace::new();
        if self.trace().is_empty() {
            return t;
        }
        t.process_name(0, "interleave-sim");
        for c in 0..self.cfg.contexts {
            t.thread_name(0, c as u64, &format!("ctx{c}"));
        }
        let machine = self.cfg.contexts as u64;
        t.thread_name(0, machine, "machine");

        // Merge consecutive identical (track, category) cycles into one
        // span; drained cycles close any open span and emit nothing.
        let mut open: Option<(u64, Category, u64, u64)> = None; // tid, cat, start, len
        for (i, rec) in self.trace().iter().enumerate() {
            let cur = match *rec {
                IssueRecord::Issued { ctx, category, .. } => Some((ctx as u64, category)),
                IssueRecord::Stalled { ctx, category } => Some((ctx as u64, category)),
                IssueRecord::Bubble(Some(category)) => Some((machine, category)),
                IssueRecord::Bubble(None) => None,
            };
            match (open, cur) {
                (Some((tid, cat, start, len)), Some((tid2, cat2)))
                    if tid == tid2 && cat == cat2 =>
                {
                    open = Some((tid, cat, start, len + 1));
                }
                (prev, cur) => {
                    if let Some((tid, cat, start, len)) = prev {
                        t.span(0, tid, start, len, cat.label(), span_class(cat));
                    }
                    open = cur.map(|(tid, cat)| (tid, cat, i as u64, 1));
                }
            }
        }
        if let Some((tid, cat, start, len)) = open {
            t.span(0, tid, start, len, cat.label(), span_class(cat));
        }
        t
    }

    /// Snapshot of a context's scheduling state.
    pub fn ctx_view(&self, ctx: usize) -> CtxView {
        self.ctx.view(ctx)
    }

    /// Immutable access to the memory system.
    pub fn port(&self) -> &P {
        &self.port
    }

    /// Mutable access to the memory system (OS interference, statistics).
    pub fn port_mut(&mut self) -> &mut P {
        &mut self.port
    }

    /// Wakes a context waiting on synchronization.
    ///
    /// # Panics
    ///
    /// Panics if the context is not sync-waiting.
    pub fn wake_context(&mut self, ctx: usize) {
        match self.ctx.state(ctx) {
            CtxState::Waiting { reason: WaitReason::Sync, .. } => {
                self.ctx.set_state(ctx, CtxState::Ready);
            }
            other => panic!("context {ctx} not sync-waiting (state {other:?})"),
        }
    }

    /// Whether every attached stream is exhausted and the pipeline drained.
    ///
    /// O(1): stream completion is latched per context at retire time, so
    /// the run loops do not rescan every fetch unit each cycle.
    pub fn is_done(&self) -> bool {
        self.done_units == self.attached_units
            && self.window.is_empty()
            && self.front.occupancy() == 0
    }

    /// Runs `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        let _run = profile::enter("core.run");
        let end = self.now.saturating_add(n);
        while self.now < end {
            if !self.fast_forward(end) {
                self.tick();
            }
        }
    }

    /// Runs until every stream completes or `max_cycles` elapse; returns
    /// the cycles executed.
    pub fn run_until_done(&mut self, max_cycles: u64) -> u64 {
        let _run = profile::enter("core.run");
        let start = self.now;
        let end = start.saturating_add(max_cycles);
        while !self.is_done() && self.now < end {
            if !self.fast_forward(end) {
                self.tick();
            }
        }
        self.now - start
    }

    /// Checks the no-lost-work invariant: a ready context whose stream is
    /// exhausted at the cursor must either be done or still have work in
    /// the pipe (debug aid).
    pub fn check_lost_work(&self) -> Option<usize> {
        for c in set_bits(self.ctx.ready_mask()) {
            let in_pipe = self.window.count_ctx(c) + self.front.count_ctx(c);
            let unit = self.unit(c);
            if !unit.has_next() && unit.outstanding() > 0 && in_pipe == 0 {
                return Some(c);
            }
        }
        None
    }

    /// Checks the processor's structural invariants at the current cycle
    /// (see DESIGN.md "Validation"): cycle accounting (breakdown
    /// categories plus drained cycles sum exactly to the cycles elapsed
    /// since the last [`Processor::reset_breakdown`]), per-context done
    /// latches agreeing with fetch-unit exhaustion, readiness masks
    /// agreeing with the context columns, no lost in-flight work, no
    /// overdue events, plus the scoreboard's and the memory
    /// port's own standing invariants.
    ///
    /// Runs automatically after every [`Processor::tick`] and
    /// [`Processor::skip_idle_to`] when `ProcConfig.validate` is set
    /// (panicking with the [`Violation`] report); callable directly from
    /// tests and drivers either way. O(contexts) per call: the readiness
    /// masks are recomputed from the context columns. (The scoreboard's
    /// pending summary is O(registers) to recompute, so it is checked
    /// where it is used, before each `clear_context`.)
    pub fn check_invariants(&self) -> Result<(), Violation> {
        let now = self.now;
        let accounted = self.breakdown.total() + self.drained_cycles;
        let elapsed = now - self.accounted_since;
        if accounted != elapsed {
            return Err(Violation::new(
                "core.breakdown",
                "cycle categories do not sum to elapsed cycles",
                now,
                format!(
                    "breakdown {} + drained {} != {elapsed} elapsed since cycle {}",
                    self.breakdown.total(),
                    self.drained_cycles,
                    self.accounted_since
                ),
            ));
        }
        let mut latched = 0;
        for c in 0..self.cfg.contexts {
            if !self.ctx.attached(c) {
                continue;
            }
            if self.ctx.done[c] {
                latched += 1;
                if !self.unit(c).is_done() {
                    return Err(Violation::new(
                        "core.done_latch",
                        "done latch set but the fetch unit still has work",
                        now,
                        format!("outstanding {}", self.unit(c).outstanding()),
                    )
                    .with_context(c));
                }
            }
        }
        if latched != self.done_units {
            return Err(Violation::new(
                "core.done_latch",
                "done-unit count disagrees with per-context latches",
                now,
                format!("count {} but {latched} latched", self.done_units),
            ));
        }
        if let Some((mask, stored, fresh)) = self.ctx.mask_mismatch() {
            return Err(Violation::new(
                "core.context_masks",
                "readiness mask disagrees with the context columns",
                now,
                format!("{mask} mask {stored:#x}, columns give {fresh:#x}"),
            ));
        }
        if let Some(c) = self.check_lost_work() {
            return Err(Violation::new(
                "core.fetch",
                "ready context lost its in-flight work",
                now,
                "stream exhausted at cursor with outstanding work and an empty pipe".into(),
            )
            .with_context(c));
        }
        if let Some(due) = self.events.next_due() {
            if due < now {
                return Err(Violation::new(
                    "core.events",
                    "event left overdue in the queue",
                    now,
                    format!("next event due at cycle {due}"),
                ));
            }
        }
        self.scoreboard.check_invariants(now)?;
        self.port.check_invariants(now)
    }

    /// Panics with the [`Violation`] report if a structural invariant is
    /// broken (the enforcement arm of [`Processor::check_invariants`]).
    #[cold]
    fn validation_failed(v: Violation) -> ! {
        panic!("{v}");
    }

    fn assert_valid(&self) {
        if let Err(v) = self.check_invariants() {
            Self::validation_failed(v);
        }
    }

    /// Clears `ctx`'s scoreboard state (a squash) and, with validation
    /// on, checks that the clear removed exactly `ctx`'s slots.
    fn clear_scoreboard(&mut self, ctx: usize, now: u64) {
        self.scoreboard.clear_context(ctx, now);
        if self.cfg.validate {
            if let Err(v) = self.scoreboard.check_cleared(ctx, now) {
                Self::validation_failed(v);
            }
        }
    }

    /// How long the processor will stay idle, or `None` if it can make
    /// progress this cycle.
    ///
    /// Idle means: nothing in the issue window, nothing in the front end,
    /// and no attached context able to fetch — every context is waiting
    /// or has completed its stream, or instruction fetch itself is
    /// stalled on a miss (which blocks every context until it clears).
    /// Until the returned bound, a tick can only charge one bubble cycle,
    /// so [`Processor::skip_idle_to`] may fast-forward there with
    /// bit-identical results.
    pub fn idle_bound(&self) -> Option<IdleBound> {
        if self.busy() {
            return None;
        }
        // While an instruction fetch is stalled on the (blocking) i-cache,
        // fetch emits inst-mem bubbles no matter what the contexts could
        // do, so the processor idles until the stall clears at the latest.
        let stalled = self.fetch_stall_until > self.now;
        if !stalled {
            // Absent a fetch stall, a ready context idles only once its
            // stream is done (wrong-path or pending-backoff contexts still
            // fetch or hold fetch slots).
            if self.ctx.ready_mask() != self.ctx.avail_mask() {
                return None;
            }
            if set_bits(self.ctx.avail_mask()).any(|c| !self.ctx.done[c] || self.ctx.wrong_path[c])
            {
                return None;
            }
        }
        let mut bound = self.events.next_due();
        if stalled {
            bound = Some(bound.map_or(self.fetch_stall_until, |b| b.min(self.fetch_stall_until)));
        }
        for c in set_bits(self.ctx.waiting_mask()) {
            if let CtxState::Waiting { until: Some(t), .. } = self.ctx.state(c) {
                bound = Some(bound.map_or(t, |b| b.min(t)));
            }
        }
        Some(match bound {
            Some(t) => IdleBound::Until(t),
            None => IdleBound::External,
        })
    }

    /// Whether the issue window or the front end holds an instruction;
    /// a busy processor is never idle ([`Processor::idle_bound`]).
    #[inline]
    fn busy(&self) -> bool {
        !self.window.is_empty() || self.front.occupancy() != 0
    }

    /// With idle skipping enabled, fast-forwards over an idle
    /// ([`Processor::idle_bound`]) or frozen ([`Processor::stall_bound`])
    /// stretch of more than one cycle, never past `end`, and returns
    /// whether it did; otherwise the caller ticks.
    ///
    /// Called before every tick, so the busy case answers inline: when
    /// [`Processor::busy`] `idle_bound` is `None`, and with no stall
    /// class cached `stall_bound` is `None` too.
    #[inline]
    pub fn fast_forward(&mut self, end: u64) -> bool {
        if !self.cfg.idle_skip || (self.rf_stall_class.is_none() && self.busy()) {
            return false;
        }
        self.skip_to_bound(end)
    }

    /// The bound-reading half of [`Processor::fast_forward`].
    fn skip_to_bound(&mut self, end: u64) -> bool {
        let (target, idle) = match self.idle_bound() {
            Some(IdleBound::Until(t)) => (t.min(end), true),
            Some(IdleBound::External) => (end, true),
            None => (self.stall_bound().map_or(self.now, |t| t.min(end)), false),
        };
        if target <= self.now + 1 {
            return false;
        }
        if idle {
            self.skip_idle_to(target);
        } else {
            self.skip_stall_to(target);
        }
        true
    }

    /// How long the processor stays frozen behind a stalled RF
    /// occupant: `Some(t)` means every tick before cycle `t` would only
    /// charge the occupant's stall class, so
    /// [`Processor::fast_forward`] may jump there with bit-identical
    /// results.
    ///
    /// Frozen means the RF occupant has stalled at least once, so its
    /// scoreboard verdict and stall class are both cached, and the
    /// verdict has not cleared: nothing issues and the front end cannot
    /// shift. The stretch ends one cycle before the verdict (that tick
    /// issues), or at the first cycle an event is due, a timed context
    /// wait ends, or a window instruction retires. `None` when not
    /// frozen, and always while the trace or validation is on (both
    /// observe every tick).
    pub fn stall_bound(&self) -> Option<u64> {
        if self.trace.is_some() || self.cfg.validate || self.rf_stall_class.is_none() {
            return None;
        }
        let verdict = self.rf_verdict?;
        if verdict <= self.now + 1 {
            return None;
        }
        let due = self.events.next_due().unwrap_or(u64::MAX);
        Some((verdict - 1).min(due).min(self.next_wake).min(self.window.next_retire()))
    }

    /// Fast-forwards a frozen processor to `target`, charging every
    /// skipped cycle to the RF occupant's stall class exactly as ticking
    /// them one by one would. Debug-asserts that `target` does not cross
    /// the bound reported by [`Processor::stall_bound`].
    fn skip_stall_to(&mut self, target: u64) {
        debug_assert!(
            self.stall_bound().is_some_and(|t| target <= t),
            "skip_stall_to past the stall bound"
        );
        let class = self.rf_stall_class.expect("a frozen RF occupant has a stall class");
        self.breakdown.record(class, target - self.now);
        self.now = target;
    }

    /// Fast-forwards an idle processor to `target`, charging the skipped
    /// cycles exactly as ticking them one by one would: same breakdown
    /// categories, same drained-cycle count, same front-end bubble
    /// counters, same trace.
    ///
    /// The bulk path applies only while the trace is off and the front
    /// end is uniformly filled with the bubble cause that would be
    /// fetched anyway (so shifting is the identity); otherwise it falls
    /// back to plain ticks, which the idle precondition makes cheap.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `target` does not cross the bound reported by
    /// [`Processor::idle_bound`] — skipping past an event due cycle or a
    /// context wake would change results.
    pub fn skip_idle_to(&mut self, target: u64) {
        if target <= self.now {
            return;
        }
        let _skip = profile::enter("core.idle_skip");
        debug_assert!(
            match self.idle_bound() {
                Some(IdleBound::Until(t)) => target <= t,
                Some(IdleBound::External) => true,
                None => false,
            },
            "skip_idle_to past the idle bound"
        );
        while self.now < target {
            let now = self.now;
            let stalled = self.fetch_stall_until > now;
            let incoming = if stalled { BubbleCause::InstMem } else { self.no_context_cause() };
            if self.trace.is_none() && self.front.uniform_bubble() == Some(incoming) {
                // The fetch cause holds until `until`; charge those cycles
                // in one step.
                let until = if stalled { target.min(self.fetch_stall_until) } else { target };
                let n = until - now;
                match bubble_category(incoming) {
                    Some(c) => self.breakdown.record(c, n),
                    None => self.drained_cycles += n,
                }
                self.front.record_bubbles(incoming, n);
                self.now = until;
            } else {
                // Mixed bubbles still in the pipe (or tracing): replay the
                // exact per-cycle path.
                self.tick();
            }
        }
        if self.cfg.validate {
            self.assert_valid();
        }
    }

    /// Advances the processor one cycle.
    pub fn tick(&mut self) {
        profile::mark("core.tick");
        let now = self.now;
        self.process_events(now);
        self.wake_contexts(now);

        let record = self.issue_stage(now);
        if let Some(trace) = self.trace.as_mut() {
            trace.push(record);
        }

        while let Some(r) = self.window.pop_due(now) {
            let unit = self.units[r.ctx].as_mut().expect("retiring context has a unit");
            unit.retire(r.fetch_index);
            self.ctx.retired[r.ctx] += 1;
            // Retirement is the only place a unit can become done (eager
            // normalization discovers stream exhaustion here).
            if !self.ctx.done[r.ctx] && unit.is_done() {
                self.ctx.done[r.ctx] = true;
                self.done_units += 1;
            }
        }

        self.now += 1;
        if self.cfg.validate {
            self.assert_valid();
        }
    }

    // ----- cycle phases -------------------------------------------------

    fn process_events(&mut self, now: u64) {
        // The queue pops due events misses-first (they bump epochs that
        // invalidate same-cycle branch resolves), then scheduling order.
        // Handlers never schedule same-cycle events, so draining as we
        // pop matches draining up front.
        while let Some(e) = self.events.pop_due(now) {
            // A handler may squash the RF occupant or shorten a
            // functional-unit reservation it waits on.
            self.rf_verdict = None;
            match e {
                Event::MissDetect { ctx, epoch, fetch_index, ready_at, addr, .. } => {
                    self.on_miss_detect(now, ctx, epoch, fetch_index, ready_at, addr);
                }
                Event::BranchResolve { ctx, epoch, pc, taken, target, .. } => {
                    if self.ctx.epoch[ctx] == epoch {
                        self.btb.update(pc, taken, target);
                        self.front.squash_wrong_path(ctx);
                        self.ctx.wrong_path[ctx] = false;
                    }
                }
            }
        }
    }

    fn on_miss_detect(
        &mut self,
        now: u64,
        ctx: usize,
        epoch: u64,
        fetch_index: u64,
        ready_at: u64,
        addr: u64,
    ) {
        if self.ctx.epoch[ctx] != epoch {
            return; // squashed in the meantime; the re-executed access re-reports
        }
        self.switches.data.inc();
        self.end_run(ctx);
        // The fill is delivered to this context by the MSHR; its
        // re-executed access completes without re-probing the cache.
        let bounds = &mut self.ctx.bound_fills[ctx];
        if !bounds.contains((fetch_index, addr)) {
            bounds.push_evicting((fetch_index, addr));
        }
        match self.cfg.scheme {
            Scheme::Single => unreachable!("single scheme schedules no miss events"),
            Scheme::Interleaved | Scheme::FineGrained => {
                let mut squashed = std::mem::take(&mut self.squash_scratch);
                self.window.squash_ctx_into(ctx, &mut squashed);
                let min_index = squashed
                    .iter()
                    .map(|i| i.fetch_index)
                    .chain(std::iter::once(fetch_index))
                    .min()
                    .expect("nonempty");
                self.transfer_squashed(&squashed);
                self.squash_scratch = squashed;
                self.front.squash_ctx(ctx);
                self.clear_scoreboard(ctx, now);
                // Front slots of this context are younger than everything
                // in the window, so the window minimum covers them.
                self.unit_mut(ctx).rollback(min_index);
                self.wait_until(ctx, WaitReason::Data, ready_at);
                self.ctx.epoch[ctx] += 1;
                self.ctx.wrong_path[ctx] = false;
                self.ctx.set_pending_backoff(ctx, false);
            }
            Scheme::Blocked => {
                // Full pipeline flush: every context's in-flight work dies,
                // including fetched-but-unissued instructions of contexts
                // with nothing in the window — those must be rolled back
                // too, or their instructions would be lost.
                let mut squashed = std::mem::take(&mut self.squash_scratch);
                self.window.squash_all_into(&mut squashed);
                self.transfer_squashed(&squashed);
                let front_squashed = self.front.squash_all();
                let mut mins = std::mem::take(&mut self.mins_scratch);
                mins.clear();
                let indices = squashed.iter().map(|s| (s.ctx, s.fetch_index)).chain(
                    front_squashed.iter().filter(|s| !s.wrong_path).map(|s| (s.ctx, s.fetch_index)),
                );
                for (c, idx) in indices {
                    match mins.iter_mut().find(|(mc, _)| *mc == c) {
                        Some((_, m)) => *m = (*m).min(idx),
                        None => mins.push((c, idx)),
                    }
                }
                self.squash_scratch = squashed;
                match mins.iter_mut().find(|(c, _)| *c == ctx) {
                    Some((_, m)) => *m = (*m).min(fetch_index),
                    None => mins.push((ctx, fetch_index)),
                }
                for &(c, min_index) in &mins {
                    self.clear_scoreboard(c, now);
                    self.unit_mut(c).rollback(min_index);
                    self.ctx.epoch[c] += 1;
                    self.ctx.wrong_path[c] = false;
                    self.ctx.set_pending_backoff(c, false);
                }
                self.mins_scratch = mins;
                self.wait_until(ctx, WaitReason::Data, ready_at);
                self.pick_next_current(ctx);
            }
        }
    }

    /// Makes `ctx` unavailable until cycle `until`.
    fn wait_until(&mut self, ctx: usize, reason: WaitReason, until: u64) {
        self.ctx.set_state(ctx, CtxState::Waiting { reason, until: Some(until) });
        self.next_wake = self.next_wake.min(until);
    }

    /// Readies every context whose timed wait ends by `now`. Returns at
    /// once before `next_wake`; a walk over the waiting contexts
    /// re-derives the bound from the waits still pending.
    fn wake_contexts(&mut self, now: u64) {
        if now < self.next_wake {
            return;
        }
        let mut next = u64::MAX;
        for c in set_bits(self.ctx.waiting_mask()) {
            if let CtxState::Waiting { until: Some(t), .. } = self.ctx.state(c) {
                if t <= now {
                    self.ctx.set_state(c, CtxState::Ready);
                } else {
                    next = next.min(t);
                }
            }
        }
        self.next_wake = next;
    }

    /// The issue stage: examine RF, charge the cycle, maybe issue, and
    /// advance the front end.
    fn issue_stage(&mut self, now: u64) -> IssueRecord {
        let rf = *self.front.rf();
        match rf {
            FrontSlot::Bubble(cause) => {
                let category = self.charge_bubble(cause);
                self.advance_front(now);
                IssueRecord::Bubble(category)
            }
            FrontSlot::Instr(slot) if slot.wrong_path => {
                // Should be squashed before reaching issue; if timing
                // conspires, treat as a mispredict bubble.
                self.breakdown.record(Category::InstrShort, 1);
                self.advance_front(now);
                IssueRecord::Bubble(Some(Category::InstrShort))
            }
            FrontSlot::Instr(slot) => {
                // The one read of the instruction at issue: an un-issued
                // slot's instruction stays buffered in its fetch unit.
                let instr = *self.unit(slot.ctx).at(slot.fetch_index);
                self.issue_instr(now, slot, &instr)
            }
        }
    }

    fn issue_instr(&mut self, now: u64, slot: Slot, instr: &Instr) -> IssueRecord {
        let ex = now + 1;
        let earliest = self.cached_rf_verdict(slot.ctx, instr, ex).max(ex);
        if earliest > ex {
            let category = match self.rf_stall_class {
                Some(c) => c,
                None => {
                    let c = if self.scoreboard.blocked_on_memory(slot.ctx, instr, now) {
                        Category::DataMem
                    } else if earliest - ex <= 4 {
                        Category::InstrShort
                    } else {
                        Category::InstrLong
                    };
                    self.rf_stall_class = Some(c);
                    c
                }
            };
            self.breakdown.record(category, 1);
            return IssueRecord::Stalled { ctx: slot.ctx, category };
        }

        // Synchronization check happens at issue (the port decides).
        if let Some(sync) = instr.sync {
            if self.port.sync(now, slot.ctx, sync) == SyncOutcome::Wait {
                return self.handle_sync_wait(now, slot);
            }
        }

        // Scheme-dependent latency-tolerance instructions.
        let tolerance = matches!(instr.op, Op::Backoff | Op::SwitchHint);
        if tolerance {
            match self.cfg.scheme {
                Scheme::Single => { /* retires as a no-op */ }
                Scheme::Interleaved | Scheme::FineGrained if instr.op == Op::Backoff => {
                    return self.handle_backoff(now, slot, instr);
                }
                Scheme::Interleaved | Scheme::FineGrained => { /* explicit switch: no-op */ }
                Scheme::Blocked => return self.handle_explicit_switch(now, slot, instr),
            }
        }

        // Plain issue.
        self.current_run[slot.ctx] += 1;
        if self.cfg.validate {
            if let Err(v) = self.scoreboard.check_issue(slot.ctx, instr, &self.cfg.timing, ex) {
                Self::validation_failed(v);
            }
        }
        self.scoreboard.issue(slot.ctx, instr, &self.cfg.timing, ex);
        let retires_at =
            ex + if instr.op.is_fp() { FP_ISSUE_TO_RETIRE } else { INT_ISSUE_TO_RETIRE };
        self.window.issue(InFlight {
            ctx: slot.ctx,
            fetch_index: slot.fetch_index,
            op: instr.op,
            issued_at: ex,
            retires_at,
        });
        self.breakdown.record(Category::Busy, 1);

        if let Some(mem) = instr.mem {
            self.issue_mem(now, &slot, instr, mem.addr, mem.kind);
        }
        if let Some(branch) = instr.branch {
            if slot.mispredicted {
                // The condition is evaluated in EX; the squash signal kills
                // wrong-path fetches at the start of the EX cycle, leaving
                // the three-cycle penalty of Section 4.1.
                self.events.push(Event::BranchResolve {
                    due: ex,
                    ctx: slot.ctx,
                    epoch: self.ctx.epoch[slot.ctx],
                    pc: instr.pc,
                    taken: branch.taken,
                    target: branch.target,
                });
            }
        }

        self.advance_front(now);
        IssueRecord::Issued { ctx: slot.ctx, op: instr.op, category: Category::Busy }
    }

    fn issue_mem(&mut self, now: u64, slot: &Slot, instr: &Instr, addr: u64, kind: Access) {
        let ex = now + 1;
        if instr.op == Op::Prefetch {
            // Non-binding: start the fill and forget; the access never
            // makes the context unavailable.
            let _ = self.port.data(ex + 1, addr, kind, slot.ctx);
            return;
        }
        // A re-executed access whose fill was bound by the MSHR completes
        // without re-probing the cache.
        if self.ctx.bound_fills[slot.ctx].take((slot.fetch_index, addr)) {
            return;
        }
        let lookup = ex + 1; // DF1
        match self.port.data(lookup, addr, kind, slot.ctx) {
            DataOutcome::Hit => {}
            DataOutcome::Stall { ready_at } => match self.cfg.scheme {
                Scheme::Single => {
                    // Stall-on-use: dependents wait for the bound fill.
                    if let Some(dst) = instr.dest() {
                        self.scoreboard.set_mem_pending(slot.ctx, dst, ready_at);
                    }
                }
                Scheme::Blocked | Scheme::Interleaved | Scheme::FineGrained => {
                    if kind == Access::Write && self.cfg.store_policy == StorePolicy::WriteBuffer {
                        // Release-consistent write buffering: the store
                        // retires; the fill proceeds in the background.
                        return;
                    }
                    // Miss determined in WB; the context becomes
                    // unavailable there and re-executes from this load.
                    if let Some(dst) = instr.dest() {
                        self.scoreboard.set_mem_pending(slot.ctx, dst, ready_at);
                    }
                    self.events.push(Event::MissDetect {
                        due: ex + INT_ISSUE_TO_RETIRE,
                        ctx: slot.ctx,
                        epoch: self.ctx.epoch[slot.ctx],
                        fetch_index: slot.fetch_index,
                        ready_at,
                        addr,
                    });
                }
            },
        }
    }

    fn handle_sync_wait(&mut self, now: u64, slot: Slot) -> IssueRecord {
        self.breakdown.record(Category::Sync, 1);
        match self.cfg.scheme {
            Scheme::Single => {
                // Spin at RF: retry the port every cycle until granted.
                IssueRecord::Stalled { ctx: slot.ctx, category: Category::Sync }
            }
            Scheme::Blocked | Scheme::Interleaved | Scheme::FineGrained => {
                let ctx = slot.ctx;
                self.switches.sync.inc();
                self.end_run(ctx);
                // The sync instruction has not issued; squash it (it sits
                // in RF) and everything younger, then sleep until woken.
                self.front.squash_ctx(ctx);
                self.unit_mut(ctx).rollback(slot.fetch_index);
                self.clear_scoreboard(ctx, now);
                self.ctx
                    .set_state(ctx, CtxState::Waiting { reason: WaitReason::Sync, until: None });
                self.ctx.epoch[ctx] += 1;
                self.ctx.wrong_path[ctx] = false;
                self.ctx.set_pending_backoff(ctx, false);
                if self.cfg.scheme == Scheme::Blocked {
                    self.pick_next_current(ctx);
                }
                self.advance_front(now);
                IssueRecord::Bubble(Some(Category::Sync))
            }
        }
    }

    /// Interleaved backoff: cost 1 (this issue slot), context unavailable
    /// for the encoded duration.
    fn handle_backoff(&mut self, now: u64, slot: Slot, instr: &Instr) -> IssueRecord {
        self.issue_tolerance_op(now, &slot, instr);
        IssueRecord::Issued { ctx: slot.ctx, op: Op::Backoff, category: Category::Switch }
    }

    /// Blocked explicit switch: cost 3 (this slot + the two suppressed
    /// fetch slots behind it), context unavailable for the encoded
    /// duration.
    fn handle_explicit_switch(&mut self, now: u64, slot: Slot, instr: &Instr) -> IssueRecord {
        let ctx = slot.ctx;
        self.issue_tolerance_op(now, &slot, instr);
        self.pick_next_current(ctx);
        IssueRecord::Issued { ctx, op: Op::SwitchHint, category: Category::Switch }
    }

    /// Ends a context's current run (it is becoming unavailable).
    fn end_run(&mut self, ctx: usize) {
        let length = std::mem::take(&mut self.current_run[ctx]);
        if length > 0 {
            self.run_lengths.record(length);
        }
    }

    /// Common backoff/explicit-switch issue path: the slot is switch
    /// overhead, the instruction stays in the pipe (so an older miss can
    /// still squash and re-execute it), and the context sleeps.
    fn issue_tolerance_op(&mut self, now: u64, slot: &Slot, instr: &Instr) {
        let ctx = slot.ctx;
        self.switches.backoff.inc();
        self.end_run(ctx);
        let ex = now + 1;
        self.breakdown.record(Category::Switch, 1);
        self.window.issue(InFlight {
            ctx,
            fetch_index: slot.fetch_index,
            op: instr.op,
            issued_at: ex,
            retires_at: ex + INT_ISSUE_TO_RETIRE,
        });
        self.front.squash_ctx(ctx);
        let duration = u64::from(instr.backoff.max(1));
        self.wait_until(ctx, WaitReason::Backoff, now + duration);
        self.ctx.wrong_path[ctx] = false;
        self.ctx.set_pending_backoff(ctx, false);
        self.advance_front(now);
    }

    fn charge_bubble(&mut self, cause: BubbleCause) -> Option<Category> {
        let category = bubble_category(cause);
        match category {
            Some(c) => self.breakdown.record(c, 1),
            None => self.drained_cycles += 1,
        }
        category
    }

    /// Move squashed instructions' issue slots from busy to switch
    /// overhead (the paper's context-switch cost accounting).
    fn transfer_squashed(&mut self, squashed: &[InFlight]) {
        for inflight in squashed {
            // Only slots that were charged busy at issue. Saturating: the
            // busy charge may have been cleared by a statistics reset
            // while the instruction was in flight.
            if !matches!(inflight.op, Op::Backoff | Op::SwitchHint) {
                let moved = self.breakdown.transfer_upto(Category::Busy, Category::Switch, 1);
                if moved == 1 {
                    self.reattribute_trace(inflight.issued_at);
                }
            }
        }
    }

    /// Re-marks the trace record of the issue slot at `issued_at` as
    /// switch overhead, keeping the trace cycle-for-cycle consistent
    /// with the breakdown's busy→switch transfer. The record was pushed
    /// the cycle before the instruction entered EX.
    fn reattribute_trace(&mut self, issued_at: u64) {
        let start = self.trace_start;
        if let Some(trace) = self.trace.as_mut() {
            if issued_at > start {
                if let Some(IssueRecord::Issued { category, .. }) =
                    trace.get_mut((issued_at - 1 - start) as usize)
                {
                    *category = Category::Switch;
                }
            }
        }
    }

    /// The cycle the RF occupant's register and functional-unit
    /// constraints clear, so it may enter EX at `max(verdict, ex)`.
    ///
    /// Computed once per occupant and cached: while the occupant stalls
    /// nothing issues, so the scoreboard changes only through an event
    /// handler's or a context squash's `clear_context`, and those (like
    /// [`Processor::advance_front`]) drop the cache. Under
    /// `ProcConfig.validate` every use is checked against a fresh
    /// [`Scoreboard::earliest_issue`].
    fn cached_rf_verdict(&mut self, ctx: usize, instr: &Instr, ex: u64) -> u64 {
        let verdict = *self
            .rf_verdict
            .get_or_insert_with(|| self.scoreboard.earliest_issue(ctx, instr, &self.cfg.timing, 0));
        if self.cfg.validate {
            let fresh = self.scoreboard.earliest_issue(ctx, instr, &self.cfg.timing, ex);
            if fresh != verdict.max(ex) {
                Self::validation_failed(
                    Violation::new(
                        "core.rf_verdict",
                        "cached scoreboard verdict is stale",
                        self.now,
                        format!("cached {verdict}, fresh {fresh} at EX cycle {ex}"),
                    )
                    .with_context(ctx),
                );
            }
        }
        verdict
    }

    /// Advances the front end, fetching into IF1. Clears the RF stall
    /// classification and scoreboard verdict because the RF occupant
    /// changes.
    fn advance_front(&mut self, now: u64) {
        self.rf_stall_class = None;
        self.rf_verdict = None;
        let incoming = self.fetch_slot(now);
        self.front.shift(incoming);
    }

    // ----- fetch --------------------------------------------------------

    fn fetch_slot(&mut self, now: u64) -> FrontSlot {
        if self.fetch_stall_until > now {
            return FrontSlot::Bubble(BubbleCause::InstMem);
        }
        // A blocked processor that has decoded an explicit switch stops
        // fetching until the switch issues (it may not run another context
        // yet) — the two bubbles of the three-cycle cost in Table 4.
        if self.cfg.scheme == Scheme::Blocked {
            if let Some(c) = self.current {
                if self.ctx.is_ready(c) && self.ctx.pending_backoff(c) {
                    return FrontSlot::Bubble(BubbleCause::Switch);
                }
            }
        }
        let Some(ctx) = self.select_context(now) else {
            return FrontSlot::Bubble(self.no_context_cause());
        };

        if self.ctx.wrong_path[ctx] {
            let index = self.unit(ctx).cursor();
            return FrontSlot::Instr(Slot {
                ctx,
                fetch_index: index,
                wrong_path: true,
                mispredicted: false,
            });
        }

        let unit = self.unit(ctx);
        let cursor = unit.cursor();
        let &Instr { pc, op, branch, .. } =
            unit.peek().expect("select_context verified the stream is non-empty");
        if self.ctx.bound_ifetch[ctx] == Some(cursor) {
            // The outstanding I-fill delivers this fetch directly.
            self.ctx.bound_ifetch[ctx] = None;
        } else {
            self.ctx.bound_ifetch[ctx] = None; // any older binding is stale
            match self.port.inst(now, pc) {
                InstOutcome::Hit => {}
                InstOutcome::Stall { ready_at } => {
                    self.fetch_stall_until = ready_at;
                    self.ctx.bound_ifetch[ctx] = Some(cursor);
                    return FrontSlot::Bubble(BubbleCause::InstMem);
                }
            }
        }

        let mut mispredicted = false;
        if let Some(branch) = branch {
            if !self.btb.check(pc, branch.taken, branch.target) {
                // The prediction is bound at fetch: the shared BTB may be
                // retrained by other contexts before this branch issues.
                self.ctx.wrong_path[ctx] = true;
                mispredicted = true;
            }
        }
        if matches!(op, Op::Backoff | Op::SwitchHint) && self.cfg.scheme != Scheme::Single {
            self.ctx.set_pending_backoff(ctx, true);
        }

        self.unit_mut(ctx).advance();
        FrontSlot::Instr(Slot { ctx, fetch_index: cursor, wrong_path: false, mispredicted })
    }

    /// Picks the context to fetch from this cycle.
    fn select_context(&mut self, _now: u64) -> Option<usize> {
        match self.cfg.scheme {
            Scheme::Interleaved | Scheme::FineGrained => self.next_fetchable(),
            Scheme::Blocked | Scheme::Single => {
                if let Some(c) = self.current {
                    if self.fetchable(c) {
                        return Some(c);
                    }
                }
                // Current missing or unavailable: adopt any ready context.
                let c = self.next_fetchable()?;
                self.current = Some(c);
                Some(c)
            }
        }
    }

    /// The first fetchable context in round-robin order from the fetch
    /// pointer, which moves just past it. Visits only the available
    /// contexts (attached, ready, no pending backoff).
    fn next_fetchable(&mut self) -> Option<usize> {
        let c = rr_order(self.ctx.avail_mask(), self.rr).find(|&c| self.can_fetch(c))?;
        self.rr = if c + 1 == self.cfg.contexts { 0 } else { c + 1 };
        Some(c)
    }

    fn fetchable(&self, ctx: usize) -> bool {
        self.ctx.avail_mask() & (1 << ctx) != 0 && self.can_fetch(ctx)
    }

    /// Whether an available context has something to fetch this cycle.
    #[inline]
    fn can_fetch(&self, ctx: usize) -> bool {
        // The fine-grained (HEP-like) pipeline has no interlocks: a
        // context may have only one instruction active at a time.
        if self.cfg.scheme == Scheme::FineGrained
            && self.window.count_ctx(ctx) + self.front.count_ctx(ctx) > 0
        {
            return false;
        }
        if self.ctx.wrong_path[ctx] {
            return true;
        }
        self.unit(ctx).has_next()
    }

    /// After `exclude` becomes unavailable, pick the blocked scheme's next
    /// running context in round-robin order.
    fn pick_next_current(&mut self, exclude: usize) {
        let start = if exclude + 1 == self.cfg.contexts { 0 } else { exclude + 1 };
        self.current = rr_order(self.ctx.ready_mask() & !(1 << exclude), start).next();
    }

    /// Attribution when no context can fetch: the reason of the context
    /// that resumes soonest (sync waits count as farthest).
    fn no_context_cause(&self) -> BubbleCause {
        let mut best: Option<(u64, WaitReason)> = None;
        for c in set_bits(self.ctx.waiting_mask()) {
            if let CtxState::Waiting { reason, until } = self.ctx.state(c) {
                let at = until.unwrap_or(u64::MAX);
                if best.is_none_or(|(b, _)| at < b) {
                    best = Some((at, reason));
                }
            }
        }
        match best {
            Some((_, WaitReason::Data)) => BubbleCause::DataWait,
            Some((_, WaitReason::Sync)) => BubbleCause::SyncWait,
            Some((_, WaitReason::Backoff)) => BubbleCause::BackoffWait,
            // No context is waiting: either a ready context has a decoded
            // backoff in flight (switch overhead) or the streams are
            // exhausted (drained, uncharged).
            None if self.ctx.ready_mask() != self.ctx.avail_mask() => BubbleCause::Switch,
            None => BubbleCause::Drained,
        }
    }

    #[inline]
    fn unit(&self, ctx: usize) -> &FetchUnit {
        self.units[ctx].as_ref().expect("context has a unit attached")
    }

    #[inline]
    fn unit_mut(&mut self, ctx: usize) -> &mut FetchUnit {
        self.units[ctx].as_mut().expect("context has a unit attached")
    }

    /// Squashes everything a context has in the machine (used by
    /// [`Processor::swap_unit`]).
    fn squash_context(&mut self, ctx: usize) {
        self.rf_verdict = None;
        let squashed = self.window.squash_ctx(ctx);
        self.transfer_squashed(&squashed);
        self.front.squash_ctx(ctx);
        self.clear_scoreboard(ctx, self.now);
        self.ctx.epoch[ctx] += 1;
        self.ctx.wrong_path[ctx] = false;
        self.ctx.set_pending_backoff(ctx, false);
        self.ctx.bound_fills[ctx].clear();
    }
}

impl<P: SystemPort + std::fmt::Debug> std::fmt::Debug for Processor<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("scheme", &self.cfg.scheme)
            .field("contexts", &self.cfg.contexts)
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PerfectMemory, VecSource};

    #[test]
    fn run_length_histogram_starts_empty() {
        let cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
        assert_eq!(cpu.run_lengths().mean(), 0.0);
        assert_eq!(cpu.run_lengths().count(), 0);
    }

    #[test]
    fn collect_metrics_reports_cycles_and_structures() {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
        cpu.attach(0, Box::new(VecSource::new((0..10).map(Instr::nop))));
        cpu.run_cycles(20);
        let mut reg = Registry::new();
        cpu.collect_metrics(&mut reg);
        assert_eq!(reg.counter_value("cycles.busy"), Some(cpu.breakdown().get(Category::Busy)));
        assert_eq!(reg.counter_value("instructions.retired"), Some(cpu.retired(0)));
        assert!(reg.get("core.run_length").is_some());
        assert!(reg.get("pipeline.btb.lookups").is_some());
        assert!(reg.get("pipeline.front.bubbles.switch").is_some());
    }

    #[test]
    fn chrome_trace_reconciles_with_breakdown() {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
        cpu.set_trace(true);
        cpu.attach(0, Box::new(VecSource::new((0..25).map(Instr::nop))));
        cpu.run_cycles(60);
        let json = cpu.chrome_trace().to_json();
        let summary = interleave_obs::chrome::validate(&json).expect("valid trace");
        for category in Category::ALL {
            let spans = summary.dur_by_name.get(category.label()).copied().unwrap_or(0);
            assert_eq!(
                spans,
                cpu.breakdown().get(category),
                "span total for {} disagrees with breakdown",
                category.label()
            );
        }
    }

    #[test]
    fn disabled_trace_exports_empty() {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
        cpu.attach(0, Box::new(VecSource::new((0..5).map(Instr::nop))));
        cpu.run_cycles(10);
        assert!(cpu.chrome_trace().is_empty());
    }

    #[test]
    fn reset_breakdown_clears_counts_and_trace() {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
        cpu.set_trace(true);
        cpu.attach(0, Box::new(VecSource::new((0..10).map(Instr::nop))));
        cpu.run_cycles(20);
        assert!(cpu.breakdown().total() > 0);
        cpu.reset_breakdown();
        assert_eq!(cpu.breakdown().total(), 0);
        assert_eq!(cpu.drained_cycles(), 0);
        assert!(cpu.trace().is_empty());
    }

    #[test]
    #[should_panic]
    fn double_attach_panics() {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Single, 1), PerfectMemory);
        cpu.attach(0, Box::new(VecSource::new(vec![])));
        cpu.attach(0, Box::new(VecSource::new(vec![])));
    }

    #[test]
    fn ctx_view_reports_attachment() {
        let mut cpu = Processor::new(ProcConfig::new(Scheme::Interleaved, 2), PerfectMemory);
        assert!(!cpu.ctx_view(0).attached);
        cpu.attach(0, Box::new(VecSource::new(vec![])));
        assert!(cpu.ctx_view(0).attached);
        assert!(cpu.ctx_view(0).ready);
        assert!(!cpu.ctx_view(1).attached);
    }
}
