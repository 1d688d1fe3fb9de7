//! Per-node shard state and the message fabric of the parallel
//! multiprocessor driver.
//!
//! Each node's processor, primary cache, and cache port advance
//! independently on a host thread for one conservative quantum (at most
//! [`crate::LatencyModel::lookahead`] cycles). During a quantum a shard
//! classifies its misses against the *frozen* master directory (read-only)
//! and logs the mutating transaction; at the quantum barrier the driver
//! replays all logged transactions on the master in the deterministic
//! order `(cycle, node, seq)` and converts the resulting coherence
//! traffic into messages delivered to the target shards in later
//! quanta. Because every cross-node message is due at least one full
//! lookahead after it is sent, no message can arrive inside the quantum
//! in which it was generated — the conservative guarantee that makes the
//! parallel schedule independent of host thread interleaving.
//!
//! A node's mutable state lives in a [`ShardSlot`] between segments. The
//! owning worker checks it out once per segment and back in at the end,
//! so the per-cycle paths run without any lock.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use interleave_core::{DataOutcome, InstOutcome, SyncOutcome, SystemPort};
use interleave_engine::{lock, read_lock, write_lock, IdleBound, Inbox};
use interleave_isa::{Access, SyncKind, SyncRef};
use interleave_mem::{CacheParams, DirectCache, Resource};
use interleave_obs::{profile, Histogram};

use crate::sync::Who;
use crate::{Directory, LatencyModel, MissClass, SyncShard};

/// What a delivered message does at its destination shard.
///
/// Messages travel on the engine's router keyed `(due cycle, source
/// lane, per-lane sequence)`. Lanes `0..nodes` are the shards
/// themselves; lane `nodes + n` carries coherence effects attributed to
/// node `n`'s replayed transactions, so effect messages can never
/// collide with shard-generated ones.
#[derive(Debug, Clone)]
pub(crate) enum Payload {
    /// Drop the line (coherence invalidation) unless it was refilled at
    /// or after the causing transaction's cycle.
    Invalidate {
        /// Address inside the invalidated line.
        addr: u64,
        /// Cycle of the transaction that caused the invalidation.
        txn_cycle: u64,
    },
    /// Surrender exclusivity (read intervention): the copy stays but its
    /// local dirty bit clears, and the port is briefly busy supplying the
    /// data.
    Downgrade {
        /// Address inside the downgraded line.
        addr: u64,
        /// Cycle of the read that intervened.
        txn_cycle: u64,
    },
    /// Lock/barrier request arriving at its home shard.
    SyncReq {
        /// Requesting thread.
        who: Who,
        /// The operation to apply at the home shard.
        op: SyncRef,
    },
    /// Unconditional go-ahead for `ctx`'s pending `op` (the home already
    /// handed the lock off or released the barrier to the waiter).
    SyncToken {
        /// Destination hardware context on the receiving node.
        ctx: usize,
        /// The granted operation.
        op: SyncRef,
    },
}

/// A routed message: delivered to `dst`'s inbox at the barrier, then
/// applied when the shard clock reaches `key.0`.
pub(crate) type Msg = interleave_engine::Msg<Payload>;

/// One logged directory transaction, replayed on the master at the next
/// quantum barrier in `(cycle, node, seq)` order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxnRecord {
    /// Lookup cycle of the access.
    pub(crate) cycle: u64,
    /// Tie-break among same-cycle transactions of one node.
    pub(crate) seq: u64,
    /// Accessed address.
    pub(crate) addr: u64,
    /// Store (true) or load (false).
    pub(crate) write: bool,
    /// Whether the node held the line when the access was issued (an
    /// upgrade rather than a fill).
    pub(crate) cached: bool,
    /// Victim displaced by the fill: `(line address, dirty)`.
    pub(crate) evicted: Option<(u64, bool)>,
}

/// One node's mutable state: cache, port, home-side synchronization
/// shard, message queues, and the transaction log of the current
/// quantum. The owning worker holds it, checked out of its
/// [`ShardSlot`], for a whole segment; the driver locks the slot only
/// at barriers (and for the done-check).
#[derive(Debug)]
pub(crate) struct ShardState {
    node: usize,
    hop: u64,
    /// The node's primary data cache.
    pub(crate) cache: DirectCache,
    port: Resource,
    /// Home-side lock/barrier state for identifiers homed on this node.
    pub(crate) sync: SyncShard,
    inbox: Inbox<Payload>,
    /// Messages generated this quantum, routed at the barrier.
    pub(crate) outbox: Vec<Msg>,
    /// Directory transactions logged this quantum.
    pub(crate) txns: Vec<TxnRecord>,
    seq: u64,
    draws: u64,
    /// Last cycle the line resident in each cache frame was (re)filled
    /// or upgraded locally, indexed by [`DirectCache::set_of`]; an
    /// incoming coherence effect older than the stamp is stale. Exact
    /// because a stamp is only consulted for a resident line, and only
    /// a local fill can make a line resident.
    fill_stamp: Vec<u64>,
    sync_pending: Vec<Option<SyncRef>>,
    sync_token: Vec<Option<SyncRef>>,
    sync_done: Vec<Option<SyncRef>>,
    /// Retired-instruction counts published by the owning worker at each
    /// segment end (the driver's done-check reads these at barriers).
    pub(crate) retired: Vec<u64>,
    /// The node processor's idle bound, published at each segment end.
    /// `None` means the processor can act without external input; the
    /// adaptive schedule folds these into machine-wide quiescence.
    pub(crate) cpu_idle: Option<IdleBound>,
    /// Sampled unloaded latency per miss class, indexed by
    /// [`MissClass::index`].
    pub(crate) latencies: [Histogram; 4],
    mlp_outstanding: Vec<u64>,
    /// (sum of concurrent misses at miss time, samples).
    pub(crate) mlp_accum: (u64, u64),
}

impl ShardState {
    /// Creates node `node`'s shard for a machine of `contexts` hardware
    /// contexts per node and `threads` total threads, with cross-node
    /// message latency `hop`.
    pub(crate) fn new(node: usize, contexts: usize, threads: u32, hop: u64) -> ShardState {
        let cache = DirectCache::new(CacheParams::primary_data());
        ShardState {
            node,
            hop,
            fill_stamp: vec![0; cache.sets()],
            cache,
            port: Resource::new(),
            sync: SyncShard::new(threads),
            inbox: Inbox::new(),
            outbox: Vec::new(),
            txns: Vec::new(),
            seq: 0,
            draws: 0,
            sync_pending: vec![None; contexts],
            sync_token: vec![None; contexts],
            sync_done: vec![None; contexts],
            retired: vec![0; contexts],
            cpu_idle: None,
            latencies: Default::default(),
            mlp_outstanding: Vec::new(),
            mlp_accum: (0, 0),
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Accepts a barrier-routed message.
    pub(crate) fn enqueue(&mut self, msg: Msg) {
        debug_assert_eq!(msg.dst, self.node);
        self.inbox.push(msg.key, msg.payload);
    }

    /// Due cycle of the earliest queued message, if any (bounds how far
    /// idle cycles may be skipped).
    #[inline]
    pub(crate) fn next_due(&self) -> Option<u64> {
        self.inbox.next_due()
    }

    /// Applies every queued message due at or before `now`; contexts that
    /// received a grant token are appended to `wakes`.
    pub(crate) fn deliver_due(&mut self, now: u64, wakes: &mut Vec<usize>) {
        while let Some((key, payload)) = self.inbox.pop_due(now) {
            let due = key.0;
            match payload {
                Payload::Invalidate { addr, txn_cycle } => {
                    if !self.refilled_since(addr, txn_cycle) {
                        self.cache.invalidate(addr);
                    }
                    let occ = self.cache.params().invalidate_occupancy;
                    self.port.acquire(due, occ);
                }
                Payload::Downgrade { addr, txn_cycle } => {
                    if self.cache.probe(addr) && !self.refilled_since(addr, txn_cycle) {
                        // Refill of the resident line: keeps the copy,
                        // clears the dirty bit, evicts nothing.
                        self.cache.fill(addr, false);
                    }
                    let occ = self.cache.params().invalidate_occupancy;
                    self.port.acquire(due, occ);
                }
                Payload::SyncReq { who, op } => {
                    let mut grants = Vec::new();
                    self.sync.request(who, op, &mut grants);
                    self.route_grants(due, grants);
                }
                Payload::SyncToken { ctx, op } => {
                    self.sync_token[ctx] = Some(op);
                    wakes.push(ctx);
                }
            }
        }
    }

    /// Whether the line holding `addr` was locally filled or upgraded at
    /// or after `txn_cycle` — in which case a coherence effect of that
    /// older transaction is stale and must not be applied.
    fn refilled_since(&self, addr: u64, txn_cycle: u64) -> bool {
        self.cache.probe(addr) && self.fill_stamp[self.cache.set_of(addr)] >= txn_cycle
    }

    /// Turns home grants into tokens: a token for one of this node's own
    /// contexts is self-delivered next cycle, a remote waiter's token
    /// travels a full hop through the barrier exchange.
    fn route_grants(&mut self, now: u64, grants: Vec<(Who, SyncRef)>) {
        for ((dst, ctx), op) in grants {
            let payload = Payload::SyncToken { ctx, op };
            if dst == self.node {
                let key = (now + 1, self.node, self.next_seq());
                self.inbox.push(key, payload);
            } else {
                let key = (now + self.hop, self.node, self.next_seq());
                self.outbox.push(Msg { key, dst, payload });
            }
        }
    }
}

/// Where a node's [`ShardState`] is parked between segments: the owning
/// worker's [`ShardPort::check_out`] takes it out at segment start and
/// [`ShardPort::check_in`] puts it back at segment end (a pointer move
/// under one uncontended lock each), so inside a segment the shard runs
/// lock-free. The driver's barrier hooks [`ShardSlot::lock`] it while
/// every worker is parked.
#[derive(Debug)]
pub(crate) struct ShardSlot(Mutex<Option<Box<ShardState>>>);

impl ShardSlot {
    /// Parks `state` in a new slot.
    pub(crate) fn new(state: ShardState) -> ShardSlot {
        ShardSlot(Mutex::new(Some(Box::new(state))))
    }

    /// Locks the parked state (barrier-time access).
    pub(crate) fn lock(&self) -> Parked<'_> {
        Parked(lock(&self.0))
    }
}

/// A locked, parked [`ShardState`]; see [`ShardSlot::lock`].
pub(crate) struct Parked<'a>(MutexGuard<'a, Option<Box<ShardState>>>);

const NOT_PARKED: &str = "shard state is parked in its slot between segments";
const NOT_CHECKED_OUT: &str = "shard state is checked out for the segment";

impl Deref for Parked<'_> {
    type Target = ShardState;

    fn deref(&self) -> &ShardState {
        self.0.as_deref().expect(NOT_PARKED)
    }
}

impl DerefMut for Parked<'_> {
    fn deref_mut(&mut self) -> &mut ShardState {
        self.0.as_deref_mut().expect(NOT_PARKED)
    }
}

/// One node's view of the machine: implements [`SystemPort`] for the
/// node's processor over its own shard plus the read-frozen master
/// directory.
///
/// The instruction cache is ideal (100% hit rate, paper Section 5.2), and
/// TLBs are not modeled in the multiprocessor study.
#[derive(Debug)]
pub(crate) struct ShardPort {
    node: usize,
    nodes: usize,
    hop: u64,
    seed: u64,
    latency: LatencyModel,
    slot: Arc<ShardSlot>,
    /// The node's state while checked out for a segment.
    state: Option<Box<ShardState>>,
    master: Arc<RwLock<Directory>>,
}

impl ShardPort {
    /// Creates node `node`'s port over the state parked in `slot`.
    pub(crate) fn new(
        node: usize,
        nodes: usize,
        seed: u64,
        latency: LatencyModel,
        slot: Arc<ShardSlot>,
        master: Arc<RwLock<Directory>>,
    ) -> ShardPort {
        latency.validate();
        let hop = latency.lookahead();
        ShardPort { node, nodes, hop, seed, latency, slot, state: None, master }
    }

    /// Takes the node's state out of its slot for a segment.
    ///
    /// # Panics
    ///
    /// Panics if the state is already checked out.
    pub(crate) fn check_out(&mut self) {
        assert!(self.state.is_none(), "shard state checked out twice");
        self.state = Some(lock(&self.slot.0).take().expect(NOT_PARKED));
    }

    /// Parks the node's state back in its slot at segment end.
    pub(crate) fn check_in(&mut self) {
        let state = self.state.take().expect(NOT_CHECKED_OUT);
        *lock(&self.slot.0) = Some(state);
    }

    /// The checked-out state.
    pub(crate) fn state(&mut self) -> &mut ShardState {
        self.state.as_deref_mut().expect(NOT_CHECKED_OUT)
    }
}

impl SystemPort for ShardPort {
    fn data(&mut self, lookup_start: u64, addr: u64, kind: Access, _ctx: usize) -> DataOutcome {
        let st = self.state.as_deref_mut().expect(NOT_CHECKED_OUT);
        let cached = st.cache.probe(addr);
        match kind {
            Access::Read if cached => return DataOutcome::Hit,
            // A store to a line we already hold dirty is silent: the
            // master recorded our exclusivity when the dirtying
            // transaction replayed, so there is nothing to log.
            Access::Write if cached && st.cache.is_dirty(addr) => return DataOutcome::Hit,
            _ => {}
        }

        // Classify against the frozen master (read-only during the
        // quantum; the driver write-locks it only at barriers while
        // every shard is parked).
        let (class, home) = {
            let dir = read_lock(&self.master);
            let class = match kind {
                Access::Read => dir.classify_read(self.node, addr),
                Access::Write => dir.classify_write(self.node, addr, cached),
            };
            (class, dir.home(addr))
        };

        // Install locally and log the transaction for barrier replay.
        let evicted = if cached {
            st.cache.mark_dirty(addr); // write to a shared copy (upgrade)
            None
        } else {
            st.cache.fill(addr, kind == Access::Write).map(|v| (v.addr, v.dirty))
        };
        st.fill_stamp[st.cache.set_of(addr)] = lookup_start;
        let seq = st.next_seq();
        st.txns.push(TxnRecord {
            cycle: lookup_start,
            seq,
            addr,
            write: kind == Access::Write,
            cached,
            evicted,
        });

        // Timing: sampled unloaded latency plus our own port occupancy.
        let range = match class {
            // E.g. a re-read of a line the master still records as our
            // dirty copy (we evicted it locally): logged for replay, but
            // no latency applies.
            MissClass::Hit => return DataOutcome::Hit,
            MissClass::LocalMem => self.latency.local,
            MissClass::RemoteMem => self.latency.remote,
            MissClass::RemoteCache => self.latency.remote_cache,
            // Upgrades travel to the home (and possibly sharers): sample
            // local or remote by home placement.
            MissClass::Upgrade => {
                if home == self.node {
                    self.latency.local
                } else {
                    self.latency.remote
                }
            }
        };
        let draw = st.draws;
        st.draws += 1;
        let base = self.latency.sample_hashed(range, self.seed, self.node, draw);
        st.latencies[class.index()].record(base);
        let fill_occ = st.cache.params().fill_occupancy;
        let arrival = lookup_start + base;
        let start = st.port.acquire(arrival, fill_occ);
        let ready = start + fill_occ;
        st.mlp_outstanding.retain(|&t| t > lookup_start);
        st.mlp_outstanding.push(ready);
        st.mlp_accum.0 += st.mlp_outstanding.len() as u64;
        st.mlp_accum.1 += 1;
        DataOutcome::Stall { ready_at: ready }
    }

    fn inst(&mut self, _lookup_start: u64, _pc: u64) -> InstOutcome {
        InstOutcome::Hit // ideal instruction cache
    }

    fn sync(&mut self, now: u64, ctx: usize, op: SyncRef) -> SyncOutcome {
        let st = self.state.as_deref_mut().expect(NOT_CHECKED_OUT);
        if st.sync_done[ctx] == Some(op) {
            // Squashed and re-executed after completing: idempotent, like
            // the home shard's re-acquire of a held lock.
            return SyncOutcome::Proceed;
        }
        if st.sync_token[ctx] == Some(op) {
            st.sync_token[ctx] = None;
            st.sync_pending[ctx] = None;
            st.sync_done[ctx] = Some(op);
            return SyncOutcome::Proceed;
        }
        if st.sync_pending[ctx] == Some(op) {
            return SyncOutcome::Wait; // re-executed while the request is in flight
        }
        let who = (self.node, ctx);
        let home = op.id as usize % self.nodes;
        if home == self.node {
            // Our own home: process inline, so an uncontended local
            // acquire stays free.
            let mut grants = Vec::new();
            st.sync.request(who, op, &mut grants);
            let mut proceed = op.kind == SyncKind::LockRelease;
            grants.retain(|&(w, gop)| {
                let own = w == who && gop == op;
                proceed |= own;
                !own
            });
            st.route_grants(now, grants);
            if proceed {
                st.sync_done[ctx] = Some(op);
                SyncOutcome::Proceed
            } else {
                st.sync_pending[ctx] = Some(op);
                SyncOutcome::Wait
            }
        } else {
            let key = (now + self.hop, self.node, st.next_seq());
            st.outbox.push(Msg { key, dst: home, payload: Payload::SyncReq { who, op } });
            if op.kind == SyncKind::LockRelease {
                st.sync_done[ctx] = Some(op);
                SyncOutcome::Proceed // fire-and-forget: applied on delivery
            } else {
                st.sync_pending[ctx] = Some(op);
                SyncOutcome::Wait
            }
        }
    }
}

/// The quantum barrier's merge step: drains every shard's transaction
/// log and outbox, replays the logs on the master directory in
/// `(cycle, node, seq)` order, converts the replay's coherence traffic
/// into effect messages (due one hop after the causing transaction), and
/// routes everything to the destination inboxes.
///
/// Its buffers live across barriers, so a barrier allocates nothing in
/// steady state.
#[derive(Debug)]
pub(crate) struct Exchange {
    hop: u64,
    /// Persistent sequence counter of the effect lanes; it lives across
    /// barriers so effect keys never repeat while earlier effects are
    /// still queued.
    eff_seq: u64,
    txns: Vec<(usize, TxnRecord)>,
    routed: Vec<Msg>,
}

impl Exchange {
    /// An exchange for cross-node messages of latency `hop`.
    pub(crate) fn new(hop: u64) -> Exchange {
        Exchange { hop, eff_seq: 0, txns: Vec::new(), routed: Vec::new() }
    }

    /// Runs one barrier over the parked shard states.
    pub(crate) fn run(&mut self, master: &RwLock<Directory>, slots: &[Arc<ShardSlot>]) {
        let nodes = slots.len();
        for (node, slot) in slots.iter().enumerate() {
            let mut st = slot.lock();
            self.txns.extend(st.txns.drain(..).map(|t| (node, t)));
            self.routed.append(&mut st.outbox);
        }
        self.txns.sort_unstable_by_key(|&(node, t)| (t.cycle, node, t.seq));
        {
            let _directory = profile::enter("mp.directory");
            let mut dir = write_lock(master);
            for (node, t) in self.txns.drain(..) {
                if let Some((victim, dirty)) = t.evicted {
                    dir.evict(node, victim, dirty);
                }
                let tx = if t.write {
                    dir.write(node, t.addr, t.cached)
                } else {
                    dir.read(node, t.addr)
                };
                let mut effect = |dst: usize, payload: Payload| {
                    self.eff_seq += 1;
                    let key = (t.cycle + self.hop, nodes + node, self.eff_seq);
                    self.routed.push(Msg { key, dst, payload });
                };
                // Ascending node order, as the replaced `Vec` had: every
                // effect key keeps its sequence number.
                for target in tx.invalidated().filter(|&n| n != node) {
                    effect(target, Payload::Invalidate { addr: t.addr, txn_cycle: t.cycle });
                }
                if let Some(owner) = tx.intervene.filter(|&n| n != node) {
                    effect(owner, Payload::Downgrade { addr: t.addr, txn_cycle: t.cycle });
                }
            }
        }
        for msg in self.routed.drain(..) {
            slots[msg.dst].lock().enqueue(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The master directory and barrier exchange of a test machine.
    /// Its ports keep their shard states checked out, as inside a
    /// segment, except while [`Machine::exchange`] runs a barrier.
    struct Machine {
        master: Arc<RwLock<Directory>>,
        slots: Vec<Arc<ShardSlot>>,
        exchange: Exchange,
        hop: u64,
    }

    impl Machine {
        fn new(nodes: usize, latency: LatencyModel) -> (Machine, Vec<ShardPort>) {
            let hop = latency.lookahead();
            let params = CacheParams::primary_data();
            let master = Arc::new(RwLock::new(Directory::new(nodes, params.line)));
            let slots: Vec<_> = (0..nodes)
                .map(|n| Arc::new(ShardSlot::new(ShardState::new(n, 1, nodes as u32, hop))))
                .collect();
            let ports = (0..nodes)
                .map(|n| {
                    let mut port =
                        ShardPort::new(n, nodes, 1, latency, slots[n].clone(), master.clone());
                    port.check_out();
                    port
                })
                .collect();
            (Machine { master, slots, exchange: Exchange::new(hop), hop }, ports)
        }

        /// Runs a barrier: parks every state, exchanges, checks out again.
        fn exchange(&mut self, ports: &mut [ShardPort]) {
            ports.iter_mut().for_each(ShardPort::check_in);
            self.exchange.run(&self.master, &self.slots);
            ports.iter_mut().for_each(ShardPort::check_out);
        }
    }

    /// Delivers everything due up to `now` at `port`'s node, returning
    /// the contexts to wake.
    fn deliver(port: &mut ShardPort, now: u64) -> Vec<usize> {
        let mut wakes = Vec::new();
        port.state().deliver_due(now, &mut wakes);
        wakes
    }

    /// Queues a coherence effect at `port`'s node, due at `due`.
    fn effect(port: &mut ShardPort, due: u64, payload: Payload) {
        let node = port.node;
        let seq = port.state().next_seq();
        port.state().enqueue(Msg { key: (due, node, seq), dst: node, payload });
    }

    fn dash() -> LatencyModel {
        LatencyModel::dash_like()
    }

    fn acq(id: u32) -> SyncRef {
        SyncRef { kind: SyncKind::LockAcquire, id }
    }
    fn rel(id: u32) -> SyncRef {
        SyncRef { kind: SyncKind::LockRelease, id }
    }

    #[test]
    fn local_miss_then_hit() {
        let (_m, mut ports) = Machine::new(4, dash());
        // 0x00 is homed on node 0.
        match ports[0].data(10, 0x00, Access::Read, 0) {
            DataOutcome::Stall { ready_at } => {
                let lat = ready_at - 10;
                assert!((23..=40).contains(&lat), "local latency {lat}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(ports[0].data(100, 0x00, Access::Read, 0), DataOutcome::Hit);
    }

    #[test]
    fn remote_miss_is_slower() {
        let (_m, mut ports) = Machine::new(4, dash());
        match ports[1].data(10, 0x00, Access::Read, 0) {
            DataOutcome::Stall { ready_at } => {
                let lat = ready_at - 10;
                assert!(lat >= 81, "remote latency {lat}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dirty_remote_intervention_after_exchange() {
        let (mut m, mut ports) = Machine::new(4, dash());
        ports[0].data(0, 0x00, Access::Write, 0);
        m.exchange(&mut ports); // master learns node 0's exclusive copy
        match ports[1].data(100, 0x00, Access::Read, 0) {
            DataOutcome::Stall { ready_at } => {
                let lat = ready_at - 100;
                assert!(lat >= 101, "remote-cache latency {lat}");
            }
            other => panic!("{other:?}"),
        }
        m.exchange(&mut ports); // replay node 1's read
        assert_eq!(m.master.read().unwrap().stats().remote_cache, 1);
        // The read intervention downgraded node 0's copy in place.
        assert!(ports[0].state().cache.probe(0x00));
    }

    #[test]
    fn write_invalidates_other_copies_via_messages() {
        let (mut m, mut ports) = Machine::new(2, dash());
        ports[0].data(0, 0x40, Access::Read, 0);
        ports[1].data(0, 0x40, Access::Read, 0);
        m.exchange(&mut ports);
        // Node 1 writes its shared copy: an upgrade whose invalidation
        // reaches node 0 as a message one hop later.
        match ports[1].data(200, 0x40, Access::Write, 0) {
            DataOutcome::Stall { .. } => {}
            other => panic!("upgrade with another sharer cannot be free, got {other:?}"),
        }
        m.exchange(&mut ports);
        deliver(&mut ports[0], 200 + m.hop);
        assert!(!ports[0].state().cache.probe(0x40));
        match ports[0].data(500, 0x40, Access::Read, 0) {
            DataOutcome::Stall { .. } => {}
            other => panic!("node 0 should re-miss after invalidation, got {other:?}"),
        }
    }

    #[test]
    fn write_hit_on_owned_line_is_free() {
        let (_m, mut ports) = Machine::new(2, dash());
        ports[0].data(0, 0x00, Access::Write, 0);
        assert_eq!(ports[0].data(100, 0x00, Access::Write, 0), DataOutcome::Hit);
        assert_eq!(ports[0].data(101, 0x00, Access::Read, 0), DataOutcome::Hit);
    }

    #[test]
    fn inst_cache_is_ideal() {
        let (_m, mut ports) = Machine::new(2, dash());
        assert_eq!(ports[0].inst(0, 0xDEAD_BEE0), InstOutcome::Hit);
    }

    #[test]
    fn shared_write_after_read_upgrades() {
        let (mut m, mut ports) = Machine::new(2, dash());
        ports[0].data(0, 0x40, Access::Read, 0);
        ports[1].data(0, 0x40, Access::Read, 0);
        m.exchange(&mut ports);
        // Node 0 writes its cached shared copy: an upgrade, not a refill.
        match ports[0].data(500, 0x40, Access::Write, 0) {
            DataOutcome::Stall { ready_at } => assert!(ready_at > 500),
            DataOutcome::Hit => panic!("upgrade with other sharers cannot be free"),
        }
        m.exchange(&mut ports);
        let dir = m.master.read().unwrap();
        assert_eq!(dir.stats().upgrades, 1);
        assert_eq!(dir.stats().invalidations, 1);
    }

    #[test]
    fn stale_invalidation_spares_a_refilled_line() {
        let (mut m, mut ports) = Machine::new(2, dash());
        ports[0].data(0, 0x40, Access::Read, 0);
        ports[1].data(0, 0x40, Access::Read, 0);
        m.exchange(&mut ports);
        // Node 1 upgrades at cycle 100; in the same quantum node 0 drops
        // and refills the line at cycle 150 (after the causing write).
        ports[1].data(100, 0x40, Access::Write, 0);
        ports[0].state().cache.invalidate(0x40);
        ports[0].data(150, 0x40, Access::Read, 0);
        m.exchange(&mut ports);
        deliver(&mut ports[0], 100 + m.hop);
        // The invalidation (txn cycle 100) is stale against the refill
        // stamp (150): node 0 keeps the copy the master now tracks.
        assert!(ports[0].state().cache.probe(0x40));
    }

    #[test]
    fn fill_stamps_follow_the_frame_across_an_eviction() {
        // Line A is filled, then evicted by B (64 KB apart: same frame,
        // different tag), filled dirty at cycle 100.
        const A: u64 = 0x40;
        const B: u64 = A + 64 * 1024;
        let setup = || {
            let (m, mut ports) = Machine::new(2, dash());
            ports[0].data(10, A, Access::Read, 0);
            ports[0].data(100, B, Access::Write, 0);
            let st = ports[0].state();
            assert_eq!(st.cache.set_of(A), st.cache.set_of(B));
            assert!(!st.cache.probe(A) && st.cache.is_dirty(B));
            (m, ports)
        };

        let (_m, mut ports) = setup();
        // An invalidation for A older than B's fill leaves B resident,
        // as does a stale one for B itself.
        effect(&mut ports[0], 200, Payload::Invalidate { addr: A, txn_cycle: 50 });
        effect(&mut ports[0], 201, Payload::Invalidate { addr: B, txn_cycle: 60 });
        deliver(&mut ports[0], 201);
        assert!(ports[0].state().cache.probe(B));
        // A newer invalidation for B drops it.
        effect(&mut ports[0], 300, Payload::Invalidate { addr: B, txn_cycle: 150 });
        deliver(&mut ports[0], 300);
        assert!(!ports[0].state().cache.probe(B));

        let (_m, mut ports) = setup();
        // Downgrades for A, or older than B's fill, leave B dirty.
        effect(&mut ports[0], 200, Payload::Downgrade { addr: A, txn_cycle: 50 });
        effect(&mut ports[0], 201, Payload::Downgrade { addr: B, txn_cycle: 60 });
        deliver(&mut ports[0], 201);
        assert!(ports[0].state().cache.is_dirty(B));
        // A newer downgrade for B keeps the copy but clears its dirty bit.
        effect(&mut ports[0], 300, Payload::Downgrade { addr: B, txn_cycle: 150 });
        deliver(&mut ports[0], 300);
        let st = ports[0].state();
        assert!(st.cache.probe(B) && !st.cache.is_dirty(B));
        assert!(!st.cache.probe(A));
    }

    #[test]
    fn incoming_invalidations_occupy_the_victim_port() {
        // Degenerate latency ranges: sampling noise cannot mask the
        // queueing delay under comparison.
        let fixed =
            LatencyModel { hit: 1, local: (30, 30), remote: (100, 100), remote_cache: (130, 130) };
        let run = |invalidate_burst: bool| {
            let (mut m, mut ports) = Machine::new(2, fixed);
            if invalidate_burst {
                // Node 0 caches many lines that node 1 then writes: node
                // 0's port absorbs the invalidation messages, delaying
                // its own subsequent fill.
                for i in 0..24u64 {
                    ports[0].data(i, 0x1000 + i * 32, Access::Read, 0);
                }
                m.exchange(&mut ports);
                for i in 0..24u64 {
                    ports[1].data(1000, 0x1000 + i * 32, Access::Write, 0);
                }
                m.exchange(&mut ports);
                deliver(&mut ports[0], 1000 + m.hop);
            }
            let t = 1000 + m.hop;
            match ports[0].data(t, 0x9000, Access::Read, 0) {
                DataOutcome::Stall { ready_at } => ready_at,
                DataOutcome::Hit => panic!("cold line cannot hit"),
            }
        };
        let busy = run(true);
        let quiet = run(false);
        assert!(
            busy > quiet,
            "the fill should queue behind the invalidation burst ({busy} vs {quiet})"
        );
    }

    #[test]
    fn deterministic_latencies_per_seed() {
        let run = || {
            let (_m, mut ports) = Machine::new(4, dash());
            (0..20)
                .map(|i| match ports[1].data(i * 1000, 0x1000 + i * 32, Access::Read, 0) {
                    DataOutcome::Stall { ready_at } => ready_at,
                    DataOutcome::Hit => 0,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn same_home_lock_is_inline_and_free() {
        let (_m, mut ports) = Machine::new(2, dash());
        // Lock 0 homes on node 0: its own acquire never leaves the shard.
        assert_eq!(ports[0].sync(10, 0, acq(0)), SyncOutcome::Proceed);
        assert_eq!(ports[0].sync(20, 0, rel(0)), SyncOutcome::Proceed);
    }

    #[test]
    fn remote_lock_round_trips_through_home() {
        let (mut m, mut ports) = Machine::new(2, dash());
        // Lock 1 homes on node 1; node 0 must message the home and wait
        // for the token, two hops in total.
        assert_eq!(ports[0].sync(10, 0, acq(1)), SyncOutcome::Wait);
        m.exchange(&mut ports);
        assert!(deliver(&mut ports[1], 10 + m.hop).is_empty()); // home grants, token routed
        m.exchange(&mut ports);
        let wakes = deliver(&mut ports[0], 10 + 2 * m.hop);
        assert_eq!(wakes, vec![0]);
        // The re-executed acquire consumes the token unconditionally.
        assert_eq!(ports[0].sync(10 + 2 * m.hop, 0, acq(1)), SyncOutcome::Proceed);
        // And a squashed re-execution after completion stays granted.
        assert_eq!(ports[0].sync(10 + 2 * m.hop + 5, 0, acq(1)), SyncOutcome::Proceed);
    }

    #[test]
    fn contended_remote_lock_hands_off_on_release() {
        let (mut m, mut ports) = Machine::new(3, dash());
        // Lock 1 homes on node 1, held by node 1 itself; node 2 queues.
        assert_eq!(ports[1].sync(0, 0, acq(1)), SyncOutcome::Proceed);
        assert_eq!(ports[2].sync(0, 0, acq(1)), SyncOutcome::Wait);
        m.exchange(&mut ports);
        deliver(&mut ports[1], m.hop); // request queues at the home
                                       // The home-side release wakes the waiter; its token crosses back.
        assert_eq!(ports[1].sync(200, 0, rel(1)), SyncOutcome::Proceed);
        m.exchange(&mut ports);
        let wakes = deliver(&mut ports[2], 200 + m.hop);
        assert_eq!(wakes, vec![0]);
        assert_eq!(ports[2].sync(200 + m.hop, 0, acq(1)), SyncOutcome::Proceed);
    }

    #[test]
    fn message_due_exactly_at_delivery_cycle_applies() {
        let (mut m, mut ports) = Machine::new(2, dash());
        ports[0].data(0, 0x40, Access::Read, 0);
        ports[1].data(0, 0x40, Access::Read, 0);
        m.exchange(&mut ports);
        ports[1].data(100, 0x40, Access::Write, 0);
        m.exchange(&mut ports);
        // Due cycle is exactly 100 + hop; delivering at precisely that
        // cycle (a quantum boundary in the driver) must apply it, and
        // one cycle earlier must not.
        assert!(ports[0].state().next_due() == Some(100 + m.hop));
        deliver(&mut ports[0], 100 + m.hop - 1);
        assert!(ports[0].state().cache.probe(0x40));
        deliver(&mut ports[0], 100 + m.hop);
        assert!(!ports[0].state().cache.probe(0x40));
    }

    #[test]
    fn fill_stamps_are_one_word_per_frame() {
        // With the L1D's 16,640 B of tags and dirty bits (pinned by the
        // mem crate's `paper_l1_tag_array_bytes`), a node's frame tables
        // take 33,024 B.
        let st = ShardState::new(0, 4, 32, 1);
        assert_eq!(*st.cache.params(), CacheParams::primary_data());
        assert_eq!(st.fill_stamp.len(), st.cache.sets());
        let stamp_bytes = st.fill_stamp.capacity() * std::mem::size_of_val(&st.fill_stamp[0]);
        assert_eq!(stamp_bytes, 16_384);
    }
}
