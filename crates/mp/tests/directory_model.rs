//! Model-based test of the directory's flat line table: random
//! `read`/`write`/`evict`/`classify_*` sequences at 1, 8 and 64 nodes,
//! from size hints far below what the sequence tracks, must agree
//! transaction by transaction with a `BTreeMap` reference model of the
//! full-bit-vector protocol — including node 63 as a sharer and as a
//! dirty owner, and the cached-copy walk, sharer counts, statistics and
//! invariant checker after every step.

use interleave_mp::{Directory, DirectoryStats, MissClass};
use proptest::prelude::*;
use std::collections::BTreeMap;

const LINE: u64 = 32;

/// A transaction's `(class, invalidate mask, intervening owner)`.
type Tx = (MissClass, u64, Option<usize>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    Shared(u64),
    Dirty(usize),
}

/// The protocol over an ordered map: absence is "cached nowhere".
struct Model {
    nodes: usize,
    lines: BTreeMap<u64, Line>,
    stats: DirectoryStats,
}

impl Model {
    fn new(nodes: usize) -> Model {
        Model { nodes, lines: BTreeMap::new(), stats: DirectoryStats::default() }
    }

    fn memory(&self, node: usize, line: u64) -> MissClass {
        if (line / LINE) % self.nodes as u64 == node as u64 {
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

    fn classify_read(&self, node: usize, line: u64) -> MissClass {
        match self.lines.get(&line) {
            None | Some(Line::Shared(_)) => self.memory(node, line),
            Some(&Line::Dirty(owner)) if owner == node => MissClass::Hit,
            Some(Line::Dirty(_)) => MissClass::RemoteCache,
        }
    }

    fn classify_write(&self, node: usize, line: u64, cached: bool) -> MissClass {
        match self.lines.get(&line) {
            None => self.memory(node, line),
            Some(&Line::Dirty(owner)) if owner == node => MissClass::Hit,
            Some(Line::Dirty(_)) => MissClass::RemoteCache,
            Some(&Line::Shared(mask)) => {
                let home = self.memory(node, line) == MissClass::LocalMem;
                match (cached, mask & !(1 << node) == 0 && home) {
                    (false, _) => self.memory(node, line),
                    (true, true) => MissClass::Hit,
                    (true, false) => MissClass::Upgrade,
                }
            }
        }
    }

    fn read(&mut self, node: usize, line: u64) -> Tx {
        let class = self.classify_read(node, line);
        let mut tx = (class, 0, None);
        let next = match self.lines.get(&line).copied() {
            None => Line::Shared(1 << node),
            Some(Line::Shared(mask)) => Line::Shared(mask | 1 << node),
            Some(Line::Dirty(owner)) if owner == node => Line::Dirty(owner),
            Some(Line::Dirty(owner)) => {
                self.stats.writebacks += 1;
                tx.2 = Some(owner);
                Line::Shared(1 << node | 1 << owner)
            }
        };
        self.lines.insert(line, next);
        self.count(class);
        tx
    }

    fn write(&mut self, node: usize, line: u64, cached: bool) -> Tx {
        let class = self.classify_write(node, line, cached);
        let mut tx = (class, 0, None);
        match self.lines.get(&line).copied() {
            Some(Line::Dirty(owner)) if owner != node => {
                self.stats.writebacks += 1;
                tx.1 = 1 << owner;
                tx.2 = Some(owner);
            }
            Some(Line::Shared(mask)) => {
                tx.1 = mask & !(1 << node);
                self.stats.invalidations += u64::from(tx.1.count_ones());
            }
            _ => {}
        }
        self.lines.insert(line, Line::Dirty(node));
        self.count(class);
        tx
    }

    fn evict(&mut self, node: usize, line: u64, dirty: bool) {
        match self.lines.get(&line).copied() {
            Some(Line::Dirty(owner)) if owner == node => {
                self.stats.writebacks += u64::from(dirty);
                self.lines.remove(&line);
            }
            Some(Line::Shared(mask)) if mask & !(1 << node) == 0 => {
                self.lines.remove(&line);
            }
            Some(Line::Shared(mask)) => {
                self.lines.insert(line, Line::Shared(mask & !(1 << node)));
            }
            _ => {}
        }
    }

    fn sharers(&self, line: u64) -> usize {
        match self.lines.get(&line) {
            None => 0,
            Some(Line::Dirty(_)) => 1,
            Some(Line::Shared(mask)) => mask.count_ones() as usize,
        }
    }

    /// Every cached copy as `(line, node, dirty)`, sorted.
    fn copies(&self) -> Vec<(u64, usize, bool)> {
        let mut out = Vec::new();
        for (&line, &state) in &self.lines {
            match state {
                Line::Dirty(owner) => out.push((line, owner, true)),
                Line::Shared(mask) => out.extend(
                    (0..self.nodes).filter(|n| mask >> n & 1 == 1).map(|n| (line, n, false)),
                ),
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read,
    Write { cached: bool },
    Evict { dirty: bool },
    ClassifyRead,
    ClassifyWrite { cached: bool },
}

/// One step: an operation by `node` on line `line` of a small, sparse
/// address set (so lines collide in the table and get reused after
/// deletion), with the byte offset inside the line.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: Op,
    node: usize,
    line: u64,
    offset: u64,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Read),
        any::<bool>().prop_map(|cached| Op::Write { cached }),
        any::<bool>().prop_map(|dirty| Op::Evict { dirty }),
        Just(Op::ClassifyRead),
        any::<bool>().prop_map(|cached| Op::ClassifyWrite { cached }),
    ]
}

/// Steps for a `nodes`-node machine; half the node draws are the top
/// node, so node 63 of a 64-node machine shares and owns lines often.
fn step(nodes: usize) -> impl Strategy<Value = Step> {
    let node = prop_oneof![0..nodes, Just(nodes - 1)];
    let line = prop_oneof![0u64..40, (0u64..8).prop_map(|hi| hi << 40 | 7)];
    (op(), node, line, 0..LINE).prop_map(|(op, node, line, offset)| Step {
        op,
        node,
        line: line * LINE,
        offset,
    })
}

fn machine() -> impl Strategy<Value = (usize, usize, Vec<Step>)> {
    prop_oneof![Just(1usize), Just(8usize), Just(64usize)].prop_flat_map(|nodes| {
        (Just(nodes), 0usize..6, proptest::collection::vec(step(nodes), 1..400))
    })
}

fn walk(dir: &Directory) -> Vec<(u64, usize, bool)> {
    let mut copies = Vec::new();
    dir.for_each_cached_copy(|line, node, dirty| copies.push((line, node, dirty)));
    copies.sort_unstable();
    copies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_directory_matches_the_reference_model((nodes, hint, steps) in machine()) {
        let mut dir = Directory::with_capacity(nodes, LINE, hint);
        let sized = dir.table_bytes();
        let mut model = Model::new(nodes);
        let mut peak = 0;
        for (i, s) in steps.iter().enumerate() {
            let addr = s.line + s.offset;
            match s.op {
                Op::Read | Op::Write { .. } => {
                    let (t, expect) = match s.op {
                        Op::Write { cached } => {
                            (dir.write(s.node, addr, cached), model.write(s.node, s.line, cached))
                        }
                        _ => (dir.read(s.node, addr), model.read(s.node, s.line)),
                    };
                    prop_assert_eq!((t.class, t.invalidate, t.intervene), expect, "step {} {:?}", i, s);
                }
                Op::Evict { dirty } => {
                    dir.evict(s.node, addr, dirty);
                    model.evict(s.node, s.line, dirty);
                }
                Op::ClassifyRead => prop_assert_eq!(dir.classify_read(s.node, addr), model.classify_read(s.node, s.line)),
                Op::ClassifyWrite { cached } => prop_assert_eq!(
                    dir.classify_write(s.node, addr, cached),
                    model.classify_write(s.node, s.line, cached)
                ),
            }
            prop_assert_eq!(dir.sharers(addr), model.sharers(s.line), "step {} {:?}", i, s);
            prop_assert_eq!(*dir.stats(), model.stats, "step {} {:?}", i, s);
            prop_assert_eq!(walk(&dir), model.copies(), "step {} {:?}", i, s);
            prop_assert!(dir.check_invariants(i as u64).is_ok(), "step {} {:?}", i, s);
            peak = peak.max(model.lines.len());
        }
        // Every line ever touched still answers as the model does, after
        // any growth and backward-shift deletions.
        for s in &steps {
            prop_assert_eq!(dir.sharers(s.line), model.sharers(s.line));
        }
        // Past three quarters of its first 16-byte slots, the table grew.
        if peak * 4 > sized / 16 * 3 {
            prop_assert!(dir.table_bytes() > sized, "peak {} lines in {} bytes", peak, sized);
        }
        // A corrupted out-of-range owner stays representable: the walk
        // reports it and the checker names it.
        let owner = nodes + 5;
        dir.corrupt_line_for_test(0x40, owner);
        model.lines.insert(0x40, Line::Dirty(owner));
        prop_assert_eq!(walk(&dir), model.copies());
        let v = dir.check_invariants(7).unwrap_err();
        prop_assert_eq!(v.context, Some(owner));
    }
}

#[test]
fn node_63_shares_and_owns_at_64_nodes() {
    let mut dir = Directory::with_capacity(64, LINE, 0);
    dir.read(63, 0x80);
    dir.read(0, 0x80);
    assert_eq!(walk(&dir), vec![(0x80, 0, false), (0x80, 63, false)]);
    let tx = dir.write(63, 0x80, true);
    assert_eq!(tx.invalidated().collect::<Vec<_>>(), vec![0]);
    assert_eq!(walk(&dir), vec![(0x80, 63, true)]);
    assert_eq!(dir.classify_read(63, 0x80), MissClass::Hit);
    assert_eq!(dir.read(1, 0x80).intervene, Some(63));
    assert!(dir.check_invariants(0).is_ok());
}
