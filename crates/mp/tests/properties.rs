//! Property-based tests for the multiprocessor substrate: the directory
//! protocol must maintain coherence invariants under arbitrary access
//! interleavings, and the home synchronization shard must preserve mutual
//! exclusion and never lose a waiter.

use interleave_isa::{SyncKind, SyncRef};
use interleave_mp::{Directory, MissClass, SyncShard};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

#[derive(Debug, Clone, Copy)]
enum DirOp {
    Read { node: u8, line: u8 },
    Write { node: u8, line: u8 },
    Evict { node: u8, line: u8 },
}

fn dir_op(nodes: u8) -> impl Strategy<Value = DirOp> {
    prop_oneof![
        (0..nodes, any::<u8>()).prop_map(|(node, line)| DirOp::Read { node, line }),
        (0..nodes, any::<u8>()).prop_map(|(node, line)| DirOp::Write { node, line }),
        (0..nodes, any::<u8>()).prop_map(|(node, line)| DirOp::Evict { node, line }),
    ]
}

/// Reference coherence state per line.
#[derive(Debug, Clone, Default)]
struct RefLine {
    sharers: HashSet<u8>,
    dirty_owner: Option<u8>,
}

proptest! {
    /// Directory invariants: at most one dirty owner; sharers and owner
    /// sets evolve exactly as an invalidation protocol requires; miss
    /// classes match the line's prior state.
    #[test]
    fn directory_protocol_invariants(
        ops in proptest::collection::vec(dir_op(4), 1..250),
    ) {
        let nodes = 4u8;
        let mut dir = Directory::new(nodes as usize, 32);
        let mut model: HashMap<u8, RefLine> = HashMap::new();
        // Track which nodes are "caching" each line from the model's
        // point of view (the node-level caches are owned by MpShared in
        // production; here the model plays that role).
        for op in ops {
            match op {
                DirOp::Read { node, line } => {
                    let addr = u64::from(line) * 32;
                    let state = model.entry(line).or_default();
                    let cached_here =
                        state.sharers.contains(&node) || state.dirty_owner == Some(node);
                    if cached_here {
                        // Production code never issues directory reads for
                        // lines it already caches; skip as a hit.
                        continue;
                    }
                    let tx = dir.read(node as usize, addr);
                    match state.dirty_owner {
                        Some(owner) => {
                            prop_assert_eq!(tx.class, MissClass::RemoteCache);
                            prop_assert_eq!(tx.intervene, Some(owner as usize));
                            state.sharers.insert(owner);
                            state.dirty_owner = None;
                        }
                        None => {
                            let expect = if dir.home(addr) == node as usize {
                                MissClass::LocalMem
                            } else {
                                MissClass::RemoteMem
                            };
                            prop_assert_eq!(tx.class, expect);
                            prop_assert!(tx.intervene.is_none());
                        }
                    }
                    state.sharers.insert(node);
                }
                DirOp::Write { node, line } => {
                    let addr = u64::from(line) * 32;
                    let state = model.entry(line).or_default();
                    if state.dirty_owner == Some(node) {
                        continue; // write hit: no directory transaction
                    }
                    let cached = state.sharers.contains(&node);
                    let tx = dir.write(node as usize, addr, cached);
                    // Everyone else must be told to invalidate.
                    let mut expected: HashSet<u8> = state.sharers.clone();
                    if let Some(owner) = state.dirty_owner {
                        expected.insert(owner);
                    }
                    expected.remove(&node);
                    let got: HashSet<u8> = tx.invalidated().map(|n| n as u8).collect();
                    prop_assert_eq!(&got, &expected, "invalidation set for line {}", line);
                    state.sharers.clear();
                    state.dirty_owner = Some(node);
                    // The directory agrees there is exactly one holder.
                    prop_assert_eq!(dir.sharers(addr), 1);
                }
                DirOp::Evict { node, line } => {
                    let addr = u64::from(line) * 32;
                    let state = model.entry(line).or_default();
                    let dirty = state.dirty_owner == Some(node);
                    if dirty {
                        state.dirty_owner = None;
                    }
                    state.sharers.remove(&node);
                    dir.evict(node as usize, addr, dirty);
                }
            }
            // Global invariant: directory sharer count matches the model.
            for (&line, state) in &model {
                let addr = u64::from(line) * 32;
                let count =
                    state.sharers.len() + usize::from(state.dirty_owner.is_some());
                prop_assert_eq!(dir.sharers(addr), count, "line {} holder count", line);
            }
        }
    }

    /// Lock mutual exclusion and liveness: under arbitrary interleavings
    /// of acquire attempts and releases, at most one thread holds the lock,
    /// a release hands it to the oldest waiter, and every waiter is
    /// eventually granted.
    #[test]
    fn locks_are_exclusive_and_fair(schedule in proptest::collection::vec(0usize..4, 4..200)) {
        let mut sync = SyncShard::new(4);
        let acq = SyncRef { kind: SyncKind::LockAcquire, id: 9 };
        let rel = SyncRef { kind: SyncKind::LockRelease, id: 9 };
        // Each thread loops: try-acquire until granted, then release.
        let mut holding: Option<usize> = None;
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut granted_count = 0u32;
        for t in schedule {
            let who = (t, 0usize);
            let mut grants = Vec::new();
            match holding {
                Some(h) if h == t => {
                    sync.request(who, rel, &mut grants);
                    // A release hands the lock to the oldest waiter, if any.
                    let next = queue.pop_front();
                    let expect: Vec<_> = next.map(|n| ((n, 0usize), acq)).into_iter().collect();
                    prop_assert_eq!(&grants, &expect, "hand-off goes to the queue head");
                    holding = next;
                    granted_count += u32::from(next.is_some());
                }
                Some(_) => {
                    // Lock held by someone else: this thread must wait.
                    sync.request(who, acq, &mut grants);
                    prop_assert!(grants.is_empty(), "thread {} granted a held lock", t);
                    if !queue.contains(&t) {
                        queue.push_back(t);
                    }
                }
                None => {
                    sync.request(who, acq, &mut grants);
                    prop_assert_eq!(&grants, &vec![(who, acq)], "a free lock is granted");
                    holding = Some(t);
                    granted_count += 1;
                }
            }
            prop_assert!(sync.check_invariants(0).is_ok());
        }
        prop_assert!(granted_count >= 1);
        prop_assert_eq!(sync.grants(), u64::from(granted_count));
    }

    /// Barrier completeness: with arity N, an instance releases exactly
    /// when the Nth distinct thread arrives, and re-arrivals proceed.
    #[test]
    fn barriers_release_exactly_at_arity(order in Just(()).prop_flat_map(|_| {
        proptest::collection::vec(0usize..6, 6..30)
    })) {
        let arity = 6u32;
        let mut sync = SyncShard::new(arity);
        let bar = SyncRef { kind: SyncKind::BarrierArrive, id: 0 };
        let mut arrived: HashSet<usize> = HashSet::new();
        let mut released = false;
        for t in order {
            if released {
                break;
            }
            let mut grants = Vec::new();
            sync.request((t, 0), bar, &mut grants);
            arrived.insert(t);
            if arrived.len() == arity as usize {
                // The last arriver proceeds first, then every waiter in
                // sorted order.
                let mut expect = vec![((t, 0usize), bar)];
                let mut waiters: Vec<usize> = arrived.iter().copied().filter(|&w| w != t).collect();
                waiters.sort_unstable();
                expect.extend(waiters.into_iter().map(|w| ((w, 0usize), bar)));
                prop_assert_eq!(&grants, &expect);
                released = true;
            } else {
                // An arrival (or re-arrival) before release must wait.
                prop_assert!(grants.is_empty(), "barrier released early for thread {}", t);
            }
        }
        if released {
            // Everyone re-arriving at the released instance proceeds.
            for t in 0..arity as usize {
                let mut grants = Vec::new();
                sync.request((t, 0), bar, &mut grants);
                prop_assert_eq!(grants, vec![((t, 0usize), bar)]);
            }
        }
    }
}
