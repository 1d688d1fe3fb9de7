//! Property-based tests: for random programs on any scheme, every
//! instruction retires exactly once, every cycle is attributed exactly
//! once, and no work is ever lost to a squash. The fetch unit also
//! agrees with a retired-set reference model under random operation
//! sequences.

use std::collections::BTreeSet;

use interleave_core::{FetchUnit, ProcConfig, Processor, Scheme, VecSource};
use interleave_isa::{Instr, Op, Reg};
use interleave_mem::{MemConfig, UniMemSystem};
use proptest::prelude::*;

/// A compact recipe for one synthetic instruction.
#[derive(Debug, Clone, Copy)]
enum Recipe {
    Alu { dst: u8, src: u8 },
    Shift { dst: u8, src: u8 },
    FpAdd { dst: u8, src: u8 },
    FpDiv { dst: u8, src: u8 },
    Load { dst: u8, addr: u16 },
    Store { src: u8, addr: u16 },
    Branch { taken: bool, target: u16 },
    Backoff { cycles: u8 },
    Nop,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    prop_oneof![
        (0u8..32, 0u8..32).prop_map(|(dst, src)| Recipe::Alu { dst, src }),
        (0u8..32, 0u8..32).prop_map(|(dst, src)| Recipe::Shift { dst, src }),
        (0u8..32, 0u8..32).prop_map(|(dst, src)| Recipe::FpAdd { dst, src }),
        (0u8..32, 0u8..32).prop_map(|(dst, src)| Recipe::FpDiv { dst, src }),
        (0u8..32, any::<u16>()).prop_map(|(dst, addr)| Recipe::Load { dst, addr }),
        (0u8..32, any::<u16>()).prop_map(|(src, addr)| Recipe::Store { src, addr }),
        (any::<bool>(), any::<u16>()).prop_map(|(taken, target)| Recipe::Branch { taken, target }),
        (1u8..60).prop_map(|cycles| Recipe::Backoff { cycles }),
        Just(Recipe::Nop),
    ]
}

fn materialize(recipes: &[Recipe], ctx: usize) -> Vec<Instr> {
    // Spread each context over its own address region so programs interact
    // through cache capacity, not false sharing of the same line.
    let code_base = 0x10_0000 * (ctx as u64 + 1);
    let data_base = 0x80_0000 * (ctx as u64 + 1);
    recipes
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let pc = code_base + i as u64 * 4;
            match *r {
                Recipe::Alu { dst, src } => {
                    Instr::alu(pc, Some(Reg::int(dst)), Some(Reg::int(src)), None)
                }
                Recipe::Shift { dst, src } => {
                    Instr::arith(pc, Op::Shift, Some(Reg::int(dst)), Some(Reg::int(src)), None)
                }
                Recipe::FpAdd { dst, src } => {
                    Instr::arith(pc, Op::FpAdd, Some(Reg::fp(dst)), Some(Reg::fp(src)), None)
                }
                Recipe::FpDiv { dst, src } => {
                    Instr::arith(pc, Op::FpDivSingle, Some(Reg::fp(dst)), Some(Reg::fp(src)), None)
                }
                Recipe::Load { dst, addr } => {
                    Instr::load(pc, Reg::int(dst), Reg::int(29), data_base + u64::from(addr))
                }
                Recipe::Store { src, addr } => {
                    Instr::store(pc, Reg::int(src), Reg::int(29), data_base + u64::from(addr))
                }
                Recipe::Branch { taken, target } => {
                    Instr::branch(pc, Some(Reg::int(1)), taken, code_base + u64::from(target) * 4)
                }
                Recipe::Backoff { cycles } => Instr::backoff(pc, u32::from(cycles)),
                Recipe::Nop => Instr::nop(pc),
            }
        })
        .collect()
}

fn scheme_strategy() -> impl Strategy<Value = (Scheme, usize)> {
    prop_oneof![
        Just((Scheme::Single, 1)),
        (1usize..=4).prop_map(|n| (Scheme::Blocked, n)),
        (1usize..=4).prop_map(|n| (Scheme::Interleaved, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conservation_and_accounting(
        (scheme, contexts) in scheme_strategy(),
        programs in proptest::collection::vec(
            proptest::collection::vec(recipe_strategy(), 1..60),
            1..=4,
        ),
    ) {
        let mut cpu = Processor::new(
            ProcConfig::new(scheme, contexts),
            UniMemSystem::new(MemConfig::workstation()),
        );
        let mut expected = vec![0u64; contexts];
        for (c, p) in programs.iter().take(contexts).enumerate() {
            let instrs = materialize(p, c);
            expected[c] = instrs.len() as u64;
            cpu.attach(c, Box::new(VecSource::new(instrs)));
        }

        let mut cycles = 0u64;
        while !cpu.is_done() && cycles < 200_000 {
            cpu.tick();
            cycles += 1;
            prop_assert_eq!(cpu.check_lost_work(), None, "work lost at cycle {}", cycles);
        }
        prop_assert!(cpu.is_done(), "did not finish within the cycle budget");

        for (c, &want) in expected.iter().enumerate() {
            prop_assert_eq!(cpu.retired(c), want, "retired count for context {}", c);
        }
        prop_assert_eq!(
            cpu.breakdown().total() + cpu.drained_cycles(),
            cycles,
            "cycle attribution must be exact"
        );
    }
}

/// Reference fetch unit: the whole stream in a vector and out-of-order
/// retirements in an ordered set (the representation `FetchUnit` used
/// before per-slot retired flags).
struct ModelFetch {
    stream: Vec<u64>,
    base: u64,
    cursor: u64,
    retired: BTreeSet<u64>,
}

impl ModelFetch {
    fn normalize(&mut self) {
        self.cursor = self.cursor.max(self.base);
        while self.retired.contains(&self.cursor) {
            self.cursor += 1;
        }
    }

    fn peek(&self) -> Option<u64> {
        self.stream.get(self.cursor as usize).copied()
    }

    fn rollback(&mut self, index: u64) {
        self.cursor = index;
        self.normalize();
    }

    fn retire(&mut self, index: u64) {
        assert!(self.retired.insert(index));
        while self.retired.remove(&self.base) {
            self.base += 1;
        }
        self.normalize();
    }

    fn is_done(&self) -> bool {
        self.peek().is_none() && self.base == self.cursor
    }

    fn outstanding(&self) -> u64 {
        (self.cursor - self.base).saturating_sub(self.retired.len() as u64)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `FetchUnit` matches the retired-set model over random advance,
    /// rollback, `rollback_to_base` and retire sequences: same cursor,
    /// same instruction at the cursor, same completion and outstanding
    /// count, and the same instruction at every fetched index that has
    /// not retired, after every step. Streams run to 400 instructions,
    /// so most cases cross several 32-instruction refills of the unit's
    /// buffer and the compactions that come with them.
    #[test]
    fn fetch_unit_matches_retired_set_model(
        len in 0u64..400,
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..2000),
    ) {
        let stream: Vec<u64> = (0..len).map(|i| i * 4).collect();
        let mut unit =
            FetchUnit::new(Box::new(VecSource::new(stream.iter().map(|&pc| Instr::nop(pc)))));
        let mut model = ModelFetch { stream, base: 0, cursor: 0, retired: BTreeSet::new() };
        for (kind, pick) in ops {
            match kind {
                // Advance and retire most often, so streams get consumed.
                0..=4 => {
                    if model.peek().is_some() {
                        unit.advance();
                        model.cursor += 1;
                        model.normalize();
                    }
                }
                5 => {
                    let index = model.base + pick % (model.cursor - model.base + 1);
                    unit.rollback(index);
                    model.rollback(index);
                }
                6 => {
                    unit.rollback_to_base();
                    model.rollback(model.base);
                }
                _ => {
                    let unretired: Vec<u64> =
                        (model.base..model.cursor).filter(|i| !model.retired.contains(i)).collect();
                    if !unretired.is_empty() {
                        let index = unretired[(pick % unretired.len() as u64) as usize];
                        unit.retire(index);
                        model.retire(index);
                    }
                }
            }
            prop_assert_eq!(unit.cursor(), model.cursor);
            prop_assert_eq!(unit.peek().map(|i| i.pc), model.peek());
            prop_assert_eq!(unit.is_done(), model.is_done());
            prop_assert_eq!(unit.outstanding(), model.outstanding());
            for index in (model.base..model.cursor).filter(|i| !model.retired.contains(i)) {
                prop_assert_eq!(unit.at(index).pc, model.stream[index as usize]);
            }
        }
    }
}
