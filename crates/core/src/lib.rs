//! Multiple-context processor models: single, blocked, and interleaved.
//!
//! This crate implements the paper's primary contribution (Section 3): a
//! cycle-level model of a processor that multiplexes several hardware
//! contexts over the seven-stage integer / nine-stage FP pipeline of
//! `interleave-pipeline`, connected to a memory system through the
//! [`SystemPort`] trait (implemented by the workstation hierarchy in
//! `interleave-mem` and by the multiprocessor node in `interleave-mp`).
//!
//! Three scheduling schemes are provided ([`Scheme`]):
//!
//! * **Single** — a conventional single-context processor (the baseline all
//!   speedups are measured against). Lockup-free cache semantics: it stalls
//!   on *use* of a missing value, attributing the wait to data memory.
//! * **Blocked** — Weber & Gupta / APRIL style: one context owns the
//!   pipeline until it takes a cache miss (detected late, in WB), at which
//!   point the *entire* pipeline is flushed (≈7-cycle switch cost) and the
//!   next ready context starts. An explicit switch instruction (cost 3)
//!   tolerates non-miss latencies.
//! * **Interleaved** — the paper's proposal: issue round-robins
//!   cycle-by-cycle over *available* contexts; a context that misses has
//!   only its own instructions squashed (cost = its pipeline occupancy,
//!   1–4 cycles), and a backoff instruction (cost 1) tolerates long
//!   instruction latencies. With one loaded context it behaves exactly
//!   like the single-context pipeline.
//!
//! Every processor cycle is attributed to an execution-time category
//! ([`interleave_stats::Category`]), reproducing the paper's Figures 6–9
//! breakdowns.
//!
//! # Examples
//!
//! ```
//! use interleave_core::{ProcConfig, Processor, Scheme, VecSource};
//! use interleave_isa::{Instr, Reg};
//! use interleave_mem::{MemConfig, UniMemSystem};
//!
//! let cfg = ProcConfig::new(Scheme::Interleaved, 2);
//! let mem = UniMemSystem::new(MemConfig::workstation());
//! let mut cpu = Processor::new(cfg, mem);
//! let thread = |base: u64| {
//!     VecSource::new((0..100).map(|i| Instr::alu(base + i * 4, Some(Reg::int(1)), None, None)))
//! };
//! cpu.attach(0, Box::new(thread(0x1000)));
//! cpu.attach(1, Box::new(thread(0x2000)));
//! cpu.run_until_done(10_000);
//! assert_eq!(cpu.retired(0) + cpu.retired(1), 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod context;
mod events;
mod fetch;
mod ports;
mod processor;

pub use config::{ProcConfig, Scheme, StorePolicy};
pub use context::{CtxView, WaitReason, MAX_CONTEXTS};
pub use fetch::{FetchUnit, InstrSource, VecSource};
pub use ports::{DataOutcome, InstOutcome, PerfectMemory, SyncOutcome, SystemPort};
pub use processor::{IdleBound, IssueRecord, Processor};
