//! Instrumentation layer for the interleave simulator.
//!
//! This crate is the measurement substrate the rest of the workspace
//! reports through. It deliberately depends on nothing (not even the
//! other `interleave-*` crates) so every layer of the stack can use it:
//!
//! * [`Counter`] — a monotonically increasing `u64` event counter.
//! * [`Histogram`] — a power-of-two bucketed value distribution
//!   (run lengths, miss latencies, ...).
//! * [`Registry`] — a deterministic, name-sorted snapshot of metrics
//!   collected from simulator components after a run.
//! * [`chrome`] — a Chrome trace-event JSON builder and validator so
//!   per-context pipeline timelines can be opened in Perfetto or
//!   `chrome://tracing`.
//! * [`json`] — a minimal JSON parser used by the trace validator and
//!   the schema tests (the workspace is offline; no serde).
//! * [`validate`] — the shared [`validate::Violation`] report type and
//!   enable logic for the workspace-wide invariant checkers.
//! * [`profile`] — the hierarchical host-phase self-profiler: timed
//!   scopes and clock-free marks accumulate per thread and fold into a
//!   [`profile::PhaseProfile`], a name-sorted field-wise sum.
//! * [`bus`] — a latest-wins watch channel ([`bus::Watch`]) the sweep
//!   runner publishes live per-cell telemetry snapshots through.
//!
//! # Overhead when disabled
//!
//! Counters and histograms are plain integer fields bumped at *event*
//! sites (a cache miss, a squash, a context switch), never per cycle,
//! and every recording method is `#[inline]` — the enabled cost is an
//! add or a compare per event. The only per-cycle instrumentation is
//! the issue trace consumed by the Chrome exporter, and that stays
//! behind the processor's existing `Option`-gated trace buffer: when
//! tracing is off the per-cycle cost is a single branch on `None`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod chrome;
mod counter;
mod histogram;
pub mod json;
pub mod profile;
mod registry;
pub mod validate;

pub use counter::Counter;
pub use histogram::Histogram;
pub use registry::{Metric, Registry};
