//! Cycle attribution, execution-time breakdowns, and report rendering.
//!
//! The paper's evaluation (Figures 6–9, Tables 7 and 10) presents processor
//! time divided into categories: busy, pipeline-dependency stalls (short and
//! long), instruction-memory stalls, data-memory stalls, synchronization,
//! and context-switch overhead. This crate provides:
//!
//! * [`Category`] / [`Breakdown`] — per-cycle attribution counters,
//! * [`Table`] — a minimal aligned ASCII table renderer used by every
//!   benchmark harness to print the paper's tables and figure series,
//! * [`summary`] — the geometric mean and ratio formatting of Tables 7 and 10.
//!
//! # Examples
//!
//! ```
//! use interleave_stats::{Breakdown, Category};
//!
//! let mut b = Breakdown::new();
//! b.record(Category::Busy, 70);
//! b.record(Category::DataMem, 30);
//! assert_eq!(b.total(), 100);
//! assert!((b.fraction(Category::Busy) - 0.7).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
pub mod summary;
mod table;

pub use breakdown::{Breakdown, Category};
pub use table::Table;
