//! DASH-like directory-coherent multiprocessor substrate (paper
//! Section 5.2) with SPLASH-like synthetic parallel applications.
//!
//! The modeled machine is a set of nodes, each with one (multiple-context)
//! processor, a single-level 64 KB direct-mapped data cache, an ideal
//! instruction cache, and a slice of the distributed shared memory whose
//! coherence is maintained by a full-bit-vector directory protocol
//! (invalidation-based, dirty-remote interventions — the Stanford DASH
//! family). Following the paper's methodology:
//!
//! * the directory protocol is simulated *functionally* to classify every
//!   miss as a local-memory, remote-memory, or remote-cache (dirty
//!   intervention) access, and to generate invalidations;
//! * unloaded miss latencies are *sampled from uniform ranges* per class
//!   (Table 8; the published cells are corrupted — see DESIGN.md for the
//!   reconstruction);
//! * cache contention is modeled (ports busy on fills, interventions and
//!   invalidations), while the network and memories are contentionless.
//!
//! The SPLASH applications are statistical stream models
//! ([`SplashProfile`] / [`SplashThread`]) layering shared-data access
//! patterns (migratory, read-mostly, neighbor exchange) and lock/barrier
//! synchronization over the compute profiles of `interleave-workloads`.
//!
//! [`MpSim`] drives one application over the whole machine and produces
//! the paper's Table 10 speedups and Figure 8/9 execution-time breakdowns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod directory;
mod latency;
mod node;
mod sim;
mod sync;

pub use apps::{splash_suite, SharingPattern, SplashProfile, SplashThread};
pub use directory::{Directory, DirectoryStats, MissClass, MAX_NODES};
pub use latency::LatencyModel;
pub use sim::{MpResult, MpSim, MpSimBuilder};
pub use sync::SyncShard;
