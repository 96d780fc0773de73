//! # tako-cache — cache building blocks
//!
//! Reusable components of the simulated cache hierarchy:
//!
//! * [`mod@array`] — set-associative tag/state arrays with pluggable
//!   replacement ([`tako_sim::config::ReplPolicy`]): LRU, SRRIP, and the
//!   paper's **trrîp** (Sec 5.2), which inserts engine-issued fills at
//!   distant re-reference priority and guarantees that every set keeps at
//!   least one line whose eviction triggers no callback (the deadlock-
//!   avoidance invariant of Sec 5.2).
//! * [`mshr`] — miss-status holding registers: merge secondary misses and
//!   bound outstanding fills.
//! * [`prefetch`] — the L2 stride prefetcher of Table 3. In the HATS case
//!   study this is the component that drives decoupling: its prefetches
//!   into a phantom range trigger `onMiss` ahead of the core.
//!
//! The hierarchy walk itself (which level talks to which, coherence,
//! callback interposition) lives in `tako-core`, which assembles these
//! blocks into a full system.

pub mod array;
pub mod mshr;
pub mod prefetch;

pub use array::{
    CacheArray, EntryMut, EntryRef, EvictCause, EvictEvent, InsertKind, Placed, TagEntry,
};
pub use mshr::MshrFile;
pub use prefetch::{PrefetchBatch, StridePrefetcher};
