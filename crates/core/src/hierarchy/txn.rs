//! The memory-transaction vocabulary of the staged pipeline.
//!
//! A [`MemTxn`] is one request walking the hierarchy: what kind of
//! access it is, who issued it, which line it touches, and — as the
//! stage functions in `private.rs`, `llc.rs`, and `evict.rs` handle it —
//! a timestamp per stage it passed through. The stamps are bookkeeping
//! only: stages compute timing from their own arguments, so recording a
//! stamp can never perturb the walk (the golden-output test pins this).
//!
//! [`CachePort`] is the face a tag-array level (an L1d, an L2, or an
//! LLC bank) presents to a stage. The port charges its own hit/miss
//! accounting on the [`AccountingBus`] — as `Dram::read_line` charges
//! each line transfer — so a stage cannot forget to count an access,
//! and the `no_alloc` suite can pin the whole port + DRAM + bus hot
//! path as allocation-free.

use tako_cache::array::{CacheArray, EntryMut, EntryRef, InsertKind};
use tako_cpu::AccessKind;
use tako_mem::addr::Addr;
use tako_sim::event::{AccountingBus, LevelId, TxnEvent, TxnSink};
use tako_sim::{Cycle, TileId};

/// What kind of request a [`MemTxn`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Core demand load.
    Read,
    /// Core demand store.
    Write,
    /// Core non-temporal load (streaming scan; bypasses the L2).
    ReadStream,
    /// Core non-temporal store (write-combining; no RFO fetch).
    WriteStream,
    /// Remote memory operation on a SHARED Morph (executes at the bank).
    Rmo,
    /// L2 stride-prefetcher fill.
    Prefetch,
    /// Load issued by a callback running on an engine.
    EngineRead,
    /// Store issued by a callback running on an engine.
    EngineWrite,
}

impl TxnKind {
    /// The core-side kinds, from the CPU's access vocabulary.
    pub fn from_access(kind: AccessKind) -> Self {
        match kind {
            AccessKind::Read => TxnKind::Read,
            AccessKind::Write => TxnKind::Write,
            AccessKind::ReadStream => TxnKind::ReadStream,
            AccessKind::WriteStream => TxnKind::WriteStream,
            AccessKind::Rmo => TxnKind::Rmo,
        }
    }

    /// Does this request want write permission where it lands?
    pub fn is_write(self) -> bool {
        matches!(
            self,
            TxnKind::Write | TxnKind::WriteStream | TxnKind::Rmo | TxnKind::EngineWrite
        )
    }

    /// Is this a non-temporal (streaming) access?
    pub fn is_stream(self) -> bool {
        matches!(self, TxnKind::ReadStream | TxnKind::WriteStream)
    }
}

/// When a transaction arrived at each stage of the pipeline (unset for
/// stages it skipped). Purely observational; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStamps {
    /// Arrival at the requester's L1d tags.
    pub l1: Option<Cycle>,
    /// Arrival at the requester's L2 tags.
    pub l2: Option<Cycle>,
    /// Start of the LLC bank's tag access (post-NoC, post-bank queue).
    pub llc: Option<Cycle>,
    /// Completion of the below-LLC resolve (DRAM and/or `onMiss`).
    pub fill: Option<Cycle>,
}

/// One memory transaction walking the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTxn {
    /// What the request is.
    pub kind: TxnKind,
    /// Requesting tile (for engine fills: the engine's tile).
    pub tile: TileId,
    /// Line-aligned address.
    pub line: Addr,
    /// Cycle the request entered the hierarchy.
    pub issued: Cycle,
    /// Insertion priority its fills carry (trrîp's pollution control).
    pub fill_kind: InsertKind,
    /// Track the requester in the LLC directory (false for engine L1d
    /// fills, which are cluster-coherent with their tile).
    pub track_sharer: bool,
    /// Per-stage arrival timestamps.
    pub stamps: StageStamps,
}

impl MemTxn {
    /// A core-side demand/stream/RMO transaction.
    pub fn core(kind: AccessKind, tile: TileId, line: Addr, t: Cycle) -> Self {
        MemTxn {
            kind: TxnKind::from_access(kind),
            tile,
            line,
            issued: t,
            fill_kind: InsertKind::Demand,
            track_sharer: true,
            stamps: StageStamps::default(),
        }
    }

    /// A prefetcher-issued fill.
    pub fn prefetch(tile: TileId, line: Addr, t: Cycle) -> Self {
        MemTxn {
            kind: TxnKind::Prefetch,
            tile,
            line,
            issued: t,
            fill_kind: InsertKind::Prefetch,
            track_sharer: true,
            stamps: StageStamps::default(),
        }
    }

    /// An engine-issued fill with explicit routing (trrîp insertion
    /// priority, directory tracking).
    pub fn engine(
        tile: TileId,
        write: bool,
        line: Addr,
        t: Cycle,
        fill_kind: InsertKind,
        track_sharer: bool,
    ) -> Self {
        MemTxn {
            kind: if write {
                TxnKind::EngineWrite
            } else {
                TxnKind::EngineRead
            },
            tile,
            line,
            issued: t,
            fill_kind,
            track_sharer,
            stamps: StageStamps::default(),
        }
    }

    /// Does this transaction want write permission?
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

/// A port over one tag array (an L1d, an L2, or an LLC bank) that
/// charges the level's hit/miss accounting for the stage.
pub struct CachePort<'a> {
    array: &'a mut CacheArray,
    level: LevelId,
}

impl<'a> CachePort<'a> {
    /// A port over `array`, tagging events with `level`.
    #[inline(always)]
    pub fn new(array: &'a mut CacheArray, level: LevelId) -> Self {
        CachePort { array, level }
    }

    /// Promote-on-hit tag lookup, charging this level's hit or miss on
    /// `bus`. The returned handle is the promoted line; demand stages
    /// update its state bits (dirty, prefetched, sharers) through it.
    ///
    /// always-inlined: this is the per-access tag walk, and the walk
    /// bodies it replaced had it inlined at every use site.
    #[inline(always)]
    pub fn lookup_counted(&mut self, line: Addr, bus: &mut AccountingBus) -> Option<EntryMut<'_>> {
        match self.array.lookup(line) {
            Some(e) => {
                bus.emit(TxnEvent::Hit(self.level));
                Some(e)
            }
            None => {
                bus.emit(TxnEvent::Miss(self.level));
                None
            }
        }
    }

    /// Non-promoting tag probe, charging this level's hit or miss on
    /// `bus` (the non-temporal shape: scans must stay cold).
    #[inline(always)]
    pub fn probe_counted(&mut self, line: Addr, bus: &mut AccountingBus) -> Option<EntryRef<'_>> {
        match self.array.probe(line) {
            Some(e) => {
                bus.emit(TxnEvent::Hit(self.level));
                Some(e)
            }
            None => {
                bus.emit(TxnEvent::Miss(self.level));
                None
            }
        }
    }

    /// The *streaming* read shape: a non-promoting presence check plus
    /// the level's service latency, for paths that must not disturb
    /// replacement state (non-temporal scans). Returns the cycle
    /// `line`'s data can be consumed for a request arriving at `t`, or
    /// `None` on a miss (after charging it).
    pub fn serve(&mut self, line: Addr, t: Cycle, bus: &mut AccountingBus) -> Option<Cycle> {
        let data_latency = self.array.config().data_latency;
        self.probe_counted(line, bus)
            .map(|e| t.max(e.ready_at()) + data_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::config::SystemConfig;
    use tako_sim::fault::FaultInjector;
    use tako_sim::stats::Counter;

    #[test]
    fn core_txn_maps_access_kinds() {
        let t = MemTxn::core(AccessKind::Write, 3, 128, 10);
        assert_eq!(t.kind, TxnKind::Write);
        assert!(t.is_write() && t.track_sharer);
        assert_eq!((t.tile, t.line, t.issued), (3, 128, 10));
        assert_eq!(t.stamps, StageStamps::default());
        assert!(TxnKind::from_access(AccessKind::ReadStream).is_stream());
        assert!(!MemTxn::prefetch(0, 0, 0).is_write());
        let e = MemTxn::engine(1, true, 64, 5, InsertKind::Engine, false);
        assert_eq!(e.kind, TxnKind::EngineWrite);
        assert!(!e.track_sharer);
    }

    #[test]
    fn cache_port_counts_and_promotes() {
        let cfg = SystemConfig::default_16core();
        let mut array = CacheArray::new(cfg.l1d);
        let mut bus = AccountingBus::new(FaultInjector::new(None));
        let mut port = CachePort::new(&mut array, LevelId::L1d);
        assert!(port.serve(0, 5, &mut bus).is_none());
        assert_eq!(bus.stats.get(Counter::L1dMiss), 1);
        port.array.insert(0, false, false, InsertKind::Demand, 7);
        let served = port.serve(0, 5, &mut bus).expect("hit");
        assert_eq!(served, 7 + cfg.l1d.data_latency);
        assert_eq!(bus.stats.get(Counter::L1dHit), 1);
        assert!(port.lookup_counted(0, &mut bus).is_some());
        assert_eq!(bus.stats.get(Counter::L1dHit), 2);
    }
}
