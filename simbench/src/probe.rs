//! Self-checking probes of single layers, timed from outside the
//! program: host ns per `MemSystem::timed_access` at each cache level,
//! and the cost of a whole-system snapshot and restore.

use std::time::Instant;

use tako_core::TakoSystem;
use tako_cpu::{AccessKind, MemSystem};
use tako_mem::addr::Addr;
use tako_sim::config::SystemConfig;
use tako_sim::rng::Rng;
use tako_sim::stats::Counter;

use crate::host::median;

const LINE: u64 = 64;
/// Timed accesses per chunk, and chunks per level (median of chunks).
const CHUNK: usize = 20_000;
const CHUNKS: usize = 5;
/// Share of a stream's accesses that must be served at its level.
const MIN_SHARE: f64 = 0.9;

/// One level's stream: which lines it touches, and which counter says
/// an access was served there.
struct Stream {
    name: &'static str,
    lines: u64,
    shuffled: bool,
    warm: bool,
    served: Counter,
}

/// The four streams, sized against `cfg`. Sequential streams fit their
/// level and overflow the one above it (the stride prefetcher only
/// helps them stay there); the LLC and DRAM streams are shuffled so the
/// prefetcher cannot pull them into the L2.
fn streams(cfg: &SystemConfig) -> [Stream; 4] {
    let llc_bytes = cfg.llc_bank.size_bytes * cfg.tiles as u64;
    [
        Stream {
            name: "l1_hit",
            lines: cfg.l1d.size_bytes / 2 / LINE,
            shuffled: false,
            warm: true,
            served: Counter::L1dHit,
        },
        Stream {
            name: "l2_hit",
            lines: cfg.l2.size_bytes * 3 / 4 / LINE,
            shuffled: false,
            warm: true,
            served: Counter::L2Hit,
        },
        Stream {
            name: "llc_hit",
            lines: llc_bytes / 4 / LINE,
            shuffled: true,
            warm: true,
            served: Counter::LlcHit,
        },
        Stream {
            // Every access touches a line never seen before.
            name: "dram",
            lines: (CHUNK * CHUNKS) as u64,
            shuffled: true,
            warm: false,
            served: Counter::LlcMiss,
        },
    ]
}

/// Result of the access probe: host ns per access at each level, the
/// share of each stream served where it should be, and the last
/// system driven (handed to the snapshot probe).
pub struct AccessProbe {
    pub ns: Vec<(&'static str, f64, f64)>,
    pub last: TakoSystem,
}

impl AccessProbe {
    /// Streams that did not land at the level they name.
    pub fn misplaced(&self) -> Vec<String> {
        self.ns
            .iter()
            .filter(|(_, _, share)| *share < MIN_SHARE)
            .map(|(name, _, share)| {
                format!("{name}: only {:.1}% served at its level", share * 100.0)
            })
            .collect()
    }
}

/// Drive each stream through `timed_access` from tile 0 on a fresh
/// system, with each access issued when the previous one completes.
pub fn access(seed: u64) -> AccessProbe {
    let cfg = SystemConfig::default_16core();
    let mut ns = Vec::new();
    let mut last = None;
    for st in streams(&cfg) {
        let mut sys = TakoSystem::new(cfg.clone());
        // The DRAM stream draws from a region 16x its length.
        let span_lines = if st.warm { st.lines } else { st.lines * 16 };
        let base = sys.alloc_real(span_lines * LINE).base;
        let mut order: Vec<Addr> = (0..span_lines).map(|l| base + l * LINE).collect();
        if st.shuffled {
            Rng::new(seed).shuffle(&mut order);
        }
        let mut now = 0;
        let mut at = 0usize;
        let mut next = |sys: &mut TakoSystem, now: &mut u64| {
            let a = order[at % order.len()];
            at += 1;
            *now = sys.timed_access(0, AccessKind::Read, a, *now);
        };
        if st.warm {
            for _ in 0..2 * st.lines {
                next(&mut sys, &mut now);
            }
        }
        let before = sys.stats_view().get(st.served);
        let mut chunk_ns = Vec::new();
        for _ in 0..CHUNKS {
            let t0 = Instant::now();
            for _ in 0..CHUNK {
                next(&mut sys, &mut now);
            }
            chunk_ns.push(t0.elapsed().as_nanos() as f64 / CHUNK as f64);
        }
        let served = sys.stats_view().get(st.served) - before;
        let share = served as f64 / (CHUNK * CHUNKS) as f64;
        eprintln!(
            "simbench: probe {}: {:.1}% served at its level",
            st.name,
            share * 100.0
        );
        ns.push((st.name, median(&chunk_ns), share));
        last = Some(sys);
    }
    AccessProbe {
        ns,
        last: last.expect("four streams"),
    }
}

/// Snapshot cost of `sys`: median ms to snapshot, median ms to restore
/// into a freshly built system of the same configuration, the snapshot
/// size, and whether snapshot → restore → snapshot gave identical bytes.
pub struct SnapshotProbe {
    pub snapshot_ms: f64,
    pub restore_ms: f64,
    pub bytes: usize,
    pub round_trip_ok: bool,
}

pub fn snapshot(sys: &TakoSystem) -> SnapshotProbe {
    const REPS: usize = 5;
    let mut snap_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let bytes = sys.snapshot_bytes();
    let mut round_trip_ok = true;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let b = sys.snapshot_bytes();
        snap_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        round_trip_ok &= b == bytes;

        let mut fresh = TakoSystem::new(sys.config().clone());
        let t0 = Instant::now();
        let restored = fresh.restore_bytes(&bytes);
        restore_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        round_trip_ok &= restored.is_ok() && fresh.snapshot_bytes() == bytes;
    }
    SnapshotProbe {
        snapshot_ms: median(&snap_ms),
        restore_ms: median(&restore_ms),
        bytes: bytes.len(),
        round_trip_ok,
    }
}
