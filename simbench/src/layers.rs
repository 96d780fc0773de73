//! Per-run records and the per-layer numbers derived from them: exact
//! simulated counts from each run's `Stats`, the stage profile and
//! latency histograms from the armed observer, and the `sim_digest`.

use tako_sim::digest::Sha256;
use tako_sim::stats::{Counter, Stats};
use tako_sim::trace::{Stage, TraceReport};
use tako_workloads::common::RunResult;

use crate::host::ratio;

/// One finished simulation: the unit the benchmark checks, counts and
/// digests.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub label: &'static str,
    pub cycles: u64,
    pub energy_uj: f64,
    pub stats: Stats,
}

impl RunRecord {
    pub fn new(label: &'static str, run: &RunResult) -> Self {
        RunRecord {
            label,
            cycles: run.cycles,
            energy_uj: run.energy_uj,
            stats: run.stats.clone(),
        }
    }

    /// Health counters that must stay zero on every run.
    pub fn health_problems(&self) -> Vec<String> {
        [
            Counter::MorphQuarantined,
            Counter::InvariantViolation,
            Counter::WatchdogStallEvents,
            Counter::CbDegraded,
        ]
        .iter()
        .filter(|&&c| self.stats.get(c) != 0)
        .map(|&c| format!("{} {}={}", self.label, c.name(), self.stats.get(c)))
        .collect()
    }
}

/// SHA-256 over every run's label, cycles, energy bits and every
/// counter, then over `extra` (harness text). Identical simulated
/// statistics give an identical digest.
pub fn sim_digest(runs: &[RunRecord], extra: &str) -> String {
    let mut h = Sha256::new();
    for r in runs {
        h.update(r.label.as_bytes());
        h.update(&r.cycles.to_le_bytes());
        h.update(&r.energy_uj.to_bits().to_le_bytes());
        for c in Counter::ALL {
            h.update(&r.stats.get(c).to_le_bytes());
        }
    }
    h.update(extra.as_bytes());
    h.finish_hex()
}

/// Exact simulated counts summed over `runs` (each distinct run once),
/// with their units.
pub fn exact_counts(runs: &[RunRecord]) -> Vec<(&'static str, f64, &'static str)> {
    let g = |c: Counter| runs.iter().map(|r| r.stats.get(c)).sum::<u64>() as f64;
    let share = |part: f64, whole: f64| (ratio(part, whole), "ratio");
    let hit_rate = |hit: Counter, miss: Counter| share(g(hit), g(hit) + g(miss));
    let count = |c: Counter| (g(c), "count");
    [
        ("cpu.instrs", count(Counter::CoreInstr)),
        ("cpu.loads", count(Counter::CoreLoad)),
        ("cpu.stores", count(Counter::CoreStore)),
        ("cpu.rmos", count(Counter::CoreRmo)),
        (
            "cpu.mispredict_rate",
            share(g(Counter::BranchMispredict), g(Counter::CoreBranch)),
        ),
        (
            "cache.l1d.accesses",
            (g(Counter::L1dHit) + g(Counter::L1dMiss), "count"),
        ),
        (
            "cache.l1d.hit_rate",
            hit_rate(Counter::L1dHit, Counter::L1dMiss),
        ),
        (
            "cache.l2.hit_rate",
            hit_rate(Counter::L2Hit, Counter::L2Miss),
        ),
        (
            "cache.llc.hit_rate",
            hit_rate(Counter::LlcHit, Counter::LlcMiss),
        ),
        ("cache.l2.writebacks", count(Counter::L2Writeback)),
        ("cache.llc.writebacks", count(Counter::LlcWriteback)),
        (
            "cache.prefetch.useful_ratio",
            share(g(Counter::PrefetchUseful), g(Counter::PrefetchIssued)),
        ),
        ("cache.mshr.stalls", count(Counter::MshrStall)),
        ("mem.dram.reads", count(Counter::DramRead)),
        ("mem.dram.writes", count(Counter::DramWrite)),
        ("noc.flit_hops", count(Counter::NocFlitHops)),
        ("dataflow.engine_instrs", count(Counter::EngineInstr)),
        ("dataflow.engine_mem_ops", count(Counter::EngineMemOp)),
        (
            "dataflow.rtlb_hit_rate",
            hit_rate(Counter::RtlbHit, Counter::RtlbMiss),
        ),
        ("core.cb.on_miss", count(Counter::CbOnMiss)),
        ("core.cb.on_eviction", count(Counter::CbOnEviction)),
        ("core.cb.on_writeback", count(Counter::CbOnWriteback)),
        (
            "core.cb.buffer_stall_cycles",
            (g(Counter::CbBufferStallCycles), "cycles"),
        ),
        ("core.flushed_lines", count(Counter::FlushedLines)),
    ]
    .into_iter()
    .map(|(name, (v, unit))| (name, v, unit))
    .collect()
}

/// Stage profile and latency figures from one drained observer report,
/// with their units.
pub fn trace_counts(report: &TraceReport) -> Vec<(String, f64, &'static str)> {
    let p = &report.profile;
    let mut out = Vec::new();
    for s in Stage::ALL {
        let key = s.name().to_ascii_lowercase();
        out.push((
            format!("trace.stage.{key}.visits"),
            p.visits(s) as f64,
            "count",
        ));
        out.push((
            format!("trace.stage.{key}.cycles"),
            p.cycles(s) as f64,
            "cycles",
        ));
    }
    out.push((
        "trace.miss_latency_mean".into(),
        report.miss_latency.mean(),
        "cycles",
    ));
    out.push((
        "trace.callback_latency_mean".into(),
        report.callback_latency.mean(),
        "cycles",
    ));
    out.push((
        "trace.events_dropped".into(),
        report.events_dropped as f64,
        "count",
    ));
    out
}
