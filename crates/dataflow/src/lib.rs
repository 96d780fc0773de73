//! # tako-dataflow — near-cache engine fabric model
//!
//! täkō executes callbacks on a small spatial dataflow fabric next to each
//! L2/L3 bank (Sec 5.3): an array of simple processing elements (PEs)
//! holding a few static instructions each, firing asynchronously when
//! operands arrive, with dynamic tag matching so several callbacks run
//! concurrently. This crate models that fabric's *timing* with a
//! dependence-driven firing model:
//!
//! * Every operation a callback performs is recorded as a node with
//!   operand [`Val`] handles. A node fires when all operands are ready
//!   **and** a PE of the right class (ALU or memory) is free; it completes
//!   `pe_latency` cycles later (memory nodes complete when the memory
//!   system says so).
//! * PE availability is a rolling multi-server pool shared by all
//!   callbacks on the engine, so concurrent callbacks contend for the
//!   fabric exactly as tag-matched threads would.
//! * The same recorded ops can be replayed under three execution models
//!   ([`tako_sim::config::EngineKind`]): the spatial `Dataflow` fabric, an
//!   `InOrderCore` that serializes every op (the prior-NDC design the
//!   paper shows performs poorly), and an `Ideal` engine with unlimited
//!   zero-latency PEs (the upper bound in every figure).
//!
//! The functional side of callbacks (what values they compute) lives in
//! `tako-core`'s `EngineCtx`, which drives this model while reading and
//! writing the simulated memory.
//!
//! # Example
//!
//! ```
//! use tako_dataflow::Fabric;
//! use tako_sim::config::EngineConfig;
//!
//! let mut fabric = Fabric::new(EngineConfig::default_5x5());
//! let mut t = fabric.begin(100);
//! let a = t.alu(&[]);            // fires at 100, ready at 101
//! let b = t.alu(&[]);            // independent: also ready at 101
//! let c = t.alu(&[a, b]);        // dependent: ready at 102
//! assert_eq!(c.ready(), 102);
//! let result = t.finish();
//! assert_eq!(result.completion, 102);
//! assert_eq!(result.instrs, 3);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tako_sim::config::{EngineConfig, EngineKind};
use tako_sim::stats::LatencyHistogram;
use tako_sim::Cycle;

/// A dataflow value: the handle a recorded operation returns, carrying the
/// cycle at which the value becomes available to consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Val {
    ready: Cycle,
}

impl Val {
    /// A value available at `ready` (e.g., a callback argument).
    pub fn at(ready: Cycle) -> Self {
        Val { ready }
    }

    /// The cycle this value is available.
    pub fn ready(self) -> Cycle {
        self.ready
    }
}

/// A rolling pool of `k` identical servers (PEs of one class).
#[derive(Debug, Clone)]
struct PePool {
    free: BinaryHeap<Reverse<Cycle>>,
    unlimited: bool,
}

impl PePool {
    fn new(k: u32) -> Self {
        if k == u32::MAX {
            return PePool {
                free: BinaryHeap::new(),
                unlimited: true,
            };
        }
        let mut free = BinaryHeap::with_capacity(k as usize);
        for _ in 0..k {
            free.push(Reverse(0));
        }
        PePool {
            free,
            unlimited: false,
        }
    }

    /// Reserve a server at or after `ready`; occupy it for `occupancy`
    /// cycles; return the fire time.
    fn reserve(&mut self, ready: Cycle, occupancy: Cycle) -> Cycle {
        if self.unlimited {
            return ready;
        }
        // Replace the earliest-free server in place: one sift-down
        // instead of a pop's sift-down plus a push's sift-up.
        let mut top = self.free.peek_mut().expect("pool has servers");
        let fire = ready.max(top.0);
        *top = Reverse(fire + occupancy);
        fire
    }
}

/// The per-engine fabric state: PE pools shared by all callbacks that run
/// on this engine.
#[derive(Debug, Clone)]
pub struct Fabric {
    cfg: EngineConfig,
    alu: PePool,
    mem: PePool,
    /// Live-token samples (Sec 5.3 reports ≤19 average live tokens).
    pub token_samples: LatencyHistogram,
}

impl Fabric {
    /// A fabric with `cfg`'s PE counts and latencies.
    pub fn new(cfg: EngineConfig) -> Self {
        let (alu_n, mem_n) = match cfg.kind {
            EngineKind::Ideal => (u32::MAX, u32::MAX),
            EngineKind::InOrderCore => (1, 1),
            EngineKind::Dataflow => (cfg.alu_pes, cfg.mem_pes),
        };
        Fabric {
            alu: PePool::new(alu_n),
            mem: PePool::new(mem_n),
            token_samples: LatencyHistogram::new(),
            cfg,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    fn save_pool(pool: &PePool, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.put_bool(pool.unlimited);
        // BinaryHeap iteration order is arbitrary; write a sorted copy so
        // identical pools always serialize to identical bytes.
        let mut busy: Vec<Cycle> = pool.free.iter().map(|Reverse(c)| *c).collect();
        busy.sort_unstable();
        w.put_len(busy.len());
        for c in busy {
            w.put_u64(c);
        }
    }

    fn load_pool(
        pool: &mut PePool,
        what: &str,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::SnapError;
        let unlimited = r.get_bool()?;
        if unlimited != pool.unlimited {
            return Err(SnapError::StateMismatch(format!(
                "{what} PE pool: snapshot unlimited={unlimited}, rebuilt unlimited={}",
                pool.unlimited
            )));
        }
        let n = r.get_len_expect(what, pool.free.len())?;
        let mut free = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            free.push(Reverse(r.get_u64()?));
        }
        pool.free = free;
        Ok(())
    }

    /// Begin recording one callback that becomes eligible at `start`.
    pub fn begin(&mut self, start: Cycle) -> Trace<'_> {
        Trace {
            fabric: self,
            start,
            completion: start,
            seq: start,
            instrs: 0,
            mem_ops: 0,
            live_tokens: 0,
        }
    }
}

impl tako_sim::checkpoint::Snapshot for Fabric {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("fabric");
        Fabric::save_pool(&self.alu, w);
        Fabric::save_pool(&self.mem, w);
        self.token_samples.save(w);
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        r.section("fabric")?;
        Fabric::load_pool(&mut self.alu, "ALU PEs", r)?;
        Fabric::load_pool(&mut self.mem, "memory PEs", r)?;
        self.token_samples.load(r)
    }
}

/// Summary of one executed callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceResult {
    /// Cycle the callback became eligible to run.
    pub start: Cycle,
    /// Cycle the last operation completed.
    pub completion: Cycle,
    /// Fabric instructions executed.
    pub instrs: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
}

impl TraceResult {
    /// Callback latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.completion - self.start
    }
}

/// An in-flight callback recording its operations against the fabric.
#[derive(Debug)]
pub struct Trace<'a> {
    fabric: &'a mut Fabric,
    start: Cycle,
    completion: Cycle,
    /// Program-order cursor for the in-order execution model.
    seq: Cycle,
    instrs: u64,
    mem_ops: u64,
    live_tokens: i64,
}

impl Trace<'_> {
    /// The callback's start cycle.
    pub fn start(&self) -> Cycle {
        self.start
    }

    /// A value representing a callback argument, ready at start.
    pub fn arg(&self) -> Val {
        Val::at(self.start)
    }

    fn deps_ready(&self, deps: &[Val]) -> Cycle {
        deps.iter()
            .map(|v| v.ready)
            .max()
            .unwrap_or(self.start)
            .max(self.start)
    }

    fn note_tokens(&mut self, consumed: usize) {
        self.live_tokens += 1 - consumed as i64;
        self.fabric
            .token_samples
            .record(self.live_tokens.max(0) as u64);
    }

    /// Fabric instructions recorded so far. Live progress for watchdog
    /// and violation diagnostics; [`Trace::finish`] reports the final
    /// count.
    pub fn instrs_so_far(&self) -> u64 {
        self.instrs
    }

    /// Memory operations recorded so far.
    pub fn mem_ops_so_far(&self) -> u64 {
        self.mem_ops
    }

    /// Record one ALU (integer/SIMD) operation consuming `deps`.
    /// SIMD ops across a full cache line count as one fabric instruction,
    /// matching the paper's data-parallel callback code.
    pub fn alu(&mut self, deps: &[Val]) -> Val {
        let ready = self.deps_ready(deps);
        let lat = self.fabric.cfg.pe_latency;
        let done = match self.fabric.cfg.kind {
            EngineKind::Ideal => ready,
            EngineKind::Dataflow => {
                let fire = self.fabric.alu.reserve(ready, lat.max(1));
                fire + lat
            }
            EngineKind::InOrderCore => {
                // Scalar pipeline: strictly program-ordered, one op/cycle.
                let fire = ready.max(self.seq);
                self.seq = fire + 1;
                fire + 1
            }
        };
        self.instrs += 1;
        self.note_tokens(deps.len());
        self.completion = self.completion.max(done);
        Val::at(done)
    }

    /// Record a chain of `n` dependent ALU operations (loop bodies whose
    /// iterations depend on each other).
    pub fn alu_chain(&mut self, deps: &[Val], n: u64) -> Val {
        let mut v = self.alu(deps);
        for _ in 1..n.max(1) {
            v = self.alu(&[v]);
        }
        v
    }

    /// Reserve a memory PE for an access whose operands are `deps`;
    /// returns the cycle the access can be presented to the memory system.
    /// Pair with [`Trace::mem_complete`] once the memory system reports
    /// the completion cycle.
    pub fn mem_fire(&mut self, deps: &[Val]) -> Cycle {
        let ready = self.deps_ready(deps);
        match self.fabric.cfg.kind {
            EngineKind::Ideal => ready,
            EngineKind::Dataflow => {
                // The PE is occupied only for issue; the engine L1d and
                // MSHRs hold the outstanding access.
                self.fabric.mem.reserve(ready, 1)
            }
            EngineKind::InOrderCore => {
                let fire = ready.max(self.seq);
                self.seq = fire + 1;
                fire
            }
        }
    }

    /// Record the completion of a memory access started with
    /// [`Trace::mem_fire`].
    pub fn mem_complete(&mut self, done: Cycle) -> Val {
        self.mem_ops += 1;
        self.instrs += 1;
        self.note_tokens(1);
        if self.fabric.cfg.kind == EngineKind::InOrderCore {
            // Stall-on-use scalar core: later ops wait for the load.
            self.seq = self.seq.max(done);
        }
        self.completion = self.completion.max(done);
        Val::at(done)
    }

    /// Finish the callback and return its timing summary.
    pub fn finish(self) -> TraceResult {
        TraceResult {
            start: self.start,
            completion: self.completion,
            instrs: self.instrs,
            mem_ops: self.mem_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(kind: EngineKind) -> Fabric {
        let mut cfg = EngineConfig::default_5x5();
        cfg.kind = kind;
        if kind == EngineKind::Ideal {
            cfg = EngineConfig::ideal();
        }
        Fabric::new(cfg)
    }

    #[test]
    fn independent_ops_run_in_parallel() {
        let mut f = fabric(EngineKind::Dataflow);
        let mut t = f.begin(0);
        let vals: Vec<Val> = (0..10).map(|_| t.alu(&[])).collect();
        // 15 ALU PEs: 10 independent ops all complete at cycle 1.
        assert!(vals.iter().all(|v| v.ready() == 1));
        assert_eq!(t.finish().completion, 1);
    }

    #[test]
    fn dependences_serialize() {
        let mut f = fabric(EngineKind::Dataflow);
        let mut t = f.begin(5);
        let v = t.alu_chain(&[], 4);
        assert_eq!(v.ready(), 9);
        let r = t.finish();
        assert_eq!(r.latency(), 4);
        assert_eq!(r.instrs, 4);
    }

    #[test]
    fn pe_contention_limits_throughput() {
        let mut cfg = EngineConfig::default_5x5();
        cfg.alu_pes = 2;
        let mut f = Fabric::new(cfg);
        let mut t = f.begin(0);
        let vals: Vec<Val> = (0..6).map(|_| t.alu(&[])).collect();
        // 6 independent ops on 2 PEs: completions 1,1,2,2,3,3.
        let mut readies: Vec<Cycle> = vals.iter().map(|v| v.ready()).collect();
        readies.sort_unstable();
        assert_eq!(readies, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn pe_latency_scales_chains() {
        let mut cfg = EngineConfig::default_5x5();
        cfg.pe_latency = 8;
        let mut f = Fabric::new(cfg);
        let mut t = f.begin(0);
        let v = t.alu_chain(&[], 3);
        assert_eq!(v.ready(), 24);
    }

    #[test]
    fn ideal_alu_is_free() {
        let mut f = fabric(EngineKind::Ideal);
        let mut t = f.begin(10);
        let v = t.alu_chain(&[], 100);
        assert_eq!(v.ready(), 10);
        let fire = t.mem_fire(&[v]);
        assert_eq!(fire, 10);
        let m = t.mem_complete(fire + 50);
        assert_eq!(m.ready(), 60);
        assert_eq!(t.finish().latency(), 50);
    }

    #[test]
    fn in_order_serializes_everything() {
        let mut f = fabric(EngineKind::InOrderCore);
        let mut t = f.begin(0);
        let a = t.alu(&[]);
        let b = t.alu(&[]);
        // Even independent ops go one-at-a-time.
        assert_eq!(a.ready(), 1);
        assert_eq!(b.ready(), 2);
        let fire = t.mem_fire(&[]);
        assert_eq!(fire, 2);
        t.mem_complete(fire + 100);
        // Stall-on-use: the next op waits for the load.
        let c = t.alu(&[]);
        assert_eq!(c.ready(), 103);
    }

    #[test]
    fn dataflow_overlaps_memory() {
        let mut f = fabric(EngineKind::Dataflow);
        let mut t = f.begin(0);
        // Two independent loads overlap on different memory PEs.
        let f1 = t.mem_fire(&[]);
        let f2 = t.mem_fire(&[]);
        assert_eq!(f1, 0);
        assert_eq!(f2, 0);
        let a = t.mem_complete(f1 + 100);
        let b = t.mem_complete(f2 + 100);
        assert_eq!(a.ready(), 100);
        assert_eq!(b.ready(), 100);
        assert_eq!(t.finish().latency(), 100);
    }

    #[test]
    fn concurrent_callbacks_share_pes() {
        let mut cfg = EngineConfig::default_5x5();
        cfg.alu_pes = 1;
        let mut f = Fabric::new(cfg);
        let r1 = {
            let mut t = f.begin(0);
            t.alu(&[]);
            t.finish()
        };
        let r2 = {
            let mut t = f.begin(0);
            t.alu(&[]);
            t.finish()
        };
        // The single PE was taken at cycle 0 by the first callback.
        assert_eq!(r1.completion, 1);
        assert_eq!(r2.completion, 2);
    }

    #[test]
    fn snapshot_roundtrip_preserves_pe_occupancy() {
        use tako_sim::checkpoint::{decode, encode};
        let mut cfg = EngineConfig::default_5x5();
        cfg.alu_pes = 2;
        cfg.mem_pes = 2;
        let mut f = Fabric::new(cfg);
        {
            let mut t = f.begin(0);
            for _ in 0..5 {
                t.alu(&[]);
            }
            let fire = t.mem_fire(&[]);
            t.mem_complete(fire + 40);
            t.finish();
        }
        let snap = encode(&f);
        let mut g = Fabric::new(cfg);
        decode(&snap, &mut g).unwrap();
        // Restored fabric schedules the next callback identically: the
        // busy PEs are still busy.
        let rf = {
            let mut t = f.begin(0);
            t.alu(&[]);
            t.finish()
        };
        let rg = {
            let mut t = g.begin(0);
            t.alu(&[]);
            t.finish()
        };
        assert_eq!(rf, rg);
        assert_eq!(encode(&f), encode(&g));
    }

    #[test]
    fn trace_counts() {
        let mut f = fabric(EngineKind::Dataflow);
        let mut t = f.begin(0);
        assert_eq!(t.instrs_so_far(), 0);
        let v = t.alu(&[]);
        assert_eq!(t.instrs_so_far(), 1);
        let fire = t.mem_fire(&[v]);
        t.mem_complete(fire + 10);
        assert_eq!(t.instrs_so_far(), 2);
        assert_eq!(t.mem_ops_so_far(), 1);
        let r = t.finish();
        assert_eq!(r.instrs, 2);
        assert_eq!(r.mem_ops, 1);
        assert!(f.token_samples.count() > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use tako_sim::config::{EngineConfig, EngineKind};
    use tako_sim::rng::Rng;

    /// A randomized op program: each step either fires an ALU op over a
    /// random subset of previous values or a memory op with a random
    /// latency. Completion times must respect every dependence edge and
    /// the callback's completion must dominate all of them.
    fn run_program(
        kind: EngineKind,
        pe_latency: u64,
        ops: &[(bool, u8, u64)],
    ) -> (Vec<(Val, Vec<usize>)>, TraceResult) {
        let mut cfg = match kind {
            EngineKind::Ideal => EngineConfig::ideal(),
            EngineKind::InOrderCore => EngineConfig::in_order_core(),
            EngineKind::Dataflow => EngineConfig::default_5x5(),
        };
        if kind == EngineKind::Dataflow {
            cfg.pe_latency = pe_latency;
        }
        let mut fabric = Fabric::new(cfg);
        let mut trace = fabric.begin(1000);
        let mut produced: Vec<(Val, Vec<usize>)> = Vec::new();
        for (i, &(is_mem, picks, mem_lat)) in ops.iter().enumerate() {
            // Choose up to 2 dependence edges among earlier values.
            let mut deps_idx = Vec::new();
            if i > 0 {
                deps_idx.push((picks as usize) % i);
                if i > 1 && picks % 3 == 0 {
                    deps_idx.push((picks as usize / 3) % i);
                }
            }
            let deps: Vec<Val> = deps_idx.iter().map(|&j| produced[j].0).collect();
            let v = if is_mem {
                let fire = trace.mem_fire(&deps);
                trace.mem_complete(fire + mem_lat % 200)
            } else {
                trace.alu(&deps)
            };
            produced.push((v, deps_idx));
        }
        (produced, trace.finish())
    }

    // Deterministic randomized tests (the in-tree Rng replaces proptest,
    // which the offline build cannot fetch).

    fn random_ops(rng: &mut Rng, max_len: u64, max_lat: u64) -> Vec<(bool, u8, u64)> {
        let n = 1 + rng.below(max_len) as usize;
        (0..n)
            .map(|_| (rng.chance(0.5), rng.next_u64() as u8, rng.below(max_lat)))
            .collect()
    }

    #[test]
    fn fire_times_respect_dependences() {
        let mut rng = Rng::new(0xF1BE);
        for trial in 0..96 {
            let kind = match trial % 3 {
                0 => EngineKind::Dataflow,
                1 => EngineKind::InOrderCore,
                _ => EngineKind::Ideal,
            };
            let pe_latency = 1 + rng.below(7);
            let ops = random_ops(&mut rng, 39, 200);
            let (produced, result) = run_program(kind, pe_latency, &ops);
            for (v, deps) in &produced {
                for &j in deps {
                    assert!(
                        v.ready() >= produced[j].0.ready(),
                        "value ready before its dependence"
                    );
                }
                assert!(v.ready() >= 1000, "before callback start");
                assert!(result.completion >= v.ready());
            }
            assert_eq!(result.instrs, ops.len() as u64);
            assert_eq!(result.mem_ops, ops.iter().filter(|o| o.0).count() as u64);
        }
    }

    /// `PePool::reserve` replaces the heap top in place; the reference
    /// pops the earliest-free server and pushes it back busy. Over seeded
    /// request sequences both return the same fire times and hold the
    /// same multiset of busy-until cycles.
    #[test]
    fn reserve_matches_pop_push_reference() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = Rng::new(0x9EE7);
        for servers in [1u32, 2, 3, 5, 8] {
            let mut pool = PePool::new(servers);
            let mut reference: BinaryHeap<Reverse<Cycle>> =
                (0..servers).map(|_| Reverse(0)).collect();
            let mut now = 0;
            for step in 0..5000 {
                now += rng.below(4);
                let ready = now + rng.below(6);
                let occupancy = 1 + rng.below(5);
                let Reverse(free_at) = reference.pop().expect("servers");
                let want = ready.max(free_at);
                reference.push(Reverse(want + occupancy));
                assert_eq!(pool.reserve(ready, occupancy), want, "step {step}");
            }
            let mut got: Vec<Cycle> = pool.free.iter().map(|r| r.0).collect();
            let mut want: Vec<Cycle> = reference.iter().map(|r| r.0).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{servers} servers");
        }
    }

    #[test]
    fn in_order_is_never_faster_than_dataflow() {
        let mut rng = Rng::new(0x10DF);
        for _ in 0..64 {
            let ops = random_ops(&mut rng, 29, 100);
            let (_, df) = run_program(EngineKind::Dataflow, 1, &ops);
            let (_, io) = run_program(EngineKind::InOrderCore, 1, &ops);
            let (_, ideal) = run_program(EngineKind::Ideal, 1, &ops);
            assert!(io.completion >= df.completion);
            assert!(df.completion >= ideal.completion);
        }
    }
}
