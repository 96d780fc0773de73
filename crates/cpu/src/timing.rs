//! Per-core clock with memory-level parallelism.
//!
//! [`CoreTiming`] models what the evaluation needs from a core: how much
//! latency loads expose, how compute throughput scales with issue width,
//! and how mispredictions interrupt the pipeline. An out-of-order core
//! keeps up to `mlp_window` loads in flight and only stalls when the
//! window fills or a dependent access needs a previous load's value; an
//! in-order core ([`tako_sim::config::CoreKind::InOrder`]) stalls on
//! every load.

use tako_sim::config::{CoreConfig, CoreKind};
use tako_sim::Cycle;

/// The timing state of one core.
///
/// The in-flight window is an unordered `Vec` rather than a heap: it
/// holds at most `mlp_window` (single-digit) completion cycles, and at
/// that size a linear min/sweep beats heap maintenance on every load —
/// this is the innermost per-access loop of the whole simulator.
#[derive(Debug, Clone)]
pub struct CoreTiming {
    cfg: CoreConfig,
    now: Cycle,
    outstanding: Vec<Cycle>,
    last_load_done: Cycle,
    instr_acc: u64,
    instrs_retired: u64,
}

impl CoreTiming {
    /// A core at cycle 0.
    pub fn new(cfg: CoreConfig) -> Self {
        let window = match cfg.kind {
            CoreKind::InOrder => 1,
            CoreKind::OutOfOrder => cfg.mlp_window.max(1) as usize,
        };
        CoreTiming {
            cfg,
            now: 0,
            outstanding: Vec::with_capacity(window),
            last_load_done: 0,
            instr_acc: 0,
            instrs_retired: 0,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The core-local clock: the cycle the next instruction issues.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Completion cycle of the most recent load (for dependent accesses).
    pub fn last_load_done(&self) -> Cycle {
        self.last_load_done
    }

    /// Instructions retired so far.
    pub fn instrs_retired(&self) -> u64 {
        self.instrs_retired
    }

    fn window(&self) -> usize {
        match self.cfg.kind {
            CoreKind::InOrder => 1,
            CoreKind::OutOfOrder => self.cfg.mlp_window.max(1) as usize,
        }
    }

    #[inline]
    fn pop_completed(&mut self) {
        let now = self.now;
        let mut i = 0;
        while i < self.outstanding.len() {
            if self.outstanding[i] <= now {
                self.outstanding.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Retire `n` non-memory instructions at the core's issue width.
    pub fn compute(&mut self, n: u64) {
        self.instrs_retired += n;
        self.instr_acc += n;
        let width = u64::from(self.cfg.width.max(1));
        // Almost every call adds one or two instructions: below two
        // widths the quotient is 0 or 1, so skip both divisions.
        if self.instr_acc < width {
            return;
        }
        if self.instr_acc < 2 * width {
            self.now += 1;
            self.instr_acc -= width;
            return;
        }
        self.now += self.instr_acc / width;
        self.instr_acc %= width;
    }

    /// Account for one conditional branch; `mispredicted` charges the
    /// pipeline-flush penalty.
    pub fn branch(&mut self, mispredicted: bool) {
        self.compute(1);
        if mispredicted {
            self.now += self.cfg.mispredict_penalty;
            // A flush also squashes the in-flight window's overlap.
            self.instr_acc = 0;
        }
    }

    /// Begin a load: returns the cycle the access should be presented to
    /// the memory system. `depends_on_last_load` serializes behind the
    /// previous load (pointer chasing / data-dependent addressing).
    pub fn load_issue(&mut self, depends_on_last_load: bool) -> Cycle {
        self.instrs_retired += 1;
        if depends_on_last_load {
            self.now = self.now.max(self.last_load_done);
        }
        self.pop_completed();
        if self.outstanding.len() >= self.window() {
            // Window full: wait for the earliest in-flight load.
            if let Some(i) = self
                .outstanding
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
            {
                let c = self.outstanding.swap_remove(i);
                self.now = self.now.max(c);
            }
            self.pop_completed();
        }
        let issue = self.now;
        self.now += 1;
        issue
    }

    /// Finish a load whose memory access completes at `done`.
    /// Returns the exposed load-to-use latency.
    pub fn load_complete(&mut self, issue: Cycle, done: Cycle) -> Cycle {
        self.last_load_done = done;
        match self.cfg.kind {
            CoreKind::InOrder => {
                // Stall-on-use approximated as stall-on-completion.
                self.now = self.now.max(done);
            }
            CoreKind::OutOfOrder => {
                self.outstanding.push(done);
            }
        }
        done.saturating_sub(issue)
    }

    /// Account for a posted store or remote memory operation: occupies an
    /// issue slot but does not block the core.
    pub fn post_write(&mut self) -> Cycle {
        self.instrs_retired += 1;
        let issue = self.now;
        self.now += 1;
        issue
    }

    /// Wait for all outstanding loads and any external event at `until`.
    pub fn stall_until(&mut self, until: Cycle) {
        self.now = self.now.max(until);
        self.pop_completed();
    }

    /// Drain the window: the cycle at which the core is fully idle.
    pub fn drain(&mut self) -> Cycle {
        let last = self.outstanding.iter().copied().max().unwrap_or(0);
        self.now = self.now.max(last);
        self.outstanding.clear();
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ooo() -> CoreTiming {
        CoreTiming::new(CoreConfig::goldmont())
    }

    fn inorder() -> CoreTiming {
        CoreTiming::new(CoreConfig::in_order())
    }

    #[test]
    fn compute_scales_with_width() {
        let mut c = ooo(); // width 3
        c.compute(9);
        assert_eq!(c.now(), 3);
        c.compute(1);
        assert_eq!(c.now(), 3); // accumulates fractional issue
        c.compute(2);
        assert_eq!(c.now(), 4);
        assert_eq!(c.instrs_retired(), 12);
    }

    #[test]
    fn ooo_overlaps_independent_loads() {
        let mut c = ooo(); // window 8
        let mut dones = Vec::new();
        for _ in 0..8 {
            let issue = c.load_issue(false);
            dones.push(c.load_complete(issue, issue + 100));
        }
        // 8 loads issued back-to-back: clock advanced only 8 cycles.
        assert_eq!(c.now(), 8);
        assert_eq!(c.drain(), 107);
        let _ = dones;
    }

    #[test]
    fn window_fills_and_stalls() {
        let mut c = ooo();
        for _ in 0..9 {
            let issue = c.load_issue(false);
            c.load_complete(issue, issue + 100);
        }
        // 9th load waited for the 1st to complete (cycle 100).
        assert!(c.now() >= 100);
    }

    #[test]
    fn dependent_load_serializes() {
        let mut c = ooo();
        let i1 = c.load_issue(false);
        c.load_complete(i1, i1 + 100);
        let i2 = c.load_issue(true);
        assert!(i2 >= 100, "dependent load issued at {i2}");
    }

    #[test]
    fn in_order_stalls_every_load() {
        let mut c = inorder();
        for k in 0..4u64 {
            let issue = c.load_issue(false);
            assert_eq!(issue, k * 100);
            c.load_complete(issue, issue + 100);
        }
        assert_eq!(c.now(), 400);
    }

    #[test]
    fn mispredict_penalty_charged() {
        let mut c = CoreTiming::new(CoreConfig::in_order()); // width 1
        c.branch(false);
        assert_eq!(c.now(), 1);
        c.branch(true);
        // 1 issue cycle + 8-cycle in-order flush penalty.
        assert_eq!(c.now(), 1 + 1 + 8);
    }

    /// `compute` skips its divisions below two issue widths; the
    /// reference always divides. Over seeded runs of `compute(n)` for
    /// `n` up to 100, interleaved with flushing mispredictions, both keep
    /// the same clock and the same leftover instruction count.
    #[test]
    fn compute_matches_division_form() {
        let mut rng = tako_sim::rng::Rng::new(0xC0DE);
        for width in 1..=4u32 {
            let mut cfg = CoreConfig::goldmont();
            cfg.width = width;
            let mut c = CoreTiming::new(cfg);
            let (mut now, mut acc) = (0u64, 0u64);
            for step in 0..20_000 {
                if rng.chance(0.05) {
                    c.branch(true);
                    acc += 1;
                    now += acc / u64::from(width) + cfg.mispredict_penalty;
                    acc = 0;
                } else {
                    // Mostly the small counts the hot path sees.
                    let n = if rng.chance(0.7) {
                        rng.below(3)
                    } else {
                        rng.below(101)
                    };
                    c.compute(n);
                    acc += n;
                    now += acc / u64::from(width);
                    acc %= u64::from(width);
                }
                assert_eq!(
                    (c.now(), c.instr_acc),
                    (now, acc),
                    "width {width} step {step}"
                );
            }
        }
    }

    #[test]
    fn stores_do_not_block() {
        let mut c = ooo();
        for _ in 0..100 {
            c.post_write();
        }
        assert_eq!(c.now(), 100);
    }

    #[test]
    fn load_latency_reported() {
        let mut c = ooo();
        let issue = c.load_issue(false);
        let lat = c.load_complete(issue, issue + 42);
        assert_eq!(lat, 42);
    }

    #[test]
    fn stall_until_and_drain() {
        let mut c = ooo();
        let issue = c.load_issue(false);
        c.load_complete(issue, issue + 10);
        c.stall_until(500);
        assert_eq!(c.now(), 500);
        assert_eq!(c.drain(), 500);
    }
}
