//! One simulation per distinct run (DESIGN.md §7e).
//!
//! Several figures plot the same runs: Fig 13/14 render one PHI sweep,
//! Fig 16/17 one HATS sweep, and the sensitivity sweeps share their
//! baselines. A [`RunMemo`] lives for one suite invocation
//! ([`run_all_catch`](crate::run_all_catch) or
//! [`run_campaign`](crate::campaign::run_campaign)) and is armed on
//! every worker thread with a [`MemoScope`]. Every harness simulation
//! goes through [`cached`]: under an armed memo the first request for a
//! key simulates, and every later request shares the same `Arc`'d
//! result. A harness called on its own has no memo, and `cached` just
//! runs the simulation.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A finished run's result, type-erased.
type Entry = Arc<dyn Any + Send + Sync>;

/// What a memo did over a suite invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Distinct runs simulated.
    pub distinct_runs: u64,
    /// Run requests served from the memo instead of simulating.
    pub memo_hits: u64,
}

/// The run memo of one suite invocation: full key rendering → the
/// run's shared result.
#[derive(Default)]
pub struct RunMemo {
    /// One cell per key; a worker that asks for a key another worker
    /// is simulating blocks on the cell instead of simulating it again.
    runs: Mutex<HashMap<String, Arc<OnceLock<Entry>>>>,
    distinct: AtomicU64,
    hits: AtomicU64,
}

impl RunMemo {
    /// The tally so far.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            distinct_runs: self.distinct.load(Ordering::Relaxed),
            memo_hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Arm this memo on the calling thread until the scope drops.
    pub fn arm(self: &Arc<Self>) -> MemoScope {
        MemoScope {
            prev: ACTIVE.with(|a| a.replace(Some(Arc::clone(self)))),
        }
    }

    fn cell(&self, key: String) -> Arc<OnceLock<Entry>> {
        // Simulations run outside the lock, and inserting an empty cell
        // leaves the map valid at every step, so a poisoned lock is safe
        // to take over.
        let mut runs = self.runs.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(runs.entry(key).or_default())
    }
}

/// RAII scope for an armed memo; dropping restores whatever was armed
/// before (including during a panic unwind, so a dead experiment never
/// leaks its suite's memo into unrelated work on the same thread).
pub struct MemoScope {
    prev: Option<Arc<RunMemo>>,
}

impl Drop for MemoScope {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<RunMemo>>> = const { RefCell::new(None) };
    /// Run requests issued on this thread under an armed memo.
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

/// Run requests issued on the calling thread so far (per-experiment
/// counts are differences of this).
pub(crate) fn requests() -> u64 {
    REQUESTS.with(Cell::get)
}

/// The shared result of the run named `key`, simulating it with `run`
/// only if no earlier request in this suite did. The key is the full
/// `Debug` rendering of everything the run depends on — workload,
/// variant, parameters and `SystemConfig` — so coincident points of
/// different figures dedup without being declared.
///
/// # Panics
///
/// If one key is requested as two different result types.
pub fn cached<K: Debug, R: Send + Sync + 'static>(key: K, run: impl FnOnce() -> R) -> Arc<R> {
    let Some(memo) = ACTIVE.with(|a| a.borrow().clone()) else {
        return Arc::new(run());
    };
    REQUESTS.with(|n| n.set(n.get() + 1));
    let key = format!("{key:?}");
    let mut simulated = false;
    let entry = memo
        .cell(key.clone())
        .get_or_init(|| {
            simulated = true;
            Arc::new(run()) as Entry
        })
        .clone();
    let tally = if simulated {
        &memo.distinct
    } else {
        &memo.hits
    };
    tally.fetch_add(1, Ordering::Relaxed);
    entry
        .downcast()
        .unwrap_or_else(|_| panic!("run {key} requested as two result types"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_a_memo_every_request_runs() {
        let mut calls = 0;
        for _ in 0..2 {
            let r = cached("k", || {
                calls += 1;
                7u64
            });
            assert_eq!(*r, 7);
        }
        assert_eq!(calls, 2);
    }

    #[test]
    fn an_armed_memo_runs_each_key_once_and_shares_it() {
        let memo = Arc::new(RunMemo::default());
        let _scope = memo.arm();
        let a = cached(("w", 1), || vec![1u64, 2]);
        let b = cached(("w", 1), || unreachable!("second request simulates"));
        let c = cached(("w", 2), || vec![3u64]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*c, vec![3]);
        assert_eq!(
            memo.stats(),
            MemoStats {
                distinct_runs: 2,
                memo_hits: 1
            }
        );
    }

    #[test]
    fn concurrent_requests_for_one_key_simulate_once() {
        let memo = Arc::new(RunMemo::default());
        let runs = AtomicU64::new(0);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _scope = memo.arm();
                    start.wait();
                    cached("same", || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        1u64
                    })
                });
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(memo.stats().distinct_runs + memo.stats().memo_hits, 4);
    }

    #[test]
    fn a_dropped_scope_disarms() {
        {
            let _scope = Arc::new(RunMemo::default()).arm();
        }
        assert!(ACTIVE.with(|a| a.borrow().is_none()));
    }
}
