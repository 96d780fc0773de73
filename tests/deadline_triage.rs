//! A deadline kill under armed tracing: the triage bundle carries the
//! observer's timed event tail alongside the machine state, the
//! fault-plan cursor and the resume line.
//!
//! In its own test binary because tracing is armed process-wide: every
//! hierarchy built while it is armed attaches an observer, so arming
//! here must not leak into other tests.

use std::time::Duration;

use tako::core::TakoSystem;
use tako::cpu::{AccessKind, MemSystem};
use tako::sim::config::SystemConfig;
use tako::sim::rng::Rng;
use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{Experiment, Opts};

/// A real simulation that crosses many watchdog epochs; a zero deadline
/// kills it at the first one.
fn exp_slowpoke(_: Opts) -> String {
    let mut cfg = SystemConfig::default_16core();
    cfg.watchdog.epoch_cycles = 2_000;
    let mut sys = TakoSystem::new(cfg);
    let _r = sys.alloc_real(1 << 18);
    let mut rng = Rng::new(1);
    let mut t = 0u64;
    for _ in 0..5_000 {
        let off = rng.below(1 << 12) * 8;
        t = sys.timed_access(0, AccessKind::Read, 0x1000_0000 + off, t);
    }
    format!("slowpoke survived to cycle {t}\n")
}

#[test]
fn traced_deadline_kill_writes_the_observer_event_tail() {
    let dir = std::env::temp_dir().join(format!("tako-traced-triage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = CampaignOpts::fresh(&dir);
    c.deadline = Some(Duration::ZERO);

    tako::sim::trace::arm();
    let out = run_campaign(
        Opts {
            seed: 42,
            ..Default::default()
        },
        &c,
        &[("slowpoke", exp_slowpoke as Experiment)],
    )
    .expect("campaign");
    tako::sim::trace::disarm();
    let report = tako::sim::trace::drain();

    let err = out.results[0].1.as_ref().expect_err("deadline must kill");
    assert!(err.contains("deadline exceeded"), "error: {err}");
    let triage = std::fs::read_to_string(dir.join("slowpoke.triage.txt")).expect("triage");
    for needle in [
        "deadline exceeded",
        "machine state",
        "fault plan",
        "event tail",
        "--resume",
    ] {
        assert!(
            triage.contains(needle),
            "triage missing {needle:?}: {triage}"
        );
    }
    // The tail is the observer's timed ring: its records carry cycle
    // and tile stamps.
    assert!(triage.contains("cycle="), "triage: {triage}");
    assert!(report.systems > 0, "the killed system flushed no observer");
    let _ = std::fs::remove_dir_all(&dir);
}
