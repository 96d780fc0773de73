//! A campaign over Fig 16 and Fig 17 simulates the HATS sweep once:
//! the campaign adds exactly the simulated accesses of Fig 16 alone,
//! while Fig 17 still journals every one of its units.
//!
//! This file holds a single test because it reads the process-wide
//! simulated-access tally, which concurrent tests would disturb.

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::experiments::{fig16_hats, fig17_hats_breakdown};
use tako_bench::{Experiment, Opts};
use tako_sim::stats::simulated_accesses;

/// Unit records in a unit journal: a 12-byte header (`UJH1` +
/// fingerprint), then records of `UNT1`, call, index, payload length,
/// payload and an 8-byte checksum.
fn unit_records(journal: &[u8]) -> usize {
    assert_eq!(&journal[..4], b"UJH1", "unit journal header");
    let (mut at, mut n) = (12, 0);
    while at < journal.len() {
        assert_eq!(&journal[at..at + 4], b"UNT1", "unit record magic");
        let len = u64::from_le_bytes(journal[at + 20..at + 28].try_into().unwrap()) as usize;
        at += 28 + len + 8;
        n += 1;
    }
    assert_eq!(at, journal.len(), "torn unit record");
    n
}

#[test]
fn campaign_over_fig16_and_fig17_simulates_the_sweep_once() {
    let opts = Opts {
        scale: 0.01,
        paper: false,
        seed: 0x7AC0,
        jobs: 1,
        ..Default::default()
    };
    let before = simulated_accesses();
    let fig16_alone = fig16_hats(opts);
    let fig16_accesses = simulated_accesses() - before;
    assert!(fig16_accesses > 0);

    let dir = std::env::temp_dir().join(format!("tako-campaign-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pair: &[(&str, Experiment)] = &[("fig16", fig16_hats), ("fig17", fig17_hats_breakdown)];
    let before = simulated_accesses();
    let outcome = run_campaign(opts, &CampaignOpts::fresh(&dir), pair).expect("campaign");
    assert_eq!(
        simulated_accesses() - before,
        fig16_accesses,
        "the campaign simulated more than Fig 16's runs"
    );
    let fig16 = outcome.results[0].1.as_ref().expect("fig16");
    assert_eq!(fig16.output, fig16_alone);
    let fig17 = outcome.results[1].1.as_ref().expect("fig17");
    assert_eq!(fig17.output, fig17_hats_breakdown(opts));
    assert_eq!(outcome.memo.distinct_runs, 4);
    assert_eq!(outcome.memo.memo_hits, 4);

    // Memo hits are journaled like simulated units: Fig 17 alone,
    // resumed, replays all four without simulating.
    let units = std::fs::read(dir.join("fig17.units")).expect("fig17 unit journal");
    assert_eq!(unit_records(&units), 4);
    std::fs::remove_file(dir.join("fig17.done")).expect("fig17 done record");
    let resume = CampaignOpts {
        resume: true,
        ..CampaignOpts::fresh(&dir)
    };
    let before = simulated_accesses();
    let resumed = run_campaign(opts, &resume, pair).expect("resume");
    assert_eq!(
        simulated_accesses() - before,
        0,
        "resume re-simulated a unit"
    );
    assert_eq!(
        resumed.results[1].1.as_ref().expect("fig17").output,
        fig17.output
    );
    let _ = std::fs::remove_dir_all(&dir);
}
