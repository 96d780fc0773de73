//! Runs every figure/table harness, fanned out across `--jobs` worker
//! threads, printing each harness's output in the fixed table order
//! (use `--scale` to shrink workloads).
//!
//! Extra flags beyond the shared [`Opts`] set:
//!
//! ```text
//! --bench-json <path>   also write a BENCH_sim.json throughput report
//! --bench               shorthand for --bench-json BENCH_sim.json
//! --keep-going          isolate harness panics: finish the others,
//!                       print a FAILURES section, exit nonzero
//! --force-panic <name>  panic inside the named harness (tests the
//!                       --keep-going contract)
//! --trace-out <path>    arm the observability layer and write the
//!                       merged event trace as Chrome trace_event JSON
//!                       (load in chrome://tracing or Perfetto)
//! --profile             arm the observability layer and print the
//!                       per-stage cycle-attribution table
//! ```
//!
//! Supervised-campaign flags (see `tako_bench::campaign`):
//!
//! ```text
//! --journal <dir>           journal the run: per-experiment .done
//!                           records and in-experiment unit checkpoints
//! --resume                  resume an interrupted campaign from the
//!                           journal instead of starting fresh
//! --deadline <secs>         wall-clock budget per experiment attempt;
//!                           exceeded -> triage bundle + retry
//! --retries <n>             retries per failed experiment, with a
//!                           seeded deterministic backoff schedule
//! --checkpoint-every <n>    sync the unit journal every n units
//! --crash-after-units <n>   die after n journaled units (the
//!                           interrupt/resume smoke's crash hook)
//! --io-faults <plan>        run the journal on the fault-injecting
//!                           storage backend; plan is
//!                           `seed:kind[:count]` with kind one of
//!                           crash, crash-after, torn, drop-rename,
//!                           dup-append, flip, transient, permanent
//! ```
//!
//! The printed experiment output is byte-identical for every `--jobs`
//! value — and for a journaled run whether it completed in one go or
//! was interrupted and resumed; only the timing annotations and the
//! JSON report vary.
//!
//! Each distinct run is simulated once per invocation; figures that
//! plot the same runs share it through the run memo. The status line
//! and the JSON report count `distinct_runs` (simulated) and
//! `memo_hits` (requests served from the memo), and
//! `accesses_per_sec` counts the accesses of simulated runs only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::memo::MemoStats;
use tako_bench::{
    flag_value, run_all_catch, validate_base_config, warn_unknown, ExperimentResult, Opts,
    EXPERIMENTS,
};
use tako_sim::storage::{DiskStorage, FaultStorage, IoFaultPlan, Storage};

/// Flags specific to this binary, parsed from the leftovers of
/// [`Opts::parse`].
struct BenchFlags {
    json_path: Option<String>,
    keep_going: bool,
    force_panic: Option<String>,
    trace_out: Option<String>,
    profile: bool,
    journal: Option<String>,
    resume: bool,
    deadline: Option<Duration>,
    retries: u32,
    checkpoint_every: u64,
    crash_after_units: Option<u64>,
    io_faults: Option<IoFaultPlan>,
}

/// Parse this binary's flags out of `unknown`, warning about anything
/// still unrecognized. A missing or malformed value is an error.
fn parse_bench_flags(unknown: &[String]) -> Result<BenchFlags, String> {
    let mut flags = BenchFlags {
        json_path: None,
        keep_going: false,
        force_panic: None,
        trace_out: None,
        profile: false,
        journal: None,
        resume: false,
        deadline: None,
        retries: 0,
        checkpoint_every: 1,
        crash_after_units: None,
        io_faults: None,
    };
    let mut rest = Vec::new();
    let mut args = unknown.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--bench" => {
                flags
                    .json_path
                    .get_or_insert_with(|| "BENCH_sim.json".to_string());
            }
            "--bench-json" => flags.json_path = Some(flag_value(flag, args.next())?),
            "--keep-going" => flags.keep_going = true,
            "--trace-out" => flags.trace_out = Some(flag_value(flag, args.next())?),
            "--profile" => flags.profile = true,
            "--force-panic" => flags.force_panic = Some(flag_value(flag, args.next())?),
            "--journal" => flags.journal = Some(flag_value(flag, args.next())?),
            "--resume" => flags.resume = true,
            "--deadline" => {
                let secs: f64 = flag_value(flag, args.next())?;
                let budget = Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("{flag}: `{secs}` is not a duration in seconds"))?;
                flags.deadline = Some(budget);
            }
            "--retries" => flags.retries = flag_value(flag, args.next())?,
            "--checkpoint-every" => {
                flags.checkpoint_every = flag_value::<u64>(flag, args.next())?.max(1);
            }
            "--crash-after-units" => flags.crash_after_units = Some(flag_value(flag, args.next())?),
            "--io-faults" => {
                let v: String = flag_value(flag, args.next())?;
                let plan = IoFaultPlan::parse(&v).map_err(|e| format!("{flag} {v}: {e}"))?;
                flags.io_faults = Some(plan);
            }
            other => rest.push(other.to_string()),
        }
    }
    warn_unknown(&rest);
    Ok(flags)
}

fn main() {
    validate_base_config();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, unknown) = Opts::parse_or_exit(&args);
    let flags = parse_bench_flags(&unknown).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if flags.force_panic.is_some() && !flags.keep_going && flags.journal.is_none() {
        eprintln!("warning: --force-panic without --keep-going aborts the run");
    }

    // Arm observability before any system is built: hierarchies attach
    // their observer at construction.
    let tracing = flags.trace_out.is_some() || flags.profile;
    if tracing {
        tako_sim::trace::arm();
    }

    let t0 = Instant::now();
    let memo: MemoStats;
    let results: Vec<(&str, Result<ExperimentResult, String>)> = if let Some(dir) = &flags.journal {
        let storage: Arc<dyn Storage> = match flags.io_faults.clone() {
            Some(plan) => Arc::new(FaultStorage::new(Arc::new(DiskStorage::new()), plan)),
            None => Arc::new(DiskStorage::new()),
        };
        let c = CampaignOpts {
            dir: dir.into(),
            resume: flags.resume,
            deadline: flags.deadline,
            retries: flags.retries,
            checkpoint_every: flags.checkpoint_every,
            force_panic: flags.force_panic.clone(),
            crash_after_units: flags.crash_after_units,
            storage,
        };
        match run_campaign(opts, &c, EXPERIMENTS) {
            Ok(outcome) => {
                eprintln!(
                    "campaign: {} replayed from journal, {} attempts executed",
                    outcome.replayed, outcome.attempts
                );
                if !outcome.io.is_clean() {
                    eprintln!("campaign: storage degraded: {}", outcome.io);
                }
                memo = outcome.memo;
                outcome.results
            }
            Err(e) => {
                eprintln!("error: campaign journal: {e}");
                std::process::exit(2);
            }
        }
    } else {
        let suite = run_all_catch(opts, flags.force_panic.as_deref());
        if !flags.keep_going {
            if let Some((name, Err(msg))) = suite.results.iter().find(|(_, r)| r.is_err()) {
                panic!("{name}: {msg}");
            }
        }
        memo = suite.memo;
        suite.results
    };
    let total_wall = t0.elapsed();

    let mut failures: Vec<(&str, &str)> = Vec::new();
    let mut succeeded: Vec<&ExperimentResult> = Vec::new();
    for (name, r) in &results {
        match r {
            Ok(res) => {
                println!("{}  [{} took {:.1?}]\n", res.output, res.name, res.wall);
                succeeded.push(res);
            }
            Err(msg) => failures.push((name, msg)),
        }
    }
    if !failures.is_empty() {
        println!("FAILURES:");
        for (name, msg) in &failures {
            println!("  {name}: {msg}");
        }
    }

    // Disarm and drain *before* bench_json: its checkpoint-overhead
    // probe builds a throwaway system that must run untraced.
    let trace_report = if tracing {
        tako_sim::trace::disarm();
        Some(tako_sim::trace::drain())
    } else {
        None
    };
    // Reports are evidence: write them atomically so a crash mid-write
    // can't leave a half-formed file masquerading as a real one.
    let report_store = DiskStorage::new();
    if let Some(report) = &trace_report {
        if let Some(path) = &flags.trace_out {
            match report_store.write_atomic(
                std::path::Path::new(path),
                report.chrome_trace_json().as_bytes(),
            ) {
                Ok(()) => eprintln!(
                    "wrote {path} ({} trace events, {} interval samples, {} systems)",
                    report.events.len(),
                    report.samples.len(),
                    report.systems
                ),
                Err(e) => eprintln!("error: writing {path}: {e}"),
            }
        }
        if flags.profile {
            println!("PROFILE:\n{}", report.profile_table());
        }
        if let Some(dir) = &flags.journal {
            let path = std::path::Path::new(dir).join("metrics.json");
            match report_store.write_atomic(&path, report.metrics_json().as_bytes()) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("error: writing {}: {e}", path.display()),
            }
        }
    }

    let accesses = tako_sim::stats::simulated_accesses();
    let total_s = total_wall.as_secs_f64();
    eprintln!(
        "all experiments: {}/{} ok in {total_s:.1}s wall on {} jobs, \
         {accesses} simulated accesses ({:.0}/s), {} distinct runs simulated, \
         {} served from the run memo",
        succeeded.len(),
        results.len(),
        opts.jobs,
        accesses as f64 / total_s.max(1e-9),
        memo.distinct_runs,
        memo.memo_hits,
    );

    if let Some(path) = flags.json_path {
        let baseline = committed_accesses_per_sec(&path);
        let json = bench_json(
            opts,
            total_s,
            accesses,
            memo,
            baseline,
            &succeeded,
            trace_report.as_ref(),
        );
        match report_store.write_atomic(std::path::Path::new(&path), json.as_bytes()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("error: writing {path}: {e}"),
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Measure snapshot encode/restore cost on a warmed default 16-core
/// system, so BENCH_sim.json records what an epoch-boundary checkpoint
/// actually costs relative to simulation throughput.
fn checkpoint_overhead() -> (usize, f64, f64) {
    use tako_core::TakoSystem;
    use tako_cpu::{AccessKind, MemSystem};
    let mut cfg = tako_sim::config::SystemConfig::default_16core();
    cfg.watchdog.enabled = true;
    let mut sys = TakoSystem::new(cfg);
    let _ = sys.alloc_real(1 << 20);
    let mut t = 0u64;
    for k in 0..50_000u64 {
        let addr = 0x1000_0000 + (k % (1 << 14)) * 64;
        t = sys.timed_access((k % 16) as usize, AccessKind::Read, addr, t);
    }
    const REPS: u32 = 10;
    let t0 = Instant::now();
    let mut snap = Vec::new();
    for _ in 0..REPS {
        snap = sys.snapshot_bytes();
    }
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1000.0 / f64::from(REPS);
    let t1 = Instant::now();
    for _ in 0..REPS {
        sys.restore_bytes(&snap).expect("self-restore");
    }
    let restore_ms = t1.elapsed().as_secs_f64() * 1000.0 / f64::from(REPS);
    (snap.len(), snapshot_ms, restore_ms)
}

/// Pull `accesses_per_sec` out of the previously committed report at
/// `path`, so the fresh report can state its own delta against what the
/// repo last recorded. Naive line scan — the report is hand-rolled JSON
/// with one key per line.
fn committed_accesses_per_sec(path: &str) -> Option<f64> {
    let prev = std::fs::read_to_string(path).ok()?;
    for line in prev.lines() {
        if let Some(rest) = line.trim().strip_prefix("\"accesses_per_sec\":") {
            return rest.trim().trim_end_matches(',').parse().ok();
        }
    }
    None
}

/// Hand-rolled JSON (the workspace carries no serde): the throughput
/// report consumed by EXPERIMENTS.md's benchmarking section.
fn bench_json(
    opts: Opts,
    total_wall_s: f64,
    accesses: u64,
    memo: MemoStats,
    baseline_accesses_per_sec: Option<f64>,
    results: &[&ExperimentResult],
    trace: Option<&tako_sim::trace::TraceReport>,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {},\n", opts.jobs));
    s.push_str(&format!(
        "  \"host_cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str(&format!("  \"scale\": {},\n", opts.scale));
    s.push_str(&format!("  \"seed\": {},\n", opts.seed));
    s.push_str(&format!("  \"total_wall_s\": {total_wall_s:.3},\n"));
    s.push_str(&format!("  \"simulated_accesses\": {accesses},\n"));
    s.push_str(&format!("  \"distinct_runs\": {},\n", memo.distinct_runs));
    s.push_str(&format!("  \"memo_hits\": {},\n", memo.memo_hits));
    let aps = accesses as f64 / total_wall_s.max(1e-9);
    s.push_str(&format!("  \"accesses_per_sec\": {aps:.0},\n"));
    if let Some(base) = baseline_accesses_per_sec {
        s.push_str(&format!("  \"baseline_accesses_per_sec\": {base:.0},\n"));
        s.push_str(&format!(
            "  \"accesses_per_sec_delta\": {:.3},\n",
            aps / base.max(1e-9) - 1.0
        ));
    }
    let (snap_bytes, snap_ms, restore_ms) = checkpoint_overhead();
    s.push_str(&format!(
        "  \"checkpoint\": {{\"snapshot_bytes\": {snap_bytes}, \
         \"snapshot_ms\": {snap_ms:.3}, \"restore_ms\": {restore_ms:.3}}},\n"
    ));
    if let Some(report) = trace {
        s.push_str(&format!("  \"metrics\": {},\n", report.metrics_json()));
    }
    s.push_str("  \"experiments\": {\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        s.push_str(&format!(
            "    \"{}\": {{\"wall_s\": {:.3}, \"runs\": {}}}{comma}\n",
            r.name,
            r.wall.as_secs_f64(),
            r.runs
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchFlags, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_bench_flags(&args)
    }

    #[test]
    fn well_formed_values_parse() {
        let f = parse(&[
            "--deadline",
            "1.5",
            "--retries",
            "2",
            "--checkpoint-every",
            "0",
            "--crash-after-units",
            "3",
            "--journal",
            "j",
            "--io-faults",
            "7:torn",
        ])
        .expect("valid flags");
        assert_eq!(f.deadline, Some(Duration::from_millis(1500)));
        assert_eq!(f.retries, 2);
        assert_eq!(f.checkpoint_every, 1, "a zero cadence clamps to 1");
        assert_eq!(f.crash_after_units, Some(3));
        assert_eq!(f.journal.as_deref(), Some("j"));
        assert!(f.io_faults.is_some());
    }

    #[test]
    fn malformed_values_are_errors() {
        for (flag, bad) in [
            ("--deadline", "5m"),
            ("--deadline", "-1"),
            ("--retries", "two"),
            ("--checkpoint-every", "x"),
            ("--crash-after-units", "x"),
            ("--io-faults", "7:nope"),
        ] {
            let err = parse(&[flag, bad])
                .err()
                .unwrap_or_else(|| panic!("{flag} {bad} parsed"));
            assert!(err.starts_with(flag), "{flag} {bad}: {err}");
        }
    }

    #[test]
    fn missing_values_are_errors() {
        for flag in [
            "--bench-json",
            "--trace-out",
            "--force-panic",
            "--journal",
            "--deadline",
            "--retries",
            "--checkpoint-every",
            "--crash-after-units",
            "--io-faults",
        ] {
            let err = parse(&["--resume", flag])
                .err()
                .unwrap_or_else(|| panic!("trailing {flag} parsed"));
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }
}
