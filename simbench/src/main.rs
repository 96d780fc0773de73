//! `simbench`: end-to-end and per-layer benchmark of the täkō simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <phi|nvm|hats_figs|campaign> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the simulator's
//! observer disarmed. `--trace 1` runs the probes, an untraced pass and
//! a traced pass (observer armed, spans kept), and reports the
//! per-layer metrics. The last line of stdout is one JSON object;
//! README.md describes every workload and metric.

mod host;
mod layers;
mod probe;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use host::{median, ratio, span, Sched};
use layers::RunRecord;
use tako_sim::trace::TraceReport;
use workload::{Inputs, Rep, Workload};

/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 21;
/// Repetitions every timed pass runs, however long they take.
const MIN_REPS: usize = 3;

/// The paper's own simulated speedups at its larger input sizes: the
/// only reference, printed beside `tako_speedup` as context.
const PAPER_SPEEDUP: &str =
    "paper (simulated, larger inputs): PHI 4.2x, HATS 1.43x, NVM up to 2.1x";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (phi, nvm, hats_figs, campaign)")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("simbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    match run(&args, &out_dir) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything one invocation measured, before it is turned into metrics.
struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    problems: Vec<String>,
    digest: String,
    reps: usize,
    /// Lines printed for people, before the result.
    notes: Vec<String>,
}

fn run(args: &Args, out_dir: &Path) -> Result<(), String> {
    let w = args.workload;
    host::record_spans(args.trace);
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let calib_before = host::calibration_s();
    for _ in 0..SETUPS {
        let (inp, s) = span("setup", || workload::setup(w, args.seed));
        setup_s.push(s);
        inputs = Some(inp?);
    }
    let speed = host::CALIBRATION_REF_S / ((calib_before + host::calibration_s()) / 2.0);
    let inp = inputs.expect("SETUPS > 0");
    host::record_spans(false);

    let out = if args.trace {
        traced(args, &inp, out_dir)
    } else {
        untraced(args, &inp, out_dir, median(&setup_s) * speed)
    };

    let failed = out.problems.len() as u64;
    for p in &out.problems {
        eprintln!("simbench: FAILED {p}");
    }
    println!(
        "simbench workload={} seed={} seconds={} trace={} reps={} threads=1 nproc={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.reps,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!("caches start empty: every simulation builds a fresh TakoSystem");
    for (name, value, unit) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!("sim_digest {} {}", w.name(), out.digest);
    println!(
        "failed_run_ratio = {failed}/{} = {}",
        out.attempted,
        ratio(failed as f64, out.attempted as f64)
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        failed,
        metrics.join(",")
    );
    Ok(())
}

/// One repetition, with its host scheduling figures and digest.
fn one_rep(w: Workload, inp: &Inputs, out_dir: &Path, tag: &str, i: usize) -> Rep {
    let before = Sched::now();
    let mut rep = workload::rep(w, inp, out_dir);
    (rep.cpu_s, rep.runq_wait_s) = Sched::now().since(before);
    rep.digest = layers::sim_digest(&rep.runs, &rep.output);
    eprintln!(
        "simbench: {tag} rep {i}: wall_s {:.4} raw_wall_s {:.4} cpu_s {:.4} runq_wait_s {:.4}",
        rep.wall.norm_s, rep.wall.raw_s, rep.cpu_s, rep.runq_wait_s
    );
    rep
}

/// Reps until `budget` seconds have passed (at least [`MIN_REPS`]).
/// With `observe`, the simulator's observer is armed around each rep and
/// its drained report kept.
fn timed_pass(
    w: Workload,
    inp: &Inputs,
    out_dir: &Path,
    budget: f64,
    observe: bool,
) -> (Vec<Rep>, Vec<TraceReport>) {
    let tag = if observe { "traced" } else { "untraced" };
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut reports = Vec::new();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < budget {
        if observe {
            tako_sim::trace::arm();
        }
        reps.push(one_rep(w, inp, out_dir, tag, reps.len()));
        if observe {
            tako_sim::trace::disarm();
            reports.push(tako_sim::trace::drain());
        }
    }
    (reps, reports)
}

/// Problems across `reps`, plus one for each rep whose digest differs
/// from the first (the simulator must be deterministic).
fn collect_problems(reps: &[Rep], attempted: &mut u64, problems: &mut Vec<String>) {
    for (i, rep) in reps.iter().enumerate() {
        *attempted += rep.attempted + 1;
        problems.extend(rep.problems.iter().cloned());
        if rep.digest != reps[0].digest {
            problems.push(format!(
                "rep {i}: sim_digest {} differs from rep 0",
                rep.digest
            ));
        }
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The runs the end-to-end ratios and exact counts come from, and the
/// workload's digest. The harness workloads simulate their distinct
/// runs once more, outside any timing.
fn distinct_runs(
    w: Workload,
    inp: &Inputs,
    rep: &Rep,
    attempted: &mut u64,
    problems: &mut Vec<String>,
) -> (Vec<RunRecord>, String) {
    match w {
        Workload::Phi | Workload::Nvm => (rep.runs.clone(), layers::sim_digest(&rep.runs, "")),
        Workload::HatsFigs | Workload::Campaign => {
            if w == Workload::Campaign {
                *attempted += 1;
                if workload::harness_text(inp.seed) != rep.output {
                    problems.push("campaign output differs from the harness pair's".into());
                }
            }
            let (runs, p) = workload::hats_runs(inp.seed, &rep.output);
            *attempted += runs.len() as u64;
            problems.extend(p);
            let digest = layers::sim_digest(&runs, &rep.output);
            (runs, digest)
        }
    }
}

fn find<'a>(runs: &'a [RunRecord], label: &str) -> Option<&'a RunRecord> {
    runs.iter().find(|r| r.label == label)
}

fn untraced(args: &Args, inp: &Inputs, out_dir: &Path, setup_s: f64) -> Outcome {
    let w = args.workload;
    let (reps, _) = timed_pass(w, inp, out_dir, args.seconds, false);
    let mut attempted = 0;
    let mut problems = Vec::new();
    collect_problems(&reps, &mut attempted, &mut problems);
    let (runs, digest) = distinct_runs(w, inp, &reps[0], &mut attempted, &mut problems);

    let (base, tako) = workload::baseline_and_tako(w);
    let (speedup, energy) = match (find(&runs, base), find(&runs, tako)) {
        (Some(b), Some(t)) => (
            ratio(b.cycles as f64, t.cycles as f64),
            ratio(t.energy_uj, b.energy_uj),
        ),
        _ => (0.0, 0.0),
    };
    Outcome {
        metrics: vec![
            ("wall_s".into(), median_of(&reps, |r| r.wall.norm_s), "s"),
            (
                "sim_accesses_per_s".into(),
                median_of(&reps, |r| ratio(r.accesses as f64, r.wall.norm_s)),
                "1/s",
            ),
            ("setup_s".into(), setup_s, "s"),
            ("peak_rss_mb".into(), host::peak_rss_mb(), "MB"),
            ("tako_speedup".into(), speedup, "x"),
            ("tako_energy_ratio".into(), energy, "ratio"),
        ],
        attempted,
        problems,
        digest,
        reps: reps.len(),
        notes: vec![
            format!(
                "unscaled: wall_s median {} s at host speed {} of the reference",
                median_of(&reps, |r| r.wall.raw_s),
                median_of(&reps, |r| ratio(r.wall.norm_s, r.wall.raw_s)),
            ),
            format!("context for tako_speedup: {PAPER_SPEEDUP}"),
        ],
    }
}

fn traced(args: &Args, inp: &Inputs, out_dir: &Path) -> Outcome {
    let w = args.workload;
    let mut attempted = 0;
    let mut problems = Vec::new();
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();

    // Probes of single layers, observer disarmed.
    let access = probe::access(args.seed);
    attempted += access.ns.len() as u64;
    problems.extend(access.misplaced());
    for (name, ns, _) in &access.ns {
        metrics.push((format!("core.access_ns.{name}"), *ns, "ns"));
    }
    let snap = probe::snapshot(&access.last);
    attempted += 1;
    if !snap.round_trip_ok {
        problems.push("snapshot -> restore -> snapshot changed the bytes".into());
    }
    metrics.push(("core.snapshot_ms".into(), snap.snapshot_ms, "ms"));
    metrics.push(("core.restore_ms".into(), snap.restore_ms, "ms"));
    metrics.push(("core.snapshot_bytes".into(), snap.bytes as f64, "bytes"));
    drop(access);

    // Untraced, then traced with the observer armed and spans kept.
    let half = args.seconds / 2.0;
    let (plain, _) = timed_pass(w, inp, out_dir, half, false);
    host::record_spans(true);
    let (armed, reports) = timed_pass(w, inp, out_dir, half, true);
    host::record_spans(false);
    collect_problems(&plain, &mut attempted, &mut problems);
    collect_problems(&armed, &mut attempted, &mut problems);
    attempted += 1;
    if armed[0].digest != plain[0].digest {
        problems.push(format!(
            "traced sim_digest {} differs from untraced {}",
            armed[0].digest, plain[0].digest
        ));
    }
    let (runs, digest) = distinct_runs(w, inp, &plain[0], &mut attempted, &mut problems);

    let spans = host::spans();
    let spans_path = out_dir.join(format!("{}-spans.json", w.name()));
    if let Err(e) = std::fs::write(&spans_path, host::spans_chrome_json(&spans)) {
        problems.push(format!("writing {}: {e}", spans_path.display()));
    }

    let span_s = |name: &str| host::span_median_s(&spans, name);
    // Variants the workload calls directly (0 where a harness runs them).
    for label in ["journaling", "tako"] {
        let run_s = span_s(&format!("workloads.run.{label}"));
        let accesses = find(&runs, label).map_or(0, |r| r.stats.memory_accesses());
        metrics.push((format!("workloads.run_s.{label}"), run_s, "s"));
        metrics.push((
            format!("workloads.ns_per_access.{label}"),
            ratio(run_s * 1e9, accesses as f64),
            "ns",
        ));
    }
    metrics.push(("bench.fig16_s".into(), span_s("bench.fig16"), "s"));
    metrics.push(("bench.fig17_s".into(), span_s("bench.fig17"), "s"));
    let last = &armed[armed.len() - 1];
    metrics.push(("bench.campaign.io_ops".into(), last.io_ops as f64, "count"));
    metrics.push((
        "bench.campaign.replayed_units".into(),
        last.replayed as f64,
        "count",
    ));
    for (name, v, unit) in layers::exact_counts(&runs) {
        metrics.push((name.into(), v, unit));
    }
    for (name, v, unit) in layers::trace_counts(reports.last().expect("MIN_REPS > 0")) {
        metrics.push((name, v, unit));
    }
    metrics.push((
        "trace.overhead".into(),
        ratio(
            median_of(&armed, |r| r.wall.norm_s),
            median_of(&plain, |r| r.wall.norm_s),
        ),
        "ratio",
    ));
    metrics.push((
        "host.raw_wall_s".into(),
        median_of(&plain, |r| r.wall.raw_s),
        "s",
    ));
    metrics.push((
        "host.speed".into(),
        median_of(&plain, |r| ratio(r.wall.norm_s, r.wall.raw_s)),
        "ratio",
    ));
    metrics.push(("host.cpu_s".into(), median_of(&plain, |r| r.cpu_s), "s"));
    metrics.push((
        "host.runq_wait_s".into(),
        median_of(&plain, |r| r.runq_wait_s),
        "s",
    ));
    Outcome {
        metrics,
        attempted,
        problems,
        digest,
        reps: plain.len() + armed.len(),
        notes: vec![format!("spans: {}", spans_path.display())],
    }
}
