//! # tako-bench — the benchmark harness
//!
//! One experiment module per figure/table in the paper's evaluation; the
//! binaries in `src/bin/` are thin wrappers. Every experiment prints the
//! rows/series the paper plots (speedup and relative energy per variant,
//! per-phase access breakdowns, sweeps).
//!
//! All experiments accept a [`Opts`] parsed from the command line:
//!
//! ```text
//! --scale <f>   scale workload sizes by f (default 1.0 — minutes-scale)
//! --paper       use the paper's full sizes (much slower)
//! --seed <n>    override the RNG seed
//! --jobs <n>    worker threads for the per-variant / per-experiment
//!               fan-out (default: available parallelism)
//! ```
//!
//! A flag missing its value, or given one that does not parse, is an
//! error (exit status 2); an unrecognized flag only warns.
//!
//! Output is **deterministic and independent of `--jobs`**: every
//! simulation is seeded, single-threaded, and isolated in its own
//! `TakoSystem`, and [`run_variants`] / [`run_all`] collect results in
//! input order, so `--jobs 1` and `--jobs 8` produce byte-identical
//! experiment output (a test asserts this).
//!
//! A suite invocation ([`run_all`], [`run_all_catch`],
//! [`campaign::run_campaign`]) simulates each distinct run once: every
//! harness simulation goes through [`memo::cached`], and figures that
//! plot the same runs share one `Arc`'d result (DESIGN.md §7e).
//!
//! Absolute cycle counts differ from the paper's testbed (see
//! EXPERIMENTS.md); the *shape* — who wins, by roughly what factor —
//! is what these harnesses regenerate.

use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tako_sim::checkpoint::Record;
use tako_sim::config::SystemConfig;
use tako_sim::parallel::{default_jobs, parallel_map, parallel_map_catch};

pub mod campaign;
pub mod doctor;
pub mod experiments;
pub mod memo;

use memo::{MemoStats, RunMemo};

/// Validate the base system configuration every harness builds from,
/// exiting with a diagnostic when it cannot describe real hardware.
/// Every bench binary calls this at startup (via [`Opts::from_args`]).
pub fn validate_base_config() {
    if let Err(e) = SystemConfig::default_16core().validate() {
        eprintln!("error: invalid base configuration: {e}");
        std::process::exit(2);
    }
}

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload-size multiplier.
    pub scale: f64,
    /// Use the paper's full workload sizes.
    pub paper: bool,
    /// RNG seed override.
    pub seed: u64,
    /// Worker threads for fan-out (variants within a figure, or
    /// experiments within `all_experiments`).
    pub jobs: usize,
    /// Unread; kept so the benchmark package compiles.
    pub lanes: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            paper: false,
            seed: 0x7AC0,
            jobs: default_jobs(),
            lanes: 0,
        }
    }
}

impl Opts {
    /// Parse `args` (without the program name). Returns the options and
    /// any arguments that were not recognized, so binaries with extra
    /// flags can consume the leftovers before warning.
    ///
    /// # Errors
    ///
    /// A `--scale`, `--seed` or `--jobs` whose value is missing or does
    /// not parse (`--scale 0,05`, `--jobs two`, a trailing `--seed`).
    pub fn parse(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut opts = Opts::default();
        let mut unknown = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = flag_value(arg, args.next())?,
                "--seed" => opts.seed = flag_value(arg, args.next())?,
                "--jobs" => opts.jobs = flag_value::<usize>(arg, args.next())?.max(1),
                "--paper" => opts.paper = true,
                other => unknown.push(other.to_string()),
            }
        }
        Ok((opts, unknown))
    }

    /// [`Opts::parse`], printing the error and exiting with status 2 on
    /// a bad flag value.
    pub fn parse_or_exit(args: &[String]) -> (Self, Vec<String>) {
        Self::parse(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parse from `std::env::args`, warning on stderr about any
    /// unrecognized argument and exiting with status 2 on a bad flag
    /// value. Also validates the base system configuration, so a broken
    /// config fails fast in every binary.
    pub fn from_args() -> Self {
        validate_base_config();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let (opts, unknown) = Self::parse_or_exit(&args);
        warn_unknown(&unknown);
        opts
    }

    /// Scale an integer size.
    pub fn sized(&self, base: usize) -> usize {
        ((base as f64) * self.scale).max(1.0) as usize
    }

    /// These options with the fan-out disabled; handed to experiments
    /// that run *inside* an outer fan-out so the machine is not
    /// oversubscribed.
    pub fn serial(&self) -> Self {
        Opts { jobs: 1, ..*self }
    }
}

/// Parse the value following `flag`: an error names the flag when the
/// value is missing or does not parse as `T`.
pub fn flag_value<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

/// Print a warning for each unrecognized command-line argument.
pub fn warn_unknown(unknown: &[String]) {
    for u in unknown {
        eprintln!(
            "warning: unknown argument `{u}` \
             (known: --scale <f>, --paper, --seed <n>, --jobs <n>)"
        );
    }
}

/// Run `f` over each variant on `opts.jobs` workers, returning results
/// in `variants` order. Each simulation owns its `TakoSystem`, so runs
/// are independent and the output is identical to the serial loop.
///
/// Under a supervised campaign (a [`campaign`] unit journal armed on
/// this thread), every completed variant is journaled as a checkpoint
/// unit and the loop runs serially: a crashed experiment resumes here
/// by replaying already-journaled units bit-exactly and simulating only
/// the remainder. Experiments run `opts.serial()` inside the campaign
/// fan-out anyway, so the serial journaled loop changes nothing else.
/// Each unit is served by the first of: its journal record, the suite's
/// run memo ([`memo::cached`] inside `f`), a simulation. A unit served
/// by the memo is still journaled.
pub fn run_variants<V, R, F>(opts: Opts, variants: &[V], f: F) -> Vec<R>
where
    V: Clone + Send,
    R: Record + Send,
    F: Fn(V) -> R + Sync,
{
    if let Some(call) = campaign::next_call_id() {
        return variants
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| match campaign::replay_unit::<R>(call, i as u64) {
                Some(r) => r,
                None => {
                    let r = f(v);
                    campaign::record_unit(call, i as u64, &r);
                    r
                }
            })
            .collect();
    }
    parallel_map(opts.jobs, variants.to_vec(), |_, v| f(v))
}

/// One experiment harness: regenerates a figure/table as printable text.
pub type Experiment = fn(Opts) -> String;

/// Every figure/table harness, in the order `all_experiments` prints.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig06", experiments::fig06_decompress),
    ("fig07", experiments::fig07_decompress_count),
    ("fig13", experiments::fig13_phi),
    ("fig14", experiments::fig14_phi_dram),
    ("fig16", experiments::fig16_hats),
    ("fig17", experiments::fig17_hats_breakdown),
    ("fig19", experiments::fig19_nvm),
    ("fig20", experiments::fig20_nvm_instrs),
    ("fig21", experiments::fig21_sidechannel),
    ("fig22", experiments::fig22_fabric_size),
    ("fig23", experiments::fig23_pe_latency),
    ("fig24", experiments::fig24_core_uarch),
    ("fig25", experiments::fig25_scalability),
    ("table2", experiments::table2_overhead),
    ("sens_cb", experiments::sens_callback_buffer),
    ("sens_rtlb", experiments::sens_rtlb),
    ("ablations", experiments::ablations),
];

/// The outcome of one experiment under [`run_all`].
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Harness name (`fig06` … `ablations`).
    pub name: &'static str,
    /// The experiment's printable output.
    pub output: String,
    /// Wall-clock time the harness took on its worker.
    pub wall: Duration,
    /// Run requests the harness made of its suite's memo (0 for an
    /// experiment replayed from a campaign journal).
    pub runs: u64,
}

impl ExperimentResult {
    /// Run harness `f` on the calling thread, timing it and counting
    /// its run requests.
    pub(crate) fn run(name: &'static str, f: Experiment, opts: Opts) -> Self {
        let before = memo::requests();
        let t0 = Instant::now();
        let output = f(opts);
        ExperimentResult {
            name,
            output,
            wall: t0.elapsed(),
            runs: memo::requests() - before,
        }
    }
}

/// What one suite invocation ([`run_all_catch`]) hands back.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Per-experiment outcomes in table order; `Err` carries a
    /// harness's panic payload.
    pub results: Vec<(&'static str, Result<ExperimentResult, String>)>,
    /// The suite's run memo tally.
    pub memo: MemoStats,
}

/// Run every harness in [`EXPERIMENTS`] across `opts.jobs` workers and
/// return the results in table order. The machine is reserved for the
/// experiment-level fan-out: each harness runs with `jobs = 1` inside.
///
/// # Panics
///
/// If a harness panics, after every other harness has finished.
pub fn run_all(opts: Opts) -> Vec<ExperimentResult> {
    run_all_catch(opts, None)
        .results
        .into_iter()
        .map(|(name, r)| r.unwrap_or_else(|msg| panic!("{name}: {msg}")))
        .collect()
}

/// Like [`run_all`], but each harness runs behind a panic guard: a
/// panicking experiment becomes `Err(panic payload)` while every other
/// harness still runs to completion — the `--keep-going` contract of
/// `all_experiments`. When `force_panic` names a harness it panics on
/// entry (the hook the keep-going integration test drives).
///
/// The harnesses share one [`RunMemo`], so a run that several figures
/// plot (Fig 13/14, Fig 16/17, shared sweep baselines) is simulated
/// once per invocation.
pub fn run_all_catch(opts: Opts, force_panic: Option<&str>) -> SuiteOutcome {
    let inner = opts.serial();
    let memo = Arc::new(RunMemo::default());
    let results = parallel_map_catch(opts.jobs, EXPERIMENTS.to_vec(), |_, (name, f)| {
        let _memo = memo.arm();
        if Some(name) == force_panic {
            panic!("forced panic in {name} (--force-panic)");
        }
        ExperimentResult::run(name, f, inner)
    });
    SuiteOutcome {
        results: EXPERIMENTS
            .iter()
            .zip(results)
            .map(|((name, _), r)| (*name, r))
            .collect(),
        memo: memo.stats(),
    }
}

/// Render one labelled row of `(label, value)` pairs.
pub fn row(label: &str, cols: &[(&str, String)]) -> String {
    let mut s = format!("{label:<16}");
    for (name, v) in cols {
        s.push_str(&format!(" {name}={v}"));
    }
    s.push('\n');
    s
}

/// Format a ratio as `x.xx×`.
pub fn fx(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_known_flags() {
        let (o, unknown) = Opts::parse(&s(&[
            "--scale", "0.5", "--paper", "--seed", "7", "--jobs", "3",
        ]))
        .unwrap();
        assert!(unknown.is_empty());
        assert_eq!(o.scale, 0.5);
        assert!(o.paper);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 3);
    }

    #[test]
    fn parse_collects_unknown() {
        let (o, unknown) = Opts::parse(&s(&["--wat", "--seed", "9"])).unwrap();
        assert_eq!(unknown, vec!["--wat".to_string()]);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn jobs_zero_clamps_to_one() {
        let (o, _) = Opts::parse(&s(&["--jobs", "0"])).unwrap();
        assert_eq!(o.jobs, 1);
    }

    #[test]
    fn malformed_flag_values_are_errors() {
        for (flag, bad) in [("--scale", "0,05"), ("--seed", "x"), ("--jobs", "two")] {
            let err = Opts::parse(&s(&["--paper", flag, bad])).unwrap_err();
            assert_eq!(err, format!("{flag}: cannot parse `{bad}`"));
        }
    }

    #[test]
    fn missing_flag_values_are_errors() {
        for flag in ["--scale", "--seed", "--jobs"] {
            let err = Opts::parse(&s(&["--paper", flag])).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn run_variants_preserves_order() {
        let opts = Opts {
            jobs: 4,
            ..Opts::default()
        };
        let out = run_variants(opts, &[3u64, 1, 4, 1, 5], |v| v * 10);
        assert_eq!(out, vec![30, 10, 40, 10, 50]);
    }
}
