//! The four workloads: what each sets up, what one repetition runs, and
//! how its output is checked. Every simulation builds a fresh
//! `TakoSystem`, so caches start empty in every run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use tako_bench::campaign::{run_campaign, CampaignOpts, CampaignOutcome};
use tako_bench::experiments::{fig16_hats, fig17_hats_breakdown};
use tako_bench::{Experiment, Opts};
use tako_core::TakoSystem;
use tako_graph::{gen, pagerank, Csr};
use tako_sim::config::SystemConfig;
use tako_sim::rng::Rng;
use tako_sim::storage::{FaultStorage, Storage};
use tako_workloads::{hats, nvm, phi};

use crate::host::{span, timed, Timing};
use crate::layers::RunRecord;

/// PHI graph: 16 threads on 16 tiles, vertex data (8 B per vertex)
/// four times the scaled LLC, as in fig13.
const PHI_VERTICES: usize = 1 << 16;
const PHI_EDGES: usize = 1 << 18;
const PHI_VARIANTS: [phi::Variant; 3] = [
    phi::Variant::Software,
    phi::Variant::UpdateBatching,
    phi::Variant::Tako,
];

/// NVM: 16 KB transactions, the size fig20 uses; enough of them that
/// one repetition runs for about a second (fig19 clamps to 256).
const NVM_TXN_BYTES: u64 = 16 * 1024;
const NVM_TXNS: u64 = 1024;
const NVM_VARIANTS: [nvm::Variant; 2] = [nvm::Variant::Journaling, nvm::Variant::Tako];

/// The `--scale` at which the fig16/fig17 harnesses run.
const HATS_SCALE: f64 = 0.05;

/// Ranks may differ from the host reference by float reassociation only.
const RANK_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Phi,
    Nvm,
    HatsFigs,
    Campaign,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Phi,
        Workload::Nvm,
        Workload::HatsFigs,
        Workload::Campaign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Phi => "phi",
            Workload::Nvm => "nvm",
            Workload::HatsFigs => "hats_figs",
            Workload::Campaign => "campaign",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The configuration this workload's systems are built from.
    fn config(self) -> SystemConfig {
        match self {
            Workload::Phi => {
                let mut cfg = SystemConfig::with_tiles(16);
                cfg.llc_bank.size_bytes = PHI_VERTICES as u64 * 8 / 4 / 16;
                cfg
            }
            // The harnesses build their own; validate the base they
            // start from.
            _ => SystemConfig::default_16core(),
        }
    }

    fn phi_params(seed: u64) -> phi::Params {
        phi::Params {
            vertices: PHI_VERTICES,
            edges: PHI_EDGES,
            theta: 0.6,
            threads: 16,
            threshold: 3,
            seed,
            lanes: 0,
        }
    }

    fn opts(seed: u64) -> Opts {
        Opts {
            scale: HATS_SCALE,
            paper: false,
            seed,
            jobs: 1,
            lanes: 0,
        }
    }
}

/// What set-up hands to the timed pass.
pub struct Inputs {
    pub seed: u64,
    graph: Option<Csr>,
    reference: Vec<f64>,
}

/// Generate the workload's inputs and host reference, and build one
/// empty system from its configuration (so work moved into system
/// construction shows up as set-up time).
pub fn setup(w: Workload, seed: u64) -> Result<Inputs, String> {
    let cfg = w.config();
    cfg.validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let (graph, reference) = if w == Workload::Phi {
        let (g, _) = span("graph.gen", || {
            gen::power_law(PHI_VERTICES, PHI_EDGES, 0.6, &mut Rng::new(seed))
        });
        let (r, _) = span("graph.reference", || {
            let n = g.num_vertices();
            pagerank::iteration(&g, &vec![1.0 / n as f64; n])
        });
        (Some(g), r)
    } else {
        (None, Vec::new())
    };
    span("setup.system", || drop(TakoSystem::new(cfg)));
    Ok(Inputs {
        seed,
        graph,
        reference,
    })
}

/// One repetition of a workload.
#[derive(Default)]
pub struct Rep {
    /// Host time of the simulation calls.
    pub wall: Timing,
    /// Simulated memory accesses.
    pub accesses: u64,
    /// Each distinct simulation run (phi, nvm).
    pub runs: Vec<RunRecord>,
    /// Harness output (hats_figs, campaign).
    pub output: String,
    /// Runs attempted, and one line per failed run.
    pub attempted: u64,
    pub problems: Vec<String>,
    /// Campaign I/O operations and records replayed on resume.
    pub io_ops: u64,
    pub replayed: u64,
    /// Host on-CPU and run-queue seconds over the rep, and its digest
    /// (filled in by the caller).
    pub cpu_s: f64,
    pub runq_wait_s: f64,
    pub digest: String,
}

impl Rep {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.problems.push(what());
        }
    }

    fn record(&mut self, rec: RunRecord, extra_ok: bool, extra: &str) {
        let health = rec.health_problems();
        self.check(health.is_empty() && extra_ok, || {
            format!("{}: {} {}", rec.label, extra, health.join(", "))
        });
        self.accesses += rec.stats.memory_accesses();
        self.runs.push(rec);
    }
}

fn caught<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into())
    })
}

fn fig16(o: Opts) -> String {
    span("bench.fig16", || fig16_hats(o)).0
}

fn fig17(o: Opts) -> String {
    span("bench.fig17", || fig17_hats_breakdown(o)).0
}

/// The harness pair, wrapped in spans.
const HARNESSES: [(&str, Experiment); 2] = [("fig16", fig16), ("fig17", fig17)];

/// Run one repetition. `scratch` is a directory the campaign workload
/// may create and remove.
pub fn rep(w: Workload, inp: &Inputs, scratch: &Path) -> Rep {
    let mut rep = Rep::default();
    match w {
        Workload::Phi => {
            let cfg = w.config();
            let params = Workload::phi_params(inp.seed);
            let g = inp.graph.as_ref().expect("phi set-up builds a graph");
            for v in PHI_VARIANTS {
                let name = format!("workloads.run.{}", v.label());
                let (r, t) = timed(&name, || caught(|| phi::run_on_graph(v, &params, &cfg, g)));
                rep.wall += t;
                match r {
                    Ok(r) => {
                        let diff = pagerank::max_diff(&r.ranks, &inp.reference);
                        let msg = format!("ranks differ from the reference by {diff:e}");
                        rep.record(
                            RunRecord::new(v.label(), &r.run),
                            diff < RANK_TOLERANCE,
                            &msg,
                        );
                    }
                    Err(p) => rep.check(false, || format!("{}: panicked: {p}", v.label())),
                }
            }
        }
        Workload::Nvm => {
            let cfg = w.config();
            let params = nvm::Params {
                txn_bytes: NVM_TXN_BYTES,
                txns: NVM_TXNS,
                seed: inp.seed,
            };
            for v in NVM_VARIANTS {
                let name = format!("workloads.run.{}", v.label());
                let (r, t) = timed(&name, || caught(|| nvm::run(v, params, &cfg)));
                rep.wall += t;
                match r {
                    Ok(r) => rep.record(
                        RunRecord::new(v.label(), &r.run),
                        r.data_correct,
                        "NVM home region does not hold the committed data",
                    ),
                    Err(p) => rep.check(false, || format!("{}: panicked: {p}", v.label())),
                }
            }
        }
        Workload::HatsFigs => {
            let opts = Workload::opts(inp.seed);
            let before = tako_sim::stats::simulated_accesses();
            for (name, f) in HARNESSES {
                let (r, t) = timed("bench.harness", || caught(|| f(opts)));
                rep.wall += t;
                match r {
                    Ok(text) => {
                        rep.check(true, String::new);
                        rep.output.push_str(&text);
                    }
                    Err(p) => rep.check(false, || format!("{name}: panicked: {p}")),
                }
            }
            rep.accesses = tako_sim::stats::simulated_accesses() - before;
        }
        Workload::Campaign => {
            let opts = Workload::opts(inp.seed);
            let dir = scratch.join(format!("campaign-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let storage = Arc::new(FaultStorage::counting());
            let fresh = CampaignOpts {
                storage: Arc::clone(&storage) as Arc<dyn Storage>,
                ..CampaignOpts::fresh(&dir)
            };
            let resume = CampaignOpts {
                resume: true,
                ..fresh.clone()
            };
            let before = tako_sim::stats::simulated_accesses();
            let (first, t1) = timed("bench.campaign.run", || {
                finished(run_campaign(opts, &fresh, &HARNESSES))
            });
            let (second, t2) = timed("bench.campaign.resume", || {
                finished(run_campaign(opts, &resume, &HARNESSES))
            });
            rep.wall = t1;
            rep.wall += t2;
            rep.accesses = tako_sim::stats::simulated_accesses() - before;
            rep.io_ops = storage.ops_performed();
            match (first, second) {
                (Ok(a), Ok(b)) => {
                    rep.replayed = b.replayed as u64;
                    rep.check(a.io_clean && b.io_clean, || {
                        "campaign storage reported degraded I/O".into()
                    });
                    rep.check(b.text == a.text && b.replayed == HARNESSES.len(), || {
                        format!(
                            "resume replayed {} of {} experiments",
                            b.replayed,
                            HARNESSES.len()
                        )
                    });
                    rep.output = a.text;
                }
                (Err(e), _) | (_, Err(e)) => rep.check(false, || format!("campaign: {e}")),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    rep
}

/// What the benchmark checks of one campaign run.
struct Finished {
    text: String,
    replayed: usize,
    io_clean: bool,
}

/// The experiments' joined output, or the first failure.
fn finished(r: std::io::Result<CampaignOutcome>) -> Result<Finished, String> {
    let o = r.map_err(|e| e.to_string())?;
    let text = o
        .results
        .iter()
        .map(|(name, r)| {
            r.as_ref()
                .map(|e| e.output.as_str())
                .map_err(|m| format!("{name}: {m}"))
        })
        .collect::<Result<String, String>>()?;
    Ok(Finished {
        text,
        replayed: o.replayed,
        io_clean: o.io.is_clean(),
    })
}

/// The distinct runs behind the fig16/fig17 harnesses, simulated once
/// with the harness's own parameters (`experiments::hats_params` and
/// `hats_cfg` at [`HATS_SCALE`]), for exact counts and the digest.
/// `output` is the harness text; each run's cycles must appear in its
/// fig16 row, which proves the mirror matches the harness.
pub fn hats_runs(seed: u64, output: &str) -> (Vec<RunRecord>, Vec<String>) {
    let opts = Workload::opts(seed);
    let params = hats::Params {
        vertices: opts.sized(512 * 1024),
        edges: opts.sized(4 << 20),
        communities: opts.sized(2048),
        p_intra: 0.95,
        block: 16,
        depth_bound: 32,
        seed,
    };
    let mut cfg = SystemConfig::default_16core();
    cfg.llc_bank.size_bytes = 64 * 1024;
    cfg.l2.size_bytes = 64 * 1024;
    let mut runs = Vec::new();
    let mut problems = Vec::new();
    for v in hats::Variant::ALL {
        let r = hats::run(v, &params, &cfg);
        let rec = RunRecord::new(v.label(), &r.run);
        problems.extend(rec.health_problems());
        let row = format!("cycles={}", rec.cycles);
        let in_fig16 = output
            .lines()
            .any(|l| l.split_whitespace().next() == Some(v.label()) && l.contains(&row));
        if !in_fig16 {
            problems.push(format!(
                "{}: {row} not in the fig16 harness output",
                v.label()
            ));
        }
        runs.push(rec);
    }
    (runs, problems)
}

/// The fig16 + fig17 text computed directly, the reference the
/// campaign's output must equal.
pub fn harness_text(seed: u64) -> String {
    let opts = Workload::opts(seed);
    fig16_hats(opts) + &fig17_hats_breakdown(opts)
}

/// Baseline and täkō labels for the speedup and energy ratio.
pub fn baseline_and_tako(w: Workload) -> (&'static str, &'static str) {
    match w {
        Workload::Phi => (phi::Variant::Software.label(), phi::Variant::Tako.label()),
        Workload::Nvm => (nvm::Variant::Journaling.label(), nvm::Variant::Tako.label()),
        _ => (
            hats::Variant::VertexOrdered.label(),
            hats::Variant::Tako.label(),
        ),
    }
}
