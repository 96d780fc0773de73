//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded, pre-computed list of misbehaving-Morph
//! scenarios to inject at configured cycle points: callback overruns past
//! the engine instruction budget, callbacks that issue illegal actions
//! (Sec 4.3 restriction violations), fabric-capacity exhaustion, MSHR
//! pressure spikes, and delayed DRAM responses. Plans are built from a
//! seed via the in-tree [`crate::rng`] so a campaign is reproducible
//! bit-for-bit, and are carried in
//! [`SystemConfig::faults`](crate::config::SystemConfig) so every
//! workload inherits them without signature changes.
//!
//! At run time the hierarchy holds a [`FaultInjector`] and polls it at
//! the few sites where each fault kind is meaningful. Polling an
//! injector built from `None`/an empty plan is a branch on an empty
//! vector — the hot path is unchanged and disabled runs stay
//! byte-identical.
//!
//! [`Plan`] is the one seeded-plan type: [`FaultPlan`] schedules these
//! machine faults by cycle, and
//! [`IoFaultPlan`](crate::storage::IoFaultPlan) schedules storage
//! faults by I/O site. Both share `empty`, `single`, `seeded` and the
//! `seed:kind[:count]` flag syntax of [`Plan::parse`].

use std::fmt;

use crate::rng::Rng;
use crate::Cycle;

/// A family of fault kinds a [`Plan`] schedules.
pub trait PlanKind: Copy + Eq + fmt::Debug + 'static {
    /// One scheduled fault of this family.
    type Event: Clone + Eq + fmt::Debug;
    /// Every kind, in the order `mix` plans cycle through.
    const KINDS: &'static [Self];
    /// The flag whose `seed:kind[:count]` syntax [`Plan::parse`] reads,
    /// without its dashes. Its singular names the family in errors.
    const FLAG: &'static str;
    /// The `[lo, hi)` window [`Plan::parse`] spreads injection points
    /// over.
    const PARSE_WINDOW: (u64, u64);

    /// Short name used by the flag syntax.
    fn name(self) -> &'static str;

    /// The event firing `kind` at injection point `at`, with the kind's
    /// default payload.
    fn event(at: u64, kind: Self) -> Self::Event;

    /// Inverse of [`PlanKind::name`].
    fn from_name(s: &str) -> Option<Self> {
        Self::KINDS.iter().copied().find(|k| k.name() == s)
    }
}

/// A seeded, deterministic schedule of faults of one [`PlanKind`]
/// family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan<K: PlanKind> {
    /// The seed the plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Scheduled faults. Where two could fire at one poll, the first in
    /// vector order wins.
    pub events: Vec<K::Event>,
}

impl<K: PlanKind> Plan<K> {
    /// A plan that injects nothing (proves the armed-but-empty path is
    /// inert; for storage, pure I/O-site counting).
    pub fn empty() -> Self {
        Plan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A plan with a single hand-placed fault at injection point `at`,
    /// with the kind's default payload.
    pub fn single(at: u64, kind: K) -> Self {
        Plan {
            seed: 0,
            events: vec![K::event(at, kind)],
        }
    }

    /// A seeded plan of `count` faults drawn from `kinds` (round-robin)
    /// at injection points uniform in `[lo, hi)`, with default
    /// payloads. Identical arguments always produce an identical plan.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or `lo >= hi`.
    pub fn seeded(seed: u64, kinds: &[K], count: usize, lo: u64, hi: u64) -> Self {
        assert!(!kinds.is_empty(), "kinds must be non-empty");
        assert!(lo < hi, "injection window must be non-empty");
        let mut rng = Rng::new(seed);
        let events = (0..count)
            .map(|i| K::event(lo + rng.below(hi - lo), kinds[i % kinds.len()]))
            .collect();
        Plan { seed, events }
    }

    /// Parse the `seed:kind[:count]` flag syntax, e.g. `--faults
    /// 3:overrun:4` or `--io-faults 7:torn` (`mix`/`all` cycles through
    /// every kind; the count defaults to one per kind). Injection
    /// points are spread over [`PlanKind::PARSE_WINDOW`]; callers that
    /// know the run horizon or site count should use
    /// [`Plan::seeded`] or [`Plan::single`] directly.
    pub fn parse(s: &str) -> Result<Self, String> {
        let noun = K::FLAG.trim_end_matches('s');
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!("--{} wants seed:kind[:count], got `{s}`", K::FLAG));
        }
        let seed: u64 = parts[0]
            .parse()
            .map_err(|_| format!("bad {noun} seed `{}`", parts[0]))?;
        let kinds: Vec<K> = match parts[1] {
            "mix" | "all" => K::KINDS.to_vec(),
            other => vec![K::from_name(other).ok_or_else(|| {
                let names: Vec<&str> = K::KINDS.iter().map(|k| k.name()).collect();
                format!(
                    "unknown {noun} kind `{other}` (want {}, or mix)",
                    names.join(", ")
                )
            })?],
        };
        let count: usize = match parts.get(2) {
            Some(c) => c.parse().map_err(|_| format!("bad {noun} count `{c}`"))?,
            None => kinds.len(),
        };
        let (lo, hi) = K::PARSE_WINDOW;
        Ok(Self::seeded(seed, &kinds, count, lo, hi))
    }
}

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The callback body runs `magnitude` extra engine instructions,
    /// blowing through the configured per-callback budget.
    CallbackOverrun,
    /// The callback issues an action the Sec 4.3 restriction forbids
    /// (an access to data covered by a Morph at the same level).
    IllegalAction,
    /// The dataflow fabric reports no capacity for a scheduled
    /// callback, as if every PE were wedged.
    FabricExhaustion,
    /// `magnitude` phantom MSHR entries appear at an LLC bank,
    /// squeezing real misses against the callback reservation.
    MshrPressure,
    /// A DRAM response is delayed by `magnitude` cycles, emulating a
    /// stalled memory controller.
    DelayedDram,
}

impl FaultKind {
    /// All kinds, in a fixed order (used by `mix` plans).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::CallbackOverrun,
        FaultKind::IllegalAction,
        FaultKind::FabricExhaustion,
        FaultKind::MshrPressure,
        FaultKind::DelayedDram,
    ];

    /// The default magnitude for this kind: extra instructions for
    /// overruns, phantom entries for MSHR pressure, extra cycles for
    /// DRAM delays, unused otherwise.
    pub fn default_magnitude(self) -> u64 {
        match self {
            FaultKind::CallbackOverrun => 150_000,
            FaultKind::IllegalAction => 0,
            FaultKind::FabricExhaustion => 0,
            FaultKind::MshrPressure => 12,
            FaultKind::DelayedDram => 400_000,
        }
    }
}

/// One scheduled fault: at or after cycle `at`, the next poll for
/// `kind` fires with `magnitude`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Earliest cycle at which the fault may fire.
    pub at: Cycle,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Kind-specific severity (see [`FaultKind::default_magnitude`]).
    pub magnitude: u64,
    /// The tile/LLC-bank the fault is addressed to, or `None` for
    /// "wherever the next poll happens". Plans naming a site outside
    /// the configured mesh are rejected by
    /// [`SystemConfig::validate`](crate::config::SystemConfig::validate)
    /// instead of silently never firing.
    pub site: Option<usize>,
}

/// A seeded schedule of machine faults by cycle.
pub type FaultPlan = Plan<FaultKind>;

impl PlanKind for FaultKind {
    type Event = FaultEvent;
    const KINDS: &'static [Self] = &FaultKind::ALL;
    const FLAG: &'static str = "faults";
    /// The first million cycles.
    const PARSE_WINDOW: (u64, u64) = (1_000, 1_000_000);

    fn name(self) -> &'static str {
        match self {
            FaultKind::CallbackOverrun => "overrun",
            FaultKind::IllegalAction => "illegal",
            FaultKind::FabricExhaustion => "fabric",
            FaultKind::MshrPressure => "mshr",
            FaultKind::DelayedDram => "dram",
        }
    }

    fn event(at: Cycle, kind: Self) -> FaultEvent {
        FaultEvent {
            at,
            kind,
            magnitude: kind.default_magnitude(),
            site: None,
        }
    }
}

/// Runtime state for one run: which scheduled faults have fired.
///
/// The hierarchy polls the injector at each site where a fault kind is
/// meaningful; a poll fires the first due, untaken event of that kind
/// and returns its magnitude. With no events the poll is a single
/// `is_empty` branch, so disabled runs are byte-identical.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    taken: Vec<bool>,
    fired: u64,
}

impl FaultInjector {
    /// An injector for a plan (or an inert one for `None`).
    pub fn new(plan: Option<&FaultPlan>) -> Self {
        let events = plan.map(|p| p.events.clone()).unwrap_or_default();
        let taken = vec![false; events.len()];
        FaultInjector {
            events,
            taken,
            fired: 0,
        }
    }

    /// True if this injector can never fire.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
    }

    /// Fire the first due, untaken, un-addressed event of `kind` at
    /// cycle `now`, returning its magnitude. Events addressed to a
    /// specific site only fire through [`FaultInjector::poll_at`].
    pub fn poll(&mut self, now: Cycle, kind: FaultKind) -> Option<u64> {
        self.poll_where(now, kind, None)
    }

    /// Fire the first due, untaken event of `kind` at cycle `now` that
    /// is either un-addressed or addressed to `site` (a tile/LLC-bank
    /// index), returning its magnitude.
    pub fn poll_at(&mut self, now: Cycle, kind: FaultKind, site: usize) -> Option<u64> {
        self.poll_where(now, kind, Some(site))
    }

    fn poll_where(&mut self, now: Cycle, kind: FaultKind, site: Option<usize>) -> Option<u64> {
        if self.events.is_empty() {
            return None;
        }
        for (i, ev) in self.events.iter().enumerate() {
            let addressed_here = match ev.site {
                None => true,
                Some(s) => site == Some(s),
            };
            if !self.taken[i] && ev.kind == kind && ev.at <= now && addressed_here {
                self.taken[i] = true;
                self.fired += 1;
                return Some(ev.magnitude);
            }
        }
        None
    }

    /// How many faults have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// How many scheduled faults have not fired yet.
    pub fn pending(&self) -> usize {
        self.taken.iter().filter(|t| !**t).count()
    }

    /// One-line cursor summary (`fired/scheduled`) for triage bundles.
    pub fn cursor(&self) -> String {
        format!(
            "{} fired, {} pending of {}",
            self.fired,
            self.pending(),
            self.events.len()
        )
    }
}

impl crate::checkpoint::Snapshot for FaultInjector {
    /// The injector's *cursor* — which scheduled events have fired — is
    /// the mutable state; the events themselves are rebuilt from the
    /// plan in `SystemConfig::faults`, and `load` verifies the count
    /// matches.
    fn save(&self, w: &mut crate::checkpoint::SnapWriter) {
        w.section("fault");
        w.put_len(self.taken.len());
        for t in &self.taken {
            w.put_bool(*t);
        }
        w.put_u64(self.fired);
    }

    fn load(
        &mut self,
        r: &mut crate::checkpoint::SnapReader<'_>,
    ) -> Result<(), crate::checkpoint::SnapError> {
        r.section("fault")?;
        let n = r.get_len_expect("fault.taken", self.taken.len())?;
        for i in 0..n {
            self.taken[i] = r.get_bool()?;
        }
        self.fired = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(None);
        assert!(inj.is_inert());
        assert_eq!(inj.poll(u64::MAX, FaultKind::DelayedDram), None);
        let mut inj = FaultInjector::new(Some(&FaultPlan::empty()));
        assert!(inj.is_inert());
        assert_eq!(inj.poll(u64::MAX, FaultKind::CallbackOverrun), None);
    }

    #[test]
    fn single_fires_once_when_due() {
        let mut plan = FaultPlan::single(100, FaultKind::DelayedDram);
        plan.events[0].magnitude = 7;
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(99, FaultKind::DelayedDram), None);
        assert_eq!(inj.poll(50, FaultKind::MshrPressure), None);
        assert_eq!(inj.poll(100, FaultKind::DelayedDram), Some(7));
        assert_eq!(inj.poll(200, FaultKind::DelayedDram), None);
        assert_eq!(inj.fired(), 1);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn kind_filter_respected() {
        let plan = FaultPlan::single(0, FaultKind::IllegalAction);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(1_000, FaultKind::CallbackOverrun), None);
        assert_eq!(inj.poll(1_000, FaultKind::IllegalAction), Some(0));
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = FaultPlan::seeded(9, &FaultKind::ALL, 20, 100, 10_000);
        let b = FaultPlan::seeded(9, &FaultKind::ALL, 20, 100, 10_000);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 20);
        for ev in &a.events {
            assert!((100..10_000).contains(&ev.at));
        }
        let c = FaultPlan::seeded(10, &FaultKind::ALL, 20, 100, 10_000);
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_round_robins_kinds() {
        let p = FaultPlan::seeded(1, &FaultKind::ALL, 10, 0, 100);
        for (i, ev) in p.events.iter().enumerate() {
            assert_eq!(ev.kind, FaultKind::ALL[i % FaultKind::ALL.len()]);
        }
    }

    /// `parse` draws exactly these schedules: every injection point,
    /// kind and payload, captured from the two separate plan types
    /// before they became one [`Plan`]. A change to the RNG draw order
    /// fails here. Malformed specs are rejected with the family's flag
    /// or noun in the message.
    #[test]
    fn parse_draws_pinned_schedules() {
        use crate::storage::{IoFault, IoFaultKind as Io};
        use FaultKind::*;

        fn check<K: PlanKind>(cases: &[(&str, Vec<K::Event>)], malformed: &[(&str, &str)]) {
            for (spec, want) in cases {
                let plan = Plan::<K>::parse(spec).unwrap();
                let seed = spec.split(':').next().unwrap().parse::<u64>().unwrap();
                assert_eq!(plan.seed, seed, "--{} {spec}", K::FLAG);
                assert_eq!(&plan.events, want, "--{} {spec}", K::FLAG);
            }
            for (spec, err) in malformed {
                assert_eq!(Plan::<K>::parse(spec).unwrap_err(), *err);
            }
        }
        let f = |evs: &[(Cycle, FaultKind, u64)]| -> Vec<FaultEvent> {
            evs.iter()
                .map(|&(at, kind, magnitude)| FaultEvent {
                    at,
                    kind,
                    magnitude,
                    site: None,
                })
                .collect()
        };
        let io = |evs: &[(u64, Io)]| -> Vec<IoFault> {
            evs.iter()
                .map(|&(at_op, kind)| IoFault { at_op, kind })
                .collect()
        };

        check::<FaultKind>(
            &[
                ("7:dram", f(&[(700875, DelayedDram, 400000)])),
                (
                    "3:overrun:4",
                    f(&[
                        (690947, CallbackOverrun, 150000),
                        (640940, CallbackOverrun, 150000),
                        (219044, CallbackOverrun, 150000),
                        (534427, CallbackOverrun, 150000),
                    ]),
                ),
                (
                    "11:mix:10",
                    f(&[
                        (224050, CallbackOverrun, 150000),
                        (88147, IllegalAction, 0),
                        (246015, FabricExhaustion, 0),
                        (444331, MshrPressure, 12),
                        (86166, DelayedDram, 400000),
                        (307365, CallbackOverrun, 150000),
                        (512920, IllegalAction, 0),
                        (995765, FabricExhaustion, 0),
                        (632369, MshrPressure, 12),
                        (229883, DelayedDram, 400000),
                    ]),
                ),
            ],
            &[
                ("x:dram", "bad fault seed `x`"),
                (
                    "1:bogus",
                    "unknown fault kind `bogus` (want overrun, illegal, fabric, mshr, dram, or mix)",
                ),
                ("1:dram:zzz", "bad fault count `zzz`"),
                ("1", "--faults wants seed:kind[:count], got `1`"),
                ("1:dram:2:3", "--faults wants seed:kind[:count], got `1:dram:2:3`"),
            ],
        );

        let flip = Io::BitFlip { offset: 3, bit: 5 };
        check::<Io>(
            &[
                ("7:torn", io(&[(44, Io::TornWrite { keep: 7 })])),
                (
                    "3:flip:4",
                    io(&[(44, flip), (40, flip), (13, flip), (34, flip)]),
                ),
                (
                    "11:mix:10",
                    io(&[
                        (14, Io::Crash),
                        (5, Io::CrashAfter),
                        (15, Io::TornWrite { keep: 7 }),
                        (28, Io::DropRename),
                        (5, Io::DuplicateAppend),
                        (19, flip),
                        (32, Io::TransientError),
                        (63, Io::PermanentError),
                        (40, Io::Crash),
                        (14, Io::CrashAfter),
                    ]),
                ),
            ],
            &[
                ("x:torn", "bad io-fault seed `x`"),
                (
                    "1:bogus",
                    "unknown io-fault kind `bogus` (want crash, crash-after, torn, \
                     drop-rename, dup-append, flip, transient, permanent, or mix)",
                ),
                ("1", "--io-faults wants seed:kind[:count], got `1`"),
            ],
        );
    }

    #[test]
    fn site_addressed_events_fire_only_at_their_site() {
        let mut plan = FaultPlan::single(10, FaultKind::MshrPressure);
        plan.events[0].magnitude = 4;
        plan.events[0].site = Some(3);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(100, FaultKind::MshrPressure), None);
        assert_eq!(inj.poll_at(100, FaultKind::MshrPressure, 2), None);
        assert_eq!(inj.poll_at(100, FaultKind::MshrPressure, 3), Some(4));
        assert_eq!(inj.poll_at(200, FaultKind::MshrPressure, 3), None);
    }

    #[test]
    fn unaddressed_events_fire_at_any_site() {
        let mut plan = FaultPlan::single(10, FaultKind::DelayedDram);
        plan.events[0].magnitude = 7;
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll_at(100, FaultKind::DelayedDram, 5), Some(7));
    }

    #[test]
    fn cursor_snapshot_roundtrip() {
        let plan = FaultPlan::seeded(4, &FaultKind::ALL, 10, 1, 1_000);
        let mut inj = FaultInjector::new(Some(&plan));
        inj.poll(2_000, FaultKind::DelayedDram);
        inj.poll(2_000, FaultKind::MshrPressure);
        let env = crate::checkpoint::encode(&inj);
        let mut fresh = FaultInjector::new(Some(&plan));
        crate::checkpoint::decode(&env, &mut fresh).unwrap();
        assert_eq!(fresh.fired(), inj.fired());
        assert_eq!(fresh.pending(), inj.pending());
        assert_eq!(fresh.taken, inj.taken);
        // A cursor from a differently sized plan is rejected.
        let other = FaultPlan::seeded(4, &FaultKind::ALL, 3, 1, 1_000);
        let mut wrong = FaultInjector::new(Some(&other));
        assert!(crate::checkpoint::decode(&env, &mut wrong).is_err());
    }

    #[test]
    fn round_trip_kind_names() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_name("nope"), None);
    }
}
