//! Host-side measurement: scheduler accounting, peak memory, order
//! statistics, and the benchmark's own span recorder.

use std::cell::RefCell;
use std::time::Instant;

/// On-CPU and run-queue time of the calling thread, from
/// `/proc/thread-self/schedstat` (nanoseconds). `None` where the kernel
/// does not expose it; the benchmark then reports zeros.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub runq_ns: u64,
}

impl Sched {
    pub fn now() -> Sched {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| {
                let mut f = s.split_whitespace().map(|x| x.parse::<u64>().ok());
                Some(Sched {
                    cpu_ns: f.next()??,
                    runq_ns: f.next()??,
                })
            })
            .unwrap_or_default()
    }

    /// Seconds of (on-CPU, run-queue wait) since `earlier`.
    pub fn since(self, earlier: Sched) -> (f64, f64) {
        (
            self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 * 1e-9,
            self.runq_ns.saturating_sub(earlier.runq_ns) as f64 * 1e-9,
        )
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

// ----------------------------------------------------------------------
// Host-speed calibration
// ----------------------------------------------------------------------

/// Seconds [`calibration_s`] takes on a host at the reference speed
/// (an unloaded core of the 2-core Xeon host the bounds were set on).
pub const CALIBRATION_REF_S: f64 = 0.0125;

/// Time a fixed integer kernel that shares no code with the simulator:
/// xorshift, data-dependent branches and lookups in a 256 KB table. On
/// a shared host whose core speed drifts by tens of percent over
/// minutes, the kernel slows with the simulator, so timings divided by
/// it drift far less than raw timings.
#[inline(never)]
pub fn calibration_s() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..32_768u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    });
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..1_500_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[(x ^ acc) as usize & 32_767];
        if v & 3 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v >> 3;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Host time of one or more calls: raw seconds, and seconds scaled to
/// the reference host speed by the calibration kernel timed around
/// each call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub raw_s: f64,
    pub norm_s: f64,
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, o: Timing) {
        self.raw_s += o.raw_s;
        self.norm_s += o.norm_s;
    }
}

/// [`span`], bracketed by a calibration run on each side.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, Timing) {
    let before = calibration_s();
    let (out, raw_s) = span(name, f);
    let calib = (before + calibration_s()) / 2.0;
    let norm_s = raw_s * CALIBRATION_REF_S / calib;
    (out, Timing { raw_s, norm_s })
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/// One closed span: a named host-time interval around a call the
/// benchmark makes into a layer, with the span that enclosed it.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static SPANS: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Start or stop keeping spans (timing is always returned).
pub fn record_spans(on: bool) {
    SPANS.with(|r| r.borrow_mut().on = on);
}

/// Run `f`, returning its value and its host wall time in seconds.
/// While recording is on, the interval is also kept as a [`Span`]
/// nested under whichever span is open around it.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let id = SPANS.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: 0,
            dur_ns: 0,
        });
        r.open.push(id);
        Some(id)
    });
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed();
    if let Some(id) = id {
        SPANS.with(|r| {
            let mut r = r.borrow_mut();
            r.open.pop();
            let s = &mut r.spans[id];
            s.start_ns = t0.duration_since(epoch()).as_nanos() as u64;
            s.dur_ns = dur.as_nanos() as u64;
        });
    }
    (out, dur.as_secs_f64())
}

/// Every span kept so far.
pub fn spans() -> Vec<Span> {
    SPANS.with(|r| r.borrow().spans.clone())
}

/// Median duration in seconds of the spans called `name`.
pub fn span_median_s(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64 * 1e-9)
        .collect();
    median(&d)
}

/// Render spans as Chrome `trace_event` JSON: one complete (`"X"`)
/// event per span, with its id, parent and self time in `args`.
pub fn spans_chrome_json(spans: &[Span]) -> String {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent.map_or(-1, |p| p as i64),
                s.dur_ns.saturating_sub(child_ns[s.id]) as f64 / 1e3,
            )
        })
        .collect();
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}
