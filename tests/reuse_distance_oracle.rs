//! Closed-form oracle for the LRU tag arrays: per-set reuse distance.
//!
//! A set-associative LRU cache behaves, set by set, exactly like a fully
//! associative LRU cache of `ways` lines (Gysi et al., "A Fast Analytical
//! Model of Fully Associative Caches", PAPERS.md). An access hits iff
//! its stack distance — the number of distinct lines of its set touched
//! since its previous access — is below the associativity. The
//! reference below is Mattson's naive stack algorithm, one stack per
//! set, written from that definition: it shares no code with the
//! simulator (its own set mapping, its own stream generator, no
//! `tako_sim` helpers).
//!
//! This covers the levels that use `ReplPolicy::Lru`: the core L1d and
//! the engine L1d. The L2 and LLC use trrîp (SRRIP with engine-fill
//! demotion and the callback-free-line rule, Sec 5.2), which has no
//! stack property, so stack distances cannot predict their hits; those
//! levels are out of this oracle's reach.

use tako_cache::{CacheArray, InsertKind};
use tako_sim::config::{CacheConfig, ReplPolicy, LINE_BYTES};

/// Per-set LRU stacks: most recent line first.
struct StackOracle {
    stacks: Vec<Vec<u64>>,
    ways: usize,
}

impl StackOracle {
    fn new(sets: usize, ways: usize) -> Self {
        StackOracle {
            stacks: vec![Vec::new(); sets],
            ways,
        }
    }

    /// Access line number `n`; true iff its stack distance is below
    /// the associativity.
    fn access(&mut self, n: u64) -> bool {
        let sets = self.stacks.len() as u64;
        let stack = &mut self.stacks[(n % sets) as usize];
        let distance = stack.iter().position(|&x| x == n);
        if let Some(d) = distance {
            stack.remove(d);
        }
        stack.insert(0, n);
        matches!(distance, Some(d) if d < self.ways)
    }
}

/// splitmix64: the streams' own generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy)]
enum Stream {
    /// Uniform over `footprint` lines.
    Uniform { footprint: u64 },
    /// `start, start + stride, ...` wrapping at `footprint` lines.
    Strided { footprint: u64, stride: u64 },
    /// Line ranks with density ∝ 1/rank (log-uniform), scattered over a
    /// power-of-two `footprint` by an odd multiplier.
    PowerLaw { footprint: u64 },
}

/// `len` line numbers of `stream`, seeded by `seed`.
fn lines(stream: Stream, seed: u64, len: usize) -> Vec<u64> {
    let mut g = Gen(seed);
    let mut cursor = g.next() % (1 << 20);
    (0..len)
        .map(|_| match stream {
            Stream::Uniform { footprint } => g.next() % footprint,
            Stream::Strided { footprint, stride } => {
                cursor = (cursor + stride) % footprint;
                cursor
            }
            Stream::PowerLaw { footprint } => {
                let rank = ((g.unit() * ((footprint + 1) as f64).ln()).exp() as u64)
                    .saturating_sub(1)
                    .min(footprint - 1);
                rank.wrapping_mul(0x9E37_79B1) % footprint
            }
        })
        .collect()
}

/// Drive an LRU array of `sets × ways` and the oracle with the same
/// stream; every access must agree on hit or miss.
fn check(sets: u64, ways: u32, stream: Stream, seed: u64) -> (usize, usize) {
    let cfg = CacheConfig {
        size_bytes: sets * u64::from(ways) * LINE_BYTES,
        ways,
        tag_latency: 1,
        data_latency: 1,
        repl: ReplPolicy::Lru,
        mshrs: 4,
    };
    let mut array = CacheArray::new(cfg);
    let mut oracle = StackOracle::new(sets as usize, ways as usize);
    let mut hits = 0;
    let trace = lines(stream, seed, 20_000);
    for (i, &n) in trace.iter().enumerate() {
        let addr = n * LINE_BYTES;
        let hit = array.lookup(addr).is_some();
        if !hit {
            array.insert(addr, false, false, InsertKind::Demand, 0);
        }
        assert_eq!(
            hit,
            oracle.access(n),
            "{sets}x{ways} {stream:?} seed {seed}: access {i} (line {n}) disagrees"
        );
        hits += usize::from(hit);
    }
    (hits, trace.len())
}

/// Streams scaled to a cache of `lines` lines: footprints below, near
/// and above capacity, so hits, capacity misses and conflict misses all
/// occur.
fn streams(lines: u64) -> Vec<Stream> {
    let pow2 = (2 * lines).next_power_of_two();
    vec![
        Stream::Uniform {
            footprint: lines / 2 + 1,
        },
        Stream::Uniform {
            footprint: 2 * lines,
        },
        Stream::Strided {
            footprint: lines + lines / 4 + 1,
            stride: 1,
        },
        Stream::Strided {
            footprint: 4 * lines + 3,
            stride: 3,
        },
        Stream::PowerLaw { footprint: pow2 },
        Stream::PowerLaw {
            footprint: 8 * pow2,
        },
    ]
}

#[test]
fn l1d_geometry_matches_stack_distance_oracle() {
    let l1d = CacheConfig::l1d_default();
    assert_eq!(l1d.repl, ReplPolicy::Lru);
    let (sets, ways) = (l1d.sets(), l1d.ways);
    assert_eq!((sets, ways), (64, 8), "the paper's L1d geometry");
    let (mut hits, mut total) = (0, 0);
    for (k, stream) in streams(sets * u64::from(ways)).into_iter().enumerate() {
        for seed in [1, 2] {
            let (h, n) = check(sets, ways, stream, 0x5D00 + 16 * k as u64 + seed);
            hits += h;
            total += n;
        }
    }
    // The streams must exercise both outcomes, or agreement is vacuous.
    assert!(
        hits > total / 10 && hits < total * 9 / 10,
        "{hits}/{total} hits"
    );
}

#[test]
fn set_strided_stream_sees_only_conflict_misses() {
    // Stride of exactly `sets` lines maps every access to one set: a
    // loop over more lines than ways misses every time under LRU, one
    // over at most `ways` lines hits after the first pass.
    let (sets, ways) = (64, 8);
    let (hits, total) = check(
        sets,
        ways,
        Stream::Strided {
            footprint: sets * (u64::from(ways) + 1),
            stride: sets,
        },
        7,
    );
    assert_eq!(hits, 0, "{hits}/{total}");
    let (hits, total) = check(
        sets,
        ways,
        Stream::Strided {
            footprint: sets * u64::from(ways),
            stride: sets,
        },
        7,
    );
    assert_eq!(hits, total - ways as usize, "{hits}/{total}");
}

#[test]
fn engine_l1d_geometry_matches_stack_distance_oracle() {
    let l1d = CacheConfig::engine_l1d_default();
    assert_eq!(l1d.repl, ReplPolicy::Lru);
    let (sets, ways) = (l1d.sets(), l1d.ways);
    for (k, stream) in streams(sets * u64::from(ways)).into_iter().enumerate() {
        check(sets, ways, stream, 0xE100 + k as u64);
    }
}

#[test]
fn one_set_fully_associative_matches_stack_distance_oracle() {
    for ways in [1u32, 2, 3, 8, 16, 32] {
        for (k, stream) in streams(u64::from(ways)).into_iter().enumerate() {
            check(1, ways, stream, 0xFA00 + 16 * u64::from(ways) + k as u64);
        }
    }
}
