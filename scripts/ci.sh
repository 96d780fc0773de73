#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and a fault-injection smoke run.
# Run from the repository root. Everything here is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace

# The benchmark package (simbench/) sits outside the workspace; build
# it so a crate API change that breaks it fails here, not when the
# benchmark next runs.
echo "==> cargo build --release (simbench)"
cargo build --release --manifest-path simbench/Cargo.toml

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc"
cargo doc --workspace --no-deps -q

# Smoke the robustness contract: a small seeded campaign (6 scenarios
# per case study) must complete with zero invariant violations, every
# injected stall detected, and noninterference intact. Takes ~2s.
echo "==> fault_campaign smoke"
./target/release/fault_campaign --scale 0.25 --scenarios 6

# Protocol model-checker smoke: exhaust the tiny 2-tile bounded state
# space to depth 2 for all four Morph families (must be clean), replay
# every committed counterexample in crates/bench/regressions/ (each
# recorded violation must still reproduce), and arm the illegal-action
# mutant, which every family must catch and shrink to <= 8 steps.
# Takes ~5s with 4 workers; the report is byte-identical at any
# --jobs count.
echo "==> protocol_check smoke"
./target/release/protocol_check --depth 2 --jobs 4
for cex in crates/bench/regressions/*.takocex; do
  ./target/release/protocol_check --replay "$cex"
done
MUTDIR=$(mktemp -d)
./target/release/protocol_check --mutant --depth 2 --jobs 4 \
    --write-cex "$MUTDIR/mutant.takocex"
./target/release/protocol_check --replay "$MUTDIR/mutant.takocex"
rm -rf "$MUTDIR"

# Interrupt/resume smoke: journal a campaign, crash every experiment
# after two checkpointed units, resume it, and require the resumed
# output byte-identical to a clean (unjournaled) run. Timing lines
# ("[name took ...]") are stripped before the diff. Both runs must
# also have shared runs through the run memo (DESIGN.md §7e): some
# requests served from it, and every request either simulated or
# served, against the requests counted per experiment.
echo "==> campaign interrupt/resume smoke"
JDIR=$(mktemp -d)
trap 'rm -rf "$JDIR"' EXIT
if ./target/release/all_experiments --scale 0.01 --jobs 2 \
    --journal "$JDIR/journal" --crash-after-units 2 \
    > /dev/null 2> "$JDIR/crash.log"; then
  echo "error: crashed campaign should exit nonzero" >&2
  exit 1
fi
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --journal "$JDIR/journal" --resume \
    --bench-json "$JDIR/resumed.json" > "$JDIR/resumed.txt"
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --bench-json "$JDIR/clean.json" > "$JDIR/clean.txt"
diff <(grep -v 'took' "$JDIR/clean.txt") \
     <(grep -v 'took' "$JDIR/resumed.txt")
echo "    resumed campaign output matches clean run"
python3 - "$JDIR/resumed.json" "$JDIR/clean.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    d = json.load(open(path))
    requests = sum(e["runs"] for e in d["experiments"].values())
    distinct, hits = d["distinct_runs"], d["memo_hits"]
    name = path.rsplit("/", 1)[-1]
    assert hits > 0, f"{name}: no run request was served from the memo"
    assert distinct + hits == requests, (
        f"{name}: {distinct} simulated + {hits} memo hits != {requests} requests")
    print(f"    {name}: {requests} run requests = "
          f"{distinct} simulated + {hits} from the memo")
EOF

# Crash-point sweep smoke: every I/O site of a small journaled
# campaign, for every deterministic fault kind, must resume to the
# uninterrupted run's golden digest (DESIGN.md §7d). Takes ~1s.
echo "==> crash-point sweep smoke"
./target/release/crash_campaign --root "$JDIR/sweep"

# Journal doctor smoke: --verify must flag exactly the committed
# corrupt fixtures (and exit nonzero doing so), and a repaired copy
# must come back clean.
echo "==> tako_fsck smoke"
if ./target/release/tako_fsck --verify crates/bench/regressions/fsck \
    > "$JDIR/fsck.txt"; then
  echo "error: verify should flag the corrupt fixtures" >&2
  exit 1
fi
grep -q '4 flagged' "$JDIR/fsck.txt"
cp -r crates/bench/regressions/fsck "$JDIR/fsck-repair"
./target/release/tako_fsck --repair "$JDIR/fsck-repair" > /dev/null
./target/release/tako_fsck --verify "$JDIR/fsck-repair" > /dev/null
echo "    fixtures flagged; repaired copy verifies clean"

# Observability smoke: a traced run must produce parseable Chrome
# trace JSON with real events, a profile table, and output that is
# byte-identical to the untraced clean run above (tracing is strictly
# observational).
echo "==> trace smoke"
./target/release/all_experiments --scale 0.01 --jobs 2 \
    --trace-out "$JDIR/trace.json" --profile \
    --bench-json "$JDIR/traced.json" > "$JDIR/traced.txt"
grep -q '^PROFILE:' "$JDIR/traced.txt"
diff <(grep -v 'took' "$JDIR/clean.txt") \
     <(grep -v 'took' "$JDIR/traced.txt" | sed '/^PROFILE:/,$d')
python3 - "$JDIR/trace.json" "$JDIR/traced.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
inst = [e for e in evs if e.get("ph") == "i"]
assert inst, "trace has no instant events"
assert all(e["ts"] >= 0 for e in inst), "negative timestamp"
print(f"    trace JSON valid: {len(evs)} events ({len(inst)} instants)")
# Every simulation builds one system, which the observer counts, so
# the memo's distinct-run tally must equal it.
b = json.load(open(sys.argv[2]))
systems = b["metrics"]["systems"]
assert b["distinct_runs"] == systems, (
    f"{b['distinct_runs']} distinct runs but {systems} systems built")
print(f"    {systems} systems built = distinct runs simulated")
EOF
echo "    traced output matches clean run"

# Throughput gate: a same-host A/B against the commit this tree builds
# on (HEAD when the tree has uncommitted changes, else HEAD's parent).
# Both sides are built and run here, alternating, so the verdict
# compares code, not hosts: the median simulated accesses/s may not
# fall more than 5% below the base's (scripts/ab.sh).
echo "==> throughput A/B"
if git diff --quiet HEAD; then
  scripts/ab.sh HEAD~1
else
  scripts/ab.sh HEAD
fi

echo "ci: all green"
