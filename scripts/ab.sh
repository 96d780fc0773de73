#!/usr/bin/env bash
# Same-host A/B throughput gate.
#
#   scripts/ab.sh <base-rev>
#
# Builds <base-rev> and the working tree into separate target dirs,
# then alternates runs of the scale-0.02 suite (`all_experiments
# --scale 0.02 --jobs 1 --bench-json ...`), swapping which side goes
# first each round so warm-up order favours neither. Fails (exit 1)
# when the working tree's median simulated accesses/s is more than 5%
# below the base's. Both sides run on this host, interleaved, so the
# verdict compares code, not machines.
#
# The base source is exported with `git archive` into target/ab/ (no
# worktree is registered in the repository) and built into
# target/ab/base-target; the working tree builds into the usual
# target/. Reruns against the same revision rebuild only what changed.
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REV=${1:?usage: scripts/ab.sh <base-rev>}
RUNS=11
MAX_SLOWDOWN=0.05

base_sha=$(git rev-parse --verify "$BASE_REV^{commit}")
ab=target/ab
src=$ab/base-src
if [ "$(cat "$src/.ab-rev" 2> /dev/null || true)" != "$base_sha" ]; then
  rm -rf "$src"
  mkdir -p "$src"
  git archive "$base_sha" | tar -x -C "$src"
  echo "$base_sha" > "$src/.ab-rev"
fi

echo "==> ab: building base $BASE_REV (${base_sha:0:12})"
cargo build --release -q --manifest-path "$src/Cargo.toml" \
  --target-dir "$ab/base-target" -p tako-bench --bin all_experiments
echo "==> ab: building candidate (working tree)"
cargo build --release -q -p tako-bench --bin all_experiments

base_bin=$ab/base-target/release/all_experiments
cand_bin=target/release/all_experiments
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # side round
  local bin=$base_bin
  [ "$1" = candidate ] && bin=$cand_bin
  "$bin" --scale 0.02 --jobs 1 --bench-json "$out/$1-$2.json" > /dev/null 2>&1
}

echo "==> ab: $RUNS alternating runs per side"
for i in $(seq 1 "$RUNS"); do
  if [ $((i % 2)) -eq 1 ]; then
    run base "$i"
    run candidate "$i"
  else
    run candidate "$i"
    run base "$i"
  fi
done

python3 - "$out" "$RUNS" "$MAX_SLOWDOWN" << 'EOF'
import json, statistics, sys
out, runs, max_slowdown = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
aps = {
    side: [json.load(open(f"{out}/{side}-{i}.json"))["accesses_per_sec"]
           for i in range(1, runs + 1)]
    for side in ("base", "candidate")
}
for side, xs in aps.items():
    print(f"    {side:9} " + " ".join(f"{x / 1e6:.2f}M" for x in xs))
base = statistics.median(aps["base"])
cand = statistics.median(aps["candidate"])
delta = cand / base - 1
verdict = "ok" if delta >= -max_slowdown else "SLOWER"
print(f"    median accesses/s: base {base:,.0f}, candidate {cand:,.0f} "
      f"({delta:+.1%}, limit -{max_slowdown:.0%}): {verdict}")
sys.exit(0 if verdict == "ok" else 1)
EOF
