#!/usr/bin/env bash
# Measures the same commit twice and fails if the second set of numbers
# disagrees with the first:
#   - an end-to-end metric whose median is worse than the first set's by more
#     than its bound in BENCHMARK.json,
#   - sim_sparrow_s / sim_flamingo_s or any exact count (per-layer metrics in
#     `count` or `bytes`) different at all,
#   - any failed run in either set.
# Each set is three timed runs and one traced run per workload, all with one
# seed. The timed runs of the two sets alternate, so that a slow minute of
# the host falls on both; a single pair of runs differs by up to 40 % here.
#
# usage: benchmark/check_repeat.sh [seed]      (about 13 minutes)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
out=benchmark/out/repeat
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/emma-benchmark"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

run() { # set, workload, trace, file
  echo "set $1: $2 --trace $3" >&2
  "$bin" --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$3" | tail -n 1 > "$4"
}
for w in $workloads; do
  for i in 1 2 3; do
    for set in 1 2; do
      run "$set" "$w" 0 "$out/$set-$w-timed-$i.json"
    done
  done
  for set in 1 2; do
    run "$set" "$w" 1 "$out/$set-$w-traced.json"
  done
done

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bad = []
for w in (w["name"] for w in spec["workloads"]):
    timed = {s: [json.load(open(f"{out}/{s}-{w}-timed-{i}.json")) for i in (1, 2, 3)] for s in (1, 2)}
    traced = {s: json.load(open(f"{out}/{s}-{w}-traced.json")) for s in (1, 2)}
    for s in (1, 2):
        failed = sum(r["failed"] for r in timed[s] + [traced[s]])
        if failed:
            bad.append(f"{w}: {failed} failed runs in set {s}")
    for m in spec["end_to_end"]:
        x, y = ([r["metrics"][m["name"]]["value"] for r in timed[s]] for s in (1, 2))
        if m["name"].startswith("sim_"):
            if len(set(x + y)) != 1:
                bad.append(f"{w}: {m['name']} reads {sorted(set(x + y))}: the simulated clock must repeat exactly")
            continue
        x, y = statistics.median(x), statistics.median(y)
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        line = f"{w:16} {m['name']:16} {x:14.4f} {y:14.4f} {100 * worse:+7.2f}% (bound {100 * m['bound']:.0f}%)"
        print(line)
        if worse > m["bound"]:
            bad.append(line)
    a, b = traced[1]["metrics"], traced[2]["metrics"]
    for name, v in a.items():
        if v["unit"] in ("count", "bytes") and v["value"] != b[name]["value"]:
            bad.append(f"{w}: {name} {v['value']} then {b[name]['value']}: an exact count must repeat")
if bad:
    print("\ncheck_repeat: FAILED", *bad, sep="\n  ")
    sys.exit(1)
print("\ncheck_repeat: the two sets agree")
EOF
