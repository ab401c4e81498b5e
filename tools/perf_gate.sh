#!/usr/bin/env bash
# CI perf-regression gate: run one tier of the pinned observability
# smoke sweep (`perf_smoke`, tracing force-enabled) and compare it
# against the tier's committed baseline.
#
# Usage:
#   tools/perf_gate.sh            # legacy tier (exact solvers)
#   tools/perf_gate.sh legacy     # same
#   tools/perf_gate.sh large      # large-n tier (spanner backend)
#
# Tiers:
#   legacy — `perf_smoke` with no argument, gated against
#            results/PERF_BASELINE.json; six deterministic counters.
#   large  — `perf_smoke large`: spanner-backed dynamics + bracketed
#            certification at n ∈ {1024, 4096, 10000}, gated against
#            results/PERF_BASELINE_LARGE.json; eight deterministic
#            counters (the six legacy ones plus the candidate-generation
#            tallies). Each stage row also carries its own counter
#            delta; the gate prints that ledger next to the stage times
#            (marking counts that differ from the baseline row), while
#            the exact check stays on the merged totals.
#
# Contract:
#   - the tier's deterministic trace counters must match the baseline
#     EXACTLY — they depend only on the workload, never on thread
#     count, scheduling, or fault injection;
#   - stage rows carry RAW wall seconds; each report also records
#     `calibration_secs`, the wall time of a fixed in-process pure-CPU
#     loop on the machine that produced it. The gate normalizes each
#     stage by its own file's calibration constant *here* (current
#     stage/current calibration vs baseline stage/baseline calibration)
#     before applying GNCG_PERF_RATIO (default 1.5; this script is its
#     only reader, and a value that is not a finite number > 0 exits
#     2), so baselines
#     recorded on a different machine compare in machine-neutral units
#     and the constants are auditable in both files. A baseline without
#     `calibration_secs` predates this scheme and must be refreshed —
#     comparing its rows as if they were raw seconds would silently
#     gate against the wrong units.
#
# The sweep runs under GNCG_THREADS=1 so the time ratios are comparable
# across machines with different core counts.
#
# To refresh a baseline after an intentional perf/workload change:
#   cargo build --release -p gncg-bench --bin perf_smoke
#   GNCG_THREADS=1 GNCG_RESULTS_DIR=results ./target/release/perf_smoke
#   mv results/perf_smoke.json results/PERF_BASELINE.json
# (for the large tier: `perf_smoke large`, perf_smoke_large.json,
#  results/PERF_BASELINE_LARGE.json)
set -euo pipefail
cd "$(dirname "$0")/.."

TIER="${1:-legacy}"
RATIO="${GNCG_PERF_RATIO:-1.5}"
if ! python3 -c 'import math, sys; r = float(sys.argv[1]); sys.exit(not (math.isfinite(r) and r > 0))' \
    "$RATIO" 2>/dev/null; then
    echo "perf_gate.sh: GNCG_PERF_RATIO='$RATIO' is not a finite number > 0" >&2
    exit 2
fi
OUT_DIR="${GNCG_PERF_OUT:-target/perf-gate}"

case "$TIER" in
legacy)
    TIER_ARGS=()
    CUR_JSON="$OUT_DIR/perf_smoke.json"
    BASELINE=results/PERF_BASELINE.json
    ;;
large)
    TIER_ARGS=(large)
    CUR_JSON="$OUT_DIR/perf_smoke_large.json"
    BASELINE=results/PERF_BASELINE_LARGE.json
    ;;
*)
    echo "perf_gate.sh: unknown tier '$TIER' (expected 'legacy' or 'large')" >&2
    exit 2
    ;;
esac

cargo build --release -p gncg-bench --bin perf_smoke
mkdir -p "$OUT_DIR"
GNCG_TRACE=1 GNCG_THREADS=1 \
    GNCG_RESULTS_DIR="$OUT_DIR" ./target/release/perf_smoke ${TIER_ARGS[@]+"${TIER_ARGS[@]}"}

python3 - "$CUR_JSON" "$BASELINE" "$RATIO" "$TIER" <<'PY'
import json, sys

cur_path, base_path, ratio, tier = (
    sys.argv[1],
    sys.argv[2],
    float(sys.argv[3]),
    sys.argv[4],
)
cur, base = json.load(open(cur_path)), json.load(open(base_path))

DETERMINISTIC = [
    "dijkstra_relaxations",
    "dijkstra_heap_pops",
    "best_response_evals",
    "row_invalidations",
    "moves_pruned",
    "moves_evaluated",
]
# stages the sweep must always carry, whatever the baseline says
REQUIRED = ["service dispatch x512"]
if tier == "large":
    DETERMINISTIC += ["candidates_generated", "candidates_skipped"]
    REQUIRED = ["approx dynamics+certify n=10000 grid"]

failures = []

cc, bc = cur["trace"]["counters"], base["trace"]["counters"]
for name in DETERMINISTIC:
    if cc[name] != bc[name]:
        failures.append(
            f"counter drift: {name}: baseline {bc[name]} != current {cc[name]}"
        )

# Cross-machine normalization: every report records the wall time of
# the same fixed pure-CPU calibration loop; stage rows are raw seconds.
# Comparing (stage / own calibration) on both sides cancels machine
# speed before the regression ratio is applied.
def calibration(report, path):
    c = report.get("calibration_secs")
    if not isinstance(c, (int, float)) or c <= 0:
        failures.append(
            f"{path}: missing/invalid calibration_secs — refresh the file "
            "with the current perf_smoke (its rows are raw seconds that "
            "cannot be compared without the recorded constant)"
        )
        return None
    return float(c)

cur_cal, base_cal = calibration(cur, cur_path), calibration(base, base_path)
if cur_cal is not None and base_cal is not None:
    base_rows = {r["params"]: r["measured"] / base_cal for r in base["rows"]}
    cur_names = {r["params"] for r in cur["rows"]}
    print(
        f"calibration: current {cur_cal:.3f}s vs baseline {base_cal:.3f}s "
        f"(machine speed factor {cur_cal / base_cal:.3f})"
    )
    for row in cur["rows"]:
        name, m = row["params"], row["measured"] / cur_cal
        b = base_rows.get(name)
        if b is None:
            failures.append(f"stage missing from baseline: {name}")
            continue
        if m > b * ratio:
            failures.append(
                f"wall-time regression: {name}: normalized {m:.3f} > "
                f"{ratio} x baseline {b:.3f}"
            )
        elif m > b:
            print(f"note: {name}: {m:.3f} vs baseline {b:.3f} (within {ratio}x)")
    for name in base_rows:
        if name not in cur_names:
            failures.append(f"stage missing from current run: {name}")
    for name in REQUIRED:
        if name not in cur_names:
            failures.append(f"required stage absent from sweep: {name}")

    # per-stage ledger: which stage a drift in the merged totals came
    # from ('*' = differs from the baseline row's own count)
    LEDGER = [
        ("dijkstra_relaxations", "relax"),
        ("dijkstra_heap_pops", "pops"),
        ("best_response_evals", "evals"),
        ("moves_pruned", "pruned"),
        ("candidates_generated", "cand_gen"),
        ("candidates_skipped", "cand_skip"),
    ]
    if any("counters" in row for row in cur["rows"]):
        base_ledger = {r["params"]: r.get("counters", {}) for r in base["rows"]}
        print(
            f"{'stage':<40} {'raw s':>8} {'norm':>8} {'base':>8} "
            + " ".join(f"{short:>12}" for _, short in LEDGER)
        )
        for row in cur["rows"]:
            name, counts = row["params"], row.get("counters", {})
            theirs = base_ledger.get(name, {})
            b = base_rows.get(name)
            cells = []
            for key, _ in LEDGER:
                v = counts.get(key)
                mark = "*" if key in theirs and theirs[key] != v else " "
                cells.append(f"{'-' if v is None else v:>11}{mark}")
            print(
                f"{name:<40} {row['measured']:>8.3f} {row['measured'] / cur_cal:>8.3f} "
                f"{'-' if b is None else format(b, '.3f'):>8} " + " ".join(cells)
            )

if failures:
    print(f"PERF GATE FAILED ({tier} tier):")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(
    f"perf gate OK ({tier} tier): {len(DETERMINISTIC)} counters exact, "
    f"{len(cur['rows'])} normalized stage times within {ratio}x of baseline"
)
PY
