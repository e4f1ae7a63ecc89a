#!/usr/bin/env bash
# Byte-identity check for a change that should not move any number: run
# the preset commands on git revision REV and on the working tree, then
# diff every artifact the two runs wrote.
#
#   tools/diff_presets.sh REV
#
# REV is exported with `git archive` into a temporary directory; both
# trees run with the same Python.  Each command's exit status is recorded
# beside its artifacts, so a run that fails on one side shows up in the
# diff too; a command that fails on both sides diffs clean, so every
# nonzero status on either side is printed after the diff as well.
# Prints nothing and exits 0 when every command succeeds on both sides
# and the two trees agree byte for byte; full fig4 (exact included)
# dominates the run time.  After the diff, each file that differs gets
# one line per numeric column that changed, with the largest absolute
# change in it (a CSV column by its header, a JSON number by its key path
# with list indices dropped).  A frontier CSV whose row count changed
# also gets the largest rise and the largest fall of its step function
# p_at(t), the largest P held for at least t steps, over t = 1..max T,
# per mode where it has one.  The summary does not change the exit
# status.
set -euo pipefail

rev=${1:?usage: tools/diff_presets.sh REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev-tree" "$tmp/rev" "$tmp/work"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev-tree"

# run_presets SRC OUT: every preset command with tclflex from SRC, writing
# under OUT.  Paths are relative to OUT, so the aggregate's
# effective_config.json names the same inputs on both sides.
run_presets() {
    local src=$1 out=$2
    cd "$out"
    tclflex() {
        local status=0
        PYTHONPATH="$src" python3 -c 'import sys; from tclflex.cli import main; sys.exit(main(sys.argv[1:]))' \
            "$@" >/dev/null 2>&1 || status=$?
        echo "$status tclflex $*" >>exit_status.txt
    }
    tclflex reachhold --preset fig4 --methods inner,outer,exact --out fig4
    tclflex build-model --preset fig4 --out model
    tclflex sweep-setpoint --preset fig5 --out fig5
    tclflex sweep-precool --preset fig6 --out fig6
    tclflex validate --preset fig2 --out fig2
    tclflex validate --preset fig7 --out fig7
    # fig7's fleet and seeds: a step at the default fraction 1.0 switches
    # every unit, and a lone 480-step block has its horizon clipped to
    # T_max; both replay on the one burned-in fleet
    echo '{"fleet": {"n_units": 1000, "heterogeneity": 0.15, "seed": 777},
        "validate": {"mode": "step", "burn_in_steps": 240, "selection_seed": 55}}' >step_all.json
    tclflex validate --config step_all.json --out step_all
    echo '{"fleet": {"n_units": 1000, "heterogeneity": 0.15, "seed": 777},
        "validate": {"mode": "blocks", "hold_steps": [480], "burn_in_steps": 240, "selection_seed": 55}}' \
        >block_480.json
    tclflex validate --config block_480.json --out block_480
    # 160 bins on 14-24 C put the deadband's on states near 248-264, so the
    # replay keys units on both sides of the 8-bit boundary (on 18-24 C
    # they stay below 228)
    echo '{"fleet": {"n_units": 1000, "heterogeneity": 0.15, "seed": 777}, "grid": {"n_bins": 160, "T_min": 14.0},
        "validate": {"mode": "blocks", "hold_steps": [120], "burn_in_steps": 240, "selection_seed": 55}}' \
        >block_160_bins.json
    tclflex validate --config block_160_bins.json --out block_160_bins
    echo '{"aggregate": {"inputs": ["fig5/frontier_setpoint_22.csv", "fig6/precooled.csv"]}}' >aggregate.json
    tclflex aggregate --config aggregate.json --out aggregate
    # a setpoint raised to itself reduces nothing: a header-only frontier,
    # then combined with the 22 C frontier of the same sweep
    echo '{"sweep": {"new_setpoints": [20.0, 22.0]}}' >header_only.json
    tclflex sweep-setpoint --config header_only.json --out header_only
    echo '{"aggregate": {"inputs": ["header_only/frontier_setpoint_20.csv", "header_only/frontier_setpoint_22.csv"]}}' \
        >aggregate_header_only.json
    tclflex aggregate --config aggregate_header_only.json --out aggregate_header_only
    # LP sets load with their raw values, and a set combined with itself
    # repeats every hold in the consecutive mode's samples
    echo '{"aggregate": {"inputs": ["fig4/exact.csv", "fig4/exact.csv"]}}' >aggregate_exact.json
    tclflex aggregate --config aggregate_exact.json --out aggregate_exact
}

# the two trees run side by side, one process each
run_presets "$tmp/rev-tree/src" "$tmp/rev" &
run_presets "$root/src" "$tmp/work" &
wait
cd "$tmp"
status=0
diff -r rev work || status=1
# largest absolute change per numeric column of each file that differs
diff -rq rev work | sed -n 's/^Files rev\/\(.*\) and work\/.* differ$/\1/p' | python3 -c '
import csv, json, sys

def columns(path):
    """{column: [numbers]} of a CSV (by header) or JSON (by key path)."""
    cols = {}
    with open(path) as fh:
        if path.endswith(".json"):
            def walk(node, key):
                if isinstance(node, dict):
                    for k, v in node.items():
                        walk(v, f"{key}.{k}" if key else k)
                elif isinstance(node, list):
                    for v in node:
                        walk(v, key + "[]")
                elif isinstance(node, (int, float)) and not isinstance(node, bool):
                    cols.setdefault(key, []).append(float(node))
            walk(json.load(fh), "")
            return cols
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    for name, *values in zip(*rows) if rows else ():
        try:
            cols[name] = [float(v) for v in values]
        except ValueError:
            pass
    return cols

def step_functions(path):
    """{mode: p_at(t) for t = 1..max T} of a frontier CSV (mode None when
    it has no mode column), or {} when it is not a frontier."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or not {"T_hold_steps", "P_hold_kW"} <= rows[0].keys():
        return {}
    groups = {}
    for r in rows:
        groups.setdefault(r.get("mode"), []).append((int(r["T_hold_steps"]), float(r["P_hold_kW"])))
    out = {}
    for mode, points in groups.items():
        best = [0.0] * (max(t for t, _ in points) + 2)
        for t, p in points:
            best[t] = max(best[t], p)
        for t in range(len(best) - 2, 0, -1):
            best[t] = max(best[t], best[t + 1])
        out[mode] = best[1:-1]
    return out

def moves(name):
    """Largest rise and fall of each step function of a frontier CSV."""
    old, new = step_functions("rev/" + name), step_functions("work/" + name)
    for mode in sorted(old.keys() & new.keys(), key=str):
        a, b = old[mode], new[mode]
        n = max(len(a), len(b))
        a, b = a + [0.0] * (n - len(a)), b + [0.0] * (n - len(b))
        rise = max(range(n), key=lambda i: b[i] - a[i])
        fall = max(range(n), key=lambda i: a[i] - b[i])
        where = f" [{mode}]" if mode is not None else ""
        print(
            f"{name}{where}: p_at(t), t = 1..{n}: largest rise {max(b[rise] - a[rise], 0.0)!r} at t={rise + 1}, "
            f"largest fall {max(a[fall] - b[fall], 0.0)!r} at t={fall + 1}"
        )

for name in sys.stdin.read().split():
    try:
        old, new = columns("rev/" + name), columns("work/" + name)
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        print(f"{name}: not compared ({type(exc).__name__})")
        continue
    moved = rows_changed = 0
    for col in sorted(old.keys() & new.keys()):
        a, b = old[col], new[col]
        if len(a) != len(b):
            print(f"{name}: {col}: {len(a)} -> {len(b)} values")
            rows_changed = 1
        elif a != b:
            print(f"{name}: {col}: largest change {max(abs(x - y) for x, y in zip(a, b))!r}")
        moved += a != b
    if not moved:
        print(f"{name}: no numeric column changed")
    if rows_changed and name.endswith(".csv"):
        moves(name)
' || true
if grep -H -v '^0 ' rev/exit_status.txt work/exit_status.txt; then
    status=1
fi
exit "$status"
