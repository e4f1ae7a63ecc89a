"""The benchmark harness in perfbench/ wraps library functions by name.

A rename there would only surface when the benchmark runs; this test
installs its tracer in a fresh interpreter and exercises the hooks the
harness reads, so such a rename fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import tracing
from tclflex import reachhold
from tclflex.etp import DEFAULT_PARAMS
from tclflex.markov import BinGrid

tracer = tracing.Tracer()
tracing.install(tracer)
tm = reachhold.estimate_transition_matrix(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 10), 20.0, 1.0, 32.0)
res = reachhold.stationary_distribution(tm)
print(json.dumps({
    "mass": float(res.x.sum()),
    "spans": [[s[0], s[4]] for s in tracer.spans],
}))
"""


LP_SCRIPT = """
import json, sys
sys.path.insert(0, "perfbench")
import layers, tracing
from tclflex import reachhold, scenario
from tclflex.etp import DEFAULT_PARAMS
from tclflex.markov import BinGrid

tracer = tracing.Tracer()
tracing.install(tracer)
op = reachhold.OperatingPoint(DEFAULT_PARAMS, BinGrid(18.0, 24.0, 10), 20.0, 22.0, 1.0, 32.0, 3500.0)
ch = reachhold.characterize(op, T_max=20)
scenario.solve_exact(5, ch)
reachhold.solve_outer(20, ch)
spans = tracer.spans
print(json.dumps({
    "support": int(reachhold.invariant_support(ch.A, ch.x_0).size),
    "parents": [spans[s[3]][0] if s[3] >= 0 else None for s in spans if s[0] == "lp.solve"],
    "outer_nnz": [s[4]["nnz"] for s in spans if s[0] == "lp.solve" and spans[s[3]][0] == "reachhold.solve_outer"],
    "metrics": layers.from_spans(spans, 0),
}))
"""


SWEEP_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import tracing
from tclflex import reachhold, scenario

# the benchmark worker captures every stationary solve this way
solved = []
solve_stationary = reachhold.stationary_distribution

def capture_stationary(tm, *a, **kw):
    solved.append(tm.T_set)
    return solve_stationary(tm, *a, **kw)

reachhold.stationary_distribution = capture_stationary
tracer = tracing.Tracer()
tracing.install(tracer)
cfg = scenario.effective_config(
    {"grid": {"n_bins": 10}, "T_max_steps": 60, "sweep": {"new_setpoints": [21.0, 21.5, 22.0]}}
)
solves = {}
with tempfile.TemporaryDirectory() as tmp:
    for sub in ("sweep-setpoint", "sweep-precool"):
        scenario.validate_config(cfg, sub)
        out = Path(tmp) / sub
        out.mkdir()
        before = len(solved)
        scenario.run(sub, cfg, out)
        solves[sub] = solved[before:]
print(json.dumps({"solves": solves, "spans": sorted({s[0] for s in tracer.spans})}))
"""


VALIDATE_SCRIPT = """
import json, sys, tempfile, warnings
from pathlib import Path
sys.path.insert(0, "perfbench")
import layers, tracing
from tclflex import scenario

tracer = tracing.Tracer()
tracing.install(tracer)
cfg = scenario.effective_config({
    "grid": {"n_bins": 10},
    "T_max_steps": 60,
    "P_on_total_kw": 700.0,
    "fleet": {"n_units": 200, "heterogeneity": 0.15, "seed": 5},
    "validate": {"mode": "blocks", "hold_steps": [5, 10], "burn_in_steps": 60, "selection_seed": 9},
})
scenario.validate_config(cfg, "validate")
with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
    warnings.simplefilter("ignore")
    scenario.run("validate", cfg, Path(tmp))
spans = tracer.spans
print(json.dumps({
    "spans": [[s[0], s[4]] for s in spans if s[0].startswith(("etp.", "validation.", "reachhold.inner_p"))],
    "metrics": layers.from_spans(spans, 0),
}))
"""


AGGREGATE_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import layers, tracing
from tclflex import scenario
from tclflex.reachhold import INNER, ReachHoldPoint, ReachHoldSet, save_set

tracer = tracing.Tracer()
tracing.install(tracer)
with tempfile.TemporaryDirectory() as tmp:
    inputs = []
    for name, pairs in (("a", [(10, 100.0), (40, 50.0)]), ("b", [(15, 60.0), (25, 30.0)])):
        points = [ReachHoldPoint(P_hold_kw=p, T_hold_steps=t) for t, p in pairs]
        save_set(ReachHoldSet(points=points, method=INNER, regime={"dt_minutes": 1.0}), Path(tmp) / f"{name}.csv")
        inputs.append(str(Path(tmp) / f"{name}.csv"))
    cfg = scenario.effective_config({"aggregate": {"inputs": inputs}})
    scenario.run("aggregate", cfg, Path(tmp))
    rows = (Path(tmp) / "combined.csv").read_text().splitlines()
print(json.dumps({
    "rows": len(rows),
    "spans": [s[0] for s in tracer.spans],
    "metrics": layers.from_spans(tracer.spans, 0),
}))
"""


def run_traced(script: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_and_reads_stationary_iterations():
    out = run_traced(SCRIPT)
    assert abs(out["mass"] - 1.0) <= 1e-12
    names = [name for name, _ in out["spans"]]
    assert names == ["markov.estimate_transition_matrix", "markov.stationary_distribution"]
    assert out["spans"][1][1]["iterations"] >= 1


def test_every_lp_solve_is_tagged_by_its_bound():
    # per-solve LP metrics are keyed by the solve_exact / solve_outer span
    # around each lp.solve, so the bound routines must call solve by the
    # name the tracer wraps, from inside themselves
    out = run_traced(LP_SCRIPT)
    parents = out["parents"]
    assert parents[0] == "reachhold.solve_exact"
    assert len(parents) >= 2 and set(parents[1:]) == {"reachhold.solve_outer"}
    m = out["metrics"]
    assert m["lp.solves"] == len(parents) and m["lp.nonoptimal"] == 0
    assert m["lp.n_vars.exact.T5"] == 5 * out["support"] + 2
    assert m["lp.n_rows.exact.T5"] == 5 + 5 * out["support"]
    # the tracer files outer solves without a support argument under
    # outer_xout, which the per-solve metrics omit, so read the raw spans
    assert out["outer_nnz"] and all(nnz > 0 for nnz in out["outer_nnz"])


def test_sweeps_solve_each_baseline_once():
    # the three setpoints of sweep-setpoint share one baseline; pre-cooling
    # compares two.  Every name the tracer wraps must still resolve
    out = run_traced(SWEEP_SCRIPT)
    assert out["solves"] == {"sweep-setpoint": [20.0], "sweep-precool": [20.0, 19.0]}
    for name in ("scenario.run", "markov.stationary_distribution", "reachhold.inner_boundary", "scenario.save"):
        assert name in out["spans"]


# inner_point calls of one block: inner_p_at probes P_nom, then halves
# [0, P_nom] until the bracket is within 1e-9 of P_nom (30 halvings, as
# 2**-30 < 1e-9 < 2**-29), and the block's plan takes one more
INNER_POINT_CALLS_PER_BLOCK = 1 + 30 + 1


def test_blocks_validate_builds_one_stepper_per_block():
    # burn-in and plan replay share one stepper per block; the micro-path
    # spans keep the fields the per-layer metrics read, and each block
    # finds its target and plan through the wrapped inner names, every
    # inner point included
    out = run_traced(VALIDATE_SCRIPT)
    spans = out["spans"]
    names = [name for name, _ in spans]
    assert names.count("reachhold.inner_p_at") == 2
    assert names.count("reachhold.inner_point") == 2 * INNER_POINT_CALLS_PER_BLOCK
    assert names.count("etp.FleetStepper") == 2
    assert names.count("validation.burn_in") == 2
    assert names.count("validation.apply_plan_micro") == 2
    for name, info in spans:
        if name in ("etp.FleetStepper", "etp.advance"):
            assert info == {"units": 200}
        elif name == "validation.apply_plan_micro":
            assert set(info) == {"requested", "selected", "shortfall_events"}
            assert info["requested"] >= info["selected"] > 0
    m = out["metrics"]
    assert m["etp.steppers"] == 2
    assert m["etp.unit_steps"] == 200 * names.count("etp.advance")
    assert m["validation.burn_in_s"] > 0.0 and m["validation.apply_plan_s"] > 0.0
    assert m["reachhold.inner_p_at_s"] > 0.0
    assert m["reachhold.inner_point_calls"] == 2 * INNER_POINT_CALLS_PER_BLOCK


def test_aggregate_runs_through_the_wrapped_names():
    # run_aggregate must load, combine and save through scenario's names,
    # or the benchmark's aggregation metrics read 0
    out = run_traced(AGGREGATE_SCRIPT)
    assert out["rows"] > 1
    names = out["spans"]
    assert names.count("aggregation.load_set") == 2
    assert names.count("aggregation.combine") == 1
    assert names.count("scenario.save") == 1
    m = out["metrics"]
    assert m["aggregation.combine_s"] > 0.0 and m["aggregation.load_s"] > 0.0 and m["scenario.save_s"] > 0.0

