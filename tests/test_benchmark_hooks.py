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
from tclflex.markov import build_grid

tracer = tracing.Tracer()
tracing.install(tracer)
tm = reachhold.estimate_transition_matrix(DEFAULT_PARAMS, build_grid(18.0, 24.0, 10), 20.0, 1.0, 32.0)
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
from tclflex.markov import build_grid, x_out_vector

tracer = tracing.Tracer()
tracing.install(tracer)
ch = reachhold.characterize(DEFAULT_PARAMS, build_grid(18.0, 24.0, 10), 20.0, 22.0, 1.0, 32.0, 3500.0, T_max=20)
scenario.solve_exact(5, ch.kernels, ch.x_0, ch.A)
reachhold.solve_outer(20, ch.kernels, x_out_vector(ch.A.grid, 20.0, 1.0), support="full")
spans = tracer.spans
print(json.dumps({
    "support": int(reachhold.invariant_support(ch.A, ch.x_0).size),
    "parents": [spans[s[3]][0] if s[3] >= 0 else None for s in spans if s[0] == "lp.solve"],
    "metrics": layers.from_spans(spans, 0),
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
    assert m["lp.n_vars.exact.T5"] == 2 * 5 * out["support"] + 1
    assert m["lp.nnz.outer.T20"] > 0
