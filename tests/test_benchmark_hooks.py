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


def test_tracer_installs_and_reads_stationary_iterations():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert abs(out["mass"] - 1.0) <= 1e-12
    names = [name for name, _ in out["spans"]]
    assert names == ["markov.estimate_transition_matrix", "markov.stationary_distribution"]
    assert out["spans"][1][1]["iterations"] >= 1
