"""Timing spans around the calls into each tclflex module.

Wrappers are installed on the names callers actually look up: `scenario`,
`reachhold` and `validation` bind most functions with `from ... import`,
so a wrapper on the defining module alone would record nothing.  A span
is [name, start, end, parent index, info, bookkeeping seconds]; spans
stay in memory and are written once, when the traced run ends.

Only the standard library is imported at module level.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr by a timed wrapper.  `describe(args, kwargs,
        result)` returns a small dict stored with the span; the time it
        takes is kept apart so the parent's self time excludes it."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if describe is not None:
                span[4] = describe(args, kwargs, result)
                span[5] = time.perf_counter() - span[2]
            return result

        setattr(owner, attr, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _lp_size(args, kwargs, result):
    import numpy as np

    lp = args[0]
    blocks = [m for m in (lp.G, lp.E) if m is not None]
    return {
        "n_vars": int(lp.c.size),
        "n_rows": sum(int(m.shape[0]) for m in blocks),
        "nnz": sum(int(np.count_nonzero(m)) for m in blocks),
        "dense_bytes": sum(int(m.shape[0]) * int(m.shape[1]) * 8 for m in blocks),
        "status": result.status,
    }


def _outer_tag(args, kwargs, result):
    support = kwargs.get("support", args[3] if len(args) > 3 else "xout")
    return {"T": int(args[0]), "method": "outer" if support == "full" else "outer_xout"}


def _exact_tag(args, kwargs, result):
    return {"T": int(args[0]), "method": "exact"}


def _stepper_units(args, kwargs, result):
    return {"units": int(args[1].n_units)}


def _advance_units(args, kwargs, result):
    return {"units": int(args[0].fleet.n_units)}


def _micro_run(args, kwargs, result):
    return {
        "requested": int(result.total_requested),
        "selected": int(result.total_selected),
        "shortfall_events": len(result.shortfall_events),
    }


def _stationary_iters(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer, at each place they are
    looked up from."""
    from tclflex import etp, reachhold, scenario

    sites = [
        (scenario, "run", "scenario.run", None),
        (reachhold, "solve", "lp.solve", _lp_size),
        (reachhold, "solve_outer", "reachhold.solve_outer", _outer_tag),
        (scenario, "solve_exact", "reachhold.solve_exact", _exact_tag),
        (etp.FleetStepper, "__init__", "etp.FleetStepper", _stepper_units),
        (etp.FleetStepper, "advance", "etp.advance", _advance_units),
        (scenario, "burn_in", "validation.burn_in", None),
        (scenario, "apply_plan_micro", "validation.apply_plan_micro", _micro_run),
        (reachhold, "estimate_transition_matrix", "markov.estimate_transition_matrix", None),
        (reachhold, "stationary_distribution", "markov.stationary_distribution", _stationary_iters),
        (scenario, "characterize", "reachhold.characterize", None),
        (reachhold, "characterize", "reachhold.characterize", None),
        (reachhold, "response_kernels", "reachhold.response_kernels", None),
        (scenario, "inner_boundary", "reachhold.inner_boundary", None),
        (reachhold, "inner_boundary", "reachhold.inner_boundary", None),
        (scenario, "inner_point", "reachhold.inner_point", None),
        (reachhold, "inner_point", "reachhold.inner_point", None),
        (scenario, "inner_p_at", "reachhold.inner_p_at", None),
        (scenario, "combine", "aggregation.combine", None),
        (scenario, "load_set", "aggregation.load_set", None),
        (scenario, "save_set", "scenario.save", None),
        (scenario, "save_combined", "scenario.save", None),
        (scenario, "save_validation_report", "scenario.save", None),
        (scenario, "_write_json", "scenario.save", None),
        (scenario, "write_effective_config", "scenario.save", None),
    ]
    for owner, attr, name, describe in sites:
        tracer.wrap(owner, attr, name, describe)
