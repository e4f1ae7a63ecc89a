"""Reference micro replay: the plan replay as the library ran it before it
cached mode offsets and keyed only the eligible units.

`ReferenceStepper` gathers each step's per-mode offsets through the whole
mode mask with np.where, and `reference_apply_plan_micro` keys every unit
with grid.state_index(T_a, on + 2*actuated), so an actuated unit's key
lies past every state, takes each pool as the ascending indices with that
key, and draws with rng.choice(pool, ...).  The arithmetic and the draws
are the library's, so tests compare the two bit for bit.
"""

import numpy as np

from tclflex.etp import FleetStepper, apply_thermostat


class ReferenceStepper(FleetStepper):
    """FleetStepper whose step selects both offsets through fleet.on."""

    def advance(self):
        f = self.fleet
        (off_a, off_m), (on_a, on_m) = self.b_d
        T_a = self.a00 * f.T_a + self.a01 * f.T_m + np.where(f.on, on_a, off_a)
        T_m = self.a10 * f.T_a + self.a11 * f.T_m + np.where(f.on, on_m, off_m)
        f.T_a, f.T_m = T_a, T_m
        f.on = apply_thermostat(f.T_a, f.T_set, f.on, f.spec.deadband)


def reference_apply_plan_micro(stepper, counts, grid, T_set_new, horizon, seed):
    """(power trace, final actuated mask, shortfall events) of replaying
    counts[k, i] unit switches out of state i at step k; the stepper's
    fleet is advanced in place, as apply_plan_micro does."""
    fleet = stepper.fleet
    rng = np.random.default_rng(seed)
    actuated = np.zeros(fleet.n_units, dtype=bool)
    power = [stepper.power_kw()]
    shortfalls = []
    for k in range(horizon):
        if k < counts.shape[0] and counts[k].any():
            keys = grid.state_index(fleet.T_a, fleet.on + 2 * actuated)
            for i in np.flatnonzero(counts[k]):
                pool = np.flatnonzero(keys == i)
                want = int(counts[k][i])
                take = min(want, pool.size)
                if take < want:
                    shortfalls.append({"step": k, "state": int(i), "requested": want, "selected": take})
                if take > 0:
                    chosen = rng.choice(pool, size=take, replace=False)
                    fleet.T_set[chosen] = T_set_new
                    actuated[chosen] = True
        stepper.advance()
        power.append(stepper.power_kw())
    return np.array(power), actuated, shortfalls
