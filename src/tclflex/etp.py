"""Second-order equivalent thermal parameter (ETP) model of a cooling TCL.

Each unit couples an air node and a lumped solid-mass node:

    C_a * dT_a/dt = H_m*(T_m - T_a) + U_a*(T_amb - T_a) + Q_a
    C_m * dT_m/dt = H_m*(T_a - T_m) + Q_m

Q_a depends on the compressor mode (Q_a_on while cooling, Q_a_off
otherwise) and a hysteresis thermostat switches the mode: ON when the
air temperature reaches the upper deadband edge T_set + deadband/2, OFF
at the lower edge T_set - deadband/2.

Within a step the mode is held fixed, so the dynamics are affine LTI and
integrate exactly, in closed form from the 2x2 drift's two real
eigenvalues.  `step_maps` is that one integrator, for one unit or a
whole fleet at once; the bin model (`markov`) and the micro-simulation
(`FleetStepper`) both take their one-step maps from it.
The thermostat is evaluated once per step, after integration; callers
pick dt small enough that at most one switching event falls in a step
(default 1 minute, far below typical residential cycle times).

Units: temperatures in degC, capacitances in kWh/degC, conductances in
kW/degC, heat rates in kW, dt in minutes (converted to hours internally).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidInputError

DEFAULT_DT_MINUTES = 1.0


@dataclass(frozen=True)
class TclParams:
    """Thermal and electrical parameters of one TCL.

    Attributes
    ----------
    C_a : float
        Air (fast) node heat capacity, kWh/degC.
    C_m : float
        Solid-mass (slow) node heat capacity, kWh/degC.
    U_a : float
        Envelope conductance between air node and ambient, kW/degC.
    H_m : float
        Conductance between air and mass nodes, kW/degC.
    Q_a_on, Q_a_off : float
        Heat rate into the air node with compressor on / off, kW.
        Negative Q_a_on means cooling.
    Q_m : float
        Heat rate into the mass node, kW.
    P_rate : float
        Electrical power drawn while on, kW.
    """

    C_a: float
    C_m: float
    U_a: float
    H_m: float
    Q_a_on: float
    Q_a_off: float
    Q_m: float
    P_rate: float

    def __post_init__(self) -> None:
        for name in ("C_a", "C_m", "U_a", "H_m"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise InvalidInputError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        for name in ("Q_a_on", "Q_a_off", "Q_m", "P_rate"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)!r}")

    def duty_cycle(self, T_amb: float, T_set: float) -> float:
        """Steady-state compressor duty fraction from the energy balance
        around mean air temperature T_set."""
        denom = self.Q_a_off - self.Q_a_on
        if denom <= 0.0:
            raise InvalidInputError("cooling model requires Q_a_on < Q_a_off")
        d = (self.U_a * (T_amb - T_set) + self.Q_a_off + self.Q_m) / denom
        return float(np.clip(d, 0.0, 1.0))


# Shipped nominal parameter set, typical of a single-family residence with
# a ~3 ton unit at COP ~3.  Chosen so the one-minute bin model is well
# inside its domain: the mass node is light relative to the air node and
# the duty cycle at the default ambient is ~0.4.
DEFAULT_PARAMS = TclParams(
    C_a=3.0,
    C_m=0.5,
    U_a=0.35,
    H_m=1.0,
    Q_a_on=-10.5,
    Q_a_off=0.0,
    Q_m=0.0,
    P_rate=3.5,
)


@dataclass(frozen=True)
class FleetSpec:
    """Recipe for sampling a fleet of TCLs.

    heterogeneity is the half-width of a uniform relative perturbation
    applied independently to every nominal parameter (0 gives a
    homogeneous fleet).  All randomness derives from `seed`.
    """

    n_units: int
    nominal: TclParams = DEFAULT_PARAMS
    heterogeneity: float = 0.0
    deadband: float = 1.0
    T_amb: float = 32.0
    T_set: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_units < 1:
            raise InvalidInputError(f"n_units must be >= 1, got {self.n_units}")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise InvalidInputError(f"heterogeneity must lie in [0, 1), got {self.heterogeneity}")
        if not 0.0 < self.deadband < np.inf:
            raise InvalidInputError(f"deadband must be positive and finite, got {self.deadband}")
        if not np.isfinite(self.T_amb) or not np.isfinite(self.T_set):
            raise InvalidInputError(f"T_amb and T_set must be finite, got {self.T_amb!r} and {self.T_set!r}")


@dataclass
class Fleet:
    """Sampled fleet: per-unit parameter arrays plus mutable state arrays."""

    spec: FleetSpec
    params: dict[str, np.ndarray]  # each (n_units,)
    T_a: np.ndarray
    T_m: np.ndarray
    on: np.ndarray  # bool
    T_set: np.ndarray

    @property
    def n_units(self) -> int:
        return self.spec.n_units


def step_maps(params, T_amb, dt_minutes: float):
    """Exact one-step maps x' = A_d x + b_d, elementwise over scalars or
    per-unit arrays: A_d's row-major entries (a00, a01, a10, a11), shared
    by both modes, and each mode's offset, ((T_a, T_m) off, (T_a, T_m) on).
    `params` maps the TclParams field names to values (a fleet's
    `params`, or `dataclasses.asdict` of one TclParams).

    The drift F = [[a, b], [c, d]] of d/dt [T_a, T_m] (per hour) has real
    eigenvalues s +- q, with s = (a + d)/2 and q = sqrt((a - d)^2/4 + bc)
    > 0 (F is similar to a symmetric matrix through diag(sqrt(C))).  Any
    f(F) then has the closed form p I + r (F - s I), with p = (f(s+q) +
    f(s-q))/2 and r = (f(s+q) - f(s-q))/(2q) (Moler & Van Loan, SIAM Rev.
    2003).  With f(lambda) = exp(lambda h) this is A_d; with f(lambda) =
    expm1(lambda h)/lambda it is the map from a mode's forcing g to its
    offset b_d, free of cancellation at small h.
    """
    if not dt_minutes > 0.0:
        raise InvalidInputError(f"dt_minutes must be positive, got {dt_minutes}")
    h = dt_minutes / 60.0
    C_a, C_m, U_a, H_m = params["C_a"], params["C_m"], params["U_a"], params["H_m"]
    a = -(U_a + H_m) / C_a
    b = H_m / C_a
    c = H_m / C_m
    d = -H_m / C_m
    s = 0.5 * (a + d)
    half = 0.5 * (a - d)
    q = np.sqrt(half * half + b * c)

    def entries(f):
        f1, f2 = f(s + q), f(s - q)
        p_f, r_f = 0.5 * (f1 + f2), (f1 - f2) / (2.0 * q)
        return p_f + r_f * half, r_f * b, r_f * c, p_f - r_f * half

    A_d = entries(lambda lam: np.exp(lam * h))
    g00, g01, g10, g11 = entries(lambda lam: np.expm1(lam * h) / lam)
    g_m = params["Q_m"] / C_m
    g_a = [(U_a * T_amb + q_a) / C_a for q_a in (params["Q_a_off"], params["Q_a_on"])]
    return A_d, tuple((g00 * g + g01 * g_m, g10 * g + g11 * g_m) for g in g_a)


def apply_thermostat(T_a, T_set, on, deadband, edge=None, high=None, keep=None):
    """Hysteresis logic for a cooling TCL; works elementwise on arrays.
    The intermediates go to the given work buffers (a float and two bool
    arrays shaped like T_a, as FleetStepper keeps), or fresh ones when
    None; the new mode is always a fresh array."""
    # on at the upper edge, else keep the mode unless at the lower edge;
    # each result goes to the buffer given, never over a scalar result
    upper = np.add(T_set, 0.5 * deadband, out=edge)
    high = np.greater_equal(T_a, upper, out=high)
    lower = np.subtract(T_set, 0.5 * deadband, out=edge)
    stay = np.logical_not(np.less_equal(T_a, lower, out=keep), out=keep)
    return np.logical_or(high, np.logical_and(on, stay, out=keep))


def sample_fleet(spec: FleetSpec) -> Fleet:
    """Draw the fleet a FleetSpec describes, deterministically in the seed.

    Parameters get independent uniform relative perturbations of
    half-width `heterogeneity`; initial air temperatures are uniform on
    the deadband, mass temperatures start equal to air, and the initial
    mode is Bernoulli with the nominal duty cycle.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_units
    params: dict[str, np.ndarray] = {}
    for f in fields(TclParams):
        nominal = getattr(spec.nominal, f.name)
        factors = 1.0 + spec.heterogeneity * rng.uniform(-1.0, 1.0, size=n)
        params[f.name] = nominal * factors
    half = 0.5 * spec.deadband
    T_a = rng.uniform(spec.T_set - half, spec.T_set + half, size=n)
    duty = spec.nominal.duty_cycle(spec.T_amb, spec.T_set)
    on = rng.uniform(size=n) < duty
    return Fleet(
        spec=spec,
        params=params,
        T_a=T_a,
        T_m=T_a.copy(),
        on=on,
        T_set=np.full(n, spec.T_set, dtype=float),
    )


class FleetStepper:
    """Precomputed per-unit one-step maps for both modes.

    Caches the exact one-step maps (`step_maps`) at the fleet's own
    ambient temperature (fleet.spec.T_amb) and step length, so the
    per-step work is one shared 2x2 linear map (A_d, held as one
    (2, 2, n_units) array) plus a per-mode offset; the thermostat
    switches on the fleet's deadband (fleet.spec.deadband).

    The offsets of the mode each unit had at the last step are kept per
    unit, beside a private copy of that mode mask; each step refreshes
    only the units whose fleet.on differs from the copy (a few percent of
    a cycling fleet), instead of gathering both offsets through the whole
    mask.  The comparison is against the live fleet.on, so a caller may
    replace or edit fleet.on (or fleet.T_set) between steps.

    Each step writes a fresh (2, n_units) state whose rows become
    fleet.T_a and fleet.T_m, and a fresh fleet.on, so earlier states
    stay valid.  The next step integrates that state array directly while
    both rows are still the fleet's; a caller may edit them in place, or
    replace either, between steps.
    """

    def __init__(self, fleet: Fleet, dt_minutes: float = DEFAULT_DT_MINUTES):
        self.fleet = fleet
        n = fleet.n_units
        A_d, b_d = step_maps(fleet.params, fleet.spec.T_amb, dt_minutes)
        self.A_d = np.reshape(A_d, (2, 2, n))
        # each state component's offsets of both modes, unit i's mode m at
        # m*n + i; b_d[m] (m = 0 off, 1 on) views mode m's (T_a, T_m) there
        self._offsets = np.stack(b_d, axis=1).reshape(2, 2 * n)
        self.b_d = tuple(zip(*self._offsets.reshape(2, 2, n)))
        self._mode = fleet.on.copy()
        self._b = np.stack([np.where(self._mode, on, off) for off, on in zip(*self.b_d)])
        self._x, self._rows = None, (None, None)  # the last state and its rows as handed to the fleet
        self._work = np.empty(n), np.empty(n, dtype=bool), np.empty(n, dtype=bool)

    def advance(self) -> None:
        """One step of the whole fleet: integrate, then thermostat."""
        f = self.fleet
        switched = np.flatnonzero(f.on != self._mode)
        mode = f.on[switched]
        at = switched + mode * f.n_units
        for b, offsets in zip(self._b, self._offsets):
            b[switched] = offsets[at]
        self._mode[switched] = mode
        x = self._x
        if f.T_a is not self._rows[0] or f.T_m is not self._rows[1]:
            x = np.stack((f.T_a, f.T_m))
        # a00*T_a + a01*T_m per row: the same products, summed in the same order
        x = np.einsum("ijn,jn->in", self.A_d, x)
        x += self._b
        self._x = x
        f.T_a, f.T_m = self._rows = tuple(x)
        f.on = apply_thermostat(f.T_a, f.T_set, f.on, f.spec.deadband, *self._work)

    def power_kw(self) -> float:
        """Current aggregate electrical demand, kW."""
        # compress sums the same elements in the same order as boolean
        # indexing, at a third of the cost
        return float(self.fleet.params["P_rate"].compress(self.fleet.on).sum())


def simulate_fleet(stepper: FleetStepper, horizon: int) -> np.ndarray:
    """Advance the stepper's fleet `horizon` steps in place and return the
    aggregate power trace: horizon+1 samples, index 0 being the initial
    condition."""
    if horizon < 0:
        raise InvalidInputError(f"horizon must be >= 0, got {horizon}")
    power = np.empty(horizon + 1)
    power[0] = stepper.power_kw()
    for k in range(horizon):
        stepper.advance()
        power[k + 1] = stepper.power_kw()
    return power
