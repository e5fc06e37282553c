"""Critical coupling from the zero-frequency condition, and parameter sweeps.

The transition sits where the cavity determinant vanishes at zero
frequency,

    omega0^2 + kappa^2 + 2 omega0 g^2 chi0 = 0,

which has a real positive solution g_c exactly when chi0 < 0. chi0 = 0
(unpolarized atoms) and chi0 > 0 (population-inverted atoms) are reported
as distinct no-transition outcomes rather than errors.

One route serves a point and a sweep: ``_solve`` judges chi0 at unit scale
and solves for g_c elementwise, on a float or on a sweep's columns, so a
``SweepTable`` of columns is bitwise the scalar calls. A float stays a
Python float through it: numpy's sqrt is the correctly rounded IEEE sqrt,
as ``math.sqrt`` is, and a float argument keeps ``math.sqrt``. Every square
is x * x, correctly rounded on floats and arrays alike; only libm's
``tanh`` and ``expm1`` stay per element, through ``baths._libm``.

``agreement`` runs the routes to g_c at one point and returns one typed
result per route: ``gc --verify``, ``oracle`` and ``oracle_table.py`` are its views.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import baths, lindblad, response
from .baths import (
    _BATH_FIELDS, BathSpec, CavityParams, GcMode, _cavity_scale, _frequencies, _ldexp,
    _unit_exponent, _unit_scale,
)
from .errors import DickeCriticError, PreconditionError

ZERO_TOL = 1e-14  # |chi0| <= ZERO_TOL is unpolarized; the routes judge chi0 at unit scale


class NoTransitionReason(enum.Enum):
    UNPOLARIZED = "unpolarized"
    INVERTED = "inverted"


@dataclass(frozen=True)
class Transition:
    g_c: float


@dataclass(frozen=True)
class NoTransition:
    reason: NoTransitionReason


CriticalResult = Transition | NoTransition


def solve_gc(chi0: float, cavity: CavityParams) -> CriticalResult:
    """Solve the zero-frequency condition for g_c, chi0 judged against ZERO_TOL as given."""
    return _result(*_solve(chi0, cavity, 0))


def _result(code: int, g_c: float) -> CriticalResult:
    """The CriticalResult of a point's STATUS code and g_c (``_solve``)."""
    return NoTransition(tuple(NoTransitionReason)[code - 1]) if code else Transition(g_c)


def _solve(chi0, cavity: CavityParams, k):
    """chi0's STATUS code, judged at unit scale as 2^k chi0 (k of ``baths._unit_exponent``),
    and g_c, nan where the code is not 0: on a float or a sweep's columns, elementwise.

    g_c is solved from chi0 and cavity as given: that is 2^k times its value
    at unit scale, exactly, since + - * / and sqrt commute with a power of two.
    Only a row with a transition is checked; the others divide by nan.
    """
    if not np.all(np.isfinite(chi0)):
        raise PreconditionError(f"chi0 = {chi0} is not finite")
    code = _status(_ldexp(chi0, k))
    ok = code == 0
    scale = _cavity_scale(cavity, "g_c", ok)
    chi0 = np.where(ok, chi0, np.nan) if isinstance(ok, np.ndarray) else chi0 if ok else math.nan
    denominator = 2.0 * cavity.omega0 * chi0
    if np.any(denominator == 0):
        raise PreconditionError("g_c is undefined (division by zero)")
    return code, _sqrt(-scale / denominator, "g_c")


def _status(chi0):
    """chi0's index into STATUS, on a float or an array: 0 (a transition) where chi0 < 0,
    1 (unpolarized) where |chi0| <= ZERO_TOL, 2 (inverted) where chi0 > 0."""
    return (abs(chi0) <= ZERO_TOL) + 2 * (chi0 > ZERO_TOL)


def _sqrt(x, quantity: str):
    """Correctly rounded square root: np.sqrt on an array, math.sqrt (a Python float) otherwise.
    An infinite x, which float * and / give without an exception, raises naming quantity."""
    if np.any(np.isinf(x)):
        raise PreconditionError(f"{quantity} overflows the float range")
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def fully_polarized_gc(omega_z: float, cavity: CavityParams) -> float:
    """Critical coupling of a fully polarized, dissipation-free ensemble."""
    if np.any(omega_z <= 0):
        raise PreconditionError("the fully polarized reference needs omega_z > 0")
    return 0.5 * _sqrt(omega_z * _cavity_scale(cavity, "g0") / cavity.omega0, "g0")


# --- sweeps -----------------------------------------------------------------

@dataclass(frozen=True)
class SweepPlan:
    """Grid specification: one swept parameter over a base point.

    axis may name a bath parameter (e.g. "t", "gamma", "T", "sz") or one of
    omega_z / omega0 / kappa.
    """

    bath: BathSpec
    omega_z: float
    cavity: CavityParams
    axis: str
    values: tuple[float, ...]
    mode: GcMode = GcMode.SELF_CONSISTENT

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if not self.values:
            raise PreconditionError("sweep grids must be non-empty")


# a row's status label, indexed by its code: 0 a transition, else the NoTransitionReason
STATUS = ("ok", *(f"no-transition:{r.value}" for r in NoTransitionReason))
_STATUS = np.array(STATUS, dtype=object)


@dataclass(frozen=True)
class SweepTable:
    """Sweep columns in grid order; params is the column of swept values.

    code indexes STATUS; g_c and gc_over_g0 are nan where code is not 0 ("ok").
    """

    params: np.ndarray
    chi0: np.ndarray
    g_c: np.ndarray
    gc_over_g0: np.ndarray
    code: np.ndarray

    @property
    def status(self) -> np.ndarray:
        """Each row's label from STATUS, as an object array of str."""
        return _STATUS[self.code]


def _point(plan: SweepPlan, name: str, value):
    """(bath, omega_z, cavity) with the field name set to value, a float or the grid's column."""
    fields = {"omega_z": plan.omega_z, **vars(plan.cavity), **vars(plan.bath), name: value}
    omega_z = fields.pop("omega_z")
    cavity = CavityParams(omega0=fields.pop("omega0"), kappa=fields.pop("kappa"))
    return type(plan.bath)(**fields), omega_z, cavity


def sweep(plan: SweepPlan) -> SweepTable:
    """closed_form_chi0, ``_solve`` and fully_polarized_gc on the grid's columns.

    The route of a point (``agreement``'s closed form) runs on the columns:
    chi0, each row's verdict at its unit scale (``baths._unit_exponent``)
    and g_c, so each element equals the scalar calls at its row bitwise.
    g_c over ``fully_polarized_gc`` is formed only on the rows with a
    transition, as ``gc`` forms it. Where a check fails, the scalar path is
    replayed row by row to raise its error.
    """
    keys = next((k for cls, k in _BATH_FIELDS.values() if isinstance(plan.bath, cls)), {})
    name = keys.get(plan.axis, plan.axis)  # the record field the axis names
    if name not in {"omega_z", *vars(plan.cavity), *vars(plan.bath)}:
        kind = type(plan.bath).__name__
        raise PreconditionError(f"cannot sweep {plan.axis!r}: not a parameter of {kind}")
    params = np.array(plan.values)
    try:
        bath, omega_z, cavity = _point(plan, name, params)
        with np.errstate(all="ignore"):
            chi0 = np.broadcast_to(baths.closed_form_chi0(bath, omega_z, plan.mode), len(params))
            code, g_c = _solve(chi0, cavity, _unit_exponent(*_frequencies(bath, omega_z, cavity)))
            ok, ratio = code == 0, np.full(len(params), np.nan)
            if ok.any():
                ratio[ok] = g_c[ok] / fully_polarized_gc(*_point(plan, name, params[ok])[1:])
    except DickeCriticError:  # the scalar path, row by row, raises its error naming the row
        for i, value in enumerate(plan.values):
            try:
                bath, omega_z, cavity = _point(plan, name, value)
                point = agreement(bath, omega_z, cavity, plan.mode, routes=())
                if isinstance(point.results["closed_form"], Transition):
                    fully_polarized_gc(omega_z, cavity)
            except DickeCriticError as exc:
                raise type(exc)(f"row {i}, {plan.axis} = {value!r}: {exc}") from None
        raise
    return SweepTable(params, chi0, g_c, ratio, code)


# --- agreement of the routes to g_c -------------------------------------------

ROUTES = ("closed_form", "quadrature", "mean_field")
MEAN_FIELD_BRACKET = (0.4, 2.5)  # the mean-field search bracket, in units of the closed-form g_c


@dataclass(frozen=True)
class Agreement:
    """g_c at one point by each route run, in ROUTES order, and the closed form's chi0."""

    chi0: float
    results: dict[str, CriticalResult]


def agreement(bath: BathSpec, omega_z: float, cavity: CavityParams,
              mode: GcMode = GcMode.SELF_CONSISTENT, routes: tuple[str, ...] = ROUTES) -> Agreement:
    """g_c at one point by each named route; a typed error of any route propagates.

    * closed_form: ``baths.closed_form_chi0`` in ``mode``, then ``solve_gc``.
      It runs first whether named or not: chi0 and the mean-field bracket
      come from it.
    * quadrature: the steady state, the sampled S_x(t), chi(0) by
      quadrature, then ``solve_gc``.
    * mean_field: the static threshold in ``MEAN_FIELD_BRACKET`` times the
      closed-form g_c, a ``Transition``; left out of ``results`` where the
      closed form has none, since there is no g_c to bracket.

    Every judgement runs at unit scale (``baths._unit_scale``): ZERO_TOL
    on each route's chi0, and the zero-mode and rank judgements of the
    quadrature and mean-field routes, which run on the point scaled so that
    its largest frequency lies in [1, 2). chi0 and each g_c are scaled
    back exactly. Each route is called through its module, so a wrapper
    set on the module attribute sees the call.
    """
    chi0 = baths.closed_form_chi0(bath, omega_z, mode)
    k = _unit_exponent(*_frequencies(bath, omega_z, cavity))
    closed = _result(*_solve(chi0, cavity, k))
    results: dict[str, CriticalResult] = {"closed_form": closed}
    mean_field = "mean_field" in routes and isinstance(closed, Transition)
    if "quadrature" in routes or mean_field:
        unit_bath, unit_omega_z, unit_cavity = _unit_scale((bath, omega_z, cavity), k)
        model = baths.spin_model(unit_bath, unit_omega_z)
    if "quadrature" in routes:
        series = lindblad.two_time_sx(model, lindblad.steady_state(model).rho)
        chi0_quadrature = _ldexp(response.chi_from_correlator(series, 0.0).real, -k)
        results["quadrature"] = _result(*_solve(chi0_quadrature, cavity, k))
    if mean_field:
        from . import meanfield  # here, so that import dicke_critic (the exact-N route) skips it

        # g_c^2 is finite, so g_star, below 2.5 g_c, is too
        lo, hi = (_ldexp(f * closed.g_c, -k) for f in MEAN_FIELD_BRACKET)
        results["mean_field"] = Transition(
            _ldexp(meanfield.stability_threshold(unit_cavity, model, lo, hi), k))
    return Agreement(chi0, results)
