"""Critical coupling from the zero-frequency condition, and parameter sweeps.

The transition sits where the cavity determinant vanishes at zero
frequency,

    omega0^2 + kappa^2 + 2 omega0 g^2 chi0 = 0,

which has a real positive solution g_c exactly when chi0 < 0. chi0 = 0
(unpolarized atoms) and chi0 > 0 (population-inverted atoms) are reported
as distinct no-transition outcomes rather than errors.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
import numpy as np

from . import baths
from .baths import BathSpec, CavityParams, GcMode
from .errors import PreconditionError


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


def solve_gc(chi0: float, cavity: CavityParams, zero_tol: float = 1e-14) -> CriticalResult:
    """Solve the zero-frequency condition for g_c."""
    if not np.isfinite(chi0):
        raise PreconditionError(f"chi0 = {chi0} is not finite")
    if abs(chi0) <= zero_tol:
        return NoTransition(NoTransitionReason.UNPOLARIZED)
    if chi0 > 0:
        return NoTransition(NoTransitionReason.INVERTED)
    return Transition(g_c=math.sqrt(-(cavity.omega0**2 + cavity.kappa**2) / (2.0 * cavity.omega0 * chi0)))


def fully_polarized_gc(omega_z: float, cavity: CavityParams) -> float:
    """Critical coupling of a fully polarized, dissipation-free ensemble."""
    if omega_z <= 0:
        raise PreconditionError("the fully polarized reference needs omega_z > 0")
    return 0.5 * math.sqrt(omega_z * (cavity.omega0**2 + cavity.kappa**2) / cavity.omega0)


def kappa_scaling(cavity: CavityParams) -> float:
    """g_c(kappa)/g_c(0) at fixed chi0."""
    return math.sqrt(1.0 + (cavity.kappa / cavity.omega0) ** 2)


def residual(result: CriticalResult, chi0: float, cavity: CavityParams) -> float:
    """Zero-frequency condition evaluated at the solution (0 for transitions)."""
    if isinstance(result, NoTransition):
        raise PreconditionError("residual is only defined for Transition results")
    return cavity.omega0**2 + cavity.kappa**2 + 2.0 * cavity.omega0 * result.g_c**2 * chi0


# --- sweeps -----------------------------------------------------------------

_SWEEPABLE_GLOBALS = ("omega_z", "omega0", "kappa")


@dataclass(frozen=True)
class SweepPlan:
    """Grid specification: one or two swept parameters over a base point.

    axis may name a bath parameter (e.g. "t", "gamma", "T", "sz") or one of
    omega_z / omega0 / kappa.
    """

    bath: BathSpec
    omega_z: float
    cavity: CavityParams
    axis: str
    values: tuple[float, ...]
    axis2: str | None = None
    values2: tuple[float, ...] | None = None
    mode: GcMode = GcMode.SELF_CONSISTENT

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.values2 is not None:
            object.__setattr__(self, "values2", tuple(float(v) for v in self.values2))
        if (self.axis2 is None) != (self.values2 is None):
            raise PreconditionError("axis2 and values2 must be given together")
        if not self.values or (self.values2 is not None and not self.values2):
            raise PreconditionError("sweep grids must be non-empty")


@dataclass(frozen=True)
class SweepRow:
    params: tuple[float, ...]
    chi0: float
    result: CriticalResult
    gc_over_g0: float
    status: str


def _apply_axis(bath: BathSpec, omega_z: float, cavity: CavityParams, axis: str, value: float):
    if axis in _SWEEPABLE_GLOBALS:
        if axis == "omega_z":
            return bath, value, cavity
        return bath, omega_z, dataclasses.replace(cavity, **{axis: value})
    field_names = {f.name for f in dataclasses.fields(bath)}
    name = {"T": "temperature"}.get(axis, axis)
    if name not in field_names:
        raise PreconditionError(
            f"cannot sweep {axis!r}: not a parameter of {type(bath).__name__}"
        )
    return dataclasses.replace(bath, **{name: value}), omega_z, cavity


def _sweep_point(plan: SweepPlan, params: tuple[float, ...]) -> SweepRow:
    bath, omega_z, cavity = _apply_axis(plan.bath, plan.omega_z, plan.cavity, plan.axis, params[0])
    if plan.axis2 is not None:
        bath, omega_z, cavity = _apply_axis(bath, omega_z, cavity, plan.axis2, params[1])
    chi0 = baths.closed_form_chi0(bath, omega_z, plan.mode)
    result = solve_gc(chi0, cavity)
    g0 = fully_polarized_gc(omega_z, cavity)
    if isinstance(result, Transition):
        return SweepRow(params, chi0, result, result.g_c / g0, "ok")
    return SweepRow(params, chi0, result, math.nan, f"no-transition:{result.reason.value}")


def sweep(plan: SweepPlan) -> list[SweepRow]:
    """One row per grid point, in grid order (row-major for two axes)."""
    if plan.axis2 is None:
        grid = [(v,) for v in plan.values]
    else:
        grid = [(v1, v2) for v1 in plan.values for v2 in plan.values2]
    return [_sweep_point(plan, p) for p in grid]
