"""Critical coupling from the zero-frequency condition, and parameter sweeps.

The transition sits where the cavity determinant vanishes at zero
frequency,

    omega0^2 + kappa^2 + 2 omega0 g^2 chi0 = 0,

which has a real positive solution g_c exactly when chi0 < 0. chi0 = 0
(unpolarized atoms) and chi0 > 0 (population-inverted atoms) are reported
as distinct no-transition outcomes rather than errors.

A sweep evaluates the same expressions once over its grid, with swept
parameters as arrays: a ``SweepTable`` of columns, bitwise the scalar calls.
"""

from __future__ import annotations

import copy
import enum
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import baths
from .baths import _BATH_FIELDS, BathSpec, CavityParams, GcMode, _each, _float_range, _sq
from .errors import DickeCriticError, PreconditionError

ZERO_TOL = 1e-14  # |chi0| <= ZERO_TOL is unpolarized


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
    """Solve the zero-frequency condition for g_c."""
    if not np.isfinite(chi0):
        raise PreconditionError(f"chi0 = {chi0} is not finite")
    if abs(chi0) <= ZERO_TOL:
        return NoTransition(NoTransitionReason.UNPOLARIZED)
    if chi0 > 0:
        return NoTransition(NoTransitionReason.INVERTED)
    return Transition(g_c=_critical_coupling(chi0, cavity))


def _cavity_scale(cavity: CavityParams, quantity: str):
    """omega0^2 + kappa^2, which must be a normal float: below that it has lost its digits."""
    scale = _sq(cavity.omega0) + _sq(cavity.kappa)
    if np.any(scale < sys.float_info.min):
        raise PreconditionError(f"{quantity} is undefined: omega0^2 + kappa^2 underflows the "
                                f"float range (below {sys.float_info.min:.6g})")
    return scale


def _critical_coupling(chi0, cavity: CavityParams):
    """Root of the zero-frequency condition at chi0 < 0."""
    with _float_range("g_c"):
        scale = _cavity_scale(cavity, "g_c")
        return _each(math.sqrt, -scale / (2.0 * cavity.omega0 * chi0))


def fully_polarized_gc(omega_z: float, cavity: CavityParams) -> float:
    """Critical coupling of a fully polarized, dissipation-free ensemble."""
    if np.any(omega_z <= 0):
        raise PreconditionError("the fully polarized reference needs omega_z > 0")
    with _float_range("g0"):
        scale = _cavity_scale(cavity, "g0")
        return 0.5 * _each(math.sqrt, omega_z * scale / cavity.omega0)


# --- sweeps -----------------------------------------------------------------

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
class SweepTable:
    """Sweep columns in grid order; params is (rows, axes), row-major for two axes.

    g_c and gc_over_g0 are nan where status is not "ok".
    """

    params: np.ndarray
    chi0: np.ndarray
    g_c: np.ndarray
    gc_over_g0: np.ndarray
    status: np.ndarray


def _point(plan: SweepPlan, axes: tuple[str, ...], values, checked: bool = True):
    """(bath, omega_z, cavity) with each axis set to its value (unchecked: to its column)."""
    fields = {"omega_z": plan.omega_z, **vars(plan.cavity), **vars(plan.bath)}
    keys = next((k for cls, k in _BATH_FIELDS.values() if isinstance(plan.bath, cls)), {})
    for axis, value in zip(axes, values):
        name = keys.get(axis, axis)
        if name not in fields:
            kind = type(plan.bath).__name__
            raise PreconditionError(f"cannot sweep {axis!r}: not a parameter of {kind}")
        fields[name] = value
    omega_z = fields.pop("omega_z")
    cavity_fields = {name: fields.pop(name) for name in ("omega0", "kappa")}
    if checked:
        return type(plan.bath)(**fields), omega_z, CavityParams(**cavity_fields)
    # columns skip __post_init__: sweep runs its checks at each column's ends
    bath, cavity = copy.copy(plan.bath), copy.copy(plan.cavity)
    bath.__dict__.update(fields)
    cavity.__dict__.update(cavity_fields)
    return bath, omega_z, cavity


def sweep(plan: SweepPlan) -> SweepTable:
    """closed_form_chi0, solve_gc and fully_polarized_gc as one broadcast over the grid.

    Each element equals the scalar calls at its row bitwise. Where a check
    fails, the scalar path is replayed row by row to raise its error.
    """
    axes = (plan.axis,) if plan.axis2 is None else (plan.axis, plan.axis2)
    grids = (plan.values,) if plan.axis2 is None else (plan.values, plan.values2)
    params = np.array(list(itertools.product(*grids)), float)
    bath, omega_z, cavity = _point(plan, axes, list(params.T), checked=False)
    try:
        for ends in (params.min(axis=0), params.max(axis=0)):
            _point(plan, axes, ends.tolist())
        with np.errstate(all="ignore"):
            chi0 = np.broadcast_to(baths.closed_form_chi0(bath, omega_z, plan.mode), len(params))
            if not np.isfinite(chi0).all():  # the one output the scalar path rejects
                raise PreconditionError("chi0 is not finite")
            status = np.select([np.abs(chi0) <= ZERO_TOL, chi0 > 0],
                               [f"no-transition:{r.value}" for r in NoTransitionReason], "ok")
            g_c = _critical_coupling(np.where(status == "ok", chi0, np.nan), cavity)
            ratio = g_c / fully_polarized_gc(omega_z, cavity)
    except DickeCriticError:  # the scalar path, row by row, raises its error naming the row
        for i, values in enumerate(params.tolist()):
            try:
                bath, omega_z, cavity = _point(plan, axes, values)
                solve_gc(baths.closed_form_chi0(bath, omega_z, plan.mode), cavity)
                fully_polarized_gc(omega_z, cavity)
            except DickeCriticError as exc:
                where = ", ".join(f"{axis} = {value!r}" for axis, value in zip(axes, values))
                raise type(exc)(f"row {i}, {where}: {exc}") from None
        raise
    return SweepTable(params, chi0, g_c, ratio, status)
