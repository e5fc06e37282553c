"""Catalog of single-atom baths and their closed-form critical couplings.

Three named baths are supported, each acting on one spin with detuning
``omega_z`` (Hamiltonian ``omega_z * sz``), plus a free-form custom list of
channels:

* ``Dephasing(gamma, sz)``       -- channel (sz, gamma); conserves <sz>, the
  steady polarization is whatever ``sz`` designates.
* ``Thermal(gamma, temperature)`` -- channels (s-, (1+n)gamma), (s+, n gamma)
  with n the Bose occupation at omega_z; steady
  <sz> = -(1/2) tanh(omega_z / 2T).
* ``Generalized(gamma, t)``      -- single channel (s- + t s+, gamma),
  interpolating between pure decay (t=0) and pure sx noise (t=1); steady
  <sz> = -(1/2)(1-t^2)/(1+t^2).

The transverse coherences of these models decay at two generally different
rates (gamma_x for the sx component, gamma_y for sy). The exact static
susceptibility is

    chi0 = 4 <sz> omega_z / (omega_z^2 + gamma_x * gamma_y),

which reduces to the familiar 4<sz>omega_z/(omega_z^2 + gamma_eff^2) whenever
the two rates coincide (dephasing and thermal baths). For the generalized
bath gamma_x = gamma (1-t)^2 and gamma_y = gamma (1+t)^2, so the product is
gamma^2 (1-t^2)^2; widely quoted closed forms instead carry gamma^2 (1-t)^2
in the denominator, an artifact of assuming a symmetric transverse decay.
Both variants are exposed through ``GcMode``:

* ``GcMode.SELF_CONSISTENT`` (default) -- the exact product form; agrees
  with direct quadrature of the correlator and with the mean-field and
  exact-diagonalization oracles.
* ``GcMode.LITERATURE`` -- the quoted forms, kept for comparison.
"""

from __future__ import annotations

import contextlib
import enum
import math
import re
from dataclasses import dataclass

import numpy as np

from . import qops
from .errors import ConfigParseError, InvalidModelError, NoClosedFormError, PreconditionError


@dataclass(frozen=True)
class CavityParams:
    """Cavity detuning and decay; omega0 > 0 is required for a transition."""

    omega0: float
    kappa: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.omega0) and np.isfinite(self.kappa)):
            raise InvalidModelError("cavity parameters must be finite")
        if self.omega0 <= 0:
            raise InvalidModelError(f"omega0 = {self.omega0} must be positive")
        if self.kappa < 0:
            raise InvalidModelError(f"kappa = {self.kappa} must be nonnegative")


@dataclass(frozen=True)
class Dephasing:
    gamma: float
    sz: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise InvalidModelError(f"dephasing rate {self.gamma} must be >= 0")
        if not -0.5 <= self.sz <= 0.5:
            raise InvalidModelError(f"sz = {self.sz} outside [-1/2, 1/2]")


@dataclass(frozen=True)
class Thermal:
    gamma: float
    temperature: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidModelError(f"thermal rate {self.gamma} must be > 0")
        if not np.isfinite(self.temperature) or self.temperature < 0:
            raise InvalidModelError(f"temperature {self.temperature} must be >= 0")


@dataclass(frozen=True)
class Generalized:
    gamma: float
    t: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidModelError(f"rate {self.gamma} must be > 0")
        if not 0.0 <= self.t <= 1.0:
            raise InvalidModelError(f"t = {self.t} outside [0, 1]")


@dataclass(frozen=True)
class Custom:
    channels: tuple[qops.LindbladChannel, ...]

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))


BathSpec = Dephasing | Thermal | Generalized | Custom


class GcMode(enum.Enum):
    SELF_CONSISTENT = "self-consistent"
    LITERATURE = "literature"


def _each(f, *args):
    """f(*args), element by element through Python floats where an argument is an array.

    numpy's square, tanh and expm1 are not bitwise Python's; + - * / and sqrt are.
    """
    if not any(isinstance(a, np.ndarray) for a in args):
        return f(*args)
    return np.array(list(map(f, *(a.tolist() for a in np.broadcast_arrays(*args)))), float)


def _sq(x):
    """x**2 as Python computes it (libm pow), not x*x."""
    return _each(pow, x, 2.0)


@contextlib.contextmanager
def _float_range(quantity: str):
    """Raise float overflow or division by zero in a closed form as a typed error."""
    try:
        yield
    except OverflowError:
        raise PreconditionError(f"{quantity} overflows the float range") from None
    except ZeroDivisionError:
        raise PreconditionError(f"{quantity} is undefined (division by zero)") from None


def bose_occupation(omega_z: float, temperature: float) -> float:
    """Bose-Einstein occupation at energy omega_z; 0 at T = 0."""
    if temperature < 0:
        raise InvalidModelError(f"temperature {temperature} < 0")
    if omega_z <= 0:
        raise InvalidModelError("thermal baths require omega_z > 0")
    if temperature == 0.0:
        return 0.0
    x = omega_z / temperature
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def channels_of(bath: BathSpec, omega_z: float) -> tuple[qops.LindbladChannel, ...]:
    """Lindblad channels realizing the bath, doubled-convention rates."""
    if isinstance(bath, Dephasing):
        return (qops.LindbladChannel(qops.sigma("z"), bath.gamma),)
    if isinstance(bath, Thermal):
        with _float_range("thermal occupation"):
            n = bose_occupation(omega_z, bath.temperature)
        return (
            qops.LindbladChannel(qops.sigma("minus"), (1.0 + n) * bath.gamma),
            qops.LindbladChannel(qops.sigma("plus"), n * bath.gamma),
        )
    if isinstance(bath, Generalized):
        op = qops.sigma("minus") + bath.t * qops.sigma("plus")
        return (qops.LindbladChannel(op, bath.gamma),)
    if isinstance(bath, Custom):
        return bath.channels
    raise InvalidModelError(f"unknown bath spec {bath!r}")


def spin_model(bath: BathSpec, omega_z: float):
    """SpinModel for this bath, with the designated sz where applicable."""
    from .lindblad import SpinModel

    initial_sz = bath.sz if isinstance(bath, Dephasing) else None
    return SpinModel(omega_z=omega_z, channels=channels_of(bath, omega_z), initial_sz=initial_sz)


def transverse_rates(bath: BathSpec, omega_z: float) -> tuple[float, float]:
    """Decay rates (gamma_x, gamma_y) of the sx and sy coherence components."""
    if isinstance(bath, Dephasing):
        return bath.gamma, bath.gamma
    if isinstance(bath, Thermal):
        n = _each(bose_occupation, omega_z, bath.temperature)
        r = (1.0 + 2.0 * n) * bath.gamma
        return r, r
    if isinstance(bath, Generalized):
        return bath.gamma * _sq(1.0 - bath.t), bath.gamma * _sq(1.0 + bath.t)
    raise NoClosedFormError(f"no closed-form rates for {type(bath).__name__}")


def effective_rate(bath: BathSpec, omega_z: float) -> float:
    """Decay rate of the sx coherence component (the quoted gamma_eff)."""
    return transverse_rates(bath, omega_z)[0]


def steady_sz(bath: BathSpec, omega_z: float) -> float:
    """Steady polarization; negative for the decay baths with omega_z > 0."""
    if isinstance(bath, Dephasing):
        return bath.sz
    if isinstance(bath, Thermal):
        if np.any(omega_z <= 0):
            raise InvalidModelError("thermal baths require omega_z > 0")
        return _each(lambda w, T: -0.5 if T == 0.0 else -0.5 * math.tanh(w / (2.0 * T)),
                     omega_z, bath.temperature)
    if isinstance(bath, Generalized):
        t2 = _sq(bath.t)
        return -0.5 * (1.0 - t2) / (1.0 + t2)
    raise NoClosedFormError(f"no closed-form polarization for {type(bath).__name__}")


def closed_form_chi0(
    bath: BathSpec, omega_z: float, mode: GcMode = GcMode.SELF_CONSISTENT
) -> float:
    """Static susceptibility chi(0) = Sigma(0)/g^2 in closed form, on floats or arrays."""
    with _float_range("chi0"):
        sz = steady_sz(bath, omega_z)
        if mode is GcMode.SELF_CONSISTENT:
            gx, gy = transverse_rates(bath, omega_z)
            denom = _sq(omega_z) + gx * gy
        elif isinstance(bath, Generalized):
            # quoted form: (1-t)^2 appears unsquared relative to the exact product
            denom = _sq(omega_z) + _sq(bath.gamma) * _sq(1.0 - bath.t)
        else:
            denom = _sq(omega_z) + _sq(effective_rate(bath, omega_z))
        return 4.0 * sz * omega_z / denom


def closed_form_chi(bath: BathSpec, omega_z: float):
    """Exact chi(omega), analytically continued; callable on complex omega."""
    sz = steady_sz(bath, omega_z)
    gx, gy = transverse_rates(bath, omega_z)

    def chi(omega):
        return 4.0 * sz * omega_z / ((gx - 1j * omega) * (gy - 1j * omega) + omega_z**2)

    return chi


def closed_form_gc(
    bath: BathSpec,
    omega_z: float,
    cavity: CavityParams,
    mode: GcMode = GcMode.SELF_CONSISTENT,
):
    """Critical coupling from the closed-form chi0 (a CriticalResult)."""
    from .critical import solve_gc

    return solve_gc(closed_form_chi0(bath, omega_z, mode), cavity)


# --- canonical textual form ------------------------------------------------

# name -> (class, text key -> dataclass field), in the order format_bath writes the keys
_BATH_FIELDS = {
    "dephasing": (Dephasing, {"gamma": "gamma", "sz": "sz"}),
    "thermal": (Thermal, {"gamma": "gamma", "T": "temperature"}),
    "generalized": (Generalized, {"gamma": "gamma", "t": "t"}),
}

_NAME_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*")


def format_bath(bath: BathSpec) -> str:
    """Canonical text form, inverse of parse_bath."""
    for name, (cls, keys) in _BATH_FIELDS.items():
        if isinstance(bath, cls):
            args = ", ".join(f"{key}={getattr(bath, field)!r}" for key, field in keys.items())
            return f"{name}({args})"
    raise NoClosedFormError("custom baths have no textual form")


def parse_bath(text: str, col_offset: int = 0) -> BathSpec:
    """Parse ``name(key=value, ...)`` into a BathSpec.

    col_offset shifts the reported column when the text is embedded in a
    larger config file; ``config.coerce`` adds the line.
    """

    def fail(msg: str, pos: int):
        raise ConfigParseError(msg, column=col_offset + pos + 1)

    m = _NAME_RE.match(text)
    if not m:
        fail("expected a bath name", 0)
    name = m.group(1).lower()
    if name not in _BATH_FIELDS:
        fail(f"unknown bath {name!r}; expected one of {sorted(_BATH_FIELDS)}", m.start(1))
    pos = m.end()
    if pos >= len(text) or text[pos] != "(":
        fail("expected '(' after bath name", pos)
    pos += 1
    args: dict[str, float] = {}
    while True:
        m = _NAME_RE.match(text, pos)
        if not m:
            fail("expected an argument name", pos)
        key = m.group(1)
        pos = m.end()
        if pos >= len(text) or text[pos] != "=":
            fail(f"expected '=' after argument {key!r}", pos)
        pos += 1
        m2 = re.compile(r"\s*([^,()\s]+)\s*").match(text, pos)
        if not m2:
            fail(f"expected a value for argument {key!r}", pos)
        raw = m2.group(1)
        try:
            value = float(raw)
        except ValueError:
            fail(f"could not parse {raw!r} as a number", m2.start(1))
        if key in args:
            fail(f"duplicate argument {key!r}", m.start(1))
        if key not in _BATH_FIELDS[name][1]:
            fail(f"unknown argument {key!r} for bath {name!r}", m.start(1))
        args[key] = value
        pos = m2.end()
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        if pos < len(text) and text[pos] == ")":
            pos += 1
            break
        fail("expected ',' or ')'", pos)
    if text[pos:].strip():
        fail("trailing characters after bath spec", pos)
    cls, keys = _BATH_FIELDS[name]
    missing = [k for k in keys if k not in args]
    if missing:
        fail(f"missing argument(s) {missing} for bath {name!r}", len(text) - 1)
    try:
        return cls(**{keys[k]: v for k, v in args.items()})
    except InvalidModelError as exc:
        raise ConfigParseError(str(exc), column=col_offset + 1) from None
