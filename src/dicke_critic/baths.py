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

``closed_form_chi`` continues the exact form to any frequency; at omega = 0
it is ``closed_form_chi0`` bit for bit, the chi0 that ``gc`` prints.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import qops
from .errors import (
    ConfigParseError,
    InvalidModelError,
    NoClosedFormError,
    NonIntegrableTailError,
    PreconditionError,
)


# the checks use np.all and np.any, so a sweep's column in one field is checked as a float is
@dataclass(frozen=True)
class CavityParams:
    """Cavity detuning and decay; omega0 > 0 is required for a transition."""

    omega0: float
    kappa: float = 0.0

    def __post_init__(self):
        if not (np.all(np.isfinite(self.omega0)) and np.all(np.isfinite(self.kappa))):
            raise InvalidModelError("cavity parameters must be finite")
        if np.any(self.omega0 <= 0):
            raise InvalidModelError(f"omega0 = {self.omega0} must be positive")
        if np.any(self.kappa < 0):
            raise InvalidModelError(f"kappa = {self.kappa} must be nonnegative")


@dataclass(frozen=True)
class Dephasing:
    gamma: float
    sz: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.gamma) & (self.gamma >= 0)):
            raise InvalidModelError(f"dephasing rate {self.gamma} must be >= 0")
        if not np.all((-0.5 <= self.sz) & (self.sz <= 0.5)):
            raise InvalidModelError(f"sz = {self.sz} outside [-1/2, 1/2]")


@dataclass(frozen=True)
class Thermal:
    gamma: float
    temperature: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.gamma) & (self.gamma > 0)):
            raise InvalidModelError(f"thermal rate {self.gamma} must be > 0")
        if not np.all(np.isfinite(self.temperature) & (self.temperature >= 0)):
            raise InvalidModelError(f"temperature {self.temperature} must be >= 0")


@dataclass(frozen=True)
class Generalized:
    gamma: float
    t: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.gamma) & (self.gamma > 0)):
            raise InvalidModelError(f"rate {self.gamma} must be > 0")
        if not np.all((0.0 <= self.t) & (self.t <= 1.0)):
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


# numpy's tanh and expm1 are not libm's: they differ in the last bit (numpy 2.4, glibc 2.36,
# x86-64: np.expm1 on 7,119 and np.tanh on 62,527 of 200,000 draws x = 10^u, u uniform
# from -8 to log10(700) and to 2). So a float takes math.tanh and math.expm1, and a sweep's
# column takes them too, one map over the column's list (``_libm``), so each row is the
# float's result bit for bit. The checks and + - * / run on whole arrays, being correctly
# rounded in both; every square is written x * x, never pow, so it is correctly rounded too.
def _libm(f, x: np.ndarray) -> np.ndarray:
    """f (math.tanh or math.expm1) of each element of the 1-d array x, as Python computes it."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def _columns(*args) -> tuple[np.ndarray, ...] | None:
    """args broadcast together where one is an array (a sweep's column); None on floats."""
    if not any(isinstance(a, np.ndarray) for a in args):
        return None
    return np.broadcast_arrays(*args)


def _in_float_range(values, omega, quantity: str):
    """values[()]; a value that is not finite raises PreconditionError naming its omega."""
    finite = np.isfinite(values).reshape(-1)
    if not np.all(finite):
        w = np.broadcast_to(omega, values.shape).reshape(-1)[np.argmin(finite)]
        raise PreconditionError(f"{quantity} leaves the float range at omega = {w}")
    return values[()]


def _cavity_scale(cavity: CavityParams, quantity: str, rows=True):
    """omega0^2 + kappa^2, which must be a normal float: below that it has lost its digits.
    Only the rows where rows holds are checked (on a sweep's columns, those with a transition)."""
    scale = cavity.omega0 * cavity.omega0 + cavity.kappa * cavity.kappa
    if np.any(np.isinf(scale) & rows):
        raise PreconditionError(f"{quantity} overflows the float range")
    if np.any((scale < sys.float_info.min) & rows):
        raise PreconditionError(f"{quantity} is undefined: omega0^2 + kappa^2 underflows the "
                                f"float range (below {sys.float_info.min:.6g})")
    return scale


def _ldexp(x, k):
    """x 2^k, exact away from the float range's ends: math.ldexp (a Python float, which raises
    OverflowError) on floats, np.ldexp where x or k is an array."""
    if isinstance(x, np.ndarray) or isinstance(k, np.ndarray):
        return np.ldexp(x, k)
    return math.ldexp(x, k)


def _unit_exponent(*frequencies):
    """The k of a point's unit scale: frexp(largest |frequency|) - 1, so that 2^-k puts the
    largest in [1, 2) and a point already there keeps k = 0. One spelling, np.frexp on whole
    arrays, serves floats (k a Python int) and a sweep's columns (one k per row). k is 0, the
    raw scale, where a nonzero frequency is subnormal before or after, as on a point that
    spans more than the normal float range, and where no frequency is finite and nonzero or
    one is nan, wherever it sits.
    """
    tiny = sys.float_info.min
    f = np.abs(np.broadcast_arrays(*frequencies))
    top, low = f.max(axis=0), f.min(axis=0, initial=np.inf, where=f > 0)
    k = np.frexp(top)[1] - 1
    k = k * ((tiny <= low) & (low <= top) & (top < np.inf) & (np.ldexp(low, -k) >= tiny))
    return k if k.ndim else int(k)


def _frequencies(bath: BathSpec, omega_z, cavity: CavityParams) -> tuple:
    """The frequencies of a point that fix its unit scale: omega_z, omega0, kappa, T and the
    channel rates, on floats or a sweep's columns."""
    temperature = (bath.temperature,) if isinstance(bath, Thermal) else ()
    return (omega_z, cavity.omega0, cavity.kappa, *temperature, *_channel_rates(bath, omega_z))


# the fields of a record that hold a frequency; a channel tuple holds its rates
_FREQUENCY_FIELDS = ("omega_z", "omega0", "kappa", "gamma", "temperature", "rate", "channels")


def _unit_scale(part, k):
    """part with every frequency times 2^-k: the point at unit scale, k of ``_unit_exponent``.

    A part is a frequency, a tuple of parts or a record (CavityParams, a
    bath, a SpinModel) whose frequency fields are omega_z, omega0, kappa,
    gamma, temperature and the channel rates. + - * / and sqrt commute with
    2^-k, and a bath's occupation reads omega_z / T, so each result at unit
    scale is scaled back exactly by ``_ldexp``: g_c by 2^k, chi by 2^-k.
    """
    if not k:
        return part
    if isinstance(part, tuple):
        return tuple(_unit_scale(item, k) for item in part)
    if not dataclasses.is_dataclass(part):
        return _ldexp(part, -k)
    return dataclasses.replace(part, **{name: _unit_scale(value, k)
                                        for name, value in vars(part).items()
                                        if name in _FREQUENCY_FIELDS})


def bose_occupation(omega_z: float, temperature: float) -> float:
    """Bose-Einstein occupation at energy omega_z; 0 at T = 0."""
    if temperature < 0:
        raise InvalidModelError(f"temperature {temperature} < 0")
    if omega_z <= 0:
        raise InvalidModelError("thermal baths require omega_z > 0")
    if temperature == 0.0:
        return 0.0
    x = omega_z / temperature
    if x == 0.0:  # omega_z / T underflows, and 1 / expm1(0) has no value
        raise PreconditionError("thermal occupation is undefined (division by zero)")
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    n = 1.0 / math.expm1(x)
    if n == math.inf:  # x subnormal: float / overflows without an exception
        raise PreconditionError("thermal occupation overflows the float range")
    return n


def _occupation(omega_z, temperature):
    """``bose_occupation`` on floats, or on a sweep's columns row by row bit for bit.

    A row that fails a check of ``bose_occupation`` raises through it, with its error."""
    columns = _columns(omega_z, temperature)
    if columns is None:
        return bose_occupation(omega_z, temperature)
    w, t = columns
    with np.errstate(all="ignore"):  # as Python's / and float division: no exception
        x = w / t
        live = (t != 0) & ~(x > 700.0)  # the others hold 0; nan stays live, as in Python
        n = np.zeros(x.shape)
        n[live] = 1.0 / _libm(math.expm1, x[live])
    bad = (t < 0) | (w <= 0) | (n == np.inf)  # x = 0 (1 / 0) or subnormal
    if bad.any():
        i = np.argmax(bad)
        bose_occupation(w.reshape(-1)[i].item(), t.reshape(-1)[i].item())
    return n


def _channel_rates(bath: BathSpec, omega_z) -> tuple:
    """The rates of the bath's channels, in the order of ``channels_of``, on floats or a
    sweep's columns."""
    if isinstance(bath, Thermal):
        n = _occupation(omega_z, bath.temperature)
        return (1.0 + n) * bath.gamma, n * bath.gamma
    if isinstance(bath, Custom):
        return tuple(ch.rate for ch in bath.channels)
    return (bath.gamma,)


def channels_of(bath: BathSpec, omega_z: float) -> tuple[qops.LindbladChannel, ...]:
    """Lindblad channels realizing the bath, doubled-convention rates."""
    if isinstance(bath, Dephasing):
        ops = (qops.sigma("z"),)
    elif isinstance(bath, Thermal):
        ops = (qops.sigma("minus"), qops.sigma("plus"))
    elif isinstance(bath, Generalized):
        ops = (qops.sigma("minus") + bath.t * qops.sigma("plus"),)
    elif isinstance(bath, Custom):
        return bath.channels
    else:
        raise InvalidModelError(f"unknown bath spec {bath!r}")
    return tuple(map(qops.LindbladChannel, ops, _channel_rates(bath, omega_z)))


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
        n = _occupation(omega_z, bath.temperature)
        r = (1.0 + 2.0 * n) * bath.gamma
        return r, r
    if isinstance(bath, Generalized):
        below, above = 1.0 - bath.t, 1.0 + bath.t
        return bath.gamma * (below * below), bath.gamma * (above * above)
    raise NoClosedFormError(f"no closed-form rates for {type(bath).__name__}")


def steady_sz(bath: BathSpec, omega_z: float) -> float:
    """Steady polarization; negative for the decay baths with omega_z > 0."""
    if isinstance(bath, Dephasing):
        return bath.sz
    if isinstance(bath, Thermal):
        if np.any(omega_z <= 0):
            raise InvalidModelError("thermal baths require omega_z > 0")
        columns = _columns(omega_z, bath.temperature)
        if columns is None:
            w, T = omega_z, bath.temperature
            return -0.5 if T == 0.0 else -0.5 * math.tanh(w / (2.0 * T))
        w, T = columns
        sz = np.full(w.shape, -0.5)
        hot = T != 0
        with np.errstate(all="ignore"):
            sz[hot] = -0.5 * _libm(math.tanh, w[hot] / (2.0 * T[hot]))
        return sz
    if isinstance(bath, Generalized):
        t2 = bath.t * bath.t
        return -0.5 * (1.0 - t2) / (1.0 + t2)
    raise NoClosedFormError(f"no closed-form polarization for {type(bath).__name__}")


def closed_form_chi0(
    bath: BathSpec, omega_z: float, mode: GcMode = GcMode.SELF_CONSISTENT
) -> float:
    """Static susceptibility chi(0) = Sigma(0)/g^2 in closed form, on floats or arrays.

    The modes differ only for the generalized bath: elsewhere gamma_x = gamma_y, so the
    exact product is the quoted gamma_eff^2 bit for bit. A square of omega_z, or of gamma
    in the quoted form, past the float range raises PreconditionError, as does a zero
    denominator (omega_z^2 and the rates both 0).
    """
    sz = steady_sz(bath, omega_z)
    squares = [omega_z * omega_z]
    if mode is GcMode.LITERATURE and isinstance(bath, Generalized):
        # quoted form: (1-t)^2 appears unsquared relative to the exact product
        below = 1.0 - bath.t
        squares.append(bath.gamma * bath.gamma)
        rates = squares[1] * (below * below)
    else:
        gx, gy = transverse_rates(bath, omega_z)
        rates = gx * gy
    if any(np.any(np.isinf(square)) for square in squares):
        raise PreconditionError("chi0 overflows the float range")
    denominator = squares[0] + rates
    if np.any(denominator == 0):
        raise PreconditionError("chi0 is undefined (division by zero)")
    return 4.0 * sz * omega_z / denominator


def closed_form_chi(bath: BathSpec, omega_z: float):
    """Exact chi(omega), analytically continued; callable on real or complex omega.

    chi(omega) = 4 <sz> omega_z / ((gamma_x - i omega)(gamma_y - i omega) + omega_z^2),
    with the shape of its argument. At omega = 0 it divides by the real
    denominator, as ``closed_form_chi0`` does, so chi(0) is chi0 bit for bit.
    An unpolarized bath (<sz> = 0) gives 0 everywhere, at resonances too.
    Without damping (dephasing at gamma = 0) a call raises
    NonIntegrableTailError where omega comes within RESONANCE_TOL
    |omega_z| of +-omega_z, the undamped modes, where the transform
    diverges. A denominator past the float range gives 0, without a
    warning; a chi past it (a rate so small that gamma omega_z underflows,
    at omega = +-omega_z) raises PreconditionError, as does an omega_z
    whose square overflows.
    """
    sz = steady_sz(bath, omega_z)
    gx, gy = transverse_rates(bath, omega_z)
    wz2 = omega_z * omega_z
    if np.any(np.isinf(wz2)):
        raise PreconditionError("chi overflows the float range")
    reach = qops.RESONANCE_TOL * abs(omega_z)

    def chi(omega):
        om = np.asarray(omega)
        if sz == 0:
            return np.zeros(om.shape, complex)[()]
        if gx == gy == 0:
            flat = om.reshape(-1)
            near = np.minimum(abs(flat - omega_z), abs(flat + omega_z)) <= reach
            if np.any(near):
                w = flat[np.argmax(near)]
                pole = omega_z if abs(w - omega_z) <= abs(w + omega_z) else -omega_z
                raise NonIntegrableTailError(
                    f"undamped mode (eigenvalue {complex(0.0, -pole):.6g}) evaluated at its "
                    f"resonance omega = {w}"
                )
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            num, denom = 4.0 * sz * omega_z, (gx - 1j * om) * (gy - 1j * om) + wz2
            values = np.where(om == 0, num / denom.real, num / denom)
        return _in_float_range(values, om, "chi")

    return chi


def closed_form_gc(
    bath: BathSpec,
    omega_z: float,
    cavity: CavityParams,
    mode: GcMode = GcMode.SELF_CONSISTENT,
):
    """Critical coupling from the closed-form chi0 (a CriticalResult): the closed-form route of
    ``critical.agreement``, so judged at unit scale (``_unit_scale``)."""
    from .critical import agreement

    return agreement(bath, omega_z, cavity, mode, routes=()).results["closed_form"]


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
