"""Run configuration: strict key=value files merged with command-line flags.

Config files are line oriented: blank lines and '#' comments are ignored,
everything else must be ``key = value``. Keys not in KNOWN_KEYS are
rejected with a line/column diagnostic before any computation starts.
Bath values use the mini-grammar ``name(arg=val, ...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .baths import BathSpec, CavityParams, GcMode, parse_bath
from .errors import ConfigParseError

_FLOAT_KEYS = {
    "omega_z", "omega0", "kappa", "sweep_start", "sweep_stop",
    "tmax", "dt", "g", "omega_min", "omega_max", "tol",
}
_INT_KEYS = {"sweep_points", "omega_points"}
_FINITE_KEYS = ("tol", "g", "tmax", "dt", "omega_min", "omega_max", "sweep_start", "sweep_stop")
_BOOL_KEYS = {"raw_units", "verify"}
_STR_KEYS = {"bath", "mode", "sweep_param", "output", "format"}
_LIST_KEYS = {"sweep_values"}

KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS | _LIST_KEYS
# spectrum solves its whole grid at once: 1e6 frequencies took 0.64 GB and 8.4 s on
# 2 cores, and 1e8 had the process killed for memory
MAX_OMEGA_POINTS = 1_000_000


def parse_config_text(text: str) -> dict[str, tuple[str, int, int]]:
    """Map key -> (raw value, line, column of the value)."""
    out: dict[str, tuple[str, int, int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigParseError("expected 'key = value'", line=lineno, column=1)
        key_part, value_part = line.split("=", 1)
        key = key_part.strip()
        col_key = raw_line.index(key) + 1 if key else 1
        if key not in KNOWN_KEYS:
            raise ConfigParseError(f"unknown key {key!r}", line=lineno, column=col_key)
        if key in out:
            raise ConfigParseError(f"duplicate key {key!r}", line=lineno, column=col_key)
        value = value_part.strip()
        if not value:
            raise ConfigParseError(f"empty value for {key!r}", line=lineno, column=len(line) + 1)
        col_value = raw_line.index(value, raw_line.index("=") + 1) + 1
        out[key] = (value, lineno, col_value)
    return out


def parse_float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated floats, as in "0.2, 0.5"; an empty entry is a ValueError."""
    entries = raw.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError(f"empty entry in {raw!r}")
    return tuple(float(entry) for entry in entries)


def coerce(key: str, raw: str, line: int | None = None, column: int | None = None):
    """Convert a raw config string to its typed value."""
    try:
        if key in _FLOAT_KEYS:
            value = float(raw)
        elif key in _INT_KEYS:
            value = int(raw)
        elif key in _BOOL_KEYS:
            low = raw.strip().lower()
            if low not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(f"expected a boolean, got {raw!r}")
            value = low in ("true", "1", "yes")
        elif key in _LIST_KEYS:
            value = parse_float_list(raw)
        elif key == "bath":
            value = parse_bath(raw, line=line)
        elif key == "mode":
            try:
                value = GcMode(raw.strip().lower())
            except ValueError:
                raise ValueError(
                    f"mode must be one of {[m.value for m in GcMode]}, got {raw!r}"
                ) from None
        elif key == "format":
            if raw.strip().lower() not in ("csv", "json"):
                raise ValueError(f"format must be csv or json, got {raw!r}")
            value = raw.strip().lower()
        else:
            value = raw.strip()
        return value
    except ConfigParseError:
        raise
    except ValueError as exc:
        raise ConfigParseError(f"bad value for {key!r}: {exc}", line=line, column=column) from None


def load_config_file(path: str | Path) -> dict[str, object]:
    text = Path(path).read_text(encoding="utf-8")
    raw = parse_config_text(text)
    return {k: coerce(k, v, line, col) for k, (v, line, col) in raw.items()}


_DEFAULTS: dict[str, object] = {
    "omega_z": 1.0,
    "omega0": 1.0,
    "kappa": 0.0,
    "mode": GcMode.SELF_CONSISTENT,
    "raw_units": False,
    "verify": False,
    "output": "-",
    "format": "csv",
    "g": 0.0,
    "tol": 1e-5,
    "omega_points": 201,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully merged settings for one CLI invocation."""

    bath: BathSpec | None
    omega_z: float
    cavity: CavityParams
    mode: GcMode
    raw_units: bool
    verify: bool
    output: str
    fmt: str
    tol: float
    g: float
    sweep_param: str | None = None
    sweep_values: tuple[float, ...] | None = None
    tmax: float | None = None
    dt: float | None = None
    omega_min: float | None = None
    omega_max: float | None = None
    omega_points: int = 201


def merge_config(cli_values: dict[str, object], config_path: str | None) -> RunConfig:
    """Apply precedence: explicit flag > config file > default."""
    file_values = load_config_file(config_path) if config_path else {}
    merged: dict[str, object] = {}
    for key in KNOWN_KEYS:
        if cli_values.get(key) is not None:
            merged[key] = cli_values[key]
        elif key in file_values:
            merged[key] = file_values[key]
        elif key in _DEFAULTS:
            merged[key] = _DEFAULTS[key]
        else:
            merged[key] = None
    for key in _FINITE_KEYS:
        if merged[key] is not None and not math.isfinite(merged[key]):
            raise ConfigParseError(f"{key} = {merged[key]} must be finite")
    if merged["sweep_values"] is not None and not all(map(math.isfinite, merged["sweep_values"])):
        listed = ", ".join(map(str, merged["sweep_values"]))
        raise ConfigParseError(f"sweep_values = {listed}: every entry must be finite")
    if merged["tol"] < 0:
        raise ConfigParseError(f"tol = {merged['tol']} must be >= 0")
    if merged["omega_points"] < 1:
        raise ConfigParseError(f"omega_points = {merged['omega_points']} must be >= 1")
    if merged["omega_points"] > MAX_OMEGA_POINTS:
        raise ConfigParseError(
            f"omega_points = {merged['omega_points']} must be <= {MAX_OMEGA_POINTS}")
    sweep_values = merged["sweep_values"]
    if sweep_values is None and merged["sweep_points"] is not None:
        if merged["sweep_start"] is None or merged["sweep_stop"] is None:
            raise ConfigParseError("sweep_points needs sweep_start and sweep_stop")
        n = int(merged["sweep_points"])
        if n < 1:
            raise ConfigParseError(f"sweep_points = {n} must be >= 1")
        lo, hi = float(merged["sweep_start"]), float(merged["sweep_stop"])
        if n == 1:
            sweep_values = (lo,)
        else:
            step = (hi - lo) / (n - 1)
            sweep_values = tuple(lo + i * step for i in range(n))
    return RunConfig(
        bath=merged["bath"],
        omega_z=float(merged["omega_z"]),
        cavity=CavityParams(omega0=float(merged["omega0"]), kappa=float(merged["kappa"])),
        mode=merged["mode"],
        raw_units=bool(merged["raw_units"]),
        verify=bool(merged["verify"]),
        output=str(merged["output"]),
        fmt=str(merged["format"]),
        tol=float(merged["tol"]),
        g=float(merged["g"]),
        sweep_param=merged["sweep_param"],
        sweep_values=sweep_values,
        tmax=merged["tmax"],
        dt=merged["dt"],
        omega_min=merged["omega_min"],
        omega_max=merged["omega_max"],
        omega_points=int(merged["omega_points"]),
    )
