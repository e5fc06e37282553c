"""Run configuration: strict key=value files merged with command-line flags.

Every run setting is read one way. ``SETTINGS`` gives each key the parser
of its text and its default; a flag's text and a config line's value both
go through ``coerce``, and ``merge_config`` runs the same range and
finiteness checks whichever source a value came from.

Config files are line oriented: blank lines and '#' comments are ignored,
everything else must be ``key = value``. Keys not in SETTINGS are
rejected with a line/column diagnostic before any computation starts.
Bath values use the mini-grammar ``name(arg=val, ...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .baths import BathSpec, CavityParams, GcMode, parse_bath
from .errors import ConfigParseError


def parse_float_list(raw: str) -> tuple[float, ...]:
    """Comma-separated floats, as in "0.2, 0.5"; an empty entry is a ValueError."""
    entries = raw.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError(f"empty entry in {raw!r}")
    return tuple(float(entry) for entry in entries)


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low not in ("true", "false", "1", "0", "yes", "no"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return low in ("true", "1", "yes")


def _mode(raw: str) -> GcMode:
    try:
        return GcMode(raw.strip().lower())
    except ValueError:
        raise ValueError(f"mode must be one of {[m.value for m in GcMode]}, got {raw!r}") from None


def _format(raw: str) -> str:
    if raw.strip().lower() not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {raw!r}")
    return raw.strip().lower()


# key -> (parser of the setting's text, default); the flag of a key is --key with '-' for '_'
SETTINGS: dict[str, tuple[Callable[[str], object], object]] = {
    "bath": (parse_bath, None),
    "omega_z": (float, 1.0),
    "omega0": (float, 1.0),
    "kappa": (float, 0.0),
    "mode": (_mode, GcMode.SELF_CONSISTENT),
    "raw_units": (_bool, False),
    "verify": (_bool, False),
    "output": (str.strip, "-"),
    "format": (_format, "csv"),
    "tol": (float, 1e-5),
    "g": (float, 0.0),
    "sweep_param": (str.strip, None),
    "sweep_start": (float, None),
    "sweep_stop": (float, None),
    "sweep_points": (int, None),
    "sweep_values": (parse_float_list, None),
    "tmax": (float, None),
    "dt": (float, None),
    "omega_min": (float, None),
    "omega_max": (float, None),
    "omega_points": (int, 201),
}
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
        if key not in SETTINGS:
            raise ConfigParseError(f"unknown key {key!r}", line=lineno, column=col_key)
        if key in out:
            raise ConfigParseError(f"duplicate key {key!r}", line=lineno, column=col_key)
        value = value_part.strip()
        if not value:
            raise ConfigParseError(f"empty value for {key!r}", line=lineno, column=len(line) + 1)
        col_value = raw_line.index(value, raw_line.index("=") + 1) + 1
        out[key] = (value, lineno, col_value)
    return out


def coerce(key: str, raw: str, line: int | None = None, column: int | None = None):
    """Convert a setting's text: a config value at (line, column), or a flag's if line is None."""
    try:
        if key == "bath":  # a bath diagnostic points into the value, so it takes the offset
            return parse_bath(raw, col_offset=column - 1 if column else 0)
        return SETTINGS[key][0](raw)
    except ValueError as exc:
        if isinstance(exc, ConfigParseError):
            column = exc.column
        source = f"--{key.replace('_', '-')}" if line is None else repr(key)
        raise ConfigParseError(f"bad value for {source}: {exc}", line=line, column=column) from None


def load_config_file(path: str | Path) -> dict[str, object]:
    text = Path(path).read_text(encoding="utf-8")
    raw = parse_config_text(text)
    return {k: coerce(k, v, line, col) for k, (v, line, col) in raw.items()}


@dataclass(frozen=True)
class RunConfig:
    """Fully merged settings for one CLI invocation, named as in SETTINGS.

    omega0 and kappa are held in ``cavity``; a sweep_start/sweep_stop/sweep_points
    grid is held, expanded, in ``sweep_values``.
    """

    bath: BathSpec | None
    omega_z: float
    cavity: CavityParams
    mode: GcMode
    raw_units: bool
    verify: bool
    output: str
    format: str
    tol: float
    g: float
    sweep_param: str | None
    sweep_values: tuple[float, ...] | None
    tmax: float | None
    dt: float | None
    omega_min: float | None
    omega_max: float | None
    omega_points: int


def merge_config(cli_values: dict[str, str | None], config_path: str | None) -> RunConfig:
    """Apply precedence: explicit flag > config file > default.

    cli_values holds each flag's text (None where the flag was not given).
    """
    flag_values = {key: coerce(key, raw) for key, raw in cli_values.items() if raw is not None}
    file_values = load_config_file(config_path) if config_path else {}
    merged = {key: default for key, (_, default) in SETTINGS.items()}
    merged.update(file_values)
    merged.update(flag_values)
    for key in ("omega_z", "omega0", "kappa", "tol", "g", "tmax", "dt", "omega_min", "omega_max",
                "sweep_start", "sweep_stop"):
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
    lo, hi, n = merged.pop("sweep_start"), merged.pop("sweep_stop"), merged.pop("sweep_points")
    if merged["sweep_values"] is None and n is not None:
        if lo is None or hi is None:
            raise ConfigParseError("sweep_points needs sweep_start and sweep_stop")
        if n < 1:
            raise ConfigParseError(f"sweep_points = {n} must be >= 1")
        if n == 1:
            merged["sweep_values"] = (lo,)
        else:
            step = (hi - lo) / (n - 1)
            merged["sweep_values"] = tuple(lo + i * step for i in range(n))
    cavity = CavityParams(omega0=merged.pop("omega0"), kappa=merged.pop("kappa"))
    return RunConfig(cavity=cavity, **merged)
