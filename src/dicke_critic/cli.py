"""Command-line front end.

Subcommands:

* ``gc``       -- critical coupling for one parameter point
* ``sweep``    -- phase-boundary table over a grid of one parameter, from the
  columns of one ``critical.sweep`` broadcast; the JSON is the text
  ``json.dumps(rows, indent=2)`` would give, without its slow encoder: each
  number is spelled by ``spelling.spell`` into its place in a block of rows
  (``spelling.blocks``), the layout is written into the block once, each
  status is its ``critical.STATUS`` label, and the closing ``]`` ends the
  last block
* ``corr``     -- sampled two-time correlator S_x(t), stepped by one
  propagator, so it also runs at exceptional points of the generator
* ``spectrum`` -- cavity determinant and susceptibility over frequency;
  chi(omega) on the whole grid, omega = 0 included, is the closed form
  ``baths.closed_form_chi`` that ``gc`` and ``sweep`` read chi0 from (the
  omega = 0 row is their chi0 bit for bit), and the determinant comes from
  one ``response.cavity_det`` call. The
  resolvent (``response.resolvent_chi``) and the correlator quadrature are
  its checks, in the tests, not routes of the command
* ``oracle``   -- closed form vs mean-field threshold table, ``critical.agreement``
  at each ``ORACLE_SUITE`` point; a point without a transition exits 2

A subcommand has a flag for each ``config.SETTINGS`` key it reads, as
``COMMANDS`` lists them, and ``--config`` and ``--output``; any other flag
is a usage error. Each flag's text goes to ``config.merge_config``, which
reads it as it reads a config line of that key and runs the same checks
on both; a config line of a key the subcommand does not read is checked,
not read. A bad value is one ``bad value for --flag: ...`` line.

Exit codes: 0 success, 1 usage or parse error, 2 no transition,
3 oracle disagreement. Once the configuration has been read, an error
message on stderr starts with the point settings (bath, omega_z, omega0,
kappa) that the subcommand reads, and their values.

Every CSV table is formed by ``csv_table``: the version line, the header,
then one row per index of its columns, each float as ``fmt`` writes it, with
17 significant digits, so repeated runs are byte-identical. A table of at
least ``SPELL_MIN_CELLS`` float cells has its floats spelled by
``spelling.spell`` into a block of rows, ``spelling.ROW_BLOCK`` rows at a
time; a smaller one is one block, written by a per-row template, at the same
bytes. Every output goes through ``write``, a block at a time, to stdout or
to a file opened once: no output is held whole. Frequencies are reported in
units of omega_z unless --raw-units is given; omega_z = 0 is then an error.

``build_parser`` is cached: the argparse tree is built on the first
``main`` call of a process and reused by every later one, in-process
callers included. Reuse leaks nothing between calls: ``parse_args``
returns a fresh ``Namespace`` each time and does not mutate the parser;
every option defaults to ``None``, so an option left out reads ``None``
whatever an earlier call gave; and usage, ``--help`` and ``--version``
look up ``sys.stdout``/``sys.stderr`` and the terminal width when they
print, not when the parser is built.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterable, Sequence

import numpy as np

from . import __version__, baths, critical, response, spelling
from .baths import GcMode, parse_bath
from .config import SETTINGS, RunConfig, merge_config
from .critical import Agreement, NoTransition, SweepPlan
from .errors import DickeCriticError, NoTransitionError

HEADER = f"# dicke-critic v{__version__}"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_TRANSITION = 2
EXIT_ORACLE_DISAGREEMENT = 3

_NULL = np.frombuffer(b"null".ljust(spelling.WIDTH, b"\0"), np.uint8)  # JSON's null as a row
# each row's status, by its code: the critical.STATUS labels as NUL-padded bytes
_LABELS = np.array([label.encode() for label in critical.STATUS])
# the end of a JSON row: a comma, or on the last row the closing bracket
_COMMA, _CLOSE = (np.frombuffer(end.ljust(3, b"\0"), np.uint8) for end in (b",\n", b"\n]\n"))


def fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 flushes negative zero


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2; the exit-code contract reserves
    # 2 for "no transition", so usage errors must exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default(key: str) -> str:
    """The help text "(default X)", X the default that config.SETTINGS holds for key."""
    value = SETTINGS[key][1]
    # a float as "%g" writes it, less the exponent's padding: 1e-5, not 1e-05
    text = value.value if isinstance(value, GcMode) else format(value, "g").replace("e-0", "e-")
    return f"(default {text})"


# command -> (help, the config.SETTINGS keys it reads, each a flag --key with '-' for '_');
# every command also takes --config and --output
_POINT = ("bath", "omega_z", "omega0", "kappa")
COMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "gc": ("critical coupling at one point", (*_POINT, "mode", "raw_units", "verify", "tol")),
    "sweep": ("phase boundary over a grid", (*_POINT, "mode", "raw_units", "sweep_param",
              "sweep_start", "sweep_stop", "sweep_points", "sweep_values", "format")),
    "corr": ("two-time correlator samples", ("bath", "omega_z", "raw_units", "tmax", "dt")),
    "spectrum": ("cavity determinant vs frequency",
                 (*_POINT, "raw_units", "g", "omega_min", "omega_max", "omega_points")),
    "oracle": ("closed form vs mean-field table", ("omega_z", "omega0", "tol")),
}
# the help of each flag that has one; six name their key's default in config.SETTINGS
_HELP = {
    "bath": 'e.g. "dephasing(gamma=0.3, sz=-0.5)"',
    "omega_z": f"atomic detuning {_default('omega_z')}",
    "omega0": f"cavity detuning {_default('omega0')}", "kappa": f"cavity decay {_default('kappa')}",
    "mode": f"closed-form variant {_default('mode')}", "g": f"coupling {_default('g')}",
    "tol": f"max relative deviation of the mean-field threshold {_default('tol')}",
    "raw_units": "report raw frequencies instead of units of omega_z",
    "verify": "cross-check against the mean-field threshold",
    "sweep_param": "parameter to sweep", "sweep_values": "comma-separated explicit grid",
}
_METAVARS = {"mode": "{self-consistent,literature}", "format": "{csv,json}"}


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, shared by every ``main`` call: do not mutate it."""
    parser = _Parser(prog="dicke-critic")
    parser.add_argument("--version", action="version", version=HEADER.lstrip("# "))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:  # a bool key is a switch, whose presence reads "true"
            kind = ({"action": "store_const", "const": "true"} if isinstance(SETTINGS[key][1], bool)
                    else {"metavar": _METAVARS.get(key)})
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=_HELP.get(key), **kind)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--output", help="output path ('-' = stdout)")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return merge_config(values, getattr(args, "config", None))


def write(output: str, blocks: Iterable[bytes]) -> None:
    """Write blocks of UTF-8 text, in turn, to stdout (output '-') or to the file output.

    The file is opened once, after the first block is formed, so a run that fails before
    that writes no file.
    """
    if output == "-":
        for block in blocks:
            sys.stdout.write(block.decode())
        return
    blocks = iter(blocks)
    first = next(blocks, b"")
    try:
        with open(output, "wb") as file:
            file.write(first)
            for block in blocks:
                file.write(block)
    except OSError as exc:
        raise DickeCriticError(f"cannot write {output}: {exc.strerror}") from None


# csv_table spells the floats of a table of at least this many float cells with
# spelling.spell, and of a smaller one with a per-row template. On a process's first table
# the two cost the same at about 2,000 cells: 5 float columns of 400 rows took 0.97-1.12 ms
# with the kernel and 1.04-1.14 ms with the template, of 200 rows 0.69-1.01 and 0.56-0.93 ms
# (5 fresh processes each, one outlier dropped, 2-core x86-64 host). spectrum's tables hold
# 55 to 705 cells.
SPELL_MIN_CELLS = 2000


def csv_table(header: str, columns: Sequence[np.ndarray | Sequence[str]]) -> Iterable[bytes]:
    """The CSV text of a table, as blocks of UTF-8 bytes for ``write``: the version line,
    header, then a row per index of columns.

    A column of str, or of bytes already encoded, is written as it is (it holds no NUL); any
    other column is an array of real numbers, each written "%.17g" after + 0.0, which flushes
    negative zero (a row without a transition holds inf, written inf). The columns are
    checked here, before any block is formed. A table of fewer than SPELL_MIN_CELLS float
    cells is one block.
    """
    cells = [np.asarray(c) for c in columns]
    cells = [np.array([str(cell).encode() for cell in c.tolist()], bytes) if c.dtype.kind in "OU"
             else c for c in cells]
    head = f"{HEADER}\n{header}\n".encode()
    floats = [c for c in cells if c.dtype.kind != "S"]
    if len(floats) * len(cells[0]) < SPELL_MIN_CELLS:
        template = b",".join(b"%s" if c.dtype.kind == "S" else b"%.17g" for c in cells) + b"\n"
        cells = [(c if c.dtype.kind == "S" else c + 0.0).tolist() for c in cells]
        return [head + b"".join(map(template.__mod__, zip(*cells, strict=True)))]
    # the checks the template makes: zip's strict lengths, and "%.17g" of a complex number
    if len({len(c) for c in cells}) > 1:
        raise ValueError("the columns of a table differ in length")
    if any(c.dtype.kind == "c" for c in floats):
        raise TypeError("a CSV column holds complex numbers")

    def fill(rows: slice, fields: list[np.ndarray]) -> None:
        for c, field in zip(cells, fields):
            if c.dtype.kind == "S":
                field[:] = c[rows].view(np.uint8).reshape(len(field), c.itemsize)
            else:
                spelling.spell(c[rows], out=field)

    pieces = [piece for c in cells for piece in (c.itemsize if c.dtype.kind == "S"
                                                 else spelling.WIDTH, b",")]
    return itertools.chain([head], spelling.blocks(len(cells[0]), [*pieces[:-1], b"\n"], fill))


def _unit(cfg: RunConfig) -> float:
    """The unit of a table's frequencies: omega_z, or 1 under --raw-units."""
    if cfg.raw_units:
        return 1.0
    if cfg.omega_z == 0:
        raise DickeCriticError("omega_z = 0 cannot be the frequency unit; give --raw-units")
    return cfg.omega_z


def cmd_gc(cfg: RunConfig) -> int:
    point = critical.agreement(cfg.bath, cfg.omega_z, cfg.cavity, cfg.mode,
                               ("closed_form", "mean_field") if cfg.verify else ("closed_form",))
    result = point.results["closed_form"]
    unit = _unit(cfg)
    lines = [f"units = {'raw' if cfg.raw_units else 'omega_z'}",
             f"chi0 = {fmt(point.chi0 * unit)}"]
    if isinstance(result, NoTransition):
        lines.append(f"g_c = no transition: {result.reason.value}")
        lines.append("g_c_over_g0 = inf")
        write(cfg.output, ["\n".join(lines).encode() + b"\n"])
        return EXIT_NO_TRANSITION
    g0 = critical.fully_polarized_gc(cfg.omega_z, cfg.cavity)  # only where g_c is formed
    lines.append(f"g_c = {fmt(result.g_c / unit)}")
    lines.append(f"g_c_over_g0 = {fmt(result.g_c / g0)}")
    status = EXIT_OK
    if cfg.verify:  # the mean-field route ran on the closed form's transition
        g_star = point.results["mean_field"].g_c
        dev = abs(g_star - result.g_c) / result.g_c
        lines.append(f"g_star = {fmt(g_star / unit)}")
        lines.append(f"oracle_rel_dev = {fmt(dev)}")
        if dev > cfg.tol:
            status = EXIT_ORACLE_DISAGREEMENT
    write(cfg.output, ["\n".join(lines).encode() + b"\n"])
    return status


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.sweep_param or not cfg.sweep_values:
        raise DickeCriticError("sweep needs sweep_param and a grid")
    plan = SweepPlan(
        bath=cfg.bath,
        omega_z=cfg.omega_z,
        cavity=cfg.cavity,
        axis=cfg.sweep_param,
        values=cfg.sweep_values,
        mode=cfg.mode,
    )
    table = critical.sweep(plan)
    unit = _unit(cfg)
    ok = table.code == 0
    cols = [table.params, table.chi0 * unit, table.g_c / unit, table.gc_over_g0]
    cols[2:] = (np.where(ok, c, np.inf) for c in cols[2:])
    if cfg.format == "csv":
        write(cfg.output, csv_table(f"{cfg.sweep_param},chi0,g_c,g_c_over_g0,status",
                                    [*cols, _LABELS[table.code]]))
        return EXIT_OK
    # the bytes of json.dumps(rows, indent=2): each number as json.dumps spells it
    # (spelling.spell), null where a row has no transition, the layout written here
    key = json.dumps(cfg.sweep_param).encode()
    width = spelling.WIDTH

    def fill(rows: slice, fields: list[np.ndarray]) -> None:
        *numbers, status, end = fields
        for c, field in zip(cols, numbers):
            spelling.spell(c[rows], json=True, out=field)
        for field in numbers[2:]:
            field[~ok[rows]] = _NULL
        status[:] = _LABELS[table.code[rows]].view(np.uint8).reshape(len(status), -1)
        end[:] = _COMMA
        if rows.stop == len(ok):
            end[-1] = _CLOSE

    pieces = [b"  {\n    " + key + b": ", width, b',\n    "chi0": ', width, b',\n    "g_c": ',
              width, b',\n    "g_c_over_g0": ', width, b',\n    "status": "', _LABELS.itemsize,
              b'"\n  }', len(_CLOSE)]
    write(cfg.output, itertools.chain([b"[\n"], spelling.blocks(len(ok), pieces, fill)))
    return EXIT_OK


def cmd_corr(cfg: RunConfig) -> int:
    unit = _unit(cfg)
    model = baths.spin_model(cfg.bath, cfg.omega_z)
    from .lindblad import steady_state, two_time_sx

    series = two_time_sx(model, steady_state(model).rho, tmax=cfg.tmax, dt=cfg.dt)
    write(cfg.output, csv_table("t,re_sx,im_sx",
                                [series.times * unit, series.values.real, series.values.imag]))
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    unit = _unit(cfg)
    omega_max = cfg.omega_max if cfg.omega_max is not None else 2.5 * max(
        cfg.cavity.omega0, abs(cfg.omega_z)
    )
    omega_min = cfg.omega_min if cfg.omega_min is not None else -omega_max
    if not np.isfinite(omega_max - omega_min):
        raise DickeCriticError(f"the frequency grid from {fmt(omega_min)} to {fmt(omega_max)} "
                               "spans past the float range")
    omegas = np.linspace(omega_min, omega_max, cfg.omega_points)
    chis = baths.closed_form_chi(cfg.bath, cfg.omega_z)(omegas)
    dets = response.cavity_det(omegas, cfg.cavity, cfg.g, chis)
    write(cfg.output, csv_table("omega,re_det,im_det,re_chi,im_chi", [
        omegas / unit, dets.real, dets.imag, chis.real * unit, chis.imag * unit]))
    return EXIT_OK


ORACLE_SUITE: tuple[tuple[str, float], ...] = (
    ("dephasing(gamma=0.0, sz=-0.5)", 0.0),
    ("dephasing(gamma=0.3, sz=-0.5)", 0.5),
    ("dephasing(gamma=0.5, sz=-0.3)", 1.0),
    ("thermal(gamma=0.1, T=0.2)", 0.0),
    ("thermal(gamma=0.1, T=0.5)", 0.3),
    ("thermal(gamma=0.3, T=1.0)", 1.0),
    ("generalized(gamma=0.2, t=0.4)", 0.5),
    ("generalized(gamma=0.5, t=0.2)", 0.0),
    ("generalized(gamma=0.3, t=0.7)", 1.0),
)


def oracle_suite(omega_z: float, omega0: float, routes: tuple[str, ...]) -> list[Agreement]:
    """``critical.agreement`` at each ORACLE_SUITE point; the first point where a route
    has no transition (``NoTransitionError``) or an error raises, naming the point."""
    points = []
    for text, kappa in ORACLE_SUITE:
        try:
            cavity = baths.CavityParams(omega0=omega0, kappa=kappa)
            points.append(critical.agreement(parse_bath(text), omega_z, cavity, routes=routes))
            for route, result in points[-1].results.items():
                if isinstance(result, NoTransition):
                    raise NoTransitionError(f"{route}: no transition: {result.reason.value}")
        except DickeCriticError as exc:
            raise type(exc)(f"suite point {text}, kappa = {fmt(kappa)}: {exc}") from None
    return points


def cmd_oracle(cfg: RunConfig) -> int:
    routes = ("closed_form", "mean_field")
    points = oracle_suite(cfg.omega_z, cfg.cavity.omega0, routes)
    g_c, g_star = (np.array([p.results[route].g_c for p in points]) for route in routes)
    texts, kappas = zip(*ORACLE_SUITE)
    dev = abs(g_star - g_c) / g_c
    write(cfg.output, csv_table("bath,omega_z,omega0,kappa,g_c_closed,g_star,rel_dev", [
        [f'"{text}"' for text in texts], np.full(len(texts), cfg.omega_z),
        np.full(len(texts), cfg.cavity.omega0), np.array(kappas), g_c, g_star, dev]))
    return EXIT_OK if dev.max() <= cfg.tol else EXIT_ORACLE_DISAGREEMENT


# the function of each command in COMMANDS: a dict of functions, whose entries
# perfbench/tracer.py wraps in place
_COMMANDS = {
    "gc": cmd_gc,
    "sweep": cmd_sweep,
    "corr": cmd_corr,
    "spectrum": cmd_spectrum,
    "oracle": cmd_oracle,
}


def _point(cfg: RunConfig, keys: tuple[str, ...]) -> str:
    """The parameter point of a run, as error messages name it: the point settings it reads
    (a run without a bath names none)."""
    point = {"bath": cfg.bath and baths.format_bath(cfg.bath), "omega_z": fmt(cfg.omega_z),
             "omega0": fmt(cfg.cavity.omega0), "kappa": fmt(cfg.cavity.kappa)}
    return ", ".join(f"{key} = {point[key]}" for key in _POINT if key in keys and point[key])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    cfg = None
    try:
        args = parser.parse_args(argv)
        keys = COMMANDS[args.command][1]
        cfg = _run_config(args)
        if "bath" in keys and cfg.bath is None:
            raise DickeCriticError("a bath must be given (--bath or config)")
        return _COMMANDS[args.command](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DickeCriticError as exc:
        where = "" if cfg is None else f"at {_point(cfg, keys)}: "
        print(f"dicke-critic: error: {where}{exc}", file=sys.stderr)
        return EXIT_NO_TRANSITION if isinstance(exc, NoTransitionError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
