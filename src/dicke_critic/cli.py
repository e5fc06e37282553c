"""Command-line front end.

Subcommands:

* ``gc``       -- critical coupling for one parameter point
* ``sweep``    -- phase-boundary table over a parameter grid, written row by
  row from the columns of one ``critical.sweep`` broadcast; the JSON is the
  text ``json.dumps(rows, indent=2)`` would give, without its slow encoder
* ``corr``     -- sampled two-time correlator S_x(t), stepped by one
  propagator, so it also runs at exceptional points of the generator
* ``spectrum`` -- cavity determinant and susceptibility over frequency;
  chi(omega) on the whole grid, omega = 0 included, comes from one batched
  resolvent solve (``response.resolvent_chi``), not from the sampled
  correlator; the rows are written from its columns, and the determinant
  is evaluated row by row, so omega = 0 takes its exact branch
* ``oracle``   -- closed form vs mean-field threshold comparison table

Flags are declared here with their help text only: each flag's text goes
to ``config.merge_config``, which reads it with the parser of its key in
``config.SETTINGS``, as it reads a config line of that key, and runs the
same checks on both. A bad value is one ``bad value for --flag: ...`` line.

Exit codes: 0 success, 1 usage or parse error, 2 no transition,
3 oracle disagreement. An error message on stderr names the parameter
point of the run (bath, omega_z, omega0, kappa) once the configuration
has been read.

All floats are printed with 17 significant digits so repeated runs are
byte-identical. Frequencies are reported in units of omega_z unless
--raw-units is given.

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
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, baths, critical, meanfield, response
from .baths import GcMode, parse_bath
from .config import SETTINGS, RunConfig, merge_config
from .critical import NoTransition, SweepPlan
from .errors import DickeCriticError

HEADER = f"# dicke-critic v{__version__}"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_TRANSITION = 2
EXIT_ORACLE_DISAGREEMENT = 3


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bath", help='e.g. "dephasing(gamma=0.3, sz=-0.5)"')
    p.add_argument("--omega-z", dest="omega_z", help=f"atomic detuning {_default('omega_z')}")
    p.add_argument("--omega0", help=f"cavity detuning {_default('omega0')}")
    p.add_argument("--kappa", help=f"cavity decay {_default('kappa')}")
    p.add_argument(
        "--mode",
        metavar="{self-consistent,literature}",
        help=f"closed-form variant {_default('mode')}",
    )
    p.add_argument("--raw-units", dest="raw_units", action="store_const", const="true",
                   help="report raw frequencies instead of units of omega_z")
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--output", help="output path ('-' = stdout)")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, shared by every ``main`` call: do not mutate it."""
    parser = _Parser(prog="dicke-critic")
    parser.add_argument("--version", action="version", version=HEADER.lstrip("# "))
    sub = parser.add_subparsers(dest="command", required=True)

    p_gc = sub.add_parser("gc", parents=[], help="critical coupling at one point")
    _add_common(p_gc)
    p_gc.add_argument("--verify", action="store_const", const="true",
                      help="cross-check against the mean-field threshold")
    p_gc.add_argument("--tol", help=f"oracle tolerance for --verify {_default('tol')}")

    p_sweep = sub.add_parser("sweep", help="phase boundary over a grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--sweep-param", dest="sweep_param", help="parameter to sweep")
    p_sweep.add_argument("--sweep-start", dest="sweep_start")
    p_sweep.add_argument("--sweep-stop", dest="sweep_stop")
    p_sweep.add_argument("--sweep-points", dest="sweep_points")
    p_sweep.add_argument("--sweep-values", dest="sweep_values",
                         help="comma-separated explicit grid")
    p_sweep.add_argument("--format", dest="format", metavar="{csv,json}")

    p_corr = sub.add_parser("corr", help="two-time correlator samples")
    _add_common(p_corr)
    p_corr.add_argument("--tmax")
    p_corr.add_argument("--dt")

    p_spec = sub.add_parser("spectrum", help="cavity determinant vs frequency")
    _add_common(p_spec)
    p_spec.add_argument("--g", help=f"coupling {_default('g')}")
    p_spec.add_argument("--omega-min", dest="omega_min")
    p_spec.add_argument("--omega-max", dest="omega_max")
    p_spec.add_argument("--omega-points", dest="omega_points")

    p_oracle = sub.add_parser("oracle", help="closed form vs mean-field table")
    _add_common(p_oracle)
    p_oracle.add_argument("--tol", help=f"max relative deviation {_default('tol')}")
    return parser


def _run_config(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    return merge_config(values, getattr(args, "config", None))


def _write(cfg_output: str, text: str) -> None:
    if cfg_output == "-":
        sys.stdout.write(text)
    else:
        Path(cfg_output).write_text(text, encoding="utf-8", newline="")


def _require_bath(cfg: RunConfig) -> None:
    if cfg.bath is None:
        raise DickeCriticError("a bath must be given (--bath or config)")


def _csv(lines: list[str]) -> str:
    return "".join(line + "\n" for line in [HEADER, *lines])


def cmd_gc(cfg: RunConfig) -> int:
    _require_bath(cfg)
    chi0 = baths.closed_form_chi0(cfg.bath, cfg.omega_z, cfg.mode)
    result = critical.solve_gc(chi0, cfg.cavity)
    g0 = critical.fully_polarized_gc(cfg.omega_z, cfg.cavity)
    unit = 1.0 if cfg.raw_units else cfg.omega_z
    lines = [f"units = {'raw' if cfg.raw_units else 'omega_z'}",
             f"chi0 = {fmt(chi0 * unit)}"]
    if isinstance(result, NoTransition):
        lines.append(f"g_c = no transition: {result.reason.value}")
        lines.append("g_c_over_g0 = inf")
        _write(cfg.output, "\n".join(lines) + "\n")
        return EXIT_NO_TRANSITION
    lines.append(f"g_c = {fmt(result.g_c / unit)}")
    lines.append(f"g_c_over_g0 = {fmt(result.g_c / g0)}")
    status = EXIT_OK
    if cfg.verify:
        model = baths.spin_model(cfg.bath, cfg.omega_z)
        g_star = meanfield.stability_threshold(
            cfg.cavity, model, 0.4 * result.g_c, 2.5 * result.g_c
        )
        dev = abs(g_star - result.g_c) / result.g_c
        lines.append(f"g_star = {fmt(g_star / unit)}")
        lines.append(f"oracle_rel_dev = {fmt(dev)}")
        if dev > cfg.tol:
            status = EXIT_ORACLE_DISAGREEMENT
    _write(cfg.output, "\n".join(lines) + "\n")
    return status


def cmd_sweep(cfg: RunConfig) -> int:
    _require_bath(cfg)
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
    unit = 1.0 if cfg.raw_units else cfg.omega_z
    ok = table.status == "ok"
    cols = [table.params[:, 0], table.chi0 * unit, table.g_c / unit, table.gc_over_g0]
    status = table.status.tolist()
    if cfg.format == "csv":
        # +0.0 flushes negative zero; a row without a transition reads inf,inf
        x, chi0, g_c, ratio = (c + 0.0 for c in cols)
        g_c[~ok] = ratio[~ok] = np.inf
        rows = map("%.17g,%.17g,%.17g,%.17g,%s".__mod__,
                   zip(x.tolist(), chi0.tolist(), g_c.tolist(), ratio.tolist(), status))
        _write(cfg.output, _csv([f"{cfg.sweep_param},chi0,g_c,g_c_over_g0,status", *rows]))
    else:
        x, chi0, g_c, ratio = (c.tolist() for c in cols)
        ok = ok.tolist()
        # the bytes of json.dumps(rows, indent=2): its compact C encoder spells
        # each number (float repr, -0.0, null, Infinity), the layout is written here
        key = json.dumps(cfg.sweep_param)
        masked = ([v if k else None for v, k in zip(c, ok)] for c in (g_c, ratio))
        x, chi0, g_c, ratio = (json.dumps(c)[1:-1].split(", ") for c in (x, chi0, *masked))
        rows = [
            f'  {{\n    {key}: {x_i},\n    "chi0": {chi0_i},\n    "g_c": {g_c_i},\n'
            f'    "g_c_over_g0": {ratio_i},\n    "status": "{status_i}"\n  }}'
            for x_i, chi0_i, g_c_i, ratio_i, status_i in zip(x, chi0, g_c, ratio, status)
        ]
        _write(cfg.output, "[\n" + ",\n".join(rows) + "\n]\n")
    return EXIT_OK


def cmd_corr(cfg: RunConfig) -> int:
    _require_bath(cfg)
    model = baths.spin_model(cfg.bath, cfg.omega_z)
    from .lindblad import steady_state, two_time_sx

    series = two_time_sx(model, steady_state(model).rho, tmax=cfg.tmax, dt=cfg.dt)
    unit = 1.0 if cfg.raw_units else cfg.omega_z
    lines = ["t,re_sx,im_sx"]
    for t, v in zip(series.times, series.values):
        lines.append(f"{fmt(t * unit)},{fmt(v.real)},{fmt(v.imag)}")
    _write(cfg.output, _csv(lines))
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    _require_bath(cfg)
    model = baths.spin_model(cfg.bath, cfg.omega_z)
    omega_max = cfg.omega_max if cfg.omega_max is not None else 2.5 * max(
        cfg.cavity.omega0, abs(cfg.omega_z)
    )
    omega_min = cfg.omega_min if cfg.omega_min is not None else -omega_max
    omegas = np.linspace(omega_min, omega_max, cfg.omega_points)
    chis = response.resolvent_chi(model)(omegas)
    unit = 1.0 if cfg.raw_units else cfg.omega_z
    cols = [omegas / unit, omegas, chis, chis.real * unit, chis.imag * unit]
    lines = ["omega,re_det,im_det,re_chi,im_chi"]
    for w_u, w, chi, re_chi, im_chi in zip(*(c.tolist() for c in cols)):
        # scalar, not broadcast: cavity_det has an exact branch at omega = 0
        det = response.cavity_det(w, cfg.cavity, cfg.g, chi)
        lines.append(f"{w_u + 0.0:.17g},{det.real + 0.0:.17g},{det.imag + 0.0:.17g},"
                     f"{re_chi + 0.0:.17g},{im_chi + 0.0:.17g}")
    _write(cfg.output, _csv(lines))
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


def cmd_oracle(cfg: RunConfig) -> int:
    lines = ["bath,omega_z,omega0,kappa,g_c_closed,g_star,rel_dev"]
    worst = 0.0
    for bath_text, kappa in ORACLE_SUITE:
        bath = parse_bath(bath_text)
        cavity = baths.CavityParams(omega0=cfg.cavity.omega0, kappa=kappa)
        result = baths.closed_form_gc(bath, cfg.omega_z, cavity, GcMode.SELF_CONSISTENT)
        model = baths.spin_model(bath, cfg.omega_z)
        g_star = meanfield.stability_threshold(
            cavity, model, 0.4 * result.g_c, 2.5 * result.g_c
        )
        dev = abs(g_star - result.g_c) / result.g_c
        worst = max(worst, dev)
        lines.append(
            f"\"{bath_text}\",{fmt(cfg.omega_z)},{fmt(cavity.omega0)},{fmt(kappa)},"
            f"{fmt(result.g_c)},{fmt(g_star)},{fmt(dev)}"
        )
    _write(cfg.output, _csv(lines))
    return EXIT_OK if worst <= cfg.tol else EXIT_ORACLE_DISAGREEMENT


_COMMANDS = {
    "gc": cmd_gc,
    "sweep": cmd_sweep,
    "corr": cmd_corr,
    "spectrum": cmd_spectrum,
    "oracle": cmd_oracle,
}


def _point(cfg: RunConfig) -> str:
    """The parameter point of a run, as error messages name it."""
    parts = [] if cfg.bath is None else [f"bath = {baths.format_bath(cfg.bath)}"]
    parts += [f"omega_z = {fmt(cfg.omega_z)}", f"omega0 = {fmt(cfg.cavity.omega0)}",
              f"kappa = {fmt(cfg.cavity.kappa)}"]
    return ", ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    cfg = None
    try:
        args = parser.parse_args(argv)
        cfg = _run_config(args)
        return _COMMANDS[args.command](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DickeCriticError as exc:
        where = "" if cfg is None else f"at {_point(cfg)}: "
        print(f"dicke-critic: error: {where}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
