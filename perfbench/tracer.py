"""Spans around the public functions of each dicke_critic layer.

A span records its name, start, end and the span open when it began. The
wrapper replaces the function everywhere it is bound inside the package: the
module that defines it, every module that took it with ``from ... import``
(``meanfield.steady_state``, the package root) and dispatch tables such as
``cli._COMMANDS``. Spans are kept in flat arrays while the run goes on and
written out once at the end. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (module that defines the function, attribute)
TARGETS = {
    "baths.closed_form_chi0": ("dicke_critic.baths", "closed_form_chi0"),
    "baths.spin_model": ("dicke_critic.baths", "spin_model"),
    "critical.sweep": ("dicke_critic.critical", "sweep"),
    "critical.solve_gc": ("dicke_critic.critical", "solve_gc"),
    "cli.cmd_sweep": ("dicke_critic.cli", "cmd_sweep"),
    "cli.cmd_spectrum": ("dicke_critic.cli", "cmd_spectrum"),
    "config.merge_config": ("dicke_critic.config", "merge_config"),
    "lindblad.steady_state": ("dicke_critic.lindblad", "steady_state"),
    "lindblad.two_time_sx": ("dicke_critic.lindblad", "two_time_sx"),
    "response.chi_from_correlator": ("dicke_critic.response", "chi_from_correlator"),
    "response.cavity_det": ("dicke_critic.response", "cavity_det"),
    "meanfield.stability_threshold": ("dicke_critic.meanfield", "stability_threshold"),
    "meanfield.growth_rate": ("dicke_critic.meanfield", "growth_rate"),
    "meanfield.jacobian": ("dicke_critic.meanfield", "jacobian"),
    "qops.lindblad_generator": ("dicke_critic.qops", "lindblad_generator"),
    "qops.null_space": ("dicke_critic.qops", "null_space"),
    "exactn.build_full_generator": ("dicke_critic.exactn", "build_full_generator"),
    "exactn.embedded_ops": ("dicke_critic.exactn", "embedded_ops"),
    "exactn.steady_full": ("dicke_critic.exactn", "steady_full"),
    "exactn.full_steady_observables": ("dicke_critic.exactn", "full_steady_observables"),
    # marks the dense-eigendecomposition route of exactn.steady_full
    "numpy.linalg.eig": ("numpy.linalg", "eig"),
}


class Tracer:
    def __init__(self):
        self.names = list(TARGETS)
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.samples = 0  # correlator samples returned by lindblad.two_time_sx
        self._open = [-1]
        self._patches: list[tuple[object, object, object]] = []

    def _wrap(self, name_id: int, fn):
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "dicke_critic" or n.startswith("dicke_critic.")]
        for name_id, (module_name, attr) in enumerate(TARGETS.values()):
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            traced = self._wrap(name_id, original)
            if attr == "two_time_sx":
                traced = self._count_samples(traced)
            for module in [owner, *package]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, traced)

    def _count_samples(self, traced):
        @functools.wraps(traced)
        def counted(*args, **kwargs):
            series = traced(*args, **kwargs)
            self.samples += int(series.times.size)
            return series

        return counted

    def _patch(self, where, key, new) -> None:
        if isinstance(where, dict):
            self._patches.append((where, key, where[key]))
            where[key] = new
        else:
            self._patches.append((where, key, getattr(where, key)))
            setattr(where, key, new)

    def uninstall(self) -> None:
        for where, key, old in reversed(self._patches):
            if isinstance(where, dict):
                where[key] = old
            else:
                setattr(where, key, old)
        self._patches.clear()

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per traced pass."""
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n = len(self.names)
        calls = dict(zip(self.names, np.bincount(name, minlength=n) / passes))
        self_s = dict(zip(self.names, np.bincount(name, weights=dur - covered, minlength=n)
                          / passes))
        ids = {k: i for i, k in enumerate(self.names)}

        def enclosing(child: str, ancestor: str) -> list[int]:
            """For each span named child, the nearest enclosing span named ancestor."""
            found = []
            for idx in np.flatnonzero(name == ids[child]):
                up = parent[idx]
                while up >= 0 and name[up] != ids[ancestor]:
                    up = parent[up]
                if up >= 0:
                    found.append(int(up))
            return found

        def per(count: int, base: float) -> float:
            return count / base if base else 0.0

        out = {f"{k}.calls": calls[k] for k in (
            "baths.closed_form_chi0", "critical.solve_gc", "lindblad.steady_state",
            "lindblad.two_time_sx", "response.chi_from_correlator", "response.cavity_det",
            "meanfield.stability_threshold", "meanfield.growth_rate",
            "qops.lindblad_generator", "qops.null_space", "exactn.build_full_generator")}
        out.update({f"{k}.self_s": self_s[k] for k in (
            "baths.closed_form_chi0", "baths.spin_model", "critical.sweep",
            "critical.solve_gc", "cli.cmd_sweep", "cli.cmd_spectrum", "config.merge_config",
            "lindblad.steady_state", "lindblad.two_time_sx", "response.chi_from_correlator",
            "response.cavity_det", "meanfield.stability_threshold", "meanfield.jacobian",
            "qops.lindblad_generator", "qops.null_space", "exactn.build_full_generator",
            "exactn.steady_full", "exactn.full_steady_observables")})
        out["lindblad.samples"] = self.samples / passes
        out["meanfield.steady_states_per_threshold"] = per(
            len(enclosing("lindblad.steady_state", "meanfield.stability_threshold")),
            calls["meanfield.stability_threshold"] * passes)
        out["exactn.steady_full.dense_calls"] = (
            len(set(enclosing("numpy.linalg.eig", "exactn.steady_full"))) / passes)
        out["exactn.embedded_ops_per_solve"] = per(
            len(enclosing("exactn.embedded_ops", "exactn.full_steady_observables")),
            calls["exactn.full_steady_observables"] * passes)
        out["tracing.spans"] = dur.size / passes
        return out
