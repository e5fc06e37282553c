"""What callers outside the library use of it: the README example and the tracer's targets."""

import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import dicke_critic

ROOT = Path(__file__).resolve().parents[1]


def _package_modules():
    return [dicke_critic] + [importlib.import_module(f"dicke_critic.{info.name}")
                             for info in pkgutil.iter_modules(dicke_critic.__path__)]


def _bindings(modules):
    """Every (namespace, key) -> value the tracer may patch: module attributes and dict entries."""
    out = {}
    for module in modules:
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, dict):
                for k, v in value.items():
                    out[(module.__name__, key, k)] = v
    return out


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert out.getvalue().startswith("Transition(g_c=")


def test_tracer_targets_exist_and_are_restored():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench/tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = _package_modules() + [importlib.import_module("numpy.linalg")]
    before = _bindings(modules)
    originals = {name: getattr(importlib.import_module(module), attr)
                 for name, (module, attr) in tracer_module.TARGETS.items()}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for name, (module, attr) in tracer_module.TARGETS.items():
            wrapped = getattr(sys.modules[module], attr)
            assert wrapped is not originals[name]
            assert inspect.unwrap(wrapped, stop=lambda f: f is originals[name]) is originals[name]
    finally:
        tracer.uninstall()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
