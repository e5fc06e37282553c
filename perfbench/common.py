"""Operation record shared by the workloads, and the in-process CLI call."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Any, Callable

from reference import require


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    known_fault names a fault of the program that makes this operation fail
    on every run; such an operation counts as failed without making the run
    incorrect.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: str | None = None


def cli_call(argv: list[str]) -> str:
    """Run ``dicke-critic <argv>`` in this process and return its stdout.

    A non-zero exit code raises, so the operation counts as failed.
    """
    from dicke_critic import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    require(code == 0, f"dicke-critic {argv[0]} exited with {code}")
    return buf.getvalue()


def parse_csv(text: str, header: str) -> list[list[str]]:
    """Rows of a CLI CSV after the version line and the given header."""
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0].startswith("# dicke-critic v"), "missing version line")
    require(lines[1] == header, f"header {lines[1]!r} != {header!r}")
    return [line.split(",") for line in lines[2:]]
