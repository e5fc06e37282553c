"""spelling: float columns as byte rows, against Python's own spelling of each float."""

import json
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dicke_critic import cli, spelling


def texts(values, as_json=False):
    return [row.tobytes().replace(b"\0", b"").decode() for row in spelling.spell(values, as_json)]


def reference(values, as_json=False):
    """Python's spelling, one value at a time: the CSV cell or the JSON number."""
    return [json.dumps(v) if as_json else cli.fmt(v) for v in np.asarray(values).tolist()]


def _edge_table():
    tens = [float(f"1e{j}") for j in range(-12, 18)]
    # dyadic values of 18 significant digits ending in 5: 17-digit ties, rounded half to even
    ties = [x for p in range(12, 40) for x in (1 + 2.0**-p, 3 - 2.0**-p, 7.5 + 2.0**-p)
            if len(Decimal(x).as_tuple().digits) == 18]
    # values whose 15- or 16-digit rounding carries into the next decade (repr: 0.0001, 1e-05)
    carries = [float(f"9.99999999999999{d}e{j}") for d in (5, 7, 9) for j in range(-12, 18)]
    values = [
        0.0, -0.0, 0.0, -0.0, 0.1, np.inf, -np.inf, np.nan, 5e-324, 1e308,
        *tens, *np.nextafter(tens, 0), *np.nextafter(tens, np.inf),
        *(2.0**j for j in range(-100, 100)), *ties, *carries, *np.nextafter(carries, 0),
    ]
    return np.array([*values, *(-v for v in values)])


EDGE = _edge_table()


@pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
def test_edge_table(as_json):
    assert texts(EDGE, as_json) == reference(EDGE, as_json)


def test_edge_table_covers_ties_and_zeros():
    assert sum(len(Decimal(x).as_tuple().digits) == 18 for x in EDGE.tolist()) >= 10
    # JSON keeps -0.0 apart from 0.0; CSV flushes it and writes inf and nan as Python does
    assert texts(EDGE[:8], as_json=True) == [
        "0.0", "-0.0", "0.0", "-0.0", "0.1", "Infinity", "-Infinity", "NaN"]
    assert texts(EDGE[:8]) == ["0", "0", "0", "0", "0.10000000000000001", "inf", "-inf", "nan"]


@given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats()))
@settings(max_examples=300, deadline=None)
def test_rows_match_python(values):
    # st.floats draws nan, both infinities and subnormals
    assert texts(values) == reference(values)
    assert texts(values, as_json=True) == reference(values, as_json=True)


def test_spell_writes_every_byte_of_out():
    # a column of a block buffer full of stale bytes reads as the rows spell returns
    for values in (EDGE, EDGE[8:60]):  # with and without values outside the window
        for as_json in (False, True):
            buffer = np.full((len(values), spelling.WIDTH + 9), 0xAA, np.uint8)
            out = buffer[:, 5:5 + spelling.WIDTH]
            assert spelling.spell(values, as_json, out=out) is out
            assert np.array_equal(out, spelling.spell(values, as_json))
            assert (buffer[:, :5] == 0xAA).all() and (buffer[:, -4:] == 0xAA).all()


def test_blocks_read_as_rows_laid_out_at_once(monkeypatch):
    # rows laid out a block at a time in one reused buffer, the last block short, read as
    # the rows at once
    values, labels = EDGE[:50], np.array([label.encode() for label in ["ok", "é"] * 25])

    def fill(rows, fields):
        spelling.spell(values[rows], out=fields[0])
        fields[1][:] = labels[rows].view(np.uint8).reshape(len(fields[1]), -1)

    def text():
        pieces = [b"<", spelling.WIDTH, b";", labels.itemsize, b"\n"]
        return b"".join(spelling.blocks(50, pieces, fill)).decode()

    whole = text()
    assert whole == "".join(f"<{a};{b}\n" for a, b in zip(reference(values), ["ok", "é"] * 25))
    monkeypatch.setattr(spelling, "ROW_BLOCK", 7)
    assert len(list(spelling.blocks(50, [b"x", 1], lambda rows, fields: None))) == 8
    assert text() == whole
