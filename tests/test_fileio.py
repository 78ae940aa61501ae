from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_small_semigroups
from sgmindeg import builders
from sgmindeg.errors import BadParameters, SemigroupError
from sgmindeg.fileio import (
    dump_pgen,
    dump_rees,
    dump_sgt,
    parse_pgen,
    parse_rees,
    parse_sgt,
    read_semigroup,
)


def test_sgt_roundtrip(tmp_path):
    s = builders.symmetric_inverse(2).semigroup
    text = dump_sgt(s, header="SIM_2")
    back = parse_sgt(text)
    assert np.array_equal(back.table, s.table)
    p = tmp_path / "sim2.sgt"
    p.write_text(text)
    assert np.array_equal(read_semigroup(str(p)).table, s.table)


def test_sgt_comments_and_errors():
    assert parse_sgt("# comment\n1\n0\n").size == 1
    with pytest.raises(BadParameters):
        parse_sgt("")
    with pytest.raises(BadParameters):
        parse_sgt("2\n0 1\n")  # missing row


def test_sgt_accepts_what_str_split_and_int_accept():
    # any whitespace str.split() splits on separates entries (\v and \f break lines, as
    # str.splitlines does); signs and leading zeros are fine
    for sep in ("\t", "\xa0", "\u2003", "\u3000", " \t "):
        assert parse_sgt(f"2\n0{sep}0\n0{sep}1\n").table.tolist() == [[0, 0], [0, 1]]
    assert parse_sgt("2\n+0 00\n-0 01\n").table.tolist() == [[0, 0], [0, 1]]


def test_sgt_float_token_rejected_when_numpy_only_warns(monkeypatch):
    # numpy 1.23-1.26 parse '1.0' into an int column through float and raise only
    # a DeprecationWarning; simulate that on any numpy
    real = np.loadtxt

    def warning_loadtxt(rows, dtype=None, **kw):
        if any("." in ln for ln in rows):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
            return real(rows, dtype=np.float64, **kw).astype(dtype)
        return real(rows, dtype=dtype, **kw)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    with pytest.raises(BadParameters, match="row 2"):
        parse_sgt("2\n0 0\n0 1.0\n")
    assert parse_sgt("2\n0 0\n0 1\n").table.tolist() == [[0, 0], [0, 1]]


FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)
FUZZ_CORPUS = [s for s, _ in random_small_semigroups(40)] + [
    builders.symmetric_inverse(2).semigroup,
    builders.full_transformation(3).semigroup,
]
# comment text: anything that str.splitlines does not break
COMMENT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=20)


@FUZZ
@given(
    st.sampled_from(FUZZ_CORPUS),
    COMMENT,
    st.lists(
        st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\u2003"]),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.sampled_from(["", "   ", "#", "# x 1 2"]), max_size=3),
)
def test_sgt_roundtrip_fuzz(s, header, seps, extra_lines):
    lines = dump_sgt(s, header=header).splitlines()
    # re-space the data rows and sprinkle blank and comment lines between them
    lines = [
        ln if ln.startswith("#") else seps[i % len(seps)].join(ln.split())
        for i, ln in enumerate(lines)
    ]
    for i, extra in enumerate(extra_lines):
        lines.insert((3 * i) % (len(lines) + 1), extra)
    back = parse_sgt("\n".join(lines))
    assert back.table.dtype == s.table.dtype and np.array_equal(back.table, s.table)
    assert (back.identity, back.zero) == (s.identity, s.zero)


@FUZZ
@given(
    st.sampled_from(FUZZ_CORPUS),
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 3),
            st.sampled_from(["0", "1", "9", "-", "-1", ".", "#", "x", " ", "\n", "2147483648",
                             "4294967296", "1" * 25, "\t", "e"]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_sgt_mutations_fail_cleanly(s, edits):
    text = dump_sgt(s)
    for pos, cut, ins in edits:
        pos %= len(text) + 1
        text = text[:pos] + ins + text[pos + cut :]
    try:
        back = parse_sgt(text)
    except (SemigroupError, ValueError):
        return
    n = back.size
    assert back.table.shape == (n, n) and back.table.min() >= 0 and back.table.max() < n


def test_pgen_roundtrip(tmp_path):
    gens = [(1, 0), (0, -1)]
    text = dump_pgen(2, gens)
    assert "-" in text
    s, maps = parse_pgen(text)
    assert maps[0] == (1, 0) and maps[1] == (0, -1)
    p = tmp_path / "gen.pgen"
    p.write_text(text)
    s2 = read_semigroup(str(p))
    assert s2.size == s.size


def test_rees_roundtrip(tmp_path):
    g = builders.symmetric_group(3).semigroup
    sandwich = np.array([[1, 1], [1, 2]])
    text = dump_rees(g, sandwich, zero=False)
    built = parse_rees(text)
    assert built.semigroup.size == 24
    p = tmp_path / "m.rees"
    p.write_text(text)
    s = read_semigroup(str(p))
    assert s.size == 24


def test_rees_header_errors():
    with pytest.raises(BadParameters):
        parse_rees("G=1 A=1\n0\n1\n")
    with pytest.raises(BadParameters):
        parse_rees("G=1 A=2 B=1 zero=0\n0\n1\n")  # sandwich row too short
