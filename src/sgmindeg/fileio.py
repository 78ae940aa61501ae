"""Text formats: .sgt multiplication tables, .pgen partial-map generators,
.rees Rees matrix descriptions.  Lines starting with '#' are comments; a '#'
inside a data line is an error.  A semigroup may have at most
core.MAX_ELEMENTS elements."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .core import MAX_ELEMENTS, FiniteSemigroup, from_partial_maps, from_table
from .errors import BadParameters, SizeLimitExceeded


def _data_lines(text: str) -> list[str]:
    out = []
    for ln in text.splitlines():
        stripped = ln.strip()
        if stripped and not stripped.startswith("#"):
            out.append(stripped)
    return out


def _load_int_rows(rows: list[str]) -> np.ndarray:
    """Parse whitespace-separated decimal integers, one table row per string.

    numpy 1.23-1.26 read a token such as '1.0' or '1e0' through float and only
    warn; that warning is raised here, so such a token fails like 'x'."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(rows, dtype=np.int64, ndmin=2, comments=None)


def _int_rows(rows: list[str], what: str, width: int, hi: int) -> np.ndarray:
    """``_load_int_rows``, raising BadParameters that names the first 1-based
    row that does not parse on its own or lacks ``width`` entries."""
    try:
        return _load_int_rows(rows)
    except (ValueError, DeprecationWarning):
        pass
    for i, ln in enumerate(rows, 1):
        try:
            found = _load_int_rows([ln]).shape[1]
        except (ValueError, DeprecationWarning):
            raise BadParameters(f"{what} row {i} has an entry that is not an integer in 0..{hi}") from None
        if found != width:
            raise BadParameters(f"{what} row {i} has {found} entries, expected {width}")
    raise BadParameters(f"{what} rows do not form a table of width {width}")


def parse_sgt(text: str) -> FiniteSemigroup:
    lines = _data_lines(text)
    if not lines:
        raise BadParameters("empty .sgt input")
    try:
        n = int(lines[0])
    except ValueError:
        raise BadParameters(f".sgt header must be the element count, got {lines[0]!r}") from None
    if n < 1:
        raise BadParameters(f".sgt element count must be positive, got {n}")
    if n > MAX_ELEMENTS:
        raise SizeLimitExceeded(f".sgt element count {n} exceeds the limit of {MAX_ELEMENTS}")
    if len(lines) != n + 1:
        raise BadParameters(f".sgt expects {n} table rows, found {len(lines) - 1}")
    return from_table(_int_rows(lines[1:], ".sgt data", n, n - 1))


def dump_sgt(s: FiniteSemigroup, header: str | None = None) -> str:
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append(str(s.size))
    lines.extend(" ".join(map(str, row)) for row in s.table.tolist())
    return "\n".join(lines) + "\n"


def parse_pgen(text: str) -> tuple[FiniteSemigroup, list]:
    lines = _data_lines(text)
    if not lines:
        raise BadParameters("empty .pgen input")
    try:
        degree = int(lines[0])
    except ValueError:
        degree = 0
    if degree < 1:
        raise BadParameters(f".pgen header must be a positive degree, got {lines[0]!r}")
    gens = []
    for i, ln in enumerate(lines[1:], 1):
        toks = ln.split()
        if len(toks) != degree:
            raise BadParameters(f".pgen generator {i} needs {degree} tokens, got {len(toks)}")
        try:
            gens.append([-1 if tok == "-" else int(tok) for tok in toks])
        except ValueError:
            raise BadParameters(f".pgen generator {i} has a token that is not '-' or an integer") from None
    return from_partial_maps(degree, gens)


def parse_rees(text: str):
    """Header 'G=<n> A=<a> B=<b> zero=<0|1>', the group table, then B rows of
    A sandwich tokens ('0' or a 1-based group element index)."""
    from .builders import rees_matrix

    lines = _data_lines(text)
    if not lines:
        raise BadParameters("empty .rees input")
    fields = {}
    for part in lines[0].split():
        key, _, value = part.partition("=")
        try:
            fields[key] = int(value)
        except ValueError:
            raise BadParameters(f".rees header field {part!r} is not key=int") from None
    try:
        m, na, nb, zero = (fields[key] for key in ("G", "A", "B", "zero"))
    except KeyError as exc:
        raise BadParameters(f".rees header missing field {exc}") from None
    if min(m, na, nb) < 1 or zero not in (0, 1):
        raise BadParameters(f".rees header needs G, A, B >= 1 and zero 0 or 1, got {lines[0]!r}")
    if len(lines) != 1 + m + nb:
        raise BadParameters(f".rees expects {m} group rows and {nb} sandwich rows")
    tables = []
    for what, rows, width, hi in (
        (".rees group table", lines[1 : 1 + m], m, m - 1),
        (".rees sandwich", lines[1 + m :], na, m),
    ):
        table = _int_rows(rows, what, width, hi)
        if table.shape[1] != width:
            raise BadParameters(f"{what} row 1 has {table.shape[1]} entries, expected {width}")
        tables.append(table)
    return rees_matrix(from_table(tables[0]), tables[1], adjoin_zero=bool(zero))


def read_semigroup(path: str, fmt: str | None = None) -> FiniteSemigroup:
    """Load a semigroup from a file ('-' reads stdin); format from extension
    unless given explicitly ('sgt', 'pgen', 'rees')."""
    if path == "-":
        import sys

        text = sys.stdin.read()
        name = ""
    else:
        p = Path(path)
        text = p.read_text()
        name = p.name
    if fmt is None:
        if name.endswith(".pgen"):
            fmt = "pgen"
        elif name.endswith(".rees"):
            fmt = "rees"
        else:
            fmt = "sgt"
    if fmt == "sgt":
        return parse_sgt(text)
    if fmt == "pgen":
        return parse_pgen(text)[0]
    if fmt == "rees":
        return parse_rees(text).semigroup
    raise BadParameters(f"unknown format {fmt!r}")
