"""Text formats: .sgt multiplication tables, .pgen partial-map generators,
.rees Rees matrix descriptions.  Lines starting with '#' are comments; a '#'
inside a data line is an error."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .core import FiniteSemigroup, from_partial_maps, from_table
from .errors import BadParameters


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


def _sgt_row_error(rows: list[str], n: int) -> str:
    """Name the first data row that does not parse on its own or lacks n entries."""
    for i, ln in enumerate(rows, 1):
        try:
            width = _load_int_rows([ln]).shape[1]
        except (ValueError, DeprecationWarning):
            return f".sgt data row {i} has an entry that is not an integer in 0..{n - 1}"
        if width != n:
            return f".sgt data row {i} has {width} entries, expected {n}"
    return f".sgt rows do not form a {n} x {n} table"


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
    if len(lines) != n + 1:
        raise BadParameters(f".sgt expects {n} table rows, found {len(lines) - 1}")
    rows = lines[1:]
    try:
        table = _load_int_rows(rows)
    except (ValueError, DeprecationWarning):
        raise BadParameters(_sgt_row_error(rows, n)) from None
    return from_table(table)


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
    degree = int(lines[0])
    gens = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != degree:
            raise BadParameters(f".pgen generator needs {degree} tokens, got {len(toks)}")
        gens.append([-1 if tok == "-" else int(tok) for tok in toks])
    return from_partial_maps(degree, gens)


def dump_pgen(degree: int, gens: list) -> str:
    lines = [str(degree)]
    for m in gens:
        lines.append(" ".join("-" if v < 0 else str(int(v)) for v in m))
    return "\n".join(lines) + "\n"


def parse_rees(text: str):
    """Header 'G=<n> A=<a> B=<b> zero=<0|1>', the group table, then B rows of
    A sandwich tokens ('0' or a 1-based group element index)."""
    from .builders import rees_matrix

    lines = _data_lines(text)
    if not lines:
        raise BadParameters("empty .rees input")
    fields = dict(part.split("=") for part in lines[0].split())
    try:
        m, na, nb, zero = (
            int(fields["G"]),
            int(fields["A"]),
            int(fields["B"]),
            bool(int(fields["zero"])),
        )
    except KeyError as exc:
        raise BadParameters(f".rees header missing field {exc}") from exc
    if len(lines) != 1 + m + nb:
        raise BadParameters(f".rees expects {m} group rows and {nb} sandwich rows")
    gtable = [[int(tok) for tok in ln.split()] for ln in lines[1 : 1 + m]]
    sandwich = [[int(tok) for tok in ln.split()] for ln in lines[1 + m : 1 + m + nb]]
    for row in sandwich:
        if len(row) != na:
            raise BadParameters(f".rees sandwich rows need {na} tokens")
    return rees_matrix(from_table(gtable), np.array(sandwich), adjoin_zero=zero)


def dump_rees(group: FiniteSemigroup, sandwich: np.ndarray, zero: bool) -> str:
    c = np.asarray(sandwich)
    nb, na = c.shape
    lines = [f"G={group.size} A={na} B={nb} zero={1 if zero else 0}"]
    for row in group.table:
        lines.append(" ".join(str(int(v)) for v in row))
    for row in c:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


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
