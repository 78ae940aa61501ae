from __future__ import annotations

import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from sgmindeg import builders, core, oracle
from sgmindeg.cli import main
from sgmindeg.errors import InvariantViolated
from sgmindeg.fileio import dump_sgt


def write_sgt(tmp_path, built, name):
    p = tmp_path / name
    p.write_text(dump_sgt(built.semigroup, header=built.label))
    return str(p)


def test_make_then_mindeg_pipe(tmp_path, capsys, monkeypatch):
    assert main(["make", "binary_relations", "2", "-o", str(tmp_path / "b2.sgt")]) == 0
    assert main(["mindeg", str(tmp_path / "b2.sgt")]) == 0
    out = capsys.readouterr().out
    assert "m: 3" in out


def test_mindeg_stdin(capsys, monkeypatch):
    text = dump_sgt(builders.binary_relations(2).semigroup)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["mindeg"]) == 0
    assert "m: 3" in capsys.readouterr().out


def test_mindeg_json_deterministic(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.matrix_monoid(2, 3), "m23.sgt")
    assert main(["mindeg", path, "--json"]) == 0
    out1 = capsys.readouterr().out
    assert main(["mindeg", path, "--json"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["m"] == 8
    assert doc["schema"] == "sgmindeg.mindeg-report.v1"


def test_mindeg_left_flag(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.aggm_01(2, 3, [frozenset({0, 1})]), "a.sgt")
    assert main(["mindeg", path, "--left", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 2
    assert doc["left"]["m"] == 3
    assert doc["left"]["bound_l_le_2^m-1"] is True


def test_mindeg_left_computes_the_generating_set_once(tmp_path, capsys, monkeypatch):
    # from_table keeps the set its validation found; opposite passes it on to S^op
    path = write_sgt(tmp_path, builders.binary_relations(3), "b3.sgt")
    sizes = []
    search = core.small_generating_set
    monkeypatch.setattr(core, "small_generating_set", lambda t: sizes.append(len(t)) or search(t))
    assert main(["mindeg", "--left", path]) == 0
    assert "m: 7" in capsys.readouterr().out
    assert sizes == [512]


def test_mindeg_exit_2_on_non_semisimple(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.full_transformation(2), "t2.sgt")
    assert main(["mindeg", path]) == 2
    err = capsys.readouterr().err
    assert "oracle" in err


def test_mindeg_exit_2_on_t3op(tmp_path, capsys):
    # the paper's non-semisimple example: the theory refuses it, the oracle
    # answers (test_oracle.py::test_t3op_degrees)
    p = tmp_path / "t3op.sgt"
    p.write_text(dump_sgt(core.opposite(builders.full_transformation(3).semigroup)))
    assert main(["mindeg", str(p)]) == 2
    assert "not Rhodes semisimple" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["--min-degree", "-1", "--max-degree", "3"],
        ["--min-degree", "3", "--max-degree", "1"],
        ["--max-degree", "-2"],
        ["--max-degree", "3", "--budget", "nan"],
        ["--max-degree", "3", "--budget", "-1"],
    ],
)
def test_oracle_bad_degrees_and_budgets_exit_1(tmp_path, capsys, args):
    path = write_sgt(tmp_path, builders.cyclic(3), "c3.sgt")
    assert main(["oracle", path, *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: oracle ") and "Traceback" not in captured.err


def test_oracle_exit_codes(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.rectangular_band(2, 2), "rb.sgt")
    assert main(["oracle", path, "--mode", "total", "--max-degree", "5"]) == 0
    out = capsys.readouterr().out
    assert "degree: 4" in out
    assert main(["oracle", path, "--mode", "total", "--max-degree", "3"]) == 3


def test_rejected_oracle_witness_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "verify_embedding", lambda s, images: False)
    built = builders.rectangular_band(2, 2)
    query = oracle.OracleQuery(semigroup=built.semigroup, mode="total", max_n=5)
    with pytest.raises(InvariantViolated):
        oracle.brute_min_degree(query)
    path = write_sgt(tmp_path, built, "rb.sgt")
    assert main(["oracle", path, "--mode", "total", "--max-degree", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "witness" in err and "Traceback" not in err


def test_oracle_budget_env(tmp_path, capsys, monkeypatch):
    path = write_sgt(tmp_path, builders.binary_relations(2), "b2.sgt")
    monkeypatch.setenv("SGMINDEG_TIME_BUDGET_SECS", "0.0")
    assert main(["oracle", path, "--min-degree", "3", "--max-degree", "3"]) == 3
    assert "timeout" in capsys.readouterr().out


@pytest.mark.parametrize("raw", ["abc", "nan", "-1"])
def test_bad_budget_env_exit_1(tmp_path, capsys, monkeypatch, raw):
    path = write_sgt(tmp_path, builders.binary_relations(2), "b2.sgt")
    monkeypatch.setenv("SGMINDEG_TIME_BUDGET_SECS", raw)
    assert main(["mindeg", path]) == 1
    assert "SGMINDEG_TIME_BUDGET_SECS" in capsys.readouterr().err


def test_analyze(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.symmetric_inverse(2), "sim2.sgt")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "rhodes_semisimple: yes" in out
    assert "irreducible" in out


def test_analyze_reads_the_rees_sizes_of_greens(tmp_path, capsys, builder_corpus):
    # e, |G|, A and B are printed from the Green's analysis; they are those of
    # the verified Rees coordinates of each regular class
    for k, b in enumerate(builder_corpus.values()):
        s = b.semigroup
        assert main(["analyze", write_sgt(tmp_path, b, f"{k}.sgt")]) == 0
        out = capsys.readouterr().out
        g = core.greens(s)
        for j in g.regular_jclasses():
            r = core.rees_coordinatize(s, g, j)
            sizes = f"e={r.e} |G|={r.group_order} A={r.a_count} B={r.b_count}"
            assert f"J{j}: size={r.triple_to_elem.size} regular {sizes} " in out


def test_analyze_non_regular_class(tmp_path, capsys):
    from sgmindeg.core import from_table
    from sgmindeg.fileio import dump_sgt as _dump

    p = tmp_path / "null.sgt"
    p.write_text(_dump(from_table([[0, 0], [0, 0]])))
    assert main(["analyze", str(p)]) == 0
    out = capsys.readouterr().out
    assert "non-regular" in out


def test_check_agreement(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.symmetric_inverse(2), "sim2.sgt")
    assert main(["check", path, "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "agreement: yes" in out


def test_mindeg_and_check_call_np_unique_only_with_optional_outputs(tmp_path, capsys, monkeypatch):
    # on numpy 2.x a bare np.unique(ar) imports numpy.ma (via np.ma.is_masked),
    # a fixed cost of every command-line call; np.unique with return_index,
    # return_inverse or return_counts does not
    unique = np.unique

    def guarded(*args, **kwargs):
        if not any(kwargs.get(k) for k in ("return_index", "return_inverse", "return_counts")):
            raise AssertionError("np.unique called without optional outputs")
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", guarded)
    for built, name in [(builders.symmetric_inverse(2), "sim2.sgt"), (builders.binary_relations(2), "b2.sgt")]:
        path = write_sgt(tmp_path, built, name)
        assert main(["mindeg", path]) == 0
        assert main(["mindeg", "--left", path]) == 0
        assert main(["check", path, "--max-degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "m: 3" in out and "agreement: yes" in out


def test_analyze_non_semisimple(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.full_transformation(2), "t2.sgt")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "rhodes_semisimple: no" in out
    assert "ggm_identifies" in out


def test_rees_input_format(tmp_path, capsys):
    from reference import dump_rees

    g = builders.symmetric_group(3).semigroup
    p = tmp_path / "m.rees"
    p.write_text(dump_rees(g, np.array([[1, 1], [1, 2]]), zero=False))
    assert main(["mindeg", str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 24 and doc["m"] == 5


def test_make_unknown_family_exit_1(capsys):
    with pytest.raises(SystemExit):
        main(["make", "nonsense", "1"])  # argparse rejects the choice


# one valid parameter list per `make` family
MAKE_PARAMS = {
    "full_transformation": ["2"],
    "partial_transformation": ["2"],
    "symmetric_inverse": ["2"],
    "symmetric_group": ["3"],
    "binary_relations": ["2"],
    "matrix_monoid": ["2", "2"],
    "rectangular_band": ["2", "2"],
    "rectangular_group": ["S2", "2", "2"],
    "chain_semilattice": ["3"],
    "cyclic": ["4"],
    "sigma_square": ["3", "1,0,2"],
    "aggm_01": ["2", "3", "0,1"],
}


@pytest.mark.parametrize("family", sorted(builders.FAMILY_USAGE))
def test_make_wrong_parameter_count_exit_1(family, capsys):
    params = MAKE_PARAMS[family]
    assert main(["make", family, *params]) == 0
    capsys.readouterr()
    for wrong in (params[:-1], params + ["1"]):
        assert main(["make", family, *wrong]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and builders.FAMILY_USAGE[family] in captured.err
        assert "Traceback" not in captured.err


# one non-integer parameter list per `make` family, each where an integer goes
MAKE_NON_INTEGER = {
    "full_transformation": ["x"],
    "partial_transformation": ["2.0"],
    "symmetric_inverse": [""],
    "symmetric_group": ["three"],
    "binary_relations": ["0x2"],
    "matrix_monoid": ["2", "q"],
    "rectangular_band": ["2", "1e1"],
    "rectangular_group": ["S2", "2", "y"],
    "chain_semilattice": ["k"],
    "cyclic": ["x"],
    "sigma_square": ["3", "1,0,x"],
    "aggm_01": ["2", "3", "0,1;"],
}


@pytest.mark.parametrize("family", sorted(builders.FAMILY_USAGE))
def test_make_non_integer_parameter_exit_1(family, capsys):
    params = MAKE_NON_INTEGER[family]
    assert main(["make", family, *params]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {family}: ") and "is not an integer" in captured.err
    assert builders.FAMILY_USAGE[family] in captured.err
    assert "invalid literal" not in captured.err and "Traceback" not in captured.err


def test_make_rectangular_group_over_the_element_limit_exit_1(capsys):
    # 720 · 10 · 10 = 72,000 elements, refused before the product table
    # (720·100)² entries is allocated
    assert main(["make", "rectangular_group", "S6", "10", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: direct product of 720 x 100 = 72000 elements exceeds the limit of 10000\n"


@pytest.mark.parametrize(
    "params", [["rectangular_band", "200", "100"], ["rectangular_group", "C2", "200", "100"]]
)
def test_make_rectangular_band_over_the_element_limit_exit_1(capsys, params):
    # the band is refused before its table is built, also inside a rectangular group
    assert main(["make", *params]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rectangular band of 200 x 100 = 20000 elements exceeds the limit of 10000\n"


def test_make_rectangular_group_at_the_element_limit(capsys, monkeypatch):
    # the bound is |G|·m·n <= MAX_ELEMENTS; a lowered limit keeps the tables small
    monkeypatch.setattr(builders, "MAX_ELEMENTS", 24)
    assert main(["make", "rectangular_group", "S3", "2", "2"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "24"
    assert main(["make", "rectangular_group", "S3", "5", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: direct product of 6 x 5 = 30 elements")


def test_bad_file_exit_1(capsys):
    assert main(["analyze", "/nonexistent/file.sgt"]) == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2\n0 0\n0 2147483648\n", "2147483648 is out of range 0..1"),  # 2^31
        ("2\n0 0\n0 4294967296\n", "4294967296 is out of range 0..1"),  # 2^32: 0 in int32
        ("2\n0 0\n0 100000000000000000000000\n", "row 2"),  # 10^23, beyond int64
        ("2\n0 0\n0 -1\n", "-1 is out of range 0..1"),
        ("2\n0 0\n0 1.5\n", "row 2"),
        ("2\n0 0\n0 1.0\n", "row 2"),  # numpy < 2 reads it via float and only warns
        ("2\n0 0\n0 1e0\n", "row 2"),
        ("2\n0 0\n0 1_0\n", "row 2"),  # int() takes it; .sgt entries are plain decimals
        ("2\n0 x\n0 0\n", "row 1"),
        ("2\n0 0\n0\n", "row 2 has 1 entries, expected 2"),  # ragged
        ("2\n0 0\n0 0 0\n", "row 2 has 3 entries, expected 2"),  # one wide row
        ("2\n0 0 0\n0 0 0\n", "square"),  # every row wide
        ("2\n0 0 # zero row\n0 0\n", "row 1"),  # only whole lines are comments
        ("two\n0 0\n0 0\n", "header"),
        ("0\n", "positive"),
        ("10001\n", "element count 10001 exceeds the limit of 10000"),  # before any row is read
    ],
)
def test_malformed_sgt_exit_1(tmp_path, capsys, text, fragment):
    p = tmp_path / "bad.sgt"
    p.write_text(text)
    assert main(["mindeg", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, text, fragment",
    [
        ("bad.rees", "G=1 A=1 B=1 zero\n0\n1\n", "field 'zero' is not key=int"),
        ("bad.rees", "G=1 A=1 B=x zero=0\n0\n1\n", "field 'B=x' is not key=int"),
        ("bad.rees", "G=1 A=1 B=1\n0\n1\n", "missing field 'zero'"),
        ("bad.rees", "G=-1 A=1 B=1 zero=0\n1\n", "G, A, B >= 1"),
        ("bad.rees", "G=1 A=0 B=1 zero=0\n0\n\n", "G, A, B >= 1"),
        ("bad.rees", "G=1 A=1 B=1 zero=2\n0\n1\n", "zero 0 or 1"),
        ("bad.rees", "G=2 A=1 B=1 zero=0\n0 1\n1\n1\n", "group table row 2 has 1 entries, expected 2"),
        ("bad.rees", "G=2 A=1 B=1 zero=0\n0 1\n1 x\n1\n", "group table row 2 has an entry that is not"),
        ("bad.rees", "G=2 A=1 B=1 zero=0\n0 1 0\n1 0 1\n1\n", "group table row 1 has 3 entries"),
        ("bad.rees", "G=1 A=2 B=2 zero=0\n0\n1 1\n1\n", "sandwich row 2 has 1 entries, expected 2"),
        ("bad.rees", "G=1 A=2 B=1 zero=0\n0\n1\n", "sandwich row 1 has 1 entries, expected 2"),
        ("bad.rees", "G=1 A=1 B=1 zero=0\n0\n1.0\n", "sandwich row 1 has an entry that is not"),
        pytest.param(
            "big.rees",
            "G=1 A=101 B=101 zero=0\n0\n" + ("1 " * 101 + "\n") * 101,
            "10201 elements exceeds the limit of 10000",  # checked before the table is built
            id="big.rees-10201-elements",
        ),
        ("bad.pgen", "two\n0 1\n", "header must be a positive degree, got 'two'"),
        ("bad.pgen", "-2\n0 1\n", "header must be a positive degree, got '-2'"),
        ("bad.pgen", "2\n0 1\n1 x\n", "generator 2 has a token that is not"),
        ("bad.pgen", "2\n0 1\n1\n", "generator 2 needs 2 tokens, got 1"),
        pytest.param(
            "big.pgen",
            "6\n1 2 3 4 5 0\n1 0 2 3 4 5\n0 0 2 3 4 5\n",  # generates T_6, 46656 elements
            "closure of the generators exceeds the limit of 10000 elements",
            id="big.pgen-T6",
        ),
    ],
)
def test_malformed_rees_and_pgen_exit_1(tmp_path, capsys, name, text, fragment):
    p = tmp_path / name
    p.write_text(text)
    assert main(["mindeg", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err
    assert "max_size" not in err  # no command-line option sets it


def test_make_rees_output_total_pipeline(tmp_path, capsys):
    path = write_sgt(tmp_path, builders.sigma_square(3, (1, 0, 2)), "s.sgt")
    assert main(["mindeg", path, "--total", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 5
    assert doc["total_degree"]["exact"] == 5


def readme_cli_examples() -> list[tuple[str, list[str]]]:
    """(command, output lines) for each `$ sgmindeg ...` example in README's CLI section."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```")[1::2]:
        for chunk in re.split(r"^\$ ", block.strip("\n"), flags=re.M)[1:]:
            command, *out = chunk.strip("\n").split("\n")
            examples.append((command, out))
    return examples


def test_readme_cli_examples(capsys, monkeypatch):
    examples = readme_cli_examples()
    assert len(examples) >= 2
    for command, want in examples:
        out = ""
        for stage in command.split("|"):
            prog, *args = shlex.split(stage)
            assert prog == "sgmindeg"
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            assert main(args) == 0, command
            out = capsys.readouterr().out
        assert out.splitlines() == want, command


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, family, flags",
    [
        ("binary_relations_2", ["binary_relations", "2"], []),
        ("matrix_monoid_2_3", ["matrix_monoid", "2", "3"], []),
        ("sigma_square_3_102", ["sigma_square", "3", "1,0,2"], []),
        ("sigma_square_4_1230", ["sigma_square", "4", "1,2,3,0"], []),
        ("chain_semilattice_3", ["chain_semilattice", "3"], []),
        ("symmetric_inverse_3", ["symmetric_inverse", "3"], []),
        ("aggm_01_2_3_01_left", ["aggm_01", "2", "3", "0,1"], ["--left"]),
    ],
)
def test_mindeg_json_matches_golden(tmp_path, capsys, name, family, flags):
    # `sgmindeg make <family> | sgmindeg mindeg --json [flags]`, byte for byte
    path = str(tmp_path / f"{name}.sgt")
    assert main(["make", *family, "-o", path]) == 0
    assert main(["mindeg", "--json", *flags, path]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
