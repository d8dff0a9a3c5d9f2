"""End-to-end command-line behaviour: formats, files, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hermline import cli, fields, harness
from hermline.cli import main

IDENTITY_2 = '{"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}'
ZERO_POINT = '{"rows": 2, "cols": 4, "entries": [["0","0","1","0"],["0","0","0","1"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_theorem1_gf2(capsys):
    code, out, err = run(capsys, "verify-theorem1", "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["equal"] is True
    assert report["counts"]["isotropic"] == 15
    assert report["counts"]["grassmannian"] == 35


def test_verify_theorem1_budget_refusal(capsys):
    code, out, err = run(capsys, "verify-theorem1", "--p", "2", "--k", "1", "--n", "7")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_budget_flag_override(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "2", "--budget", "34")
    assert code == 2
    assert "budget" in err
    code, out, err = run(capsys, "enumerate", "--p", "2", "--budget", "35")
    assert code == 0


@pytest.mark.parametrize(
    "command",
    [
        "enumerate",
        "isotropic",
        "verify-theorem1",
        "verify-remarks",
        "graph",
        "jordan-check",
    ],
)
def test_budget_checked_before_field_tables(command, capsys, monkeypatch):
    def no_tables(*args):
        raise AssertionError("field tables built before the budget check")

    monkeypatch.setattr(fields, "FieldSpec", no_tables)
    for argv in (
        ["--p", "1000003", "--budget", "10"],
        ["--p", "2", "--k", str(10**18)],
        ["--p", "3", "--n", str(10**9)],
    ):
        code, out, err = run(capsys, command, *argv)
        assert code == 2
        assert out == ""
        assert "budget" in err


@pytest.mark.parametrize(
    "command,inputs",
    [
        ("bartolone", ["--t1", IDENTITY_2, "--t2", IDENTITY_2]),
        ("decompose", ["--point", ZERO_POINT]),
        ("complement", ["--u1", ZERO_POINT, "--u2", ZERO_POINT]),
    ],
)
def test_table_size_checked_before_field_tables(command, inputs, capsys, monkeypatch):
    def no_tables(*args):
        raise AssertionError("field tables built before the table-size check")

    monkeypatch.setattr(fields, "FieldSpec", no_tables)
    for argv in (
        ["--p", "1000003"],
        ["--p", "2", "--k", str(10**18)],
        ["--p", "2", "--k", "20"],
    ):
        code, out, err = run(capsys, command, *inputs, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "field tables" in err and "budget" in err


def test_table_size_budget_override(capsys):
    """GF(2^10) has 2^20 table entries, more than the default budget of 10^6."""
    argv = ["bartolone", "--p", "2", "--k", "10"]
    argv += ["--t1", IDENTITY_2, "--t2", IDENTITY_2]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "1048576 entries" in err
    code, out, err = run(capsys, *argv, "--budget", str(2**20))
    assert code == 0
    assert json.loads(out)["isotropic"] is True


def test_enumerate_points_listing(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 35
    assert [p["id"] for p in report["points"]] == list(range(35))
    assert report["points"][0]["basis"]["entries"] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
    ]


def test_isotropic_listing(capsys):
    code, out, err = run(
        capsys, "isotropic", "--p", "2", "--k", "2", "--involution", "frobenius"
    )
    assert code == 0
    assert json.loads(out)["count"] == 27


def test_verify_remarks(capsys):
    code, out, err = run(capsys, "verify-remarks", "--p", "2", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["seed"] == 3


def test_decompose_bartolone_roundtrip(capsys):
    """The printed hermitian pair reproduces the input point."""
    code, out, err = run(
        capsys,
        "decompose", "--p", "2", "--k", "2", "--involution", "frobenius",
        "--point", ZERO_POINT,
    )
    assert code == 0
    decomposed = json.loads(out)
    code, out, err = run(
        capsys,
        "bartolone", "--p", "2", "--k", "2", "--involution", "frobenius",
        "--t1", json.dumps(decomposed["t1"]),
        "--t2", json.dumps(decomposed["t2"]),
    )
    assert code == 0
    report = json.loads(out)
    assert report["point"] == decomposed["point"]
    assert report["isotropic"] is True
    assert report["t1_hermitian"] is True and report["t2_hermitian"] is True


def test_decompose_of_basepoint_pair_is_identity(capsys):
    code, out, err = run(
        capsys,
        "decompose", "--p", "2", "--k", "2", "--involution", "frobenius",
        "--point", ZERO_POINT,
    )
    identity_entries = [["1", "0"], ["0", "1"]]
    report = json.loads(out)
    assert report["t1"]["entries"] == identity_entries
    assert report["t2"]["entries"] == identity_entries


def test_decompose_rejects_non_isotropic_point(capsys):
    bad = '{"rows": 2, "cols": 4, "entries": [["1","0","0","0"],["0","0","1","0"]]}'
    code, out, err = run(capsys, "decompose", "--p", "2", "--point", bad)
    assert code == 2
    assert "isotropic" in err


def test_complement_subcommand(capsys):
    base = '{"rows": 2, "cols": 4, "entries": [["1","0","0","0"],["0","1","0","0"]]}'
    code, out, err = run(
        capsys, "complement", "--p", "2", "--u1", base, "--u2", ZERO_POINT
    )
    assert code == 0
    report = json.loads(out)
    assert report["complement"]["entries"] == [
        ["1", "0", "1", "0"],
        ["0", "1", "0", "1"],
    ]


def test_jordan_check_subcommand(capsys):
    code, out, err = run(
        capsys, "jordan-check", "--p", "3", "--k", "2", "--involution", "frobenius"
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["hermitian_count"] == 81
    assert report["check"] == "jordan-check"


def test_graph_formats(capsys):
    code, json_out, err = run(capsys, "graph", "--p", "2", "--format", "json")
    assert code == 0
    report = json.loads(json_out)
    assert report["relation"] == "distant"
    assert report["counts"] == {"nodes": 35, "edges": 280}

    code, dot_out, err = run(capsys, "graph", "--p", "2", "--format", "dot")
    assert code == 0
    assert dot_out.startswith("graph distant {\n")
    assert dot_out.rstrip().endswith("}")
    assert dot_out.count(" -- ") == 280

    code, csv_out, err = run(
        capsys, "graph", "--p", "2", "--relation", "adjacency",
        "--points", "isotropic", "--format", "csv",
    )
    assert code == 0
    lines = csv_out.strip().split("\n")
    assert lines[0] == "node_id,degree"
    assert len(lines) == 16


def test_graph_edge_budget(capsys):
    """json and dot write every edge, so the budget bounds them; csv does not."""
    argv = ["graph", "--p", "2", "--budget", "200"]
    for fmt in ("json", "dot"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert "budget" in err
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 36


@pytest.mark.parametrize(
    "argv,named",
    [
        (["graph", "--p", "2", "--n", "4"], "3011805 incidences"),
        (
            ["graph", "--p", "2", "--k", "4", "--involution", "frobenius"],
            "1192737 incidences",
        ),
        (
            ["jordan-check", "--p", "2", "--k", "2", "--n", "3"],
            "16777216 hermitian triple products",
        ),
        (["jordan-check", "--p", "2", "--n", "4"], "1048576 hermitian triple products"),
        (["enumerate", "--p", "2", "--n", "9"], "at least 36893488147419103232 points"),
    ],
)
def test_work_counted_before_field_tables(argv, named, capsys, monkeypatch):
    """At the default budget each run is refused by the count of its own
    work, named exactly below 2^64 and as the capped 2^65 above."""

    def no_tables(*args):
        raise AssertionError("field tables built before the budget check")

    monkeypatch.setattr(fields, "FieldSpec", no_tables)
    monkeypatch.setattr(harness, "make_field", no_tables)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f" {named} exceed the budget 1000000" in err
    assert ("at least" in err) == named.startswith("at least")


@pytest.mark.parametrize(
    "argv",
    [
        ["isotropic", "--p", "3", "--k", "2", "--involution", "frobenius", "--n", "3"],
        ["verify-theorem1", "--p", "2", "--n", "4"],
        ["verify-theorem1", "--p", "2", "--k", "2", "--n", "3"],
        ["graph", "--p", "5", "--n", "3", "--points", "isotropic", "--format", "csv"],
    ],
)
def test_work_gate_accepts(argv, capsys, monkeypatch):
    """These pass the gate at the default budget; their work is not run."""
    command = cli._SUBCOMMANDS[argv[0]]
    stub = command._replace(run=lambda cfg, args: ("", True))
    monkeypatch.setitem(cli._SUBCOMMANDS, argv[0], stub)
    assert run(capsys, *argv) == (0, "", "")


def test_edge_budget_checked_before_the_graph_is_built(capsys, monkeypatch):
    """GF(2) n = 2 has 105 incidences and 280 edges."""

    def no_graph(*args):
        raise AssertionError("graph built before the edge budget check")

    monkeypatch.setattr(harness, "_relation_neighbours", no_graph)
    argv = ["graph", "--p", "2", "--budget", "200"]
    for fmt in ("json", "dot"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert out == ""
        assert "280 edges" in err


def test_format_gating(capsys):
    code, out, err = run(capsys, "verify-theorem1", "--p", "2", "--format", "dot")
    assert code == 2
    assert "--format json" in err
    code, out, err = run(capsys, "enumerate", "--p", "2", "--format", "csv")
    assert code == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify-theorem1", "--p", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    on_disk = target.read_text(encoding="utf-8")
    code, stdout_text, err = run(capsys, "verify-theorem1", "--p", "2")
    assert on_disk == stdout_text


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "enumerate", "--p", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out")
    assert "Traceback" not in err
    assert not target.parent.exists()


def test_deterministic_output(capsys):
    first = run(capsys, "verify-remarks", "--p", "2", "--seed", "4")
    second = run(capsys, "verify-remarks", "--p", "2", "--seed", "4")
    assert first == second
    g1 = run(capsys, "graph", "--p", "3", "--format", "csv")
    g2 = run(capsys, "graph", "--p", "3", "--format", "csv")
    assert g1 == g2


def test_usage_errors(capsys):
    code, out, err = run(capsys, "no-such-command", "--p", "2")
    assert code == 2
    code, out, err = run(capsys, "enumerate", "--p", "2", "--involution", "frobenius")
    assert code == 2
    assert "even extension degree" in err
    code, out, err = run(capsys, "enumerate", "--p", "4")
    assert code == 2
    assert "prime" in err
    code, out, err = run(capsys, "decompose", "--p", "2", "--point", "{broken")
    assert code == 2
    assert "JSON" in err
    code, out, err = run(capsys, "decompose", "--p", "2", "--point", IDENTITY_2)
    assert code == 2
    assert "2x4" in err
    code, out, err = run(capsys, "bartolone", "--p", "2", "--t1", IDENTITY_2)
    assert code == 2
    # inline JSON that starts with [ is parsed, not opened as a file name
    code, out, err = run(capsys, "bartolone", "--p", "2", "--t1", "[1]", "--t2", "{}")
    assert (code, err) == (2, "error: matrix JSON must be an object\n")
    hostile = [
        '{"rows": Infinity, "cols": 4, "entries": []}',
        '{"rows": 2.5, "cols": 4, "entries": [[0, 0, 0, 0], [0, 0, 0, 0]]}',
        '{"rows": true, "cols": 4, "entries": [[1, 0, 0, 0]]}',
        '{"rows": ' + "[" * 200_000,
        "{" + "x" * 100_000,  # malformed inline JSON, not echoed in full
        "p" * 5_000,  # unreadable path, which the OSError text would repeat
    ]
    for point in hostile:
        code, out, err = run(capsys, "decompose", "--p", "2", "--point", point)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200
        assert "Traceback" not in err
    # an unwritable --out path, which the OSError text would repeat
    code, out, err = run(capsys, "enumerate", "--p", "2", "--out", "p" * 5_000)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out") and err.count("\n") == 1
    assert len(err.encode()) < 300


@pytest.mark.parametrize("literal", ["0_1", " 1", "+1", "\u0661"])
def test_non_decimal_entry_refused(literal, capsys):
    """An entry int() would read as 1 is refused: entries are ASCII decimal."""
    t1 = json.dumps({"rows": 2, "cols": 2, "entries": [[literal, "0"], ["0", "1"]]})
    argv = ["bartolone", "--p", "2", "--t1", t1, "--t2", IDENTITY_2]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a field element literal" in err


@pytest.mark.parametrize(
    "literal",
    ["1" * 4_000, "1" * 5_000, "x" * 4_000],
    ids=["4000-digits", "5000-digits", "4000-letters"],
)
def test_huge_entry_refused_in_one_short_line(literal, capsys):
    """An entry of thousands of characters is not echoed in full."""
    t1 = json.dumps({"rows": 2, "cols": 2, "entries": [[literal, "0"], ["0", "1"]]})
    argv = ["bartolone", "--p", "2", "--t1", t1, "--t2", IDENTITY_2]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "Traceback" not in err


def test_missing_file_argument(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    code, out, err = run(capsys, "decompose", "--p", "2", "--point", str(missing))
    assert code == 2
    assert "cannot read" in err


_ENTRY = st.one_of(
    st.integers(-1, 4),
    st.sampled_from(["1", "x", "", "1.0"]),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
)
_SIZE = st.one_of(
    st.integers(-1, 5), st.floats(), st.booleans(), st.none(), st.just("2")
)


def _matrices(rows: int, cols: int):
    """Well-formed GF(2) matrix JSON of one shape."""
    entries = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    return st.lists(entries, min_size=rows, max_size=rows).map(
        lambda e: {"rows": rows, "cols": cols, "entries": e}
    )


def _matrix_arguments(rows: int, cols: int):
    """JSON text for a rows x cols matrix over GF(2), or for a wrong one.

    Well-formed points are often rank deficient or not isotropic.
    """
    other_shape = st.tuples(st.integers(0, 3), st.integers(0, 5))
    malformed = st.fixed_dictionaries(
        {
            "rows": _SIZE,
            "cols": _SIZE,
            "entries": st.lists(st.lists(_ENTRY, max_size=5), max_size=5),
        }
    )
    text = st.one_of(
        _matrices(rows, cols),
        other_shape.flatmap(lambda shape: _matrices(*shape)),
        malformed,
        st.lists(_ENTRY, max_size=3),
    ).map(json.dumps)
    return st.one_of(text, st.text(max_size=12).map(lambda s: "{" + s))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_json_inputs_fail_cleanly(data):
    command, flags, shape = data.draw(
        st.sampled_from(
            [
                ("bartolone", ("--t1", "--t2"), (2, 2)),
                ("decompose", ("--point",), (2, 4)),
                ("complement", ("--u1", "--u2"), (2, 4)),
            ]
        )
    )
    argv = [command, "--p", "2"]
    for flag in flags:
        argv += [flag, data.draw(_matrix_arguments(*shape))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2)
    assert err.count("\n") == (code == 2)
    assert err == "" or err.startswith("error: ")
    assert "Traceback" not in err


def test_file_path_argument(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(ZERO_POINT, encoding="utf-8")
    code, out, err = run(capsys, "decompose", "--p", "2", "--point", str(path))
    assert code == 0
    assert json.loads(out)["t1"]["entries"] == [["1", "0"], ["0", "1"]]

def test_cli_import_loads_no_dataclasses_or_inspect():
    """Every CLI process imports the package; inspect alone costs it about 7 ms."""
    code = "import sys, hermline.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )
    assert proc.stdout == "[]\n"
