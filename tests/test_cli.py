"""Command-line layer: exit codes, formats, determinism.

Every test drives ``deltap.cli.main`` in-process.  Numeric values in
the golden tables are not re-derived here; they are the same
quantities frozen in test_toric.py and test_invariants.py, so these
tests only pin the formatting and plumbing on top of them.
"""

import contextlib
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltap import cli, filtration, geodesic, selfcheck, toric
from deltap.errors import InvariantViolation
from deltap.toric import MAX_MOMENT_PAIRS, builtin_model


def run_cli(argv, tmp_path=None, name="out.txt"):
    """Invoke main() with --out into a temp file; return (code, text)."""
    if tmp_path is None:
        return cli.main(argv), None
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else None
    return code, text


# ---------------------------------------------------------------------------
# invariants


def test_invariants_golden_table(tmp_path):
    # delta_upper and threshold columns match the exact values pinned
    # in test_invariants.py; this checks the 12-significant-digit
    # rendering and the column order.
    code, text = run_cli(
        ["invariants", "--model", "pn:2", "--anticanonical",
         "--p", "1,2,4", "--bound", "3"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "p,delta_upper,argmin,alpha_upper,threshold,verdict"
    assert lines[1] == "1,1,-3 -2,1/3,1,borderline"
    assert lines[2] == "2,0.816496580928,-1 -1,1/3,0.942809041582,below"
    assert lines[3] == "4,0.655996557088,-1 -1,1/3,0.877382675302,below"
    assert len(lines) == 4


def test_invariants_default_grid_is_1_to_4(tmp_path):
    code, text = run_cli(
        ["invariants", "--model", "p2", "--bound", "2"], tmp_path)
    assert code == 0
    ps = [line.split(",")[0] for line in text.splitlines()[1:]]
    assert ps == ["1", "2", "3", "4"]


def test_invariants_json_shape(tmp_path):
    code, text = run_cli(
        ["invariants", "--model", "p2-anticanonical", "--p", "1,2",
         "--bound", "2", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["upper_bounds_only"] is True
    assert doc["alpha_upper_bound"] == "1/3"
    assert doc["flags"] == []
    assert [row["p"] for row in doc["rows"]] == [1, 2]
    assert doc["rows"][0]["verdict"] == "borderline"


def test_invariants_model_from_json_file(tmp_path):
    # A file path holding the standard simplex behaves like the p2
    # built-in.
    doc = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    model_file = tmp_path / "simplex.json"
    model_file.write_text(json.dumps(doc))
    code_file, text_file = run_cli(
        ["invariants", "--model", str(model_file), "--p", "1,2",
         "--bound", "2"], tmp_path, name="from_file.csv")
    code_builtin, text_builtin = run_cli(
        ["invariants", "--model", "p2", "--p", "1,2", "--bound", "2"],
        tmp_path, name="from_builtin.csv")
    assert code_file == code_builtin == 0
    assert text_file == text_builtin


def test_invariants_rerun_is_byte_identical(tmp_path):
    argv = ["invariants", "--model", "p1xp1", "--p", "1,2,3", "--bound", "2"]
    _, first = run_cli(argv, tmp_path, name="a.csv")
    _, second = run_cli(argv, tmp_path, name="b.csv")
    assert first == second


def test_invariants_stdout_when_no_out(capsys):
    code = cli.main(["invariants", "--model", "p2", "--p", "1",
                     "--bound", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("p,delta_upper")
    assert captured.err == ""


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_all_checks_pass(tmp_path, seed):
    code, text = run_cli(["verify", "--seed", str(seed)], tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "status,property,detail"
    body = [line.split(",") for line in lines[1:]]
    assert len(body) == len(selfcheck.VERIFY_CHECKS)
    assert all(row[0] == "PASS" for row in body)
    assert [row[1] for row in body] == [name for name, _
                                        in selfcheck.VERIFY_CHECKS]


def test_verify_rerun_same_seed_byte_identical(tmp_path):
    argv = ["verify", "--seed", "3"]
    _, first = run_cli(argv, tmp_path, name="a.csv")
    _, second = run_cli(argv, tmp_path, name="b.csv")
    assert first == second


def test_verify_inject_mutant_fails_loudly(tmp_path):
    code, text = run_cli(["verify", "--seed", "0", "--inject-mutant"],
                         tmp_path)
    assert code == 2
    last = text.splitlines()[-1]
    assert last.startswith("FAIL,mutant-curve-rejected,")
    assert "volume curve increases near x = 1/2" in last
    # the witness rides along in the detail column
    assert '""x"": ""1/2""' in last


def test_verify_fails_a_compatible_basis_that_is_not_adapted(tmp_path,
                                                            monkeypatch):
    # the property holds compatible_basis to the orders the flag reads
    # from its own rows, so the standard basis, which ignores the chain,
    # must fail it
    def standard_basis(chain, d):
        return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))

    monkeypatch.setattr(filtration, "compatible_basis", standard_basis)
    monkeypatch.setattr(selfcheck, "compatible_basis", standard_basis)
    code, text = run_cli(["verify", "--seed", "0"], tmp_path)
    assert code == 2
    status = {row.split(",")[1]: row.split(",")[0]
              for row in text.splitlines()[1:]}
    assert status.pop("compatible-basis") == "FAIL"
    assert set(status.values()) == {"PASS"}


def test_verify_json_format(tmp_path):
    code, text = run_cli(
        ["verify", "--seed", "1", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert doc["seed"] == 1
    assert doc["failures"] == 0
    assert {r["status"] for r in doc["results"]} == {"PASS"}


# ---------------------------------------------------------------------------
# scan


def test_scan_emits_labeled_grids(tmp_path):
    code, text = run_cli(
        ["scan", "--model", "p2", "--p", "1,2", "--m", "1,2",
         "--bound", "2"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "scan,x,name,value,status"
    rows = [line.split(",") for line in lines[1:]]
    statuses = {row[4] for row in rows}
    # proven and conjectural columns are labeled, never mixed
    assert {"proven-monotone", "conjectural", "upper-bound",
            "raw", "probe"} == statuses
    by_name = {(row[0], row[2]) for row in rows}
    assert ("order", "h_stat") in by_name
    assert ("order", "delta_upper") in by_name
    assert ("level", "moment_gap") in by_name
    assert ("truncation", "delta_upper") in by_name
    # the p=1 lattice moments on the plane agree at every level
    gaps = [row[3] for row in rows if row[2] == "moment_gap"]
    assert gaps == ["0", "0"]


def test_scan_order_rows_build_each_curve_once(tmp_path, monkeypatch):
    # every order row of one scan reduces over one candidate table, which
    # builds curves only for its argmins
    argmins = {toric.delta_p_search(builtin_model("p2"), p, 3).argmin
               for p in (1, 2, 3)}
    built = []
    original = toric.volume_curve_of

    def counted(model, val):
        built.append(model.P.vertices)
        return original(model, val)

    for module in (toric, selfcheck, geodesic):
        monkeypatch.setattr(module, "volume_curve_of", counted)
    code, _ = run_cli(["scan", "--model", "p2", "--p", "1,2,3",
                       "--m", "1,2,4,8"], tmp_path)
    assert code == 0
    p2 = builtin_model("p2").P.vertices
    # one more build: the moment identity over all levels at once
    assert built.count(p2) == len(argmins) + 1


def test_scan_builds_each_curve_of_its_model_once(tmp_path, monkeypatch):
    # the moment identity reuses the curve that the candidate table built
    # for the p = 1 argmin, since the model keeps every curve it builds
    argmins = {toric.delta_p_search(builtin_model("p2"), p, 3).argmin
               for p in (1, 2, 3)}
    built = []
    original = toric.survival_curve

    def counted(data, n):
        built.append(sum(weight for weight, _ in data))
        return original(data, n)

    monkeypatch.setattr(toric, "survival_curve", counted)
    code, _ = run_cli(["scan", "--model", "p2", "--p", "1,2,3",
                       "--m", "1,2,4,8"], tmp_path)
    assert code == 0
    # p2's one simplex has weight 2! vol = 1; the probe's cuts of 4 p2
    # weigh more
    assert built.count(1) == len(argmins)


def test_scan_levels_follow_the_requested_order(tmp_path):
    def level_rows(m_arg):
        code, text = run_cli(["scan", "--model", "p2", "--p", "2",
                              "--m", m_arg, "--bound", "2"], tmp_path)
        assert code == 0
        return [(row.split(",")[1], row.split(",")[3])
                for row in text.splitlines() if row.startswith("level,")]

    gap = dict(level_rows("1,8"))
    assert level_rows("8,1,1") == [("8", gap["8"]), ("1", gap["1"]),
                                   ("1", gap["1"])]


@pytest.mark.parametrize("argv", [[], ["--m", "1,2"]], ids=["bare", "m-only"])
def test_scan_without_p_exits_3(tmp_path, capsys, argv):
    # every scan row hangs off the order grid, so none can be printed
    code, text = run_cli(["scan", "--model", "p2", "--bound", "2", *argv],
                         tmp_path)
    assert (code, text) == (3, None)
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "--p" in err["message"]


def test_scan_json_parses(tmp_path):
    code, text = run_cli(
        ["scan", "--model", "p1xp1", "--p", "1", "--bound", "2",
         "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(text)
    assert all(set(row) == {"scan", "x", "name", "value", "status"}
               for row in doc["rows"])


# ---------------------------------------------------------------------------
# errors and exit codes


def test_unknown_model_exits_3_with_structured_stderr(capsys):
    code = cli.main(["invariants", "--model", "nowhere-model"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    doc = json.loads(captured.err)
    assert doc["error"] == "DomainError"
    assert "nowhere-model" in doc["message"]
    assert doc["witness"] is None


def test_non_q_gorenstein_model_exits_4(tmp_path, capsys):
    doc = {"dim": 3, "vertices": [
        ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
        ["1", "2", "0"], ["0", "0", "1"]]}
    model_file = tmp_path / "pyramid.json"
    model_file.write_text(json.dumps(doc))
    code = cli.main(["invariants", "--model", str(model_file),
                     "--p", "1", "--bound", "1"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnsupportedModelError"


def test_hexagon_times_square_runs(tmp_path):
    # dP6 x P1 x P1 (24 vertices) and dP6 x dP6 (36 vertices, 96
    # simplices) in dimension 4: Kahler-Einstein toric Fanos, so
    # delta_1 = 1 exactly
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    square = [(b, c) for b in (-1, 1) for c in (-1, 1)]
    for second, p, bound, rows in [
            (square, "1", "1", ["1,1,-1 -1 -1 -1,1/2,1,borderline"]),
            (hexagon, "1,2", "2",
             ["1,1,-2 -2 -2 -1,1/2,1,borderline",
              "2,0.884651736929,-1 0 0 0,1/2,0.979795897113,below"])]:
        doc = {"dim": 4, "vertices": [[str(x) for x in (*a, *b)]
                                      for a in hexagon for b in second]}
        model_file = tmp_path / "product.json"
        model_file.write_text(json.dumps(doc))
        code, text = run_cli(["invariants", "--model", str(model_file),
                              "--p", p, "--bound", bound], tmp_path)
        assert code == 0
        assert text.splitlines()[1:] == rows


def test_bad_grid_exits_3(capsys):
    assert cli.main(["invariants", "--model", "p2", "--p", "1,x"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert cli.main(["invariants", "--model", "p2", "--p", "0,1"]) == 3
    assert cli.main(["invariants", "--model", "p2", "--bound", "0"]) == 3


def test_candidate_box_over_budget_exits_3(capsys):
    # 801**3 candidates: refused before any is enumerated
    code = cli.main(["invariants", "--model", "pn:3", "--bound", "400"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"


def test_hull_subsets_over_budget_exit_3(tmp_path, capsys):
    # 50 points on the moment curve in dimension 4 span a cyclic polytope
    # with 50 * 47 / 2 = 1175 facets; the facet hull is refused at the
    # 47th point, where its rays first pass MAX_HULL_RAYS = 1000
    doc = {"dim": 4, "vertices": [[str(t ** k) for k in range(1, 5)]
                                  for t in range(50)]}
    model_file = tmp_path / "cyclic.json"
    model_file.write_text(json.dumps(doc))
    code = cli.main(["invariants", "--model", str(model_file), "--p", "1",
                     "--bound", "1"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert "holds 1034 rays, over the budget of 1000" in err["message"]


@pytest.mark.parametrize("width, argv, message", [
    # 4 * 1000 cuts, refused before the candidate table is built
    (1000, ["--p", "1"], "needs 4000 cuts"),
    (10 ** 8, ["--p", "1"], "needs 400000000 cuts"),
    # p2 passes the probe; its level-1000 sections need a box of 1001^2
    (1, ["--p", "1", "--m", "1000"], "1002001 integer points"),
])
def test_scan_enumerations_over_budget_exit_3(tmp_path, capsys, width, argv,
                                              message):
    doc = {"dim": 2, "vertices": [["0", "0"], [str(width), "0"], ["0", "1"]]}
    model_file = tmp_path / "triangle.json"
    model_file.write_text(json.dumps(doc))
    assert cli.main(["scan", "--model", str(model_file), *argv]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DomainError"
    assert message in err["message"]


def test_scan_moment_pairs_over_budget_exit_3(tmp_path, capsys, monkeypatch):
    # the 6-cube at bound 1: 728 candidates times 720 simplices is under
    # the budget for one table, but the model and its four probe cuts,
    # each a 6-box of 720 simplices, make 5 * 524,160 pairs; refused
    # before the first search
    doc = {"dim": 6, "vertices": [[str(x) for x in w] for w in
                                  itertools.product((0, 1), repeat=6)]}
    model_file = tmp_path / "cube6.json"
    model_file.write_text(json.dumps(doc))

    def searched(*args):
        raise AssertionError("a candidate search ran")
    monkeypatch.setattr(cli, "delta_p_search", searched)
    monkeypatch.setattr(cli, "CandidateTable", searched)
    assert cli.main(["scan", "--model", str(model_file), "--p", "1",
                     "--m", "1", "--bound", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert err["message"] == (
        "scan's 5 candidate tables make 2620800 moment pairs, over the "
        f"budget of MAX_MOMENT_PAIRS = {MAX_MOMENT_PAIRS}")


def test_truncation_probe_passes_an_invariant_violation_on(monkeypatch,
                                                           capsys):
    # a probe cut blanks only the input errors a cut may raise; a
    # violation exits 2 before any row is printed
    def violated(*args):
        raise InvariantViolation(
            "closed-form row disagrees with the volume curve")
    monkeypatch.setattr(cli, "delta_p_search", violated)
    assert cli.main(["scan", "--model", "p2", "--p", "1", "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "InvariantViolation"
    assert "closed-form row disagrees" in err["message"]


def test_malformed_model_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["invariants", "--model", str(bad)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # deeper than the decoder recurses
    '{"dim": 1, "vertices": [[' + "7" * 4301 + '], [0]]}',  # over int's digit limit
], ids=["deep-nesting", "long-integer"])
def test_model_file_the_decoder_rejects_exits_3(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli.main(["invariants", "--model", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "StructureError"
    assert str(bad) in err["message"]


def test_coordinate_too_large_for_a_float_exits_3(tmp_path, capsys):
    # 4,000 digits pass the decoder's limit but overflow a float
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 1, "vertices": [["0"], ["7" * 4000]]}))
    assert cli.main(["invariants", "--model", str(big), "--p", "1",
                     "--bound", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "OverflowError"


@pytest.mark.parametrize("model, p", [("p2-anticanonical", "10000"),
                                      ("triangle", "50")])
def test_exact_value_past_the_digit_limit_exits_3(tmp_path, capsys, model, p):
    # the JSON table prints s_p exactly, and its numerator passes the
    # 4,300 digits Python converts to a string; the CSV table does not
    # print it and exits 0
    if model == "triangle":
        model = str(tmp_path / "triangle.json")
        side = str(10 ** 100)
        Path(model).write_text(json.dumps(
            {"dim": 2, "vertices": [["0", "0"], [side, "0"], ["0", side]]}))
    argv = ["invariants", "--model", model, "--p", p, "--bound", "1"]
    assert cli.main(argv + ["--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert err["error"] == "DomainError"
    assert "limit of 4300 digits" in err["message"]
    assert cli.main(argv) == 0


@pytest.mark.parametrize("argv, row", [
    (["invariants", "--model", "p2-anticanonical", "--p", "700",
      "--bound", "1"],
     "700,0.339297148475,-1 -1,1/3,0.672271799722,below"),
    (["scan", "--model", "p2", "--p", "1,1100", "--m", "1"],
     "order,1100,h_stat,2.98205793413,proven-monotone"),
], ids=["invariants-p700", "scan-p1100"])
def test_orders_whose_moments_overflow_a_float_exit_0(capsys, argv, row):
    # the moments pass 10**308, but their p-th roots are about 0.3 to 3
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert row in captured.out.splitlines()


def test_bool_coordinate_exits_3(tmp_path, capsys):
    model = tmp_path / "bool.json"
    model.write_text('{"dim": 2, "vertices": [[true, 0], [0, 1], [0, 0]]}')
    assert cli.main(["invariants", "--model", str(model)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert "True" in err["message"]


def test_non_utf8_model_file_exits_3(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert cli.main(["invariants", "--model", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "StructureError"
    assert "not UTF-8" in err["message"]


@pytest.mark.parametrize("doc", [
    {"dim": "x", "vertices": [["0"], ["1"]]},
    {"dim": 0, "vertices": [[]]},
    {"dim": 2, "vertices": 5},
    {"dim": 2, "vertices": []},
    {"dim": 1, "vertices": ["0", "1"]},
    # collinear: a well-formed file whose polytope is not full-dimensional
    {"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]},
])
def test_malformed_model_document_exits_3(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["invariants", "--model", str(bad)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "StructureError"


@pytest.mark.parametrize("argv", [
    ["verify", "--tol", "1e-9"], ["verify", "--model", "p2"],
    ["verify", "--bound", "2"], ["invariants", "--m", "4"],
    ["invariants", "--seed", "3"], ["scan", "--seed", "3"],
    ["scan", "--inject-mutant"]], ids=" ".join)
def test_option_the_subcommand_does_not_take_exits_3(capsys, argv):
    # "--m" must not be read as an abbreviation of "--model" either.
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert "unrecognized arguments: " + " ".join(argv[1:]) == err["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_unusable_tol_exits_3(capsys, tol):
    # verify no longer takes a tolerance, so no value of one is run silently.
    assert cli.main(["verify", "--seed", "0", f"--tol={tol}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert err["message"] == f"unrecognized arguments: --tol={tol}"


_MODEL_OPTIONS = {"--model", "--anticanonical", "--p", "--bound"}
_SUBCOMMAND_OPTIONS = {
    "invariants": _MODEL_OPTIONS | {"--format", "--out"},
    "scan": _MODEL_OPTIONS | {"--m", "--format", "--out"},
    "verify": {"--seed", "--inject-mutant", "--format", "--out"},
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_OPTIONS))
def test_each_subcommand_help_lists_exactly_its_options(capsys, command):
    assert cli.main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == _SUBCOMMAND_OPTIONS[command] | {"--help"}


def test_argparse_failures(capsys):
    # unknown subcommand is an input error; --help is a success
    assert cli.main(["frobnicate"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "DomainError"
    assert cli.main(["--help"]) == 0
    captured = capsys.readouterr()
    assert "invariants" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--bound", "x"], "invalid int value: 'x'"),
    (["invariants", "--format", "xml"], "invalid choice: 'xml'"),
    ([], "required: command"),
])
def test_argument_errors_exit_3_with_one_json_object(capsys, argv, message):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "DomainError"
    assert message in err["message"]


# ---------------------------------------------------------------------------
# fuzzing: every input ends in a documented exit code


_coord = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(1, 3)).map("{0[0]}/{0[1]}".format))


@st.composite
def _polytope_doc(draw):
    dim = draw(st.integers(1, 3))
    verts = draw(st.lists(st.lists(_coord, min_size=dim, max_size=dim),
                          min_size=draw(st.sampled_from([1, dim + 1])),
                          max_size=7))
    return {"dim": dim, "vertices": verts}


_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(), st.text(max_size=3),
                  st.lists(st.integers(-3, 3), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_model_text = st.one_of(
    _polytope_doc().map(json.dumps), _polytope_doc().map(json.dumps),
    st.fixed_dictionaries({"dim": st.one_of(st.integers(0, 4), _junk),
                           "vertices": st.one_of(st.lists(st.lists(
                               st.one_of(_coord, _junk), max_size=4),
                               max_size=7), _junk)}).map(json.dumps),
    _junk.map(json.dumps),
    st.text(max_size=8))
_grid = st.one_of(
    st.lists(st.integers(-1, 4), max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["x", "1,,2", " "]))
_OPTIONS = {
    "--model": st.sampled_from(["FILE", "p2", "p1xp1", "hirzebruch-2", "pn:1",
                                "pn:2", "pn:3", "pn:9", "nope"]),
    "--anticanonical": st.none(),
    "--p": _grid,
    "--bound": st.sampled_from(["1", "2", "0", "x"]),
    "--m": _grid,
    "--tol": st.sampled_from(["1e-6", "0", "nan", "x"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--seed": st.sampled_from(["0", "3", "x"]),
    "--out": st.sampled_from(["OUTFILE", "OUTDIR"]),
    "--inject-mutant": st.none(),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["invariants", "scan", "invariants", "scan",
                                    "verify", "frobnicate"]))
    # Most runs read the fuzzed model file, and scan needs an order grid;
    # verify takes neither option, so it starts bare.
    argv = [command]
    if command != "verify":
        argv += ["--model", "FILE", "--p", "1,2"]
    for opt in draw(st.lists(st.sampled_from(sorted(_OPTIONS)), max_size=4)):
        value = draw(_OPTIONS[opt])
        argv += [opt] if value is None else [opt, value]
    return argv


@settings(max_examples=120, deadline=None)
@given(argv=_argv(), model=_model_text)
def test_fuzzed_command_lines_end_in_a_documented_exit(argv, model):
    with tempfile.TemporaryDirectory() as tmp:
        where = {"FILE": Path(tmp, "model.json"), "OUTFILE": Path(tmp, "out"),
                 "OUTDIR": Path(tmp)}
        where["FILE"].write_text(model)
        argv = [str(where.get(tok, tok)) for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        report = where["OUTFILE"].read_text() if "--out" in argv and \
            where["OUTFILE"].exists() else out.getvalue()
    assert code in (0, 2, 3, 4)
    if code == 2 and argv[0] == "verify" and not err.getvalue():
        # a failed property is a row of the report, not an error
        assert "FAIL" in report
    elif code != 0:
        assert out.getvalue() == ""
        doc = json.loads(err.getvalue())
        assert isinstance(doc, dict)
        assert set(doc) == {"error", "message", "witness"}
