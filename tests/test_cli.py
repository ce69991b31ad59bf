import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sympjoint
from sympjoint.cli import main
from sympjoint.exact import ExactMatrix, random_symplectic, rat
from sympjoint.invariants import PointConfig, config_to_dict, random_config
from sympjoint.variants import (
    ContactConfig,
    ContactPoint,
    contact_config_to_dict,
    contact_lift_symplectic,
    contact_transform,
)

import random


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sample_config(tmp_path):
    cfg = PointConfig(1, ((1, 0), (0, 5), (2, 3), ("1/2", "7/3")))
    return cfg, write_json(tmp_path / "a.json", config_to_dict(cfg))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_command(sample_config, capsys):
    cfg, path = sample_config
    code, out = run(capsys, "invariants", path)
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 4 and data["n"] == 1
    assert ["1", "2", "5"] == [str(v) for v in data["pairs"][0]]
    assert data["genericity"]["generic"]


def test_syzygy_check_config_and_identities(sample_config, capsys):
    _, path = sample_config
    code, out = run(capsys, "syzygy-check", path, "--identities")
    assert code == 0
    data = json.loads(out)
    assert data["minimal_syzygies"]["all_zero"]
    idents = data["identities"]
    assert len(idents) == 6
    assert all(idents.values())


def test_equiv_sp_with_witness(tmp_path, capsys):
    rng = random.Random(90)
    a = random_config(1, 4, rng)
    m0 = random_symplectic(1, 10, seed=17)
    b = a.transform(m0)
    pa = write_json(tmp_path / "a.json", config_to_dict(a))
    pb = write_json(tmp_path / "b.json", config_to_dict(b))
    code, out = run(capsys, "equiv", pa, pb, "--group", "sp")
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    witness = ExactMatrix([[rat(x) for x in row] for row in data["witness"]])
    for i in range(1, 5):
        assert witness.apply(a.point(i)) == b.point(i)
    assert data["signature_a"] == data["signature_b"]


def test_equiv_not_equivalent_exit_code(tmp_path, capsys):
    rng = random.Random(91)
    a = random_config(1, 4, rng)
    pts = list(a.points)
    pts[0] = (pts[0][0] + 1, pts[0][1])
    b = PointConfig(1, tuple(pts))
    pa = write_json(tmp_path / "a.json", config_to_dict(a))
    pb = write_json(tmp_path / "b.json", config_to_dict(b))
    code, out = run(capsys, "equiv", pa, pb, "--group", "sp")
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_equiv_nongeneric_exit_code(tmp_path, capsys):
    flat = PointConfig(1, ((1, 0), (2, 0), (3, 0)))
    pa = write_json(tmp_path / "a.json", config_to_dict(flat))
    code, out = run(capsys, "equiv", pa, pa, "--group", "sp")
    assert code == 2
    assert json.loads(out)["error"] == "genericity"


def test_equiv_contact_group(tmp_path, capsys):
    rng = random.Random(92)
    cfg = ContactConfig(
        1,
        tuple(
            ContactPoint((rng.randint(-4, 4),), (rng.randint(-4, 4),), rng.randint(-4, 4))
            for _ in range(4)
        ),
    )
    g = ExactMatrix([[2, 1], [1, 1]])
    moved = contact_transform(g, cfg)
    pa = write_json(tmp_path / "a.json", contact_config_to_dict(cfg))
    pb = write_json(tmp_path / "b.json", contact_config_to_dict(moved))
    code, out = run(capsys, "equiv", pa, pb, "--group", "contact")
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_equiv_contact_separates_linear_relations(tmp_path, capsys):
    # no linear map sends (1, 0) to (1, 0) and (2, 0) to (3, 0)
    pa, pb = (
        write_json(tmp_path / f"{name}.json", {"n": 1, "points": [{"x": [1], "y": [0], "u": 1}, {"x": [x], "y": [0], "u": 1}]})
        for name, x in (("a", 2), ("b", 3))
    )
    code, out = run(capsys, "equiv", pa, pb, "--group", "contact")
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_equiv_unordered_relabeling(tmp_path, capsys):
    rng = random.Random(93)
    a = random_config(1, 4, rng)
    b = a.transform(random_symplectic(1, 8, seed=21)).permute([3, 1, 4, 2])
    pa = write_json(tmp_path / "a.json", config_to_dict(a))
    pb = write_json(tmp_path / "b.json", config_to_dict(b))
    # ordered comparison fails, the relabeling search succeeds
    code, _ = run(capsys, "equiv", pa, pb, "--group", "sp")
    assert code == 1
    code, out = run(capsys, "equiv", pa, pb, "--group", "sp", "--unordered")
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    assert sorted(data["relabeling"]) == [1, 2, 3, 4]


def test_symmetrize_command(capsys):
    code, out = run(capsys, "symmetrize", "--m", "3", "--n", "1", "--maxdeg", "6")
    assert code == 0
    data = json.loads(out)
    assert data["graded_dims"] == [1, 0, 2, 1, 4, 2, 7]
    assert data["r8_syzygy"] is True
    assert data["generator_degrees"] == [2, 2, 3, 4]


def test_dims_command(capsys):
    code, out = run(capsys, "dims", "--max-m", "6", "--max-n", "2")
    assert code == 0
    lines = out.splitlines()
    d_row_m5 = next(l for l in lines if l.strip().startswith("5 "))
    assert d_row_m5.split() == ["5", "7", "10"]  # d(5,1) = 7, d(5,2) = 10
    assert any("k=2:0" in l for l in lines if l.strip().startswith("n=1"))


def test_discretize_command(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    code, out = run(
        capsys, "discretize", "--case", "planar-i2", "--csv", str(csv_path)
    )
    assert code == 0
    data = json.loads(out)
    report = data["reports"]["I2"]
    assert report["passed"] and report["target"] == 1.0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "quantity,h,estimate,error"
    assert len(rows) == 6  # header + 5 steps


def test_discretize_rejects_unknown_curve(capsys):
    code, _ = run(capsys, "discretize", "--case", "planar-i2", "--curve", "nope")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["equiv", "only-one.json"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 64


def test_syzygy_check_without_config_or_identities_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["syzygy-check"])
    assert info.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: syzygy-check needs a config file, --identities, or both\n")


@pytest.mark.parametrize(
    "argv, name",
    [(["invariants", "BIG"], "a12"), (["equiv", "BIG", "BIG"], "signature_a[0]")],
)
def test_output_value_past_the_int_string_limit_is_an_input_error(tmp_path, capsys, argv, name):
    # a12 = 1 - 10^4400 has 4401 digits, past Python's default limit of 4300
    path = write_json(tmp_path / "big.json", {"n": 1, "points": [[1, "1e2200"], ["1e2200", 1]]})
    code = main([path if a == "BIG" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: output value {name} has more than 4300 digits, Python's limit for an int turned into a string\n"
    )


def test_missing_file_is_input_error(capsys):
    code, _ = run(capsys, "invariants", "/does/not/exist.json")
    assert code == 2


def test_output_is_deterministic(sample_config, capsys):
    _, path = sample_config
    _, out1 = run(capsys, "invariants", path)
    _, out2 = run(capsys, "invariants", path)
    assert out1 == out2
    _, s1 = run(capsys, "--seed", "5", "symmetrize", "--m", "3", "--n", "1", "--maxdeg", "4")
    _, s2 = run(capsys, "--seed", "5", "symmetrize", "--m", "3", "--n", "1", "--maxdeg", "4")
    assert s1 == s2


@pytest.mark.parametrize(
    "obj",
    [
        {"n": 1, "points": [[1.5, 0], [0, 1]]},  # float coordinate
        {"n": 1.9, "points": [[1, 0], [0, 1]]},  # fractional n, not truncated to 1
        {"n": True, "points": [[1, 0], [0, 1]]},
    ],
)
def test_malformed_config_is_input_error(tmp_path, capsys, obj):
    code = main(["invariants", write_json(tmp_path / "bad.json", obj)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["invariants", "equiv"])
def test_deeply_nested_config_is_input_error(tmp_path, capsys, command):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"n": 1, "points": ' + "[" * depth + "]" * depth + "}")
    code = main([command] + [str(path)] * (2 if command == "equiv" else 1))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_fractional_n_contact_config_is_input_error(tmp_path, capsys):
    bad = {"n": 1.9, "points": [{"x": [1], "y": [2], "u": 3}, {"x": [0], "y": [1], "u": 1}]}
    path = write_json(tmp_path / "bad.json", bad)
    code = main(["equiv", path, path, "--group", "contact"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'n' must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--at", "nan"],
        ["--at", "inf"],
        ["--at", "0"],  # the three samples are collinear with the origin
        ["--steps", "0.1,0.05,0.025,0"],
        ["--steps", "0.1,0.05,0.025,nan"],
    ],
)
def test_discretize_malformed_input_is_input_error(capsys, extra):
    code = main(["discretize", "--case", "planar-i2", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case,at",
    [
        ("planar-i2", "1,2"),
        ("general-i2", "1,2"),
        ("derivation", "1,2"),
        ("contact", "1,5,7"),
        ("function", "1"),
        ("function", "1,2,3"),
    ],
)
def test_discretize_at_arity_is_input_error(capsys, case, at):
    """A curve case takes one --at value and the function case two; any
    other count is refused rather than partly ignored."""
    code = main(["discretize", "--case", case, "--at", at])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "case,at",
    [("planar-i2", "0"), ("contact", "0"), ("general-i2", "0"), ("derivation", "0")],
)
def test_discretize_tangent_through_origin_is_named(capsys, case, at):
    """At these base points x y' - y (omega(A, A') in general) is 0, which
    every target divides by; the error names that cause."""
    code = main(["discretize", "--case", case, "--at", at])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: the tangent at the base point passes through the origin (omega(A, A') = 0)\n"


@pytest.mark.parametrize("maxdeg", [9, 10])
def test_symmetrize_past_the_generator_guard_prints_dimensions(capsys, maxdeg):
    code, out = run(capsys, "symmetrize", "--m", "3", "--n", "1", "--maxdeg", str(maxdeg))
    assert code == 0
    data = json.loads(out)
    assert data["graded_dims"] == [1, 0, 2, 1, 4, 2, 7, 4, 10, 7, 14][: maxdeg + 1]
    assert data["generators"] is None
    assert "maxdeg" in data["note"]


def fresh_imports(*argv):
    """Exit code and imported module names of `python -X importtime *argv`,
    run in a fresh interpreter on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(sympjoint.__file__))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


def test_cli_import_does_not_load_numpy():
    code, modules = fresh_imports("-c", "import sympjoint.cli")
    assert code == 0
    assert "numpy" not in modules


def test_package_import_loads_no_submodule():
    code, modules = fresh_imports("-c", "import sympjoint")
    assert code == 0
    assert "sympjoint" in modules
    assert not [name for name in modules if name.startswith("sympjoint.")]


def test_imports_run_one_way_without_dataclasses():
    # `normal_form` decides every group without `variants`; `variants` reads
    # `normal_form.Signature` only when it builds one
    code, modules = fresh_imports("-c", "import sympjoint.normal_form")
    assert code == 0
    assert "sympjoint.normal_form" in modules
    assert not modules & {"sympjoint.variants", "dataclasses"}
    code, modules = fresh_imports("-c", "import sympjoint.variants")
    assert code == 0
    assert "sympjoint.normal_form" in modules
    assert "dataclasses" not in modules


def test_lazy_export_import_is_reported():
    # a module loaded by reading `sympjoint.<module>` or `sympjoint.<export>`
    # is listed like one loaded by an import statement
    code, modules = fresh_imports("-c", "import sympjoint; sympjoint.variants; sympjoint.reynolds")
    assert code == 0
    assert {"sympjoint.variants", "sympjoint.symmetric"} <= modules


EXACT_LAYER = {"sympjoint.exact", "sympjoint.invariants"}
SYMBOLIC_LAYERS = {"sympjoint.poly", "sympjoint.symmetric", "sympjoint.discretize"}
# `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`: no command needs them
RECORD_MACHINERY = {"dataclasses", "inspect"}
NO_VARIANTS = SYMBOLIC_LAYERS | RECORD_MACHINERY | {"sympjoint.variants"}
# an ordered decision reads the basic set off `_gram_of`, with no `basic_set` record
NO_BASIC_SET_RECORD = {"sympjoint.field_generators"}
CONTACT = {"n": 1, "points": [{"x": [1], "y": [0], "u": 1}, {"x": [0], "y": [1], "u": 2}, {"x": [2], "y": [3], "u": 3}]}


@pytest.mark.parametrize(
    "argv,expected_code,absent",
    [
        (["discretize", "--case", "planar-i2"], 0, EXACT_LAYER | RECORD_MACHINERY),
        (["equiv", "CONFIG"], 64, EXACT_LAYER),  # usage error
        (["invariants", "CONFIG"], 0, NO_VARIANTS | {"sympjoint.normal_form"}),
        (["equiv", "CONFIG", "CONFIG"], 0, NO_VARIANTS | NO_BASIC_SET_RECORD),
        (["equiv", "CONFIG", "CONFIG", "--group", "csp"], 0, SYMBOLIC_LAYERS | RECORD_MACHINERY | NO_BASIC_SET_RECORD),
        (["equiv", "CONFIG", "CONFIG", "--group", "asp"], 0, NO_VARIANTS | NO_BASIC_SET_RECORD),
        (["equiv", "CONTACT", "CONTACT", "--group", "contact"], 0, SYMBOLIC_LAYERS | RECORD_MACHINERY),
        (["dims", "--max-m", "3", "--max-n", "1"], 0, NO_VARIANTS | {"sympjoint.normal_form"}),
        (["symmetrize", "--m", "3", "--n", "1", "--maxdeg", "2"], 0, RECORD_MACHINERY),
        (["syzygy-check", "CONFIG"], 0, SYMBOLIC_LAYERS | RECORD_MACHINERY),
        # the error is printed without the exact layer the command never used
        (["discretize", "--case", "planar-i2", "--at", "0"], 2, EXACT_LAYER | RECORD_MACHINERY),
    ],
)
def test_subcommand_loads_only_what_it_calls(tmp_path, argv, expected_code, absent):
    files = {
        "CONFIG": write_json(tmp_path / "a.json", {"n": 1, "points": [[1, 0], [0, 1], [2, 3], [1, 5]]}),
        "CONTACT": write_json(tmp_path / "c.json", CONTACT),
    }
    code, modules = fresh_imports("-m", "sympjoint.cli", *(files.get(a, a) for a in argv))
    assert code == expected_code
    assert "sympjoint" in modules
    assert not modules & absent


@pytest.mark.parametrize(
    "group,obj,message",
    [
        ("sp", {"n": 1, "points": "ab"}, "'points' must be a list, got 'ab'"),
        ("sp", {"n": 1, "points": ["ab"]}, "point 1 must be a list of 2n = 2 coordinates"),
        ("sp", {"n": 2, "points": [[1, 0, 0, 0], [0, 1, 0]]}, "point 2 must be a list of 2n = 4 coordinates"),
        ("contact", {"n": 1, "points": "ab"}, "'points' must be a list, got 'ab'"),
        ("contact", {"n": 1, "points": [{"x": [1], "y": [0]}]}, "point 1 must be an object with 'x' and 'y'"),
        ("contact", {"n": 1, "points": [[1, 0], [0, 1]]}, "point 1 must be an object with 'x' and 'y'"),
        ("contact", {"n": 1, "points": [{"x": [1], "y": [0], "u": 1}, {"x": "12", "y": [0], "u": 1}]}, "point 2 must be"),
        ("contact", {"n": 2, "points": [{"x": [1, 0], "y": [0], "u": 1}]}, "(lists of n = 2 coordinates)"),
        ("csp", {"n": 1, "points": [[1, 2]]}, "conformal signature needs at least two points"),
    ],
)
def test_config_shape_error_names_the_point(tmp_path, capsys, group, obj, message):
    path = write_json(tmp_path / "bad.json", obj)
    code = main(["equiv", path, path, "--group", group])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err


@pytest.mark.parametrize(
    "argv,obj,message",
    [
        (["invariants"], {"n": 1, "points": [[1, 0], ["1/0", 2]]}, "point 2: zero denominator in '1/0'"),
        (["syzygy-check"], {"n": 1, "points": [["1/0", 0]]}, "point 1: zero denominator in '1/0'"),
        (["equiv", "SAME"], {"n": 1, "points": [[1, 0], [0, "3/0"]]}, "point 2: zero denominator in '3/0'"),
        (
            ["equiv", "SAME", "--group", "contact"],
            {"n": 1, "points": [{"x": [1], "y": [0], "u": 1}, {"x": [2], "y": [0], "u": "1/0"}]},
            "point 2: zero denominator in '1/0'",
        ),
    ],
)
def test_zero_denominator_names_the_point(tmp_path, capsys, argv, obj, message):
    path = write_json(tmp_path / "bad.json", obj)
    code = main([argv[0], path, *(path if a == "SAME" else a for a in argv[1:])])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,obj,message",
    [
        (
            ["invariants"],
            {"n": 1, "points": [[1, "1e99999999"], [0, 1]]},
            "point 1: decimal exponent of '1e99999999' exceeds 4300 in magnitude",
        ),
        (
            ["equiv", "SAME", "--group", "contact"],
            {"n": 1, "points": [{"x": [1], "y": [0], "u": 1}, {"x": [2], "y": [0], "u": "-5e-99999999"}]},
            "point 2: decimal exponent of '-5e-99999999' exceeds 4300 in magnitude",
        ),
    ],
    ids=["invariants", "contact-u"],
)
def test_huge_decimal_exponent_is_a_prompt_input_error(tmp_path, argv, obj, message):
    """A 40-byte config once made Fraction build 10**99999999 and ran for minutes;
    the run is bounded at 5 s in a fresh process, so a hang fails the test."""
    path = write_json(tmp_path / "big.json", obj)
    src = os.path.dirname(os.path.dirname(sympjoint.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "sympjoint.cli", argv[0], path, *(path if a == "SAME" else a for a in argv[1:])],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=5,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [["--max-m", "1"], ["--max-m", "-3"], ["--max-n", "0"]])
def test_dims_bad_sizes_are_input_errors(capsys, args):
    code = main(["dims", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_symmetrize_reads_one_series(capsys, monkeypatch):
    from sympjoint import symmetric

    calls = []
    original = symmetric._molien_coeffs

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(symmetric, "_molien_coeffs", counted)
    code, out = run(capsys, "symmetrize", "--m", "4", "--n", "1", "--maxdeg", "10")
    assert code == 0
    assert json.loads(out)["graded_dims"] == [1, 0, 2, 2, 8, 6, 21, 20, 43, 48, 85]
    assert calls == [(4, 1, 10)]


def test_symmetrize_four_points_to_degree_ten(capsys):
    code, out = run(capsys, "symmetrize", "--m", "4", "--n", "1", "--maxdeg", "10")
    assert code == 0
    data = json.loads(out)
    assert data["graded_dims"] == [1, 0, 2, 2, 8, 6, 21, 20, 43, 48, 85]
    assert data["generators"] is None


@pytest.mark.parametrize(
    "args",
    [
        ["--m", "3", "--n", "1", "--maxdeg", "-1"],
        ["--m", "3", "--n", "0", "--maxdeg", "0"],
        ["--m", "-2", "--n", "1", "--maxdeg", "0"],
        ["--m", "0", "--n", "1", "--maxdeg", "2"],
        ["--m", "5", "--n", "1", "--maxdeg", "2"],  # m = 2n+3 stays refused
    ],
)
def test_symmetrize_bad_sizes_are_input_errors(capsys, args):
    code = main(["symmetrize", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_symmetrize_past_2n_plus_2_is_out_of_scope_not_a_cost(capsys):
    # five points in R^2 cost microseconds: the refusal names the scope, not a cost guard
    code = main(["symmetrize", "--m", "5", "--n", "1", "--maxdeg", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: graded dimensions are derived only for m <= 2n+2, where at most one Pfaffian relation holds;"
        " got m=5, n=1\n"
    )


@pytest.mark.parametrize("case,name", [("contact", "contact_estimates"), ("function", "function_estimates")])
@pytest.mark.parametrize("with_csv", [False, True])
def test_discretize_evaluates_each_step_once(tmp_path, capsys, monkeypatch, case, name, with_csv):
    from sympjoint import discretize

    calls = []
    original = getattr(discretize, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(discretize, name, counted)
    extra = ["--csv", str(tmp_path / "rows.csv")] if with_csv else []
    code, out = run(capsys, "discretize", "--case", case, *extra)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(calls) == len(discretize.DEFAULT_STEPS)
    assert sorted(args[-1] for args in calls) == sorted(discretize.DEFAULT_STEPS)
    if with_csv:
        rows = (tmp_path / "rows.csv").read_text().splitlines()[1:]
        assert len(rows) == len(reports) * len(discretize.DEFAULT_STEPS)


E1, E2, F1, F2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
# a12 = 0, so the signature relabels the points to (1, 5, 2, 3, 4)
RELABELED = PointConfig(2, (E1, E2, F2, (1, 1, 0, 0), F1))


def test_equiv_compares_the_second_under_the_first_relabeling(tmp_path, capsys):
    # generic in the order (1, 5, 2, 3, 4); its own fallback would fail (b1234 = 0)
    other = PointConfig(2, (E1, F1, E2, E2, (0, 0, 1, 1)))
    pa = write_json(tmp_path / "a.json", config_to_dict(RELABELED))
    pb = write_json(tmp_path / "b.json", config_to_dict(other))
    code, out = run(capsys, "equiv", pa, pb)
    assert code == 1
    data = json.loads(out)
    assert data["equivalent"] is False
    assert data["signature_a"] != data["signature_b"]
    assert data["signature_b"]["values"][:2] == ["1", "1"]  # a12, a13 of B in the order (1, 5, 2, 3, 4)


def test_equiv_witness_after_relabeling(tmp_path, capsys):
    b = RELABELED.transform(random_symplectic(2, 6, seed=4))
    pa = write_json(tmp_path / "a.json", config_to_dict(RELABELED))
    pb = write_json(tmp_path / "b.json", config_to_dict(b))
    code, out = run(capsys, "equiv", pa, pb)
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    witness = ExactMatrix([[rat(x) for x in row] for row in data["witness"]])
    for i in range(1, RELABELED.m + 1):
        assert witness.apply(RELABELED.point(i)) == b.point(i)


def test_equiv_sp_builds_each_basic_set_once(tmp_path, capsys, monkeypatch):
    # the witness reuses the basic sets the signatures checked: two tables, not four
    from sympjoint import normal_form
    from sympjoint.normal_form import recover_transform

    a = random_config(2, 7, seed=5)
    b = a.transform(random_symplectic(2, 6, seed=9))
    pa = write_json(tmp_path / "a.json", config_to_dict(a))
    pb = write_json(tmp_path / "b.json", config_to_dict(b))
    calls, build = [], normal_form._gram_of

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(normal_form, "_gram_of", counting)
    code, out = run(capsys, "equiv", "--group", "sp", pa, pb)
    assert code == 0 and len(calls) == 2
    witness = ExactMatrix([[rat(x) for x in row] for row in json.loads(out)["witness"]])
    assert witness == recover_transform(a, b)


def test_equiv_unordered_nongeneric_first_is_input_error(tmp_path, capsys):
    flat = write_json(tmp_path / "flat.json", {"n": 1, "points": [[1, 0], [2, 0], [3, 0]]})
    code, out = run(capsys, "equiv", flat, flat, "--unordered")
    assert code == 2
    assert json.loads(out)["error"] == "genericity"


def test_equiv_unordered_skips_nongeneric_orders_of_the_second(tmp_path, capsys):
    a = PointConfig(1, ((1, 0), (0, 1), (1, 0)))
    pa = write_json(tmp_path / "a.json", config_to_dict(a))
    pb = write_json(tmp_path / "b.json", config_to_dict(a.permute([1, 3, 2])))  # b12 = 0
    code, out = run(capsys, "equiv", pa, pb, "--unordered")
    assert code == 0
    assert json.loads(out)["relabeling"] == [1, 3, 2]


def test_equiv_contact_needs_n_at_least_one(tmp_path, capsys):
    path = write_json(tmp_path / "c.json", {"n": 0, "points": [{"x": [], "y": [], "u": 1}]})
    code = main(["equiv", path, path, "--group", "contact"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "n must be >= 1" in captured.err


@pytest.mark.parametrize("group", ["sp", "csp", "asp", "contact"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_equiv_verdict_is_signature_equality(group, data):
    coord = st.integers(-3, 3)
    m = data.draw(st.integers(2, 4))
    if group == "contact":
        draw_point = lambda: ContactPoint((data.draw(coord),), (data.draw(coord),), data.draw(coord))
        a = ContactConfig(1, tuple(draw_point() for _ in range(m)))
        move, to_dict = contact_lift_symplectic, contact_config_to_dict
    else:
        a = PointConfig(1, tuple((data.draw(coord), data.draw(coord)) for _ in range(m)))
        move, to_dict = (lambda M, c: c.transform(M)), config_to_dict
    kind = data.draw(st.sampled_from(["image", "perturbed"]))
    b = move(random_symplectic(1, 6, data.draw(st.integers(0, 10**6))), a)
    if kind == "perturbed":
        pts = list(to_dict(b)["points"])
        pts[-1] = to_dict(a)["points"][0]
        b_dict = {"n": 1, "points": pts}
    else:
        b_dict = to_dict(b)
    with tempfile.TemporaryDirectory() as tmp:
        pa = write_json(Path(tmp) / "a.json", to_dict(a))
        pb = write_json(Path(tmp) / "b.json", b_dict)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["equiv", pa, pb, "--group", group])
    out = json.loads(stdout.getvalue())
    if code == 2:
        assert out["error"] == "genericity"
        return
    assert out["equivalent"] is (code == 0)
    assert out["equivalent"] is (out["signature_a"] == out["signature_b"])
    if kind == "image":
        assert out["equivalent"] is True


SIX_POINTS = {"n": 1, "points": [[1, 0], [0, 1], [2, 3], [1, 5], [3, -2], [-1, 4]]}


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "CONFIG"],
        ["syzygy-check", "CONFIG"],
        ["syzygy-check", "--identities"],
        ["dims"],
        ["symmetrize", "--m", "3", "--n", "1", "--maxdeg", "4"],
    ],
    ids=" ".join,
)
def test_subcommand_succeeds_in_a_fresh_process(tmp_path, argv):
    """Each subcommand imports its own modules, so an import fault shows only
    in a process of that command."""
    path = write_json(tmp_path / "c.json", SIX_POINTS)
    code, _ = fresh_imports("-m", "sympjoint.cli", *(path if a == "CONFIG" else a for a in argv))
    assert code == 0


def test_dims_stabilizer_row_for_n3(capsys):
    code, out = run(capsys, "dims", "--max-n", "3")
    assert code == 0
    assert "  n=3: k=0:21 k=1:15 k=2:10 k=3:6 k=4:3 k=5:1 k=6:0" in out.splitlines()


def test_symmetrize_six_points_n2_to_degree_ten(capsys):
    code, out = run(capsys, "symmetrize", "--m", "6", "--n", "2", "--maxdeg", "10")
    assert code == 0
    assert json.loads(out)["graded_dims"] == [1, 0, 2, 2, 14, 22, 90, 181, 555, 1177, 2932]


@pytest.mark.parametrize("case", ["planar-i2", "general-i2", "derivation", "contact", "function"])
def test_every_discretize_case_passes(capsys, case):
    code, out = run(capsys, "discretize", "--case", case)
    assert code == 0
    assert all(report["passed"] for report in json.loads(out)["reports"].values())


RATIONAL_A = {
    "n": 2,
    "points": [["1/2", 0, 0, "-3/4"], [0, "2/3", 1, 0], [0, 0, "5/6", 1], [1, "1/3", 0, "-2/5"], ["7/2", 1, "1/7", 0]],
}
# RATIONAL_A under the integer symplectic map random_symplectic(2, 3, seed=11)
RATIONAL_B = {
    "n": 2,
    "points": [
        ["1/2", "99/4", 83, "993/4"],
        [0, "56/3", 63, 186],
        [0, -27, "-535/6", -269],
        [1, "437/15", 98, "1468/5"],
        ["7/2", "119/2", "2823/14", "1209/2"],
    ],
}


def test_equiv_rational_pair_with_witness(tmp_path, capsys):
    """"p/q" coordinates take the denominator-clearing branch of the Gram
    table, its Pfaffians and the witness solve."""
    pa = write_json(tmp_path / "a.json", RATIONAL_A)
    pb = write_json(tmp_path / "b.json", RATIONAL_B)
    code, out = run(capsys, "equiv", pa, pb)
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    witness = ExactMatrix([[rat(x) for x in row] for row in data["witness"]])
    assert witness == random_symplectic(2, 3, seed=11)
    a, b = (PointConfig(2, tuple(obj["points"])) for obj in (RATIONAL_A, RATIONAL_B))
    for i in range(1, a.m + 1):
        assert witness.apply(a.point(i)) == b.point(i)


def test_syzygy_check_rational_coordinates(tmp_path, capsys):
    obj = {"n": 1, "points": [["1/2", 0], [0, "2/3"], ["3/4", "-5/7"], [1, "5/9"], ["-3/2", "2/11"], ["1/12", 4]]}
    code, out = run(capsys, "syzygy-check", write_json(tmp_path / "c.json", obj))
    assert code == 0
    data = json.loads(out)
    assert data["minimal_syzygies"] == {"count": 15, "all_zero": True, "nonzero_at": []}
    assert data["q_syzygies"] == {"count": 1, "all_zero": True, "nonzero_at": []}


def test_dims_cost_guard_refuses_past_the_bound(capsys):
    from sympjoint.cli import _MAX_DIMS_N

    assert _MAX_DIMS_N == 20
    code = main(["dims", "--max-n", "21"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: cost guard: need --max-n <= 20, got 21\n"


def test_dims_max_m_cost_guard_admits_the_bound(capsys):
    from sympjoint.cli import _MAX_DIMS_M

    assert _MAX_DIMS_M == 10_000
    code, out = run(capsys, "dims", "--max-m", "10000", "--max-n", "1")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.split()[:1] and line.split()[0].isdigit()]
    # both tables run m = 2..10000: d(m, 1) = 2m - 3 and bbar(m, 1) = 3m - 4
    assert len(rows) == 2 * 9_999
    assert rows[9_998] == ["10000", "19997"]
    assert rows[-1] == ["10000", "29996"]


def test_dims_max_m_cost_guard_refuses_past_the_bound(capsys):
    code = main(["dims", "--max-m", "10001", "--max-n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: cost guard: need --max-m <= 10000, got 10001\n"


@pytest.mark.parametrize("n, m", [(1, 22), (1, 200), (2, 17)])
def test_syzygy_check_answers_past_the_old_cost_guard(tmp_path, capsys, n, m):
    # one rank of the Gram table decides every syzygy: no C(m, 2n+2) expansion
    path = write_json(tmp_path / "c.json", config_to_dict(random_config(n, m, seed=3)))
    code, out = run(capsys, "syzygy-check", path)
    assert code == 0
    assert json.loads(out) == {
        "minimal_syzygies": {"count": math.comb(m, 2 * n + 2), "all_zero": True, "nonzero_at": []},
        "q_syzygies": {"count": math.comb(m, 4 * n + 2), "all_zero": True, "nonzero_at": []},
    }


def test_equiv_contact_with_vanishing_r12(tmp_path, capsys):
    # R_12 = 0 and m = 4 >= 2n + 2: decided (exit 0 and 1), not refused
    planes, us = [(1, 2), (2, 4), (0, 1), (3, -1)], [1, 0, 2, -1]
    a = ContactConfig(1, tuple(ContactPoint(p[:1], p[1:], u) for p, u in zip(planes, us)))
    b = contact_lift_symplectic(random_symplectic(1, 6, seed=8), a)
    pts = list(b.points)
    pts[1] = ContactPoint(pts[1].x, pts[1].y, pts[1].u + 1)
    pa, pb, pc = (
        write_json(tmp_path / f"{name}.json", contact_config_to_dict(cfg))
        for name, cfg in (("a", a), ("b", b), ("c", ContactConfig(1, tuple(pts))))
    )
    for other, expected in ((pb, 0), (pc, 1)):
        code, out = run(capsys, "equiv", pa, other, "--group", "contact")
        assert code == expected
        assert json.loads(out)["equivalent"] is (expected == 0)


@pytest.mark.parametrize(
    "group,move",
    [("csp", lambda c: c.scale(rat(1, 2))), ("asp", lambda c: c.translate((rat(1, 3), -2)))],
)
def test_equiv_unordered_beyond_sp(tmp_path, capsys, group, move):
    a = random_config(1, 5, random.Random(94))
    b = move(a.transform(random_symplectic(1, 8, seed=22))).permute([3, 5, 1, 2, 4])
    pa = write_json(tmp_path / "a.json", config_to_dict(a))
    pb = write_json(tmp_path / "b.json", config_to_dict(b))
    code, out = run(capsys, "equiv", pa, pb, "--group", group, "--unordered")
    assert code == 0
    assert json.loads(out) == {"group": group, "equivalent": True, "relabeling": [3, 4, 1, 5, 2]}
    perturbed = config_to_dict(b)
    perturbed["points"][2][0] = str(b.point(3)[0] + 1)
    pc = write_json(tmp_path / "c.json", perturbed)
    code, out = run(capsys, "equiv", pa, pc, "--group", group, "--unordered")
    assert code == 1
    assert json.loads(out) == {"group": group, "equivalent": False, "relabeling": None}


def test_equiv_unordered_refusals(tmp_path, capsys):
    contact = write_json(tmp_path / "c.json", {"n": 1, "points": [{"x": [1], "y": [0], "u": 1}] * 2})
    seven = write_json(tmp_path / "s.json", config_to_dict(random_config(1, 7, seed=5)))
    for argv, message in (
        ([contact, contact, "--group", "contact"], "unordered comparison is not provided for the contact group"),
        ([seven, seven], "unordered comparison is limited to m <= 6"),
    ):
        code = main(["equiv", *argv, "--unordered"])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("case,at,shown", [("contact", "1e200", "1e+200"), ("function", "1e200,1", "1e+200,1.0")])
def test_discretize_float_overflow_is_named(capsys, case, at, shown):
    code = main(["discretize", "--case", case, "--at", at])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"error: --case {case} --at {shown}: a value overflows the float range\n")


def test_equiv_unordered_refuses_unequal_shapes(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", config_to_dict(PointConfig(1, ((1, 0), (0, 1)))))
    b = write_json(tmp_path / "b.json", config_to_dict(PointConfig(1, ((1, 0), (0, 1), (1, 1)))))
    code = main(["equiv", a, b, "--unordered"])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", "error: configurations must share (n, m)\n")


def test_discretize_refuses_a_curve_of_another_case(capsys):
    code = main(["discretize", "--case", "planar-i2", "--curve", "quartic-r4"])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", "error: curve 'quartic-r4' does not fit case 'planar-i2'\n")


def test_invariants_names_a_two_digit_label_with_an_underscore(tmp_path, capsys):
    # a3_12 = 10^4400 is the first value past the int string limit
    points = [[1, k] for k in range(1, 13)]
    points[2], points[11] = ["1e2200", 0], [0, "1e2200"]
    code = main(["invariants", write_json(tmp_path / "c.json", {"n": 1, "points": points})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: output value a3_12 has more than 4300 digits")
