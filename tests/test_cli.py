import json

import pytest

from sympjoint.cli import main
from sympjoint.exact import ExactMatrix, random_symplectic, rat
from sympjoint.invariants import PointConfig, config_to_dict, random_config
from sympjoint.variants import ContactConfig, ContactPoint, contact_config_to_dict, contact_transform

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


def test_fractional_n_contact_config_is_input_error(tmp_path, capsys):
    bad = {"n": 1.9, "points": [{"x": [1], "y": [2], "u": 3}, {"x": [0], "y": [1], "u": 1}]}
    path = write_json(tmp_path / "bad.json", bad)
    code = main(["equiv", path, path, "--group", "contact"])
    err = capsys.readouterr().err
    assert code == 2
    assert "'n' must be an integer" in err
    assert "Traceback" not in err
