import json
import os

import pytest

from conelab.cli import main


def run(argv):
    return main(argv)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_constants_subcommand_all_checks_true(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run(["constants", "-n", "2", "-m", "1", "-s", "1.5",
                "--alpha", "0.5", "--out", out])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "constants.json").read_text())
    assert payload["schema_version"] == 1
    assert all(payload["checks"].values())
    assert payload["report"]["K_dir"] == 24


def test_invalid_alpha_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       {"measure": {"kind": "lebesgue", "n": 2}, "alpha": 1.5})
    code = run(["density", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json",
                       {"measure": {"kind": "lebesgue"}, "bogus": 1})
    code = run(["measure", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_unknown_measure_kind_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.json", {"measure": {"kind": "nope"}})
    code = run(["measure", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.mark.parametrize("spec", [{"k": 1}, {"n": "x"}, {"n": 0}])
def test_bad_lebesgue_spec_exits_2(tmp_path, capsys, spec):
    cfg = write_config(tmp_path, "bad.json",
                       {"measure": {"kind": "lebesgue", **spec}})
    code = run(["measure", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_measure_csv_deterministic_across_threads(tmp_path):
    cfg = write_config(tmp_path, "m.json", {
        "measure": {"kind": "lebesgue", "n": 1},
        "sample": 4, "radii": [0.1, 0.2]})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["measure", "--config", cfg, "--seed", "7", "--threads", "1",
                "--out", out1]) == 0
    assert run(["measure", "--config", cfg, "--seed", "7", "--threads", "4",
                "--out", out2]) == 0
    a = (tmp_path / "a" / "measure.csv").read_bytes()
    b = (tmp_path / "b" / "measure.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "experiment,point,scale_index,radius,quantity,lo,hi,metadata"


def test_hom_subcommand(tmp_path):
    cfg = write_config(tmp_path, "h.json", {
        "measure": {"kind": "constant-binomial", "q": 0.25},
        "i": 1, "l_max": 5})
    out = str(tmp_path / "out")
    assert run(["hom", "--config", cfg, "--out", out]) == 0
    rows = (tmp_path / "out" / "hom.csv").read_text().splitlines()[1:]
    assert len(rows) == 5
    for row in rows:
        lo = float(row.split(",")[5])
        assert abs(lo - 0.5) < 1e-12


def test_doubling_subcommand(tmp_path):
    cfg = write_config(tmp_path, "d.json", {
        "measure": {"kind": "lebesgue", "n": 1},
        "sample": 2, "l": 8, "p": 0.5})
    out = str(tmp_path / "out")
    assert run(["doubling", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "doubling.json").read_text())
    assert payload["frequencies"] == [1.0, 1.0]


def test_density_subcommand(tmp_path):
    cfg = write_config(tmp_path, "p.json", {
        "measure": {"kind": "lebesgue", "n": 2},
        "points": [[0.5, 0.5]], "alpha": 0.5, "m": 1,
        "r0": 0.25, "levels": 2})
    out = str(tmp_path / "out")
    assert run(["density", "--config", cfg, "--depth", "8", "--out", out]) == 0
    rows = (tmp_path / "out" / "density.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        cells = row.split(",")
        assert float(cells[5]) <= float(cells[6])


def test_ef_subcommand(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert run(["ef", "-n", "2", "--alpha", "0.1", "--trials", "50",
                "--seed", "1", "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "ef.json").read_text())
    assert payload["counterexample_found"] is True


def test_verify_example_3_passes(tmp_path):
    out = str(tmp_path / "out")
    assert run(["verify-example", "3", "--seed", "3", "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "verify-example-3.json").read_text())
    assert payload["verdict"] is True


def test_verify_example_resource_guard(tmp_path):
    out = str(tmp_path / "out")
    assert run(["verify-example", "1", "--depth", "100", "--out", out]) == 4
