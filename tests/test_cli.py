import hashlib
import json
import os
import pathlib

import pytest

from conelab import cli, measure
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


LEB1 = {"kind": "lebesgue", "n": 1}
LEB2 = {"kind": "lebesgue", "n": 2}
DENSITY = {"measure": LEB2, "points": [[0.5, 0.5]], "alpha": 0.9, "levels": 1}
DOUBLING = {"measure": LEB1, "points": [[0.5]], "l": 3}


@pytest.mark.parametrize("command, payload", [
    ("measure", {"measure": {"kind": "lebesgue", "n": True}}),
    ("measure", {"measure": LEB2, "radii": 5}),
    ("measure", {"measure": LEB1, "radii": []}),
    ("measure", {"measure": LEB1, "radius": True}),
    ("measure", {"measure": LEB1, "sample": "x"}),
    ("measure", {"measure": LEB1, "sample": 0}),
    ("measure", {"measure": LEB2, "points": [[0.5]]}),
    ("measure", {"measure": LEB2, "points": [[0.5, "x"]]}),
    ("density", {**DENSITY, "levels": "x"}),
    ("density", {**DENSITY, "levels": "1"}),
    ("density", {**DENSITY, "r0": "0.2"}),
    ("density", {**DENSITY, "alpha": True}),
    ("density", {**DENSITY, "alpha": 1}),
    ("density", {**DENSITY, "m": "1"}),
    ("doubling", {**DOUBLING, "l": "3"}),
    ("doubling", {**DOUBLING, "gamma": 0}),
    ("doubling", {**DOUBLING, "k": 1}),
    ("doubling", {**DOUBLING, "p": "0.5"}),
    ("doubling", {**DOUBLING, "c": "x"}),
    ("hom", {"measure": {"kind": "rotating-ball"}}),
    ("hom", {"measure": {"kind": "strip-block"}}),
    ("hom", {"measure": {"kind": "binomial"}, "i": 5}),
    ("hom", {"measure": {"kind": "binomial"}, "l_max": "4"}),
    ("measure", 5),
    ("density", None),
    ("hom", "abc"),
    ("doubling", []),
], ids=["n-bool", "radii-number", "radii-empty", "radius-bool", "sample-string",
        "sample-0", "point-1d-on-2d", "point-string-coordinate", "levels-x",
        "levels-string", "r0-string", "alpha-bool", "alpha-1", "m-string", "l-string",
        "gamma-0", "k-1", "p-string", "c-string", "hom-rotating-ball",
        "hom-strip-block", "hom-i-out-of-range", "l_max-string", "config-number",
        "config-null", "config-string", "config-list"])
def test_bad_config_field_exits_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "bad.json", payload)
    code = run([command, "--config", cfg, "--depth", "4", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert isinstance(payload, dict) or "config must be a JSON object" in err


SAMPLED = {"measure": {"measure": LEB1, "sample": 2},
           "density": {"measure": LEB2, "sample": 1, "alpha": 0.9, "levels": 1},
           "doubling": DOUBLING}
CHAIN = ["constants", "-n", "3", "-m", "1", "-s", "2", "--alpha", "0.5"]


@pytest.mark.parametrize("argv", [
    ["measure", "--depth", "-1"],
    ["density", "--depth", "-1"],
    ["doubling", "--depth", "-1"],
    ["verify-example", "2", "--depth", "-1"],
    ["measure", "--seed", "-1"],
    ["density", "--seed", "-1"],
    ["ef", "-n", "2", "--alpha", "0.1", "--seed", "-1"],
    ["ef", "-n", "2", "--alpha", "0.1", "--trials", "-1"],
    ["constants", "-n", "2", "-m", "1", "-s", "2", "--alpha", "1"],
    ["constants", "-n", "2", "-m", "-1", "-s", "1", "--alpha", "0.5"],
    CHAIN + ["--q", "0"],
    CHAIN,
    ["verify-example", "1", "--depth", "9"],
    ["verify-example", "2", "--depth", "2"],
    ["verify-example", "3", "--depth", "2"],
    ["verify-example", "3", "--depth", "5"],
], ids=["measure-depth", "density-depth", "doubling-depth", "verify-example-depth",
        "measure-seed", "density-seed", "ef-seed", "ef-trials", "constants-alpha-1",
        "constants-m", "constants-q-0", "constants-no-q", "example-1-depth-9",
        "example-2-depth-2", "example-3-depth-2", "example-3-depth-5"])
def test_bad_flag_exits_2(tmp_path, capsys, argv):
    if argv[0] in SAMPLED:
        argv = argv + ["--config", write_config(tmp_path, "cfg.json", SAMPLED[argv[0]])]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_example_depth_error_names_the_range(tmp_path, capsys):
    for which, depth, accepted in (("1", "9", "10..40"), ("2", "1", "3..256"), ("3", "5", "6..8")):
        assert run(["verify-example", which, "--depth", depth, "--out", str(tmp_path)]) == 2
        assert accepted in capsys.readouterr().err


def test_depth_0_means_the_default(tmp_path):
    cfg = write_config(tmp_path, "m.json", SAMPLED["measure"])
    for name, extra in (("zero", ["--depth", "0"]), ("absent", [])):
        assert run(["measure", "--config", cfg, "--out", str(tmp_path / name)] + extra) == 0
    zero, absent = tmp_path / "zero", tmp_path / "absent"
    assert (zero / "measure.csv").read_bytes() == (absent / "measure.csv").read_bytes()
    assert json.loads((zero / "measure.json").read_text())["depth"] == 12


def test_broken_separation_inequality_exits_3(tmp_path, monkeypatch, capsys):
    from conelab import density

    def broken(alpha):
        raise ArithmeticError(f"t = 2.0 breaks (1 - eps) t - 1 > 0 at alpha = {alpha!r}")

    monkeypatch.setattr(density, "compute_t", broken)
    argv = ["constants", "-n", "2", "-m", "1", "-s", "1.5", "--alpha", "0.5", "--q", "3",
            "--out", str(tmp_path)]
    assert run(argv) == 3
    assert "breaks (1 - eps) t - 1 > 0" in capsys.readouterr().err


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


# verify-example 2 at its cap depth, recorded when every level built its
# whole fan of 2 i^2 siblings: the hits at levels 2..256 and the sha256 of
# the CSV and of the JSON summary written under --out out
VERIFY_EXAMPLE_2_CAP = {
    "hits": [3] * 255,
    "verify-example-2.csv": "7d085802ac0ab902d2bfdfb7d5390b58b72f41d28157558290b30af5daf5b89d",
    "verify-example-2.json": "dfdde8547a56070371a44703c9600326d4258879824948e6281249ff11ff0dc4",
}


def test_verify_example_2_at_its_cap_depth_is_unchanged_bit_for_bit(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["verify-example", "2", "--depth", "256", "--out", "out"]) == 0
    out = tmp_path / "out"
    assert json.loads((out / "verify-example-2.json").read_text())["hits"] == \
        VERIFY_EXAMPLE_2_CAP["hits"]
    for name in ("verify-example-2.csv", "verify-example-2.json"):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            VERIFY_EXAMPLE_2_CAP[name], name


def test_measure_exits_4_below_rotating_ball_resolution(tmp_path):
    assert cli.ResourceGuard is measure.ResourceGuard
    cfg = write_config(tmp_path, "rb.json", {"measure": {"kind": "rotating-ball"},
                                             "sample": 2, "radius": 0.001})
    out = str(tmp_path / "out")
    assert run(["measure", "--config", cfg, "--depth", "9", "--out", out]) == 0
    # the default depth 12 needs radii from level 10 on, R_10 ~ 7.4e-17
    assert run(["measure", "--config", cfg, "--out", out]) == 4


def test_measure_exits_4_below_kadic_resolution(tmp_path):
    # the ball's boundary lies 2^-52 inside 1, so the walk refines the cubes
    # next to 1 down to the depth budget; level 49 there is refused
    cfg = write_config(tmp_path, "deep.json", {"measure": {"kind": "lebesgue", "n": 1},
                                               "points": [[0.5]], "radius": 0.5 - 2.0 ** -52})
    out = str(tmp_path / "out")
    assert run(["measure", "--config", cfg, "--depth", "48", "--out", out]) == 0
    assert run(["measure", "--config", cfg, "--depth", "49", "--out", out]) == 4


# Small fixed runs of every subcommand. tests/cli_golden.json holds, for each,
# the exit code, stdout, CSV text and JSON summary (without its csv path)
# recorded before the CLI's steps were folded into shared helpers.
GOLDEN_RUNS = {
    "measure": (["measure", "--depth", "6", "--seed", "5"],
                {"measure": {"kind": "binomial"}, "sample": 2, "radii": [0.1, 0.25]}),
    "density": (["density", "--depth", "6"], DENSITY),
    "hom": (["hom"], {"measure": {"kind": "constant-binomial", "q": 0.25},
                      "i": 2, "l_max": 4}),
    "doubling": (["doubling", "--depth", "8", "--seed", "2"],
                 {"measure": LEB1, "sample": 2, "l": 3}),
    "constants": (["constants", "-n", "2", "-m", "0", "-s", "1.5", "--alpha", "0.9",
                   "--q", "1"], None),
    "ef": (["ef", "-n", "2", "--alpha", "0.1", "--trials", "50", "--seed", "1"], None),
    "verify-example-1": (["verify-example", "1", "--depth", "10", "--seed", "8"], None),
    "verify-example-2": (["verify-example", "2", "--depth", "5"], None),
    "verify-example-3": (["verify-example", "3", "--depth", "6", "--seed", "3"], None),
}
CLI_GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


def golden_outputs(tmp_path, capsys, case):
    """Exit code, stdout and output files of one GOLDEN_RUNS case."""
    argv, config = GOLDEN_RUNS[case]
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, "cfg.json", config)]
    out = tmp_path / "out"
    capsys.readouterr()
    code = run(argv + ["--out", str(out)])
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            files[path.name] = path.read_bytes().decode("utf-8")
        else:
            summary = json.loads(path.read_text(encoding="utf-8"))
            summary.pop("csv", None)
            files[path.name] = summary
    return {"exit": code, "stdout": capsys.readouterr().out, "files": files}


@pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
def test_cli_golden(tmp_path, capsys, case):
    assert golden_outputs(tmp_path, capsys, case) == CLI_GOLDEN[case]
