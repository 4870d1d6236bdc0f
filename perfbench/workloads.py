"""The benchmark's workloads.

`setup(seed, workdir)` builds a workload's inputs from the seed and returns
its ops. An op is one call into conelab's public API; its check compares the
result with the exact oracles in `oracles` and returns the misses, so an
empty list means the result is correct. The program receives only the
generated inputs.

Why these three: `doubling-deep-1d` runs deep, narrow ball-only walks, so
per-node overhead dominates and no cone or net code runs. `cone-net-2d` runs
wide 2-d frontiers through the cone predicates and the net-minimization
loop. `cli-mix` is the only one that goes through argument and config
parsing, the thread pool, file output, per-command net construction and
the rotating-ball, strip/block and configuration code. A change to one of
these layers should move one workload and leave the others flat.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

ALPHA = 0.5
# units in the last place allowed between an enclosure bound and an exact
# value: node masses are products of at most `depth` rounded weights and a
# ball mass sums them, so binomial checks scale with the depth budget;
# Lebesgue masses are exact dyadics and only the final division and the
# oracle's trigonometry round.
PLANAR_ULPS = 16


def depth_ulps(depth: int) -> int:
    return 4 * depth + 16


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    widths: Callable[[object], list] = lambda result: []
    # (undecided scales, scales) of a doubling result
    scales: Callable[[object], tuple] = lambda result: (0, 0)
    reset: Callable[[], None] = lambda: None


@dataclass
class Prepared:
    ops: list
    configs: dict = field(default_factory=dict)   # name -> bytes hashed into the manifest
    depths: dict = field(default_factory=dict)
    # summarise latencies per op (median across rounds) before taking the
    # median and tail, for a workload whose run is too short to give ten
    # latencies beyond a tail percentile
    per_op_summary: bool = False


# ---------------------------------------------------------------------------
# doubling-deep-1d


def doubling_deep_1d(seed: int, workdir: str) -> Prepared:
    """doubling_frequency at 24 mu-sampled binomial points and 2 Lebesgue
    points: gamma 1, k 2, l 30, depth 45, c = doubling_constant(1, 2, 0.9).
    Both trees are shared by every op, so their child memo stays warm."""
    from conelab import constructions, homogeneity, measure

    gamma, k, l, depth = 1.0, 2, 30, 45
    c = homogeneity.doubling_constant(1, k, 0.9)
    binom = constructions.binomial_tree()
    leb = measure.lebesgue_tree(1)
    inputs = [("binomial", binom, x) for x in binom.sample_points(24, depth, seed=seed)]
    inputs += [("lebesgue", leb, x) for x in leb.sample_points(2, depth, seed=seed)]
    ulps = depth_ulps(depth)

    def make(kind, tree, x):
        exact_ball = oracles.binomial_ball if kind == "binomial" else oracles.lebesgue_ball_1d
        masses = []

        def check(st):
            if not masses:
                masses.extend(exact_ball(float(x[0]), gamma * float(k) ** -j)
                              for j in range(l + 1))
            misses = []
            fewest, most = oracles.doubling_count_range(masses, c, st.undecided, ulps)
            if not fewest <= st.count <= most:
                misses.append(f"count {st.count} outside exact range [{fewest}, {most}]")
            if kind == "lebesgue" and st.frequency != 1.0:
                misses.append(f"Lebesgue frequency {st.frequency} != 1.0")
            return misses

        return Op(label=f"{kind}@{float(x[0])!r}",
                  call=lambda: homogeneity.doubling_frequency(tree, x, gamma, k, c, l, depth),
                  check=check,
                  widths=lambda st: [len(st.undecided) / st.l],
                  scales=lambda st: (len(st.undecided), st.l))

    spec = {"gamma": gamma, "k": k, "l": l, "depth": depth, "c": c,
            "points": [[kind, float(x[0])] for kind, _, x in inputs]}
    return Prepared([make(*item) for item in inputs],
                    configs={"inputs": _canonical(spec)},
                    depths={"doubling_frequency": depth})


# ---------------------------------------------------------------------------
# cone-net-2d

R0 = 0.14
# op mix, one entry per point: est = worst_cone_ratio with its estimate
# (1 + 2 K_sub K_dir traversals), c05 = the criterion-05 early-stop mode,
# hsd = halfspace_deficiency. Each kind is a third of the ops, and est is
# the slowest, so the median falls among c05 latencies and the tail (at
# least ten latencies beyond it, four to eight rounds a run) among est.
CONE_MODES = ("est", "c05", "hsd") * 4
EXTRA_DEPTH = {"est": 1, "c05": 5, "hsd": 2}


def cone_net_2d(seed: int, workdir: str) -> Prepared:
    """Net-minimized cone ratios on 2-d Lebesgue measure at mu-sampled points,
    radii R0 2^-j (j = 1..4) and depth ceil(-log2 r) + EXTRA_DEPTH[mode]; every
    ball lies inside the unit square, where exact arc ratios apply."""
    from conelab import density, geometry, measure

    tree = measure.lebesgue_tree(2)
    dir_net = geometry.build_direction_net(2, ALPHA, seed=0)
    sub_net = geometry.build_subspace_net(2, 1, ALPHA, seed=0)
    candidates = tree.sample_points(64, 8, seed=seed)
    points = [x for x in candidates if min(x.min(), (1.0 - x).min()) > R0 / 2][:len(CONE_MODES)]
    if len(points) < len(CONE_MODES):
        raise RuntimeError("too few sampled points clear of the boundary")

    lines = [V.frame[0] for V in sub_net.planes]
    thetas = list(dir_net.directions)
    exact = {
        "cone_half": oracles.net_min_cone_ratio_2d(lines, thetas, ALPHA / 2),
        "cone_full": oracles.net_min_cone_ratio_2d(lines, thetas, ALPHA),
        "half_half": oracles.halfspace_ratio_2d(ALPHA / 2),
        "half_full": oracles.halfspace_ratio_2d(ALPHA),
    }

    def check_ratio(res, lower_key, full_key):
        misses = []
        if not res.lower_bound <= exact[lower_key] + oracles.slack(exact[lower_key], PLANAR_ULPS):
            misses.append(f"lower_bound {res.lower_bound} above exact {exact[lower_key]}")
        est = res.estimate
        if full_key is not None:
            if est is None or not oracles.contains(est.lo, exact[full_key], est.hi, PLANAR_ULPS):
                misses.append(f"estimate {est} misses exact {exact[full_key]}")
            elif res.lower_bound > est.hi + oracles.slack(est.hi, PLANAR_ULPS):
                misses.append(f"lower_bound {res.lower_bound} > estimate.hi {est.hi}")
        return misses

    def make(i, x, mode):
        r = R0 * 2.0 ** -(1 + i % 4)
        depth = math.ceil(-math.log2(r)) + EXTRA_DEPTH[mode]
        if mode == "est":
            call = lambda: density.worst_cone_ratio(tree, x, r, ALPHA, dir_net, sub_net,
                                                    depth, compute_estimate=True)
            check = lambda res: check_ratio(res, "cone_half", "cone_full")
        elif mode == "c05":
            call = lambda: density.worst_cone_ratio(tree, x, r, ALPHA, dir_net, sub_net,
                                                    depth, compute_estimate=False,
                                                    early_stop_lo=1e-6)
            check = lambda res: check_ratio(res, "cone_half", None)
        else:
            call = lambda: density.halfspace_deficiency(tree, x, r, ALPHA, dir_net, depth)
            check = lambda res: check_ratio(res, "half_half", "half_full")
        return Op(label=f"{mode}@({float(x[0])!r},{float(x[1])!r})r={r!r}d={depth}",
                  call=call, check=check, widths=lambda res: [res.enclosure.width])

    ops = [make(i, x, mode) for i, (x, mode) in enumerate(zip(points, CONE_MODES))]
    spec = {"alpha": ALPHA, "K_dir": dir_net.size, "K_sub": sub_net.size,
            "ops": [op.label for op in ops]}
    return Prepared(ops, configs={"inputs": _canonical(spec)},
                    depths={m: f"ceil(-log2 r) + {d}" for m, d in EXTRA_DEPTH.items()})


# ---------------------------------------------------------------------------
# cli-mix


@dataclass
class CliRun:
    code: int
    output: str   # stdout and stderr
    out: str      # the --out directory


def _read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _point(text: str) -> list:
    return [float(v) for v in text.strip("()").split()]


def cli_mix(seed: int, workdir: str) -> Prepared:
    """One op per conelab subcommand, run in-process through cli.main on
    configs generated here, at the default --threads and with a private
    --out directory for every op."""
    from conelab import cli

    rng = np.random.default_rng(seed)
    configs: dict = {}

    def config(name, payload):
        text = _canonical(payload)
        configs[name] = text
        path = os.path.join(workdir, name)
        with open(path, "wb") as fh:
            fh.write(text)
        return path

    m2_points = rng.uniform(0.3, 0.7, (3, 2)).tolist()
    m2 = config("measure-2d.json", {"measure": {"kind": "lebesgue", "n": 2},
                                     "points": m2_points, "radii": [0.1, 0.05]})
    mb_points = rng.uniform(0.02, 0.98, (3, 1)).tolist()
    mb = config("measure-binomial.json", {"measure": {"kind": "binomial"},
                                          "points": mb_points, "radii": [0.01, 0.001]})
    dens = config("density.json", {"measure": {"kind": "lebesgue", "n": 2},
                                    "points": rng.uniform(0.35, 0.65, (2, 2)).tolist(),
                                    "alpha": ALPHA, "m": 1, "r0": 0.2, "levels": 1})
    dbl_l = 12
    dbl = config("doubling.json", {"measure": {"kind": "binomial"},
                                   "points": rng.uniform(0.02, 0.98, (8, 1)).tolist(),
                                   "l": dbl_l})
    q = float(rng.uniform(0.05, 0.45))
    hom_l = 20
    hom = config("hom.json", {"measure": {"kind": "constant-binomial", "q": q},
                              "l_max": hom_l})
    ef_seed = int(rng.integers(2 ** 31))
    mb_depth, m2_depth, dens_depth, ve2_depth = 30, 11, 5, 24
    dbl_depth = dbl_l + 15  # the CLI default for doubling
    dbl_c = 2.0 ** (-2.0 / (1.0 - 0.5))  # doubling_constant(1, 2, p=0.5), the CLI default p

    def rows_of(run, name):
        return _read_rows(os.path.join(run.out, f"{name}.csv"))

    def summary_of(run, name):
        with open(os.path.join(run.out, f"{name}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def check_measure_2d(run):
        rows = rows_of(run, "measure")
        misses = [] if len(rows) == 6 else [f"{len(rows)} rows, expected 6"]
        for row in rows:
            exact = oracles.disk_area(_point(row["point"]), float(row["radius"]))
            if not oracles.contains(float(row["lo"]), exact, float(row["hi"]), PLANAR_ULPS):
                misses.append(f"[{row['lo']}, {row['hi']}] misses pi r^2 = {exact!r}")
        return misses

    def check_measure_binomial(run):
        rows = rows_of(run, "measure")
        misses = [] if len(rows) == 6 else [f"{len(rows)} rows, expected 6"]
        for row in rows:
            exact = float(oracles.binomial_ball(_point(row["point"])[0], float(row["radius"])))
            if not oracles.contains(float(row["lo"]), exact, float(row["hi"]),
                                    depth_ulps(mb_depth)):
                misses.append(f"[{row['lo']}, {row['hi']}] misses exact {exact!r}")
        return misses

    def check_density(run):
        rows = rows_of(run, "density")
        misses = [] if len(rows) == 2 else [f"{len(rows)} rows, expected 2"]
        bound = oracles.cone_ratio_2d_sup(ALPHA / 2)
        for row in rows:
            lo, hi = float(row["lo"]), float(row["hi"])
            if lo > hi or lo > bound + oracles.slack(bound, PLANAR_ULPS):
                misses.append(f"[{lo}, {hi}] not below the exact cap {bound!r}")
        return misses

    dbl_masses: dict = {}

    def check_doubling(run):
        rows = rows_of(run, "doubling")
        misses = [] if len(rows) == 8 else [f"{len(rows)} rows, expected 8"]
        for row in rows:
            x = _point(row["point"])[0]
            if x not in dbl_masses:
                dbl_masses[x] = [oracles.binomial_ball(x, 2.0 ** -j) for j in range(dbl_l + 1)]
            undecided = int(row["metadata"].split("=")[1])
            count = round(float(row["lo"]) * dbl_l)
            # the CSV gives how many scales were undecided, not which: every
            # exactly doubling scale is counted or undecided, and no counted
            # scale may fail the exact ratio
            fewest, most = oracles.doubling_count_range(dbl_masses[x], dbl_c, (),
                                                        depth_ulps(dbl_depth))
            if not (count <= most and count + undecided >= fewest):
                misses.append(f"count {count} (+{undecided} undecided) outside "
                              f"exact range [{fewest}, {most}]")
        return misses

    def check_hom(run):
        rows = rows_of(run, "hom")
        misses = [] if len(rows) == hom_l else [f"{len(rows)} rows, expected {hom_l}"]
        for row in rows:
            lo, hi = float(row["lo"]), float(row["hi"])
            if lo != hi or abs(lo - 2.0 * q) > oracles.slack(2.0 * q, hom_l + 4):
                misses.append(f"partial [{lo}, {hi}] != 2q = {2.0 * q!r}")
        return misses

    def check_constants(run):
        checks = summary_of(run, "constants")["checks"]
        return [f"constants check {k} false" for k, v in checks.items() if v is not True]

    def check_ef(run):
        summary = summary_of(run, "ef")
        if summary["counterexample_found"] and not oracles.triple_free(
                summary["points"], 0.1, PLANAR_ULPS):
            return ["reported counterexample contains a cone triple"]
        return []

    def check_verify(which):
        def check(run):
            verdict = summary_of(run, f"verify-example-{which}")["verdict"]
            return [] if verdict is True else [f"verify-example {which} verdict {verdict}"]
        return check

    def widths_of(name):
        return lambda run: [float(r["hi"]) - float(r["lo"]) for r in rows_of(run, name)]

    def scales_of_doubling(run):
        rows = rows_of(run, "doubling")
        return sum(int(r["metadata"].split("=")[1]) for r in rows), dbl_l * len(rows)

    commands = [
        ("measure-2d", ["measure", "--config", m2, "--depth", str(m2_depth)],
         check_measure_2d, widths_of("measure"), None),
        ("measure-binomial", ["measure", "--config", mb, "--depth", str(mb_depth)],
         check_measure_binomial, widths_of("measure"), None),
        ("density", ["density", "--config", dens, "--depth", str(dens_depth)],
         check_density, widths_of("density"), None),
        ("doubling", ["doubling", "--config", dbl], check_doubling, None, scales_of_doubling),
        ("hom", ["hom", "--config", hom], check_hom, None, None),
        ("constants", ["constants", "-n", "2", "-m", "1", "-s", "2", "--alpha", str(ALPHA)],
         check_constants, None, None),
        ("ef", ["ef", "-n", "2", "--alpha", "0.1", "--trials", "200", "--seed", str(ef_seed)],
         check_ef, None, None),
        ("verify-example-2", ["verify-example", "2", "--depth", str(ve2_depth)],
         check_verify(2), None, None),
        ("verify-example-3", ["verify-example", "3"], check_verify(3), None, None),
    ]

    def make(label, argv, check, widths, scales):
        out = os.path.join(workdir, "out", label)

        def call():
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv + ["--out", out])
            return CliRun(code, sink.getvalue(), out)

        def checked(run):
            if run.code != 0:
                return [f"exit code {run.code}: {run.output.strip()[-200:]}"]
            return check(run)

        op = Op(label=label, call=call, check=checked,
                reset=lambda: shutil.rmtree(out, ignore_errors=True))
        if widths is not None:
            op.widths = widths
        if scales is not None:
            op.scales = scales
        return op

    return Prepared([make(*cmd) for cmd in commands], configs=configs,
                    depths={"measure-2d": m2_depth, "measure-binomial": mb_depth,
                            "density": dens_depth, "doubling": dbl_depth,
                            "hom": hom_l, "verify-example-2": ve2_depth,
                            "verify-example-3": 6},
                    per_op_summary=True)


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


WORKLOADS = {
    "doubling-deep-1d": doubling_deep_1d,
    "cone-net-2d": cone_net_2d,
    "cli-mix": cli_mix,
}
