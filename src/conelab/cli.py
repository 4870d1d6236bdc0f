"""Batch experiment runner: binds JSON configs to the library operations and
emits CSV rows plus a JSON summary per run."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import constructions, density, homogeneity
from .configurations import search_counterexample_set
from .geometry import build_direction_net, build_subspace_net
from .measure import Ball, MeasureInterval, RegionQuery, lebesgue_tree, region_measure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_RESOURCE = 4

CSV_COLUMNS = ["experiment", "point", "scale_index", "radius", "quantity",
               "lo", "hi", "metadata"]


class ConfigError(Exception):
    pass


class ResourceGuard(Exception):
    pass


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")


def build_measure(spec: dict):
    """Instantiate a measure tree from its config spec."""
    _require(isinstance(spec, dict), "measure spec must be an object")
    _check_keys(spec, {"kind", "n", "k", "q"}, "measure spec")
    kind = spec.get("kind")
    if kind == "lebesgue":
        n, k = spec.get("n", 1), spec.get("k", 2)
        _require(isinstance(n, int) and n >= 1, "field n must be an integer >= 1")
        _require(isinstance(k, int) and k >= 2, "field k must be an integer >= 2")
        return lebesgue_tree(n, k)
    if kind == "binomial":
        return constructions.binomial_tree()
    if kind == "constant-binomial":
        q = spec.get("q")
        _require(isinstance(q, (int, float)) and 0 < q < 0.5,
                 "field q must lie in (0, 0.5) for constant-binomial")
        return constructions.constant_binomial_tree(float(q))
    if kind == "rotating-ball":
        return constructions.rotating_ball_tree()
    if kind == "strip-block":
        return constructions.strip_block_tree()
    raise ConfigError(f"unknown measure kind: {kind!r}")


def sample_points(tree, config: dict, seed: int, depth: int):
    if "points" in config:
        return [np.asarray(p, dtype=float) for p in config["points"]]
    count = int(config.get("sample", 5))
    return [np.asarray(p) for p in tree.sample_points(count, depth, seed=seed)]


def write_rows(out_dir: str, name: str, rows: list) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row)
    return path


def write_summary(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    payload = {"schema_version": 1, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# The benchmark tracer wraps _parallel by name and reads fn as its second argument.
def _parallel(tasks, fn):
    """Serial map over tasks, in task order."""
    return [fn(t) for t in tasks]


def _interval_row(exp, point, j, radius, quantity, iv, meta=""):
    point_str = "(" + " ".join(fmt(v) for v in np.atleast_1d(point)) + ")"
    return [exp, point_str, j, fmt(radius), quantity, fmt(iv.lo), fmt(iv.hi), meta]


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"measure", "points", "sample", "radii", "radius"}, "config")
    _require("measure" in cfg, "config needs a measure spec")
    tree = build_measure(cfg["measure"])
    depth = args.depth or 12
    radii = cfg.get("radii", [cfg.get("radius", 0.25)])
    for r in radii:
        _require(isinstance(r, (int, float)) and r > 0, "field radius must be positive")
    pts = sample_points(tree, cfg, args.seed, depth)

    def work(task):
        idx, x, j, r = task
        iv = region_measure(tree, RegionQuery(ball=Ball(x, r)), depth)
        return _interval_row("measure", x, j, r, "ball_mass", iv)

    tasks = [(i, x, j, r) for i, x in enumerate(pts) for j, r in enumerate(radii)]
    rows = _parallel(tasks, work)
    csv_path = write_rows(args.out, "measure", rows)
    write_summary(args.out, "measure", {
        "command": "measure", "seed": args.seed, "depth": depth,
        "rows": len(rows), "csv": csv_path})
    return EXIT_OK


def cmd_density(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"measure", "points", "sample", "alpha", "m", "r0",
                      "levels", "threshold"}, "config")
    _require("measure" in cfg, "config needs a measure spec")
    alpha = cfg.get("alpha", 0.5)
    _require(isinstance(alpha, (int, float)) and 0 < alpha <= 1,
             "field alpha must lie in (0, 1]")
    m = int(cfg.get("m", 1))
    r0 = float(cfg.get("r0", 0.25))
    levels = int(cfg.get("levels", 5))
    c = float(cfg.get("threshold", 0.0))
    depth = args.depth or 12
    tree = build_measure(cfg["measure"])
    n = tree.ambient_dim
    _require(0 <= m < n, "field m must satisfy 0 <= m < ambient dimension")
    dir_net = build_direction_net(n, alpha, seed=args.seed)
    sub_net = build_subspace_net(n, m, alpha, seed=args.seed)
    pts = sample_points(tree, cfg, args.seed, depth)

    def work(x):
        return density.density_profile(tree, x, alpha, r0, levels, dir_net,
                                       sub_net, c, depth)

    profiles = _parallel(pts, work)
    rows = []
    for x, prof in zip(pts, profiles):
        for j, (r, ratio) in enumerate(zip(prof.radii, prof.ratios), start=1):
            rows.append(_interval_row("density", x, j, r, "worst_cone_ratio",
                                      ratio.enclosure,
                                      f"cell={ratio.worst_cell}"))
    csv_path = write_rows(args.out, "density", rows)
    write_summary(args.out, "density", {
        "command": "density", "seed": args.seed, "depth": depth,
        "alpha": alpha, "m": m, "K_dir": dir_net.size, "K_sub": sub_net.size,
        "frequencies": [prof.frequency() for prof in profiles],
        "csv": csv_path})
    return EXIT_OK


def cmd_hom(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"measure", "i", "l_max"}, "config")
    _require("measure" in cfg, "config needs a measure spec")
    tree = build_measure(cfg["measure"])
    i = int(cfg.get("i", 1))
    l_max = int(cfg.get("l_max", 8))
    est = homogeneity.hom_estimate(tree, i, l_max)
    rows = []
    for l, a in enumerate(est.partials, start=1):
        rows.append(["hom", "()", l, fmt(float(tree.k) ** (-l)),
                     f"hom_partial_i{i}", fmt(a), fmt(a), ""])
    csv_path = write_rows(args.out, "hom", rows)
    write_summary(args.out, "hom", {
        "command": "hom", "i": i, "l_max": l_max,
        "limsup_proxy": est.limsup_proxy, "csv": csv_path})
    return EXIT_OK


def cmd_doubling(args) -> int:
    cfg = load_config(args.config)
    _check_keys(cfg, {"measure", "points", "sample", "gamma", "k", "p", "c",
                      "l"}, "config")
    _require("measure" in cfg, "config needs a measure spec")
    tree = build_measure(cfg["measure"])
    gamma = float(cfg.get("gamma", 1.0))
    k = int(cfg.get("k", 2))
    l = int(cfg.get("l", 20))
    if "c" in cfg:
        c = float(cfg["c"])
    else:
        p = float(cfg.get("p", 0.5))
        _require(0 < p < 1, "field p must lie in (0, 1)")
        c = homogeneity.doubling_constant(tree.ambient_dim, k, p)
    depth = args.depth or l + 15
    pts = sample_points(tree, cfg, args.seed, depth)

    def work(x):
        return homogeneity.doubling_frequency(tree, x, gamma, k, c, l, depth)

    stats = _parallel(pts, work)
    rows = []
    for x, st in zip(pts, stats):
        rows.append(_interval_row("doubling", x, l, gamma, "doubling_frequency",
                                  MeasureInterval(st.frequency, st.frequency),
                                  f"undecided={len(st.undecided)}"))
    csv_path = write_rows(args.out, "doubling", rows)
    write_summary(args.out, "doubling", {
        "command": "doubling", "seed": args.seed, "c": c, "l": l,
        "frequencies": [st.frequency for st in stats], "csv": csv_path})
    return EXIT_OK


def cmd_constants(args) -> int:
    _require(args.n >= 1, "field n must be at least 1")
    _require(args.m < args.s <= args.n, "fields must satisfy m < s <= n")
    _require(0 < args.alpha <= 1, "field alpha must lie in (0, 1]")
    report = density.constants_chain(args.n, args.m, args.s, args.alpha,
                                     q=args.q, seed=args.seed)
    checks = report.verify()
    payload = {
        "command": "constants",
        "inputs": {"n": args.n, "m": args.m, "s": args.s, "alpha": args.alpha},
        "report": {
            "t": report.t, "q": report.q, "q_verified": report.q_verified,
            "K_dir": report.K_dir, "K_sub": report.K_sub, "M": report.M,
            "tau": report.tau, "k": report.k, "c1": report.c1, "p": report.p,
            "c2_log10": report.c2_log10, "c_log10": report.c_log10,
            "c_thm3": report.c_thm3,
        },
        "checks": checks,
    }
    path = write_summary(args.out, "constants", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    if not all(checks.values()):
        print("constant chain self-check failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_ef(args) -> int:
    _require(args.n >= 1, "field n must be at least 1")
    _require(0 < args.alpha <= 1, "field alpha must lie in (0, 1]")
    _require(args.size >= 3, "field size must be at least 3")
    found = search_counterexample_set(args.n, args.alpha, args.size,
                                      args.trials, args.seed)
    payload = {
        "command": "ef",
        "inputs": {"n": args.n, "alpha": args.alpha, "size": args.size,
                   "trials": args.trials, "seed": args.seed},
        "counterexample_found": found is not None,
        "points": [list(map(float, p)) for p in found] if found else None,
    }
    write_summary(args.out, "ef", payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# canned example verification


def _verify_example_1(depth: int, seed: int):
    if depth > 40:
        raise ResourceGuard("example 1 depth capped at 40")
    tree = constructions.binomial_tree()
    x, _ = constructions.support_point(tree, 34, seed=seed)
    xf = float(x[0])
    top = depth if depth >= 10 else 20
    levels = list(range(8, top + 1))
    vals = [constructions.six_interval_constant(tree, xf, 2.0 ** -lev,
                                                depth=lev + 4)
            for lev in levels]
    rows = [["verify-example-1", f"({fmt(xf)})", lev, fmt(2.0 ** -lev),
             "six_interval_constant", fmt(v), fmt(v), ""]
            for lev, v in zip(levels, vals)]
    decreasing = all(b <= a for a, b in zip(vals, vals[1:]))
    verdict = decreasing and vals[-1] < 0.5 * vals[0]
    return rows, {"levels": levels, "values": vals, "decreasing": decreasing,
                  "verdict": verdict}


def _verify_example_2(depth: int, seed: int):
    if depth > 256:
        raise ResourceGuard("example 2 depth capped at 256")
    alpha = 0.9
    cap = math.ceil(10.0 / alpha) + 1
    tree = constructions.rotating_ball_tree()
    levels = list(range(2, max(depth, 3) + 1))
    reports = [constructions.perpendicular_cone_hits(tree, n, alpha)
               for n in levels]
    rows = [["verify-example-2", "(branch)", rep["level"], fmt(rep["scale"]),
             "cone_hit_count", fmt(rep["hits"]), fmt(rep["hits"]),
             f"cap={cap}"]
            for rep in reports]
    hits = [rep["hits"] for rep in reports]
    ratios = [cap / rep["level"] for rep in reports]
    verdict = max(hits) <= cap and ratios[-1] < 0.5 * ratios[0]
    return rows, {"alpha": alpha, "cap": cap, "hits": hits,
                  "ratio_bounds": ratios, "verdict": verdict}


def _verify_example_3(depth: int, seed: int):
    if depth > 8:
        raise ResourceGuard("example 3 level count capped at 8")
    levels = max(depth, 6)
    tree = constructions.strip_block_tree(constructions.override_schedule)
    x, trail = constructions.support_point(tree, levels + 2, seed=seed)
    reports = [constructions.horizontal_strip_ratio(tree, trail[lev], x, 0.1)
               for lev in range(levels)]
    rows = [["verify-example-3", "(" + " ".join(fmt(v) for v in x) + ")",
             rep["level"], fmt(2.0 / rep["strip_count"]),
             "horizontal_strip_ratio", fmt(rep["ratio"]), fmt(rep["bound"]),
             f"hits={rep['hits']}"]
            for rep in reports]
    ratios = [rep["ratio"] for rep in reports]
    bounded = all(rep["ratio"] <= rep["bound"] + 1e-12 for rep in reports)
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    return rows, {"ratios": ratios, "bounds": [r["bound"] for r in reports],
                  "bounded": bounded, "decreasing": decreasing,
                  "verdict": bounded and decreasing}


def cmd_verify_example(args) -> int:
    which = args.which
    _require(which in (1, 2, 3), "example must be 1, 2 or 3")
    depth_default = {1: 20, 2: 64, 3: 6}[which]
    depth = args.depth or depth_default
    runner = {1: _verify_example_1, 2: _verify_example_2, 3: _verify_example_3}
    rows, summary = runner[which](depth, args.seed)
    name = f"verify-example-{which}"
    csv_path = write_rows(args.out, name, rows)
    write_summary(args.out, name, {
        "command": name, "seed": args.seed, "depth": depth,
        **summary, "csv": csv_path})
    print(json.dumps({"example": which, "verdict": summary["verdict"]}))
    return EXIT_OK if summary["verdict"] else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Certified conical density experiments on hierarchical measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--threads", type=int, help="accepted and ignored; runs are serial")
        p.add_argument("--out", default="out")

    p = sub.add_parser("measure", help="certified ball masses")
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("density", help="worst-case conical density profiles")
    common(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("hom", help="average homogeneity partial sums")
    common(p)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("doubling", help="doubling-scale frequencies")
    common(p)
    p.set_defaults(fn=cmd_doubling)

    p = sub.add_parser("constants", help="constant dependency chain")
    common(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-s", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=int, default=None,
                   help="pigeonhole count override for n - m >= 2")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("ef", help="cone-triple counterexample search")
    common(p)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_ef)

    p = sub.add_parser("verify-example", help="canned construction experiments")
    common(p)
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.set_defaults(fn=cmd_verify_example)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceGuard as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource guard: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, AssertionError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
