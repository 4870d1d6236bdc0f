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
from .measure import Ball, RegionQuery, ResourceGuard, lebesgue_tree, region_measure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_RESOURCE = 4

CSV_COLUMNS = ["experiment", "point", "scale_index", "radius", "quantity",
               "lo", "hi", "metadata"]


class ConfigError(Exception):
    pass


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_keys(obj, allowed: set, where: str):
    """Refuse obj unless it is a JSON object whose keys all lie in allowed."""
    _require(isinstance(obj, dict), f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")


def _is_number(v) -> bool:
    """A finite JSON number; a bool or a string is not a number."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _number(cfg: dict, key: str, default, valid, rule: str):
    """The numeric field key of cfg, checked against valid (described by rule)."""
    v = cfg.get(key, default)
    _require(_is_number(v) and valid(v), f"field {key} must be {rule}")
    return v


def _integer(cfg: dict, key: str, default, lo: int, hi: int | None = None):
    """The integer field key of cfg, within lo..hi (hi None: no upper limit)."""
    v = cfg.get(key, default)
    ok = isinstance(v, int) and not isinstance(v, bool) and v >= lo and (hi is None or v <= hi)
    rule = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    _require(ok, f"field {key} must be an integer {rule}")
    return v


def build_measure(spec: dict):
    """Instantiate a measure tree from its config spec."""
    _check_keys(spec, {"kind", "n", "k", "q"}, "measure spec")
    kind = spec.get("kind")
    if kind == "lebesgue":
        return lebesgue_tree(_integer(spec, "n", 1, 1), _integer(spec, "k", 2, 2))
    if kind == "binomial":
        return constructions.binomial_tree()
    if kind == "constant-binomial":
        q = _number(spec, "q", None, lambda v: 0 < v < 0.5, "in (0, 0.5) for constant-binomial")
        return constructions.constant_binomial_tree(float(q))
    if kind == "rotating-ball":
        return constructions.rotating_ball_tree()
    if kind == "strip-block":
        return constructions.strip_block_tree()
    raise ConfigError(f"unknown measure kind: {kind!r}")


def sample_points(tree, config: dict, seed: int, depth: int):
    if "points" in config:
        pts, n = config["points"], tree.ambient_dim
        _require(isinstance(pts, list) and pts and all(
            isinstance(p, list) and len(p) == n and all(map(_is_number, p)) for p in pts),
            f"field points must be a non-empty list of points with {n} coordinates each")
        return [np.asarray(p, dtype=float) for p in pts]
    count = _integer(config, "sample", 5, 1)
    return [np.asarray(p) for p in tree.sample_points(count, depth, seed=seed)]


def write_rows(out_dir: str, name: str, rows: list) -> str:
    """Write rows to name.csv, each after an experiment column reading name."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([name, *row])
    return path


def write_summary(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    payload = {"schema_version": 1, **payload}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def write_outputs(out_dir: str, name: str, rows: list, summary: dict):
    """Write the CSV rows and the JSON summary of one run."""
    csv_path = write_rows(out_dir, name, rows)
    write_summary(out_dir, name, {"command": name, **summary, "csv": csv_path})


def write_report(out_dir: str, name: str, payload: dict):
    """Write the JSON summary of a run without rows and print it."""
    payload = {"command": name, **payload}
    write_summary(out_dir, name, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))


def load_config(path: str | None, keys: set):
    """The config object at path and the measure tree of its measure spec.

    Besides the measure spec, the config may hold only the given keys.
    """
    cfg = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(cfg, keys | {"measure"}, "config")
    _require("measure" in cfg, "config needs a measure spec")
    return cfg, build_measure(cfg["measure"])


# The benchmark tracer wraps _parallel by name and reads fn as its second argument.
def _parallel(tasks, fn):
    """Serial map over tasks, in task order."""
    return [fn(t) for t in tasks]


def _row(point, j, radius, quantity, lo, hi, meta=""):
    """One CSV row after its experiment column; point is a label or coordinates."""
    if not isinstance(point, str):
        point = "(" + " ".join(fmt(v) for v in np.atleast_1d(point)) + ")"
    return [point, j, fmt(radius), quantity, fmt(lo), fmt(hi), meta]


# ---------------------------------------------------------------------------
# subcommands


def cmd_measure(args) -> int:
    cfg, tree = load_config(args.config, {"points", "sample", "radii", "radius"})
    depth = args.depth or 12
    if "radii" in cfg:
        radii = cfg["radii"]
        _require(isinstance(radii, list) and radii and all(_is_number(r) and r > 0 for r in radii),
                 "field radii must be a non-empty list of positive numbers")
    else:
        radii = [_number(cfg, "radius", 0.25, lambda r: r > 0, "a positive number")]
    pts = sample_points(tree, cfg, args.seed, depth)

    def work(task):
        x, j, r = task
        iv = region_measure(tree, RegionQuery(ball=Ball(x, r)), depth)
        return _row(x, j, r, "ball_mass", iv.lo, iv.hi)

    rows = _parallel([(x, j, r) for x in pts for j, r in enumerate(radii)], work)
    write_outputs(args.out, "measure", rows, {
        "seed": args.seed, "depth": depth, "rows": len(rows)})
    return EXIT_OK


def cmd_density(args) -> int:
    cfg, tree = load_config(args.config, {"points", "sample", "alpha", "m", "r0",
                                          "levels", "threshold"})
    alpha = _number(cfg, "alpha", 0.5, lambda v: 0 < v < 1, "in (0, 1)")
    r0 = float(_number(cfg, "r0", 0.25, lambda v: v > 0, "a positive number"))
    levels = _integer(cfg, "levels", 5, 1)
    c = float(_number(cfg, "threshold", 0.0, lambda v: v >= 0, "a number >= 0"))
    depth = args.depth or 12
    n = tree.ambient_dim
    m = _integer(cfg, "m", 1, 0, n - 1)
    dir_net = build_direction_net(n, alpha, seed=args.seed)
    sub_net = build_subspace_net(n, m, alpha, seed=args.seed)
    pts = sample_points(tree, cfg, args.seed, depth)

    def work(x):
        return density.density_profile(tree, x, alpha, r0, levels, dir_net,
                                       sub_net, c, depth)

    profiles = _parallel(pts, work)
    rows = [_row(x, j, r, "worst_cone_ratio", ratio.enclosure.lo, ratio.enclosure.hi,
                 f"cell={ratio.worst_cell}")
            for x, prof in zip(pts, profiles)
            for j, (r, ratio) in enumerate(zip(prof.radii, prof.ratios), start=1)]
    write_outputs(args.out, "density", rows, {
        "seed": args.seed, "depth": depth,
        "alpha": alpha, "m": m, "K_dir": dir_net.size, "K_sub": sub_net.size,
        "frequencies": [prof.frequency() for prof in profiles]})
    return EXIT_OK


def cmd_hom(args) -> int:
    cfg, tree = load_config(args.config, {"i", "l_max"})
    _require(tree.k is not None, "hom needs a k-adic cube measure "
             "(lebesgue, binomial or constant-binomial)")
    i = _integer(cfg, "i", 1, 1, tree.k ** tree.ambient_dim)
    l_max = _integer(cfg, "l_max", 8, 1)
    est = homogeneity.hom_estimate(tree, i, l_max)
    rows = [_row((), l, float(tree.k) ** (-l), f"hom_partial_i{i}", a, a)
            for l, a in enumerate(est.partials, start=1)]
    write_outputs(args.out, "hom", rows, {"i": i, "l_max": l_max,
                                          "limsup_proxy": est.limsup_proxy})
    return EXIT_OK


def cmd_doubling(args) -> int:
    cfg, tree = load_config(args.config, {"points", "sample", "gamma", "k", "p", "c", "l"})
    gamma = float(_number(cfg, "gamma", 1.0, lambda v: v > 0, "a positive number"))
    k = _integer(cfg, "k", 2, 2)
    l = _integer(cfg, "l", 20, 1)
    if "c" in cfg:
        c = float(_number(cfg, "c", None, lambda v: v > 0, "a positive number"))
    else:
        p = float(_number(cfg, "p", 0.5, lambda v: 0 < v < 1, "in (0, 1)"))
        c = homogeneity.doubling_constant(tree.ambient_dim, k, p)
    depth = args.depth or l + 15
    pts = sample_points(tree, cfg, args.seed, depth)

    def work(x):
        return homogeneity.doubling_frequency(tree, x, gamma, k, c, l, depth)

    stats = _parallel(pts, work)
    rows = [_row(x, l, gamma, "doubling_frequency", st.frequency, st.frequency,
                 f"undecided={len(st.undecided)}")
            for x, st in zip(pts, stats)]
    write_outputs(args.out, "doubling", rows, {
        "seed": args.seed, "c": c, "l": l,
        "frequencies": [st.frequency for st in stats]})
    return EXIT_OK


def cmd_constants(args) -> int:
    _require(args.n >= 1, "field n must be at least 1")
    _require(0 <= args.m < args.s <= args.n, "fields must satisfy 0 <= m < s <= n")
    _require(0 < args.alpha < 1, "field alpha must lie in (0, 1)")
    if args.n - args.m >= 2:
        _require(args.q is not None and args.q >= 1,
                 "field q must be given and at least 1 when n - m >= 2")
    report = density.constants_chain(args.n, args.m, args.s, args.alpha,
                                     q=args.q, seed=args.seed)
    checks = report.verify()
    write_report(args.out, "constants", {
        "inputs": {"n": args.n, "m": args.m, "s": args.s, "alpha": args.alpha},
        "report": {
            "t": report.t, "q": report.q, "q_verified": report.q_verified,
            "K_dir": report.K_dir, "K_sub": report.K_sub, "M": report.M,
            "tau": report.tau, "k": report.k, "c1": report.c1, "p": report.p,
            "c2_log10": report.c2_log10, "c_log10": report.c_log10,
            "c_thm3": report.c_thm3,
        },
        "checks": checks,
    })
    if not all(checks.values()):
        print("constant chain self-check failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_ef(args) -> int:
    _require(args.n >= 1, "field n must be at least 1")
    _require(0 < args.alpha <= 1, "field alpha must lie in (0, 1]")
    _require(args.size >= 3, "field size must be at least 3")
    _require(args.trials >= 1, "field trials must be at least 1")
    found = search_counterexample_set(args.n, args.alpha, args.size,
                                      args.trials, args.seed)
    write_report(args.out, "ef", {
        "inputs": {"n": args.n, "alpha": args.alpha, "size": args.size,
                   "trials": args.trials, "seed": args.seed},
        "counterexample_found": found is not None,
        "points": [list(map(float, p)) for p in found] if found else None,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# canned example verification


def _verify_example_1(depth: int, seed: int):
    tree = constructions.binomial_tree()
    x, _ = constructions.support_point(tree, 34, seed=seed)
    xf = float(x[0])
    levels = list(range(8, depth + 1))
    vals = [constructions.six_interval_constant(tree, xf, 2.0 ** -lev,
                                                depth=lev + 4)
            for lev in levels]
    rows = [_row(xf, lev, 2.0 ** -lev, "six_interval_constant", v, v)
            for lev, v in zip(levels, vals)]
    decreasing = all(b <= a for a, b in zip(vals, vals[1:]))
    verdict = decreasing and vals[-1] < 0.5 * vals[0]
    return rows, {"levels": levels, "values": vals, "decreasing": decreasing,
                  "verdict": verdict}


def _verify_example_2(depth: int, _seed: int):
    alpha = 0.9
    cap = math.ceil(10.0 / alpha) + 1
    levels = list(range(2, depth + 1))
    reports = [constructions.perpendicular_cone_hits(n, alpha) for n in levels]
    rows = [_row("(branch)", rep["level"], rep["scale"], "cone_hit_count",
                 rep["hits"], rep["hits"], f"cap={cap}")
            for rep in reports]
    hits = [rep["hits"] for rep in reports]
    ratios = [cap / rep["level"] for rep in reports]
    verdict = max(hits) <= cap and ratios[-1] < 0.5 * ratios[0]
    return rows, {"alpha": alpha, "cap": cap, "hits": hits,
                  "ratio_bounds": ratios, "verdict": verdict}


def _verify_example_3(depth: int, seed: int):
    tree = constructions.strip_block_tree(constructions.override_schedule)
    x, trail = constructions.support_point(tree, depth + 2, seed=seed)
    reports = [constructions.horizontal_strip_ratio(tree, trail[lev], x, 0.1)
               for lev in range(depth)]
    rows = [_row(x, rep["level"], 2.0 / rep["strip_count"], "horizontal_strip_ratio",
                 rep["ratio"], rep["bound"], f"hits={rep['hits']}")
            for rep in reports]
    ratios = [rep["ratio"] for rep in reports]
    bounded = all(rep["ratio"] <= rep["bound"] + 1e-12 for rep in reports)
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    return rows, {"ratios": ratios, "bounds": [r["bound"] for r in reports],
                  "bounded": bounded, "decreasing": decreasing,
                  "verdict": bounded and decreasing}


def cmd_verify_example(args) -> int:
    which = args.which
    # runner, default depth and accepted depths lo..cap; a deeper run exits 4
    run, default, lo, cap = {1: (_verify_example_1, 20, 10, 40),
                             2: (_verify_example_2, 64, 3, 256),
                             3: (_verify_example_3, 6, 6, 8)}[which]
    depth = args.depth or default
    _require(depth >= lo, f"example {which} takes a depth in {lo}..{cap}, or 0 for {default}")
    if depth > cap:
        raise ResourceGuard(f"example {which} depth capped at {cap}")
    rows, summary = run(depth, args.seed)
    name = f"verify-example-{which}"
    write_outputs(args.out, name, rows, {"seed": args.seed, "depth": depth, **summary})
    print(json.dumps({"example": which, "verdict": summary["verdict"]}))
    return EXIT_OK if summary["verdict"] else EXIT_INVARIANT


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Certified conical density experiments on hierarchical measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, text):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--threads", type=int, help="accepted and ignored; runs are serial")
        p.add_argument("--out", default="out")
        p.set_defaults(fn=fn)
        return p

    add("measure", cmd_measure, "certified ball masses")
    add("density", cmd_density, "worst-case conical density profiles")
    add("hom", cmd_hom, "average homogeneity partial sums")
    add("doubling", cmd_doubling, "doubling-scale frequencies")

    p = add("constants", cmd_constants, "constant dependency chain")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-s", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=int, default=None,
                   help="pigeonhole count override for n - m >= 2")

    p = add("ef", cmd_ef, "cone-triple counterexample search")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)

    p = add("verify-example", cmd_verify_example, "canned construction experiments")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every subcommand takes --seed and --depth
        _require(args.seed >= 0, "field seed must be at least 0")
        _require(args.depth is None or args.depth >= 0,
                 "field depth must be at least 0 (0 means the command's default)")
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
