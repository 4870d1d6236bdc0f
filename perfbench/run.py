"""conelab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cone-net-2d --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; conelab is imported from `src/`.
Set-up is timed SETUP_REPEATS times and a fresh interpreter's import
IMPORT_REPEATS times; the medians are reported. The timed phase repeats the
workload's fixed op set in rounds: the first round warms the trees' child
memos and is left out of the timings; further rounds start while they fit
in --seconds. Every op result of every round is checked against exact
oracles. Times are scaled to a reference machine speed (see CAL_REF_S).

--trace 0 prints the end-to-end metrics. --trace 1 runs set-up once, a
reference phase untraced, then rounds with every public conelab function
wrapped by the tracer, and prints the per-layer metrics plus the tracing
overhead. Counts and times of a traced run are per set-up plus one round.

The last line of stdout is the result JSON; the line before it is the run
record, which is also written under perfbench/records/ with the spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
IMPORT_REPEATS = 9
# op_tail_ms is the highest whole percentile with at least this many op
# latencies beyond it
TAIL_BEYOND = 10
# percentile of per-op medians reported as the tail of a workload whose run
# has too few latencies for the rule above (see Prepared.per_op_summary)
OP_MEDIAN_TAIL_PERCENTILE = 90
# share of --seconds given to the untraced reference rounds of a traced run
TRACE_REFERENCE_SHARE = 0.4
MAX_REPORTED_MISSES = 20
# Times are reported at a reference machine speed. The 2-vCPU VMs this was
# built on run the same work up to twice as slowly, for seconds to minutes
# at a time, as neighbours load the host. A fixed calibration kernel is
# therefore timed around every timed span (at most CAL_INTERVAL_S apart
# between ops), and each span's time is multiplied by CAL_REF_S over the
# mean of the kernel times around it. CAL_REF_S is the kernel's time in the
# fast phases of those VMs (Xeon, 2.1 GHz).
CAL_ITERS = 5000
CAL_REF_S = 0.022
CAL_INTERVAL_S = 0.3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
MODULES = ("geometry", "measure", "constructions", "homogeneity", "density",
           "configurations", "cli")
TREE_METHODS = ("children", "node", "node_measure", "branch_fan", "sample_points")
# functions whose calls, self time and mean duration are reported
LAYER_FUNCTIONS = (
    "measure.region_measure", "measure.children", "measure.sample_points",
    "geometry.build_direction_net", "geometry.build_subspace_net",
    "constructions.binomial_tree", "constructions.rotating_ball_tree",
    "constructions.strip_block_tree", "constructions.perpendicular_cone_hits",
    "constructions.horizontal_strip_ratio",
    "homogeneity.doubling_frequency", "homogeneity.hom_estimate",
    "density.worst_cone_ratio", "density.halfspace_deficiency", "density.constants_chain",
    "configurations.search_counterexample_set",
    "cli.cmd_measure", "cli.cmd_density", "cli.cmd_hom", "cli.cmd_doubling",
    "cli.cmd_constants", "cli.cmd_ef", "cli.cmd_verify_example",
    "cli.write_rows", "cli.write_summary", "cli._parallel",
)
LAYER_STATS = {"calls": "count", "self_s": "s", "mean_us": "us"}
LAYER_DERIVED = {
    "measure.width_share": "ratio",
    "homogeneity.region_queries_per_call": "count",
    "density.region_queries_per_call": "count",
    "cli._parallel.busy_ratio": "ratio",
    "run.mean_width": "ratio",
    "run.undecided_frac": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    units = {f"{fn}.{stat}": unit for fn in LAYER_FUNCTIONS
             for stat, unit in LAYER_STATS.items()}
    units.update(LAYER_DERIVED)
    return units


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_conelab():
    """Import conelab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "conelab", "__init__.py")):
        raise SystemExit(f"perfbench: no conelab sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, SRC)
    import conelab
    from conelab import cli, configurations, constructions, density, geometry, homogeneity, measure  # noqa: F401
    if os.path.dirname(os.path.abspath(conelab.__file__)) != os.path.join(SRC, "conelab"):
        raise SystemExit(f"perfbench: conelab imported from {conelab.__file__}, not {SRC}")
    return conelab


def git_commit():
    """Commit of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def percentile(values, pct: int) -> float:
    """Linearly interpolated percentile of two or more values."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND values above it, or the median if no percentile has."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    pct = max((p for p in range(1, 100)
               if sum(1 for v in values if v > cuts[p - 1]) >= TAIL_BEYOND), default=50)
    return pct, cuts[pct - 1]


# ---------------------------------------------------------------------------
# timed phase


def calibrate(iters: int = CAL_ITERS) -> float:
    """Seconds taken by a fixed kernel of interpreted loops, two-element numpy
    arithmetic and tiny LAPACK calls, the mix conelab spends its time in. It
    never calls conelab, so only the machine's speed moves it."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = np.array([0.3, 0.4])
    acc, table = 0.0, {}
    # a collection here would scan the program's heap, not measure the machine
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(iters):
            acc += float(np.linalg.norm(a * (i % 7)))
            table[(i % 64, i % 3)] = acc
            if i % 16 == 0:
                q, _ = np.linalg.qr(rng.standard_normal((2, 1)))
                acc += float(np.linalg.svd(q.T @ q, compute_uv=False)[0])
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_scale(before: float, after: float) -> float:
    """Factor taking seconds timed between two calibrations to seconds at the
    reference speed."""
    return CAL_REF_S / (0.5 * (before + after))


class Rounds:
    """Runs and checks rounds of the op set, keeping timings and failures.

    During measured rounds the calibration kernel runs at the start and end
    of each round and between ops once CAL_INTERVAL_S has passed since it
    last ran. Each op's latency is scaled by the two calibrations around it.
    A round's time is the sum of its ops' latencies, so the calibrations are
    not part of it.
    """

    def __init__(self, ops):
        self.ops = ops
        self.walls: list[float] = []      # raw seconds per measured round
        self.latencies: list[list] = []   # raw seconds per measured round, per op
        self.scales: list[list] = []      # speed scale per measured round, per op
        self.cals: list[float] = []       # calibration kernel times
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.widths: list[float] = []
        self.undecided = [0, 0]

    def run(self, record=True):
        for op in self.ops:
            op.reset()
        cals = [calibrate()] if record else []
        last_cal = time.perf_counter()
        outcomes = []
        for op in self.ops:
            if record and time.perf_counter() - last_cal > CAL_INTERVAL_S:
                cals.append(calibrate())
                last_cal = time.perf_counter()
            t = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # an op failure is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((op, result, error, time.perf_counter() - t, len(cals) - 1))
        wall = sum(o[3] for o in outcomes)
        if record:
            cals.append(calibrate())
            self.cals.extend(cals)
            self.walls.append(wall)
            self.latencies.append([o[3] for o in outcomes])
            self.scales.append([speed_scale(cals[o[4]], cals[o[4] + 1]) for o in outcomes])
        for op, result, error, _, _ in outcomes:
            self.attempted += 1
            if error is None:
                try:
                    misses = op.check(result)
                    self.widths.extend(op.widths(result))
                    u, s = op.scales(result)
                    self.undecided[0] += u
                    self.undecided[1] += s
                except Exception as exc:  # a result the check cannot read is wrong
                    misses = [f"unreadable result: {type(exc).__name__}: {exc}"]
            else:
                misses = [error]
            if misses:
                self.failed += 1
                self.misses.extend(f"{op.label}: {m}" for m in misses)

    def run_until(self, deadline: float):
        """Rounds while the next one, at the median round time, fits."""
        while True:
            if self.walls and time.perf_counter() + statistics.median(self.walls) > deadline:
                return
            self.run()

    def scaled(self) -> list:
        """Scaled op latencies, per measured round."""
        return [[lat * f for lat, f in zip(row, fs)]
                for row, fs in zip(self.latencies, self.scales)]

    def scaled_walls(self) -> list:
        return [sum(row) for row in self.scaled()]


def timed_scaled(fn):
    """(fn's result, raw wall seconds, speed scale from calibrations just
    before and after)."""
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, speed_scale(before, calibrate())


def import_seconds() -> list:
    """(raw, scaled) wall times of IMPORT_REPEATS fresh interpreters importing
    conelab."""
    code = ("import sys; sys.dont_write_bytecode = True; sys.path.insert(0, sys.argv[1]); "
            "import numpy, conelab.cli")
    times = []
    for _ in range(IMPORT_REPEATS):
        _, raw, scale = timed_scaled(
            lambda: subprocess.run([sys.executable, "-c", code, SRC], check=True))
        times.append((raw, raw * scale))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# tracing


def trace_targets(conelab_modules, tree_class):
    """(span name, owner, attribute, wrap options) for everything traced."""
    targets = []
    for name in MODULES:
        mod = conelab_modules[name]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            keep = f"{name}.{attr}" in ("measure.region_measure",
                                         "homogeneity.doubling_frequency")
            targets.append((f"{name}.{attr}", mod, attr, {"keep_result": keep}))
    for attr in TREE_METHODS:
        targets.append((f"measure.{attr}", tree_class, attr, {}))
    targets.append(("cli._parallel", conelab_modules["cli"], "_parallel", {"task_arg": 1}))
    return targets


def layer_metrics(tracer, setup_window, traced_window, traced_rounds, scale):
    """Per-layer counts and times for one set-up plus one traced round; times
    are multiplied by the run's speed scale."""
    from tracer import TASK, self_times

    ids, parents, names, starts, ends = tracer.spans()
    selfs = self_times(ids, parents, starts, ends)
    agg: dict = {}
    by_id = {sid: i for i, sid in enumerate(ids)}
    for i, name in enumerate(names):
        if setup_window[0] <= starts[i] and ends[i] <= setup_window[1]:
            weight = 1.0
        elif traced_window[0] <= starts[i] and ends[i] <= traced_window[1]:
            weight = 1.0 / traced_rounds
        else:
            continue
        a = agg.setdefault(name, [0.0, 0.0, 0, 0.0])  # calls, self, all calls, all time
        a[0] += weight
        a[1] += weight * selfs[i]
        a[2] += 1
        a[3] += ends[i] - starts[i]

    out = {}
    for fn in LAYER_FUNCTIONS:
        calls, self_s, all_calls, all_time = agg.get(fn, [0.0, 0.0, 0, 0.0])
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = scale * self_s
        out[f"{fn}.mean_us"] = scale * all_time / all_calls * 1e6 if all_calls else 0.0

    def under(i, ancestor):
        p = parents[i]
        while p in by_id:
            j = by_id[p]
            if names[j] == ancestor:
                return True
            p = parents[j]
        return False

    def queries_per_call(ancestor):
        calls = sum(1 for n in names if n == ancestor)
        if not calls:
            return 0.0
        inner = sum(1 for i, n in enumerate(names)
                    if n == "measure.region_measure" and under(i, ancestor))
        return inner / calls

    out["homogeneity.region_queries_per_call"] = queries_per_call("homogeneity.doubling_frequency")
    out["density.region_queries_per_call"] = queries_per_call("density.worst_cone_ratio")
    parallel = sum(e - s for n, s, e in zip(names, starts, ends) if n == "cli._parallel")
    busy = sum(e - s for n, s, e in zip(names, starts, ends) if n == TASK)
    out["cli._parallel.busy_ratio"] = busy / parallel if parallel else 0.0
    results = tracer.results.get("measure.region_measure", [])
    total_hi = math.fsum(iv.hi for iv in results)
    out["measure.width_share"] = (math.fsum(iv.hi - iv.lo for iv in results) / total_hi
                                  if total_hi else 0.0)
    out["trace.spans"] = float(len(ids))
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    conelab = import_conelab()
    import numpy as np

    import workloads
    from conelab import measure
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]

    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        return run(args, conelab, np, setup, measure.MeasureTree, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def run(args, conelab, np, setup, tree_class, workdir) -> int:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    tracer = None
    if args.trace:
        from tracer import Tracer
        modules = {name: sys.modules[f"conelab.{name}"] for name in MODULES}
        tracer = Tracer()
        targets = trace_targets(modules, tree_class)

    calibrate(200)  # first numpy calls pay one-off costs
    setup_times = []  # (raw, scaled) seconds
    for rep in range(1 if args.trace else SETUP_REPEATS):
        repdir = os.path.join(workdir, f"setup{rep}")
        os.makedirs(repdir)
        if tracer:
            tracer.install(targets)
            tracer.enabled = True
        t = time.perf_counter()
        prepared, raw, scale = timed_scaled(lambda: setup(args.seed, repdir))
        setup_times.append((raw, raw * scale))
        if tracer:
            tracer.enabled = False
            tracer.uninstall()
            setup_window = (t, time.perf_counter())

    rounds = Rounds(prepared.ops)
    phase_start = time.perf_counter()
    deadline = phase_start + args.seconds
    rounds.run(record=False)  # warm-up
    warmup_s = time.perf_counter() - phase_start
    if tracer:
        rounds.run_until(phase_start + TRACE_REFERENCE_SHARE * args.seconds)
        reference = statistics.median(rounds.scaled_walls())
        traced = Rounds(prepared.ops)
        tracer.install(targets)
        tracer.enabled = True
        traced_start = time.perf_counter()
        traced.run_until(deadline)
        traced_window = (traced_start, time.perf_counter())
        tracer.enabled = False
        tracer.uninstall()
        for name in ("attempted", "failed"):
            setattr(rounds, name, getattr(rounds, name) + getattr(traced, name))
        rounds.misses += traced.misses
        rounds.widths += traced.widths
        rounds.undecided = [a + b for a, b in zip(rounds.undecided, traced.undecided)]
    else:
        rounds.run_until(deadline)

    latencies = rounds.scaled()
    if prepared.per_op_summary:
        samples = [statistics.median(col) for col in zip(*latencies)]
        tail_pct = OP_MEDIAN_TAIL_PERCENTILE
        tail_s = percentile(samples, tail_pct)
    else:
        samples = [lat for row in latencies for lat in row]
        tail_pct, tail_s = tail(samples)
    record["manifest"] = {
        "conelab_version": conelab.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "config_sha256": {k: hashlib.sha256(v).hexdigest()
                          for k, v in sorted(prepared.configs.items())},
        "depth_budgets": prepared.depths,
    }
    record.update({
        "setup_times_s": setup_times, "warmup_s": warmup_s,
        "calibrations_s": rounds.cals, "op_scales": rounds.scales,
        "round_walls_s": rounds.walls, "ops_per_round": len(prepared.ops),
        "latency_summary": "per-op medians" if prepared.per_op_summary else "all op latencies",
        "latency_samples": len(samples),
        "tail_percentile": tail_pct,
        "samples_beyond_tail": sum(1 for v in samples if v > tail_s),
        "mean_width": statistics.fmean(rounds.widths) if rounds.widths else None,
        "undecided_frac": (rounds.undecided[0] / rounds.undecided[1]
                           if rounds.undecided[1] else None),
        "misses": rounds.misses[:MAX_REPORTED_MISSES],
        "op_labels": [op.label for op in prepared.ops],
        "latencies_ms": [[1e3 * lat for lat in row] for row in rounds.latencies],
    })

    if tracer:
        metrics = layer_metrics(tracer, setup_window, traced_window, len(traced.walls),
                                CAL_REF_S / statistics.median(traced.cals))
        metrics["run.mean_width"] = record["mean_width"] or 0.0
        metrics["run.undecided_frac"] = record["undecided_frac"] or 0.0
        metrics["trace.overhead"] = statistics.median(traced.scaled_walls()) / reference - 1.0
        record["traced_round_walls_s"] = traced.walls
        units = per_layer_units()
    else:
        import_times = import_seconds()
        record["import_times_s"] = import_times
        metrics = {
            "setup_s": (statistics.median(t[1] for t in import_times)
                        + statistics.median(t[1] for t in setup_times)),
            "wall_s": statistics.median(rounds.scaled_walls()),
            "op_p50_ms": 1e3 * percentile(samples, 50),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END

    records = os.path.join(HERE, "records")
    os.makedirs(records, exist_ok=True)
    stem = os.path.join(records, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        record["spans_file"] = os.path.relpath(stem + ".spans.csv.gz", ROOT)
        tracer.dump(stem + ".spans.csv.gz")
    record["metrics"] = metrics
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")

    result = {
        "correct": rounds.failed == 0,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
