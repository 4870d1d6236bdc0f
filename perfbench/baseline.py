"""Re-measure the ROADMAP's re-anchor baselines.

    python3 perfbench/baseline.py

Prints one JSON object. Times are raw seconds and, like run.py's metrics,
seconds at the reference speed. Classified-node counts come from an untimed
pass with `measure._classify` wrapped; the timed pass runs unwrapped.
The depth-10 worst_cone_ratio alone takes about a minute.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

from run import HERE, calibrate, import_conelab, timed_scaled


def timed(fn):
    _, raw, scale = timed_scaled(fn)
    return {"raw_s": raw, "scaled_s": raw * scale}


def classifications(measure, fn) -> int:
    """Calls to measure._classify made by one run of fn."""
    original, count = measure._classify, [0]

    def counting(region, query):
        count[0] += 1
        return original(region, query)

    measure._classify = counting
    try:
        fn()
    finally:
        measure._classify = original
    return count[0]


def main():
    import_conelab()
    import numpy as np
    from conelab import cli, constructions, density, geometry, homogeneity, measure

    calibrate(200)
    out = {}

    # criterion-03 shape: doubling_frequency on the binomial tree, warm memo
    tree = constructions.binomial_tree()
    c = homogeneity.doubling_constant(1, 2, 0.9)
    points = tree.sample_points(20, 45, seed=11)

    def doubling():
        for x in points:
            homogeneity.doubling_frequency(tree, x, 1.0, 2, c, 30, 45)

    doubling()
    nodes = classifications(measure, doubling)
    t = timed(doubling)
    out["criterion03_shape"] = {**t, "classified": nodes,
                                "us_per_node_raw": 1e6 * t["raw_s"] / nodes,
                                "us_per_node_scaled": 1e6 * t["scaled_s"] / nodes,
                                "roadmap_us_per_node": 40.0}

    # 2-d Lebesgue ball, r = 0.2 at the centre, depth 12, fresh tree
    query = measure.RegionQuery(ball=measure.Ball(np.array([0.5, 0.5]), 0.2))
    nodes = classifications(measure, lambda: measure.region_measure(
        measure.lebesgue_tree(2), query, 12))
    t = timed(lambda: measure.region_measure(measure.lebesgue_tree(2), query, 12))
    out["ball_2d_depth12"] = {**t, "classified": nodes, "roadmap_s": 0.58}

    leb = measure.lebesgue_tree(2)
    dir_net = geometry.build_direction_net(2, 0.5)
    sub_net = geometry.build_subspace_net(2, 1, 0.5)
    t = timed(lambda: density.worst_cone_ratio(leb, np.array([0.5, 0.5]), 0.2, 0.5,
                                               dir_net, sub_net, 10))
    out["worst_cone_ratio_depth10"] = {**t, "K_dir": dir_net.size,
                                       "K_sub": sub_net.size, "roadmap_s": 74.0}

    # conelab measure, 8 sampled points x 3 radii, depth 12, 2-d Lebesgue
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        cfg = os.path.join(tmp, "measure.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"measure": {"kind": "lebesgue", "n": 2}, "sample": 8,
                       "radii": [0.05, 0.1, 0.2]}, fh)
        for threads, roadmap in ((1, 10.4), (2, 14.8)):
            argv = ["measure", "--config", cfg, "--depth", "12", "--threads", str(threads),
                    "--out", os.path.join(tmp, "out")]
            with redirect_stdout(io.StringIO()):
                t = timed(lambda: cli.main(argv))
            out[f"cli_measure_threads{threads}"] = {**t, "roadmap_s": roadmap}

    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
