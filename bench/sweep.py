#!/usr/bin/env python3
"""Growth sweep: how each layer's time grows with input size.

    python3 bench/sweep.py [--out FILE]

Not part of the gated runs.  It reproduces the size rows of the ROADMAP
baseline and fits, per family, a growth exponent k in time ~ size^k for
the end-to-end wall time and for every layer's self time (least squares
on log-log points; layers under 2 % of a point's time are left out).

  decide+verify  one not-tame rank-4 class            L = 100, 1000, 4000
  fold           wedge of a positive rank-3 basis     E = 350, 600, 1400
  enumerate      almost-roses up to isomorphism       rank 3, 4 (90, 504 roses)
  isomorphism    circuit vs a renumbered copy         V = 40, 80, 120

Each point runs once untraced (wall time) and once traced (layer self
times and counters, including the edge pairs held in fold snapshots).
Results go to stdout and to ``.bench_out/sweep.json``;
``baseline_sweep.json`` beside this file is the output at the commit that
added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

from run import OUT, import_library, stamp
import inputs
from tracer import Tracer


def _fit(sizes, times) -> float | None:
    pts = [(math.log(s), math.log(t)) for s, t in zip(sizes, times) if t > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


def families(rf):
    rng = random.Random("sweep")

    def decide_verify(length):
        c = rf.CyclicWord(tuple(inputs.complete_whitehead_word(rng, 4, length)), 4)
        return lambda: rf.verify_certificate([c], rf.decide_tame([c]))

    def fold(edges):
        words = inputs.positive_basis(rng, 3, edges)
        g = rf.wedge_of_words(tuple(rf.Word(tuple(w), 3) for w in words), 3).graph
        return lambda: rf.fold_to_completion(g)

    def enumerate_(count):
        rank = {90: 3, 504: 4}[count]
        return lambda: rf.enumerate_almost_roses(rank)

    def isomorphism(size):
        g = rf.circuit(rf.CyclicWord(tuple(inputs.random_cyclic(rng, [1, 2], size)), 2))
        perm = list(range(size))
        rng.shuffle(perm)
        h = rf.LabeledGraph(2, frozenset(perm), tuple(rf.Edge(e.eid, perm[e.origin], perm[e.terminus], e.label) for e in g.edges))
        return lambda: rf.is_label_isomorphic(g, h)

    return {
        "decide+verify": ("L", (100, 1000, 4000), decide_verify),
        "fold": ("edge pairs", (350, 600, 1400), fold),
        "enumerate": ("almost-roses", (90, 504), enumerate_),
        "isomorphism": ("V", (40, 80, 120), isomorphism),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(OUT / "sweep.json"))
    args = ap.parse_args()
    rf = import_library()
    report = {"stamp": stamp("sweep", 0, 0, 1), "families": {}}
    for name, (size_name, sizes, make) in families(rf).items():
        points = []
        for size in sizes:
            op = make(size)
            t0 = time.perf_counter()
            op()
            wall = time.perf_counter() - t0
            tr = Tracer()
            tr.install()
            try:
                op()
            finally:
                tr.restore()
            lt = tr.layer_times()
            points.append({
                "size": size,
                "wall_s": wall,
                "layers_s": dict(lt["self"]),
                "counts": dict(tr.counts),
            })
            print(f"{name} {size_name}={size}: {wall:.3f} s", flush=True)
        layers = sorted({k for p in points for k in p["layers_s"]})
        exponents = {"wall": _fit(sizes, [p["wall_s"] for p in points])}
        for layer in layers:
            shown = [p for p in points if p["layers_s"].get(layer, 0) >= 0.02 * sum(p["layers_s"].values())]
            if len(shown) == len(points):
                exponents[layer] = _fit(sizes, [p["layers_s"][layer] for p in points])
        report["families"][name] = {"size": size_name, "points": points, "exponents": exponents}
        print(f"  exponents: " + ", ".join(f"{k} {v:.2f}" for k, v in exponents.items() if v is not None), flush=True)
    OUT.mkdir(exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
