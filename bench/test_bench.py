"""Self-tests for the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that inputs are reproducible, that the benchmark's own oracles
agree with the library, that wrong answers are counted, that the traced
run leaves no wrapper behind, and that the output keeps its contract.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import expect  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, wrapped_objects  # noqa: E402

run.import_library()
import rosefold as rf  # noqa: E402
from rosefold.graphs import oriented_edge  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_depend_on_the_seed_only(workload):
    a, b, c = (json.dumps(inputs.generate(workload, s)).encode() for s in (7, 7, 8))
    assert a == b
    assert a != c


def test_fold_slots_keep_their_shape_under_relabeling():
    """Every seed relabels the same wedge shapes, so the work is equal."""
    shapes = {seed: sorted((it["pool"], tuple(map(len, it["words"]))) for it in inputs.fold_large(seed)) for seed in (1, 2)}
    assert shapes[1] == shapes[2]


def _graph(g):
    edges = tuple(oriented_edge(eid, o, t, x) for eid, o, t, x in g["edges"])
    return rf.LabeledGraph(g["rank"], frozenset(range(g["vertices"])), edges)


def test_oracles_agree_with_the_library():
    pool = inputs.tame_corpus_pool()
    for item in pool[:300]:
        cws = [rf.CyclicWord(tuple(c), item["rank"]) for c in item["classes"]]
        assert expect.is_tame(item["classes"], item["rank"]) == rf.decide_tame(cws).tame
        if item["tame"] is not None:
            assert item["tame"] == rf.decide_tame(cws).tame
    rng = random.Random(5)
    for _ in range(200):
        g = inputs.random_graph(rng, rng.choice((2, 3)))
        lib = _graph(g)
        final = rf.fold_to_completion(lib).final
        mine = expect.fold(g["vertices"], [e[1:] for e in g["edges"]])
        assert mine["final"][:2] == (len(final.vertices), len(final.edges))
        assert mine["folded"] and rf.is_folded(final)
        assert expect.whitehead_of_edges([e[1:] for e in g["edges"]]) == set(rf.whitehead_of_graph(lib).edges)
    for rank in (2, 3):
        mine = expect.almost_roses(rank)
        lib = rf.enumerate_almost_roses(rank)
        assert len(mine) == len(lib) == expect.ALMOST_ROSE_COUNTS[rank]
        assert {expect.rose_key([(e.origin, e.terminus, e.label) for e in r.graph.edges]) for r in lib} == {
            expect.rose_key(inputs.almost_rose_edges(rank, k, l, t)) for k, l, t in mine
        }


def _small_runner(workload: str, count: int) -> run.Runner:
    r = run.Runner(workload, 3)
    r.items, r.expected, r.ops = r.items[:count], r.expected[:count], r.ops[:count]
    r.first_digest = r.first_digest[:count]
    return r


def test_injected_wrong_answers_are_failures():
    r = _small_runner("tame-corpus", 20)
    r.passes(0)
    assert (r.attempted, r.failed) == (20, 0)

    r.expected[0] = dict(r.expected[0], tame=not r.expected[0]["tame"])
    r.goldens = list(r.goldens)
    r.goldens[r.items[1]["pool"]] = "0" * 12

    def boom():
        raise ValueError("injected")

    r.ops[2] = boom
    r.passes(0)
    assert (r.attempted, r.failed) == (40, 3)
    assert any("verdict" in p for p in r.problems)
    assert any("golden" in p for p in r.problems)
    assert any("injected" in p for p in r.problems)


def test_fold_report_mismatch_is_a_failure():
    r = _small_runner("fold-large", 1)
    r.expected[0] = dict(r.expected[0], steps=r.expected[0]["steps"] + 1)
    r.passes(0)
    assert r.failed == 1


def _library_attributes():
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "rosefold" or name.startswith("rosefold."):
            snapshot.update({(name, k): v for k, v in vars(module).items()})
    snapshot.update({("LabeledGraph", k): v for k, v in vars(rf.LabeledGraph).items()})
    return snapshot


def test_tracer_restores_every_function_and_untraced_runs_see_none():
    r = _small_runner("tame-long", 2)
    before = _library_attributes()
    seen_untraced = []
    plain = r.ops[0]
    r.ops[0] = lambda: (seen_untraced.append(wrapped_objects()), plain())[1]
    r.passes(0)
    assert seen_untraced == [[]]

    tr = Tracer()
    tr.install()
    try:
        assert wrapped_objects()
        assert rf.tameness.decide_tame is not before[("rosefold.tameness", "decide_tame")]
        r.passes(0, tracer=tr)
    finally:
        tr.restore()
    after = _library_attributes()
    assert wrapped_objects() == []
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.layer_times()["spans"] > 0 and r.failed == 0


def test_construction_and_accessor_time_is_booked_to_graphs():
    classes = (rf.CyclicWord((1, 1, 2), 2),)
    tr = Tracer()
    tr.install()
    try:
        rf.tameness.decide_tame(classes)
    finally:
        tr.restore()
    lt = tr.layer_times()
    assert tr.counts["graphs.graphs_built"] > 0
    assert tr.graph_time and min(tr.graph_time) >= 0  # every call ran inside a span
    assert lt["self"]["graphs"] > 0
    assert all(v >= 0 for v in lt["overhead_per_call_s"].values())


def test_a_speed_burst_does_not_move_the_input_latencies():
    costs = [1.0, 2.0, 3.0, 4.0]
    durations = [c * (0.6 if p in (2, 3, 7) else 1.0) for p in range(10) for c in costs]
    assert run.per_input(durations, len(costs)) == costs


def test_tail_leaves_ten_inputs_beyond_it():
    assert [run.tail_percentile(n) for n in (3000, 318, 40, 24)] == [99, 95, 75, 50]


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_declared_metrics(trace):
    spec = _bench_json()
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "graph-oracles", "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert {"python", "nproc", "cpu", "git_commit", "src_sha256", "seed"} <= set(details["stamp"])


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tame-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
