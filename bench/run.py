#!/usr/bin/env python3
"""The rosefold benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload tame-long --seed 1 --seconds 20 --trace 0

Runs from the repository root (or any checkout of it) and imports the
library from ``src/`` of that checkout.  Workloads (see ``inputs.py`` for
the inputs and ``workloads.py`` for the ops and their checks):

  tame-long      `rosefold tame` on long class sets (words layer)
  tame-corpus    decide -> verify -> certificate text on ~3000 short sets
  fold-large     `rosefold fold --basis` on heavy wedges (folding, graphs)
  graph-oracles  brute-force morphisms, two-order folds, isomorphism,
                 enumeration on tiny graphs

The loop is closed: one op at a time, each starting after the previous
returns, in whole passes over the run's inputs until ``--seconds`` of op
time has been spent; every input runs about ten times.  An input's
latency is the third quartile of its repeats, and the latency and
throughput metrics are taken over the inputs (see ``INPUT_QUANTILE``).
Every op's output is checked, outside the timed interval; a wrong answer,
a golden digest mismatch or an exception counts as a failed op.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half
the time untraced and half traced, then prints the per-layer metrics.
The last stdout line is the result object; the line before it holds the
details and the machine stamp, which are also written with the traced
spans under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, wrapped_objects  # noqa: E402

# A shared host runs this code at a steady speed most of the time, with
# bursts of up to ~1.7x that come and go within seconds; over a 25 s window
# the mean speed still varies by ~12% from window to window.  Each input
# runs about ten times, spread over the run, and its latency is the third
# quartile of its repeats: that reads the steady speed whenever bursts
# cover less than about half the run, so a burst does not move it.
# Set-up is probed at twelve points spread over the run, reported the same way.
INPUT_QUANTILE = 75
# The op tail is the highest of these percentiles of the per-input
# latencies that leaves at least ten inputs beyond it.
TAIL_LADDER = (99, 95, 90, 75, 50)
SETUP_PROBES = 12
GOLDENS = BENCH / "goldens.json"


def import_library():
    """Import rosefold from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "rosefold" / "__init__.py").is_file():
        sys.exit(f"error: no rosefold sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rosefold

    if not Path(rosefold.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: imported rosefold from {rosefold.__file__}, not from {SRC}")
    return rosefold


def load_goldens(workload: str) -> list[str] | None:
    """Golden digests by pool index, or None for a workload without them.
    Raises if the pool no longer matches the one the goldens describe."""
    if workload not in inputs.POOLS:
        return None
    entry = json.loads(GOLDENS.read_text())[workload]
    if entry["pool_sha256"] != inputs.digest(inputs.POOLS[workload]()):
        raise RuntimeError(f"{workload}: input pool changed since the goldens were recorded")
    return entry["digests"]


def nearest_rank(sorted_values: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Runner:
    """Runs whole passes of one workload's ops and checks every output."""

    def __init__(self, workload: str, seed: int):
        self.items = inputs.generate(workload, seed)
        self.w = workloads.WORKLOADS[workload]
        shared, self.expected = self.w.prepare(self.items)
        try:
            self.goldens = load_goldens(workload)
            self.golden_error = None
        except RuntimeError as exc:
            self.goldens, self.golden_error = None, str(exc)
        import_library()
        self.ops = self.w.build(self.items, shared)
        # The inputs, expected answers and goldens live for the whole run;
        # freezing them keeps the collector from rescanning them, so its
        # pauses measure the library's garbage, not the benchmark's data.
        gc.collect()
        gc.freeze()
        self.first_digest: list[str | None] = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, i: int, out) -> bool:
        item = self.items[i]
        if isinstance(out, BaseException):
            problems = [f"{type(out).__name__}: {out}"]
            digest = None
        else:
            problems, digest = self.w.check(item, self.expected[i], out)
        if self.golden_error:
            problems.append(self.golden_error)
        elif self.goldens is not None and digest != self.goldens[item["pool"]]:
            problems.append(f"digest {digest} != golden {self.goldens[item['pool']]}")
        if self.first_digest[i] is None:
            self.first_digest[i] = digest
        elif digest != self.first_digest[i]:
            problems.append("output differs from the previous pass")
        if problems and len(self.problems) < 20:
            self.problems.append(f"op {i} ({item.get('kind') or item.get('op')}): " + "; ".join(problems))
        return not problems

    def passes(self, seconds: float, tracer=None, between=None) -> list[float]:
        """Whole passes, stopping at the pass boundary nearest to
        ``seconds`` of op time (at least one pass); returns op durations,
        pass after pass.  ``between(spent)``, if given, runs after each op,
        outside its timed interval, with the op time spent so far."""
        durations: list[float] = []
        perf = time.perf_counter
        spent = 0.0
        while True:
            for i, op in enumerate(self.ops):
                if tracer is not None:
                    tracer.op_id = len(durations)
                t0 = perf()
                try:
                    out = op()
                except (Exception, SystemExit) as exc:  # an op that raises is a failed op
                    out = exc
                dt = perf() - t0
                durations.append(dt)
                spent += dt
                if tracer is not None and self.w.cli and isinstance(out, tuple):
                    tracer.counts["cli.output_bytes"] += len(out[1])
                self.attempted += 1
                self.failed += not self.check(i, out)
                if between is not None:
                    between(spent)
            if spent + spent / (len(durations) // len(self.ops)) / 2 >= seconds:
                return durations

    def output_digest(self) -> str:
        return hashlib.sha256("".join(d or "-" for d in self.first_digest).encode()).hexdigest()


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-interpreter set-up: ``import rosefold`` plus building the
    library objects the ops consume.  Input generation and the data the
    build needs run first and are not timed; the expected answers are
    not needed here."""
    items = inputs.generate(workload, seed)
    w = workloads.WORKLOADS[workload]
    shared = w.shared(items)
    t0 = time.perf_counter()
    import_library()
    w.build(items, shared)
    return time.perf_counter() - t0


def run_setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def spread_setup_probes(workload: str, seed: int, seconds: float, setup: list[float]):
    """A ``between`` hook that appends a set-up probe to ``setup`` at each
    ``seconds / SETUP_PROBES`` of op time, so the probes sample the whole run."""

    def between(spent: float) -> None:
        if len(setup) < SETUP_PROBES and spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(run_setup_probe(workload, seed))

    return between


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None  # an exported source tree without .git has none
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            packed = (git / "packed-refs").read_text().splitlines() if (git / "packed-refs").is_file() else []
            loose = git / ref
            commit = loose.read_text().strip() if loose.is_file() else next(
                (line.split()[0] for line in packed if line.endswith(" " + ref)), None
            )
    src = hashlib.sha256()
    for path in sorted((SRC / "rosefold").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def per_input(durations: list[float], n: int) -> list[float]:
    """Each input's latency: the third quartile of its repeats."""
    return [nearest_rank(sorted(durations[i::n]), INPUT_QUANTILE)[0] for i in range(n)]


def tail_percentile(count: int) -> int:
    return next(p for p in TAIL_LADDER if count - math.ceil(p / 100 * count) >= 10 or p == TAIL_LADDER[-1])


def end_to_end(runner: Runner, durations: list[float], setup: list[float]) -> tuple[dict, dict]:
    latency = sorted(per_input(durations, len(runner.ops)))
    p50, _ = nearest_rank(latency, 50)
    pct = tail_percentile(len(latency))
    tail, beyond = nearest_rank(latency, pct)
    metrics = {
        "setup_s": (nearest_rank(sorted(setup), INPUT_QUANTILE)[0], "s"),
        "ops_per_s": (len(latency) / sum(latency), "ops/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_rate": (1 - runner.failed / runner.attempted, "ratio"),
    }
    details = {
        "tail_percentile": pct,
        "tail_inputs_beyond": beyond,
        "inputs": len(latency),
        "samples": len(durations),
        "passes": len(durations) // len(runner.ops),
        "error_rate": runner.failed / runner.attempted,
        "setup_probes_s": setup,
    }
    return metrics, details


def per_layer(tr: Tracer, untraced: list[float], traced: list[float]) -> tuple[dict, dict]:
    lt = tr.layer_times()
    n = len(traced)
    op_time = sum(traced)
    c = tr.counts
    attributed = sum(lt["self"][layer] for layer in LAYERS)
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        # shares of the time attributed to layers, which leaves out the
        # wrappers' own calibrated cost
        m[f"{layer}.self_s"] = (lt["self"][layer] / n, "s/op")
        m[f"{layer}.share"] = (lt["self"][layer] / attributed, "ratio")

    def calls(name):
        return lt["calls"][name] / n

    def secs(name):
        return lt["incl"][name] / n

    m["words.canonical_rotation.calls"] = (calls("canonical_rotation"), "calls/op")
    m["words.canonical_rotation.letters"] = (c["words.canonical_rotation.letters"] / n, "letters/op")
    m["words.normalize_classes.calls_per_op"] = (calls("normalize_classes"), "calls/op")
    for method in ("edge", "out_edges", "in_labels"):
        m[f"graphs.{method}.calls"] = (c[f"graphs.{method}.calls"] / n, "calls/op")
    m["graphs.dir_lookups.calls"] = (sum(c[f"graphs.dir_{x}.calls"] for x in ("origin", "terminus", "label")) / n, "calls/op")
    m["graphs.graphs_built"] = (c["graphs.graphs_built"] / n, "graphs/op")
    m["graphs.edges_built"] = (c["graphs.edges_built"] / n, "edges/op")
    m["graphs.is_label_isomorphic.s"] = (secs("is_label_isomorphic"), "s/op")
    m["graphs.is_label_isomorphic.calls"] = (calls("is_label_isomorphic"), "calls/op")
    m["graphs.closed_path_reading.s"] = (secs("closed_path_reading"), "s/op")
    for fn in ("find_foldable_pair", "fold_once", "fold_report_lines"):
        m[f"folding.{fn}.s"] = (secs(fn), "s/op")
    m["folding.snapshot_edges"] = (c["folding.snapshot_edges"] / n, "edges/op")
    m["folding.folds"] = (c["folding.folds"] / n, "folds/op")
    m["folding.betti_drops"] = (c["folding.betti_drops"] / n, "drops/op")
    for fn in ("whitehead_of_classes", "whitehead_of_graph", "cut_vertices"):
        m[f"whitehead.{fn}.calls"] = (calls(fn), "calls/op")
    m["whitehead.edges_per_graph"] = (c["whitehead.edges"] / max(1, c["whitehead.graphs"]), "edges")
    for fn in ("decide_tame", "verify_certificate", "induced_morphism", "recognize_almost_rose",
               "build_rose_from_whitehead", "enumerate_almost_roses"):
        m[f"tameness.{fn}.s"] = (secs(fn), "s/op")
    m["tameness.enumerate.iso_per_rose"] = (lt["iso_in_enum"] / max(1, c["tameness.enumerate.roses"]), "calls/rose")
    for key in ("verdicts_tame", "verdicts_not_tame", "verify_rejects", "cert_bytes"):
        m[f"tameness.{key}"] = (c[f"tameness.{key}"] / n, "bytes/op" if key == "cert_bytes" else "count/op")
    m["oracles.brute_force_morphism.s"] = (secs("brute_force_morphism"), "s/op")
    m["oracles.brute_force_morphism.calls"] = (calls("brute_force_morphism"), "calls/op")
    m["oracles.morphisms_found"] = (c["oracles.morphisms_found"] / n, "count/op")
    m["cli.output_bytes"] = (c["cli.output_bytes"] / n, "bytes/op")
    m["cli.exit_codes"] = (c["cli.exit_codes"] / n, "code/op")
    m["trace.overhead"] = ((op_time / n) / (sum(untraced) / len(untraced)) - 1, "ratio")
    m["trace.coverage"] = (lt["root"] / op_time, "ratio")
    m["trace.op_s"] = (op_time / n, "s/op")
    details = {
        "traced_ops": n,
        "untraced_ops": len(untraced),
        "spans": lt["spans"],
        "overhead_per_call_s": lt["overhead_per_call_s"],
    }
    return m, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0
    if not (SRC / "rosefold" / "__init__.py").is_file():
        print(f"error: no rosefold sources under {SRC}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    details: dict = {"stamp": stamp(args.workload, args.seed, args.seconds, args.trace)}
    if args.trace == 0:
        setup: list[float] = []
        durations = runner.passes(args.seconds, between=spread_setup_probes(args.workload, args.seed, args.seconds, setup))
        while len(setup) < SETUP_PROBES:  # a run that ended a little short of its time
            setup.append(run_setup_probe(args.workload, args.seed))
        leaked = wrapped_objects()
        metrics, more = end_to_end(runner, durations, setup)
    else:
        untraced = runner.passes(args.seconds / 2)
        tr = Tracer()
        tr.install()
        try:
            traced = runner.passes(args.seconds / 2, tracer=tr)
        finally:
            tr.restore()
        leaked = wrapped_objects()
        metrics, more = per_layer(tr, untraced, traced)
        OUT.mkdir(exist_ok=True)
        tr.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    if leaked:
        runner.problems.append(f"library functions left wrapped: {leaked[:5]}")
    details.update(more)
    details["output_sha256"] = runner.output_digest()
    details["problems"] = runner.problems
    result = {
        "correct": runner.failed == 0 and not leaked,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n"
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
