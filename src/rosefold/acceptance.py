"""The acceptance suite: one callable check per exit criterion.

Each criterion returns a :class:`CriterionResult` with a correctness flag,
a human-readable detail string, and the measured wall time, so the same
checks back both ``pytest`` and the ``rosefold check`` subcommand.  All
randomness is seeded; two runs produce identical corpora.  A criterion
is declared once, with its name and time limit, by ``@criterion``.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from .folding import fold_to_completion, random_fold_pick
from .graphs import disjoint_circuits, is_label_isomorphic, verify_morphism
from .oracles import (
    brute_force_morphism,
    primitive_orbit,
    random_basis,
    random_class,
    random_labeled_graph,
    random_separable_set,
    rose_for_basis,
    rose_for_separable,
    verify_separable_witness,
)
from .tameness import (
    almost_rose,
    decide_tame,
    enumerate_almost_roses,
    induced_morphism,
    verify_certificate,
    whitehead_of_almost_rose,
)
from .whitehead import cut_vertices, is_subgraph, whitehead_of_classes, whitehead_of_graph
from .words import parse_word, conjugacy_class


@dataclass(frozen=True)
class CriterionResult:
    """A criterion's outcome: ``correct`` when its answer is right, passed
    when it is also under its time limit.  ``line`` names the cause of a
    failure: FAIL for a wrong answer, SLOW for a right one that missed its
    limit."""

    name: str
    correct: bool
    seconds: float
    limit: float | None
    detail: str

    @property
    def passed(self) -> bool:
        return self.correct and (self.limit is None or self.seconds < self.limit)

    def line(self) -> str:
        status = "PASS" if self.passed else "SLOW" if self.correct else "FAIL"
        bound = f" (limit {self.limit:g}s)" if self.limit is not None else ""
        return f"{status} {self.name}: {self.detail} [{self.seconds:.3f}s{bound}]"


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


CRITERIA: dict[str, Callable[[], CriterionResult]] = {}


def criterion(name: str, limit: float | None):
    """Register the body under ``name`` in ``CRITERIA``, in definition
    order.  The body returns ``(ok, detail)``, and is timed whole, or
    ``(ok, detail, seconds)`` with its own timing; the criterion passes
    when ``ok`` holds and the time is under ``limit``."""

    def register(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail, *timed = body()
            seconds = timed[0] if timed else time.perf_counter() - t0
            return CriterionResult(name, ok, seconds, limit, detail)

        CRITERIA[name] = run
        return run

    return register


@criterion("wh-closed-form-312", 0.001)
def criterion_wedge_closed_form():
    """The (3,1,2) almost-rose: Whitehead graph is the expected wedge of
    complete graphs and its only cut vertex is the shared letter."""
    rose = almost_rose(3, 1, 2)
    side1 = [1, -1, -2]
    side2 = [1, 2, 3, -3]
    expected = {
        frozenset(p) for p in itertools.combinations(side1, 2)
    } | {frozenset(p) for p in itertools.combinations(side2, 2)}

    def compute():
        w = whitehead_of_almost_rose(rose)
        return w, cut_vertices(w)

    w, cuts = compute()
    ok = w.edges == frozenset(expected) and len(w.edges) == 9 and cuts == {1}
    detail = f"9-edge wedge {'matches' if ok else 'MISMATCH'}, cut vertices {sorted(cuts)}"
    return ok, detail, _best_of(compute)


@criterion("cut-vertex-sweep", 1.0)
def criterion_cut_vertex_sweep():
    """For every shape with rank at most 6, the closed-form Whitehead graph
    equals the one computed from the realized graph, and letter 1 is a cut
    vertex."""
    checked = 0
    failures = []
    for n in range(2, 7):
        for k in range(1, n):
            for l in range(k, n + 1):
                rose = almost_rose(n, k, l)
                closed = whitehead_of_almost_rose(rose)
                direct = whitehead_of_graph(rose.graph)
                if closed.edges != direct.edges:
                    failures.append((n, k, l, "whitehead mismatch"))
                if 1 not in cut_vertices(closed):
                    failures.append((n, k, l, "letter 1 not a cut vertex"))
                checked += 1
    return not failures, f"{checked} shapes checked, {len(failures)} failures"


@criterion("morphism-inclusion-equivalence", 60.0)
def criterion_morphism_equivalence():
    """Morphism existence into an almost-rose is equivalent to Whitehead
    inclusion, with the exhaustive search as the arbiter, and the induced
    morphism verifies whenever the inclusion holds."""
    graphs_per_rank = 500
    rng = random.Random(0x5EED3)
    disagreements = 0
    checked = 0
    for n in (2, 3):
        roses = enumerate_almost_roses(n)
        rose_whs = [whitehead_of_almost_rose(r) for r in roses]
        for _ in range(graphs_per_rank):
            g = random_labeled_graph(rng, n, max_vertices=6, max_edge_pairs=10)
            wg = whitehead_of_graph(g)
            for rose, wr in zip(roses, rose_whs):
                included = is_subgraph(wg, wr)
                found = brute_force_morphism(g, rose.graph) is not None
                induced = induced_morphism(g, rose)
                ok = (
                    included == found
                    and (induced is not None) == included
                    and (induced is None or verify_morphism(induced, g, rose.graph))
                )
                if not ok:
                    disagreements += 1
                checked += 1
    return disagreements == 0, f"{checked} (rose, graph) pairs, {disagreements} disagreements"


@criterion("primitive-classes-tame", 60.0)
def criterion_primitive_classes():
    """Every Nielsen-orbit class decides tame with a verified certificate."""
    exceptions = 0
    counts = []
    for n, max_len in ((2, 8), (3, 6)):
        orbit = primitive_orbit(n, max_len)
        counts.append(len(orbit.classes))
        if not orbit.complete:
            exceptions += 1
        for cls in sorted(orbit.classes, key=lambda c: (len(c), c.letters)):
            cert = decide_tame([cls])
            if not cert.tame or not verify_certificate([cls], cert):
                exceptions += 1
    return exceptions == 0, f"orbit sizes {counts}, {exceptions} exceptions"


@criterion("separable-sets-tame", 120.0)
def criterion_separable_sets():
    """Seeded separable sets at ranks 3 and 4 all decide tame, with the
    witness replay, the certificate, and the certificate of the almost-rose
    folded from the witness (``rose_for_separable``) all verifying."""
    sets_per_rank = 250
    exceptions = 0
    total = 0
    for n, seed_base in ((3, 0), (4, 10_000)):
        for i in range(sets_per_rank):
            classes, witness = random_separable_set(
                n, seed_base + i, count=1 + i % 4, max_len=10
            )
            total += 1
            if not verify_separable_witness(classes, witness):
                exceptions += 1
                continue
            cert = decide_tame(classes)
            folded = rose_for_separable(witness, classes)
            if not (
                cert.tame
                and verify_certificate(classes, cert)
                and verify_certificate(classes, folded)
            ):
                exceptions += 1
    return exceptions == 0, f"{total} separable sets, {exceptions} exceptions"


@criterion("negative-controls", 0.001)
def criterion_negative_controls():
    """The commutator-like classes abAB and aabb are not tame, with
    verified refutation witnesses; the time is the slower decision's."""
    ok = True
    per_word = []
    for text in ("abAB", "aabb"):
        cls = conjugacy_class(parse_word(text, 2))
        cert = decide_tame([cls])
        ok &= (not cert.tame) and verify_certificate([cls], cert)
        per_word.append(_best_of(lambda c=cls: decide_tame([c])))
    detail = f"abAB and aabb refuted, per-decision times {[f'{t * 1e6:.0f}us' for t in per_word]}"
    return ok, detail, max(per_word)


@criterion("basis-fold-pipeline", 60.0)
def criterion_basis_pipeline():
    """Folding the wedge of a verified basis never drops Betti, lands on a
    recognized almost-rose, and certifies that it reads the first basis
    word."""
    bases_per_rank = 60
    rng = random.Random(0xBA515)
    failures = 0
    total = 0
    for n in (2, 3):
        for _ in range(bases_per_rank):
            basis = random_basis(rng, n)
            total += 1
            try:
                cert, seq = rose_for_basis(basis)
            except Exception:
                failures += 1
                continue
            if any(step.betti_dropped for step in seq.steps):
                failures += 1
            elif not verify_certificate([conjugacy_class(basis.images[0])], cert):
                failures += 1
    return failures == 0 and total >= 100, f"{total} verified bases, {failures} failures"


@criterion("fold-confluence", 30.0)
def criterion_fold_confluence():
    """Deterministic and randomized fold orders produce label-isomorphic
    folded images."""
    count = 1000
    rng = random.Random(0xF01D)
    failures = 0
    for i in range(count):
        rank = rng.choice((2, 3, 4))
        g = random_labeled_graph(rng, rank, max_vertices=6, max_edge_pairs=10)
        a = fold_to_completion(g).final
        b = fold_to_completion(g, pick=random_fold_pick(random.Random(i))).final
        if not is_label_isomorphic(a, b):
            failures += 1
    return failures == 0, f"{count} graphs folded two ways, {failures} mismatches"


@criterion("set-vs-circuit-whitehead", 10.0)
def criterion_set_vs_circuit_whitehead():
    """The Whitehead graph of a class set equals the Whitehead graph of its
    disjoint circuits, edge set for edge set."""
    count = 1000
    rng = random.Random(0xC1AC)
    failures = 0
    for _ in range(count):
        rank = rng.choice((2, 3, 4))
        classes = [random_class(rng, rank, max_len=8) for _ in range(rng.randint(1, 4))]
        direct = whitehead_of_classes(classes, rank)
        via_graph = whitehead_of_graph(disjoint_circuits(classes, rank))
        if direct.edges != via_graph.edges:
            failures += 1
    return failures == 0, f"{count} class sets, {failures} mismatches"


def _run_cli(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "rosefold", *args],
        capture_output=True,
        env=dict(os.environ),
    )
    return proc.returncode, proc.stdout


@criterion("certificate-determinism", None)
def criterion_certificate_determinism():
    """Certificates and seeded corpora are byte-identical across two fresh
    process runs, with the expected exit codes."""
    commands = [
        (["tame", "aab"], 0),
        (["tame", "abAB"], 1),
        (["tame", "ab"], 0),
        (["sep", "3", "--seed", "7", "--count", "4"], 0),
        (["orbit", "2", "3"], 0),
    ]
    problems = []
    first: list[bytes] = []
    for args, want_code in commands:
        code, out = _run_cli(args)
        if code != want_code:
            problems.append(f"{' '.join(args)}: exit {code} != {want_code}")
        first.append(out)
    for (args, _), before in zip(commands, first):
        code, out = _run_cli(args)
        if out != before:
            problems.append(f"{' '.join(args)}: output differs between runs")
    detail = "; ".join(problems) if problems else f"{len(commands)} commands byte-stable"
    return not problems, detail
