"""The acceptance suite: one callable check per exit criterion.

Each criterion returns a :class:`CriterionResult` with a pass flag, a
human-readable detail string, and the measured wall time, so the same
checks back both ``pytest`` and the ``rosefold check`` subcommand.  All
randomness is seeded; two runs produce identical corpora.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
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
    name: str
    passed: bool
    seconds: float
    limit: float | None
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        bound = f" (limit {self.limit:g}s)" if self.limit is not None else ""
        return f"{status} {self.name}: {self.detail} [{self.seconds:.3f}s{bound}]"


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def criterion_wedge_closed_form() -> CriterionResult:
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
    elapsed = _best_of(lambda: compute())
    passed = ok and elapsed < 0.001
    detail = f"9-edge wedge {'matches' if ok else 'MISMATCH'}, cut vertices {sorted(cuts)}"
    return CriterionResult("wh-closed-form-312", passed, elapsed, 0.001, detail)


def criterion_cut_vertex_sweep() -> CriterionResult:
    """For every shape with rank at most 6, the closed-form Whitehead graph
    equals the one computed from the realized graph, and letter 1 is a cut
    vertex."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 1.0
    detail = f"{checked} shapes checked, {len(failures)} failures"
    return CriterionResult("cut-vertex-sweep", passed, elapsed, 1.0, detail)


def criterion_morphism_equivalence() -> CriterionResult:
    """Morphism existence into an almost-rose is equivalent to Whitehead
    inclusion, with the exhaustive search as the arbiter, and the induced
    morphism verifies whenever the inclusion holds."""
    graphs_per_rank = 500
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    passed = disagreements == 0 and elapsed < 60.0
    detail = f"{checked} (rose, graph) pairs, {disagreements} disagreements"
    return CriterionResult("morphism-inclusion-equivalence", passed, elapsed, 60.0, detail)


def criterion_primitive_classes() -> CriterionResult:
    """Every Nielsen-orbit class decides tame with a verified certificate."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    passed = exceptions == 0 and elapsed < 60.0
    detail = f"orbit sizes {counts}, {exceptions} exceptions"
    return CriterionResult("primitive-classes-tame", passed, elapsed, 60.0, detail)


def criterion_separable_sets() -> CriterionResult:
    """Seeded separable sets at ranks 3 and 4 all decide tame, with both
    the witness replay and the certificate verifying."""
    sets_per_rank = 250
    t0 = time.perf_counter()
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
            if not cert.tame or not verify_certificate(classes, cert):
                exceptions += 1
    elapsed = time.perf_counter() - t0
    passed = exceptions == 0 and elapsed < 120.0
    detail = f"{total} separable sets, {exceptions} exceptions"
    return CriterionResult("separable-sets-tame", passed, elapsed, 120.0, detail)


def criterion_negative_controls() -> CriterionResult:
    """The commutator-like classes abAB and aabb are not tame, with
    verified refutation witnesses."""
    results = []
    per_word = []
    for text in ("abAB", "aabb"):
        cls = conjugacy_class(parse_word(text, 2))
        cert = decide_tame([cls])
        ok = (not cert.tame) and verify_certificate([cls], cert)
        elapsed = _best_of(lambda c=cls: decide_tame([c]))
        per_word.append(elapsed)
        results.append(ok and elapsed < 0.001)
    passed = all(results)
    elapsed = max(per_word)
    detail = f"abAB and aabb refuted, per-decision times {[f'{t * 1e6:.0f}us' for t in per_word]}"
    return CriterionResult("negative-controls", passed, elapsed, 0.001, detail)


def criterion_basis_pipeline() -> CriterionResult:
    """Folding the wedge of a verified basis never drops Betti, lands on a
    recognized almost-rose, and reads the first basis word."""
    bases_per_rank = 60
    t0 = time.perf_counter()
    rng = random.Random(0xBA515)
    failures = 0
    total = 0
    for n in (2, 3):
        for _ in range(bases_per_rank):
            basis = random_basis(rng, n)
            total += 1
            try:
                rose, seq, proof = rose_for_basis(basis)
            except Exception:
                failures += 1
                continue
            if any(step.betti_dropped for step in seq.steps):
                failures += 1
            elif len(proof.path) != len(proof.cyclic):
                failures += 1
    elapsed = time.perf_counter() - t0
    passed = failures == 0 and total >= 100 and elapsed < 60.0
    detail = f"{total} verified bases, {failures} failures"
    return CriterionResult("basis-fold-pipeline", passed, elapsed, 60.0, detail)


def criterion_fold_confluence() -> CriterionResult:
    """Deterministic and randomized fold orders produce label-isomorphic
    folded images."""
    count = 1000
    t0 = time.perf_counter()
    rng = random.Random(0xF01D)
    failures = 0
    for i in range(count):
        rank = rng.choice((2, 3, 4))
        g = random_labeled_graph(rng, rank, max_vertices=6, max_edge_pairs=10)
        a = fold_to_completion(g).final
        b = fold_to_completion(g, pick=random_fold_pick(random.Random(i))).final
        if not is_label_isomorphic(a, b):
            failures += 1
    elapsed = time.perf_counter() - t0
    passed = failures == 0 and elapsed < 30.0
    detail = f"{count} graphs folded two ways, {failures} mismatches"
    return CriterionResult("fold-confluence", passed, elapsed, 30.0, detail)


def criterion_set_vs_circuit_whitehead() -> CriterionResult:
    """The Whitehead graph of a class set equals the Whitehead graph of its
    disjoint circuits, edge set for edge set."""
    count = 1000
    t0 = time.perf_counter()
    rng = random.Random(0xC1AC)
    failures = 0
    for _ in range(count):
        rank = rng.choice((2, 3, 4))
        classes = [random_class(rng, rank, max_len=8) for _ in range(rng.randint(1, 4))]
        direct = whitehead_of_classes(classes, rank)
        via_graph = whitehead_of_graph(disjoint_circuits(classes, rank))
        if direct.edges != via_graph.edges:
            failures += 1
    elapsed = time.perf_counter() - t0
    passed = failures == 0 and elapsed < 10.0
    detail = f"{count} class sets, {failures} mismatches"
    return CriterionResult("set-vs-circuit-whitehead", passed, elapsed, 10.0, detail)


def _run_cli(args: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "rosefold", *args],
        capture_output=True,
        env=dict(os.environ),
    )
    return proc.returncode, proc.stdout


def criterion_certificate_determinism() -> CriterionResult:
    """Certificates and seeded corpora are byte-identical across two fresh
    process runs, with the expected exit codes."""
    t0 = time.perf_counter()
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
    elapsed = time.perf_counter() - t0
    passed = not problems
    detail = "; ".join(problems) if problems else f"{len(commands)} commands byte-stable"
    return CriterionResult("certificate-determinism", passed, elapsed, None, detail)


CRITERIA = {
    "wh-closed-form-312": criterion_wedge_closed_form,
    "cut-vertex-sweep": criterion_cut_vertex_sweep,
    "morphism-inclusion-equivalence": criterion_morphism_equivalence,
    "primitive-classes-tame": criterion_primitive_classes,
    "separable-sets-tame": criterion_separable_sets,
    "negative-controls": criterion_negative_controls,
    "basis-fold-pipeline": criterion_basis_pipeline,
    "fold-confluence": criterion_fold_confluence,
    "set-vs-circuit-whitehead": criterion_set_vs_circuit_whitehead,
    "certificate-determinism": criterion_certificate_determinism,
}
