"""Stallings folds and fold sequences.

A fold identifies two distinct directed edges that leave a common vertex
with the same label, merging their terminal vertices when distinct.  The
Betti number drops exactly when the terminal vertices already coincided.
Folding to completion computes the immersed (folded) image; the folded
image is independent of the fold order up to label isomorphism, which the
test suite checks by re-running with randomized pair choices.

``fold_to_completion`` keeps one fold state for the whole run, built in
one pass over the edge rows: a union-find over the vertices, and per
vertex class a heap of outgoing directed edges per label, merged smaller
into larger, with a heap of the vertices that have a label collision.
One loop, ``_FoldState.steps``, picks and folds, for the default pick and
for a ``pick`` callable alike.  The default pick is the lowest vertex
with a collision; there, the label whose second outgoing edge comes
first in ``out_edges`` order, and that label's first two edges.  A pick
reads each label's second edge as the lesser child of its heap's top:
O(1) per label with two or more edges at that vertex (at most 2·rank
labels), and a pop and a push only when a folded-away edge sits there.
One fold costs at most three union-find lookups (none for a vertex that
is its own class), O(log E) to take the dropped edge out of the heaps it
tops, and, when the termini differ, pushing the smaller class's edges
into the larger's heaps; each edge moves O(log E) times, so a run is
near-linear in the number E of edge pairs.

A run builds only the penultimate and final graphs with ``_replay``,
which builds the graph after some steps from the merges they record:
the penultimate graph from the start and all steps but the last, and
the final graph from the penultimate and the last step.
``FoldSequence.snapshots`` replays every prefix from the start, at
O(E · folds); only ``--dot`` and the tests use it.

``fold_report_lines`` reads its Betti trace off the step log, starting
from the final graph: a fold never joins two components, so the start's
Betti number is the final graph's plus the number of Betti-dropping
folds.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .graphs import (
    BasedGraph,
    Edge,
    LabeledGraph,
    _dot_lines,
    _find,
    betti,
    core_pair,
    is_folded,
    wedge_of_words,
)
from .words import LETTER_CHARS


class NotFoldableError(ValueError):
    """The supplied pair of directed edges cannot be folded."""


class FoldStep(NamedTuple):
    edge_a: int  # directed edge ids sharing origin and label
    edge_b: int
    origin: int
    label: int
    identified_vertices: tuple[int, int] | None  # (kept, removed), None if equal termini
    identified_edges: tuple[int, int]  # (kept pair id, removed pair id)
    betti_dropped: bool


@dataclass(frozen=True)
class FoldSequence:
    """The step log of a fold run.  Only the graphs at its ends are kept:
    ``penultimate`` is the graph before the last step (None when there
    are no steps), and every other graph is replayed from the steps."""

    start: LabeledGraph
    steps: tuple[FoldStep, ...]
    penultimate: LabeledGraph | None
    final: LabeledGraph

    @property
    def snapshots(self) -> tuple[LabeledGraph, ...]:
        """The start, then the graph after each step, each replayed from the
        log: O(E · folds) time and memory."""
        return tuple(_replay(self.start, self.steps[:i]) for i in range(len(self.steps) + 1))


def foldable_pairs(g: LabeledGraph) -> list[tuple[int, int]]:
    """All unordered foldable pairs: by vertex, then by the ``out_edges``
    order of the pair's first and second edge."""
    return _FoldState(g).pairs()


def _directed(k: int) -> int:
    """The directed edge with key ``k``; see ``_FoldState``."""
    return -(k >> 1) if k & 1 else k >> 1


class _FoldState:
    """The graph in the middle of a fold run, changed in place.

    A union-find over the vertices names each class by its smallest
    vertex, the vertex a fold keeps.  The key of a directed edge ``d`` is
    ``2·|d| + (d < 0)``, which sorts in ``out_edges`` order: by edge id,
    the stored orientation first.  Each class maps a label to a heap of
    the keys of its outgoing directed edges with that label; when two
    classes merge, the smaller heaps are pushed into the larger.  ``todo``
    is a heap of vertices that may have a label collision: every class
    that gained one since it was last found to have none.

    A fold keeps the smaller edge id of its pair and marks the larger
    dead.  The dropped edge's keys leave their heaps at once where they
    are cheap to reach: at the origin after a default pick, where it is
    the least key under the top, and at its terminus when it is the top.
    Any other dead key stays until it comes next after a heap's top,
    which is never dead: the kept edge's key at each end is smaller and
    in the same heap, and, should that key be dropped in turn, its own
    keeper's is, as heaps only merge.

    ``steps`` is the one fold loop.  A pick reads a heap's second key as
    the lesser child of its top, in O(1); only when that key is dead does
    it pop the top, drop the dead keys under it and push the top back.
    So a default pick costs O(1) per label with two or more keys at the
    vertex (at most 2·rank labels), plus O(log E) per dead key it drops.
    """

    def __init__(self, g: LabeledGraph) -> None:
        self.edges = g.edge_map()
        self.parent = dict(zip(g.vertices, g.vertices))
        out: dict[int, dict[int, list[int]]] = {v: {} for v in g.vertices}
        collide = set()
        # One pass over the edges, which are sorted by id: keys reach each
        # label list in increasing order, so every list is already a heap.
        for eid, o, t, x in g.edges:
            k = eid + eid
            at = out[o]
            if x in at:
                at[x].append(k)
                collide.add(o)
            else:
                at[x] = [k]
            at = out[t]
            if -x in at:
                at[-x].append(k + 1)
                collide.add(t)
            else:
                at[-x] = [k + 1]
        self.out = out
        self.dead: set[int] = set()
        self.todo = sorted(collide)

    def pairs(self) -> list[tuple[int, int]]:
        """All foldable pairs of the current graph: by vertex, then by the
        keys of the pair's first and second edge."""
        dead = self.dead
        keys = []
        for v in sorted(self.out):
            at_v = []
            for h in self.out[v].values():
                if len(h) > 1:
                    at_v += itertools.combinations(sorted(k for k in h if k >> 1 not in dead), 2)
            keys += sorted(at_v)
        return [(_directed(a), _directed(b)) for a, b in keys]

    def steps(
        self, pick: Callable[[list[tuple[int, int]]], tuple[int, int]] | None = None
    ) -> Iterator[FoldStep]:
        """Fold until no foldable pair is left, yielding each step.

        Without ``pick``, each fold is the default pick: at the lowest
        vertex with a collision, the top two keys of the label whose second
        key is least.  A ``pick`` receives ``pairs()`` and returns one of
        them.  A fold marks the larger edge id of its pair dead and merges
        the termini's classes."""
        edges, parent, out, dead, todo = self.edges, self.parent, self.out, self.dead, self.todo
        pop, push, replace, new = heapq.heappop, heapq.heappush, heapq.heapreplace, tuple.__new__
        while True:
            if pick is None:
                while todo:
                    o = todo[0]
                    if parent[o] == o:
                        k2 = None
                        for h in out[o].values():
                            n = len(h)
                            if n < 2:
                                continue
                            s = h[1] if n == 2 or h[1] < h[2] else h[2]
                            if s >> 1 in dead:
                                top = pop(h)  # never dead; see the class docstring
                                while h and h[0] >> 1 in dead:
                                    pop(h)
                                s = h[0] if h else None
                                push(h, top)
                                if s is None:
                                    continue
                            if k2 is None or s < k2:
                                k1, k2, at = h[0], s, h
                        if k2 is not None:
                            # k2 is the least key under the top k1, so it
                            # leaves the heap at once
                            pop(at)
                            replace(at, k1)
                            break
                    pop(todo)
                else:
                    return
            else:
                pairs = self.pairs()
                if not pairs:
                    return
                pair = pick(pairs)
                if pair not in pairs:
                    raise NotFoldableError(f"pick returned {pair!r}, not a foldable pair")
                k1, k2 = (2 * abs(d) + (d < 0) for d in pair)
                o = edges[k1 >> 1][1 + (k1 & 1)]
                if parent[o] != o:
                    o = _find(parent, o)
            # A listed pair's first key is the lesser, so e1 < e2 and e1 is kept.
            e1, e2 = k1 >> 1, k2 >> 1
            _, o1, t1, label = edges[e1]
            if k1 & 1:
                t1, label = o1, -label
            t2 = edges[e2][2 - (k2 & 1)]
            if parent[t1] != t1:
                t1 = _find(parent, t1)
            if parent[t2] != t2:
                t2 = _find(parent, t2)
            d1, d2 = -e1 if k1 & 1 else e1, -e2 if k2 & 1 else e2
            dead.add(e2)
            if t1 == t2:
                yield new(FoldStep, (d1, d2, o, label, None, (e1, e2), True))
                continue
            at = out[t2]
            h = at[-label]
            if h[0] == k2 ^ 1:  # the dropped edge's key at t2 leaves at once
                if len(h) == 1:
                    del at[-label]
                else:
                    pop(h)
            kept, removed = identified = (t1, t2) if t1 < t2 else (t2, t1)
            parent[removed] = kept
            into, other = out.pop(kept), out.pop(removed)
            if len(into) < len(other):
                into, other = other, into
            for lab, h in other.items():
                big = into.setdefault(lab, h)
                if big is not h:
                    if len(big) < len(h):
                        big, h = h, big
                    for k in h:
                        push(big, k)
                    into[lab] = big
            out[kept] = into
            push(todo, kept)
            yield new(FoldStep, (d1, d2, o, label, identified, (e1, e2), False))


def _replay(g: LabeledGraph, steps) -> LabeledGraph:
    """The graph after ``steps``, built once from the merges they record."""
    if not steps:
        return g
    # Read backwards, a removed vertex's keeper is already mapped to its
    # root: a vertex is kept only while it is a root, and removed at most once.
    root = {v: v for v in g.vertices}
    for step in reversed(steps):
        if (identified := step.identified_vertices) is not None:
            kept, removed = identified
            root[removed] = root[kept]
    dropped = {step.identified_edges[1] for step in steps}
    new = tuple.__new__
    return LabeledGraph(
        g.rank,
        frozenset(v for v, r in root.items() if v == r),
        tuple(new(Edge, (eid, root[o], root[t], x)) for eid, o, t, x in g.edges if eid not in dropped),
    )


def fold_to_completion(
    g: LabeledGraph,
    pick: Callable[[list[tuple[int, int]]], tuple[int, int]] | None = None,
) -> FoldSequence:
    """Fold until no foldable pair remains; terminates since each fold
    removes an edge pair.

    Both kinds of pick run in the one loop ``_FoldState.steps``.  Without
    ``pick``, each fold is the default pick (see the module docstring),
    found from the fold state in O(rank) plus O(log E) per dead key
    dropped, so the run is near-linear in the number of edge pairs.  A
    ``pick`` receives the current ``foldable_pairs``, in that order, and
    returns one of them; listing them costs O(E log E) per fold."""
    steps = list(_FoldState(g).steps(pick))
    # The last step's vertices are roots, and its dropped edge an edge, of
    # the penultimate graph, so replaying that one step on it gives the final.
    penultimate = _replay(g, steps[:-1]) if steps else None
    final = _replay(penultimate or g, steps[-1:])
    assert is_folded(final)
    return FoldSequence(g, tuple(steps), penultimate, final)


def random_fold_pick(rng: random.Random) -> Callable[[list[tuple[int, int]]], tuple[int, int]]:
    """A fold-order chooser drawing uniformly among the foldable pairs."""

    def pick(pairs: list[tuple[int, int]]) -> tuple[int, int]:
        return pairs[rng.randrange(len(pairs))]

    return pick


def subgroup_graph(generators, rank: int) -> BasedGraph:
    """Folded based core graph reading exactly the subgroup the generators
    span: fold the wedge of generator circles, then take the based core."""
    gens = tuple(generators)
    wedge = wedge_of_words(gens, rank)
    folded = fold_to_completion(wedge.graph).final
    return core_pair(BasedGraph(folded, wedge.basepoint))


def fold_report_lines(seq: FoldSequence) -> list[str]:
    """Human-readable per-step report with a Betti trace, read off the step
    log: a fold lowers the Betti number by one exactly when its termini
    already coincided, and otherwise keeps it.  A fold never joins two
    components, so the start's Betti number is the final graph's plus the
    drops, and only the small final graph is traversed."""
    final, chars = seq.final, LETTER_CHARS
    b = betti(final) + sum(step.betti_dropped for step in seq.steps)
    lines = [
        f"start: {len(seq.start.vertices)} vertices, {len(seq.start.edges)} edge pairs,"
        f" betti {b}"
    ]
    for i, step in enumerate(seq.steps, start=1):
        edge_a, edge_b, origin, label, identified, (kept_e, drop_e), dropped = step
        b -= dropped
        merged = (
            f"merged vertex {identified[1]} -> {identified[0]}"
            if identified
            else "termini already equal (betti drop)"
        )
        lines.append(
            f"step {i}: fold directed edges {edge_a},{edge_b} at vertex {origin} label {chars[label]};"
            f" edge pair {drop_e} -> {kept_e}; {merged}; betti {b}"
        )
    lines.append(
        f"folded: {len(final.vertices)} vertices, {len(final.edges)} edge pairs,"
        f" betti {b}"
    )
    return lines


def fold_sequence_to_dot(seq: FoldSequence) -> str:
    lines = ["digraph folds {"]
    for i, snap in enumerate(seq.snapshots):
        lines += [f"  subgraph cluster_{i} {{", f'    label="snapshot {i}";']
        lines += _dot_lines(snap, "    ", f"s{i}_v")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
