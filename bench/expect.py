"""Expected answers computed by the benchmark itself, without rosefold.

Graphs here are plain edge lists ``(origin, terminus, signed label)``.
These oracles are small and slow-but-obvious on purpose: a union-find
fold, a Whitehead graph with a brute-force cut-vertex test, and the
almost-roses of a rank up to label isomorphism by a canonical key.
"""

from __future__ import annotations

import itertools

from inputs import almost_rose_edges, signed_letters


def positive(edges):
    """Store every edge with a positive label, as the library does."""
    return [(o, t, x) if x > 0 else (t, o, -x) for o, t, x in edges]


# -- Whitehead graphs and the tameness criterion -------------------------------


def whitehead_of_classes(classes) -> set[frozenset[int]]:
    """Edges {u, v^-1} over cyclically consecutive letters (u, v)."""
    edges = set()
    for c in classes:
        k = len(c)
        for i in range(k):
            edges.add(frozenset((c[i], -c[(i + 1) % k])))
    return edges


def whitehead_of_edges(edges) -> set[frozenset[int]]:
    """Edges {x, y} for distinct labels x, y of two edges into one vertex."""
    incoming: dict[int, set[int]] = {}
    for o, t, x in edges:
        incoming.setdefault(t, set()).add(x)
        incoming.setdefault(o, set()).add(-x)
    return {frozenset(p) for labels in incoming.values() for p in itertools.combinations(labels, 2)}


def _connected(vertices: set[int], edges) -> bool:
    if not vertices:
        return True
    adj = {v: set() for v in vertices}
    for e in edges:
        u, v = tuple(e)
        if u in vertices and v in vertices:
            adj[u].add(v)
            adj[v].add(u)
    start = next(iter(vertices))
    seen, stack = {start}, [start]
    while stack:
        for x in adj[stack.pop()] - seen:
            seen.add(x)
            stack.append(x)
    return seen == vertices


def is_tame(classes, rank: int) -> bool:
    """Tame exactly when the Whitehead graph on all 2n letters is
    disconnected or has a cut vertex."""
    letters = set(signed_letters(rank))
    wh = whitehead_of_classes(classes)
    if not _connected(letters, wh):
        return True
    return any(not _connected(letters - {v}, wh) for v in letters)


# -- union-find folding -----------------------------------------------------------


def fold(vertices: int, edges) -> dict:
    """Fold a graph on vertices ``0..vertices-1`` to completion and return
    the order-independent invariants of the result."""
    edges = positive(edges)
    parent = list(range(vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def components() -> int:
        comp = list(range(vertices))

        def croot(v):
            while comp[v] != v:
                v = comp[v]
            return v

        for o, t, _ in edges:
            comp[croot(o)] = croot(t)
        return len({croot(v) for v in range(vertices)})

    changed = True
    while changed:
        changed = False
        seen: dict[tuple[int, int], int] = {}
        for o, t, x in edges:
            for a, b, lab in ((o, t, x), (t, o, -x)):
                key, tb = (find(a), lab), find(b)
                other = seen.setdefault(key, tb)
                if find(other) != tb:
                    parent[find(other)] = tb
                    changed = True
    final = {(find(o), find(t), x) for o, t, x in edges}
    c = components()
    v1 = len({find(v) for v in range(vertices)})
    out = {
        "start": (vertices, len(edges), len(edges) - vertices + c),
        "final": (v1, len(final), len(final) - v1 + c),
        "folded": is_folded(final),
    }
    out["steps"] = len(edges) - len(final)
    out["drops"] = out["start"][2] - out["final"][2]
    return out


def is_folded(edges) -> bool:
    keys = [k for o, t, x in positive(edges) for k in ((o, x), (t, -x))]
    return len(keys) == len(set(keys))


def wedge(words) -> tuple[int, list[tuple[int, int, int]]]:
    """Circles spelling ``words``, joined at vertex 0."""
    edges, nxt = [], 1
    for w in words:
        stops = [0] + list(range(nxt, nxt + len(w) - 1)) + [0]
        nxt += len(w) - 1
        edges += [(stops[i], stops[i + 1], w[i]) for i in range(len(w))]
    return nxt, edges


# -- almost-roses and morphisms -----------------------------------------------------


def rose_key(edges) -> tuple:
    """Canonical form of a two-vertex graph up to label isomorphism."""
    pos = positive(edges)
    return min(tuple(sorted((s[o], s[t], x) for o, t, x in pos)) for s in ((0, 1), (1, 0)))


def almost_roses(rank: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """One ``(k, l, targets)`` per almost-rose of ``rank`` up to label
    isomorphism, scanning every shape and signed relabeling."""
    found: dict[tuple, tuple[int, int, tuple[int, ...]]] = {}
    for k in range(1, rank):
        for l in range(k, rank + 1):
            for perm in itertools.permutations(range(1, rank + 1)):
                for signs in itertools.product((1, -1), repeat=rank):
                    targets = tuple(s * p for s, p in zip(signs, perm))
                    found.setdefault(rose_key(almost_rose_edges(rank, k, l, targets)), (k, l, targets))
    return list(found.values())


ALMOST_ROSE_COUNTS = {2: 12, 3: 90}  # known counts; almost_roses() must reproduce them


def is_morphism(vmap: dict, emap: dict, src, dst: dict) -> bool:
    """``src`` is ``{eid: (o, t, x)}``, ``dst`` likewise, all labels positive."""
    if set(emap) != set(src):
        return False
    for eid, (o, t, x) in src.items():
        img = dst.get(emap[eid])
        if img is None or img != (vmap.get(o), vmap.get(t), x):
            return False
    return True
