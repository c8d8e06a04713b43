"""The four workloads: how generated inputs become library calls, and how
every call's output is checked.

Each workload has four parts:

* ``shared(items)`` returns data the build needs, from the benchmark's
  own code (no library), or None.
* ``prepare(items)`` runs the benchmark's own oracles (no library) and
  returns ``(shared, expected)``: the shared data, and one expected
  answer per item.  Neither is set-up, and neither is timed.
* ``build(items, shared)`` turns the inputs into library objects and
  returns one zero-argument op per item.  This is the set-up that
  ``setup_s`` times, together with ``import rosefold``.
* ``check(item, expected, output)`` returns ``(problems, digest)``.

Ops reach library functions through module attributes at call time, so
the traced run sees the wrappers it installs and the untraced run sees
the plain functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import re
from types import SimpleNamespace

import expect
from inputs import almost_rose_edges, from_text


def _modules(*names):
    """The library modules an op uses; importing them is part of set-up."""
    return SimpleNamespace(**{n: importlib.import_module(f"rosefold.{n}") for n in names})


def _sha(text: str, n: int) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:n]


def run_cli(m, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = m.cli.main(argv)
    return code, out.getvalue()


# -- tame-long: `rosefold tame` on long classes ----------------------------------------


def tame_long_prepare(items):
    expected = []
    for it in items:
        oracle = expect.is_tame([from_text(c) for c in it["classes"]], it["rank"])
        expected.append({"tame": it["tame"], "oracle": oracle})
    return None, expected


def tame_long_build(items, shared):
    m = _modules("cli")
    argvs = [["tame", "--rank", str(it["rank"]), *it["classes"]] for it in items]
    return [lambda a=a: run_cli(m, a) for a in argvs]


def _verdict_problems(tame: bool, exp: dict, text: str) -> list[str]:
    problems = []
    if exp["oracle"] != exp["tame"]:
        problems.append("construction and Whitehead oracle disagree")
    if tame != exp["tame"]:
        problems.append(f"verdict tame={tame}, expected {exp['tame']}")
    want = "verdict: tame\n" if exp["tame"] else "verdict: not-tame\n"
    if want not in text:
        problems.append("certificate verdict line missing or wrong")
    return problems


def tame_long_check(item, exp, out):
    code, text = out
    problems = _verdict_problems(code == 0, exp, text)
    if code != (0 if exp["tame"] else 1):
        problems.append(f"exit code {code}")
    return problems, _sha(text, 16)


# -- tame-corpus: decide -> verify -> text on short sets -----------------------------------


def tame_corpus_prepare(items):
    expected = []
    for it in items:
        oracle = expect.is_tame(it["classes"], it["rank"])
        tame = oracle if it["tame"] is None else it["tame"]
        expected.append({"tame": tame, "oracle": oracle})
    return None, expected


def _corpus_op(m, classes):
    cert = m.tameness.decide_tame(classes)
    ok = m.tameness.verify_certificate(classes, cert)
    return cert.tame, ok, m.tameness.certificate_to_text(cert)


def tame_corpus_build(items, shared):
    m = _modules("tameness", "words")
    sets = [tuple(m.words.CyclicWord(tuple(c), it["rank"]) for c in it["classes"]) for it in items]
    return [lambda s=s: _corpus_op(m, s) for s in sets]


def tame_corpus_check(item, exp, out):
    tame, ok, text = out
    problems = _verdict_problems(tame, exp, text)
    if not ok:
        problems.append("verify_certificate rejected the certificate")
    return problems, _sha(text, 12)


# -- fold-large: `rosefold fold --basis` on heavy wedges --------------------------------------

_FOLD_LINE = re.compile(r"^(start|folded): (\d+) vertices, (\d+) edge pairs, betti (\d+)$")
_BETTI = re.compile(r"betti (\d+)$")


def fold_large_prepare(items):
    expected = []
    for it in items:
        nv, edges = expect.wedge([from_text(w) for w in it["words"]])
        inv = expect.fold(nv, edges)
        inv["outcome"] = "almost-rose" if it["kind"] == "basis" else "betti-drop"
        inv["exit"] = 0 if it["kind"] == "basis" else 1
        expected.append(inv)
    return None, expected


def fold_large_build(items, shared):
    m = _modules("cli")
    argvs = [["fold", "--basis", ",".join(it["words"]), "--rank", str(it["rank"])] for it in items]
    return [lambda a=a: run_cli(m, a) for a in argvs]


def parse_fold_report(code: int, text: str) -> dict:
    """Order-independent invariants of a fold report."""
    lines = text.splitlines()
    head, tail = _FOLD_LINE.match(lines[0]), None
    bettis = [int(head.group(4))] if head else []
    steps = 0
    for line in lines[1:]:
        if line.startswith("step "):
            steps += 1
            bettis.append(int(_BETTI.search(line).group(1)))
        elif _FOLD_LINE.match(line):
            tail = _FOLD_LINE.match(line)
    outcome = (
        "almost-rose" if "\npenultimate: almost-rose" in text
        else "betti-drop" if "betti-dropping fold" in text
        else "not-almost-rose" if "not an almost-rose" in text
        else "already-folded" if "already folded" in text
        else "unknown"
    )
    return {
        "start": tuple(int(head.group(i)) for i in (2, 3, 4)) if head else None,
        "final": tuple(int(tail.group(i)) for i in (2, 3, 4)) if tail else None,
        "steps": steps,
        "drops": sum(a > b for a, b in zip(bettis, bettis[1:])),
        "trace_ok": all(a - b in (0, 1) for a, b in zip(bettis, bettis[1:])),
        "outcome": outcome,
        "exit": code,
    }


def fold_large_check(item, exp, out):
    got = parse_fold_report(*out)
    problems = [f"{k}: {got[k]} != {exp[k]}" for k in ("start", "final", "steps", "drops", "outcome", "exit") if got[k] != exp[k]]
    if not got["trace_ok"]:
        problems.append("betti trace not monotone by single steps")
    if not exp["folded"] or exp["steps"] != exp["start"][1] - exp["final"][1]:
        problems.append("union-find oracle inconsistent")
    keys = ("start", "final", "steps", "drops", "outcome", "exit")
    return problems, _sha("|".join(str(got[k]) for k in keys), 16)


# -- graph-oracles: brute force, two-order folds, isomorphism, enumeration -----------------------


def graph_oracles_shared(items):
    """The almost-roses of each rank the items use, from the oracle."""
    ranks = {it["graph"]["rank"] for it in items if it["op"] == "morphism"} | {it["rank"] for it in items if it["op"] == "enumerate"}
    return {r: expect.almost_roses(r) for r in sorted(ranks)}


def graph_oracles_prepare(items):
    roses = graph_oracles_shared(items)
    rose_edges = {r: [almost_rose_edges(r, k, l, t) for k, l, t in reps] for r, reps in roses.items()}
    expected = []
    for it in items:
        if it["op"] == "morphism":
            wg = expect.whitehead_of_edges([e[1:] for e in it["graph"]["edges"]])
            expected.append([wg <= expect.whitehead_of_edges(edges) for edges in rose_edges[it["graph"]["rank"]]])
        elif it["op"] == "confluence":
            g = it["graph"]
            expected.append(expect.fold(g["vertices"], [e[1:] for e in g["edges"]]))
        elif it["op"] == "circuit":
            expected.append(True)
        else:
            r = it["rank"]
            keys = {expect.rose_key(edges) for edges in rose_edges[r]}
            expected.append({"count": expect.ALMOST_ROSE_COUNTS[r], "keys": keys})
    return roses, expected


def _labeled_graph(m, g: dict):
    edges = tuple(m.graphs.oriented_edge(eid, o, t, x) for eid, o, t, x in g["edges"])
    return m.graphs.LabeledGraph(g["rank"], frozenset(range(g["vertices"])), edges)


def _morphism_op(m, g, roses):
    wg = m.whitehead.whitehead_of_graph(g)
    out = []
    for rose in roses:
        found = m.oracles.brute_force_morphism(g, rose.graph)
        included = m.whitehead.is_subgraph(wg, m.tameness.whitehead_of_almost_rose(rose))
        out.append((rose, found, included, m.tameness.induced_morphism(g, rose)))
    return g, out


def _confluence_op(m, g, seed):
    a = m.folding.fold_to_completion(g).final
    b = m.folding.fold_to_completion(g, pick=m.folding.random_fold_pick(random.Random(seed))).final
    return a, b, m.graphs.is_label_isomorphic(a, b)


def graph_oracles_build(items, roses):
    m = _modules("folding", "graphs", "oracles", "tameness", "whitehead", "words")
    lib_roses = {
        r: [m.tameness.almost_rose(r, k, l, m.tameness.SignedRelabeling(t)) for k, l, t in reps]
        for r, reps in roses.items()
    }
    ops = []
    for it in items:
        if it["op"] == "morphism":
            g = _labeled_graph(m, it["graph"])
            rs = lib_roses[it["graph"]["rank"]]
            ops.append(lambda g=g, rs=rs: _morphism_op(m, g, rs))
        elif it["op"] == "confluence":
            g = _labeled_graph(m, it["graph"])
            ops.append(lambda g=g, s=it["pick_seed"]: _confluence_op(m, g, s))
        elif it["op"] == "circuit":
            g = m.graphs.circuit(m.words.CyclicWord(tuple(it["word"]), it["rank"]))
            p = it["perm"]
            h = m.graphs.LabeledGraph(
                g.rank,
                frozenset(p[v] for v in g.vertices),
                tuple(m.graphs.Edge(e.eid, p[e.origin], p[e.terminus], e.label) for e in g.edges),
            )
            ops.append(lambda g=g, h=h: m.graphs.is_label_isomorphic(g, h))
        else:
            ops.append(lambda r=it["rank"]: m.tameness.enumerate_almost_roses(r))
    return ops


def _edge_dict(graph) -> dict:
    return {e.eid: (e.origin, e.terminus, e.label) for e in graph.edges}


def graph_oracles_check(item, exp, out):
    problems: list[str] = []
    if item["op"] == "morphism":
        g, results = out
        src = _edge_dict(g)
        for want, (rose, found, included, induced) in zip(exp, results):
            if not (want == (found is not None) == included == (induced is not None)):
                problems.append(f"morphism/inclusion disagree: oracle {want}, search {found is not None}, inclusion {included}, induced {induced is not None}")
            dst = _edge_dict(rose.graph)
            for mor in (found, induced):
                if mor is not None and not expect.is_morphism(mor.vertex_map, mor.edge_map, src, dst):
                    problems.append("returned morphism does not verify")
        if len(results) != len(exp):
            problems.append("wrong number of almost-roses tried")
        summary = "".join("1" if found is not None else "0" for _, found, _, _ in results)
    elif item["op"] == "confluence":
        a, b, iso = out
        for name, graph in (("default", a), ("random", b)):
            if (len(graph.vertices), len(graph.edges)) != exp["final"][:2]:
                problems.append(f"{name}-order fold size differs from union-find oracle")
            if not expect.is_folded(list(_edge_dict(graph).values())):
                problems.append(f"{name}-order result not folded")
        if not iso:
            problems.append("fold orders gave non-isomorphic images")
        summary = f"{exp['final']}{iso}"
    elif item["op"] == "circuit":
        if out is not True:
            problems.append("circuit not isomorphic to its renumbered copy")
        summary = str(out)
    else:
        keys = {expect.rose_key(list(_edge_dict(r.graph).values())) for r in out}
        if len(out) != exp["count"] or len(exp["keys"]) != exp["count"]:
            problems.append(f"{len(out)} almost-roses, expected {exp['count']}")
        if keys != exp["keys"]:
            problems.append("enumerated almost-roses differ from the oracle's")
        summary = str(len(out))
    return problems, _sha(f"{item['op']}:{summary}", 16)


def _no_shared(items):
    return None


# ``cli``: ops return ``(exit code, stdout)`` from ``rosefold.cli.main``.
WORKLOADS = {
    "tame-long": SimpleNamespace(shared=_no_shared, prepare=tame_long_prepare, build=tame_long_build, check=tame_long_check, cli=True),
    "tame-corpus": SimpleNamespace(shared=_no_shared, prepare=tame_corpus_prepare, build=tame_corpus_build, check=tame_corpus_check, cli=False),
    "fold-large": SimpleNamespace(shared=_no_shared, prepare=fold_large_prepare, build=fold_large_build, check=fold_large_check, cli=True),
    "graph-oracles": SimpleNamespace(shared=graph_oracles_shared, prepare=graph_oracles_prepare, build=graph_oracles_build, check=graph_oracles_check, cli=False),
}
