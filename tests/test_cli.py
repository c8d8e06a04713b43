import argparse
import ast
import errno
import hashlib
import importlib
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import rosefold as rf
from rosefold import acceptance, cli
from rosefold.cli import main
from rosefold.oracles import endomorphism_to_text

ROOT = Path(__file__).resolve().parents[1]
FRESH_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # a fresh process imports this rosefold


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWh:
    def test_commutator_golden(self, capsys):
        code, out, _ = run(capsys, "wh", "abAB")
        assert code == 0
        assert out == (
            "rank 2\n"
            "edges: a-b a-B A-b A-B\n"
            "components: {aAbB}\n"
            "cut vertices: (none)\n"
            "connected; no cut vertex\n"
        )

    def test_single_letter_disconnected(self, capsys):
        code, out, _ = run(capsys, "wh", "a", "--rank", "2")
        assert code == 0
        assert "disconnected (3 components)" in out
        assert "edges: a-A\n" in out

    def test_rank_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "wh", "abc", "--rank", "2")
        assert code == 2
        assert "error" in err

    def test_rank_above_26_exits_2(self, capsys):
        code, _, err = run(capsys, "wh", "ab", "--rank", "27")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "wh", "abAB", "--dot")
        assert code == 0 and out.startswith("graph wh {")


class TestCutvx:
    def test_path_cuts(self, capsys):
        code, out, _ = run(capsys, "cutvx", "aab")
        assert code == 0 and out == "cut vertices: a A\n"


class TestReduce:
    def test_reduces(self, capsys):
        code, out, _ = run(capsys, "reduce", "abBA")
        assert code == 0 and out == "\n"

    def test_nontrivial(self, capsys):
        code, out, _ = run(capsys, "reduce", "aBba")
        assert code == 0 and out == "aa\n"


class TestTame:
    def test_tame_exits_0(self, capsys):
        code, out, _ = run(capsys, "tame", "aab")
        assert code == 0
        assert "verdict: tame" in out
        assert "relabel 2 -> -2" in out

    def test_not_tame_exits_1(self, capsys):
        code, out, _ = run(capsys, "tame", "abAB")
        assert code == 1
        assert "verdict: not-tame" in out

    def test_disconnected_case(self, capsys):
        code, _, _ = run(capsys, "tame", "ab")
        assert code == 0

    def test_parse_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "tame", "a!b")
        assert code == 2

    def test_trivial_class_exits_2(self, capsys):
        code, out, err = run(capsys, "tame", "aA")
        assert code == 2 and out == ""
        assert err.startswith("error: trivial word has no conjugacy class")

    def test_rank_above_26_exits_2(self, capsys):
        code, _, err = run(capsys, "tame", "ab", "--rank", "27")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_failed_self_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_certificate", lambda *args: False)
        code, out, err = run(capsys, "tame", "aab")
        assert (code, out) == (3, "")
        assert err == "internal error: certificate failed self-verification\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "cert.txt"
        code, out, _ = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 0
        assert target.read_text() == out

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "tame", "aab", "--out", str(tmp_path / "missing" / "cert.txt"))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_failed_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        # the disk fills up halfway through the certificate
        target = tmp_path / "cert.txt"
        target.write_text("old certificate\n")

        class HalfFull:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(rf.cli, "open", lambda path, mode: HalfFull(open(path, mode)), raising=False)
        code, out, err = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 2 and out == ""
        assert "No space left on device" in err and "Traceback" not in err
        assert target.read_text() == "old certificate\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cert.txt"]

    def test_out_writes_through_a_symlink(self, capsys, tmp_path):
        (tmp_path / "real.txt").write_text("old\n")
        link = tmp_path / "cert.txt"
        link.symlink_to("real.txt")
        code, out, _ = run(capsys, "tame", "aab", "--out", str(link))
        assert code == 0 and link.is_symlink() and (tmp_path / "real.txt").read_text() == out

    def test_out_replaces_old_file(self, capsys, tmp_path):
        target = tmp_path / "cert.txt"
        target.write_text("old certificate, longer than the new one " * 20)
        code, out, _ = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 0 and target.read_text() == out
        assert [p.name for p in tmp_path.iterdir()] == ["cert.txt"]

    def test_out_to_a_fifo_writes_into_it(self, capsys, tmp_path):
        fifo = tmp_path / "cert.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, out, _ = run(capsys, "tame", "aab", "--out", str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive() and code == 0 and received == [out]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["cert.fifo"]

    def test_out_to_stdout_pipe(self):
        # /dev/stdout names the pipe itself: it cannot be replaced, only written
        if not os.path.exists("/dev/stdout"):
            pytest.skip("no /dev/stdout")
        p = subprocess.run(
            [sys.executable, "-m", "rosefold", "tame", "aab", "--out", "/dev/stdout"],
            capture_output=True, text=True, env=FRESH_ENV,
        )
        assert p.returncode == 0 and p.stderr == ""
        assert p.stdout.startswith("tameness-certificate\n") and p.stdout == 2 * p.stdout[: len(p.stdout) // 2]

    def test_out_keeps_the_old_mode(self, capsys, tmp_path):
        target = tmp_path / "cert.txt"
        target.write_text("old\n")
        target.chmod(0o600)
        code, out, _ = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 0 and target.read_text() == out
        assert stat.S_IMODE(target.stat().st_mode) == 0o600

    def test_out_refuses_a_file_it_may_not_write(self, capsys, tmp_path, monkeypatch):
        # as Path.write_text would; the check is patched so that it also holds for root
        target = tmp_path / "cert.txt"
        target.write_text("old\n")
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: str(p) != str(target) and access(p, mode))
        code, _, err = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 2 and "Permission denied" in err and "Traceback" not in err
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cert.txt"]

    def test_out_writes_a_hard_linked_file_in_place(self, capsys, tmp_path):
        target = tmp_path / "cert.txt"
        target.write_text("old\n")
        other = tmp_path / "other.txt"
        other.hardlink_to(target)
        inode = target.stat().st_ino
        code, out, _ = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 0 and target.stat().st_ino == inode and other.read_text() == out

    def test_out_skips_a_temporary_left_by_a_killed_run(self, capsys, tmp_path, monkeypatch):
        names = iter(["dead", "beef"])
        monkeypatch.setattr(rf.cli.secrets, "token_hex", lambda n: next(names))
        stale = tmp_path / ".cert.txt.dead.tmp"
        stale.write_text("stale\n")
        target = tmp_path / "cert.txt"
        code, out, _ = run(capsys, "tame", "aab", "--out", str(target))
        assert code == 0 and target.read_text() == out and stale.read_text() == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [".cert.txt.dead.tmp", "cert.txt"]

    def test_one_rotation_per_class_per_pass(self, capsys, rotation_calls):
        # bAB reduces to A: two classes, rotated once by decide and once by verify
        code, _, _ = run(capsys, "tame", "aba", "bAB")
        assert code == 0 and len(rotation_calls) == 4

    def test_each_letter_read_once(self, capsys, letter_parse_calls):
        # one table lookup per character, in one call per argument
        code, _, _ = run(capsys, "tame", "aab")
        assert code == 0 and letter_parse_calls == ["aab"]

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        run(capsys, "tame", "aab")
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "tame", "aab")[0] == 0
        assert built == []


class TestClassInputForms:
    """Rotations, duplicates and input order do not change the output, and
    every command that reads words holds the same rank bounds."""

    @pytest.mark.parametrize("command", [["reduce"], ["wh"], ["cutvx"], ["tame"], ["fold", "--basis"]])
    @pytest.mark.parametrize(
        "word, rank, message",
        [("a", "1", "at least 2"), ("a", "27", "at most 26"), ("abc", "2", "exceeds rank 2")],
    )
    def test_rank_bounds_exit_2(self, capsys, command, word, rank, message):
        code, out, err = run(capsys, *command, word, "--rank", rank)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["orbit", "{n}", "2"], ["sep", "{n}", "--seed", "1"], ["rose-wh", "{n}", "1", "2"]],
        ids=["orbit", "sep", "rose-wh"],
    )
    @pytest.mark.parametrize("n, message", [("1", "at least 2, got 1"), ("-1", "at least 2, got -1"), ("27", "at most 26")])
    def test_rank_argument_bounds_exit_2(self, capsys, command, n, message):
        # the rank argument meets the same bounds, with the same words, as --rank
        code, out, err = run(capsys, *(arg.format(n=n) for arg in command))
        assert code == 2 and out == ""
        assert err.startswith("error: rank must be") and message in err

    @pytest.mark.parametrize("command", ["tame", "wh"])
    def test_rotations_and_duplicates(self, capsys, command):
        outputs = [run(capsys, command, *ws)[:2] for ws in (["aab"], ["baa"], ["aba", "aab"])]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["tame", "wh"])
    def test_order(self, capsys, command):
        assert run(capsys, command, "abAB", "b")[:2] == run(capsys, command, "b", "abAB")[:2]
        assert run(capsys, command, "aab", "ab")[:2] == run(capsys, command, "ab", "aab")[:2]


class TestRoseWh:
    def test_standard_312_golden(self, capsys):
        code, out, _ = run(capsys, "rose-wh", "3", "1", "2")
        assert code == 0
        assert out == (
            "rank 3\n"
            "edges: a-A a-b a-B a-c a-C A-B b-c b-C c-C\n"
            "components: {aAbBcC}\n"
            "cut vertices: a\n"
            "connected; cut vertices: a\n"
        )

    def test_bad_shape_exits_2(self, capsys):
        code, _, _ = run(capsys, "rose-wh", "2", "2", "2")
        assert code == 2

    def test_rank_above_26_exits_2(self, capsys):
        code, _, err = run(capsys, "rose-wh", "27", "1", "2")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


# A verified witness that ab, b is a basis of rank 2
AB_B_WITNESS = "basis-witness\nrank 2\nimage 1 -> ab\nimage 2 -> b\ninverse 1 -> aB\ninverse 2 -> b\n"


def positive_basis(seed: int, letters: int) -> list[str]:
    """A positive basis of rank 3 with at least ``letters`` letters, grown
    from a, b, c by seeded Nielsen products."""
    rng = random.Random(seed)
    basis = ["a", "b", "c"]
    while sum(map(len, basis)) < letters:
        i, j = rng.sample(range(3), 2)
        basis[i] = basis[i] + basis[j] if rng.random() < 0.5 else basis[j] + basis[i]
    return basis


# Components {0, 1} and {2, 3, 4}: parallel a edges 0 -> 1 fold with a
# Betti drop, and a b loop beside a b edge at 2 starts a chain of folds.
TWO_COMPONENT_GRAPH = "rank 2\n" + "".join(f"vertex {v}\n" for v in range(5)) + (
    "edge 1 0 1 a\nedge 2 0 1 a\nedge 3 1 0 b\n"
    "edge 4 2 3 a\nedge 5 3 4 b\nedge 6 4 2 a\nedge 7 2 2 b\nedge 8 2 4 b\n"
)


class TestFold:
    def test_basis_recognized(self, capsys):
        code, out, _ = run(capsys, "fold", "--basis", "ab,b")
        assert code == 0
        assert "penultimate: almost-rose k=1 l=2" in out

    def test_duplicate_circle_declined(self, capsys):
        code, out, _ = run(capsys, "fold", "--basis", "ab,ab")
        assert code == 1
        assert "betti-dropping fold at step 2" in out

    def test_graph_file_already_folded(self, capsys, tmp_path):
        path = tmp_path / "rose2.txt"
        path.write_text(rf.graph_to_text(rf.rose(2)))
        code, out, _ = run(capsys, "fold", "--graph", str(path))
        assert code == 0
        assert "already folded; no fold steps" in out

    def test_requires_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "fold")
        assert code == 2

    def test_witness_mode(self, capsys, tmp_path):
        spec = rf.EndomorphismSpec(
            2,
            (rf.parse_word("ab", 2), rf.parse_word("b", 2)),
            (rf.parse_word("aB", 2), rf.parse_word("b", 2)),
        )
        path = tmp_path / "basis.witness"
        path.write_text(endomorphism_to_text(spec))
        code, out, _ = run(capsys, "fold", "--basis", "ab,b", "--witness", str(path))
        assert code == 0
        assert "witness: verified automorphism" in out
        assert "first word readable in almost-rose: yes" in out

    def test_witness_first_word_not_cyclically_reduced(self, capsys, tmp_path):
        # abA is conjugate to b, which the rose reads: the class is what is read
        spec = rf.EndomorphismSpec(
            2,
            (rf.parse_word("abA", 2), rf.parse_word("a", 2)),
            (rf.parse_word("b", 2), rf.parse_word("Bab", 2)),
        )
        path = tmp_path / "basis.witness"
        path.write_text(endomorphism_to_text(spec))
        code, out, _ = run(capsys, "fold", "--basis", "abA,a", "--witness", str(path))
        assert code == 0
        assert "penultimate: almost-rose k=1 l=1" in out
        assert out.endswith("first word readable in almost-rose: yes\n")

    def test_core_graph_that_is_not_an_almost_rose_declines(self, capsys, tmp_path):
        # core, Betti 2 and surjective, but the default fold order loses core-ness
        g = rf.LabeledGraph(
            2,
            frozenset({0, 1, 2}),
            (rf.Edge(1, 0, 1, 1), rf.Edge(2, 0, 2, 1), rf.Edge(3, 1, 2, 1), rf.Edge(4, 1, 2, 2)),
        )
        path = tmp_path / "core.txt"
        path.write_text(rf.graph_to_text(g))
        code, out, _ = run(capsys, "fold", "--graph", str(path))
        assert code == 1
        assert out.endswith("penultimate recognition declined: not an almost-rose\n")

    def test_witness_with_graph_exits_2(self, capsys, tmp_path):
        path = tmp_path / "rose2.txt"
        path.write_text(rf.graph_to_text(rf.rose(2)))
        code, out, err = run(capsys, "fold", "--graph", str(path), "--witness", str(path))
        assert (code, out) == (2, "")
        assert err == "error: --witness only applies to --basis mode\n"

    @pytest.mark.parametrize("dot", [False, True], ids=["report", "dot"])
    @pytest.mark.parametrize("case", ["graph", "missing-file", "garbage"])
    def test_witness_checked_with_or_without_dot(self, capsys, tmp_path, case, dot):
        # the witness is read and checked before anything is printed, with --dot too
        graph = tmp_path / "rose2.txt"
        graph.write_text(rf.graph_to_text(rf.rose(2)))
        witness = tmp_path / "basis.witness"
        if case == "garbage":
            witness.write_text("garbage\n")
        args = ("--graph", str(graph)) if case == "graph" else ("--basis", "ab,b")
        code, out, err = run(capsys, "fold", *args, "--witness", str(witness), *(("--dot",) if dot else ()))
        assert (code, out) == (2, "") and err.startswith("error:")

    def test_witness_without_inverse_lines_is_not_verified(self, capsys, tmp_path):
        path = tmp_path / "basis.witness"
        path.write_text("basis-witness\nrank 2\nimage 1 -> ab\nimage 2 -> b\n")
        code, out, _ = run(capsys, "fold", "--basis", "ab,b", "--witness", str(path))
        assert code == 1
        assert out.endswith("witness: not a verified automorphism\n")

    def test_unverified_witness_with_dot_exits_2(self, capsys, tmp_path):
        # DOT output has no witness line, so --dot used to print the
        # snapshots and exit 0 on a witness whose inverse lines are wrong
        path = tmp_path / "basis.witness"
        path.write_text(AB_B_WITNESS.replace("inverse 1 -> aB", "inverse 1 -> ab"))
        code, out, _ = run(capsys, "fold", "--basis", "ab,b", "--witness", str(path))
        assert code == 1 and out.endswith("witness: not a verified automorphism\n")
        code, out, err = run(capsys, "fold", "--basis", "ab,b", "--witness", str(path), "--dot")
        assert (code, out, err) == (2, "", "error: --witness does not apply to --dot output\n")

    def test_witness_of_another_rank_exits_2(self, capsys, tmp_path):
        # two words are no basis of rank 3, yet a rank-2 witness was verified
        path = tmp_path / "basis.witness"
        path.write_text(AB_B_WITNESS)
        code, out, err = run(capsys, "fold", "--basis", "ab,b", "--rank", "3", "--witness", str(path))
        assert (code, out, err) == (2, "", "error: witness rank 2 does not match basis rank 3\n")

    @pytest.mark.parametrize(
        "args, text, message",
        [
            (
                ("--basis", "ab,b", "--witness"),
                "basis-witness\nrank 2\nimage 1 -> b\nimage 1 -> ab\nimage 2 -> b\n"
                "inverse 1 -> aB\ninverse 2 -> b\n",
                "error: bad witness line 4: 'image 1 -> ab': repeats an earlier 'image 1' line\n",
            ),
            (
                ("--graph",),
                "rank 2\nrank 3\nvertex 0\nedge 1 0 0 a\nedge 2 0 0 b\n",
                "error: bad graph line 2: 'rank 3': repeats an earlier 'rank' line\n",
            ),
        ],
        ids=["witness-repeats-image", "graph-repeats-rank"],
    )
    def test_file_repeating_a_line_exits_2(self, capsys, tmp_path, args, text, message):
        # the last of the two lines used to win: the witness passed as a
        # verified automorphism, and the graph was read at rank 3
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, out, err = run(capsys, "fold", *args, str(path))
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "rank 2\nvertex 0\nedge 0 0 0 a\n",
                "error: bad graph line 3: 'edge 0 0 0 a': edge id must be positive, got 0\n",
            ),
            (
                "rank 2\nvertx 1\n",
                "error: bad graph line 2: 'vertx 1': expected 'rank N', 'vertex V'"
                " or 'edge ID ORIGIN TERMINUS LETTER'\n",
            ),
            (
                "rank 2\n\n# a comment\nvertex 0\nloop 0 a\n",
                "error: bad graph line 5: 'loop 0 a': expected 'rank N', 'vertex V'"
                " or 'edge ID ORIGIN TERMINUS LETTER'\n",
            ),
            (
                "rank 2\nvertex 0\nedge 1 0 5 a\n",
                "error: bad graph line 3: 'edge 1 0 5 a': edge 1 endpoint outside vertex set\n",
            ),
            (
                "rank 2\nvertex 0\nedge 1 0 0 c\n",
                "error: bad graph line 3: 'edge 1 0 0 c': edge 1 label 3 exceeds rank 2\n",
            ),
            (
                "rank 2\nvertex 0\nvertex 0\nedge 1 0 0 a\nedge 2 0 0 b\n",
                "error: bad graph line 3: 'vertex 0': repeats an earlier 'vertex 0' line\n",
            ),
        ],
        ids=[
            "nonpositive-edge-id",
            "unknown-keyword",
            "after-blank-and-comment",
            "endpoint",
            "label",
            "repeated-vertex",
        ],
    )
    def test_bad_graph_line_names_its_reason(self, capsys, tmp_path, text, message):
        # the reason used to be dropped, so these all read "bad graph line N: '<line>'";
        # the edge rules had no line, and a repeated vertex line folded with exit 0
        path = tmp_path / "input.graph"
        path.write_text(text)
        code, out, err = run(capsys, "fold", "--graph", str(path))
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("rank", ["1", "2", "3"])
    def test_rank_with_graph_exits_2(self, capsys, tmp_path, rank):
        # the graph file declares its rank; --rank was ignored, even --rank 1
        path = tmp_path / "rose2.txt"
        path.write_text(rf.graph_to_text(rf.rose(2)))
        code, out, err = run(capsys, "fold", "--graph", str(path), "--rank", rank)
        assert (code, out, err) == (2, "", "error: --rank only applies to --basis mode\n")

    def test_missing_graph_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "fold", "--graph", str(tmp_path / "missing.graph"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read graph file: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "basis, message",
        [(",", "error: empty basis\n"), ("aA", "error: wedge words must be reduced and nonempty: aA\n")],
        ids=["empty", "unreduced"],
    )
    def test_rejected_basis_exits_2(self, capsys, basis, message):
        assert run(capsys, "fold", "--basis", basis) == (2, "", message)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "basis-witness\nrank 2\nimage 1 -> a\nimage 2 -> b\n",
                "error: witness images do not match the supplied basis\n",
            ),
            (
                "basis-witness\nimage 1 -> ab\nrank 2\nimage 2 -> b\n",
                "error: bad witness line 2: 'image 1 -> ab': rank must be declared before images\n",
            ),
            (
                "basis-witness\nrank 2\nimage 1 -> ab\nimage 2 -> b\nforward 1\n",
                "error: bad witness line 5: 'forward 1': expected 'basis-witness', 'rank N',"
                " 'image I -> WORD' or 'inverse I -> WORD'\n",
            ),
            (
                "basis-witness\nrank 2\nimage 1 -> ab\nimage 2 -> b\n"
                "inverse 1 -> aB\ninverse 2 -> b\nbasis-witness\nbasis-witness\n",
                "error: bad witness line 7: 'basis-witness': repeats an earlier 'basis-witness' line\n",
            ),
            (
                "rank 2\nbasis-witness\nimage 1 -> ab\nimage 2 -> b\ninverse 1 -> aB\ninverse 2 -> b\n",
                "error: bad witness line 2: 'basis-witness': 'basis-witness' must be the first line\n",
            ),
        ],
        ids=["other-images", "image-before-rank", "unknown-line", "repeated-header", "late-header"],
    )
    def test_rejected_witness_exits_2(self, capsys, tmp_path, text, message):
        # a header was skipped wherever it stood, so the last two ran to a report
        path = tmp_path / "basis.witness"
        path.write_text(text)
        assert run(capsys, "fold", "--basis", "ab,b", "--witness", str(path)) == (2, "", message)

    def test_dot_snapshots(self, capsys):
        code, out, _ = run(capsys, "fold", "--basis", "ab,b", "--dot")
        assert code == 0
        assert "cluster_0" in out and "cluster_1" in out

    def test_dot_names_negative_vertices_apart(self, capsys, tmp_path):
        # DOT reads s0_v-1 as node s0_v followed by node -1
        path = tmp_path / "negative.txt"
        path.write_text("rank 2\nvertex -1\nvertex 0\nedge 1 -1 0 a\nedge 2 0 -1 b\nedge 3 0 0 b\n")
        code, out, _ = run(capsys, "fold", "--graph", str(path), "--dot")
        assert code == 0 and "v-" not in out
        assert '    s0_vm1 [shape=circle label="-1"];\n' in out
        assert '    s0_vm1 -> s0_v0 [label="a"];\n' in out
        assert '    s1_vm1 -> s1_vm1 [label="b"];\n' in out

    @pytest.mark.parametrize(
        "basis,digest",
        [
            ("ab,b", "833f566ba8afac48"),
            ("ab,ab", "6c72850f3087364a"),
            ("aabAB,bab,cab", "adf7aae9b61fa982"),
        ],
    )
    def test_dot_bytes_are_pinned(self, capsys, basis, digest):
        # first 16 hex digits of the sha256 of stdout, recorded while the
        # snapshots were still drawn one fold at a time
        code, out, _ = run(capsys, "fold", "--basis", basis, "--dot")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "inputs,code,digest",
        [
            ("basis", 0, "d59a52812814b3b2"),
            ("basis-with-product", 1, "f4d5fb6baf3c5a08"),
            ("graph", 1, "bce8641d1085e06f"),
        ],
    )
    def test_report_bytes_are_pinned(self, capsys, tmp_path, inputs, code, digest):
        # first 16 hex digits of the sha256 of stdout, recorded while the
        # report's start Betti number was still computed from the start
        # graph: a 203-edge-pair wedge of a positive basis; the same basis
        # with the product of its first two words, which drops the Betti
        # number at step 237; and a two-component graph whose folds drop
        # it twice and merge vertices twice
        basis = positive_basis(13, 200)
        if inputs == "graph":
            path = tmp_path / "two-components.txt"
            path.write_text(TWO_COMPONENT_GRAPH)
            args = ("--graph", str(path))
        elif inputs == "basis":
            args = ("--basis", ",".join(basis))
        else:
            args = ("--basis", ",".join(basis + [basis[0] + basis[1]]))
        got, out, err = run(capsys, "fold", *args)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("rank", [3_000_000, 10**18])
    def test_witness_with_huge_rank_exits_2(self, capsys, tmp_path, rank):
        path = tmp_path / "basis.witness"
        path.write_text(f"basis-witness\nrank {rank}\nimage 1 -> ab\nimage 2 -> b\n")
        code, out, err = run(capsys, "fold", "--basis", "ab,b", "--witness", str(path))
        assert code == 2
        assert err == "error: witness text must give one image per generator\n"


class TestOrbit:
    def test_small_orbit_contents(self, capsys):
        code, out, _ = run(capsys, "orbit", "2", "2")
        assert code == 0
        lines = out.splitlines()
        assert "ab" in lines and "aB" in lines
        assert "classes: 8" in out
        assert "complete: yes" in out

    def test_zero_length_exits_2(self, capsys):
        code, _, _ = run(capsys, "orbit", "2", "0")
        assert code == 2

    def test_zero_budget_exits_2(self, capsys):
        assert run(capsys, "orbit", "2", "3", "--budget", "0") == (2, "", "error: budget must be at least 1, got 0\n")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "orbit.txt"
        code, out, _ = run(capsys, "orbit", "2", "2", "--out", str(target))
        assert code == 0
        assert len(target.read_text().splitlines()) == 8

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "orbit", "2", "2", "--out", str(tmp_path / "missing" / "orbit.txt"))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_rank_above_26_exits_2(self, capsys):
        code, _, err = run(capsys, "orbit", "27", "1")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestSep:
    def test_summary_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, "sep", "3", "--seed", "7", "--count", "4")
        code2, out2, _ = run(capsys, "sep", "3", "--seed", "7", "--count", "4")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "classes: 4" in out1

    def test_stdout_bytes_are_pinned(self, capsys):
        # first 16 hex digits of the sha256 of stdout, re-recorded when the
        # witness text took in its classes as `class` lines; moved back to
        # the head of stdout as bare lines, they give the bytes recorded
        # while the witness wrote its image and inverse lines with its own loop
        code, out, _ = run(capsys, "sep", "3", "--seed", "7", "--count", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "36dc5844528c7086"
        lines = out.splitlines(keepends=True)
        bare = [line.split(" -> ")[1] for line in lines if line.startswith("class ")]
        before = "".join(bare + [line for line in lines if not line.startswith("class ")])
        assert hashlib.sha256(before.encode()).hexdigest()[:16] == "6142f0cc31128c4f"

    def test_out_files(self, capsys, tmp_path):
        # one file holds the claim and its proof: the witness with its classes
        target = tmp_path / "corpus.witness"
        code, out, _ = run(capsys, "sep", "3", "--seed", "7", "--count", "4", "--out", str(target))
        assert (code, out) == (0, "classes: 4\nsplit: 2\n")
        printed = run(capsys, "sep", "3", "--seed", "7", "--count", "4")[1]
        assert target.read_text() + out == printed
        assert [p.name for p in tmp_path.iterdir()] == ["corpus.witness"]

    def test_bad_count_exits_2(self, capsys):
        code, _, _ = run(capsys, "sep", "3", "--seed", "1", "--count", "0")
        assert code == 2

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "corpus.witness")
        code, _, err = run(capsys, "sep", "3", "--seed", "7", "--count", "4", "--out", target)
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_out_files_replace_old_ones(self, capsys, tmp_path):
        target = tmp_path / "p"
        target.write_text("old witness, longer than the new one\n" * 20)
        code, _, _ = run(capsys, "sep", "3", "--seed", "7", "--count", "4", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith("separable-witness\n") and text.count("\nclass ") == 4
        assert [p.name for p in tmp_path.iterdir()] == ["p"]

    def test_rank_above_26_exits_2(self, capsys):
        code, _, err = run(capsys, "sep", "27", "--seed", "1", "--count", "1", "--max-len", "2")
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestCheck:
    def test_selected_criteria(self, capsys):
        code, out, _ = run(
            capsys, "check", "--only", "wh-closed-form-312", "negative-controls"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 and all(line.startswith("PASS") for line in lines)

    def test_unknown_criterion_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "--only", "nope")
        assert code == 2 and "unknown criteria" in err

    def test_only_needs_a_name(self, capsys):
        # an empty list would select nothing, and argparse rejects it
        with pytest.raises(SystemExit) as exc:
            main(["check", "--only"])
        assert exc.value.code == 2
        assert "--only" in capsys.readouterr().err


def make_raise(monkeypatch, owner, name, exc):
    """Replace ``owner.name`` (or ``owner[name]``) with a call that raises ``exc``."""

    def raiser(*args, **kwargs):
        raise exc

    patch = monkeypatch.setitem if isinstance(owner, dict) else monkeypatch.setattr
    patch(owner, name, raiser)


# Each command with a library call it makes before printing anything
COMMAND_CALLS = [
    (("reduce", "ab"), cli, "free_reduce"),
    (("wh", "ab"), cli, "whitehead_of_classes"),
    (("cutvx", "ab"), cli, "whitehead_of_classes"),
    (("tame", "ab"), cli, "decide_tame"),
    (("fold", "--basis", "ab,b"), cli, "fold_to_completion"),
    (("rose-wh", "3", "1", "2"), cli, "whitehead_of_almost_rose"),
    (("orbit", "2", "2"), cli, "primitive_orbit"),
    (("sep", "3", "--seed", "1"), cli, "random_separable_set"),
    (("check", "--only", "wh-closed-form-312"), acceptance.CRITERIA, "wh-closed-form-312"),
]


class TestErrorBoundary:
    """``main`` alone turns a rejected input, any ``ValueError``, into exit 2;
    any other exception is an internal error and is not caught."""

    @pytest.mark.parametrize("argv, owner, name", COMMAND_CALLS, ids=[c[0][0] for c in COMMAND_CALLS])
    def test_value_error_in_any_command_exits_2(self, capsys, monkeypatch, argv, owner, name):
        make_raise(monkeypatch, owner, name, ValueError("rejected deep inside"))
        assert run(capsys, *argv) == (2, "", "error: rejected deep inside\n")

    @pytest.mark.parametrize("argv, owner, name", COMMAND_CALLS, ids=[c[0][0] for c in COMMAND_CALLS])
    def test_runtime_error_in_any_command_propagates(self, capsys, monkeypatch, argv, owner, name):
        make_raise(monkeypatch, owner, name, RuntimeError("internal error: broken"))
        with pytest.raises(RuntimeError, match="internal error: broken"):
            main(list(argv))

    @pytest.mark.parametrize(
        "argv",
        [("tame", "aab"), ("fold", "--basis", "ab,b", "--witness")],
        ids=["tame", "fold-witness"],
    )
    def test_certificate_the_verifier_rejects_exits_3(self, capsys, tmp_path, flipped_induced_map, argv):
        # the library does not re-check its certificates; each command that
        # prints a certified claim checks it with verify_certificate
        path = tmp_path / "basis.witness"
        path.write_text(AB_B_WITNESS)
        argv += (str(path),) if argv[0] == "fold" else ()
        assert run(capsys, *argv) == (3, "", "internal error: certificate failed self-verification\n")

    def test_every_command_is_covered(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices
        assert {argv[0] for argv, _, _ in COMMAND_CALLS} == set(commands)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("orbit", "2", "0"), "max_len must be at least 1, got 0"),
            (("sep", "3", "--seed", "1", "--count", "0"), "count must be at least 1, got 0"),
            (("sep", "3", "--seed", "1", "--max-len", "1"), "max_len must be at least 2, got 1"),
        ],
        ids=["orbit-max-len", "sep-count", "sep-max-len"],
    )
    def test_bounds_are_the_library_messages(self, capsys, argv, message):
        # each bound is checked once, where its value is used
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [("-m", "rosefold", "orbit", "3", "8"), ("scripts/almost_rose_atlas.py", "3"), ("scripts/primitive_survey.py", "2", "6")],
        ids=["orbit", "atlas", "survey"],
    )
    def test_a_closed_pipe_exits_1_with_nothing_on_stderr(self, argv):
        # as in `... | head -1` once head has gone: every write to stdout fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            p = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=write_end, stderr=subprocess.PIPE, env=FRESH_ENV)
        finally:
            os.close(write_end)
        assert (p.returncode, p.stderr) == (1, b"")


# -- the package's layering ------------------------------------------------------

# Each module's relative imports: words -> graphs -> {folding, whitehead} ->
# tameness -> oracles -> cli, so the certified decision loads no fold code.
# The package root imports none of them; a name's module loads when it is read.
LAYERING = {
    "words": set(),
    "graphs": {"words"},
    "folding": {"graphs", "words"},
    "whitehead": {"graphs", "words"},
    "tameness": {"graphs", "whitehead", "words"},
    "oracles": {"folding", "graphs", "tameness", "words"},
    "acceptance": {"folding", "graphs", "oracles", "tameness", "whitehead", "words"},
    "cli": {"folding", "graphs", "oracles", "tameness", "whitehead", "words"},
    "__init__": set(),
    "__main__": {"cli"},
}


def _relative_imports(nodes) -> set[str]:
    found = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_each_module_imports_only_the_layers_below_it():
    top, nested = {}, {}
    for path in sorted(Path(rf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        top[path.stem] = _relative_imports(tree.body)
        nested[path.stem] = _relative_imports(ast.walk(tree)) - top[path.stem]
    assert top == LAYERING
    # only ``check`` loads the acceptance criteria
    assert {name: found for name, found in nested.items() if found} == {"cli": {"acceptance"}}


def test_importing_the_cli_leaves_the_acceptance_criteria_unloaded():
    code = (
        "import sys, rosefold.cli\n"
        "print('rosefold.acceptance' in sys.modules)\n"
        "sys.exit(rosefold.cli.main(['check', '--only', 'wh-closed-form-312']))\n"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=FRESH_ENV)
    assert (p.returncode, p.stderr) == (0, "")
    loaded, result = p.stdout.splitlines()
    assert loaded == "False" and result.startswith("PASS wh-closed-form-312")


DECISION = ["rosefold", "rosefold.graphs", "rosefold.tameness", "rosefold.whitehead", "rosefold.words"]
FOLDS = ["rosefold", "rosefold.folding", "rosefold.graphs", "rosefold.words"]


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import rosefold", ["rosefold"]),
        ("import rosefold.tameness", DECISION),
        ("import rosefold.folding", FOLDS),
        ("import rosefold; rosefold.decide_tame", DECISION),
        ("import rosefold; rosefold.folding", FOLDS),
    ],
)
def test_a_fresh_import_loads_only_the_layers_it_needs(statement, loaded):
    code = f"import sys; {statement}; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rosefold'))"
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=FRESH_ENV)
    assert (p.returncode, p.stderr) == (0, "")
    assert p.stdout.split() == loaded


class TestLazyRoot:
    """``rosefold`` reads each API name from its home module on every read
    and stores nothing: the tracer rebinds functions in every ``rosefold``
    namespace and expects the same keys after a traced run."""

    def test_reading_the_api_stores_nothing_in_the_package(self):
        for layer in ("words", "graphs", "folding", "whitehead", "tameness", "oracles"):
            importlib.import_module(f"rosefold.{layer}")
        before = set(vars(rf))
        for name in rf.__all__:
            getattr(rf, name)
        assert set(vars(rf)) == before and before.isdisjoint(rf.__all__)

    def test_each_name_is_its_home_modules_object(self):
        assert rf.decide_tame is rf.tameness.decide_tame
        assert rf.fold_to_completion is rf.folding.fold_to_completion
        for name in rf.__all__:
            obj = getattr(rf, name)
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_a_rebound_function_is_read_through(self, monkeypatch):
        original = rf.decide_tame
        monkeypatch.setattr(rf.tameness, "decide_tame", lambda *args: None)
        assert rf.decide_tame is rf.tameness.decide_tame is not original
        monkeypatch.undo()
        assert rf.decide_tame is original

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'rosefold' has no attribute 'decide'$"):
            rf.decide
        assert not hasattr(rf, "decide") and not hasattr(rf, "_tame_certificate")

    def test_dir_lists_the_api(self):
        assert set(rf.__all__) <= set(dir(rf))


def test_star_import_binds_the_api_names_from_their_home_modules():
    namespace = {}
    exec("from rosefold import *", namespace)
    del namespace["__builtins__"]
    assert len(rf.__all__) == len(set(rf.__all__)) == 76
    assert namespace.keys() == set(rf.__all__)
    for name, obj in namespace.items():
        home = obj.__module__  # a submodule object has none
        assert home.startswith("rosefold.") and getattr(sys.modules[home], name) is obj
