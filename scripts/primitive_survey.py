#!/usr/bin/env python3
"""Survey the Nielsen orbit of primitive classes at a given rank and
length cap: decide tameness for every class and tabulate which
almost-rose shapes the certificates use.

Every orbit class is primitive, so every decision must come back tame;
a non-tame outcome here would falsify the cut-vertex criterion.

Usage: python3 scripts/primitive_survey.py [rank] [max_len]
"""

import os
import sys
from collections import Counter

from rosefold import decide_tame, primitive_orbit, verify_certificate
from rosefold.words import letter_key


def main() -> int:
    rank = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    max_len = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    orbit = primitive_orbit(rank, max_len)
    print(f"rank {rank}, cyclic length <= {max_len}: {len(orbit.classes)} classes"
          f" ({'complete' if orbit.complete else 'budget hit'})")
    shapes: Counter[tuple[int, int]] = Counter()
    lengths: Counter[int] = Counter()
    bad = 0
    for cls in sorted(orbit.classes, key=lambda c: (len(c), tuple(letter_key(v) for v in c.letters))):
        cert = decide_tame([cls])
        if not cert.tame or not verify_certificate([cls], cert):
            bad += 1
            print(f"  UNEXPECTED non-tame or unverified: {cls}")
            continue
        shapes[(cert.rose.k, cert.rose.l)] += 1
        lengths[len(cls)] += 1
    print("classes by cyclic length:")
    for length in sorted(lengths):
        print(f"  {length:3d}: {lengths[length]}")
    print("almost-rose shapes used by the certificates:")
    for (k, l), count in sorted(shapes.items()):
        print(f"  k={k} l={l}: {count}")
    if bad:
        print(f"FAILURES: {bad}")
        return 1
    print("all classes tame with verified certificates")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (``| head -1``): exit quietly, as rosefold does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
