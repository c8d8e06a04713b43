#!/usr/bin/env python3
"""Record the golden output digests in ``goldens.json``.

    python3 bench/record_goldens.py

Runs every pool item of the workloads that have goldens once and stores
the digest of its output by pool index.  Run it only on a commit whose
outputs are the reference (the goldens were recorded at the commit that
added the benchmark); a later change that alters certificate bytes or
fold invariants must say so, because every run checks against these.
"""

from __future__ import annotations

import json
import sys

from run import GOLDENS, import_library
import inputs
import workloads


def main() -> int:
    import_library()
    goldens = {}
    for name, make_pool in inputs.POOLS.items():
        pool = make_pool()
        w = workloads.WORKLOADS[name]
        shared, expected = w.prepare(pool)
        digests = []
        for item, exp, op in zip(pool, expected, w.build(pool, shared)):
            problems, digest = w.check(item, exp, op())
            if problems:
                print(f"{name} pool item {item['pool']}: {problems}", file=sys.stderr)
                return 1
            digests.append(digest)
        goldens[name] = {"pool_sha256": inputs.digest(pool), "digests": digests}
        print(f"{name}: {len(digests)} digests")
    GOLDENS.write_text(json.dumps(goldens, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
