"""The witness digest: one sha256 over the regular constructions of every
feasible pair with ``5 <= n < 260`` and ``k >= 3``, in loop order (n, then
k, ascending), updated with each graph's ``indices`` bytes and then its
``red`` bytes.  A refactor of ``construct.py`` that keeps every witness
byte for byte keeps this digest.

    python tests/witness_digest.py

Standard library and the library only, and pytest does not collect this
file.  It prints the digest and the pair count and fails unless both are
the pinned ones.
"""

from __future__ import annotations

import hashlib
import sys
import time

from majority_illusion import construct_regular_illusion_report, regular_exists

DIGEST = "461966fa099a211cf124805ae9c42b1b0bf2de6daf185a013374bb25336a04a9"
PAIRS = 24_190


def witness_digest() -> tuple[str, int]:
    digest, pairs = hashlib.sha256(), 0
    for n in range(5, 260):
        for k in range(3, n):
            if n * k % 2 or not regular_exists(n, k).possible:
                continue
            cg, _ = construct_regular_illusion_report(n, k)
            digest.update(cg.graph.indices.tobytes())
            digest.update(cg.red.tobytes())
            pairs += 1
    return digest.hexdigest(), pairs


def main() -> int:
    start = time.perf_counter()
    digest, pairs = witness_digest()
    print(f"{digest} over {pairs} pairs in {time.perf_counter() - start:.1f} s")
    if (digest, pairs) != (DIGEST, PAIRS):
        print(f"expected {DIGEST} over {PAIRS} pairs", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
