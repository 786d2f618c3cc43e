"""The witness digest: one sha256 over the regular constructions of every
feasible pair with ``5 <= n < 260`` and ``k >= 3``, in loop order (n, then
k, ascending), updated with each graph's ``indices`` bytes and then its
``red`` bytes.  A refactor of ``construct.py`` that keeps every witness
byte for byte keeps this digest.  Each of those reports must hold no row
that adds 0 edges, and its rows must sum to the ``n * k / 2`` edges of
the witness.  Then it builds, and so validates, a fixed list of large
pairs and a fixed-seed draw of feasible pairs from ``n = 260`` up to
``MAX_NODES`` within the edge cap, and at each of their blue top-ups
asserts the lemmas proved in CHANGES.md: its edge set joins red to blue
only, and its order holds at least three blue nodes, each with room 0, 1
or 2 below ``k - k_blue``.

    python tests/witness_digest.py

Standard library and the library only, and pytest does not collect this
file.  It prints the digest and the pair count and fails unless both are
the pinned ones; a report that breaks its rule, or a large pair that
fails to build, raises.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time

import majority_illusion.construct as construct
from majority_illusion import construct_regular_illusion_report, regular_exists
from majority_illusion.graphs import MAX_EDGES, MAX_NODES

DIGEST = "461966fa099a211cf124805ae9c42b1b0bf2de6daf185a013374bb25336a04a9"
PAIRS = 24_190
# pairs that take both pairings: at the edge cap, dense and sparse; a long
# sparse pairing; and at the node cap
LARGE = [(2896, 2891), (162096, 51), (100000, 8), (262144, 15)]
DRAWN = 100


def witness_digest() -> tuple[str, int]:
    digest, pairs = hashlib.sha256(), 0
    for n in range(5, 260):
        for k in range(3, n):
            if n * k % 2 or not regular_exists(n, k).possible:
                continue
            cg, report = construct_regular_illusion_report(n, k)
            added = [stage["edges_added"] for stage in report.stages]
            if 0 in added or sum(added) != n * k // 2:
                raise AssertionError(f"report at n = {n}, k = {k}: rows add {added}")
            digest.update(cg.graph.indices.tobytes())
            digest.update(cg.red.tobytes())
            pairs += 1
    return digest.hexdigest(), pairs


def large_pairs(seed: int = 0) -> list[tuple[int, int]]:
    """``LARGE``, then ``DRAWN`` feasible pairs: ``n`` log-uniform in
    ``260..MAX_NODES`` and ``k`` uniform in ``3..n - 1`` within the edge cap."""
    rng, pairs = random.Random(seed), list(LARGE)
    while len(pairs) < len(LARGE) + DRAWN:
        n = round(math.exp(rng.uniform(math.log(260), math.log(MAX_NODES))))
        k = rng.randint(3, min(n - 1, 2 * MAX_EDGES // n))
        if n * k % 2 == 0 and regular_exists(n, k).possible:
            pairs.append((n, k))
    return pairs


def spy_on_the_top_up() -> None:
    """Make every later build assert the top-up's lemmas (see the module
    docstring), at the stage itself and where its keys are recorded."""
    top_up, add = construct._add_extra_blue_edges, construct.ConstructionReport.add

    def checked_top_up(n, order, deg, k, k_blue):
        room = k - k_blue - deg[order]
        if len(order) < 3 or not ((room >= 0) & (room <= 2)).all():
            raise AssertionError(f"top-up at n = {n}, k = {k}: {len(order)} blue nodes, "
                                 f"rooms {sorted(set(room.tolist()))}")
        return top_up(n, order, deg, k, k_blue)

    def checked_add(report, keys, stage, fresh, **extra):
        n, n_red = report.n, report.n // 2 + 1
        if stage == "blue-top-up" and not ((keys // n < n_red) & (keys % n >= n_red)).all():
            raise AssertionError(f"top-up at n = {n}, k = {report.k}: a key within one color")
        return add(report, keys, stage, fresh, **extra)

    construct._add_extra_blue_edges = checked_top_up
    construct.ConstructionReport.add = checked_add


def main() -> int:
    start = time.perf_counter()
    digest, pairs = witness_digest()
    print(f"{digest} over {pairs} pairs in {time.perf_counter() - start:.1f} s")
    if (digest, pairs) != (DIGEST, PAIRS):
        print(f"expected {DIGEST} over {PAIRS} pairs", file=sys.stderr)
        return 1
    start = time.perf_counter()
    large = large_pairs()
    spy_on_the_top_up()
    for n, k in large:
        construct_regular_illusion_report(n, k)
    print(f"{len(large)} large pairs up to n = {max(n for n, _ in large)} built, "
          f"validated and their top-ups checked in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
