"""Standing digests of the exhaustive searches' answers and of the fast
builder's witnesses: one sha256 each over a fixed pool, so that a refactor
that changes any answer, tie-break included, fails here.

The pool is seeded: ``random.Random(0)``, then for n = 1..15 forty graphs
and for n = 16..22 twelve, 684 in all, each with its own edge probability
p drawn uniform from [0, 1) before its node pairs are drawn.  A change
that alters an answer on purpose updates the constant and says why in
CHANGES.md, as it would a pin.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

import majority_illusion.oracle as oracle_module
from majority_illusion import (
    IllusionKind,
    InfeasibleError,
    Objective,
    PreconditionError,
    best_coloring,
    coloring_to_string,
    fast_construct,
    formula_possible,
    illusion_formula,
    illusion_possible,
)
from majority_illusion.logic import FORMULA_KINDS

from conftest import random_graph

ORACLE_DIGEST = "e25ef80b3b1970077cb4c64e3f12edd5d9034b02797a0023c6a8f6be162e574d"
LOGIC_DIGEST = "4472e505a2d54909dbbeb89a4b9415edb27549439a16809e6b0b144cae0d791d"
FAST_DIGEST = "5604d78cb7500d7de66dda36969715434218e8b60f24c1a75d099749a822b280"
FAST_PAIRS = 2016


@lru_cache(maxsize=None)
def pool():
    rng = random.Random(0)
    return tuple(
        random_graph(rng, n, rng.random())
        for n in range(1, 23)
        for _ in range(40 if n <= 15 else 12)
    )


def test_oracle_digest(monkeypatch):
    """All three objectives' optima at both kernel paths (the sliced
    kernel from 7 nodes and from its default floor), then the six network
    kinds' verdicts on the graphs of at most 20 nodes (those of 21 and 22
    would take three times as long, on the kernel path of 17-20 nodes)."""
    digest = hashlib.sha256()
    for floor in (7, oracle_module._SLICED_MIN_NODES):
        monkeypatch.setattr(oracle_module, "_SLICED_MIN_NODES", floor)
        for g in pool():
            for objective in Objective:
                coloring, score = best_coloring(g, objective)
                digest.update(f"{coloring_to_string(coloring)} {score}\n".encode())
    for g in (g for g in pool() if g.n <= 20):
        verdicts = "".join("1" if illusion_possible(g, kind) else "0" for kind in IllusionKind)
        digest.update(f"{verdicts}\n".encode())
    assert len(pool()) == 684
    assert digest.hexdigest() == ORACLE_DIGEST


def test_logic_digest():
    """The eight library formulas' satisfiability verdicts on the pool's
    graphs of at most 12 nodes, which one chunk of valuations holds, and
    on its first graphs of 19 and 20 nodes, which take several chunks."""
    graphs = [g for g in pool() if g.n <= 12]
    graphs += [next(g for g in pool() if g.n == n) for n in (19, 20)]
    digest = hashlib.sha256()
    for g in graphs:
        verdicts = "".join("1" if formula_possible(g, illusion_formula(k)) else "0" for k in FORMULA_KINDS)
        digest.update(f"{verdicts}\n".encode())
    assert digest.hexdigest() == LOGIC_DIGEST


def test_fast_builder_digest():
    """Every pair ``fast_construct`` accepts below 260 nodes, n then k
    ascending, each graph's ``indices`` bytes then its ``red`` bytes."""
    digest, pairs = hashlib.sha256(), 0
    for n in range(260):
        for k in range(n):
            try:
                cg = fast_construct(n, k)
            except (PreconditionError, InfeasibleError):
                continue
            digest.update(cg.graph.indices.tobytes())
            digest.update(cg.red.tobytes())
            pairs += 1
    assert (digest.hexdigest(), pairs) == (FAST_DIGEST, FAST_PAIRS)
