"""Simple undirected graphs over dense integer node ids.

A graph is stored as compressed sparse rows: ``indptr`` (``n + 1``
offsets) and ``indices`` (every node's neighbours, ascending), both
read-only int64 arrays, so each edge appears once from each end.  Every
walker in the package reads these rows, by :meth:`Graph.neighbor_sums` or
by slices of their lists.  :func:`make_graph` and the generators validate
ids and irreflexivity (no self-loops), and symmetry holds by construction.
Instances are immutable after construction, so they are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import GraphError, shown

# Largest node count any graph may declare, checked before anything is
# allocated: a text header of a few bytes cannot ask for gigabytes.
# make_graph(MAX_NODES, []) takes about 2 ms and 2 MB of resident memory
# on a 2-vCPU VM.  Nothing in the package builds per-node Python sets;
# the optional ``adj`` view costs about 0.26 s and 70 MB more at this size.
MAX_NODES = 1 << 18
# Largest edge count a generator or construction may produce, checked
# before the first edge is built.  gen complete 2000 (1 999 000 edges)
# takes about 0.3 s and 190 MB at peak on the same VM.
MAX_EDGES = 1 << 22
# Edge keys ``u * n + v`` are uint32 below this many nodes (every key is
# then below 2^32) and int64 from it on: make_graph sorts them at that
# width, and every construction stage builds them at it.
_NARROW_KEYS_BELOW = 1 << 16


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple, undirected, irreflexive graph on nodes ``0..n-1``.

    Node ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]`` in
    ascending order.  Build instances through :func:`make_graph` or the
    generators below; the constructor itself performs no validation.
    Two graphs are equal when they have the same nodes and edges.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        """Freeze both arrays."""
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @classmethod
    def _over_frozen(
        cls, n: int, indptr: np.ndarray, indices: np.ndarray, neighbor_masks: np.ndarray
    ) -> Graph:
        """An instance over arrays that are already read-only, its
        :attr:`neighbor_masks` given: ``object.__new__`` and one ``__dict__``
        update, with no ``__init__`` or ``__post_init__``.  For
        :func:`~majority_illusion.oracle.enumerate_regular`, which freezes
        each block's arrays once."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, indptr=indptr, indices=indices, neighbor_masks=neighbor_masks)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes()))

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Every node's neighbours as a set, derived on first use: a view for
        readers outside the package, which nothing in it reads."""
        flat = _node_ids(self.n)[self.indices].tolist()
        bounds = self.indptr.tolist()
        return tuple(map(frozenset, map(flat.__getitem__, map(slice, bounds, bounds[1:]))))

    @cached_property
    def neighbor_masks(self) -> np.ndarray:
        """Every node's neighbours as a read-only uint32 bitset (bit ``j``
        set: ``j`` is a neighbour), derived on first use as the row sums of
        the node bits ``1 << j``: a row's bits are distinct, so their sum is
        their union.  Raises :class:`GraphError` above 32 nodes."""
        if self.n > 32:
            raise GraphError(f"graph has {self.n} nodes, above 32-bit neighbour masks")
        out = self.neighbor_sums(np.int64(1) << np.arange(self.n)).astype(np.uint32)
        out.flags.writeable = False
        return out

    def degree(self, i: int) -> int:
        self.check_node(i)
        return int(self.indptr[i + 1] - self.indptr[i])

    def neighbors(self, i: int) -> frozenset[int]:
        self.check_node(i)
        return frozenset(self.indices[self.indptr[i] : self.indptr[i + 1]].tolist())

    def neighbor_sums(self, values: np.ndarray) -> np.ndarray:
        """Every node's sum of ``values`` (one per node) over its neighbours,
        e.g. its count of flagged neighbours, as int64: one ``reduceat`` of
        the gathered values at the row starts.

        ``reduceat`` reads one value at an empty row's start; a 0 appended
        to the gathered values keeps that start in bounds for a trailing
        empty row, and every empty row's sum is set to 0."""
        gathered = np.append(values[self.indices], values.dtype.type(0))
        sums = np.add.reduceat(gathered, self.indptr[:-1], dtype=np.int64)
        sums[self.indptr[:-1] == self.indptr[1:]] = 0
        return sums

    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.indptr).tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as two int64 columns ``u < v``, sorted by ``(u, v)``:
        the ``u < v`` half of the rows."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = self.indices > rows
        return rows[upper], self.indices[upper]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        u, v = self.edge_arrays()
        ids = _node_ids(self.n)
        return tuple(zip(ids[u].tolist(), ids[v].tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def is_regular(self, k: int | None = None) -> bool:
        degs = set(self.degrees())
        if len(degs) > 1:
            return False
        if k is None:
            return True
        return degs == {k} or (self.n == 0)

    def isolated_nodes(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(np.diff(self.indptr) == 0).tolist())

    def check_node(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise GraphError(f"node id {shown(i)} out of range for graph on {self.n} nodes")


def _node_ids(n: int) -> np.ndarray:
    """``0..n-1`` as Python ints, so that lists taken through it share one
    int object per node id."""
    return np.arange(n).astype(object)


def make_graph(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from unordered node-id pairs, given as an iterable of
    pairs or as an ``(m, 2)`` int64 array.

    Duplicate pairs (in either orientation) collapse to a single edge.
    Raises :class:`GraphError` on a node count outside ``0..MAX_NODES``, and
    on out-of-range ids or self-loops, naming the first offending pair.
    """
    if n < 0:
        raise GraphError(f"node count must be nonnegative, got {shown(n)}")
    check_size(n, 0)
    pairs = _pair_array(n, edges)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        first = int(bad.argmax())
        _check_pair(int(u[first]), int(v[first]), n)
    return _csr_graph(n, u, v)


def _csr_graph(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on ``n`` nodes with the edges ``(u[i], v[i])``: ids in
    ``0..n-1`` and no self-loops, which are not checked here; duplicate
    pairs collapse to one edge."""
    # Each edge as a key ``row * n + neighbour`` from each end, sorted: rows,
    # then neighbours.  Narrow keys sort in about half the time of int64.
    dtype = _key_dtype(n)
    u, v, m = u.astype(dtype, copy=False), v.astype(dtype, copy=False), len(u)
    keys = np.empty(2 * m, dtype=dtype)
    np.multiply(u, n, out=keys[:m])
    keys[:m] += v
    np.multiply(v, n, out=keys[m:])
    keys[m:] += u
    keys = _sorted_unique(keys)
    indptr, row_starts = _key_rows(keys, n)
    keys -= row_starts  # in place: the neighbours
    return Graph(n, indptr, keys.astype(np.int64, copy=False))


def _key_dtype(n: int) -> type:
    """The dtype of the edge keys ``u * n + v`` on ``n`` nodes: uint32 below
    :data:`_NARROW_KEYS_BELOW` nodes, int64 from there on."""
    return np.uint32 if n < _NARROW_KEYS_BELOW else np.int64


def _key_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """For sorted keys ``row * n + column`` with ``column < n``: the row
    offsets (row ``i``'s keys are ``keys[indptr[i]:indptr[i + 1]]``) and
    each key's ``row * n``, which taken off leaves its column.  One search
    for each row's first possible key, ``i * n``; no division."""
    row_starts = np.arange(n + 1, dtype=keys.dtype) * n
    indptr = np.searchsorted(keys, row_starts)
    return indptr, np.repeat(row_starts[:-1], np.diff(indptr))


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending; ``keys`` is sorted in
    place.  A sort and one comparison of neighbours, which at millions of
    keys beats ``np.unique``'s hash path."""
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def _pair_array(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array.  Ids beyond int64 are out of
    range for any graph; the first bad pair is reported, in input order."""
    if isinstance(edges, np.ndarray):
        return edges.astype(np.int64, copy=False).reshape(-1, 2)
    pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
    try:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
    except OverflowError:
        for u, v in pairs:
            _check_pair(u, v, n)
        raise
    return flat.reshape(-1, 2)


def _check_pair(u: int, v: int, n: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({shown(u)}, {shown(v)}) uses a node id outside 0..{n - 1}")
    if u == v:
        raise GraphError(f"edge ({shown(u)}, {shown(v)}) is a self-loop")


def check_size(n: int, edge_count: int) -> None:
    """Raise :class:`GraphError` if ``n`` nodes or ``edge_count`` edges are
    over :data:`MAX_NODES` or :data:`MAX_EDGES`."""
    if n > MAX_NODES:
        raise GraphError(f"node count {shown(n)} exceeds the limit of {MAX_NODES}")
    if edge_count > MAX_EDGES:
        raise GraphError(f"edge count {shown(edge_count)} exceeds the limit of {MAX_EDGES}")


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n >= 3`` nodes (2-regular)."""
    if n < 3:
        raise GraphError(f"a cycle needs at least 3 nodes, got {shown(n)}")
    check_size(n, n)
    i = np.arange(n, dtype=np.int64)
    return make_graph(n, np.stack((i, (i + 1) % n), axis=1))


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n >= 1`` nodes ((n-1)-regular)."""
    if n < 1:
        raise GraphError(f"a complete graph needs at least 1 node, got {shown(n)}")
    check_size(n, n * (n - 1) // 2)
    return make_graph(n, np.stack(np.triu_indices(n, 1), axis=1))


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    """Connect each node ``i`` to ``i +/- d (mod n)`` for every offset ``d``.

    Offsets must lie in ``1..n//2``; the antipodal offset ``n/2`` (even
    ``n``) contributes a single edge per node.
    """
    if n < 1:
        raise GraphError(f"a circulant graph needs at least 1 node, got {shown(n)}")
    offs = sorted(set(offsets))
    if not offs:
        raise GraphError("circulant offsets must be nonempty")
    for d in offs:
        if not 1 <= d <= n // 2:
            raise GraphError(f"offset {shown(d)} outside valid range 1..{shown(n // 2)}")
    check_size(n, n * len(offs) - (n // 2 if 2 * offs[-1] == n else 0))
    i = np.arange(n, dtype=np.int64)
    return make_graph(
        n, np.concatenate([np.stack((i, (i + d) % n), axis=1) for d in offs])
    )
