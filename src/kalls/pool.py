"""Unlabeled pool, nearest-neighbor search, and the budgeted label oracle.

Every nearest-neighbor decision in kalls is made here, under one contract:
ascending squared Euclidean distance, ties to the lower index.  Its domain is
finite coordinates: ``Pool``, ``knn_vote`` and ``nearest_order`` reject a NaN
or infinite coordinate in any point or query with a ``ValueError`` that names
the argument.  Finite coordinates can still square to inf (1e200, say); those
distances tie as any equal values do.  Three functions carry it:
``sq_dists`` (the one distance formula), ``nearest_mask`` (the exact k-NN set
of each row of distances) and ``knn_vote`` (the k-NN majority label, vote ties
to 1; it reads each certified k-NN set off the sorted points for d = 1,
``_nearest_windows``, or off a grid block for d >= 2, ``_grid_vote``, and
leaves the other rows to ``nearest_mask`` over all points).

For d = 1 the window start of every query is the number of window midpoints
``(xs[j] + xs[j + k]) / 2`` of the sorted points below it: start j loses to
j + 1 exactly when the query is past that midpoint (``_nearest_windows``
gives the rounding argument).  The queries are read in ascending order, so
the count is one ``searchsorted`` between two sorted arrays and the distance
gathers walk the sorted points in order; each start and certificate is then
scattered back to its query.  Uncertified queries are voted once per distinct
value: equal queries have equal distance rows, and on ``discrete_atoms`` data
(every point on one of 256 atoms) 20,000 queries hold at most 256 values.

For d >= 2, ``knn_vote`` votes a query over the points near it where a
certificate shows that they hold its k-NN set (``_grid_vote``).  The first
two coordinates are cut into g x g cells at the points' empirical quantiles,
g = floor((2n / k)^(1/d)), so that a d-cube one cell wide holds about k / 2
points.  The queries of a cell are voted over the points of its 3 x 3 block
of cells, and a row is kept when its k-th candidate distance is strictly
below a lower bound on the distance of every point outside the block
(``_grid_vote`` shows why the bound needs no epsilon).  The other rows go to
the brute-force vote.  Small inputs stay on brute force (``_grid_side``):
grids under 4 x 4, fewer than 128 points, and fewer than 40,000
query-neighbour pairs m * k, which takes in the 1-NN over a handful of active
records.  There the grid's sorts and per-cell calls cost more than the
distances they save.  With 20,000 uniform d = 2 queries and the k that
``default_passive_k`` gives at alpha 1 (n/k = 200/15, 1000/32 and 5000/71),
the brute-force kernel took 0.042, 0.20 and 0.68 s and the grid 0.023,
0.046 and 0.092 s (2-core x86-64 VM, best of 5).  Quantile edges keep
the cells about equally full off the uniform law too, but more rows miss the
certificate there: at 5000/71, Gaussian points took 0.17 s on the grid and
clustered ones 0.16 s, against 0.60 and 0.62 s brute force.  A k-d tree
(``scipy.spatial.cKDTree``) could propose the candidates as well, but
importing ``scipy.spatial`` takes 0.42-0.47 s in a ``kalls`` process, most of
what the tree saves on a sweep.

The brute-force vote (``_brute_vote``) serves the grid's candidate blocks,
the d >= 2 rows the grid leaves, and the uncertified d = 1 rows.  It takes
``max(1, _BLOCK // n)`` queries at a time,
so a chunk is about 65,536 distances: 512 KB of float64, and 1 MB with the
partitioned copy, which stays in a 2 MB L2 cache through the passes over it
(block sizes from 16,384 to 4,000,000 were timed; 65,536 to 131,072 were
fastest).  The distance, copy and mask buffers are allocated once per call
and filled with ``out=``: 512 KB sits at glibc's dynamic mmap threshold, so in
a fresh process every chunk-sized temporary mapped and faulted in new pages.
The coordinates are read from column-contiguous copies of the points and the
queries (a column of a C-ordered (n, 2) array is a stride-16 read).
``nearest_mask`` makes one mask pass, ``d2 <= kth`` with ``kth`` the row's k-th
smallest distance, and counts it per row byte by byte (``_row_counts``, as
the vote counts its marked ones).  A row that marks exactly k points
holds its k-NN set: every point strictly closer than ``kth`` is in any k-NN
set, and so are all the tied ones when they fit.  Only rows that mark more
than k (ties at ``kth``) are trimmed to their lowest-index tied points.

A full order (``nearest_order``, and ``center_order`` with its views
``neighbor_order`` and ``k_nearest``) sorts one ``sq_dists`` row with numpy's
default (unstable) argsort, then repairs the ties: where the sorted distances
hold runs of equal values, one sort of the int64 keys
``run_number * n + index`` puts each run into index order.  This is exact:
any ascending sort puts the same run of equal values at the same positions,
and the key keeps the runs in place and orders only within each, which is
what the stable argsort does, in less time (the README's "Neighbour search"
gives the timings).  Both order functions return the order with its sorted
row of squared distances, ``np.sort`` of the ``sq_dists`` row bit for bit:
``center_order``'s is the centre's full pool row, its own 0.0 included,
although its order leaves the centre out.

For d = 1, ``center_order`` sorts no distance row.  The pool keeps an
ascending order of its coordinates and the sorted coordinates, each also as
a reversed copy, computed on first use with the default argsort (64 us at
w = 4000; the stable one takes 325 us, and equal coordinates need no order,
being equal distances from any centre).  The points up to the centre's
sorted position, read backwards from the centre, and the points after it,
read forwards, are two runs along which the rounded ``(x_c - x)^2`` never
falls (the unimodality ``_nearest_windows`` rests on).  Each run is one
contiguous slice, of the reversed copies and of the ascending ones.  Their
distances, formed as ``sq_dists`` forms them, are concatenated, both runs
ascending in memory, and the stable argsort (a timsort, which finds the two
runs) merges them in O(w).  The same tie repair then puts each run of equal
distances into index order.  Exactness does not rest on the runs: any
ascending sort followed by the repair is the stable argsort's order; the
runs only make the sort linear.  Laid out as the sorted coordinates are
(distances falling to the centre, then rising), the runs would need no
reversed copies, but timsort reverses only strictly falling runs, and the
ties of a ``discrete_atoms`` pool break them up: that layout took 69 us a
call against 49 us at w = 2000 there, all centres (2-core x86-64 VM).

The oracle models an i.i.d. labeled sample: each pool point has a single
persistent Bernoulli(eta(x)) realization, drawn up front from the seed into
the read-only array ``LabelOracle.labels``.  ``request_batch`` is the ledger:
it checks the indices a caller uses, charges the budget for them and marks
them revealed, for good.  Once every label is revealed, it checks and
charges without reading the revealed marks.  Reading ``labels`` charges
nothing, so a caller reads only the labels it charges, as
``core.confident_label`` does.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


def _check_finite(values: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite-valued")
    return values


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be a nonempty (w, d) array, got shape {pts.shape}")
    return _check_finite(pts, "points")


class Pool:
    """Immutable set of w unlabeled points in R^d."""

    def __init__(self, points: np.ndarray) -> None:
        self.points = _as_points(points)
        self.points.setflags(write=False)

    @property
    def w(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @cached_property
    def _sorted_1d(self) -> tuple[np.ndarray, ...]:
        """d = 1: an ascending order of the coordinates, the sorted coordinates,
        each point's position in that order, and contiguous reversed copies of
        the order and the sorted coordinates, computed on first use.  Equal
        coordinates may come in any order: they are equal distances from any
        centre, which the tie repair orders."""
        x = self.points[:, 0]
        order = np.argsort(x)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        xs = x[order]
        return order, xs, rank, order[::-1].copy(), xs[::-1].copy()

    def sq_dists_from(self, x: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances from x to every pool point.

        Nothing in kalls calls it (``run_kalls`` takes each sorted pool row
        from ``center_order``).  It stays because the benchmark's self-test
        (``perfbench/test_perfbench.py``) reads it when it checks that a
        traced run restores every wrapped function.
        """
        return sq_dists(self.points, x)[0]


_BLOCK = 65_536  # distances per brute-force knn_vote chunk (module docstring)


def sq_dists(points: np.ndarray, queries: np.ndarray, out: np.ndarray | None = None,
             work: np.ndarray | None = None) -> np.ndarray:
    """(m, n) squared distances from (m, d) ``queries`` (or one (d,) point) to
    (n, d) ``points``, summed coordinate by coordinate in order.  ``out`` and
    ``work``, (m, n) float64 arrays, receive the result and the squared
    differences of the coordinates after the first; the values are the same
    with or without them."""
    pts = np.asarray(points, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != pts.shape[1]:
        raise ValueError(f"queries have {q.shape[1]} coordinates, points {pts.shape[1]}")
    d2 = np.subtract(q[:, 0, None], pts[:, 0], out=out)
    d2 *= d2
    for c in range(1, pts.shape[1]):
        diff = np.subtract(q[:, c, None], pts[:, c], out=work)
        diff *= diff
        d2 += diff
    return d2


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The True entries of each row of a 2-d boolean array, added byte by byte
    into int32 (``count_nonzero`` with an axis sums into intp, about 2.5 times
    slower; int32 holds any row count below 2^31)."""
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)


def nearest_mask(d2: np.ndarray, k: int, work: np.ndarray | None = None,
                 out: np.ndarray | None = None, kth: np.ndarray | None = None
                 ) -> np.ndarray:
    """Boolean (m, n) mask of the k nearest points of each row of ``d2``: all
    strictly closer than the row's k-th smallest distance, then the lowest-index
    points tied at it.  One pass marks every point at or below the k-th
    distance; only the rows where that marks more than k (ties at the k-th
    distance) are trimmed to their lowest-index tied points.  ``work`` (float64)
    and ``out`` (bool), both shaped like ``d2``, hold the partitioned copy and
    the mask when given; ``kth``, a float64 (m,) array, receives each row's
    k-th smallest distance."""
    n = d2.shape[1]
    _check_k(k, n)
    part = np.empty_like(d2) if work is None else work
    np.copyto(part, d2)
    part.partition(k - 1, axis=1)
    edge = part[:, k - 1, None]
    if kth is not None:
        kth[:] = edge[:, 0]
    mask = np.less_equal(d2, edge, out=out)
    count = _row_counts(mask)
    over = np.flatnonzero(count > k)
    if over.size:  # most chunks have no tie rows (the skip saved ~3% on sweep_2d)
        sub, at = d2[over], edge[over]
        tied = sub == at
        need = k - count[over] + _row_counts(tied)
        mask[over] = (sub < at) | (tied & (np.cumsum(tied, axis=1, dtype=np.int32)
                                           <= need[:, None]))
    return mask


def _nearest_windows(x: np.ndarray, q: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d = 1: an ascending order of the points ``x``, and for each query in
    ``q`` the start of a window of k consecutive sorted points and whether that
    window is certified to be the query's k-NN set.

    Along sorted x the rounded ``(q - x)^2`` of ``sq_dists`` falls and then
    rises, so each set {d2 <= r} is a run of consecutive sorted points.  A
    window whose two outside neighbours are both strictly farther than r, its
    farther end's distance, is therefore exactly {d2 <= r}: k points, all
    others farther, and the k-NN set whatever the index tie-break.  Ties at a
    window end (distances that overflow to inf included) are left
    uncertified.

    Start j loses to start j + 1 when the point past its end is nearer, which
    in exact arithmetic means ``q > (xs[j] + xs[j + k]) / 2``.  These
    midpoints do not decrease with j, so the start is the number of midpoints
    below the query (a query on a midpoint keeps the lower start).  A computed
    midpoint below the query has its exact one below it too (rounding is
    monotone and 2q is a float), and likewise above; only a computed midpoint
    equal to the query can hide which end is nearer, so there the start steps
    on while the point past its end has the strictly smaller rounded distance.
    Exactness does not rest on the search: the certificate is sound for any
    start, so a start that rounding moved can only leave its row uncertified,
    for the brute-force vote.

    The queries are read in ascending order (one default argsort) and the
    results scattered back to theirs; a start and its certificate are
    functions of the query alone, so the order changes only the memory
    access.  Sorted, the counting is one ``searchsorted`` of the midpoints
    into the queries: a midpoint's position among them is where the queries
    above it begin, and a cumulative count of those positions gives the
    starts.  The tie walk and the four distance gathers then read ``xs`` in
    order.  Queries that come in ascending, as a sweep cell's d = 1 test draw
    does (``evaluate.run_cell``), make the argsort cheap (0.046 against
    0.25 ms for 20,000 floats, 2-core x86-64 VM) and the scatter back a
    write in order.

    The order of equal coordinates does not matter, so the default argsort
    serves: the windows depend on the sorted values alone, and a
    run of equal coordinates that straddles a window end puts the outside
    neighbour at distance r, which voids the certificate.  A certified window
    thus holds whole runs, the same points in any order of equal
    coordinates.  Equal queries (-0.0 and 0.0 among them) have equal
    distances to every point, so their order does not matter either."""
    n, m = x.shape[0], q.shape[0]
    order = np.argsort(x)
    # the sorted points with each end repeated outside: xp[s + i] is the point
    # before window s (clipped) for i = 0, its first for 1, its last for k and
    # the point after it (clipped) for k + 1
    xp = x[np.concatenate((order[:1], order, order[-1:]))]
    xs = xp[1:-1]
    by_q = np.argsort(q)
    qs = q[by_q]

    def d2(i: int, s: np.ndarray, q: np.ndarray = qs) -> np.ndarray:
        diff = q - xp[i:].take(s)
        diff *= diff
        return diff

    # the n - k midpoints, then a NaN that sorts last and equals no query, so
    # every start, n - k included, indexes ``mid``
    mid = np.full(n - k + 1, np.nan)
    np.add(xs[:n - k], xs[k:], out=mid[:-1])
    mid[:-1] *= 0.5
    # the queries from position p[j] on are above midpoint j
    p = np.searchsorted(qs, mid, side="right")
    start = np.cumsum(np.bincount(p, minlength=m + 1)[:m])
    tie = np.flatnonzero(mid.take(start) == qs)
    while tie.size:
        s, qt = start[tie], qs[tie]
        tie = tie[d2(1, s, qt) > d2(k + 1, s, qt)]
        start[tie] += 1
        tie = tie[mid[start[tie]] == qs[tie]]
    r = np.maximum(d2(1, start), d2(k, start))
    certified = ((start == 0) | (d2(0, start) > r)) \
        & ((start == n - k) | (d2(k + 1, start) > r))
    start_q, certified_q = np.empty_like(start), np.empty_like(certified)
    start_q[by_q], certified_q[by_q] = start, certified
    return order, start_q, certified_q


def knn_vote(points: np.ndarray, labels: np.ndarray, queries: np.ndarray,
             k: int) -> np.ndarray:
    """Majority {0, 1} label of the k nearest points to each query; a vote tie
    goes to 1.  For d = 1 a certified window (``_nearest_windows``) gives the
    vote as one difference of a cumulative count, and the other rows are voted
    once per distinct query value.  For d >= 2, inputs that ``_grid_side``
    admits are voted over the certified grid blocks of ``_grid_vote``.  The
    rest is brute force (``_brute_vote``).
    The k-NN set of every query is its first k in ``nearest_order``.  The
    labels must have one entry per point, the points and queries finite
    coordinates of one dimension, and 1 <= k <= n."""
    pts = _as_points(points)
    n, d = pts.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), one per point, got {labels.shape}")
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.ndim != 2 or q.shape[1] != d:
        raise ValueError(f"queries must have {d} coordinates, as the points do, "
                         f"got shape {q.shape}")
    _check_finite(q, "queries")
    _check_k(k, n)
    ones_mask = labels == 1
    if d > 1:
        g = _grid_side(n, k, q.shape[0], d)
        return _grid_vote(pts, ones_mask, q, k, g) if g else _brute_vote(pts, ones_mask, q, k)
    order, start, certified = _nearest_windows(pts[:, 0], q[:, 0], k)
    cum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ones_mask[order], out=cum[1:])
    out = (2 * (cum[start + k] - cum[start]) >= k).astype(np.int64)
    rows = np.flatnonzero(~certified)
    # equal queries have equal distance rows (-0.0 and 0.0 included), so one
    # vote per distinct value serves them all
    values, inverse = np.unique(q[rows, 0], return_inverse=True)
    out[rows] = _brute_vote(pts, ones_mask, values[:, None], k)[inverse]
    return out


def _brute_vote(pts: np.ndarray, ones_mask: np.ndarray, q: np.ndarray,
                k: int, kth: np.ndarray | None = None) -> np.ndarray:
    """The k-NN vote of every query row from its full distance row
    (``nearest_mask``), ``max(1, _BLOCK // n)`` rows at a time.  The chunk
    buffers are allocated once, and the coordinates are read from
    column-contiguous copies (module docstring).  ``kth``, a float64 (m,)
    array, receives each row's k-th smallest distance when given."""
    m, n = q.shape[0], pts.shape[0]
    out = np.empty(m, dtype=np.int64)
    if m == 0:
        return out
    step = min(m, max(1, _BLOCK // n))
    pts, q = np.asfortranarray(pts), np.asfortranarray(q)
    d2, work = np.empty((2, step, n))
    mask = np.empty((step, n), dtype=bool)
    for lo in range(0, m, step):
        rows = min(step, m - lo)
        sq_dists(pts, q[lo:lo + rows], out=d2[:rows], work=work[:rows])
        hit = nearest_mask(d2[:rows], k, work=work[:rows], out=mask[:rows],
                           kth=None if kth is None else kth[lo:lo + rows])
        hit &= ones_mask
        out[lo:lo + rows] = 2 * _row_counts(hit) >= k
    return out


def _grid_side(n: int, k: int, m: int, d: int) -> int:
    """The cells per coordinate of the ``_grid_vote`` grid for m queries of the
    k-NN vote over n points in d >= 2 dimensions, or 0 where brute force is
    faster.  A d-cube one cell wide holds about k / 2 points, so the 3 x 3
    block around a query holds its k-NN ball in most rows.  Brute force keeps
    grids under 4 x 4, fewer than 128 points and m * k under 40,000, where
    the grid's per-call sorts and per-cell work cost more than the distances
    it saves (module docstring)."""
    g = int((2 * n / k) ** (1 / d))
    return g if g >= 4 and n >= 128 and m * k >= 40_000 else 0


def _grid_vote(pts: np.ndarray, ones_mask: np.ndarray, q: np.ndarray, k: int,
               g: int) -> np.ndarray:
    """d >= 2: the k-NN vote of every query from the points in the 3 x 3
    block of cells around it, on a g x g grid of the first two coordinates
    with empirical-quantile edges, where a certificate holds; the other rows
    go to ``_brute_vote`` over all points.

    The candidates of a block are taken in ascending index order, so
    ``nearest_mask`` keeps the lowest-index tie rule.  A row is certified when
    its k-th candidate distance is strictly below a lower bound on the
    ``sq_dists`` value of every point outside the block.  Such a point lies
    beyond the block in coordinate c (0 or 1), past m, the largest coordinate
    of the cells below the block or the smallest of the cells above it, and
    its distance is at least ``fl(fl(q_c - m)^2)``: rounding is monotone, so
    |fl(q_c - p_c)| >= |fl(q_c - m)|, and ``sq_dists`` adds non-negative terms,
    so its sum is at least each term.  Every point within the k-th distance,
    every tie at it included, is then a candidate, and the vote is the
    brute-force one bit for bit."""
    n, m = pts.shape[0], q.shape[0]
    cell_p, cell_q = np.zeros(n, dtype=np.intp), np.zeros(m, dtype=np.intp)
    bound = np.full(m, np.inf)
    for c in (0, 1):
        xs = np.sort(pts[:, c])
        edges = xs[np.arange(1, g) * n // g]
        cell_p = cell_p * g + np.searchsorted(edges, pts[:, c], side="right")
        cq = np.searchsorted(edges, q[:, c], side="right")
        cell_q = cell_q * g + cq
        # below[j] points lie in the cells under cell j: pad[below[j]] is the
        # largest of them, pad[below[j] + 1] the smallest point from cell j up
        below = np.concatenate(([0], np.searchsorted(xs, edges), [n]))
        pad = np.concatenate(([-np.inf], xs, [np.inf]))
        # a query in cell i is at or above the edge under cell i and below the
        # one over it, so both gaps are >= 0 (inf past the outer cells)
        gap = np.minimum(q[:, c] - pad[below[np.maximum(cq - 1, 0)]],
                         pad[below[np.minimum(cq + 2, g)] + 1] - q[:, c])
        gap *= gap
        np.minimum(bound, gap, out=bound)
    order_p, order_q = np.argsort(cell_p), np.argsort(cell_q)
    start_p, start_q = np.zeros((2, g * g + 1), dtype=np.intp)
    np.cumsum(np.bincount(cell_p, minlength=g * g), out=start_p[1:])
    np.cumsum(np.bincount(cell_q, minlength=g * g), out=start_q[1:])
    out = np.empty(m, dtype=np.int64)
    kth = np.empty(m)
    rest = []
    for cell in np.flatnonzero(start_q[1:] > start_q[:-1]):
        rows = order_q[start_q[cell]:start_q[cell + 1]]
        i, j = divmod(int(cell), g)
        lo, hi = max(j - 1, 0), min(j + 1, g - 1)
        cand = np.sort(np.concatenate([order_p[start_p[a * g + lo]:start_p[a * g + hi + 1]]
                                       for a in range(max(i - 1, 0), min(i + 2, g))]))
        if cand.size < k:
            rest.append(rows)
            continue
        votes = _brute_vote(pts[cand], ones_mask[cand], q[rows], k, kth=kth[:rows.size])
        sure = kth[:rows.size] < bound[rows]
        out[rows[sure]] = votes[sure]
        rest.append(rows[~sure])
    rest = np.concatenate(rest)
    out[rest] = _brute_vote(pts, ones_mask, q[rest], k)
    return out


def nearest_order(points: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of all ``points``, nearest to ``query`` first, and the sorted
    row of their squared distances to it: ``row[i]`` is the distance of
    ``order[i]``, and ``row`` is ``np.sort(sq_dists(points, query)[0])`` bit for
    bit.  The order is ``argsort(d2, kind="stable")``'s, made from the faster
    unstable argsort by the tie repair the module docstring gives.  The points
    and the query must be finite."""
    query = _check_finite(np.asarray(query, dtype=np.float64), "query")
    d2 = sq_dists(_as_points(points), query)[0]
    order = np.argsort(d2)
    row = d2[order]
    return _repair_ties(row, order, d2.shape[0]), row


def _repair_ties(s: np.ndarray, order: np.ndarray, n: int) -> np.ndarray:
    """Put each run of equal values of the ascending distances ``s`` into index
    order; ``order`` holds the indices (all below ``n``) of the entries of ``s``."""
    same = s[1:] == s[:-1]
    if same.any():
        run = np.zeros(s.shape[0], dtype=np.int64)
        np.cumsum(~same, out=run[1:])
        order = np.sort(run * n + order) % n
    return order


@dataclass
class NeighborList:
    """Ordered neighbors of a center: (index, distance) ascending, ties by index."""

    center_index: int
    neighbors: list[tuple[int, float]]


def center_order(pool: Pool, center_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool's indices but ``center_index``, nearest to it first, and the
    centre's full sorted pool row, its own 0.0 included:
    ``np.sort(sq_dists(pool.points, pool.points[center_index])[0])`` bit for
    bit, so ``row[i + 1]`` is the distance of ``neighbours[i]``."""
    if not 0 <= center_index < pool.w:
        raise ValueError(f"center_index {center_index} out of range [0, {pool.w})")
    if pool.d == 1:
        return _merged_order(pool, center_index)
    order, row = nearest_order(pool.points, pool.points[center_index])
    return order[order != center_index], row


def _merged_order(pool: Pool, center_index: int) -> tuple[np.ndarray, np.ndarray]:
    """d = 1: ``center_order`` from the two runs of sorted points on either
    side of the centre, merged by one stable argsort (module docstring).  The
    centre heads the backward run; its 0.0 is the least distance, so the
    stable merge keeps it first, and the repair orders the rest."""
    order, xs, rank, order_rev, xs_rev = pool._sorted_1d
    p = rank[center_index]
    back = pool.w - 1 - p  # the centre's position in the reversed copies
    # the backward run from the reversed copies, then the forward run: each
    # a contiguous slice, and both ascending in memory
    idx = np.concatenate((order_rev[back:], order[p + 1:]))
    d2 = np.concatenate((xs_rev[back:], xs[p + 1:]))
    np.subtract(xs[p], d2, out=d2)  # centre minus point, squared, as sq_dists forms it
    d2 *= d2
    merge = d2.argsort(kind="stable")
    row = d2[merge]
    return _repair_ties(row[1:], idx[merge[1:]], pool.w), row


def neighbor_order(pool: Pool, center_index: int) -> np.ndarray:
    """Full neighbor ordering of a pool point, center excluded: the indices of
    ``center_order``."""
    return center_order(pool, center_index)[0]


def k_nearest(pool: Pool, center_index: int, k: int) -> NeighborList:
    """The k pool points closest to pool point ``center_index`` (itself excluded)."""
    if not 1 <= k <= pool.w - 1:
        raise ValueError(f"k must satisfy 1 <= k <= w-1 = {pool.w - 1}, got {k}")
    order, row = center_order(pool, center_index)
    return NeighborList(center_index, [(int(j), float(np.sqrt(r)))
                                       for j, r in zip(order[:k], row[1:k + 1])])


class LabelOracle:
    """Budgeted, seeded access to noisy labels of pool points.

    The labeled dataset is realized once at construction: Y_i ~ Bernoulli(eta(X_i))
    i.i.d. from the seed.  ``labels`` (int64) holds the realizations and
    ``eta`` eta, at every pool point, both read-only arrays.  Reading them
    charges nothing, so a caller reads only the labels it charges.
    ``request_batch`` is the ledger: it charges for realizations and reveals
    them; a revealed label never changes.  Budget accounting depends on the
    mode:

      * ``strict_paper``: every request costs 1, repeat requests included.
      * ``cached_labels``: only first-time reveals cost 1; an index repeated
        within one batch is one reveal.

    ``fresh_requests`` counts distinct first-time reveals in both modes.
    """

    def __init__(self, pool: Pool, eta_fn: Callable[[np.ndarray], np.ndarray],
                 budget: int, seed: int, mode: str = "strict_paper") -> None:
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        if mode not in ("strict_paper", "cached_labels"):
            raise ValueError(f"unknown budget mode {mode!r}")
        self.mode = mode
        eta = np.array(eta_fn(pool.points), dtype=np.float64)  # a copy, made read-only
        if eta.shape != (pool.w,) or not np.all((eta >= 0.0) & (eta <= 1.0)):  # NaN fails
            raise ValueError("eta_fn must map pool points to values in [0, 1]")
        eta.setflags(write=False)
        self.eta = eta
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))
        self.labels = (rng.random(pool.w) < eta).astype(np.int64)
        self.labels.setflags(write=False)
        self._revealed = np.zeros(pool.w, dtype=bool)
        self._remaining = int(budget)
        self._fresh = 0

    @property
    def remaining_budget(self) -> int:
        return self._remaining

    @property
    def fresh_requests(self) -> int:
        return self._fresh

    def _index_array(self, indices: np.ndarray) -> np.ndarray:
        """``indices`` as an intp array; ValueError for a nonempty one of any
        dtype but an integer one (a float would be truncated and a bool read
        as 0 and 1), or with an index out of range (a negative one would wrap)."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu" and idx.size:
            raise ValueError(f"pool indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.intp, copy=False)
        # one pass for both ends: a negative index is a huge unsigned one
        if idx.size and idx.view(np.uintp).max() >= self.labels.shape[0]:
            raise ValueError("pool index out of range")
        return idx

    def request_batch(self, indices: np.ndarray) -> None:
        """Charge for the labels of pool indices and reveal them, with exact
        budget accounting; the labels are ``labels[indices]``.  A request
        over budget raises ``RuntimeError``, and one with an index out of
        range or not an integer ``ValueError``; neither reveals or charges
        anything.  An empty request charges nothing.  Once the whole pool is
        revealed (``fresh_requests == w``) no index can be fresh, so a
        checked request costs its length in ``strict_paper`` and nothing in
        ``cached_labels``, without reading the revealed marks."""
        idx = self._index_array(indices)
        # no fresh index (none is left once the whole pool is revealed):
        # nothing to reveal or count
        if self._fresh == self._revealed.shape[0] or (known := self._revealed[idx]).all():
            fresh, n_fresh = idx[:0], 0
        else:
            fresh = idx[~known]
            self._revealed[fresh] = True
            # revealed indices are exactly the fresh ones so far, so the count
            # difference is the number of distinct first-time indices in ``idx``
            n_fresh = int(np.count_nonzero(self._revealed)) - self._fresh
        cost = idx.size if self.mode == "strict_paper" else n_fresh
        if cost > self._remaining:
            self._revealed[fresh] = False
            raise RuntimeError(
                f"request of cost {cost} exceeds remaining budget {self._remaining}")
        self._remaining -= cost
        self._fresh += n_fresh
