"""Unlabeled pool, nearest-neighbor search, and the budgeted label oracle.

Every nearest-neighbor decision in kalls is made here, under one contract:
ascending squared Euclidean distance, ties to the lower index.  Three functions
carry it: ``sq_dists`` (the one distance formula), ``nearest_mask`` (the exact
k-NN set of each row of distances) and ``knn_vote`` (the k-NN majority label,
vote ties to 1; for d = 1 it reads each certified k-NN set off the sorted
points, ``_nearest_windows``, and leaves the other rows to ``nearest_mask``).

The brute-force vote serves every d >= 2 query and the uncertified d = 1 rows.
It takes ``max(1, _BLOCK // n)`` queries at a time, so a chunk is about 65,536
distances: 512 KB of float64, and 1 MB with the copy ``np.partition`` makes,
which stays in a 2 MB L2 cache through the passes over it (block sizes from
16,384 to 4,000,000 were timed; 65,536 to 131,072 were fastest).
``nearest_mask`` makes one mask pass, ``d2 <= kth`` with ``kth`` the row's k-th
smallest distance, and counts it per row.  A row that marks exactly k points
holds its k-NN set: every point strictly closer than ``kth`` is in any k-NN
set, and so are all the tied ones when they fit.  Only rows that mark more
than k (ties at ``kth``) are trimmed to their lowest-index tied points.  NaN
compares false, so a NaN row marks nothing and votes 0.  On uniform d = 2 data
with 20,000 queries, n/k = 200/13, 1000/56 and 5000/293 took together about
2 s with 4 M-distance chunks and separate ``<``/``==`` passes, and about 1 s
with this kernel (2-core x86-64 VM; the README's "Neighbour search" gives
each).  Reusing the chunk buffers (``out=`` arrays) was timed too and gained
nothing.

A full order (``nearest_order``, ``neighbor_order``, ``k_nearest``) sorts one
``sq_dists`` row with numpy's default (unstable) argsort, then repairs the
ties: where the sorted distances hold runs of equal values (adjacent NaNs
count as one run), one sort of the int64 keys ``run_number * n + index`` puts
each run into index order.  This is exact: any ascending sort puts the same
run of equal values at the same positions, and the key keeps the runs in
place and orders only within each, which is what the stable argsort does.
A ``neighbor_order`` call on a 2-core x86-64 VM took, with the stable
argsort and then with this one: w = 2000 uniform, 174 us -> 57 us; w = 4000
uniform, 367 us -> 102 us; w = 4000 ``discrete_atoms`` (256 atoms, every row
tied), 287 us -> 181 us.

For d = 1, ``neighbor_order`` and ``k_nearest`` sort no distance row.  The
pool keeps an ascending order of its coordinates, computed on first use with
the default argsort (64 us at w = 4000; the stable one takes 325 us, and
equal coordinates need no order, being equal distances from any centre).
The points before the centre's sorted position, read backwards, and the
points after it, read forwards, are two runs along which the rounded
``(x_c - x)^2`` never falls (the unimodality ``_nearest_windows`` rests on).
Their distances, formed as ``sq_dists`` forms them, are concatenated, and
the stable argsort (a timsort, which finds the two runs) merges them in
O(w).  The same tie repair then puts each run of equal distances into index
order.  Exactness does not rest on the runs: any ascending sort followed by
the repair is the stable argsort's order; the runs only make the sort
linear.  A w = 2000 uniform call took 72 us before this merge and 41 us
after it, and a w = 4000 one 129 us and 74 us.

The oracle models an i.i.d. labeled sample: each pool point has a single
persistent Bernoulli(eta(x)) realization, drawn up front from the seed,
revealed on first request and cached forever after.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class BudgetExhausted(RuntimeError):
    """A label request would drive the oracle budget negative."""


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError(f"points must be a nonempty (w, d) array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite-valued")
    return pts


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
    def _sorted_1d(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d = 1: an ascending order of the coordinates, the sorted coordinates
        and each point's position in that order, computed on first use.  Equal
        coordinates may come in any order: they are equal distances from any
        centre, which the tie repair orders."""
        x = self.points[:, 0]
        order = np.argsort(x)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.shape[0])
        return order, x[order], rank

    def sq_dists_from(self, x: np.ndarray) -> np.ndarray:
        """Squared Euclidean distances from x to every pool point."""
        return sq_dists(self.points, x)[0]


_BLOCK = 65_536  # distances per brute-force knn_vote chunk (module docstring)


def sq_dists(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(m, n) squared distances from (m, d) ``queries`` (or one (d,) point) to
    (n, d) ``points``, summed coordinate by coordinate in order."""
    pts = np.asarray(points, dtype=np.float64)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.shape[1] != pts.shape[1]:
        raise ValueError(f"queries have {q.shape[1]} coordinates, points {pts.shape[1]}")
    d2 = q[:, 0, None] - pts[:, 0]
    d2 *= d2
    for c in range(1, pts.shape[1]):
        diff = q[:, c, None] - pts[:, c]
        diff *= diff
        d2 += diff
    return d2


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")


def nearest_mask(d2: np.ndarray, k: int) -> np.ndarray:
    """Boolean (m, n) mask of the k nearest points of each row of ``d2``: all
    strictly closer than the row's k-th smallest distance, then the lowest-index
    points tied at it.  One pass marks every point at or below the k-th
    distance; only the rows where that marks more than k (ties at the k-th
    distance) are trimmed to their lowest-index tied points."""
    n = d2.shape[1]
    _check_k(k, n)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1, None]
    mask = d2 <= kth
    count = np.count_nonzero(mask, axis=1)
    over = np.flatnonzero(count > k)
    if over.size:  # most chunks have no tie rows (the skip saved ~3% on sweep_2d)
        sub, at = d2[over], kth[over]
        tied = sub == at
        need = k - count[over] + np.count_nonzero(tied, axis=1)
        mask[over] = (sub < at) | (tied & (np.cumsum(tied, axis=1, dtype=np.int32)
                                           <= need[:, None]))
    return mask


def _nearest_windows(x: np.ndarray, q: np.ndarray, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d = 1: the stable order of the points ``x``, and for each query in ``q``
    the start of a window of k consecutive sorted points and whether that
    window is certified to be the query's k-NN set.

    Along sorted x the rounded ``(q - x)^2`` of ``sq_dists`` falls and then
    rises, so each set {d2 <= r} is a run of consecutive sorted points.  A
    window whose two outside neighbours are both strictly farther than r, its
    farther end's distance, is therefore exactly {d2 <= r}: k points, all
    others farther, and the k-NN set whatever the index tie-break.  The start
    is a bisection over [pos - k, pos], pos the query's insertion point.  Ties
    at a window end and non-finite queries are left uncertified."""
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]

    def d2(i: np.ndarray) -> np.ndarray:
        diff = q - xs[i]
        diff *= diff
        return diff

    pos = np.searchsorted(xs, q)
    lo = np.clip(pos - k, 0, n - k)
    hi = np.clip(pos, 0, n - k)
    for _ in range(int(k).bit_length()):  # hi - lo <= k halves every step
        mid = (lo + hi) >> 1
        # start mid loses to mid + 1 when the point past its end is closer
        later = d2(mid) > d2(np.minimum(mid + k, n - 1))
        lo = np.where(later & (mid < hi), mid + 1, lo)
        hi = np.where(later, hi, mid)
    r = np.maximum(d2(lo), d2(lo + k - 1))
    certified = ((lo == 0) | (d2(np.maximum(lo - 1, 0)) > r)) \
        & ((lo + k == n) | (d2(np.minimum(lo + k, n - 1)) > r)) & np.isfinite(q)
    return order, lo, certified


def knn_vote(points: np.ndarray, labels: np.ndarray, queries: np.ndarray,
             k: int) -> np.ndarray:
    """Majority {0, 1} label of the k nearest points to each query; a vote tie
    goes to 1.  For d = 1 a certified window (``_nearest_windows``) gives the
    vote as one difference of a cumulative count; the other rows are brute
    force (``nearest_mask``), ``max(1, _BLOCK // n)`` query rows at a time.
    The points must be finite, as a ``Pool``'s are, so the k-NN set of every
    finite query is its first k in ``nearest_order``."""
    pts = _as_points(points)
    ones_mask = np.asarray(labels) == 1
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    out = np.empty(q.shape[0], dtype=np.int64)
    rows = np.arange(q.shape[0])
    if pts.shape[1] == 1 == q.shape[1]:
        _check_k(k, pts.shape[0])
        order, start, certified = _nearest_windows(pts[:, 0], q[:, 0], k)
        cum = np.zeros(pts.shape[0] + 1, dtype=np.int64)
        np.cumsum(ones_mask[order], out=cum[1:])
        out[:] = 2 * (cum[start + k] - cum[start]) >= k
        rows = np.flatnonzero(~certified)
    step = max(1, _BLOCK // pts.shape[0])
    for lo in range(0, rows.size, step):
        chunk = rows[lo:lo + step]
        mask = nearest_mask(sq_dists(pts, q[chunk]), k)
        out[chunk] = 2 * np.count_nonzero(mask & ones_mask, axis=1) >= k
    return out


def nearest_order(points: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of all ``points``, nearest to ``query`` first, and their squared
    distances to it.  The order is ``argsort(d2, kind="stable")``'s, made from
    the faster unstable argsort by the tie repair the module docstring gives."""
    d2 = sq_dists(points, query)[0]
    order = np.argsort(d2)
    return _repair_ties(d2[order], order, d2.shape[0]), d2


def _repair_ties(s: np.ndarray, order: np.ndarray, n: int) -> np.ndarray:
    """Put each run of equal values of the ascending distances ``s`` into index
    order; ``order`` holds the indices (all below ``n``) of the entries of ``s``."""
    same = s[1:] == s[:-1]
    if s.size and math.isnan(s[-1]):  # NaNs sort last, and NaN == NaN is False
        same[np.searchsorted(s, np.nan):] = True
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


def _center_order(pool: Pool, center_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool's indices but ``center_index``, nearest to it first, and their
    squared distances in that order."""
    if not 0 <= center_index < pool.w:
        raise ValueError(f"center_index {center_index} out of range [0, {pool.w})")
    if pool.d == 1:
        return _merged_order(pool, center_index)
    order, d2 = nearest_order(pool.points, pool.points[center_index])
    order = order[order != center_index]
    return order, d2[order]


def _merged_order(pool: Pool, center_index: int) -> tuple[np.ndarray, np.ndarray]:
    """d = 1: ``_center_order`` from the two runs of sorted points on either
    side of the centre, merged by one stable argsort (module docstring)."""
    order, xs, rank = pool._sorted_1d
    p = rank[center_index]
    idx = np.concatenate((order[:p][::-1], order[p + 1:]))
    d2 = xs[p] - np.concatenate((xs[:p][::-1], xs[p + 1:]))  # as sq_dists forms it
    d2 *= d2
    merge = np.argsort(d2, kind="stable")
    s = d2[merge]
    return _repair_ties(s, idx[merge], pool.w), s


def neighbor_order(pool: Pool, center_index: int) -> np.ndarray:
    """Full neighbor ordering of a pool point, center excluded."""
    return _center_order(pool, center_index)[0]


def k_nearest(pool: Pool, center_index: int, k: int) -> NeighborList:
    """The k pool points closest to pool point ``center_index`` (itself excluded)."""
    if not 1 <= k <= pool.w - 1:
        raise ValueError(f"k must satisfy 1 <= k <= w-1 = {pool.w - 1}, got {k}")
    order, d2 = _center_order(pool, center_index)
    return NeighborList(center_index, [(int(j), float(np.sqrt(r)))
                                       for j, r in zip(order[:k], d2[:k])])


class LabelOracle:
    """Budgeted, seeded access to noisy labels of pool points.

    The labeled dataset is realized once at construction: Y_i ~ Bernoulli(eta(X_i))
    i.i.d. from the seed.  ``request_batch`` reveals realizations; a revealed label
    never changes.  Budget accounting depends on the mode:

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
        self.pool = pool
        self.mode = mode
        self.seed = int(seed)
        eta = np.asarray(eta_fn(pool.points), dtype=np.float64)
        if eta.shape != (pool.w,) or np.any(eta < 0.0) or np.any(eta > 1.0):
            raise ValueError("eta_fn must map pool points to values in [0, 1]")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        self._labels = (rng.random(pool.w) < eta).astype(np.int64)
        self._revealed = np.zeros(pool.w, dtype=bool)
        self._remaining = int(budget)
        self._fresh = 0

    @property
    def remaining_budget(self) -> int:
        return self._remaining

    @property
    def fresh_requests(self) -> int:
        return self._fresh

    def peek_labels(self, indices: np.ndarray) -> np.ndarray:
        """Read realizations without accounting.  Internal: callers must follow up
        with request_batch on exactly the indices whose labels they use."""
        return self._labels[np.asarray(indices, dtype=np.intp)]

    def request_batch(self, indices: np.ndarray) -> np.ndarray:
        """Request labels for pool indices, with exact budget accounting.  A
        request over budget raises ``BudgetExhausted`` and reveals nothing."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return np.zeros(0, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= self.pool.w:
            raise ValueError("pool index out of range")
        fresh = idx[~self._revealed[idx]]
        self._revealed[fresh] = True
        # revealed indices are exactly the fresh ones so far, so the count
        # difference is the number of distinct first-time indices in ``idx``
        n_fresh = int(np.count_nonzero(self._revealed)) - self._fresh
        cost = idx.size if self.mode == "strict_paper" else n_fresh
        if cost > self._remaining:
            self._revealed[fresh] = False
            raise BudgetExhausted(
                f"request of cost {cost} exceeds remaining budget {self._remaining}")
        self._remaining -= cost
        self._fresh += n_fresh
        return self._labels[idx]
