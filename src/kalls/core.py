"""The active-learning main loop and its two subroutines.

``confident_label`` infers a point's label from successive nearest-neighbor
labels with an anytime cut-off; ``reliable`` tests whether an already-labeled
active record makes a new point uninformative; ``run_kalls`` scans the pool,
spends the label budget on informative points and returns the active set
backing the final 1-NN classifier.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import thresholds as th
from .estimation import est_prob
from .pool import LabelOracle, Pool, center_order, knn_vote, nearest_order, neighbor_order

RELIABLE_ACCEPT_RATIO = 75.0 / 94.0  # estimate threshold of the informativeness test


class AbstainEmpty(RuntimeError):
    """confident_label was invoked with no request allowance."""


class EmptyActiveSet(RuntimeError):
    """1-NN classification requested from an empty active set."""


@dataclass(frozen=True)
class ActiveRecord:
    point: np.ndarray
    inferred_label: int
    lb: float
    source_index: int


class ActiveSet:
    """Ordered labeled records; source indices strictly increase with insertion."""

    def __init__(self) -> None:
        self.records: list[ActiveRecord] = []
        self._points_cache: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: ActiveRecord) -> None:
        if self.records and record.source_index <= self.records[-1].source_index:
            raise ValueError("source indices must be strictly increasing")
        self.records.append(record)
        self._points_cache = None

    def points(self) -> np.ndarray:
        if self._points_cache is None or self._points_cache.shape[0] != len(self.records):
            self._points_cache = (np.vstack([r.point for r in self.records])
                                  if self.records else np.zeros((0, 0)))
        return self._points_cache

    def labels(self) -> np.ndarray:
        return np.asarray([r.inferred_label for r in self.records], dtype=np.int64)

    def to_csv(self, path: str, header_comment: str | None = None) -> None:
        if not self.records:
            d = 0
        else:
            d = self.records[0].point.shape[0]
        cols = [f"x{i}" for i in range(d)] + ["label", "lb", "source_index"]
        with open(path, "w", newline="") as fh:
            if header_comment:
                for line in header_comment.splitlines():
                    fh.write(f"# {line}\n")
            fh.write(",".join(cols) + "\n")
            for r in self.records:
                coords = [format(v, ".17g") for v in r.point]
                fh.write(",".join(coords + [str(r.inferred_label),
                                            format(r.lb, ".17g"),
                                            str(r.source_index)]) + "\n")

    @classmethod
    def from_csv(cls, path: str) -> "ActiveSet":
        """Load what ``to_csv`` writes: '#' comment lines, the header
        ``x0..x{d-1},label,lb,source_index`` (d = 0 for an empty set), then one
        row of that width per record, with at least one coordinate, finite
        coordinates and lb, a label of 0 or 1, and source indices that strictly
        increase.  Anything else raises ValueError naming the file and, for a
        record, its number."""
        active = cls()
        with open(path) as fh:
            rows = [line.strip() for line in fh
                    if line.strip() and not line.startswith("#")]
        if not rows:
            raise ValueError(f"active-set CSV {path} has no header")
        header = rows[0].split(",")
        d = len(header) - 3
        if header != [f"x{i}" for i in range(d)] + ["label", "lb", "source_index"]:
            raise ValueError(f"active-set CSV {path} has header {rows[0]!r}; "
                             "expected x0,...,x<d-1>,label,lb,source_index")
        for row, line in enumerate(rows[1:], 1):
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"active-set CSV {path}: record {row} has "
                                 f"{len(parts)} fields, the header {len(header)}")
            try:
                if d == 0:
                    raise ValueError("it has no coordinates")
                point = [float(v) for v in parts[:d]]
                label, lb = int(parts[d]), float(parts[d + 1])
                if label not in (0, 1):
                    raise ValueError(f"label {label} is not 0 or 1")
                if not np.all(np.isfinite([*point, lb])):
                    raise ValueError("a coordinate or lb is not finite")
                active.append(ActiveRecord(point=np.asarray(point), inferred_label=label,
                                           lb=lb, source_index=int(parts[d + 2])))
            except ValueError as exc:  # the parse, the checks above, and append's order check
                raise ValueError(f"active-set CSV {path}: record {row}: {exc}") from None
        return active


@dataclass
class ConfidentOutcome:
    """``q`` is the requested set Q as a (|Q|, 2) int64 array, one row
    ``(pool index, label)`` per request, in request (neighbour) order."""

    y_hat: int
    q: np.ndarray
    cut_off_fired: bool
    eta_hat: float


@dataclass
class PerPointRecord:
    s: int
    q_size: int
    lb: float
    accepted: bool
    eta_hat: float
    y_hat: int
    cut_off_fired: bool
    k_cap: int
    k_tilde: float | None


@dataclass
class RunTrace:
    informative_indices: list[int] = field(default_factory=list)
    labels_spent: int = 0
    stopped_reason: str = "pool_exhausted"
    per_point: list[PerPointRecord] = field(default_factory=list)
    points_scanned: int = 0
    reliable_skips: int = 0

    def to_json(self, config_dict: dict, version: str,
                resolved_seed: int | None = None) -> str:
        # the fields are flat, so vars() gives asdict()'s JSON without its deep copy
        payload = {**vars(self), "per_point": [vars(r) for r in self.per_point],
                   "tool_version": version, "config": config_dict}
        if resolved_seed is not None:
            payload["resolved_seed"] = resolved_seed
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def confident_label(pool: Pool, oracle: LabelOracle, center_index: int,
                    k_prime: int, t_budget: int, delta_s: float,
                    neighbors: np.ndarray | None = None) -> ConfidentOutcome:
    """Infer the label of a pool point from its nearest neighbors' labels.

    Requests labels of successive neighbors, stopping at min(k', t) requests or
    as soon as |running mean - 1/2| > 2 b(delta_s, k) (the cut-off).  Returns the
    majority label over the requested set.  The stopping index is computed on the
    oracle's predetermined realizations and exactly those labels are then
    requested, which is request-for-request identical to the sequential loop.

    ``neighbors``, when given, must be ``neighbor_order(pool, center_index)``:
    every pool index but the centre, nearest first, ties to the lower index
    (``run_kalls`` passes the indices of its one ``center_order`` per point).
    When it is None the order is computed here.
    """
    cap = min(int(k_prime), int(t_budget))
    if cap < 1:
        raise AbstainEmpty("no label request possible: min(k', t) < 1")
    if neighbors is None:
        neighbors = neighbor_order(pool, center_index)
    cap = min(cap, neighbors.shape[0])
    if cap < 1:
        raise AbstainEmpty("pool has no neighbors to request")

    idx = neighbors[:cap]
    peeked = oracle.peek_labels(idx)
    cum = np.cumsum(peeked, dtype=np.int64)
    ks = np.arange(1, cap + 1, dtype=np.float64)
    dev = np.abs(cum / ks - 0.5)
    fired = dev > 2.0 * th.confidence_radii(delta_s, cap)
    first = int(fired.argmax())  # the first True, or 0 when none is
    if fired[first]:
        k_star = first + 1
        cut_off_fired = True
    else:
        k_star = cap
        cut_off_fired = False

    q = np.empty((k_star, 2), dtype=np.int64)
    q[:, 0] = idx[:k_star]
    q[:, 1] = oracle.request_batch(idx[:k_star])
    eta_hat = float(cum[k_star - 1]) / k_star
    return ConfidentOutcome(
        y_hat=1 if eta_hat >= 0.5 else 0,
        q=q,
        cut_off_fired=cut_off_fired,
        eta_hat=eta_hat,
    )


def reliable(x: np.ndarray, x_row: np.ndarray, delta_s: float,
             smooth: th.SmoothnessParams, active: ActiveSet, rows: list[np.ndarray],
             u_const: int, rng: np.random.Generator) -> bool:
    """Informativeness test: True when some active record's neighborhood already
    pins down the label of the pool point ``x``.

    For each record (X', Y', c), estimates the pool mass of the open balls of
    radius rho(X, X') around X' and around X with accuracy (c / 64L)^(d/alpha),
    and answers True when either estimate is <= 75/94 of that accuracy.  Records
    are checked nearest-first, the ball around X' before the ball around X, and
    the test stops at the first that passes.  The empty active set is never
    reliable.

    The balls are counted before ``est_prob`` draws, on sorted rows of squared
    distances to the pool: ``x_row`` is X's, and ``rows[j]`` is that of
    record j of ``active``.  ``run_kalls`` takes X's row from its one
    ``center_order`` of the scan step and keeps it as the row of the record X
    becomes.  One ``searchsorted`` of all the squared radii in ``x_row``
    counts every ball around X; each record's ball is one ``searchsorted`` in
    its row, made only when the test reaches the record.  The squared radii
    are ``np.sqrt`` of the squared record distances, squared again, bit for
    bit the scalar ``radius * radius``, so the counts equal
    ``count_nonzero(d2 < r2)`` on the unsorted ``sq_dists`` rows and every
    binomial draw, and the random stream, is that of a fresh distance row
    per ball.
    """
    if not active.records:
        return False
    order, d2 = nearest_order(active.points(), x)
    r2 = np.sqrt(d2[order])  # bit for bit the scalar sqrt of each entry
    r2 *= r2
    records, w_x = active.records, x_row.shape[0]
    scale, power = 64.0 * smooth.L, smooth.d / smooth.alpha

    for j, r2_j, in_x in zip(order.tolist(), r2.tolist(), x_row.searchsorted(r2).tolist()):
        eps_o = (records[j].lb / scale) ** power
        threshold = RELIABLE_ACCEPT_RATIO * eps_o
        row = rows[j]
        if est_prob(int(row.searchsorted(r2_j)), row.shape[0], eps_o, u_const, delta_s,
                    rng).p_hat <= threshold:
            return True
        if est_prob(in_x, w_x, eps_o, u_const, delta_s, rng).p_hat <= threshold:
            return True
    return False


def run_kalls(pool: Pool, oracle: LabelOracle, config: th.KallsConfig,
              smooth: th.SmoothnessParams, margin: th.MarginParams,
              est_rng: np.random.Generator) -> tuple[ActiveSet, RunTrace]:
    """Scan the pool, label informative points, and build the active set.

    Per scanned point s (1-based): split the confidence as delta_s = delta/(32 s^2);
    skip the point if ``reliable`` answers True; otherwise run ``confident_label``
    with per-point budget k(eps, delta_s) capped by the remaining label budget,
    record LB = |eta_hat - 1/2| - b(delta_s, |Q|), and keep the record iff
    LB >= lb_factor * b(delta_s, |Q|).  Stops when the budget is exhausted or the
    pool is fully scanned.  For diagnostics, each informative point's trace
    record carries the noise-adaptive request bound k_tilde, from the
    oracle's eta at the point (None where eta is 1/2 or the bound overflows).

    One ``center_order`` per scanned point gives X's neighbour order, which
    ``confident_label`` requests along, and X's sorted pool row, on which
    ``reliable`` counts the balls around X; an accepted X keeps that row for
    the balls around its record.  No other pool distance is computed.
    """
    if pool.w < 2:
        raise ValueError("pool must contain at least 2 points")
    if oracle.remaining_budget != config.n:
        raise ValueError(
            f"oracle budget {oracle.remaining_budget} does not match config.n {config.n}")

    active = ActiveSet()
    rows: list[np.ndarray] = []  # each record's sorted pool row, in record order
    trace = RunTrace()

    for s in range(1, pool.w + 1):
        if oracle.remaining_budget <= 0:
            break
        trace.points_scanned = s
        delta_s = th.per_point_delta(config.delta, s)
        x_index = s - 1
        neighbors, d2 = center_order(pool, x_index)
        x_row = np.concatenate(([0.0], d2))  # X's own 0.0, left out of d2, sorts first

        if reliable(pool.points[x_index], x_row, delta_s, smooth, active, rows,
                    config.u_const, est_rng):
            trace.reliable_skips += 1
            continue

        k_prime = th.label_budget_k(config.epsilon, delta_s, margin, config.c_const)
        t_before = oracle.remaining_budget
        outcome = confident_label(pool, oracle, x_index, k_prime, t_before, delta_s,
                                  neighbors=neighbors)
        q_size = len(outcome.q)
        b_q = th.confidence_radius(delta_s, q_size)
        lb = abs(outcome.eta_hat - 0.5) - b_q
        accepted = lb >= config.lb_factor * b_q
        trace.informative_indices.append(s)

        gap = abs(float(oracle.eta[x_index]) - 0.5)
        value = th.adaptive_budget_bound(gap, delta_s, config.c_const) if gap else np.inf
        k_tilde = value if np.isfinite(value) else None  # keep the trace valid JSON
        trace.per_point.append(PerPointRecord(
            s=s, q_size=q_size, lb=lb, accepted=accepted,
            eta_hat=outcome.eta_hat, y_hat=outcome.y_hat,
            cut_off_fired=outcome.cut_off_fired,
            k_cap=min(k_prime, t_before), k_tilde=k_tilde))

        if accepted:
            active.append(ActiveRecord(point=pool.points[x_index].copy(),
                                       inferred_label=outcome.y_hat,
                                       lb=lb, source_index=x_index))
            rows.append(x_row)

    trace.labels_spent = config.n - oracle.remaining_budget
    trace.stopped_reason = ("budget_exhausted" if oracle.remaining_budget <= 0
                            else "pool_exhausted")
    return active, trace


def one_nn_label_batch(active: ActiveSet, queries: np.ndarray) -> np.ndarray:
    """1-NN labels for a batch of queries; distance ties go to the lowest
    source index (records are stored in source order)."""
    if not active.records:
        raise EmptyActiveSet("cannot classify with an empty active set")
    return knn_vote(active.points(), active.labels(), queries, 1)

