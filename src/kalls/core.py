"""The active-learning main loop and its two subroutines.

``confident_label`` infers a point's label from successive nearest-neighbor
labels with an anytime cut-off; ``reliable`` tests whether an already-labeled
active record makes a new point uninformative; ``run_kalls`` scans the pool,
spends the label budget on informative points and returns the active set
backing the final 1-NN classifier.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import thresholds as th
from .estimation import cut_bound, est_prob, stage_table
from .pool import (LabelOracle, Pool, center_order, knn_vote, nearest_order, neighbor_order,
                   sq_dists)

# BerEst's u in the informativeness test.  Its dichotomy certifies a mass
# <= eps_o from an estimate <= eps_o / g(u), and 75/94 = 1/g(50); at a smaller
# u the ratio is smaller (1/g(7) = 0.52), so the two are fixed together.
_U = 50
RELIABLE_ACCEPT_RATIO = 75.0 / 94.0  # estimate threshold of the informativeness test


@dataclass(frozen=True)
class ActiveRecord:
    point: np.ndarray
    inferred_label: int
    lb: float
    source_index: int


def _csv_cell(value) -> str:
    """None as an empty cell, a float with 17 significant digits (enough to
    read back the same double), anything else as ``str``."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def write_csv(path: str, columns: list[str], rows: Iterable[Iterable],
              header_comment: str | None = None) -> None:
    """Write ``header_comment`` as '#' lines, the ``columns`` header, then one
    line of ``_csv_cell``s per row."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def _active_columns(d: int) -> list[str]:
    return [f"x{i}" for i in range(d)] + ["label", "lb", "source_index"]


class ActiveSet:
    """Ordered labeled records; source indices strictly increase with insertion.

    The records only: what ``run_kalls`` returns, the active-set CSV and the
    final 1-NN classifier.  During a run ``reliable`` reads the record table
    ``RecordRows``, which keeps this set as ``rows.active``."""

    def __init__(self) -> None:
        self.records: list[ActiveRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: ActiveRecord) -> None:
        if self.records and record.source_index <= self.records[-1].source_index:
            raise ValueError("source indices must be strictly increasing")
        self.records.append(record)

    def points(self) -> np.ndarray:
        return np.vstack([r.point for r in self.records]) if self.records else np.zeros((0, 0))

    def labels(self) -> np.ndarray:
        return np.asarray([r.inferred_label for r in self.records], dtype=np.int64)

    def to_csv(self, path: str, header_comment: str | None = None) -> None:
        d = self.records[0].point.shape[0] if self.records else 0
        write_csv(path, _active_columns(d),
                  ([*r.point, r.inferred_label, r.lb, r.source_index] for r in self.records),
                  header_comment)

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
        if header != _active_columns(d):
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
    """``q`` is the requested set Q: the requested pool indices as a 1-D
    array, in request (neighbour) order."""

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
class SkipCertificate:
    """Why ``reliable`` skipped scanned point ``s``: the ball of the record
    with ``source_index`` passed, around the record (``ball`` "record") or
    around the scanned point ("point")."""

    s: int
    source_index: int
    ball: str


@dataclass
class RunTrace:
    """What a run did, written as one line of JSON by ``to_json``.

    ``per_point`` holds one record per informative point and
    ``skip_certificates`` one per reliable skip, each in scan order, so
    ``len(per_point) + reliable_skips == points_scanned``.
    ``estimator_calls`` and ``estimator_draws`` count ``reliable``'s
    ``est_prob`` calls and the draws they used, and ``estimator_bounded``
    the balls it failed without a call (``estimation.cut_bound``), so
    ``estimator_calls + estimator_bounded`` counts the balls it tested."""

    labels_spent: int = 0
    stopped_reason: str = "pool_exhausted"
    per_point: list[PerPointRecord] = field(default_factory=list)
    points_scanned: int = 0
    reliable_skips: int = 0
    estimator_calls: int = 0
    estimator_draws: int = 0
    estimator_bounded: int = 0
    skip_certificates: list[SkipCertificate] = field(default_factory=list)

    def to_json(self, config_dict: dict, version: str,
                resolved_seed: int | None = None) -> str:
        """``asdict(self)`` with the tool version, the config and, when given,
        the resolved seed, as one line of JSON with sorted keys."""
        # the records are flat, so vars() gives asdict()'s JSON without its deep
        # copy; without an indent json.dumps runs its C encoder
        payload = {**vars(self), "per_point": [vars(r) for r in self.per_point],
                   "skip_certificates": [vars(c) for c in self.skip_certificates],
                   "tool_version": version, "config": config_dict}
        if resolved_seed is not None:
            payload["resolved_seed"] = resolved_seed
        return json.dumps(payload, sort_keys=True) + "\n"


def confident_label(pool: Pool, oracle: LabelOracle, center_index: int,
                    k_prime: int, t_budget: int, delta_s: float,
                    neighbors: np.ndarray | None = None) -> ConfidentOutcome:
    """Infer the label of a pool point from its nearest neighbors' labels.

    Requests labels of successive neighbors, stopping at min(k', t) requests or
    as soon as |running mean - 1/2| > 2 b(delta_s, k) (the cut-off).  Returns the
    majority label over the requested set.  The stopping index is
    ``th.first_cutoff`` of the running count of 1-labels among the oracle's
    predetermined realizations, ``oracle.labels``, read once; exactly those
    labels are then charged with one ``request_batch``, which is
    request-for-request identical to the sequential loop.

    ``neighbors``, when given, must be ``neighbor_order(pool, center_index)``:
    every pool index but the centre, nearest first, ties to the lower index
    (``run_kalls`` passes the indices of its one ``center_order`` per point).
    When it is None the order is computed here.  Only ``request_batch``
    checks the indices, so a ``neighbors`` that breaks this contract can fail
    at the read with numpy's ``IndexError`` (an entry past the pool) rather
    than ``ValueError``; an entry of Q that is out of range still fails that
    check before anything is charged, and an entry past Q cannot change the
    outcome, since the cut-off at k reads only the first k labels.
    """
    cap = min(int(k_prime), int(t_budget))
    if cap < 1:
        raise RuntimeError("no label request possible: min(k', t) < 1")
    if neighbors is None:
        neighbors = neighbor_order(pool, center_index)
    cap = min(cap, neighbors.shape[0])
    if cap < 1:
        raise RuntimeError("pool has no neighbors to request")

    idx = neighbors[:cap]
    cum = np.add.accumulate(oracle.labels[idx], dtype=np.int64)  # labels 1 so far
    k_cut = th.first_cutoff(cum, delta_s)
    k_star = k_cut or cap
    q = idx[:k_star]
    oracle.request_batch(q)
    eta_hat = float(cum[k_star - 1]) / k_star
    return ConfidentOutcome(
        y_hat=1 if eta_hat >= 0.5 else 0,
        q=q,
        cut_off_fired=k_cut > 0,
        eta_hat=eta_hat,
    )


def record_accuracy(smooth: th.SmoothnessParams, lb: float, delta_min: float) -> float:
    """The accuracy eps_o = ``smooth.ball_accuracy(lb)`` at which ``reliable``
    estimates the ball masses of a record with guarantee ``lb``.

    ValueError, naming lb, alpha, L and d, where no stage table exists at
    eps_o, delta' = ``delta_min`` and u = 50: an eps_o that underflows to
    0.0, or one so small that computing its i_max overflows or divides by
    zero (below about 1e-298 at delta' 4e-10).  The table exists at every
    delta' >= ``delta_min`` where it exists at ``delta_min``, so a run checks
    at the delta' of its last scanned point.
    """
    eps_o = smooth.ball_accuracy(lb)
    try:
        stage_table(eps_o, delta_min, _U)
    except (ValueError, ArithmeticError) as exc:  # overflow or division by zero
        raise ValueError(f"no ball-mass estimate at the accuracy (lb / 64L)^(d/alpha) = "
                         f"{eps_o!r} of lb {lb}, alpha {smooth.alpha}, L {smooth.L}, "
                         f"d {smooth.d} ({exc})") from None
    return eps_o


class RecordRows:
    """The run's record table: each active record and what ``reliable``
    keeps of it, in record order.  ``active`` is the ``ActiveSet`` of the
    records, which ``run_kalls`` returns; ``points`` is their points as an
    (R, d) array; ``rows`` their sorted pool rows (the squared distances from
    the record's point to the pool, ascending); ``eps_o`` their accuracies
    (``record_accuracy``), as a list of floats.  ``bound`` is an int64
    array of each record's upper bound on c* (``estimation.cut_bound`` at
    threshold 75/94 eps_o and u = 50) over the run's delta' range, and
    ``bound_entries`` the float64 entry of its row at bound - 1, +inf where
    the index is past the pool.  All of it is computed once, when the
    record is accepted.

    [``delta_min``, ``delta_max``] is the run's delta' range, from that of
    its last scanned point to that of its first; in a table for one delta'
    (``delta_min == delta_max``) each bound is c* itself.
    lb = |eta_hat - 1/2| - b <= 1/2, so the constructor checks the largest
    accuracy, that of lb = 1/2, at ``delta_min``, and a run whose every
    record would fail is refused before it spends a label.

    ``trace`` is a fresh ``RunTrace``, where ``reliable`` counts its
    estimates and certifies its skips; ``run_kalls`` returns it.
    """

    def __init__(self, smooth: th.SmoothnessParams, delta_min: float,
                 delta_max: float) -> None:
        self.smooth, self.delta_min, self.delta_max = smooth, delta_min, delta_max
        record_accuracy(smooth, 0.5, delta_min)
        self.trace = RunTrace()
        self.active = ActiveSet()
        self.points = np.zeros((0, smooth.d))
        self.rows: list[np.ndarray] = []
        self.eps_o: list[float] = []
        self.bound = np.zeros(0, np.int64)
        self.bound_entries = np.zeros(0)

    def append(self, record: ActiveRecord, row: np.ndarray) -> None:
        """Keep ``record`` and its sorted pool ``row``, and the record's
        bound on c* over the pool of ``row``.  ValueError, with the table
        unchanged, where ``record_accuracy`` raises for the record's lb or
        ``ActiveSet.append`` refuses its source index."""
        eps_o = record_accuracy(self.smooth, record.lb, self.delta_min)
        w = row.shape[0]
        bound = cut_bound(eps_o, self.delta_min, self.delta_max, _U,
                          RELIABLE_ACCEPT_RATIO * eps_o, w)
        points = np.vstack((self.points, record.point))
        self.active.append(record)
        self.points = points
        self.rows.append(row)
        self.eps_o.append(eps_o)
        self.bound = np.append(self.bound, bound)
        self.bound_entries = np.append(self.bound_entries,
                                       row[bound - 1] if bound <= w else np.inf)


def reliable(x: np.ndarray, x_row: np.ndarray, delta_s: float, rows: RecordRows,
             rng: np.random.Generator) -> bool:
    """Informativeness test: True when some active record's neighborhood already
    pins down the label of the pool point ``x``.

    For each record (X', Y', c), estimates the pool mass of the open balls of
    radius rho(X, X') around X' and around X with accuracy (c / 64L)^(d/alpha)
    and u = 50, and answers True when either estimate is <= 75/94 of that
    accuracy: 75/94 = 1/g(50), so a pass certifies, by the estimator's
    dichotomy, a ball mass of at most that accuracy.  Records are checked
    nearest-first, the ball around X' before the ball around X, and the test
    stops at the first that passes.  A run with no record yet is
    never reliable.

    ``rows`` is the run's record table (``RecordRows``); its rows and
    ``x_row``, X's full sorted row (its own 0.0 included, from the scan
    step's ``center_order``), are rows over the same pool of w points.
    ``delta_s`` must lie in the table's delta' range; ValueError, naming it
    and the range, before the trace or ``rng`` is touched, where it does not.

    A ball of c* points or more, c* the smallest count whose pass has
    probability below 2^-64 at delta' = ``delta_s`` (``cut_bound``), fails
    without a draw, which moves the law of each ball's outcome by less than
    2^-64.  A ball holds c points or more exactly when the (c)th entry of
    its sorted row is below r2.  One array pass, against each record's bound
    on c*, finds the records with a ball below it; only where there is one
    does the test walk the records, nearest first (``nearest_order``).  Each
    such record the walk reaches takes its c* at ``delta_s`` and cuts each
    ball that holds c* points; every other ball is one ``est_prob`` call on
    its count (one ``searchsorted`` in its row) and its record's stage
    table.  So every cut and draw, and the random stream, are those of a
    fresh distance row per ball.

    Each call adds its ``est_prob`` calls, their draws and the balls it
    failed without a call (the balls it tested less its calls) to the
    counters of ``rows.trace``, and a pass appends a ``SkipCertificate``
    for the point under test, the trace's ``points_scanned``.
    """
    if not rows.delta_min <= delta_s <= rows.delta_max:
        raise ValueError(f"delta' {delta_s} is outside the record table's range "
                         f"[{rows.delta_min}, {rows.delta_max}]")
    if not rows.rows:
        return False
    r2 = np.sqrt(sq_dists(rows.points, x)[0])  # bit for bit the scalar sqrt of each entry
    r2 *= r2
    record_rows, eps_o, w = rows.rows, rows.eps_o, x_row.shape[0]
    # the records with a ball below their bound.  A bound past the pool
    # (w + 1) reads X's last entry, but its record entry is +inf, so that
    # record is below it
    below = ~((rows.bound_entries < r2) & (x_row.take(rows.bound - 1, mode="clip") < r2))
    calls = draws = 0
    tested, passed = 2 * len(record_rows), None
    order = nearest_order(rows.points, x)[0].tolist() if below.any() else []
    for k, j in enumerate(order):
        if not below[j]:
            continue
        threshold = RELIABLE_ACCEPT_RATIO * eps_o[j]
        c_star = cut_bound(eps_o[j], delta_s, delta_s, _U, threshold, w)
        stages = stage_table(eps_o[j], delta_s, _U)
        for ball, row in (("record", record_rows[j]), ("point", x_row)):
            if c_star <= w and row[c_star - 1] < r2[j]:  # it holds c* points or more
                continue
            est = est_prob(int(row.searchsorted(r2[j])), w, stages, rng)
            calls += 1
            draws += est.draws_used
            if est.p_hat <= threshold:
                passed, tested = (j, ball), 2 * k + (1 if ball == "record" else 2)
                break
        if passed is not None:
            break
    trace = rows.trace
    trace.estimator_calls += calls
    trace.estimator_draws += draws
    trace.estimator_bounded += tested - calls
    if passed is None:
        return False
    j, ball = passed
    trace.skip_certificates.append(SkipCertificate(
        trace.points_scanned, rows.active.records[j].source_index, ball))
    return True


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

    Each informative point forms h = log(1/delta_s) + loglog(1/delta_s) once
    (``th._head``) and takes k', the LB radius and k_tilde from it through
    the private helpers of ``label_budget_k``, ``confidence_radius`` and
    ``adaptive_budget_bound``, with their floats; ``first_cutoff``, inside
    ``confident_label``, reads the same h back from ``th._head``.

    One ``center_order`` per scanned point gives X's neighbour order, which
    ``confident_label`` requests along, and X's full sorted pool row, on
    which ``reliable`` counts the balls around X; an accepted X keeps that
    very array as its record's row, for the balls around it.  The only other
    distances are X's to the records, which ``reliable`` computes with
    ``sq_dists(rows.points, x)`` (and ``nearest_order`` where its cut keeps
    a ball).  The run keeps one record table
    (``RecordRows``), and an accepted X is one append to it: its record, its
    point, its row and its accuracy eps_o = (LB / 64L)^(d/alpha), each
    computed once; every estimate takes u = 50 and the threshold 75/94 eps_o,
    and 75/94 = 1/g(u) at that u.  The table's ``active`` is the returned
    active set.  ValueError, before any label, where the largest accuracy,
    that of LB = 1/2, has no stage table at the last scanned point's
    delta_s, and at acceptance where the record's own has none
    (``record_accuracy``).
    The returned trace is the table's own (``rows.trace``), to which
    ``reliable`` adds its estimator counters and skip certificates.
    """
    if pool.w < 2:
        raise ValueError("pool must contain at least 2 points")
    if oracle.remaining_budget != config.n:
        raise ValueError(
            f"oracle budget {oracle.remaining_budget} does not match config.n {config.n}")

    rows = RecordRows(smooth, th.per_point_delta(config.delta, pool.w),
                      th.per_point_delta(config.delta, 1))
    trace = rows.trace
    width = th.margin_delta(config.epsilon, margin)  # the margin width Delta of k'

    for s in range(1, pool.w + 1):
        if oracle.remaining_budget <= 0:
            break
        trace.points_scanned = s
        delta_s = th.per_point_delta(config.delta, s)
        x_index = s - 1
        neighbors, x_row = center_order(pool, x_index)

        if reliable(pool.points[x_index], x_row, delta_s, rows, est_rng):
            trace.reliable_skips += 1
            continue

        head = th._head(delta_s)  # h, once for the point (docstring)
        k_prime = th._ceil_budget(th._request_bound(head, width, config.c_const))
        t_before = oracle.remaining_budget
        outcome = confident_label(pool, oracle, x_index, k_prime, t_before, delta_s,
                                  neighbors=neighbors)
        q_size = len(outcome.q)
        b_q = th._radius(head, q_size)
        lb = abs(outcome.eta_hat - 0.5) - b_q
        accepted = lb >= config.lb_factor * b_q

        gap = abs(float(oracle.eta[x_index]) - 0.5)
        value = th._request_bound(head, 2.0 * gap, config.c_const) if gap else math.inf
        k_tilde = value if math.isfinite(value) else None  # keep the trace valid JSON
        trace.per_point.append(PerPointRecord(
            s=s, q_size=q_size, lb=lb, accepted=accepted,
            eta_hat=outcome.eta_hat, y_hat=outcome.y_hat,
            cut_off_fired=outcome.cut_off_fired,
            k_cap=min(k_prime, t_before), k_tilde=k_tilde))

        if accepted:
            rows.append(ActiveRecord(point=pool.points[x_index].copy(),
                                     inferred_label=outcome.y_hat, lb=lb,
                                     source_index=x_index), x_row)

    trace.labels_spent = config.n - oracle.remaining_budget
    trace.stopped_reason = ("budget_exhausted" if oracle.remaining_budget <= 0
                            else "pool_exhausted")
    return rows.active, trace


def one_nn_label_batch(active: ActiveSet, queries: np.ndarray) -> np.ndarray:
    """1-NN labels for a batch of queries; distance ties go to the lowest
    source index (records are stored in source order)."""
    if not active.records:
        raise RuntimeError("cannot classify with an empty active set")
    return knn_vote(active.points(), active.labels(), queries, 1)

