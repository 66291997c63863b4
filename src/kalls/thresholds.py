"""Closed-form confidence radii, margin width, label budgets and feasibility checks.

Every quantity the active learner needs ahead of time lives here: the anytime
confidence radius ``b(delta, k)``, the margin width ``Delta``, the per-point
label budget ``k(eps, delta)``, the per-point confidence split ``delta_s``, and
the (purely diagnostic) feasibility report; and ``first_cutoff``, the first
request count at which ``confident_label``'s running mean of labels leaves
1/2 by more than 2 b(delta, k).  All functions are pure.  Three private
memos change how fast they answer, not what: h = log(1/delta) +
loglog(1/delta) and b(delta, k) are kept for their last arguments
(``_log_loglog``, ``_radius``), and the tables of k, 2/k and loglog(e k)
that ``first_cutoff`` reads for each power-of-two size (``_k_table``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np

# Saturation marker for budgets that exceed any practical request count.
INFEASIBLE_BUDGET = 2**63 - 1

_INV_E = 1.0 / math.e


@dataclass(frozen=True)
class SmoothnessParams:
    """Smoothness of the regression function measured in marginal mass.

    alpha: exponent in (0, 1]; L: constant > 1; d: ambient dimension.
    """

    alpha: float
    L: float
    d: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.L > 1.0:
            raise ValueError(f"L must be > 1, got {self.L}")
        if self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")

    def ball_accuracy(self, lb: float) -> float:
        """``reliable``'s accuracy eps_o = (lb / 64L)^(d/alpha) for the ball
        masses of a record with guarantee ``lb``."""
        return (lb / (64.0 * self.L)) ** (self.d / self.alpha)


@dataclass(frozen=True)
class MarginParams:
    """Margin-noise parameters: mass near the decision boundary is < C * eps^beta."""

    beta: float
    C: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < math.inf:  # NaN fails
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 1.0 <= self.C < math.inf:
            raise ValueError(f"C must be finite and >= 1, got {self.C}")


@dataclass(frozen=True)
class DoublingParams:
    """Doubling constant for ball masses; balls below mass_floor are exempt."""

    c_db: float
    mass_floor: float = 1e-9

    def __post_init__(self) -> None:
        if self.c_db <= 0.0:
            raise ValueError(f"c_db must be > 0, got {self.c_db}")
        if not 0.0 < self.mass_floor <= 1.0:
            raise ValueError(f"mass_floor must be in (0, 1], got {self.mass_floor}")


@dataclass(frozen=True)
class KallsConfig:
    """Run parameters of the active learner.

    budget_mode:
      * ``strict_paper``   -- every oracle request costs budget, repeats included.
      * ``cached_labels``  -- a pool point's label is drawn once and re-requests
        of the same point are free.

    ``lb_factor`` is fixed, not a field: a record is accepted when its
    lower-bound guarantee is at least ``lb_factor * b(delta_s, |Q|)``.
    """

    epsilon: float
    delta: float
    n: int
    c_const: float = 8.0
    budget_mode: str = "strict_paper"
    lb_factor: ClassVar[float] = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.n < 0:
            raise ValueError(f"label budget n must be >= 0, got {self.n}")
        if not 1.0 <= self.c_const < math.inf:  # NaN fails
            raise ValueError(f"c_const must be finite and >= 1, got {self.c_const}")
        if self.budget_mode not in ("strict_paper", "cached_labels"):
            raise ValueError(f"unknown budget_mode {self.budget_mode!r}")


@functools.lru_cache(maxsize=1)
def _log_loglog(delta: float) -> float:
    """log(1/delta) + loglog(1/delta), the leading terms of the bounds below.

    Kept for the last delta: ``run_kalls`` and then ``first_cutoff`` ask for
    the same delta_s at each scanned point, so h is formed once per point.
    A refused delta raises and is not kept."""
    if not 0.0 < delta < _INV_E:
        raise ValueError(f"delta must be in (0, 1/e) so loglog(1/delta) > 0, got {delta}")
    log_inv = math.log(1.0 / delta)
    return log_inv + math.log(log_inv)


def margin_delta(epsilon: float, margin: MarginParams) -> float:
    """Margin width Delta = max(eps/2, (eps/2C)^(1/(beta+1)))."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return max(epsilon / 2.0, (epsilon / (2.0 * margin.C)) ** (1.0 / (margin.beta + 1.0)))


def confidence_radius(delta: float, k: int) -> float:
    """Anytime confidence radius b(delta, k), valid simultaneously over all k.

    b = sqrt((2/k) * (log(1/delta) + loglog(1/delta) + loglog(e*k)))
    """
    head = _log_loglog(delta)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _radius(head, k)


@functools.lru_cache(maxsize=1)
def _radius(head: float, k: int) -> float:
    """``confidence_radius(delta, k)`` for k >= 1, head = ``_log_loglog(delta)``.

    Kept for the last (head, k): where no cut-off fires, ``run_kalls``'s LB
    radius b(delta_s, |Q|) is ``first_cutoff``'s screen radius b(delta_s, cap)."""
    return math.sqrt((2.0 / k) * (head + math.log(math.log(math.e * k))))


@functools.cache
def _k_table(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k, 2/k and log(log(e*k)) for k = 1..size, read-only float64: the
    request counts and the terms of b(delta, k) that do not depend on delta.
    The logs come from math.log, since numpy's differs from it by an ulp at
    some k; the division and product are rounded as Python's are."""
    ks = np.arange(1, size + 1, dtype=np.float64)
    table = (ks, 2.0 / ks, np.array([math.log(math.log(ek)) for ek in (math.e * ks).tolist()]))
    for column in table:
        column.setflags(write=False)
    return table


def _k_terms(cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_k_table`` at the power of two at or above ``cap`` >= 1."""
    return _k_table(1 << (cap - 1).bit_length())


def _confidence_radii(head: float, cap: int, start: int) -> np.ndarray:
    """``confidence_radius(delta, k)`` for k = start..cap, head =
    ``_log_loglog(delta)``, bit for bit: each entry is formed from the same
    float terms with the same rounded operations, and the delta-free terms
    are read from the table, computed once with ``math.log``.  The result is
    a new array, which the caller may overwrite."""
    _, inv, loglog = _k_terms(cap)
    radii = loglog[start - 1:cap] + head
    radii *= inv[start - 1:cap]
    return np.sqrt(radii, out=radii)


def first_cutoff(cum: np.ndarray, delta: float) -> int:
    """The first k in 1..len(cum) with |cum[k-1]/k - 1/2| > 2
    ``confidence_radius(delta, k)``, or 0 where no k passes.

    ``cum`` is the running count of 1-labels among the first k requests
    (int64).  The answer is the sequential loop's, but the cut-off is tested
    only where it can fire, with h = log(1/delta) + loglog(1/delta) formed
    once (``_log_loglog``, so a ``run_kalls`` point reads back its own h):

    * the floor: the deviation is at most 1/2, and no k up to floor(32 h)
      has 2 b(delta, k) below 1/2, so deviations are formed only past it
      (none where len(cum) is at or below it).  For k <= 32 h,
      b^2 = (2/k) (h + loglog(e k)) >= 1/16 + (2/k) loglog(e k).  The last
      term is 0 only at k = 1, where b^2 >= 2h > 2; at k >= 2 it is at least
      loglog(2e) / h > 0.5 / h times 1/16, a margin that the few rounded
      operations, and the floor of a rounded 32 h, cannot undo for any h a
      float can hold (h < 760);
    * the screen: b(delta, k)^2 falls strictly with k, since loglog(e k)
      rises by at most 1/k from k to k + 1 while h > 1; the computed radii
      keep that order, as their relative steps, about 1/(2k), are far above
      an ulp (tested to k = 20,000 for delta down to 1e-16).  So no k whose
      deviation is at most 2 b(delta, len(cum)) can fire, and radii are
      formed only from the first k whose deviation passes that one scalar.

    Each side is formed with the rounded operations of
    ``abs(cum[k-1] / k - 0.5)`` and ``2.0 * b``.  The table of k, 2/k and
    loglog(e k) is read only for a len(cum) that passes the floor.
    """
    head = _log_loglog(delta)
    floor = math.floor(32.0 * head)
    cap = cum.shape[0]
    if floor >= cap:
        return 0
    dev = np.divide(cum[floor:], _k_terms(cap)[0][floor:cap])
    dev -= 0.5
    np.abs(dev, out=dev)
    screen = dev > 2.0 * _radius(head, cap)
    j = int(screen.argmax())  # the first True, or 0 when none is
    if not screen[j]:
        return 0
    twice_b = _confidence_radii(head, cap, floor + j + 1)
    twice_b *= 2.0
    fired = dev[j:] > twice_b
    first = int(fired.argmax())
    return floor + j + first + 1 if fired[first] else 0


def _request_bound(head: float, width: float, c_const: float) -> float:
    """(c / w^2) * (head + loglog(512*sqrt(e)/w)) requests to tell a mean
    apart from 1/2 at a width w; inf where w^2 underflows to 0.0."""
    square = width * width
    if square == 0.0:
        return math.inf
    return (c_const / square) * (head + math.log(math.log(512.0 * math.sqrt(math.e) / width)))


def label_budget_real(epsilon: float, delta: float, margin: MarginParams,
                      c_const: float) -> float:
    """Per-point label budget before rounding: (c/Delta^2) * bracket.

    bracket = log(1/delta) + loglog(1/delta) + loglog(512*sqrt(e)/Delta).
    Exactly linear in ``c_const``; inf where Delta^2 underflows to 0.0.
    """
    head = _log_loglog(delta)
    if c_const <= 0.0:
        raise ValueError(f"c_const must be > 0, got {c_const}")
    return _request_bound(head, margin_delta(epsilon, margin), c_const)


def label_budget_k(epsilon: float, delta: float, margin: MarginParams,
                   c_const: float) -> int:
    """Integer per-point label budget k(eps, delta); saturates at INFEASIBLE_BUDGET."""
    return _ceil_budget(label_budget_real(epsilon, delta, margin, c_const))


def _ceil_budget(value: float) -> int:
    """A request bound rounded up to a budget of at least 1, saturating at
    INFEASIBLE_BUDGET (inf included)."""
    if not math.isfinite(value) or value >= float(INFEASIBLE_BUDGET):
        return INFEASIBLE_BUDGET
    return max(1, math.ceil(value))


def phi_n(n: int, delta: float) -> float:
    """sqrt((1/n) * (log(1/delta) + loglog(1/delta)))."""
    head = _log_loglog(delta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt(head / n)


def per_point_delta(delta: float, s: int) -> float:
    """Confidence share delta_s = delta / (32 s^2) of the s-th scanned point."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return delta / (32.0 * s * s)


def adaptive_budget_bound(margin_gap: float, delta_s: float,
                          c_const: float = KallsConfig.c_const) -> float:
    """Noise-adaptive request bound for a point with |eta(x) - 1/2| = margin_gap.

    (c / (4 a^2)) * (log(1/delta_s) + loglog(1/delta_s) + loglog(256*sqrt(e)/a)),
    the label budget's bound at the width 2a, bit for bit, and inf where
    (2a)^2 underflows to 0.0; diagnostic only -- it needs the true
    regression function.
    """
    head = _log_loglog(delta_s)
    if not 0.0 < margin_gap <= 0.5:
        raise ValueError(f"margin_gap must be in (0, 1/2], got {margin_gap}")
    return _request_bound(head, 2.0 * margin_gap, c_const)


@dataclass(frozen=True)
class FeasibilityReport:
    """Diagnostic view of the asymptotic sufficiency conditions.

    ``budget_poly_part`` and ``pool_poly_part`` are the polynomial parts only
    (the theory hides polylog factors and unspecified constants inside them), so
    the booleans are indicative, never gating.  ``estprob_pool_rhs`` is the exact
    pool-size requirement of the unlabeled-sampling subroutine, evaluated at the
    supplied w.  ``k_budget`` and ``phi_n`` need loglog(1/delta) > 0, so they
    are NaN where delta >= 1/e, a delta a run accepts.
    """

    epsilon: float
    delta: float
    n: int
    w: int
    delta_margin: float
    k_budget: int | float
    phi_n: float
    p_eps: float
    p_tilde_eps: float
    t_eps_delta: float
    budget_poly_part: float
    pool_poly_part: float
    estprob_pool_rhs: float
    budget_ok_poly_part_only: bool
    pool_rate_ok_poly_part_only: bool
    pool_estprob_ok: bool

    def render(self) -> str:
        """Human-readable table."""
        d = asdict(self)
        width = max(len(k) for k in d)
        lines = ["feasibility report (diagnostic only; polynomial parts omit polylog factors)"]
        for key, val in d.items():
            if isinstance(val, bool):
                sval = "yes" if val else "no"
            elif isinstance(val, float):
                sval = f"{val:.6g}"
            else:
                sval = str(val)
            lines.append(f"  {key:<{width}}  {sval}")
        return "\n".join(lines)


def _power_or_inf(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where it overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def feasibility_report(config: KallsConfig, smooth: SmoothnessParams,
                       margin: MarginParams, w: int) -> FeasibilityReport:
    """Evaluate the sufficiency conditions at the supplied (n, w); never raises.

    Reported quantities: the budget bound's polynomial part, the two pool bounds
    (rate polynomial part, and the exact unlabeled-sampling requirement with
    c_bar = lb_factor and phi_n), the covering scales p_eps / p_tilde_eps and
    the covering horizon T(eps, delta).  A polynomial part that overflows, and
    a quantity divided by a scale that underflows to 0, are inf, so the check
    it enters fails.
    """
    eps, delta = config.epsilon, config.delta
    dm = margin_delta(eps, margin)
    exp_pool = (2.0 * smooth.alpha + smooth.d) / (smooth.alpha * (margin.beta + 1.0))
    exp_budget = ((2.0 * smooth.alpha + smooth.d - smooth.alpha * margin.beta)
                  / (smooth.alpha * (margin.beta + 1.0)))
    budget_poly = _power_or_inf(1.0 / eps, exp_budget)
    pool_poly = _power_or_inf(1.0 / eps, exp_pool)

    p_eps = (31.0 * dm / (1024.0 * smooth.L)) ** (smooth.d / smooth.alpha)
    p_tilde = (dm / (128.0 * smooth.L)) ** (smooth.d / smooth.alpha)
    t_eps_delta = math.log(8.0 / delta) / p_tilde if p_tilde > 0.0 else math.inf

    defined = delta < _INV_E  # k_budget and phi_n need loglog(1/delta) > 0
    k_budget = label_budget_k(eps, delta, margin, config.c_const) if defined else float("nan")
    phi = phi_n(max(config.n, 1), delta) if defined else float("nan")

    psi = (config.lb_factor * phi / (64.0 * smooth.L)) ** (smooth.d / smooth.alpha)
    if config.n >= 1 and defined and w >= 1 and psi > 0.0:
        estprob_rhs = 400.0 * math.log(12800.0 * w * w / (delta * psi)) / psi
    else:
        estprob_rhs = math.inf

    return FeasibilityReport(
        epsilon=eps,
        delta=delta,
        n=config.n,
        w=w,
        delta_margin=dm,
        k_budget=k_budget,
        phi_n=phi,
        p_eps=p_eps,
        p_tilde_eps=p_tilde,
        t_eps_delta=t_eps_delta,
        budget_poly_part=budget_poly,
        pool_poly_part=pool_poly,
        estprob_pool_rhs=estprob_rhs,
        budget_ok_poly_part_only=config.n >= budget_poly,
        pool_rate_ok_poly_part_only=w >= pool_poly,
        pool_estprob_ok=w >= estprob_rhs,
    )
