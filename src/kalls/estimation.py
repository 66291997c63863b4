"""Adaptive Bernoulli-mean estimation and pool-based ball-mass estimation.

``ber_est`` estimates the mean of a {0,1} stream by doubling the sample size and
stopping early once the running mean clears a logarithmic threshold.
``est_prob`` applies the same stage loop to the indicator of an open ball under
uniform pool draws with replacement, to estimate the pool-empirical mass of the
ball.  Those draws are i.i.d. Bernoulli(c/w), c the exact number of the w pool
points inside the ball, so ``est_prob`` takes c from its caller, who counts
the ball once on a row of squared distances to the pool, and draws each
stage's ones as one Binomial(new draws, c/w) variate: the law of (p_hat,
draws_used, terminated_early) is that of drawing pool indices, and no index
is drawn.  It takes its stage table (``stage_table``) from the caller too.

A stage whose threshold is >= 1 cannot stop the loop, since a running mean is
at most 1.  The loop skips those stages: the first stage it runs takes all
their draws at once (m_live of them, m_live the first stage that can stop),
and a sum of independent Binomial(n_i, p) counts is Binomial(sum n_i, p), so
the law of (p_hat, draws_used, terminated_early) is unchanged.

``cut_bound`` tells a caller that tests ``p_hat <= accept`` the smallest
count c* at which a ball is so heavy that the test passes with probability
below 2^-64 (a Chernoff bound), so that every heavier ball can fail without
a draw.  It takes one accuracy and a range of delta', reads the accuracy's
stage tables at the range's two ends, and no count, and gives an upper
bound on c* that holds over the range: a caller that fixes the range once,
as ``reliable``'s record table does when it accepts a record, cuts a ball
of at least that many points at every delta' of it without c*.  At one
delta' the bound is c*.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


# slots and not frozen: a frozen dataclass takes about 4x as long to build,
# and est_prob builds one per call
@dataclass(slots=True)
class BerEstResult:
    p_hat: float
    draws_used: int
    terminated_early: bool


def g_factor(t: int) -> float:
    """Dichotomy slack g(t) = 1 + 8/(3t) + sqrt(2/t); in (1, 2) for t >= 7."""
    if t < 7:
        raise ValueError(f"t must be >= 7, got {t}")
    return 1.0 + 8.0 / (3.0 * t) + math.sqrt(2.0 / t)


def ber_est_max_stage(epsilon_o: float, delta_prime: float, u: int) -> int:
    """Largest doubling stage index i (sample size 2^i) the loop may reach."""
    if not 0.0 < epsilon_o < 1.0:
        raise ValueError(f"epsilon_o must be in (0, 1), got {epsilon_o}")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    if u < 7:
        raise ValueError(f"u must be >= 7, got {u}")
    big_k = (4.0 * u / epsilon_o) * math.log(8.0 * u / (delta_prime * epsilon_o))
    return math.floor(math.log2(u * math.log(2.0 * big_k / delta_prime) / epsilon_o))


@functools.lru_cache(maxsize=256)
def _thresholds(delta_prime: float, u: int, i_max: int) -> tuple[tuple[int, float], ...]:
    """(m, threshold) of each doubling stage up to 2^i_max that can stop the
    loop, the threshold on the running mean u*log(2m/delta')/m; the stage
    2^i_max alone if none can."""
    # A running mean is at most 1.0, so a stage with threshold >= 1 cannot
    # stop the loop; the thresholds fall with m, so the stages that can are
    # the last ones, and dropping the others merges their draws into the
    # first stage that can (or into the last).  Built from 2^i_max down, the
    # first stage that cannot stop ends the table.
    stages = []
    for i in range(i_max, 2, -1):
        stage = (1 << i, u * math.log(2.0 * (1 << i) / delta_prime) / (1 << i))
        if stage[1] >= 1.0:
            return tuple(reversed(stages)) or (stage,)
        stages.append(stage)
    return tuple(reversed(stages))


def stage_table(epsilon_o: float, delta_prime: float,
                u: int) -> tuple[tuple[int, float], ...]:
    """(m, threshold) of each stage the loop runs at these parameters: the
    live stages up to 2^i_max, so the last holds all 2^i_max draws."""
    # u >= 7 and eps_o, delta' < 1 give K > 28*log(56), so i_max >= 5: never empty
    return _thresholds(delta_prime, u, ber_est_max_stage(epsilon_o, delta_prime, u))


# 70 bits where the claim is 64: the margin covers the rounding of the test
_CUT_LOG = 70.0 * math.log(2.0)


def _chernoff_cut(count: int, w: int, m_rel: float, accept: float, bits: float) -> bool:
    """Whether a ball of ``count`` of the w pool points is cut:
    p = count / w > a and m_rel (p - a)^2 > 2p (70 ln 2 + ln n_rel), with
    ``bits`` = 70 ln 2 + ln n_rel."""
    p = count / w
    return p > accept and m_rel * ((p - accept) * (p - accept)) > 2.0 * p * bits


def _relevant_stages(epsilon_o: float, delta_prime: float, u: int,
                     accept: float) -> tuple[int, int]:
    """(log2 m_rel, i_max) at delta': m_rel is the first stage of
    ``stage_table(epsilon_o, delta_prime, u)`` whose threshold is below
    ``accept``, or its last, 2^i_max, where none is."""
    stages = stage_table(epsilon_o, delta_prime, u)
    n = 1
    while n < len(stages) and stages[-n - 1][1] < accept:
        n += 1
    i_max = stages[-1][0].bit_length() - 1
    return i_max - n + 1, i_max


def _first_cut(log2_m_rel: int, n_rel: int, accept: float, w: int) -> int:
    """c*, the first count of the w that ``_chernoff_cut`` cuts at
    m_rel = 2^``log2_m_rel`` and ``n_rel``; w + 1 where it cuts none."""
    m_rel = math.ldexp(1.0, log2_m_rel)
    bits = math.log(n_rel) + _CUT_LOG
    # p+ w, p+ = a + (bits + sqrt(bits (bits + 2a m_rel))) / m_rel, plus 1e-6
    scaled = (accept + (bits + math.sqrt(bits * (bits + 2.0 * accept * m_rel))) / m_rel) * w + 1e-6
    above = math.floor(scaled)
    # the first count above p+ w; where p+ w is within 1e-6 of the count
    # above, the predicate decides
    near_cut = scaled - above < 2e-6 and _chernoff_cut(above, w, m_rel, accept, bits)
    return min(above if near_cut else above + 1, w + 1)


def cut_bound(epsilon_o: float, delta_lo: float, delta_hi: float, u: int,
              accept: float, w: int) -> int:
    """An upper bound on c*(delta') that holds at every delta' in
    [``delta_lo``, ``delta_hi``].  c*(delta') is the smallest ball count of
    the w pool points at which
    ``est_prob(c, w, stage_table(epsilon_o, delta', u), rng)`` returns
    p_hat <= ``accept`` with probability below 2^-64; w + 1 where no count
    is.  A caller that tests ``p_hat <= accept`` may count every ball of
    c >= c* points as failed without drawing: at any delta' of the range a
    ball of at least the bound's count is cut, and only a lighter ball needs
    c* itself.  At one delta', ``delta_lo == delta_hi``, the bound is c*
    exactly.  ValueError where ``delta_lo`` is above ``delta_hi``, or where
    ``stage_table`` refuses an end.

    c* at one delta'.  The loop can end with an estimate <= a = ``accept``
    only at a stage whose threshold is below a (an early stop has p_hat
    above the threshold) or at the last stage; the thresholds fall with m,
    so these are the last n_rel stages, from m_rel on:
    m_rel = min(m_a, 2^i_max), m_a the first stage of the table whose
    threshold is below a, and n_rel = i_max - log2 m_rel + 1.  At stage s
    the count of ones is X_s ~ Binomial(m_s, p), p = c / w, and
    p_hat = X_s / m_s, so for p > a the Chernoff lower tail and a union
    bound give P(pass) <= n_rel * exp(-m_rel (p - a)^2 / (2p)).  A count is
    cut where p > a and m_rel (p - a)^2 > 2p (70 ln 2 + ln n_rel), a bound
    below 2^-70 (``_chernoff_cut``).  That set of p is p > p+, the larger
    root of the quadratic, so the cut is monotone in the count and c* is
    the first count above p+ w.  Rounding moves p+ w by far less than 1e-6
    (at any w below 10^9), so where p+ w is within 1e-6 of a whole number
    the predicate decides that count.  An empty ball (c = 0) is never cut.

    The bound.  Four facts bound c*(delta') over the range:

    1. i_max does not decrease as delta' falls: each log in
       ``ber_est_max_stage`` takes an argument that rises as delta' falls.
    2. m_rel does not decrease either: every threshold u log(2m/delta')/m
       rises as delta' falls, so neither m_a nor the table's first stage
       falls, and 2^i_max does not.
    3. So n_rel = i_max - log2 m_rel + 1 is at most
       i_max(delta_lo) - log2 m_rel(delta_hi) + 1.
    4. c*(m_rel, n_rel) does not increase in m_rel and does not decrease in
       n_rel: m_rel, a power of 2, scales the predicate's left side
       exactly, its right side rises with ln n_rel, and c* is the first
       count the predicate cuts.

    So the bound is c*(m_rel(delta_hi), that largest n_rel).  Each fact
    holds in floating point as it does in exact arithmetic because
    ``math.log`` is monotone: every other step is a rounded product,
    quotient, sum or floor of positive terms, and rounding to nearest is
    monotone.  The bound relies on that.
    """
    if not delta_lo <= delta_hi:
        raise ValueError(f"delta_lo {delta_lo} is above delta_hi {delta_hi}")
    # log2 m_rel at delta_hi, its smallest over the range, and i_max at
    # delta_lo, its largest
    low_rel, top_i = _relevant_stages(epsilon_o, delta_hi, u, accept)
    if delta_lo < delta_hi:
        top_i = _relevant_stages(epsilon_o, delta_lo, u, accept)[1]
    return _first_cut(low_rel, top_i - low_rel + 1, accept, w)


def _stage_loop(ones_in: Callable[[int], int],
                stages: tuple[tuple[int, float], ...]) -> BerEstResult:
    """The doubling-stage loop of ``ber_est`` over a ``stage_table``;
    ``ones_in(n)`` returns the number of ones among ``n`` more draws."""
    ones = m = 0
    for target, threshold in stages:
        ones += ones_in(target - m)
        m = target
        if ones / m > threshold:
            return BerEstResult(ones / m, m, True)
    return BerEstResult(ones / m, m, False)


def ber_est(sampler: Callable[[int], np.ndarray], epsilon_o: float,
            delta_prime: float, u: int) -> BerEstResult:
    """Adaptive estimate of the mean of an i.i.d. {0,1} draw source.

    Doubles the sample size m = 2^i for i = 3 .. i_max,
    i_max = floor(log2(u*log(2K/delta')/epsilon_o)) with
    K = (4u/epsilon_o)*log(8u/(delta'*epsilon_o)), breaking as soon as the
    running mean exceeds u*log(2m/delta')/m.  Stages whose threshold is >= 1
    cannot break, so the first request is for the m_live draws up to the first
    stage that can (or up to 2^i_max if none can); each later stage asks
    ``sampler`` for its m/2 new draws.  No request exceeds 2^i_max, twice the
    largest stage-by-stage one.  Exactly ``draws_used`` draws are consumed, and
    the returned p_hat is their exact dyadic average.
    """
    def ones_in(count: int) -> int:
        out = np.asarray(sampler(count))
        if out.shape != (count,):
            raise RuntimeError(
                f"sampler returned {out.shape} for a request of {count} draws")
        return int(np.count_nonzero(out))

    return _stage_loop(ones_in, stage_table(epsilon_o, delta_prime, u))


def est_prob(in_ball: int, w: int, stages: tuple[tuple[int, float], ...],
             rng: np.random.Generator) -> BerEstResult:
    """Estimate the pool-empirical mass in_ball / w of a ball that holds
    ``in_ball`` of the ``w`` pool points.

    ``stages`` is ``stage_table(epsilon_o, delta', u)`` of the estimate's
    accuracy and confidence: the caller counts the ball and reads the table,
    and this runs the stage loop on Binomial(n, in_ball / w) draws and
    nothing else.  numpy's ``binomial`` rejects a count outside [0, w].  An
    empty ball returns p_hat 0.0 at the last stage, 2^i_max draws, without
    drawing: Binomial(n, 0) is 0 and leaves the generator as it was, so the
    result and the stream are the loop's, and no draw of 2^63 or more (an
    ``i_max`` of a tiny ``epsilon_o``) reaches numpy.
    """
    if in_ball == 0:
        return BerEstResult(0.0, stages[-1][0], False)
    p = in_ball / w
    return _stage_loop(lambda n: rng.binomial(n, p), stages)  # a Python int per stage


def est_prob_from_sq_dists(d2: np.ndarray, radius: float, epsilon_o: float,
                           u: int, delta_prime: float,
                           rng: np.random.Generator) -> BerEstResult:
    """``est_prob`` for the open ball of ``radius`` about a centre whose
    squared distances to the pool are the 1-D float64 array ``d2``, in any
    order: the ball holds ``count_nonzero(d2 < radius * radius)`` points.  A
    radius that is not >= 0 (NaN included) raises ``ValueError``.

    Nothing in kalls calls it (``reliable`` counts on sorted rows).  It stays
    because the benchmark's per-layer probes (``perfbench/layers.py``) name
    it, and its self-test removes it to check that a missing probe target
    reads 0.
    """
    if not radius >= 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    d2 = np.asarray(d2)
    r2 = float(radius) * float(radius)
    return est_prob(int(np.count_nonzero(d2 < r2)), d2.shape[0],
                    stage_table(epsilon_o, delta_prime, u), rng)
