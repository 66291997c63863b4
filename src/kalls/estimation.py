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
is drawn.

A stage whose threshold is >= 1 cannot stop the loop, since a running mean is
at most 1.  The loop skips those stages: the first stage it runs takes all
their draws at once (m_live of them, m_live the first stage that can stop),
and a sum of independent Binomial(n_i, p) counts is Binomial(sum n_i, p), so
the law of (p_hat, draws_used, terminated_early) is unchanged.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class SamplerExhausted(RuntimeError):
    """The draw source could not supply the requested number of samples."""


# slots and not frozen: a frozen dataclass takes about 4x as long to build,
# and reliable builds one per ball
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
    loop, the threshold on the running mean u*log(2m/delta')/m."""
    # apart from i_max the thresholds depend on (delta', u) alone, which
    # ``reliable`` shares between all records of a scanned point
    stages = [(1 << i, u * math.log(2.0 * (1 << i) / delta_prime) / (1 << i))
              for i in range(3, i_max + 1)]
    # A running mean is at most 1.0, so a stage with threshold >= 1 cannot
    # stop the loop; the thresholds fall with m, so dropping those stages
    # merges their draws into the first stage that can (or into the last).
    return tuple([stage for stage in stages if stage[1] < 1.0] or stages[-1:])


def _stage_loop(ones_in: Callable[[int], int], epsilon_o: float, delta_prime: float,
                u: int) -> BerEstResult:
    """The doubling-stage loop shared by every estimator here; ``ones_in(n)``
    returns the number of ones among ``n`` more draws."""
    ones = m = 0
    # u >= 7 and eps_o, delta' < 1 give K > 28*log(56), so i_max >= 5: never empty
    i_max = ber_est_max_stage(epsilon_o, delta_prime, u)
    for target, threshold in _thresholds(delta_prime, u, i_max):
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
            raise SamplerExhausted(
                f"sampler returned {out.shape} for a request of {count} draws")
        return int(np.count_nonzero(out))

    return _stage_loop(ones_in, epsilon_o, delta_prime, u)


def est_prob(in_ball: int, w: int, epsilon_o: float, u: int, delta_prime: float,
             rng: np.random.Generator) -> BerEstResult:
    """Estimate the pool-empirical mass in_ball / w of a ball that holds
    ``in_ball`` of the ``w`` pool points.

    The caller counts the ball; this runs the stage loop on Binomial(n,
    in_ball / w) draws and nothing else.  numpy's ``binomial`` rejects a
    count outside [0, w].  An empty ball returns p_hat 0.0 at the last stage,
    2^i_max draws, without drawing: Binomial(n, 0) is 0 and leaves the
    generator as it was, so the result and the stream are the loop's, and
    no draw of 2^63 or more (an ``i_max`` of a tiny ``epsilon_o``) reaches
    numpy.
    """
    if in_ball == 0:
        return BerEstResult(0.0, 1 << ber_est_max_stage(epsilon_o, delta_prime, u), False)
    p = in_ball / w
    return _stage_loop(lambda n: int(rng.binomial(n, p)), epsilon_o, delta_prime, u)


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
    return est_prob(int(np.count_nonzero(d2 < r2)), d2.shape[0], epsilon_o, u,
                    delta_prime, rng)
