"""Adaptive Bernoulli-mean estimation and pool-based ball-mass estimation.

``ber_est`` estimates the mean of a {0,1} stream by doubling the sample size and
stopping early once the running mean clears a logarithmic threshold.
``est_prob`` applies it to the indicator of an open ball, drawing pool points
uniformly with replacement, to estimate the pool-empirical mass of the ball.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pool import sq_dists


class SamplerExhausted(RuntimeError):
    """The draw source could not supply the requested number of samples."""


@dataclass(frozen=True)
class BerEstResult:
    p_hat: float
    draws_used: int
    terminated_early: bool


def g_factor(t: int) -> float:
    """Dichotomy slack g(t) = 1 + 8/(3t) + sqrt(2/t); in (1, 2) for t >= 7."""
    if t < 7:
        raise ValueError(f"t must be >= 7, got {t}")
    return 1.0 + 8.0 / (3.0 * t) + math.sqrt(2.0 / t)


def _validate_ber_est_params(epsilon_o: float, delta_prime: float, u: int) -> None:
    if not 0.0 < epsilon_o < 1.0:
        raise ValueError(f"epsilon_o must be in (0, 1), got {epsilon_o}")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError(f"delta_prime must be in (0, 1), got {delta_prime}")
    if u < 7:
        raise ValueError(f"u must be >= 7, got {u}")


def ber_est_max_stage(epsilon_o: float, delta_prime: float, u: int) -> int:
    """Largest doubling stage index i (sample size 2^i) the loop may reach."""
    _validate_ber_est_params(epsilon_o, delta_prime, u)
    big_k = (4.0 * u / epsilon_o) * math.log(8.0 * u / (delta_prime * epsilon_o))
    return math.floor(math.log2(u * math.log(2.0 * big_k / delta_prime) / epsilon_o))


_PROBE_BLOCK = 8192     # coalesce small doubling stages into one draw request
_MAX_BLOCK = 2_097_152  # cap single draw requests to bound memory


def ber_est(sampler: Callable[[int], np.ndarray], epsilon_o: float,
            delta_prime: float, u: int) -> BerEstResult:
    """Adaptive estimate of the mean of an i.i.d. {0,1} draw source.

    Draws 4 samples, then doubles the sample size m = 2^i for i = 3 .. i_max,
    i_max = floor(log2(u*log(2K/delta')/epsilon_o)) with
    K = (4u/epsilon_o)*log(8u/(delta'*epsilon_o)), breaking as soon as the
    running mean exceeds u*log(2m/delta')/m.  The returned p_hat is the exact
    dyadic average of the first ``draws_used`` samples.

    For speed the stages up to ``_PROBE_BLOCK`` are drawn as one block and the
    stage means are read off its cumulative sum; every stage mean and the break
    decision use exactly the draw prefix a stage-by-stage loop would see, so up
    to ``_PROBE_BLOCK - 1`` draws beyond ``draws_used`` may be consumed and
    ignored.
    """
    _validate_ber_est_params(epsilon_o, delta_prime, u)
    i_max = ber_est_max_stage(epsilon_o, delta_prime, u)

    def draw(count: int) -> np.ndarray:
        out = np.asarray(sampler(count))
        if out.shape != (count,):
            raise SamplerExhausted(
                f"sampler returned {out.shape} for a request of {count} draws")
        return out

    if i_max < 3:
        ones = int(np.count_nonzero(draw(4)))
        return BerEstResult(p_hat=ones / 4.0, draws_used=4, terminated_early=False)

    last = 2**i_max
    probe = min(last, _PROBE_BLOCK)
    csum = np.cumsum(draw(probe), dtype=np.int64)
    stages = [2**i for i in range(3, i_max + 1)]
    for m in stages:
        if m > probe:
            break
        ones = int(csum[m - 1])
        if ones / m > u * math.log(2.0 * m / delta_prime) / m:
            return BerEstResult(p_hat=ones / m, draws_used=m, terminated_early=True)
    if probe >= last:
        ones = int(csum[last - 1])
        return BerEstResult(p_hat=ones / last, draws_used=last, terminated_early=False)

    ones = int(csum[-1])
    m = probe
    for target in stages:
        if target <= probe:
            continue
        need = target - m
        while need:
            chunk = min(need, _MAX_BLOCK)
            ones += int(np.count_nonzero(draw(chunk)))
            need -= chunk
        m = target
        if ones / m > u * math.log(2.0 * m / delta_prime) / m:
            return BerEstResult(p_hat=ones / m, draws_used=m, terminated_early=True)
    return BerEstResult(p_hat=ones / last, draws_used=last, terminated_early=False)


def _indicator_sampler(d2: np.ndarray, r2: float,
                       rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    w = d2.shape[0]

    def draw(count: int) -> np.ndarray:
        return d2[rng.integers(0, w, size=count)] < r2

    return draw


def pool_ball_sampler(points: np.ndarray, center: np.ndarray, radius: float,
                      rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """Draw source emitting 1 when a uniformly drawn pool point lies in the
    open ball around ``center``; membership is tested on squared distances."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    d2 = sq_dists(pts, center)[0]
    return _indicator_sampler(d2, float(radius) * float(radius), rng)


def est_prob(points: np.ndarray, center: np.ndarray, radius: float, epsilon_o: float,
             u: int, delta_prime: float, rng: np.random.Generator) -> BerEstResult:
    """Estimate the pool-empirical mass of the open ball B(center, radius)."""
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return ber_est(pool_ball_sampler(points, center, radius, rng),
                   epsilon_o, delta_prime, u)


def est_prob_from_sq_dists(d2: np.ndarray, radius: float, epsilon_o: float,
                           u: int, delta_prime: float,
                           rng: np.random.Generator) -> BerEstResult:
    """``est_prob`` for callers that precomputed the squared distances to the pool."""
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    return ber_est(_indicator_sampler(d2, float(radius) * float(radius), rng),
                   epsilon_o, delta_prime, u)
