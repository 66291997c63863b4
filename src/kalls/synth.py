"""Synthetic classification problems with analytic ground truth.

Each family ships an exact regression function eta, the Bayes classifier, an
analytic marginal ball-mass, and certified constants for the three executable
assumptions: smoothness in marginal mass (H3), margin noise (H2) and doubling
of ball masses (H4).  The margin shape is one knob ``kappa``: eta(x) crosses
1/2 like |2F(x)-1|^kappa where F is the marginal CDF, so the same certified
constants cover uniform, Gaussian, discrete and product marginals.

Families are built by name with ``make_problem``; ``FAMILIES`` lists the
names.  A family is a ``SyntheticProblem`` that defines four hooks:
``sample``, ``eta``, ``ball_mass`` and ``doubling_grid``.  A one-dimensional
family is a ``sample``, a ``cdf`` F, a doubling grid and its constants:
eta = e(F(x)) and the ball mass F(x + r) - F(x - r) are written once, in
``_Marginal1D``.  Discrete atoms count the atoms in their open ball instead.

kappa = 0 is the noiseless limit (eta in {0, 1} off the boundary); it has no
valid smoothness certificate, so ``certified_smooth`` is None there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import substream
from .thresholds import DoublingParams, MarginParams, SmoothnessParams

@dataclass(frozen=True)
class AssumptionReport:
    assumption: str
    checked: int
    max_violation: float
    passed: bool
    tolerance: float

    def as_dict(self) -> dict:
        mv = self.max_violation
        return {
            "assumption": self.assumption,
            "checked": self.checked,
            "max_violation": mv if math.isfinite(mv) else repr(mv),
            "passed": self.passed,
            "tolerance": self.tolerance,
        }


def _signed_power(v: np.ndarray, kappa: float) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if kappa == 0.0:
        return np.sign(v)
    return np.sign(v) * np.abs(v) ** kappa


def _eta_from_u(u: np.ndarray, kappa: float) -> np.ndarray:
    return 0.5 + 0.5 * _signed_power(2.0 * np.asarray(u, dtype=np.float64) - 1.0, kappa)


def _power_margin_mass(eps: np.ndarray, kappa: float) -> np.ndarray:
    """P(|eta - 1/2| <= eps) when eta = 1/2 + sign(.)|2U-1|^kappa / 2, U uniform."""
    eps = np.asarray(eps, dtype=np.float64)
    if kappa == 0.0:
        return np.where(eps >= 0.5, 1.0, 0.0)
    return np.minimum((2.0 * eps) ** (1.0 / kappa), 1.0)


def _smoothness_L(kappa: float, d: int) -> float:
    """The certified H3 constant L = max(2, K (2 / V_d^(1/d))^alpha), with
    alpha = min(kappa, 1), K = max(kappa, 1) and V_d the volume of the unit
    d-ball; V_1 = 2, so for d = 1 it is max(2, kappa).  H3 reads
    |eta(x) - eta(z)| <= L * mass(B(x, rho))^(alpha/d), rho = |x - z|.

    The link.  With s = 2u - 1, e(u) = 1/2 + sign(s)|s|^kappa / 2.  For
    kappa >= 1 the signed power has slope at most kappa on [-1, 1], so
    |e(u) - e(v)| <= kappa |u - v|.  For kappa < 1 it is kappa-Hoelder with
    constant 2^(1 - kappa) (||s|^k - |t|^k| <= |s - t|^k on one side of 0,
    |s|^k + |t|^k <= 2^(1 - k) (|s| + |t|)^k across it), so
    |e(u) - e(v)| <= |u - v|^kappa.  Either way |e(u) - e(v)| <= K |u - v|^alpha.

    d = 1.  eta = e(u) with u = F(x).  The open ball B(x, rho) holds every
    point from x up to, not including, z, so its mass is at least |u(x) - u(z)|:
    F(x + rho) - F(x - rho) >= |F(z) - F(x)| for a CDF; for atoms j spacings
    apart the ball holds the j atoms from x up to z, of mass j/M, the gap
    between their midpoint CDFs, which eta reads.  So
    |eta(x) - eta(z)| <= K mass^alpha <= L mass^alpha.

    Product, d >= 2.  eta reads x_0 only, so |eta(x) - eta(z)| <= K m^alpha
    with m = min(rho, 1).  The mass of B(x, rho) in the unit cube is smallest
    at a corner: by Fubini along one coordinate at a time, a chord
    [x_i - h, x_i + h] meets [0, 1] in at least min(h, 1), which x_i = 0
    attains.  At the corner the ball holds the orthant part of B(0, m), which
    lies in the cube, so mass >= V_d (m / 2)^d and
    L mass^(alpha/d) >= L (V_d^(1/d) / 2)^alpha m^alpha >= K m^alpha.
    """
    # 2 / V_d^(1/d) = 2 Gamma(d/2 + 1)^(1/d) / sqrt(pi), in logs so that a
    # large d cannot overflow; d = 1 is exact, so L is 2.0 wherever 2 holds
    spread = 1.0 if d == 1 else 2.0 * math.exp(math.lgamma(d / 2 + 1) / d) / math.sqrt(math.pi)
    return max(2.0, max(kappa, 1.0) * spread ** min(kappa, 1.0))


class SyntheticProblem:
    """Base class of the families, which ``make_problem`` builds by name.

    A family sets ``family`` (its name), may set ``certified_doubling``, and
    defines four hooks:

    - ``sample(n, rng=None)``: n points of the marginal as an (n, d) array,
      drawn from ``rng``, else from ``default_rng()``;
    - ``eta(X)``: the regression function at the rows of X;
    - ``ball_mass(centers, radii)``: the analytic marginal mass of open
      Euclidean balls;
    - ``doubling_grid()``: the (centers, radii) pairs that ``check_doubling``
      tests.
    """

    family: str
    certified_doubling: DoublingParams | None = None

    def __init__(self, kappa: float, d: int, seed: int) -> None:
        if not 0.0 <= kappa < math.inf:  # NaN fails both comparisons
            raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
        self.kappa = float(kappa)
        self.d = int(d)
        self.seed = int(seed)
        if self.kappa > 0.0:
            self.certified_smooth = SmoothnessParams(alpha=min(self.kappa, 1.0),
                                                     L=_smoothness_L(self.kappa, self.d),
                                                     d=self.d)
            self.certified_margin = MarginParams(beta=1.0 / self.kappa,
                                                 C=2.0 ** (1.0 / self.kappa))
        else:
            self.certified_smooth = None
            self.certified_margin = MarginParams(beta=1.0, C=2.0)

    # -- shared exact quantities -------------------------------------------
    def bayes(self, X: np.ndarray) -> np.ndarray:
        return (self.eta(X) >= 0.5).astype(np.int64)

    def margin_mass(self, eps: np.ndarray) -> np.ndarray:
        """Exact P(|eta(X) - 1/2| <= eps)."""
        return _power_margin_mass(eps, self.kappa)

    def mean_abs_margin(self) -> float:
        """E|2 eta - 1| = 1 / (kappa + 1); the excess risk of the flipped Bayes rule."""
        return 1.0 / (self.kappa + 1.0)

    def default_rng(self) -> np.random.Generator:
        return substream(self.seed, "points")


def _points_1d(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return X[:, 0] if X.ndim == 2 else X


def _pair_grid(centers: np.ndarray, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (center, radius) pair of the two grids, center-major, the centers
    as rows (a 1-D grid of n centers as an (n, 1) column)."""
    centers = centers.reshape(centers.shape[0], -1)
    return np.repeat(centers, radii.size, axis=0), np.tile(radii, centers.shape[0])


class _Marginal1D(SyntheticProblem):
    """A one-dimensional family: eta = e(F(x)) and the open ball mass
    F(x + r) - F(x - r), with F the marginal CDF ``cdf``."""

    def __init__(self, kappa: float, d: int, seed: int) -> None:
        if d != 1:
            raise ValueError(f"{self.family} is one-dimensional")
        super().__init__(kappa, d, seed)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, 0.0, 1.0)

    def eta(self, X):
        return _eta_from_u(self.cdf(_points_1d(X)), self.kappa)

    def ball_mass(self, centers, radii):
        x = _points_1d(np.atleast_1d(centers))
        r = np.asarray(radii, dtype=np.float64)
        return self.cdf(x + r) - self.cdf(x - r)


class _UniformPowerMargin1D(_Marginal1D):
    family = "power_margin_uniform_1d"
    certified_doubling = DoublingParams(c_db=2.0, mass_floor=1e-9)

    def sample(self, n, rng=None):
        rng = rng or self.default_rng()
        return rng.random((n, 1))

    def doubling_grid(self):
        return _pair_grid(np.linspace(0.0125, 0.9875, 40), np.geomspace(1e-3, 2.0, 25))


class _GaussianPowerMargin1D(_Marginal1D):
    family = "power_margin_gaussian_1d"
    # Doubling fails in deep tails; certified only for balls above the floor,
    # over centers within the (1e-3, 1-1e-3) quantile range.
    certified_doubling = DoublingParams(c_db=16.0, mass_floor=1e-3)

    def sample(self, n, rng=None):
        rng = rng or self.default_rng()
        return rng.standard_normal((n, 1))

    # scipy.special is imported here, not at module load: it is the slowest
    # import of the package and only this family uses it

    def cdf(self, x):
        from scipy.special import ndtr
        return ndtr(x)

    def doubling_grid(self):
        from scipy.special import ndtri
        return _pair_grid(ndtri(np.linspace(1e-3, 1.0 - 1e-3, 40)),
                          np.geomspace(1e-3, 8.0, 25))


class _DiscreteAtoms(_Marginal1D):
    """Uniform on the atoms (k + 1/2)/256.  At an atom the inherited ``cdf``
    gives the midpoint of F's jump there, which is the u that eta reads."""

    family = "discrete_atoms"
    # An even atom count keeps every |2a-1| >= 1/M, giving the clean margin constant.
    n_atoms = 256
    atoms = (np.arange(n_atoms) + 0.5) / n_atoms
    certified_doubling = DoublingParams(c_db=3.0, mass_floor=1e-9)

    def __init__(self, kappa: float, d: int, seed: int) -> None:
        super().__init__(kappa, d, seed)
        if self.kappa > 0.0:
            self.certified_margin = MarginParams(beta=1.0 / self.kappa,
                                                 C=2.0 ** (1.0 + 1.0 / self.kappa))

    def sample(self, n, rng=None):
        rng = rng or self.default_rng()
        return self.atoms[rng.integers(0, self.n_atoms, size=n)][:, None]

    def ball_mass(self, centers, radii):
        x = _points_1d(np.atleast_1d(centers))
        r = np.asarray(radii, dtype=np.float64)
        lo = np.searchsorted(self.atoms, x - r, side="right")
        hi = np.searchsorted(self.atoms, x + r, side="left")
        return np.maximum(hi - lo, 0) / self.n_atoms

    def margin_mass(self, eps):
        # |eta - 1/2| <= eps at the atoms a with |2a - 1| <= v, v the uniform
        # family's margin mass at eps; no atom is 1/2, so v = 0 counts none
        v = _power_margin_mass(eps, self.kappa)
        lo = np.searchsorted(self.atoms, (1.0 - v) / 2.0, side="left")
        hi = np.searchsorted(self.atoms, (1.0 + v) / 2.0, side="right")
        return (hi - lo) / self.n_atoms

    def mean_abs_margin(self):
        return float(np.mean(np.abs(2.0 * self.eta(self.atoms[:, None]) - 1.0)))

    def doubling_grid(self):
        step = max(1, self.n_atoms // 40)
        spacing = 1.0 / self.n_atoms
        return _pair_grid(self.atoms[::step], np.geomspace(0.6 * spacing, 2.0, 25))


def _quarter_disc_area(a: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Area of {u, v >= 0, u <= a, v <= b, u^2 + v^2 <= r^2} for a, b >= 0."""
    a = np.minimum(a, r)
    b = np.minimum(b, r)
    with np.errstate(invalid="ignore", divide="ignore"):
        safe_r = np.where(r > 0.0, r, 1.0)

        def arc_integral(t):
            # integral_0^t sqrt(r^2 - u^2) du for 0 <= t <= r
            t = np.clip(t, 0.0, r)
            return 0.5 * (t * np.sqrt(np.maximum(r * r - t * t, 0.0))
                          + r * r * np.arcsin(np.clip(t / safe_r, 0.0, 1.0)))

        u_b = np.sqrt(np.maximum(r * r - b * b, 0.0))
        flat = b * np.minimum(a, u_b)
        arc = np.maximum(arc_integral(a) - arc_integral(np.minimum(a, u_b)), 0.0)
        area = np.where(r > 0.0, flat + arc, 0.0)
    return area


def _circle_box_area(cx: np.ndarray, cy: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact area of B((cx, cy), r) intersected with the unit square."""
    def q(a, b):
        return np.sign(a) * np.sign(b) * _quarter_disc_area(np.abs(a), np.abs(b), r)

    return (q(1.0 - cx, 1.0 - cy) - q(-cx, 1.0 - cy)
            - q(1.0 - cx, -cy) + q(-cx, -cy))


class _ProductUniformND(SyntheticProblem):
    family = "product_uniform_nd"

    def __init__(self, kappa: float, d: int, seed: int) -> None:
        if d < 2:
            raise ValueError(f"product family needs d >= 2, got {d}; use the 1-d family")
        super().__init__(kappa, d, seed)
        if d == 2:
            self.certified_doubling = DoublingParams(c_db=4.0, mass_floor=1e-9)

    def sample(self, n, rng=None):
        rng = rng or self.default_rng()
        return rng.random((n, self.d))

    def eta(self, X):
        X = np.asarray(X, dtype=np.float64)
        return _eta_from_u(X[:, 0], self.kappa)

    def ball_mass(self, centers, radii):
        if self.d != 2:
            raise NotImplementedError(
                "analytic ball mass for the product family is implemented for d = 2 only")
        c = np.asarray(centers, dtype=np.float64)
        if c.ndim == 1:
            c = c[None, :]
        r = np.asarray(radii, dtype=np.float64)
        return _circle_box_area(c[:, 0], c[:, 1], r)

    def doubling_grid(self):
        g = np.linspace(0.05, 0.95, 7)
        cx, cy = np.meshgrid(g, g, indexing="ij")
        return _pair_grid(np.column_stack([cx.ravel(), cy.ravel()]),
                          np.geomspace(1e-2, 1.6, 20))


_FAMILY_TABLE = {cls.family: cls for cls in (_UniformPowerMargin1D, _GaussianPowerMargin1D,
                                              _DiscreteAtoms, _ProductUniformND)}
FAMILIES = tuple(_FAMILY_TABLE)


def make_problem(family: str, kappa: float = 1.0, d: int = 1,
                 seed: int = 0) -> SyntheticProblem:
    """Factory for the synthetic families; kappa = 0 is the noiseless limit.
    Every family but ``product_uniform_nd`` is one-dimensional, and
    ``discrete_atoms`` has 256 atoms (its ``n_atoms``)."""
    cls = _FAMILY_TABLE.get(family)
    if cls is None:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return cls(kappa, d, seed)


# -- assumption checkers ----------------------------------------------------

_TOLERANCE = 1e-9  # a violation up to this passes: float error, not a failure


def _report(assumption: str, viol: np.ndarray) -> AssumptionReport:
    """The report on the violations ``viol`` of one check; none checked
    gives a max violation of -inf, which passes."""
    max_violation = float(np.max(viol, initial=-np.inf))
    return AssumptionReport(assumption, int(viol.size), max_violation,
                            max_violation <= _TOLERANCE, _TOLERANCE)


def check_smoothness(problem: SyntheticProblem, n_pairs: int = 100_000,
                     rng: np.random.Generator | None = None,
                     smooth: SmoothnessParams | None = None) -> AssumptionReport:
    """Sample point pairs and test |eta(x) - eta(z)| <= L * mass(B(x, rho))^(alpha/d)."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    smooth = smooth if smooth is not None else problem.certified_smooth
    if smooth is None:
        raise ValueError("problem has no certified smoothness constants (noiseless kappa=0)")
    rng = rng or problem.default_rng()
    X = problem.sample(n_pairs, rng)
    Z = problem.sample(n_pairs, rng)
    rho = np.sqrt(np.einsum("ij,ij->i", X - Z, X - Z))
    lhs = np.abs(problem.eta(X) - problem.eta(Z))
    mass = problem.ball_mass(X, rho)
    return _report("H3", lhs - smooth.L * mass ** (smooth.alpha / smooth.d))


def check_margin(problem: SyntheticProblem,
                 margin: MarginParams | None = None) -> AssumptionReport:
    """Test P(|eta - 1/2| <= eps) <= C * eps^beta at 1000 log-spaced eps in
    [1e-4, 1].

    The theory's display is strict "<"; equality is attained by these families,
    so the executable check is the closed "<=" within tolerance.
    """
    margin = margin if margin is not None else problem.certified_margin
    eps_grid = np.geomspace(1e-4, 1.0, 1000)
    return _report("H2", problem.margin_mass(eps_grid) - margin.C * eps_grid ** margin.beta)


def check_doubling(problem: SyntheticProblem,
                   grid: tuple[np.ndarray, np.ndarray] | None = None,
                   doubling: DoublingParams | None = None) -> AssumptionReport:
    """Test mass(B(x, r)) <= c_db * mass(B(x, r/2)) on (x, r) pairs above the floor."""
    doubling = doubling if doubling is not None else problem.certified_doubling
    if doubling is None:
        raise ValueError("problem has no certified doubling constants")
    centers, radii = grid if grid is not None else problem.doubling_grid()
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if centers.shape[0] == 0 or centers.shape[0] != radii.shape[0]:
        raise ValueError("grid must supply matching nonempty centers and radii")
    full = problem.ball_mass(centers, radii)
    half = problem.ball_mass(centers, radii / 2.0)
    eligible = full >= doubling.mass_floor
    return _report("H4", full[eligible] - doubling.c_db * half[eligible])
