from __future__ import annotations

import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from kalls.seeding import substream
from kalls.synth import (_FAMILY_TABLE, FAMILIES, SyntheticProblem, _eta_from_u,
                         check_doubling, check_margin, check_smoothness, make_problem)
from kalls.thresholds import DoublingParams, MarginParams, SmoothnessParams


def all_default_problems():
    return [
        make_problem("power_margin_uniform_1d", kappa=1.0, seed=1),
        make_problem("power_margin_gaussian_1d", kappa=1.0, seed=2),
        make_problem("discrete_atoms", kappa=1.0, seed=3),
        make_problem("product_uniform_nd", kappa=1.0, d=2, seed=4),
    ]


ONE_D_FAMILIES = ["power_margin_uniform_1d", "power_margin_gaussian_1d", "discrete_atoms"]
# the d = 1 families whose marginal has a density, so ball masses are CDF differences
CONTINUOUS_1D = ["power_margin_uniform_1d", "power_margin_gaussian_1d"]


class TestFactory:
    def test_families_construct(self):
        for fam in FAMILIES:
            d = 2 if fam == "product_uniform_nd" else 1
            p = make_problem(fam, kappa=0.5, d=d, seed=0)
            assert p.family == fam

    def test_families_are_the_class_names_in_table_order(self):
        assert FAMILIES == tuple(cls.family for cls in _FAMILY_TABLE.values())
        assert FAMILIES == ("power_margin_uniform_1d", "power_margin_gaussian_1d",
                            "discrete_atoms", "product_uniform_nd")

    @pytest.mark.parametrize("one_d", ONE_D_FAMILIES)
    def test_rejects_bad_arguments(self, one_d):
        with pytest.raises(ValueError):
            make_problem("no_such_family")
        with pytest.raises(ValueError, match=f"{one_d} is one-dimensional"):
            make_problem(one_d, d=2)
        with pytest.raises(ValueError, match=f"^{one_d} is one-dimensional$"):
            make_problem(one_d, kappa=float("nan"), d=2)  # d is checked before kappa
        with pytest.raises(ValueError):
            make_problem("product_uniform_nd", d=1)
        for kappa in (-1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
                make_problem("power_margin_uniform_1d", kappa=kappa)

    @pytest.mark.parametrize("cls", list(_FAMILY_TABLE.values()), ids=FAMILIES)
    def test_every_family_defines_the_hooks(self, cls):
        # the base class has no stubs, so a missing hook would surface only
        # as an AttributeError in a run
        for hook in ("sample", "eta", "ball_mass", "doubling_grid"):
            owner = next((k for k in cls.__mro__ if hook in vars(k)), None)
            assert owner is not None, (cls.family, hook)
            assert owner is not SyntheticProblem and issubclass(owner, SyntheticProblem)

    def test_certified_constants(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        assert p.certified_smooth == SmoothnessParams(alpha=1.0, L=2.0, d=1)
        assert p.certified_margin == MarginParams(beta=1.0, C=2.0)
        assert p.certified_doubling.c_db == 2.0
        half = make_problem("power_margin_uniform_1d", kappa=0.5)
        assert half.certified_margin == MarginParams(beta=2.0, C=4.0)
        # kappa > 1 clamps the certified smoothness exponent to 1
        over = make_problem("power_margin_uniform_1d", kappa=1.5)
        assert over.certified_smooth.alpha == 1.0

    def test_noiseless_has_no_smoothness_certificate(self):
        p = make_problem("power_margin_uniform_1d", kappa=0.0)
        assert p.certified_smooth is None
        eta = p.eta(np.array([[0.2], [0.8], [0.5]]))
        assert list(eta) == [0.0, 1.0, 0.5]


class TestEtaAndBayes:
    def test_uniform_kappa_one_is_identity(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        assert p.eta(np.array([[0.75]]))[0] == pytest.approx(0.75, rel=1e-15)
        assert p.bayes(np.array([[0.75]]))[0] == 1
        assert p.eta(np.array([[0.5]]))[0] == 0.5
        assert p.bayes(np.array([[0.5]]))[0] == 1  # >= 1/2 convention

    def test_uniform_kappa_half_frozen_value(self):
        p = make_problem("power_margin_uniform_1d", kappa=0.5)
        assert p.eta(np.array([[0.875]]))[0] == pytest.approx(0.93301270189221932,
                                                              rel=1e-12)

    def test_gaussian_center_is_half(self):
        for kappa in (0.5, 1.0):
            p = make_problem("power_margin_gaussian_1d", kappa=kappa)
            assert p.eta(np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_eta_is_pure_and_seed_independent(self):
        a = make_problem("power_margin_uniform_1d", kappa=0.7, seed=1)
        b = make_problem("power_margin_uniform_1d", kappa=0.7, seed=999)
        X = substream(1, "points").random((100, 1))
        assert np.array_equal(a.eta(X), b.eta(X))


class TestClosedForms:
    def test_mean_abs_margin_matches_quadrature(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        oracle, _ = quad(lambda x: abs(2 * p.eta(np.array([[x]]))[0] - 1), 0, 1)
        assert p.mean_abs_margin() == pytest.approx(oracle, abs=1e-9)

    def test_bayes_risk_monte_carlo(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        X = p.sample(10**6, substream(5, "points"))
        eta = p.eta(X)
        mc = float(np.mean(np.minimum(eta, 1 - eta)))
        assert abs(mc - 0.25) < 1e-3

    def test_margin_mass_equality_case(self):
        # kappa = 1 uniform attains the margin bound with equality at every eps <= 1/2
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        assert p.margin_mass(np.array([0.25]))[0] == 0.5
        m = p.certified_margin
        assert m.C * 0.25**m.beta == 0.5

    def test_discrete_closed_forms_match_atom_sums(self):
        p = make_problem("discrete_atoms", kappa=0.5)
        eta = p.eta(p.atoms[:, None])
        assert p.mean_abs_margin() == pytest.approx(float(np.mean(np.abs(2 * eta - 1))))

    def test_discrete_kappa_zero_margin_is_a_step_at_one_half(self):
        # at kappa 0 every atom has |eta - 1/2| = 1/2
        p = make_problem("discrete_atoms", kappa=0.0)
        assert p.margin_mass(np.array([0.1, 0.4999, 0.5, 0.7])).tolist() == [0, 0, 1, 1]
        assert check_margin(p).passed


class TestBallMass:
    def test_uniform_interval_clipping(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        assert p.ball_mass(np.array([[0.5]]), np.array([0.1]))[0] == pytest.approx(0.2)
        assert p.ball_mass(np.array([[0.0]]), np.array([0.3]))[0] == pytest.approx(0.3)
        assert p.ball_mass(np.array([[0.5]]), np.array([2.0]))[0] == 1.0

    def test_discrete_open_ball_counts(self):
        p = make_problem("discrete_atoms", kappa=1.0)
        assert p.atoms.size == 256
        # atoms at (k + 1/2)/256, dyadic and so exact; the open ball of radius
        # 1/256 around an atom holds only itself
        c = p.atoms[3:4, None]
        assert p.ball_mass(c, np.array([1.0 / 256.0]))[0] == 1.0 / 256.0
        assert p.ball_mass(c, np.array([0.0]))[0] == 0.0

    def test_gaussian_mass_is_cdf_difference(self):
        from scipy.special import ndtr
        p = make_problem("power_margin_gaussian_1d", kappa=1.0)
        got = p.ball_mass(np.array([[0.3]]), np.array([1.1]))[0]
        assert got == pytest.approx(float(ndtr(1.4) - ndtr(-0.8)), rel=1e-12)

    def test_product_circle_box_against_quadrature(self):
        p = make_problem("product_uniform_nd", kappa=1.0, d=2)
        rng = substream(6, "points")
        for _ in range(5):
            cx, cy = rng.random(2)
            r = 0.05 + rng.random() * 1.2

            def width(t):
                h = np.sqrt(max(r * r - (t - cx) ** 2, 0.0))
                return max(min(cy + h, 1.0) - max(cy - h, 0.0), 0.0)

            lo, hi = max(cx - r, 0.0), min(cx + r, 1.0)
            oracle = quad(width, lo, hi, limit=400)[0] if hi > lo else 0.0
            got = p.ball_mass(np.array([[cx, cy]]), np.array([r]))[0]
            assert got == pytest.approx(oracle, abs=1e-7)

    def test_product_needs_d2_for_mass(self):
        p = make_problem("product_uniform_nd", kappa=1.0, d=3)
        with pytest.raises(NotImplementedError):
            p.ball_mass(np.array([[0.5, 0.5, 0.5]]), np.array([0.1]))


class TestFamilyLaws:
    """A d = 1 family is its ``sample`` and its marginal CDF ``cdf``: eta reads
    u = F(x) and an open ball has mass F(x + r) - F(x - r)."""

    # centres inside and outside the uniform support and in the Gaussian tails
    CENTERS = np.concatenate([np.linspace(-2.0, 3.0, 51), [-9.0, 9.0]])
    RADII = np.array([0.0, 1e-3, 0.05, 0.3, 1.0, 4.0])

    def grid(self):
        cc, rr = np.meshgrid(self.CENTERS, self.RADII, indexing="ij")
        return cc.reshape(-1, 1), rr.ravel()

    @pytest.mark.parametrize("family", CONTINUOUS_1D)
    def test_ball_mass_is_the_cdf_difference(self, family):
        p = make_problem(family, kappa=1.0)
        c, r = self.grid()
        got = p.ball_mass(c, r)
        want = p.cdf(c[:, 0] + r) - p.cdf(c[:, 0] - r)
        assert np.array_equal(got, want)
        assert np.all(got[r == 0.0] == 0.0)

    def test_uniform_mass_is_the_clipped_interval_length(self):
        # the interval length min(x + r, 1) - max(x - r, 0), clipped to [0, 1]
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        c, r = self.grid()
        x = c[:, 0]
        want = np.clip(np.minimum(x + r, 1.0) - np.maximum(x - r, 0.0), 0.0, 1.0)
        assert np.array_equal(p.ball_mass(c, r), want)

    @pytest.mark.parametrize("family", ONE_D_FAMILIES)
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0])
    def test_eta_reads_the_cdf(self, family, kappa):
        p = make_problem(family, kappa=kappa)
        X = np.concatenate([p.sample(1000, substream(14, "points")), self.CENTERS[:, None]])
        assert np.array_equal(p.eta(X), _eta_from_u(p.cdf(X[:, 0]), kappa))

    @pytest.mark.parametrize("family", CONTINUOUS_1D)
    def test_sample_follows_the_cdf(self, family):
        p = make_problem(family, kappa=1.0)
        X = p.sample(20_000, substream(13, "points"))
        assert X.shape == (20_000, 1)
        assert kstest(X[:, 0], p.cdf).pvalue > 1e-3

    def test_atom_cdf_is_the_midpoint_of_its_jump(self):
        p = make_problem("discrete_atoms", kappa=1.0)
        k = np.arange(p.n_atoms)
        assert np.array_equal(p.cdf(p.atoms), p.atoms)
        assert np.array_equal(p.atoms, (k / p.n_atoms + (k + 1) / p.n_atoms) / 2.0)


class TestCheckers:
    def test_all_families_pass_at_certified_constants(self):
        for p in all_default_problems():
            r3 = check_smoothness(p, n_pairs=20_000, rng=substream(7, "points"))
            r2 = check_margin(p)
            r4 = check_doubling(p)
            assert r3.passed and r2.passed and r4.passed, (p.family, r3, r2, r4)

    def test_degenerate_pair_contributes_nothing(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        viol = abs(p.eta(np.array([[0.3]])) - p.eta(np.array([[0.3]])))[0]
        assert viol == 0.0

    def test_planted_smoothness_failure(self):
        # L' = 0.4 on the kappa=1 uniform family: any interior pair violates,
        # e.g. x=0.2, z=0.8 gives |eta diff| = 0.6 > 0.4 * mass(B(x, 0.6)) = 0.36
        from types import SimpleNamespace
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        report = check_smoothness(p, n_pairs=5000, rng=substream(8, "points"),
                                  smooth=SimpleNamespace(alpha=1.0, L=0.4, d=1))
        assert not report.passed
        assert report.max_violation > 0

    def test_planted_margin_failure(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        report = check_margin(p, margin=MarginParams(beta=1.0, C=1.0))
        assert not report.passed
        assert report.max_violation > 0

    def test_planted_doubling_failure(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        report = check_doubling(p, doubling=DoublingParams(c_db=1.5))
        assert not report.passed

    def test_uniform_interior_ratio_is_exactly_two(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        full = p.ball_mass(np.array([[0.5]]), np.array([0.2]))[0]
        half = p.ball_mass(np.array([[0.5]]), np.array([0.1]))[0]
        assert full == pytest.approx(2.0 * half, rel=1e-12)

    def test_gaussian_deep_tail_pair_is_exempt(self):
        p = make_problem("power_margin_gaussian_1d", kappa=1.0)
        grid = (np.array([[5.0]]), np.array([0.2]))
        assert p.certified_doubling.mass_floor == 1e-3
        report = check_doubling(p, grid=grid)
        assert report.checked == 0
        assert report.passed
        assert report.max_violation == float("-inf")
        assert report.as_dict()["max_violation"] == "-inf"

    def test_input_checks(self):
        p = make_problem("power_margin_uniform_1d", kappa=1.0)
        with pytest.raises(ValueError, match="^n_pairs must be >= 1$"):
            check_smoothness(p, n_pairs=0)
        with pytest.raises(ValueError, match="^grid must supply matching nonempty centers "
                                             "and radii$"):
            check_doubling(p, grid=(np.zeros((3, 1)), np.ones(2)))
        # the product family certifies doubling at d = 2 only
        with pytest.raises(ValueError, match="^problem has no certified doubling constants$"):
            check_doubling(make_problem("product_uniform_nd", kappa=1.0, d=3))

    def test_kappa_zero_margin_certificate_holds(self):
        p = make_problem("power_margin_uniform_1d", kappa=0.0)
        assert check_margin(p).passed
        with pytest.raises(ValueError):
            check_smoothness(p, n_pairs=10)


class TestSmoothnessCertificate:
    """The certified L = max(2, max(kappa, 1) (2 / V_d^(1/d))^alpha) of
    ``synth._smoothness_L``, alpha = min(kappa, 1), V_d the unit ball's volume."""

    @staticmethod
    def h3_violation(p, rho, smooth=None):
        # x at the corner 0 of the support, z at rho along the axis eta reads:
        # the ball about x is lightest there, and eta moves fastest
        smooth = smooth or p.certified_smooth
        x = np.zeros((1, p.d))
        z = x.copy()
        z[0, 0] = rho
        mass = p.ball_mass(x, np.array([rho]))[0]
        return abs(p.eta(x) - p.eta(z))[0] - smooth.L * mass ** (smooth.alpha / smooth.d)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("rho", [1e-4, 0.01, 0.3, 1.0])
    @pytest.mark.parametrize("family, d", [("power_margin_uniform_1d", 1),
                                           ("product_uniform_nd", 2)])
    def test_worst_case_pairs_hold(self, family, d, rho, kappa):
        p = make_problem(family, kappa=kappa, d=d)
        assert self.h3_violation(p, rho) <= 1e-9

    @pytest.mark.parametrize("family, kappa, d, violation", [
        ("power_margin_uniform_1d", 3.0, 1, 0.0094),   # 0.0294 against 0.02
        ("product_uniform_nd", 2.0, 2, 0.0021),        # 0.0198 against 0.0177
    ])
    def test_the_pairs_break_l_two(self, family, kappa, d, violation):
        # the same pairs at rho 0.01 fail at L = 2, the constant certified before
        p = make_problem(family, kappa=kappa, d=d)
        two = SmoothnessParams(alpha=p.certified_smooth.alpha, L=2.0, d=d)
        assert self.h3_violation(p, 0.01, two) == pytest.approx(violation, abs=1e-4)

    @pytest.mark.parametrize("family, d, kappa", [
        *((f, 1, k) for f in ONE_D_FAMILIES for k in (3.0, 5.0, 100.0)),
        ("product_uniform_nd", 2, 2.0), ("product_uniform_nd", 2, 3.0)])
    def test_sampled_pairs_pass(self, family, d, kappa):
        p = make_problem(family, kappa=kappa, d=d)
        report = check_smoothness(p, n_pairs=20_000, rng=substream(7, "points"))
        assert report.passed, report

    @pytest.mark.parametrize("family, d, kappa", [
        *((f, 1, k) for f in ONE_D_FAMILIES for k in (0.5, 1.0, 2.0)),
        *(("product_uniform_nd", d, k) for d in (2, 3) for k in (0.5, 1.0))])
    def test_l_is_exactly_two_where_two_holds(self, family, d, kappa):
        assert make_problem(family, kappa=kappa, d=d).certified_smooth.L == 2.0

    def test_l_past_two(self):
        def L(kappa, d):
            family = "power_margin_uniform_1d" if d == 1 else "product_uniform_nd"
            return make_problem(family, kappa=kappa, d=d).certified_smooth.L

        assert L(3.0, 1) == 3.0 and L(100.0, 1) == 100.0
        assert L(2.0, 2) == pytest.approx(4.0 / np.sqrt(np.pi), rel=1e-14)
        # V_13 < 1: from d = 13 on, L passes 2 at kappa 1
        assert L(1.0, 12) == 2.0
        assert L(1.0, 13) == pytest.approx(2.0145, abs=1e-4)
        assert np.isfinite(L(1.0, 100_000))


# (checked, max_violation) of check_smoothness (20,000 pairs from one fixed
# substream), check_margin and check_doubling at the certified constants, as
# they were when recorded.  A change to a family's eta, ball mass or doubling
# grid that claims the same floats must leave them as they are.
PINNED_CHECKS = {
    ("power_margin_uniform_1d", 0.5, 1): (
        (20000, -0.012650529986756765), (1000, 0.0), (1000, 2.220446049250313e-16)),
    ("power_margin_uniform_1d", 1.0, 1): (
        (20000, -6.0161633842703566e-05), (1000, 0.0), (1000, 2.220446049250313e-16)),
    ("power_margin_gaussian_1d", 0.5, 1): (
        (20000, -0.022089302459765037), (1000, 0.0), (890, -0.007040954788644527)),
    ("power_margin_gaussian_1d", 1.0, 1): (
        (20000, -0.0001840137055056923), (1000, 0.0), (890, -0.007040954788644527)),
    ("discrete_atoms", 0.5, 1): ((20000, 0.0), (1000, -8e-08), (1075, 0.0)),
    ("discrete_atoms", 1.0, 1): ((20000, 0.0), (1000, -4.624658472177773e-05), (1075, 0.0)),
    ("product_uniform_nd", 1.0, 2): (
        (20000, -0.005042046799023733), (1000, 0.0), (980, 0.0)),
}


@pytest.mark.parametrize("family, kappa, d", list(PINNED_CHECKS))
def test_assumption_checks_are_pinned(family, kappa, d):
    p = make_problem(family, kappa=kappa, d=d, seed=0)
    reports = (check_smoothness(p, n_pairs=20_000, rng=substream(12, "points")),
               check_margin(p), check_doubling(p))
    assert all(r.passed for r in reports)
    assert tuple((r.checked, r.max_violation) for r in reports) == PINNED_CHECKS[family, kappa, d]


class TestSampling:
    def test_unknown_rng_role_is_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "unknown rng role 'labels'; expected one of ['estimation', 'evaluation', "
                "'oracle', 'passive', 'points', 'pool']")):
            substream(1, "labels")

    def test_reproducible_streams(self):
        p = make_problem("power_margin_gaussian_1d", kappa=1.0, seed=5)
        a = p.sample(100, substream(9, "points"))
        b = p.sample(100, substream(9, "points"))
        assert np.array_equal(a, b)

    def test_discrete_samples_are_atoms(self):
        p = make_problem("discrete_atoms", kappa=1.0)
        X = p.sample(500, substream(10, "points"))
        assert set(np.unique(X)).issubset(set(p.atoms))

    def test_product_shape(self):
        p = make_problem("product_uniform_nd", kappa=1.0, d=5)
        X = p.sample(64, substream(11, "points"))
        assert X.shape == (64, 5)
        assert p.eta(X).shape == (64,)
