import numpy as np
import pytest
from scipy.integrate import quad

from hdshrink.errors import DimensionError, DomainError, RegimeError
from hdshrink.linalg import sample_covariance
from hdshrink.mpkernel import (
    check_spectrum,
    identity_mp_oracle,
    kernel_matrix,
    lw_curve,
    semicircle_kernel,
)

from conftest import pv_of_kernel_density, pv_of_semicircle

PHI = 0.2
OUTSIDE = (0.05, 0.2, 2.3, 3.0, 5.0, 10.0)  # support at PHI: [0.3056, 2.0944]


def stieltjes_hw(x, eps):
    """Re m(x + i eps) / pi for the identity model's Stieltjes transform m,
    the root of phi z m^2 - (1 - phi - z) m + 1 = 0 in the upper half-plane.
    Inside the support eps = 0 gives the conjugate pair; outside it a tiny
    eps picks the branch, off by O(eps^2)."""
    z = complex(x, eps)
    roots = np.roots([PHI * z, -(1 - PHI - z), 1.0])
    return roots[np.argmax(roots.imag)].real / np.pi


def density_at(lam, n, x):
    """Kernel density estimate at x: column means of kernel_matrix."""
    return kernel_matrix(lam, n, x)[0].mean(axis=0)


def hilbert_at(lam, n, x):
    """Kernel estimate of the density's Hilbert transform at x."""
    return kernel_matrix(lam, n, x)[1].mean(axis=0)


class TestSemicircleKernel:
    def test_at_zero(self):
        k, K = semicircle_kernel(0.0)
        assert k == pytest.approx(1.0 / np.pi, abs=1e-15)
        assert K == 0.0

    def test_at_edge(self):
        k, K = semicircle_kernel(2.0)
        assert k == 0.0
        assert K == pytest.approx(-1.0 / np.pi, abs=1e-15)

    def test_outside_support(self):
        k, K = semicircle_kernel(3.0)
        assert k == 0.0
        assert K == pytest.approx((-3.0 + np.sqrt(5.0)) / (2 * np.pi), abs=1e-15)

    def test_support_and_oddness(self):
        xs = np.linspace(-5, 5, 101)
        k, K = semicircle_kernel(xs)
        assert np.all(k >= 0)
        assert np.all(k[np.abs(xs) > 2] == 0)
        k2, K2 = semicircle_kernel(-xs)
        assert np.allclose(K, -K2)


class TestDensityEstimate:
    def test_single_eigenvalue_peak(self):
        assert density_at([1.0], 1000, 1.0)[0] == pytest.approx(
            10.0 / np.pi, rel=1e-12
        )

    def test_zero_outside_kernel_support(self):
        lam = np.array([1.0, 2.0])
        delta = 1000 ** (-1 / 3)
        assert density_at(lam, 1000, 2.0 * (1 + 3 * delta))[0] == 0.0
        assert density_at(lam, 1000, 1.0 * (1 - 3 * delta))[0] == 0.0

    def test_integrates_to_one(self, identity_fit):
        X, spec, _ = identity_fit
        lam, n = spec.eigenvalues, X.shape[1]
        delta = n ** (-1 / 3)
        step = delta * lam.min() / 20
        grid = np.arange(lam.min() * (1 - 2 * delta), lam.max() * (1 + 2 * delta), step)
        w = density_at(lam, n, grid)
        total = np.sum(0.5 * (w[1:] + w[:-1]) * step)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(DomainError):
            kernel_matrix([1.0, -0.5], 100, 1.0)

    def test_rejects_empty_spectrum(self):
        with pytest.raises(DimensionError, match="nonempty 1-d vector"):
            check_spectrum([])


class TestHilbertEstimate:
    def test_zero_at_center(self):
        assert hilbert_at([1.0], 1000, 1.0)[0] == 0.0

    def test_single_eigenvalue_tail(self):
        delta = 1000 ** (-1 / 3)
        _, K3 = semicircle_kernel(3.0)
        assert hilbert_at([1.0], 1000, 1.0 + 3 * delta)[0] == pytest.approx(
            10.0 * K3, rel=1e-12
        )

    def test_matches_pv_quadrature_of_density(self, identity_fit):
        X, spec, _ = identity_fit
        lam, n = spec.eigenvalues, X.shape[1]
        delta = n ** (-1 / 3)
        step = delta * lam.min() / 20
        lo = lam.min() * (1 - 2 * delta) - 0.05
        hi = lam.max() * (1 + 2 * delta) + 0.05
        grid = np.arange(lo, hi, step)
        margin = 4 * delta * lam.mean()
        interior = grid[(grid > lam.min() + margin) & (grid < lam.max() - margin)]
        xs = interior[::40]
        hw = hilbert_at(lam, n, xs)
        errs = np.abs(pv_of_kernel_density(lam, n, xs, bound=1e-2) - hw)
        assert errs.max() <= 1e-2


class TestLwCurve:
    def test_identity_data_curve_near_one(self, identity_fit):
        _, _, curve = identity_fit
        assert np.abs(curve.d_tilde - 1.0).mean() <= 0.1

    def test_single_eigenvalue_formula(self):
        # p=1, lam=1, n=1000: denominator (1 - 1/1000)^2 + (pi/1000 * 10/pi)^2
        curve = lw_curve(np.array([1.0]), 1000)
        expected = 1.0 / ((1 - 1e-3) ** 2 + (1e-3 * np.pi * 10 / np.pi) ** 2)
        assert curve.d_tilde[0] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.00190, abs=5e-5)

    def test_strictly_positive(self):
        rng = np.random.default_rng(3)
        lam = np.sort(rng.uniform(0.1, 5.0, 40))
        curve = lw_curve(lam, 200)
        assert np.all(curve.d_tilde > 0)

    def test_requires_p_below_n(self):
        with pytest.raises(RegimeError):
            lw_curve(np.ones(10), 10)

    @pytest.mark.parametrize("p,n", [(200, 300), (800, 1200)])
    def test_one_evaluation_matches_three(self, p, n):
        # Reference: the density and Hilbert estimates from two kernel
        # evaluations, each a mean over the bumps in [point, bump] layout,
        # and the Hilbert matrix from a third; lw_curve's single evaluation
        # must give the same bits.
        rng = np.random.default_rng(p)
        scales = np.geomspace(1.0, 100.0, p)[:, None]
        X = scales * rng.standard_normal((p, n))
        lam = np.linalg.eigvalsh(sample_covariance(X))
        bump = n ** (-1.0 / 3.0) * lam[None, :]
        k_pt, K_pt = semicircle_kernel((lam[:, None] - lam[None, :]) / bump)
        w = (k_pt / bump).mean(axis=1)
        hw = (K_pt / bump).mean(axis=1)
        phi = p / n
        den = (1.0 - phi - phi * np.pi * lam * hw) ** 2 + (phi * np.pi * lam * w) ** 2
        d = lam / np.maximum(den, 1e-12)
        width = n ** (-1.0 / 3.0) * lam[:, None]
        _, K = semicircle_kernel((lam[None, :] - lam[:, None]) / width)
        curve = lw_curve(lam, n)
        assert np.array_equal(curve.w_tilde, w)
        assert np.array_equal(curve.hw_tilde, hw)
        assert np.array_equal(curve.d_tilde, d)
        assert np.array_equal(curve.hilbert_matrix, K / width)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        lam = rng.uniform(0.5, 2.0, 15)
        c1 = lw_curve(lam, 100)
        perm = rng.permutation(15)
        c2 = lw_curve(lam[perm], 100)
        assert np.allclose(c1.d_tilde[perm], c2.d_tilde)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(5)
        lam = rng.uniform(0.5, 2.0, 20)
        c = 3.7
        base = lw_curve(lam, 150)
        scaled = lw_curve(c * lam, 150)
        assert np.allclose(scaled.d_tilde, c * base.d_tilde, rtol=1e-12)


class TestPvHilbert:
    def test_semicircle_closed_form(self):
        for x in (0.0, 1.0, 1.5):
            _, exact = semicircle_kernel(x)
            assert pv_of_semicircle(x) == pytest.approx(exact, abs=1e-3)


class TestIdentityOracle:
    def test_support_endpoints(self):
        oracle = identity_mp_oracle(PHI)
        a, b = oracle.support
        assert a == pytest.approx(0.30557, abs=1e-5)
        assert b == pytest.approx(2.09443, abs=1e-5)

    def test_density_closed_form_value(self):
        oracle = identity_mp_oracle(PHI)
        assert oracle.w(1.0) == pytest.approx(0.6937403133025385, rel=1e-12)

    def test_density_zero_outside(self):
        oracle = identity_mp_oracle(PHI)
        assert oracle.w(0.1) == 0.0
        assert oracle.w(3.0) == 0.0

    def test_density_integrates_to_one(self):
        oracle = identity_mp_oracle(PHI)
        a, b = oracle.support
        total, err = quad(oracle.w, a, b, limit=200)
        assert abs(total - 1.0) <= 1e-6

    def test_delta_is_one_on_support(self):
        oracle = identity_mp_oracle(PHI)
        xs = np.linspace(*oracle.support, 21)
        assert np.abs(oracle.delta(xs) - 1.0).max() <= 1e-14

    def test_hilbert_transform_closed_form(self):
        # pi * Hw(x) = (1 - phi - x) / (2 phi x) inside the support
        oracle = identity_mp_oracle(PHI)
        a, b = oracle.support
        xs = np.linspace(a + 0.1, b - 0.1, 9)
        exact = (1 - PHI - xs) / (2 * np.pi * PHI * xs)
        assert np.abs(oracle.Hw(xs) - exact).max() <= 1e-15

    def test_hilbert_transform_outside_support(self):
        # Exact off the support too, far past the edges included.
        oracle = identity_mp_oracle(PHI)
        for x in OUTSIDE:
            assert oracle.Hw(x) == pytest.approx(stieltjes_hw(x, 1e-9), abs=1e-12)

    def test_consistent_with_stieltjes_equation(self):
        # The self-consistent equation for the identity model reduces to
        # phi z m^2 - (1 - phi - z) m + 1 = 0; the transform at x + i0
        # has real part pi * Hw(x).
        oracle = identity_mp_oracle(PHI)
        a, b = oracle.support
        for x in np.linspace(a + 0.2, b - 0.2, 5):
            assert oracle.Hw(x) == pytest.approx(stieltjes_hw(x, 0.0), abs=1e-12)

    def test_rejects_bad_phi(self):
        with pytest.raises(DomainError):
            identity_mp_oracle(1.2)
        with pytest.raises(DomainError):
            identity_mp_oracle(0.0)


class TestDeltaCurve:
    def test_near_one_inside_support(self):
        oracle = identity_mp_oracle(PHI)
        a, b = oracle.support
        xs = np.linspace(a + 0.05, b - 0.05, 15)
        assert np.abs(oracle.delta(xs) - 1.0).max() <= 1e-14

    def test_outside_support_reduction(self):
        # w = 0 off the support, so delta = x / (1 - phi - pi phi x Hw)^2
        oracle = identity_mp_oracle(PHI)
        for x in OUTSIDE:
            hw = stieltjes_hw(x, 1e-9)
            expected = x / (1 - PHI - np.pi * PHI * x * hw) ** 2
            assert oracle.delta(x) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_consistency_with_lw_curve(self, identity_fit):
        X, _, curve = identity_fit
        oracle = identity_mp_oracle(X.shape[0] / X.shape[1])
        i = int(np.argmin(np.abs(curve.lam - 1.0)))
        assert abs(curve.d_tilde[i] - oracle.delta(curve.lam[i])) <= 0.05

    def test_requires_positive_x(self):
        oracle = identity_mp_oracle(PHI)
        with pytest.raises(DomainError):
            oracle.delta(-1.0)
        with pytest.raises(DomainError):
            oracle.delta(np.array([1.0, 0.0]))
