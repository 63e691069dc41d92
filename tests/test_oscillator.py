import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import eval_genlaguerre, gammaln

from fluxcoupler import oscillator
from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.oscillator import (_margin, _quadrature, cosine_matrix,
                                    displaced_overlap, find_well_minimum,
                                    ladder, qubit_reduction)
from toys import (brentq_well_minimum, displacement_matrix, memo_free_cosine,
                  quadrature_cosine)


# ---------------------------------------------------------------- oracles

def _hermite_psi(n, x):
    """Harmonic-oscillator eigenfunction (unit mass and frequency)."""
    # psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi))
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    Hn = np.polynomial.hermite.hermval(x, coeffs)
    lognorm = 0.5 * (n * np.log(2.0) + gammaln(n + 1)) + 0.25 * np.log(np.pi)
    return Hn * np.exp(-0.5 * x * x - lognorm)


def _overlap_quadrature(M, N, d):
    """<M_-|N_+> by Gauss-Hermite quadrature.

    d is the coherent displacement amplitude, so the wells sit at position
    -+ d/sqrt(2) in natural oscillator units (separation sqrt(2) d).
    """
    x, w = hermgauss(220)
    shift = d / np.sqrt(2.0)
    # absorb the Gaussian weight of the quadrature rule
    f = (_hermite_psi(M, x + shift) * _hermite_psi(N, x - shift)
         * np.exp(x * x))
    return float(np.sum(w * f))


def _cosine_series(n, r, order=60):
    """cos(r(a+a^dag)) by Taylor series in an enlarged space."""
    big = n + 4 * order
    a = ladder(big)
    phi = r * (a + a.T)
    term = np.eye(big)
    cos_m = np.zeros((big, big))
    for k in range(order):
        if k % 4 == 0:
            cos_m += term
        elif k % 4 == 2:
            cos_m -= term
        term = term @ phi / (k + 1)
    return cos_m[:n, :n]


def _minimum_bisection(beta, alpha=0.0):
    """Root of (1+alpha^2) phi - beta sin(phi) on (0, pi) by plain bisection."""
    c = 1.0 + alpha**2
    lo, hi = 1e-12, np.pi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if c * mid - beta * np.sin(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------ tests

def test_ladder_commutator():
    a = ladder(30)
    c = a @ a.T - a.T @ a
    # [a, a^dag] = 1 except the unavoidable top-corner truncation artifact
    assert np.allclose(c[:29, :29], np.eye(29))


def test_displacement_unitary_up_to_truncation():
    D = displacement_matrix(60, 0.3)
    prod = D.conj().T @ D
    assert np.allclose(prod[:40, :40], np.eye(40), atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 13, 60])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.3, 0.55, 1.3])
def test_displacement_matrix_against_scalar_laguerre(n, r):
    # the closed form with one scalar eval_genlaguerre call per element
    want = np.empty((n, n), dtype=complex)
    for m in range(n):
        for k in range(n):
            lo, hi = min(m, k), max(m, k)
            amp = float(lo == hi) if r == 0.0 else np.exp(
                0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
                + (hi - lo) * np.log(r) - r * r / 2.0)
            want[m, k] = ((1j) ** (hi - lo) * amp
                          * eval_genlaguerre(lo, hi - lo, r * r))
    np.testing.assert_allclose(displacement_matrix(n, r), want, rtol=1e-13,
                               atol=0)


@pytest.mark.parametrize("r", [0.0, 0.05, 0.3, 1.2])
def test_cosine_matrix_against_series(r):
    got = cosine_matrix(12, r)
    want = _cosine_series(12, r)
    assert np.allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("n", [2, 3, 4, 13, 40, 50, 60, 80, 90, 180])
@pytest.mark.parametrize("r", [0.0, 1e-40, 0.05, 0.2, 0.31, 0.55, 1.3, 3.3,
                               7.5])
def test_cosine_matrix_is_bit_identical_to_the_displacement_form(n, r):
    # the quadrature against the Hermitian part of the closed-form
    # displacement elements, to 1e-13 (the name predates the quadrature,
    # which keeps the closed form's bits only at r = 0)
    E = displacement_matrix(n, r)
    want = ((E + E.conj().T) / 2.0).real
    got = cosine_matrix(n, r)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    if r == 0.0:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 13, 50, 180, 400])
@pytest.mark.parametrize("r", [0.1, 0.55, 1.5, 3.0, 7.5])
def test_quadrature_margin_is_converged(n, r):
    # the margin rule's quadrature against one on 60 more levels; a fixed
    # margin of 20 is off by 0.11 at n = 180, r = 1.5
    want = quadrature_cosine(n, r, n + _margin(n, r) + 60)
    np.testing.assert_allclose(cosine_matrix(n, r), want, rtol=0,
                               atol=1e-13)


@pytest.mark.usefixtures("cold_memos")
def test_cosine_matrix_keeps_its_bits_at_interleaved_truncations():
    # the per-size memo serves each n its own decomposition: n = 50 again
    # after 40 and 13, every call with an r not seen before, and the two
    # n = 50 calls share one size
    for n, r in ((50, 0.31), (40, 0.43), (13, 0.77), (50, 0.29)):
        got = cosine_matrix(n, r)
        assert got.shape == (n, n)
        assert got.tobytes() == memo_free_cosine(n, r).tobytes()
    assert cosine_matrix.cache_info().misses == 4
    assert _quadrature.cache_info().misses == 3


def test_cosine_matrix_hermitian_and_real():
    C = cosine_matrix(25, 0.22)
    assert C.dtype == np.float64
    assert np.allclose(C, C.T)


def test_cosine_matrix_parity_selection():
    # cos is even in phi, so odd |m-n| elements vanish
    C = cosine_matrix(14, 0.37)
    m, n = np.meshgrid(np.arange(14), np.arange(14), indexing="ij")
    assert np.allclose(C[(m + n) % 2 == 1], 0.0, atol=1e-14)


def test_cosine_matrix_input_validation():
    with pytest.raises(ValueError):
        cosine_matrix(1, 0.1)
    with pytest.raises(ValueError):
        cosine_matrix(10, -0.1)
    for r in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            cosine_matrix(6, r)


@pytest.mark.parametrize("beta,alpha", [(1.1, 0.0), (1.1, 0.049),
                                        (1.5, 0.0), (2.5, 0.1)])
def test_well_minimum_against_bisection(beta, alpha):
    got = find_well_minimum(beta, alpha)
    want = _minimum_bisection(beta, alpha)
    assert got == pytest.approx(want, abs=1e-9)
    c = 1.0 + alpha**2
    assert abs(c * got - beta * np.sin(got)) < 1e-12


def _root_tolerance(beta, alpha, phi):
    """1e-15 beta / |f'(phi)|: how far rounding of f = c phi - beta sin(phi),
    a few 1e-16 beta, lets two roots of f lie apart."""
    return 1e-15 * beta / abs(1.0 + alpha**2 - beta * np.cos(phi))


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.049, 0.1, 0.3])
def test_well_minimum_is_bit_identical_to_scipy_brentq(alpha):
    # Newton's root against scipy's brentq within rounding of f (the name
    # predates Newton's method, which does not keep brentq's bits); near the
    # threshold f' is small and both roots give f = 0 apart by 2e-8
    c = 1.0 + alpha**2
    betas = np.concatenate([[1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3, 1.02],
                            np.linspace(1.0, 3.0, 401)[1:]])
    betas = betas[betas / c > 1.0]
    for b in betas:
        got = find_well_minimum(b, alpha)
        want = brentq_well_minimum(b, alpha)
        assert abs(got - want) <= _root_tolerance(b, alpha, want)


def test_reference_qubit_well_minimum_is_bit_identical_to_scipy_brentq():
    # the reference qubit's well minimum against scipy's brentq within
    # rounding of f (the name predates Newton's method)
    u = derive_unitless(reference_circuit())
    xi, beta, alpha = (float(v[0]) for v in (u.xi_j, u.beta_j, u.alpha))
    got = qubit_reduction(xi, beta, alpha).phi_p
    want = brentq_well_minimum(beta, alpha)
    assert abs(got - want) <= _root_tolerance(beta, alpha, want)


@pytest.mark.parametrize("beta, want", [
    (1e3, np.pi * (1.0 - 1.0 / 1001.0)),
    (1e6, np.pi * (1.0 - 1.0 / 1000001.0)),
    (1.0 + 1e-13, np.sqrt(6e-13))], ids=["1e3", "1e6", "threshold"])
def test_well_minimum_residual_scales_with_beta(beta, want):
    # deep wells, where f's rounding grows with beta (a fixed 1e-12 bound
    # failed at 1e6), and the threshold, where f' is near zero and Newton
    # takes about 40 steps
    phi = find_well_minimum(beta)
    assert abs(phi - beta * np.sin(phi)) <= 1e-14 * beta
    assert phi == pytest.approx(want, rel=1e-2)


def test_well_minimum_without_a_root_raises(monkeypatch):
    # a residual that never reaches rounding level raises ArithmeticError,
    # which python -O keeps, not an assertion
    monkeypatch.setattr(oscillator, "math", SimpleNamespace(
        pi=math.pi, isfinite=math.isfinite, cos=math.cos,
        sin=lambda x: math.nan))
    with pytest.raises(ArithmeticError, match="well minimum not found"):
        find_well_minimum(1.5)


def test_well_minimum_single_well_branch():
    assert find_well_minimum(0.9) == 0.0
    assert find_well_minimum(1.0) == 0.0
    # alpha raises the effective threshold
    assert find_well_minimum(1.0005, alpha=0.1) == 0.0
    with pytest.raises(ValueError):
        find_well_minimum(-1.0)
    for beta, alpha in ((np.nan, 0.0), (1.1, np.nan), (np.inf, 0.0)):
        with pytest.raises(ValueError):
            find_well_minimum(beta, alpha)


def test_well_minimum_near_threshold():
    # just past threshold: phi_p ~ sqrt(6 (beta - 1)) for small excess
    phi = find_well_minimum(1.0 + 1e-6)
    assert phi == pytest.approx(np.sqrt(6e-6), rel=1e-2)


@pytest.mark.parametrize("M,N", [(0, 0), (0, 1), (1, 0), (2, 5), (5, 2),
                                 (3, 3), (0, 7), (10, 4)])
@pytest.mark.parametrize("d", [0.12, 0.9, 2.4])
def test_displaced_overlap_against_quadrature(M, N, d):
    got = displaced_overlap(M, N, d)
    want = _overlap_quadrature(M, N, d)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("d", [0.05, 0.7, 3.0])
def test_displaced_overlap_against_scipy_laguerre(d):
    # the three-term recurrence and lgamma amplitudes against scipy's
    # eval_genlaguerre and gammaln, every M, N < 60
    M, N = (v.ravel() for v in np.indices((60, 60)))
    lo, hi = np.minimum(M, N), np.maximum(M, N)
    want = (np.where((N > M) & ((hi - lo) % 2 == 1), -1.0, 1.0)
            * np.exp(0.5 * (gammaln(lo + 1.0) - gammaln(hi + 1.0))
                     + (hi - lo) * np.log(d) - d * d / 2.0)
            * eval_genlaguerre(lo, hi - lo, d * d))
    got = np.array([displaced_overlap(m, n, d) for m, n in zip(M, N)])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)


def test_displaced_overlap_limits_and_errors():
    assert displaced_overlap(3, 3, 0.0) == 1.0
    assert displaced_overlap(2, 3, 0.0) == 0.0
    assert displaced_overlap(0, 0, 1.0) == pytest.approx(np.exp(-0.5), rel=1e-12)
    with pytest.raises(ValueError):
        displaced_overlap(-1, 0, 0.5)
    with pytest.raises(ValueError):
        displaced_overlap(0, 0, -0.5)


def test_displaced_overlap_large_levels_stable():
    # log-factorial amplitudes must survive M, N = 60
    v = displaced_overlap(60, 58, 1.3)
    assert np.isfinite(v)
    assert abs(v) < 1.0


def test_reference_well_solution():
    w = qubit_reduction(0.05015, 1.1, 0.04896)
    assert w.phi_p == pytest.approx(0.7397, abs=2e-4)
    assert w.m_eff == pytest.approx(99.4, rel=1e-2)
    assert w.omega_eff == pytest.approx(0.0437, rel=1e-2)
    assert w.overlap00 == pytest.approx(0.0928, abs=2e-3)
    assert w.s == pytest.approx(0.3407, rel=1e-2)


def test_omega_eff_is_well_curvature():
    # finite-difference second derivative of U(phi) = (1+a^2) phi^2/2 + b cos(phi)
    xi, beta, alpha = 0.05, 1.3, 0.02
    w = qubit_reduction(xi, beta, alpha)

    def U(phi):
        return 0.5 * (1 + alpha**2) * phi**2 + beta * np.cos(phi)

    h = 1e-4
    curv = (U(w.phi_p + h) - 2 * U(w.phi_p) + U(w.phi_p - h)) / h**2
    assert w.omega_eff == pytest.approx(np.sqrt(curv / w.m_eff), rel=1e-6)
    assert w.m_eff == pytest.approx(1.0 / (4.0 * xi**2), rel=1e-14)


def test_qubit_reduction_regime_errors():
    with pytest.raises(ValueError):
        qubit_reduction(0.05, 0.99)
    with pytest.raises(FloatingPointError):
        # barely-formed well: wells nearly overlap, s diverges
        qubit_reduction(0.05, 1.0 + 1e-13)
