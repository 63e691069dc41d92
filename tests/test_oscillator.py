import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.special import beta, binom, eval_genlaguerre, gammaln

from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.oscillator import (_beta, _binom, _laguerre_coefficients,
                                    _laguerre_p, _lgam, cosine_matrix,
                                    displaced_overlap, find_well_minimum,
                                    ladder, qubit_reduction)
from toys import (_genlaguerre_matrix, brentq_well_minimum,
                  displacement_matrix, memo_free_cosine)


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


def _overlap_by_recurrence(M, N, d):
    """<M_-|N_+> from the hand-run Laguerre recurrence of toys, with the
    amplitude and sign of displaced_overlap."""
    lo, hi = min(M, N), max(M, N)
    k = hi - lo
    amp = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
                 + k * np.log(d) - d * d / 2.0)
    sign = 1.0 if M >= N else (-1.0) ** k
    return sign * (amp * _genlaguerre_matrix(np.array(lo), np.array(k), d * d))


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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_binom_is_bit_identical_to_scipy():
    # every 0 <= K <= N < 600: the product formula below min(K, N - K) = 20,
    # and beta through rgamma (N + 2 <= 171) and through lgam beyond; then
    # min(K, N - K) in 10 .. 19 up to N = 3000, where the product's 1e50
    # rescale changes bits (from N = 613 on)
    N, K = np.tril_indices(600)
    kx = np.arange(10.0, 20.0)
    N_far = np.repeat(np.arange(600.0, 3000.0), len(kx))
    K_far = np.tile(kx, 2400)
    N = np.concatenate((N, N_far, N_far)).astype(float)
    K = np.concatenate((K, K_far, N_far - K_far)).astype(float)
    np.testing.assert_array_equal(_bits(_binom(N, K)), _bits(binom(N, K)))


def test_beta_is_bit_identical_to_scipy():
    # integer a, b < 250: the Gamma product scaled by rgamma(a + b), each of
    # its two orders, up to a + b = 171, and the lgam form beyond
    a, b = (v.ravel().astype(float) for v in np.indices((250, 250)) + 1)
    got = np.array([_beta(p, q) for p, q in zip(a, b)])
    np.testing.assert_array_equal(_bits(got), _bits(beta(a, b)))


def test_lgam_is_bit_identical_to_scipy_gammaln():
    # the product below 13, the series to 1000, its short form to 1e8, and
    # Stirling's leading terms alone beyond
    x = np.concatenate((np.arange(1.0, 5001.0), [1e6, 1e8 + 1, 1e9]))
    got = np.array([_lgam(v) for v in x])
    np.testing.assert_array_equal(_bits(got), _bits(gammaln(x)))


@pytest.mark.parametrize("x", [1e-300, 0.09, 0.3, 1.7, 50.0])
def test_laguerre_recurrence_is_bit_identical_to_scipy(x):
    # L_lo^k(x) for every lo + k < 120, odd k included: 1 and -x + k + 1 at
    # lo = 0 and 1, else binom(lo + k, lo) times p after step lo - 1
    dist = np.arange(120.0)
    p = _laguerre_p(dist, x, *_laguerre_coefficients(dist, 118))
    lo, k = np.tril_indices(120)
    lo, k = (k, lo - k)
    got = np.select([lo == 0, lo == 1], [1.0, -x + k + 1.0],
                    _binom((lo + k).astype(float), lo.astype(float))
                    * p[np.maximum(lo - 1, 0), k])
    want = eval_genlaguerre(lo.astype("l"), k.astype(float), x)
    np.testing.assert_array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("r", [0.0, 0.05, 0.3, 1.2])
def test_cosine_matrix_against_series(r):
    got = cosine_matrix(12, r)
    want = _cosine_series(12, r)
    assert np.allclose(got, want, atol=1e-11)


@pytest.mark.parametrize("n", [2, 3, 4, 13, 40, 50, 60, 80, 90, 180])
@pytest.mark.parametrize("r", [0.0, 1e-40, 0.05, 0.2, 0.31, 0.55, 1.3, 3.3,
                               7.5])
def test_cosine_matrix_is_bit_identical_to_the_displacement_form(n, r):
    # r = 1e-40 underflows the far-diagonal amplitudes to zero, whose sign
    # the Hermitian average makes +0.0; from n = 41 on binom goes through
    # beta, and through its lgam branch from n = 171 on
    E = displacement_matrix(n, r)
    want = ((E + E.conj().T) / 2.0).real
    got = cosine_matrix(n, r)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.usefixtures("cold_memos")
def test_cosine_matrix_keeps_its_bits_at_interleaved_truncations():
    # the per-truncation memo serves each n its own triangle: n = 50 again
    # after 40 and 13, every call with an r not seen before
    for n, r in ((50, 0.31), (40, 0.43), (13, 0.77), (50, 0.29)):
        got = cosine_matrix(n, r)
        assert got.shape == (n, n)
        assert got.tobytes() == memo_free_cosine(n, r).tobytes()
    assert cosine_matrix.cache_info().misses == 4


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


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.049, 0.1, 0.3])
def test_well_minimum_is_bit_identical_to_scipy_brentq(alpha):
    c = 1.0 + alpha**2
    betas = np.concatenate([[1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3, 1.02],
                            np.linspace(1.0, 3.0, 401)[1:]])
    betas = betas[betas / c > 1.0]
    got = np.array([find_well_minimum(b, alpha) for b in betas])
    want = np.array([brentq_well_minimum(b, alpha) for b in betas])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_reference_qubit_well_minimum_is_bit_identical_to_scipy_brentq():
    u = derive_unitless(reference_circuit())
    xi, beta, alpha = (float(v[0]) for v in (u.xi_j, u.beta_j, u.alpha))
    got = np.float64(qubit_reduction(xi, beta, alpha).phi_p)
    want = np.float64(brentq_well_minimum(beta, alpha))
    assert got.view(np.int64) == want.view(np.int64)


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
    # and bit for bit the element of the hand-run recurrence
    want = np.float64(_overlap_by_recurrence(M, N, d))
    assert np.float64(got).view(np.int64) == want.view(np.int64)


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
