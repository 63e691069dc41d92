import functools
from dataclasses import replace
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from fluxcoupler import spectrum
from fluxcoupler import swt as swt_module
from fluxcoupler.analysis import (build_system, spectral_point,
                                  with_flux_offsets)
from fluxcoupler.cli import _BETA_GRID
from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.hamiltonian import (IsingModel, assemble_full,
                                     assemble_ising_model, build_coupler,
                                     build_qubit_bare, coupler_eigenbasis,
                                     qubit_phase, reduce_qubit, _mean)
from fluxcoupler.oscillator import qubit_reduction
from fluxcoupler.swt import (A2, B1, B3, C1_CONSTANT, analytic_couplings,
                             numerical_swt, pauli_decompose, swt_prefactors,
                             swt_effective_block)
from toys import (add_interaction, cross_block_gaps, delta_form_couplings,
                  dense_swt_effective_block, einsum_pauli_coefficients,
                  einsum_pauli_decompose, linear_coupler_toy, linear_map_L,
                  one_qubit_toy_error, two_product_swt_effective_block)


def _u(beta_c=0.43):
    return derive_unitless(reference_circuit(beta_c=beta_c))


def _well(u):
    return qubit_reduction(float(np.mean(u.xi_j)), float(np.mean(u.beta_j)),
                           float(np.mean(u.alpha)))


def _system(u, n_q=50, n_c=40):
    qubits = [reduce_qubit(build_qubit_bare(u, j, n_q), qubit_phase(u, j, n_q))
              for j in range(4)]
    return qubits, build_coupler(u, n_c)


# ------------------------------------------------- coefficients


def _bernoulli(n):
    """Bernoulli number B_n as a Fraction (Akiyama-Tanigawa recurrence).

    This gives the B_1 = +1/2 convention; only even indices are used by the
    generator-series coefficients, where the conventions agree.
    """
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return A[0]


def test_bernoulli_numbers():
    # Akiyama-Tanigawa recurrence: B_1 = +1/2 convention (even indices,
    # the only ones used downstream, are convention-independent)
    want = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 6),
            3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
            8: Fraction(-1, 30)}
    for n, v in want.items():
        assert _bernoulli(n) == v


def test_generator_coefficients():
    # b_{2n-1} = 2 (2^{2n} - 1) B_{2n} / (2n)!  and  a_n = 2^n B_n / n!
    def b_odd(n):
        return 2 * (2 ** (2 * n) - 1) * _bernoulli(2 * n) / factorial(2 * n)

    assert B1 == float(b_odd(1))
    assert B3 == float(b_odd(2))
    assert A2 == float(2 ** 2 * _bernoulli(2) / factorial(2))


# ------------------------------------------------- L map and engine core


def test_linear_map_L_explicit():
    e = np.array([0.0, 0.0, 2.0])
    block0 = np.array([True, True, False])
    x = np.arange(9, dtype=float).reshape(3, 3)
    out = linear_map_L(x, e, block0)
    want = np.zeros((3, 3))
    want[0, 2] = x[0, 2] / (0.0 - 2.0)
    want[1, 2] = x[1, 2] / (0.0 - 2.0)
    want[2, 0] = x[2, 0] / (2.0 - 0.0)
    want[2, 1] = x[2, 1] / (2.0 - 0.0)
    assert np.allclose(out, want)


def test_linear_map_L_degenerate_raises():
    e = np.array([1.0, 1.0 + 1e-15])
    with pytest.raises(ZeroDivisionError):
        linear_map_L(np.ones((2, 2)), e, np.array([True, False]))


def test_engine_two_level_oracle():
    # H0 = diag(0, D), V = g X: low block = -g^2/D + g^4/D^3 at 4th order;
    # one configuration, so V = [[g]] (x) X
    D, g = 1.0, 0.05
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = swt_effective_block(np.array([0.0, D]), np.zeros((1, 1)),
                              np.array([[g]]), X)[0, 0]
    assert got == pytest.approx(-g**2 / D + g**4 / D**3, abs=1e-12)
    # and within O(g^6/D^5) of the exact eigenvalue
    exact = D / 2.0 - np.sqrt(D**2 / 4.0 + g**2)
    assert got == pytest.approx(exact, abs=5 * g**6 / D**5)


def _hermitian(rng, n, complex_v=False):
    A = rng.normal(size=(n, n))
    if complex_v:
        A = A + 1j * rng.normal(size=(n, n))
    return (A + A.conj().T) / 2.0


def _random_swt_case(seed, n_z, n_c, complex_v):
    """Coupler ground states near 0, the others near 3, and the Hermitian
    factors A, F and phi of V = A (x) 1 + F (x) phi."""
    rng = np.random.default_rng(seed)
    h0 = rng.uniform(0, 1, (n_z, n_c))
    h0[:, 1:] += 3.0
    A, F = (0.1 * _hermitian(rng, n_z, complex_v) for _ in range(2))
    return h0.ravel(), A, F, _hermitian(rng, n_c, complex_v)


def _dense_v(A, F, phi):
    return np.kron(A, np.eye(len(phi))) + np.kron(F, phi)


def test_engine_generic_small_matrix():
    # random Hermitian factors: 4th-order engine error is O(eps^5)
    h0, A, F, phi = _random_swt_case(0, 3, 4, False)
    block0 = np.arange(h0.size) % 4 == 0
    V0 = _dense_v(A, F, phi)

    def err(eps):
        h_eff = swt_effective_block(h0, eps * A, eps * F, phi)
        ev, vec = np.linalg.eigh(np.diag(h0) + eps * V0)
        w = np.sum(vec[block0, :] ** 2, axis=0)
        idx = np.argsort(w)[::-1][:3]
        W = vec[:, idx][block0, :]
        gw, gv = np.linalg.eigh(W.T @ W)
        X = W @ gv @ np.diag(gw ** -0.5) @ gv.T
        return np.linalg.norm(h_eff - X @ np.diag(ev[idx]) @ X.T)

    eps = np.geomspace(3e-2, 1e-1, 5)
    errs = np.array([err(e) for e in eps])
    slope = np.polyfit(np.log(eps), np.log(errs), 1)[0]
    assert slope == pytest.approx(5.0, abs=0.2)


def test_one_qubit_toy_halving():
    # halving the coupling cuts the beyond-4th-order error by >= 16x
    e1 = one_qubit_toy_error(0.05)
    e2 = one_qubit_toy_error(0.025)
    assert e1 / e2 >= 16.0


@pytest.mark.parametrize("complex_v", [False, True])
@pytest.mark.parametrize("low", [[0, 1, 2], [1, 4, 6], [7, 2], [0, 3, 5, 9]])
def test_block_recursion_matches_the_dense_one(low, complex_v):
    # random real and complex Hermitian factors, one configuration per entry
    # of `low`, against the dense recursion on the Kronecker-built V.  The
    # dense basis is permuted so that the coupler ground state of
    # configuration z sits at position low[z]: contiguous, scattered and
    # out-of-order low blocks
    n_c = 4
    h0, A, F, phi = _random_swt_case(len(low), len(low), n_c, complex_v)
    got = swt_effective_block(h0, A, F, phi)
    n = h0.size
    ground = np.arange(n) % n_c == 0
    block0 = np.isin(np.arange(n), low)
    order = np.empty(n, dtype=int)
    order[low] = np.flatnonzero(ground)
    order[~block0] = np.flatnonzero(~ground)
    want = dense_swt_effective_block(h0[order],
                                     _dense_v(A, F, phi)[np.ix_(order, order)],
                                     block0)
    rank = np.argsort(np.argsort(low))
    want = want[np.ix_(rank, rank)]
    assert got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.linalg.norm(want, 2))


def test_degenerate_cross_block_pair_raises():
    h0, A, F, phi = _random_swt_case(0, 2, 4, False)
    h0[6] = h0[4] * (1.0 + 1e-15)
    with pytest.raises(ZeroDivisionError, match="degenerate cross-block"):
        swt_effective_block(h0, A, F, phi)


def test_cross_block_gaps_read_from_the_layout():
    # the gaps read from h0's (z, n) layout have the bits of the two mask
    # copies they replace
    h0, *_ = _random_swt_case(1, 3, 5, False)
    block0 = np.arange(h0.size) % 5 == 0
    got = swt_module._cross_block_gaps(h0.reshape(3, 5))
    assert got.tobytes() == cross_block_gaps(h0, block0).tobytes()


def test_anti_hermiticity_check_is_live():
    # every generator is carried by its PQ block on the promise that V is
    # Hermitian, so a factor that is not, or that holds a NaN, is refused at
    # the input
    h0, *factors = _random_swt_case(0, 2, 4, False)
    for k in range(3):
        for edit in (0.01, np.nan):
            bad = [x.copy() for x in factors]
            bad[k][0, 1] += edit
            with pytest.raises(ValueError, match="not Hermitian"):
                swt_effective_block(h0, *bad)


def test_series_that_has_not_converged_is_refused():
    # the two-level oracle on configuration 0 of two, V = diag(g, 0) (x) X:
    # the trace-free low block has ||H2|| = g^2/(2D) and ||H4|| = g^4/(2D^3),
    # so the ratio is (g/D)^2, 0.36 at g/D = 0.6 and 0.16 at 0.4
    D = 1.0
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    h0 = np.array([0.0, D, 0.0, D])
    with pytest.raises(RuntimeError,
                       match=r"not converged: .* = 0\.36 > 0\.25"):
        swt_effective_block(h0, np.zeros((2, 2)), np.diag([0.6, 0.0]), X)
    got = swt_effective_block(h0, np.zeros((2, 2)), np.diag([0.4, 0.0]), X)
    assert got[0, 0] == pytest.approx(-0.4**2 / D + 0.4**4 / D**3, rel=1e-12)


# ------------------------------------------------- prefactors and closed forms


def test_prefactor_identities():
    u = _u(0.43)
    p = swt_prefactors(u, _well(u))
    E, xi, b = u.E_Ltilde_c, u.xi_c, u.beta_c
    assert p.omega_c == pytest.approx(2.0 * E * xi * np.sqrt(1.0 - b), rel=1e-12)
    assert p.m_c == pytest.approx(1.0 / (4.0 * E * xi**2), rel=1e-12)
    # K = E beta/(96 m^2 w^2) reduces to E beta xi^2 / (24 (1-beta))
    assert p.K_corr == pytest.approx(E * b * xi**2 / (24.0 * (1.0 - b)),
                                     rel=1e-12)
    assert p.g_qb_c == pytest.approx(
        E * p.epsilon * np.sqrt(xi) * (1.0 - b) ** -0.25, rel=1e-12)


def test_four_local_closed_form_equivalence():
    # 3 E eps^4 / (xi (1-b)^{5/2}) is algebraically identical to 24 g^4 / D^3
    u = _u(0.3)
    w = _well(u)
    cs = analytic_couplings(u, w)
    d = delta_form_couplings(swt_prefactors(u, w))
    assert cs.J4 == pytest.approx(d["J4"], rel=1e-12)
    assert cs.J1 == pytest.approx(d["J1"], rel=1e-12)


def test_three_local_form_discrepancy():
    # the two published closed forms for J3 differ by exactly (1-b)^{1/4}:
    # -E eps^3 b sqrt(xi)/(32 (1-b)^3) versus -6 K g^3 / D^3.  Documented,
    # deterministic inconsistency of the source forms; the explicit form wins.
    for b in (0.2, 0.43, 0.6):
        u = _u(b)
        w = _well(u)
        cs = analytic_couplings(u, w)
        d = delta_form_couplings(swt_prefactors(u, w))
        assert d["J3"] / cs.J3 == pytest.approx((1.0 - b) ** -0.25, rel=1e-10)


def test_two_local_form_discrepancy():
    # term-by-term, the explicit J2 and the Delta-form J2 agree except the
    # K-linear term, where the published forms differ by a factor of 96
    for b in (0.2, 0.43):
        u = _u(b)
        w = _well(u)
        cs = analytic_couplings(u, w)
        d = delta_form_couplings(swt_prefactors(u, w))
        E, xi = u.E_Ltilde_c, u.xi_c
        eps = float(np.mean(u.alpha)) * w.s
        k_term = E * eps**2 * 0.5 * b * xi / (1.0 - b) ** 2.5
        assert d["J2"] - cs.J2 == pytest.approx(k_term / 96.0 - k_term,
                                                rel=1e-9)


def test_analytic_zero_screening_limit():
    # beta_c = 0: odd couplings vanish identically
    u = _u(0.43)
    u.beta_c = 0.0
    cs = analytic_couplings(u, _well(u))
    assert cs.J1 == 0.0
    assert cs.J3 == 0.0
    assert cs.J4 > 0.0


def test_analytic_validation():
    u = _u(0.43)
    u.beta_c = 1.0
    with pytest.raises(ValueError):
        analytic_couplings(u, _well(u))


@pytest.mark.parametrize("name,value", [
    ("phi_cx", 1e-3), ("phi_jx", [0.0, 0.0, 1e-3, 0.0]),
    ("alpha", "one ulp"), ("xi_j", "one ulp"), ("beta_j", "one ulp")])
def test_analytic_refuses_points_its_closed_forms_do_not_describe(name,
                                                                   value):
    # the closed forms describe four identical qubits at the degeneracy
    # point; a flux offset or one qubit differing by one ulp is refused
    u = _u(0.43)
    w = _well(u)
    if value == "one ulp":
        value = getattr(u, name).copy()
        value[1] = np.nextafter(value[1], np.inf)
    with pytest.raises(ValueError, match="four identical qubits at the "
                                         "degeneracy point"):
        analytic_couplings(replace(u, **{name: value}), w)


def test_analytic_reference_point():
    cs = analytic_couplings(_u(0.43), _well(_u(0.43)))
    # values in the 100 MHz / -50 MHz region, diverging toward beta_c = 1
    assert cs.J4 == pytest.approx(98.2e6, rel=1e-2)
    assert cs.J2 == pytest.approx(-45.5e6, rel=2e-2)
    cs2 = analytic_couplings(_u(0.6), _well(_u(0.6)))
    assert cs2.J4 > cs.J4


# ------------------------------------------------- exactly solvable toy


def test_static_limit_exact_solution():
    # omega = 0, linear coupling: displacement solves the model exactly with
    # E(z) = -g^2 (sum z)^2 / delta; the engine must reproduce the pure
    # two-local content J2 = -2 g^2 / delta and no four-local term at all
    g, delta = 2.8e9, 15.0e9
    model, residual = linear_coupler_toy(g, delta, omega=0.0)
    assert np.allclose(model.J2, -2.0 * g**2 / delta, rtol=1e-9)
    assert abs(model.J4) < 1e-9 * g**2 / delta
    assert np.allclose(model.J1, 0.0, atol=1e-9 * g**2 / delta)
    assert np.allclose(model.J3, 0.0, atol=1e-9 * g**2 / delta)
    assert residual < 1e-6 * g**2 / delta
    assert model.shift == pytest.approx(-4.0 * g**2 / delta, rel=1e-9)


def test_four_local_channels_cancel():
    # the often-quoted 4th-order four-local strength 24 g^4 / D^3 does not
    # survive the full generator algebra: the two four-local channels cancel
    # identically for a linearly coupled harmonic mode, at zero and at
    # finite qubit frequency
    g, delta = 2.8e9, 15.0e9
    naive = 24.0 * g**4 / delta**3
    assert naive > 4e8  # the claim would be a large, easily visible coupling
    for omega in (0.0, 2.9e9):
        model, _ = linear_coupler_toy(g, delta, omega=omega)
        assert abs(model.J4) < 1e-6 * naive


# ------------------------------------------------- numerical branch


def test_numerical_swt_runs_and_reports():
    u = _u(0.3)
    qubits, coupler = _system(u)
    h_eff, cs = numerical_swt(u, qubits, coupler)
    assert h_eff.shape == (16, 16)
    assert cs.J2 < 0
    assert cs.residual >= 0
    # symmetric circuit: per-pair spreads vanish
    assert cs.diagnostics["J2_spread"] < 1e-3 * abs(cs.J2)
    # effective splittings renormalize the bare ones only slightly
    bare = np.array([q.omega for q in qubits])
    assert np.allclose(cs.diagnostics["omega_eff"], bare, rtol=0.2)


@pytest.mark.parametrize("beta_c", [0.05, 0.43])
def test_numerical_swt_odd_strings_vanish_at_half_flux(beta_c):
    # the half-flux bias makes the odd-weight Z strings vanish, as in the
    # spectral branch (test_spectral_couplings_are_the_bare_frame_projection);
    # on the default grid J1 and J3 are rounding noise, at most 4e-13 of |J2|
    u = _u(beta_c)
    cs = numerical_swt(u, *_system(u))[1]
    assert abs(cs.J1) <= 1e-6 * abs(cs.J2)
    assert abs(cs.J3) <= 1e-6 * abs(cs.J2)


def test_numerical_swt_gap_collapse():
    # hand the engine a coupler whose first excitation sits below the qubit
    # splitting: it must refuse rather than produce a divergent expansion
    from fluxcoupler.hamiltonian import OperatorMatrix
    u = _u(0.3)
    qubits, _ = _system(u)
    shallow = OperatorMatrix(np.diag(np.arange(12) * 1.0e9))
    with pytest.raises(RuntimeError, match="gap collapse"):
        numerical_swt(u, qubits, shallow)


@pytest.mark.parametrize("qubit_offsets", [(0.0, 0.0, 0.0, 0.0),
                                           (1e-3, -2e-3, 1.5e-3, 5e-4)])
def test_numerical_swt_sees_the_spectral_hamiltonian(monkeypatch,
                                                     qubit_offsets):
    # the SWT's H0 + V, with V rebuilt from the factors the engine is given,
    # must be the product-space operator that assemble_full gives the
    # spectral path.  assemble_full writes it in per-configuration
    # coupler states; at n_keep = coupler_states its frame is a unitary
    # change of basis to the SWT's bare frame (qubit energy basis x coupler
    # eigenbasis).  The comparison is made in the bare frame, element by
    # element, so that a change to one element of V is not spread thin.
    u = derive_unitless(with_flux_offsets(reference_circuit(beta_c=0.43),
                                          qubit_offsets=qubit_offsets))
    qubits, coupler = _system(u)
    if any(qubit_offsets):
        assert all(abs(q.phi2[0, 0]) > 1e-6 for q in qubits)
    seen = {}

    def capture(h0_diag, *factors):
        seen.update(h0=h0_diag, factors=factors)
        return swt_effective_block(h0_diag, *factors)

    monkeypatch.setattr(swt_module, "swt_effective_block", capture)
    numerical_swt(u, qubits, coupler)
    H = np.diag(seen["h0"]) + _dense_v(*seen["factors"])
    n_c = coupler.data.shape[0]
    full = assemble_full(qubits, coupler, u, n_keep=n_c)
    W = full.frame.isometry()
    np.testing.assert_allclose(W.T @ W, np.eye(H.shape[0]), rtol=0, atol=1e-12)
    carried = W @ full.data @ W.T
    # the change of basis rounds at ~2e-15 of the operator norm; a 1e-9
    # relative change to any nonzero diagonal element of V at the offset
    # point moves it by 3e-14 to 1e-12 of the norm
    tol = 1e-14 * np.linalg.norm(full.data, 2)
    np.testing.assert_allclose(carried, H, rtol=0, atol=tol)
    np.testing.assert_allclose(W.T @ H @ W, full.data, rtol=0, atol=tol)
    # the SWT's low block is H0 + V's bare coupler-ground block
    low = np.arange(0, H.shape[0], n_c)
    np.testing.assert_allclose(carried[np.ix_(low, low)], H[np.ix_(low, low)],
                               rtol=0, atol=tol)
    # both paths read one description of the interaction, so it is checked
    # on its own against the terms written out one Kronecker product each
    e_c, phi_c = coupler_eigenbasis(coupler, u)
    bare = functools.reduce(np.add.outer,
                            [np.diag(q.h2) for q in qubits] + [e_c]).ravel()
    reference = add_interaction(np.diag(bare), qubits, phi_c, u)
    np.testing.assert_allclose(H, reference, rtol=0, atol=tol)


def _captured_swt_inputs(monkeypatch, u):
    """The (h0, A, F, phi_c) that numerical_swt hands to
    swt_effective_block."""
    seen = []

    def capture(*args):
        seen.extend(args)
        return swt_effective_block(*args)

    with monkeypatch.context() as m:
        m.setattr(swt_module, "swt_effective_block", capture)
        numerical_swt(u, *_system(u))
    return seen


_OFFSETS = (1e-3, -2e-3, 1.5e-3, 5e-4)


@pytest.mark.parametrize("beta_c,coupler_offset,qubit_offsets", [
    pytest.param(0.02, 0.0, None, id="0.02-None"),
    pytest.param(0.43, 0.0, None, id="0.43-None"),
    pytest.param(0.60, 0.0, None, id="0.6-None"),
    pytest.param(0.43, 0.0, _OFFSETS, id="0.43-qubit_offsets3"),
    pytest.param(0.43, 2.75e-3, tuple(x + 2.75e-3 for x in _OFFSETS),
                 id="0.43-common_mode")])
def test_block_recursion_on_the_circuit(monkeypatch, beta_c, coupler_offset,
                                        qubit_offsets):
    # the block recursion against the dense one on the circuit's own
    # 640-state H0 and the V built from its factors, at weak and strong
    # screening and with qubit flux offsets (those of
    # test_numerical_swt_sees_the_spectral_hamiltonian);
    # with the common-mode flux offset of the last case the top of P lies
    # 4.3 GHz above the bottom of Q
    u = derive_unitless(with_flux_offsets(reference_circuit(beta_c=beta_c),
                                          coupler_offset, qubit_offsets))
    h0, A, F, phi = _captured_swt_inputs(monkeypatch, u)
    block0 = np.arange(h0.size) % len(phi) == 0
    assert h0.size == 640 and block0.sum() == 16
    if coupler_offset:
        assert np.max(h0[block0]) - np.min(h0[~block0]) > 4e9
    got = swt_effective_block(h0, A, F, phi)
    want = dense_swt_effective_block(h0, _dense_v(A, F, phi), block0)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-14 * np.linalg.norm(want, 2))
    # one product per Hermitian pair keeps the bits of two on real operands
    reference = two_product_swt_effective_block(h0, A, F, phi)
    assert got.tobytes() == reference.tobytes()


def test_unconverged_flux_point_is_an_error_row():
    # common-mode flux offsets drive the 4th-order series out of its range:
    # ||H4|| / ||H2|| is 0.15 at +2.5 mPhi0, kept, and 0.55 at +3 mPhi0,
    # where the series gave J4 = -214 MHz against the spectral -37 MHz
    from fluxcoupler.analysis import sweep_flux
    out = sweep_flux(reference_circuit(), [2.5e-3, 3e-3],
                     qubit_offsets=_OFFSETS, common_mode=True,
                     branches=("numerical_swt",))
    kept, refused = out.column("numswt_status")
    assert kept == "ok"
    assert refused == ("error: SWT series not converged: "
                       "||H4||/||H2|| = 0.55 > 0.25")


# ------------------------------------------------- Pauli decomposition


def test_spectral_branch_is_the_all_orders_limit_of_the_swt():
    # the spectral projection is the Schrieffer-Wolff effective Hamiltonian
    # to all orders, so it differs from the 4th-order numerical SWT at 6th
    # order in the coupling: shrinking M_j at fixed beta_c, the differences
    # fall at least as the 5th power
    from fluxcoupler.analysis import (Truncations, build_system,
                                      spectral_point, with_beta_c)
    scales = np.array([0.5, 0.25, 0.125])
    d2, d4 = [], []
    for s in scales:
        p = reference_circuit()
        p.M_j = p.M_j * s
        u = derive_unitless(with_beta_c(p, 0.43))
        cs, _, _, _ = spectral_point(u, Truncations())
        _, ref = numerical_swt(u, *build_system(u, Truncations()))
        d2.append(abs(cs.J2 - ref.J2))
        d4.append(abs(cs.J4 - ref.J4))
    for d in (d2, d4):
        assert np.polyfit(np.log(scales), np.log(d), 1)[0] >= 5.0


def test_pauli_decompose_round_trip():
    rng = np.random.default_rng(5)
    m = IsingModel(omega=rng.normal(size=4), J1=rng.normal(size=4),
                   J2=rng.normal(size=6), J3=rng.normal(size=4),
                   J4=rng.normal(), shift=rng.normal())
    model, residual = pauli_decompose(assemble_ising_model(m).data)
    assert np.allclose(model.omega, m.omega, atol=1e-12)
    assert np.allclose(model.J1, m.J1, atol=1e-12)
    assert np.allclose(model.J2, m.J2, atol=1e-12)
    assert np.allclose(model.J3, m.J3, atol=1e-12)
    assert model.J4 == pytest.approx(m.J4, abs=1e-12)
    assert model.shift == pytest.approx(m.shift, abs=1e-12)
    assert residual == pytest.approx(0.0, abs=1e-9)


def test_pauli_decompose_is_the_trace_projection():
    # every coefficient is tr(P^H A) / 16 for its Pauli string P
    import itertools
    from fluxcoupler.hamiltonian import kron_all
    paulis = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
              "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
              "Z": np.diag([1.0, -1.0])}
    rng = np.random.default_rng(7)
    B = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    A = (B + B.conj().T) / 2.0
    c = {"".join(s): np.trace(kron_all([paulis[x] for x in s]).conj().T @ A)
         / 16.0 for s in itertools.product("IXYZ", repeat=4)}

    def z_string(qubits):
        return "".join("Z" if k in qubits else "I" for k in range(4))

    model, residual = pauli_decompose(A)
    tol = 1e-14 * np.linalg.norm(A)
    assert model.shift == pytest.approx(c["IIII"].real, abs=tol)
    assert model.J4 == pytest.approx(c["ZZZZ"].real, abs=tol)
    for key, groups in (("J1", [(i,) for i in range(4)]),
                        ("J2", list(itertools.combinations(range(4), 2))),
                        ("J3", list(itertools.combinations(range(4), 3)))):
        want = [c[z_string(g)].real for g in groups]
        np.testing.assert_allclose(getattr(model, key), want, rtol=0, atol=tol)
    x_strings = ["".join("X" if k == i else "I" for k in range(4))
                 for i in range(4)]
    np.testing.assert_allclose(model.omega,
                               [2.0 * c[x].real for x in x_strings],
                               rtol=0, atol=tol)
    ising = {"IIII", "ZZZZ", *x_strings,
             *(z_string(g) for n in (1, 2, 3)
               for g in itertools.combinations(range(4), n))}
    want = np.sqrt(16.0 * sum(abs(v) ** 2 for k, v in c.items()
                              if k not in ising))
    assert residual == pytest.approx(want, rel=1e-13)


def test_pauli_decompose_residual_detects_non_ising():
    from fluxcoupler.hamiltonian import kron_all
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    I = np.eye(2)
    H = 0.3 * kron_all([X, X, I, I])
    _, residual = pauli_decompose(H)
    # Frobenius norm of the non-Ising content
    assert residual == pytest.approx(np.linalg.norm(H), rel=1e-12)


def _assert_same_reading(h_eff):
    """pauli_decompose gives the bytes of the einsum reference in every
    IsingModel field and in the residual."""
    (model, residual), (want, want_residual) = (
        pauli_decompose(h_eff), einsum_pauli_decompose(h_eff))
    for name in ("omega", "J1", "J2", "J3", "J4", "shift"):
        got, ref = getattr(model, name), getattr(want, name)
        assert type(got) is type(ref), name
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), name
    assert np.float64(residual).tobytes() == \
        np.float64(want_residual).tobytes()


def test_pauli_decompose_keeps_the_einsum_bits_on_the_default_grid():
    # the 30 numerical-SWT effective Hamiltonians of the CLI's beta_c grid
    for beta_c in _BETA_GRID:
        u = _u(beta_c)
        _assert_same_reading(numerical_swt(u, *build_system(u))[0])


@pytest.mark.parametrize("beta_c", [0.2, 0.43])
def test_pauli_decompose_keeps_the_einsum_bits_on_the_spectral_heff(
        monkeypatch, beta_c):
    seen = []

    def record(h_eff):
        seen.append(h_eff)
        return swt_module.ising_couplings(h_eff)

    monkeypatch.setattr(spectrum, "ising_couplings", record)
    spectral_point(_u(beta_c))
    assert len(seen) == 1
    _assert_same_reading(seen[0])


def test_ising_reductions_keep_numpys_bits():
    # the mean that ising_couplings and reduce_qubit share against np.mean,
    # bit for bit, on 12000 vectors of 4 and 6 entries (J1, J3 and J2) and
    # of 2 (a qubit's two levels), and short ones, among them signed zeros,
    # ties and magnitudes that make the summation order show; each spread
    # is the largest entry minus the smallest
    rng = np.random.default_rng(24)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-16, -1e-16, 3.0])
    for i in range(12000):
        n = (4, 6, 1, 2, 3)[i % 5]
        if i % 3 == 0:
            x = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
        elif i % 3 == 1:
            x = rng.choice(pool, size=n)
        else:
            x = rng.normal(size=n)
            x[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
        assert np.float64(_mean(x)).tobytes() == np.mean(x).tobytes(), x
        assert swt_module._spread(x) == np.max(x) - np.min(x), x


def test_pauli_decompose_keeps_the_einsum_bits_on_random_real_arrays():
    rng = np.random.default_rng(23)
    for _ in range(300):
        B = rng.normal(size=(16, 16))
        _assert_same_reading((B + B.T) / 2.0)


def test_pauli_coefficients_keep_the_einsum_values_on_complex_arrays():
    # every coefficient has the einsum's value, and its bytes too unless its
    # string holds a Y: there a zero part may differ in sign, which neither
    # a model field nor the residual reads
    no_y = np.ones((4,) * 4, dtype=bool)
    for q in range(4):
        no_y[(slice(None),) * q + (2,)] = False
    rng = np.random.default_rng(29)
    for _ in range(100):
        B = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        A = (B + B.conj().T) / 2.0
        for h in (A, A.real):
            got = swt_module._pauli_coefficients(h)
            want = einsum_pauli_coefficients(h)
            assert np.array_equal(got, want)
            assert got[no_y].tobytes() == want[no_y].tobytes()
            assert np.abs(got).tobytes() == np.abs(want).tobytes()
            model, want_model = pauli_decompose(h)[0], \
                einsum_pauli_decompose(h)[0]
            for name in ("omega", "J1", "J2", "J3", "J4", "shift"):
                assert np.asarray(getattr(model, name)).tobytes() == \
                    np.asarray(getattr(want_model, name)).tobytes(), name


def test_convergence_norm_is_the_spectral_norm(monkeypatch):
    # on the circuit's 2nd- and 4th-order blocks and on random Hermitian ones
    seen = []
    check = swt_module._check_convergence
    monkeypatch.setattr(swt_module, "_check_convergence",
                        lambda h2, h4: (seen.extend([h2, h4]), check(h2, h4)))
    u = _u(0.43)
    numerical_swt(u, *build_system(u))
    assert len(seen) == 2
    rng = np.random.default_rng(31)
    for _ in range(10):
        B = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        seen.append(B + B.conj().T)
    for h in seen:
        want = np.linalg.norm(h - np.trace(h) / 16.0 * np.eye(16), 2)
        got = swt_module._trace_free_norms(h)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
