"""Schrieffer-Wolff engine.

Closed-form analytic coupling strengths from the quartic-truncated coupler,
the numerical 4th-order SWT in the exact coupler eigenbasis, and the
Pauli-string decomposition of effective Hamiltonians that every numerical
branch reads its couplings from (ising_couplings).

The numerical SWT carries each operator of its generator recursion by its
low-high (PQ) block alone, since every one is Hermitian or anti-Hermitian,
and the interaction V by its Kronecker factors (hamiltonian.bare_frame), so
no 640 x 640 matrix is formed: its largest operands are 16 x 624, and each
is filled in place, in one buffer.  It refuses a point whose series has not
converged (MAX_ORDER_RATIO).
"""

from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import (ISING_STRINGS, NON_ISING, IsingModel,
                          OperatorMatrix, bare_frame, check_hermitian,
                          coupler_eigenbasis, _mean)


@dataclass
class CouplingStrengths:
    J1: float
    J2: float
    J3: float
    J4: float
    shift: float
    residual: float = 0.0     # non-Ising norm (numerical branches)
    diagnostics: dict = field(default_factory=dict)


# Generator-series constants, from the Bernoulli numbers B_n:
#   b_{2n-1} = 2 (2^{2n} - 1) B_{2n} / (2n)!   and   a_n = 2^n B_n / n!,
# so b1 = 2 * 3 * (1/6) / 2 = 1/2, b3 = 2 * 15 * (-1/30) / 24 = -1/24 and
# a2 = 4 * (1/6) / 2 = 1/3.
B1 = 1.0 / 2.0
B3 = -1.0 / 24.0
A2 = 1.0 / 3.0


@dataclass
class SwtPrefactors:
    g_qb_c: float        # qubit-coupler vertex (Hz)
    g_qb_qb: float       # direct qubit-qubit vertex (Hz)
    K_corr: float        # quartic vertex (Hz)
    m_c: float           # coupler effective mass (1/Hz)
    omega_c: float       # coupler harmonic frequency (Hz)
    epsilon: float       # alpha * s


def swt_prefactors(u, well) -> SwtPrefactors:
    """Analytic-branch vertex strengths for the quartic-truncated coupler.

    m_c = 1/(4 E xi_c^2), omega_c = 2 E xi_c sqrt(1-beta_c),
    g = E alpha s / sqrt(2 m_c omega_c), K = E beta_c / (96 m_c^2 omega_c^2).
    """
    E = u.E_Ltilde_c
    m_c = 1.0 / (4.0 * E * u.xi_c**2)
    omega_c = 2.0 * E * u.xi_c * np.sqrt(1.0 - u.beta_c)
    eps = float(np.mean(u.alpha)) * well.s
    g = E * eps / np.sqrt(2.0 * m_c * omega_c)
    K = E * u.beta_c / (96.0 * m_c**2 * omega_c**2)
    return SwtPrefactors(g_qb_c=g, g_qb_qb=E * eps**2, K_corr=K, m_c=m_c,
                         omega_c=omega_c, epsilon=eps)


C1_CONSTANT = (1689.0 + 1060.0 * np.sqrt(2.0) - 82.0 * np.sqrt(6.0)
               - 12.0 * np.sqrt(30.0)) / 55296.0


def analytic_couplings(u, well):
    """Closed-form 4th-order couplings, which describe four identical qubits
    at the degeneracy point only: any other point is refused.

    J4 = 3 E (alpha s)^4 / (xi_c (1-beta_c)^{5/2})
    J3 = -E (alpha s)^3 beta_c sqrt(xi_c) / (32 (1-beta_c)^3)
    J2 = E (alpha s)^2 [ 1 - 1/(1-beta_c) + beta_c xi_c / (2 (1-beta_c)^{5/2})
                         + c1 beta_c^2 xi_c^2/(1-beta_c)^4
                         + 5 (alpha s)^2 / (xi_c (1-beta_c)^{5/2}) ]
    J1 from the quartic-vertex expression; all diverge as beta_c -> 1.
    """
    if u.beta_c >= 1:
        raise ValueError("beta_c >= 1: analytic couplings diverge")
    if u.phi_cx != 0 or np.any(u.phi_jx != 0) or any(
            np.ptp(getattr(u, k)) != 0 for k in ("alpha", "xi_j", "beta_j")):
        raise ValueError("analytic couplings need four identical qubits at "
                         "the degeneracy point")
    p = swt_prefactors(u, well)
    E, b, xi, eps = u.E_Ltilde_c, u.beta_c, u.xi_c, p.epsilon
    if abs(eps) >= 1:
        raise ValueError("epsilon = alpha*s >= 1: series has no small parameter")
    omb = 1.0 - b
    J4 = 3.0 * E * eps**4 / (xi * omb**2.5)
    J3 = -E * eps**3 * b * np.sqrt(xi) / (32.0 * omb**3)
    J2 = E * eps**2 * (1.0 - 1.0 / omb + 0.5 * b * xi / omb**2.5
                       + C1_CONSTANT * b**2 * xi**2 / omb**4
                       + 5.0 * eps**2 / (xi * omb**2.5))
    g, K, d = p.g_qb_c, p.K_corr, p.omega_c
    J1 = -(628.0 + 24.0 * np.sqrt(3.0)) * K**3 * g / d**3 - 12.0 * K * g**3 / d**3
    diag = {"epsilon": eps, "gap_ratio": d / max(E * abs(eps), 1e-300)}
    return CouplingStrengths(J1=float(J1), J2=float(J2), J3=float(J3),
                             J4=float(J4), shift=0.0, diagnostics=diag)


def _cross_block_gaps(h0):
    """E_p - E_q for the low block's states (z, 0) (rows) and the rest,
    (z', n >= 1) with z' slowest (columns), from the energies h0 laid out
    as (z, n).

    Cross-block pairs closer than 1e-12 of the largest |energy| raise.
    """
    gaps = (h0[:, 0, None, None] - h0[:, 1:]).reshape(len(h0), -1)
    scale = np.max(np.abs(h0)) or 1.0
    if np.any(np.abs(gaps) < 1e-12 * scale):
        raise ZeroDivisionError(
            "degenerate cross-block energies: L map undefined")
    return gaps


def swt_effective_block(h0_diag, A, F, phi_c):
    """4th-order SWT effective Hamiltonian on the low block.

    h0_diag: unperturbed diagonal energies of the n_z x n_c product states
    (z, n), configuration z slowest; the Hermitian perturbation is
    V = A (x) 1 + F (x) phi_c, with A and F n_z x n_z and phi_c n_c x n_c, and
    the low block P holds the states (z, 0), Q the rest.
    Generator:
      S1 = L(V_od)
      S2 = -L([V_d, S1])
      S3 = -L([V_d, S2]) + a2 L([S1, [S1, V_od]])
    Effective low block:
      P (H0 + V) P + b1 P [S1+S2+S3, V_od] P + b3 P [S1,[S1,[S1,V_od]]] P.

    Every S is anti-Hermitian and X = [S1, [S1, V_od]] is Hermitian, so each
    is carried by its PQ block alone, the QP block being -/+ its conjugate
    transpose (Bravyi, DiVincenzo & Loss, Ann. Phys. 326, 2793 (2011)).  L
    divides a PQ block by G = E_P - E_Q.  The block-diagonal [S1, V_od] is
    never formed: X's PQ block is S1 W_QQ - W_PP S1, with S1 W_QQ written
    through |P| x |P| products.  Each Hermitian pair Y Z^H + Z Y^H of the low
    block (W, the triple term, b1 [S, V_od]) is formed from the one product
    P = Y Z^H as P + P^H, which has the same bits on the circuit's real
    operands, and X reuses W's S1 Vpq^H.  V itself is never formed either:
    V_PP = A + phi_c[0, 0] F, V_PQ = F (x) phi_c[0, 1:], and a PQ block Y,
    read as (z, z', n), meets V_QQ as Y A + (Y F) phi_c[1:, 1:], A and F
    acting on its index z' and phi_c[1:, 1:] on n.  On the circuit (n_z = 16,
    n_c = 40) no operand is larger than 16 x 624.  Each PQ block is filled
    in one buffer: S2 and S3 as V_PP Y - Y V_QQ with the subtraction, the
    negation, a2 X and the division by G applied in place, X as its three
    products accumulated into one array, S as S1 + S2 then += S3.  Every
    operation is the one a fresh expression would run, in the same order,
    so each entry keeps its bits; G and its degeneracy test read h0_diag
    as (z, n).  A factor that is not Hermitian is refused (ValueError), a
    degenerate cross-block pair (ZeroDivisionError), and so is a series
    that has not converged (RuntimeError, see MAX_ORDER_RATIO).
    """
    for factor in (A, F, phi_c):
        check_hermitian(factor)
    n_z, n_c = len(A), len(phi_c)
    h0 = np.asarray(h0_diag, dtype=float).reshape(n_z, n_c)
    G = _cross_block_gaps(h0)
    phi_qq = phi_c[1:, 1:]
    Vpp = A + phi_c[0, 0] * F
    Vpq = (F[:, :, None] * phi_c[0, 1:]).reshape(n_z, -1)

    def H(Y):
        return Y.conj().T

    def minus_Vd_commutator(Y):
        # -(V_PP Y - Y V_QQ), the PQ block of -[V_d, Y], subtracted and
        # negated in V_PP Y's buffer; Y V_QQ reads Y as (z, z', n): A and F
        # act on z', phi_qq on n
        Yq = Y.reshape(n_z, n_z, n_c - 1)
        Y_Vqq = A.T @ Yq
        Y_Vqq += (F.T @ Yq) @ phi_qq
        out = Vpp @ Y
        out -= Y_Vqq.reshape(n_z, -1)
        return np.negative(out, out=out)

    def pair(Y, Z):
        # the Hermitian Y Z^H + Z Y^H from the one product Y Z^H
        P = Y @ H(Z)
        return P + H(P)

    S1 = Vpq / G
    S2 = minus_Vd_commutator(S1)
    S2 /= G
    # [S1, V_od] has the PP block W and the QQ block -S1^H Vpq - Vpq^H S1
    # W = pair(S1, Vpq), its product S1 Vpq^H kept for X
    S1_Vqp = S1 @ H(Vpq)
    W = S1_Vqp + H(S1_Vqp)
    # X = -(S1 S1^H) Vpq - S1_Vqp S1 - W S1, its products accumulated in one
    # array; -(ab) is the same number as (-a) b
    X = (S1 @ H(S1)) @ Vpq
    np.negative(X, out=X)
    X -= S1_Vqp @ S1
    X -= W @ S1
    triple = B3 * pair(S1, X)
    S3 = minus_Vd_commutator(S2)
    X *= A2
    S3 += X
    S3 /= G
    # the 2nd-order low block is b1 W, the 4th-order one b1 [S3, V_od] + triple
    _check_convergence(B1 * W, B1 * pair(S3, Vpq) + triple)
    S = S1 + S2
    S += S3
    # P V_od P vanishes by construction, so the first-order low block is V_PP
    block = np.diag(h0[:, 0]).astype(Vpq.dtype) + Vpp \
        + B1 * pair(S, Vpq) + triple
    return (block + H(block)) / 2.0


# The series runs in powers of (V/gap)^2, and ||H4|| / ||H2|| estimates that
# ratio.  Above 1/4 the omitted 6th order, about the ratio times H4, is no
# longer small against the 4th order that carries J4, so the point is
# refused.  The default beta_c grid peaks at 0.14.  A ratio below the
# threshold does not make J4 right: at beta_c 0.43 it is 0.07, and the
# 4th-order J4 has the wrong sign there (README).
MAX_ORDER_RATIO = 0.25


def _trace_free_norms(h):
    """Spectral norm of the trace-free part of each Hermitian matrix in the
    stack h: its largest |eigenvalue|, so no SVD is needed."""
    n = h.shape[-1]
    h = h - np.trace(h, axis1=-2, axis2=-1)[..., None, None] / n * np.eye(n)
    return np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)


def _check_convergence(h2, h4):
    """Refuse a low block whose trace-free 4th-order part h4 exceeds
    MAX_ORDER_RATIO of its trace-free 2nd-order part h2 (spectral norms)."""
    n2, n4 = _trace_free_norms(np.array([h2, h4]))
    if n4 > MAX_ORDER_RATIO * n2:
        raise RuntimeError(
            f"SWT series not converged: ||H4||/||H2|| = {n4 / n2:.3g} "
            f"> {MAX_ORDER_RATIO}")


def numerical_swt(u, qubits, coupler: OperatorMatrix):
    """Numerical 4th-order SWT in the exact coupler eigenbasis.

    Takes the product space in the bare frame from hamiltonian.bare_frame:
    the diagonal h0 (qubit splittings + exact coupler levels) and the
    interaction V (direct pair term + qubit-coupler term) by its Kronecker
    factors, written from the same qubit configurations that assemble_full
    reads.  Partitions it on coupler ground vs rest, runs the generator
    recursion, rotates the 16x16 low block with the configurations' R into
    the persistent-current frame and Pauli-decomposes it: (h_eff, couplings).
    """
    e_c, phi_c = coupler_eigenbasis(coupler, u)

    if np.min(e_c[1:]) <= max(q.omega for q in qubits):
        raise RuntimeError("gap collapse: coupler gap below qubit splitting, "
                           "SWT convergence lost")

    h0, V, R = bare_frame(qubits, u, e_c, phi_c)
    h_eff = R.T @ swt_effective_block(h0, *V) @ R
    return h_eff, ising_couplings(h_eff)


def _spread(values):
    """Largest minus smallest entry of a float array, in plain floats."""
    values = values.tolist()
    return max(values) - min(values)


def ising_couplings(h_eff) -> CouplingStrengths:
    """Coupling strengths of a 16x16 effective Hamiltonian (pc frame).

    J1, J2 and J3 are the means over qubits, pairs and triples of the
    pauli_decompose coefficients, with their spreads in diagnostics;
    diagnostics["omega_eff"] holds the dressed transverse splittings and the
    residual is the non-Ising norm.
    """
    model, residual = pauli_decompose(h_eff)
    return CouplingStrengths(
        J1=_mean(model.J1), J2=_mean(model.J2), J3=_mean(model.J3),
        J4=float(model.J4), shift=float(model.shift), residual=residual,
        diagnostics={"J1_spread": _spread(model.J1),
                     "J2_spread": _spread(model.J2),
                     "J3_spread": _spread(model.J3),
                     "omega_eff": model.omega})


def _pauli_coefficients(A):
    """tr(P^H A) / 16 for every string P = s_0 (x) s_1 (x) s_2 (x) s_3 of a
    16x16 array, as a complex (4, 4, 4, 4) array indexed over "IXYZ".

    A butterfly over one qubit at a time, qubit 0 first (Hantzko, Binkowski
    & Gupta, arXiv:2310.13421): the 2x2 block t of that qubit's row and
    column bits gives I = t00 + t11, X = t01 + t10, Y = i (t01 - t10) and
    Z = t00 - t11.  Each coefficient is the sum of the same two terms, in the
    same qubit order, as a contraction with the Pauli matrices
    (tests/toys.py), so it has the same value; only a zero part of a string
    with a Y may differ in sign, and no model field reads such a string.
    """
    # axes (row bit, column bit) of qubit 0, then of qubits 1, 2, 3
    T = np.asarray(A, dtype=complex).reshape((2,) * 8).transpose(
        0, 4, 1, 5, 2, 6, 3, 7)
    for _ in range(4):
        T = T.reshape(2, 2, -1)
        t00, t01, t10, t11 = T[0, 0], T[0, 1], T[1, 0], T[1, 1]
        out = np.empty(t00.shape + (4,), dtype=complex)
        np.add(t00, t11, out=out[:, 0])
        np.add(t01, t10, out=out[:, 1])
        np.multiply(1j, np.subtract(t01, t10, out=out[:, 2]), out=out[:, 2])
        np.subtract(t00, t11, out=out[:, 3])
        T = out
    return T.reshape((4,) * 4) / 16.0


def pauli_decompose(h_eff):
    """Pauli-string reading of a 16x16 Hermitian array, an effective
    Hamiltonian in the pc frame (anything else is refused).

    Returns (IsingModel, residual): each model field read from its
    hamiltonian.ISING_STRINGS coefficients, and the norm of every string
    outside that table (hamiltonian.NON_ISING) as the non-Ising residual.
    The residual sums |c|^2 over those strings in C order as a left-to-right
    loop does, with no pairwise or compensated summation, so that it keeps
    its bits (the CSVs are byte-stable).  Each |c|^2 is numpy's correctly rounded square, where Python's
    abs(c) ** 2 calls C pow, which misses it in the last bit for about one
    value in two thousand; the sum moved by one ulp on 2 of 3000 random
    complex Hermitian arrays and on none of 330 real symmetric ones.
    """
    A = np.asarray(h_eff)
    if A.shape != (16, 16):
        raise ValueError("need a 16x16 effective Hamiltonian")
    check_hermitian(A)
    c = _pauli_coefficients(A)
    fields = {name: c[index].real / factor
              for name, (index, factor) in ISING_STRINGS.items()}
    residual = np.sqrt(16.0 * np.cumsum(np.abs(c[NON_ISING]) ** 2)[-1])
    return IsingModel(**fields), float(residual)
