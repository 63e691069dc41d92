"""Schrieffer-Wolff engine.

Closed-form analytic coupling strengths from the quartic-truncated coupler,
the numerical 4th-order SWT in the exact coupler eigenbasis, and the
Pauli-string decomposition of effective Hamiltonians that every numerical
branch reads its couplings from (ising_couplings).

The numerical SWT carries its generator recursion in block form: only the
low-low, low-high and high-low blocks it needs, plus the one high-high block
of [S1, V_od], so its products are 16 x 624 by 624 x 624 on the 640-state
circuit instead of dense 640 x 640 commutators.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from .hamiltonian import (OperatorMatrix, PAIRS, TRIPLES, add_interaction,
                          coupler_eigenbasis, kron_all, pc_rotations,
                          unperturbed_diagonal, _I2, _X, _Z)

_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_PAULIS = np.array([_I2, _X, _Y, _Z])   # in the order of the names "IXYZ"


@dataclass
class CouplingStrengths:
    J1: float
    J2: float
    J3: float
    J4: float
    shift: float
    provenance: str           # 'spectral_fit' | 'analytic_swt' | 'numerical_swt'
    residual: float = 0.0     # non-Ising norm (numerical branches)
    diagnostics: dict = field(default_factory=dict)


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


@dataclass(frozen=True)
class SwtCoefficients:
    b1: float
    b3: float
    a2: float


def swt_coefficients() -> SwtCoefficients:
    """Generator-series constants from the Bernoulli-number formulas.

    b_{2n-1} = 2 (2^{2n} - 1) B_{2n} / (2n)!   and   a_n = 2^n B_n / n!.
    Evaluates to b1 = 1/2, a2 = 1/3, b3 = -1/24; asserted, not hard-coded.
    """
    def b_odd(n):
        return 2 * (2 ** (2 * n) - 1) * _bernoulli(2 * n) / factorial(2 * n)

    def a(n):
        return 2 ** n * _bernoulli(n) / factorial(n)

    b1, b3, a2 = b_odd(1), b_odd(2), a(2)
    assert b1 == Fraction(1, 2) and a2 == Fraction(1, 3) and b3 == Fraction(-1, 24)
    return SwtCoefficients(b1=float(b1), b3=float(b3), a2=float(a2))


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
    alpha = float(np.mean(u.alpha))
    s = well.s
    m_c = 1.0 / (4.0 * E * u.xi_c**2)
    omega_c = 2.0 * E * u.xi_c * np.sqrt(1.0 - u.beta_c)
    eps = alpha * s
    g = E * eps / np.sqrt(2.0 * m_c * omega_c)
    K = E * u.beta_c / (96.0 * m_c**2 * omega_c**2)
    return SwtPrefactors(g_qb_c=g, g_qb_qb=E * eps**2, K_corr=K, m_c=m_c,
                         omega_c=omega_c, epsilon=eps)


C1_CONSTANT = (1689.0 + 1060.0 * np.sqrt(2.0) - 82.0 * np.sqrt(6.0)
               - 12.0 * np.sqrt(30.0)) / 55296.0


def analytic_couplings(u, well):
    """Closed-form 4th-order coupling strengths (identical qubits).

    J4 = 3 E (alpha s)^4 / (xi_c (1-beta_c)^{5/2})
    J3 = -E (alpha s)^3 beta_c sqrt(xi_c) / (32 (1-beta_c)^3)
    J2 = E (alpha s)^2 [ 1 - 1/(1-beta_c) + beta_c xi_c / (2 (1-beta_c)^{5/2})
                         + c1 beta_c^2 xi_c^2/(1-beta_c)^4
                         + 5 (alpha s)^2 / (xi_c (1-beta_c)^{5/2}) ]
    J1 from the quartic-vertex expression; all diverge as beta_c -> 1.
    """
    if u.beta_c >= 1:
        raise ValueError("beta_c >= 1: analytic couplings diverge")
    E = u.E_Ltilde_c
    b = u.beta_c
    xi = u.xi_c
    eps = float(np.mean(u.alpha)) * well.s
    omb = 1.0 - b
    J4 = 3.0 * E * eps**4 / (xi * omb**2.5)
    J3 = -E * eps**3 * b * np.sqrt(xi) / (32.0 * omb**3)
    J2 = E * eps**2 * (1.0 - 1.0 / omb + 0.5 * b * xi / omb**2.5
                       + C1_CONSTANT * b**2 * xi**2 / omb**4
                       + 5.0 * eps**2 / (xi * omb**2.5))
    p = swt_prefactors(u, well)
    g, K, d = p.g_qb_c, p.K_corr, p.omega_c
    J1 = -(628.0 + 24.0 * np.sqrt(3.0)) * K**3 * g / d**3 - 12.0 * K * g**3 / d**3
    diag = {"epsilon": eps, "gap_ratio": p.omega_c / max(E * eps, 1e-300)}
    if eps >= 1:
        raise ValueError("epsilon = alpha*s >= 1: series has no small parameter")
    return CouplingStrengths(J1=float(J1), J2=float(J2), J3=float(J3),
                             J4=float(J4), shift=0.0, provenance="analytic_swt",
                             diagnostics=diag)


def _cross_block_gaps(energies, block0):
    """E_p - E_q for p in the low block (rows) and q outside it (columns).

    Cross-block pairs closer than 1e-12 of the largest |energy| raise.
    """
    energies = np.asarray(energies, dtype=float)
    gaps = energies[block0][:, None] - energies[~block0][None, :]
    scale = np.max(np.abs(energies)) or 1.0
    if np.any(np.abs(gaps) < 1e-12 * scale):
        raise ZeroDivisionError(
            "degenerate cross-block energies: L map undefined")
    return gaps


# block names of block-off-diagonal and block-diagonal operators, with P the
# low block and Q the rest
_OFF = ("PQ", "QP")
_DIAG = ("PP", "QQ")


def _block_commutator(A, B, blocks):
    """The named blocks of [A, B], for A and B given as {block name: array}
    with the blocks they lack equal to zero."""
    def product(X, Y, ik):
        i, k = ik
        return sum(X[i + j] @ Y[j + k] for j in "PQ"
                   if i + j in X and j + k in Y)

    return {ik: product(A, B, ik) - product(B, A, ik) for ik in blocks}


def swt_effective_block(h0_diag, V, block0):
    """4th-order SWT effective Hamiltonian on the low block.

    h0_diag: unperturbed diagonal energies; V: perturbation; block0: boolean
    mask of the low-energy block P (Q is the rest).  Generator:
      S1 = L(V_od)
      S2 = -L([V_d, S1])
      S3 = -L([V_d, S2]) + a2 L([S1, [S1, V_od]])
    Effective low block:
      P (H0 + V) P + b1 P [S1+S2+S3, V_od] P + b3 P [S1,[S1,[S1,V_od]]] P.

    Every operator is carried in block form (Bravyi, DiVincenzo & Loss,
    Ann. Phys. 326, 2793 (2011)): the block-off-diagonal ones (V_od, S1, S2,
    S3 and the nested commutators) as their PQ and QP blocks, the
    block-diagonal ones (V_d, [S1, V_od]) as their PP and QQ blocks.  So no
    product is larger than |P| x |Q| by |Q| x |Q|, 2 |P| |Q|^2 flops; with
    |P| = 16 of 640 states the recursion costs about 0.1 Gflop, where dense
    640 x 640 commutators cost 8.4.
    """
    coeffs = swt_coefficients()
    block0 = np.asarray(block0, dtype=bool)
    gaps = _cross_block_gaps(h0_diag, block0)
    index = {"P": np.flatnonzero(block0), "Q": np.flatnonzero(~block0)}
    Vd = {b: V[np.ix_(index[b[0]], index[b[1]])] for b in _DIAG}
    Vod = {b: V[np.ix_(index[b[0]], index[b[1]])] for b in _OFF}

    def L(x):
        return {"PQ": x["PQ"] / gaps, "QP": x["QP"] / -gaps.T}

    S1 = L(Vod)
    S2 = {b: -x for b, x in L(_block_commutator(Vd, S1, _OFF)).items()}
    # [S1, [S1, V_od]], shared by S3 and the b3 term
    S1S1V = _block_commutator(S1, _block_commutator(S1, Vod, _DIAG), _OFF)
    T, U = L(_block_commutator(Vd, S2, _OFF)), L(S1S1V)
    S3 = {b: -T[b] + coeffs.a2 * U[b] for b in _OFF}
    for S in (S1, S2, S3):
        # ||S + S^H||_F, whose PQ and QP blocks have equal norms
        skew = np.sqrt(2.0) * np.linalg.norm(S["PQ"] + S["QP"].conj().T)
        size = np.hypot(np.linalg.norm(S["PQ"]), np.linalg.norm(S["QP"]))
        assert skew < 1e-12 * max(size, 1.0)
    # P V_od P vanishes by construction, so the first-order low block is V_PP
    S = {b: S1[b] + S2[b] + S3[b] for b in _OFF}
    block = np.diag(np.asarray(h0_diag)[block0]).astype(V.dtype) + Vd["PP"] \
        + coeffs.b1 * _block_commutator(S, Vod, ("PP",))["PP"] \
        + coeffs.b3 * _block_commutator(S1, S1S1V, ("PP",))["PP"]
    return (block + block.conj().T) / 2.0


def numerical_swt(u, qubits, coupler: OperatorMatrix):
    """Numerical 4th-order SWT in the exact coupler eigenbasis.

    Builds the 16 x n_trunc product space with the diagonal unperturbed part
    (qubit splittings + exact coupler levels) and the full interaction
    (direct pair term + qubit-coupler term), block-partitions on coupler
    ground vs rest, runs the generator recursion, and Pauli-decomposes the
    resulting 16x16 low block in the persistent-current frame.
    """
    n_c = coupler.dims[0]
    e_c, phi_c = coupler_eigenbasis(coupler, u, n_c)

    omega = np.array([q.omega for q in qubits])
    if np.min(e_c[1:]) <= np.max(omega):
        raise RuntimeError("gap collapse: coupler gap below qubit splitting, "
                           "SWT convergence lost")

    h0 = unperturbed_diagonal(qubits, e_c)
    V = add_interaction(np.zeros((h0.size, h0.size)), qubits, phi_c, u)
    block0 = np.arange(h0.size) % n_c == 0
    block = swt_effective_block(h0, V, block0)

    # rotate each qubit from its energy basis to the persistent-current basis
    U = kron_all(pc_rotations(qubits))
    h_pc = U.conj().T @ block @ U
    h_eff = OperatorMatrix(h_pc, "ising_pc", (2, 2, 2, 2))
    return h_eff, ising_couplings(h_eff, "numerical_swt")


def ising_couplings(h_eff: OperatorMatrix, provenance) -> CouplingStrengths:
    """Coupling strengths of a 16x16 effective Hamiltonian (pc frame).

    J1, J2 and J3 are the means over qubits, pairs and triples of the
    pauli_decompose coefficients, with their spreads in diagnostics;
    diagnostics["omega_eff"] holds the dressed transverse splittings and the
    residual is the non-Ising norm.
    """
    model, residual = pauli_decompose(h_eff)
    return CouplingStrengths(
        J1=float(np.mean(model["J1"])), J2=float(np.mean(model["J2"])),
        J3=float(np.mean(model["J3"])), J4=float(model["J4"]),
        shift=float(model["shift"]), provenance=provenance,
        residual=residual,
        diagnostics={"J1_spread": float(np.ptp(model["J1"])),
                     "J2_spread": float(np.ptp(model["J2"])),
                     "J3_spread": float(np.ptp(model["J3"])),
                     "omega_eff": model["omega"]})


def pauli_decompose(h_eff: OperatorMatrix):
    """Pauli-string reading of a 16x16 effective Hamiltonian (pc frame).

    Returns per-string Z coefficients (J1 per qubit, J2 per pair, J3 per
    triple, J4), the bare transverse fields (weight-1 X strings), the global
    shift, and the norm of everything else as the non-Ising residual.
    """
    A = h_eff.data
    if A.shape != (16, 16):
        raise ValueError("need a 16x16 effective Hamiltonian")
    # tr(P^H A) / 16 for every string P = s_0 (x) s_1 (x) s_2 (x) s_3, with
    # A's row and column indices split into one bit per qubit
    c = np.einsum("iab,jcd,kef,lgh,acegbdfh->ijkl", *[_PAULIS.conj()] * 4,
                  A.reshape((2,) * 8), optimize=True) / 16.0
    coeffs = {"".join(combo): complex(c[idx]) for idx, combo in zip(
        np.ndindex(c.shape), itertools.product("IXYZ", repeat=4))}

    def string_with(op, positions):
        sym = ["I"] * 4
        for p in positions:
            sym[p] = op
        return "".join(sym)

    shift = coeffs["IIII"].real
    J1 = np.array([coeffs[string_with("Z", (i,))].real for i in range(4)])
    J2 = np.array([coeffs[string_with("Z", p)].real for p in PAIRS])
    J3 = np.array([coeffs[string_with("Z", t)].real for t in TRIPLES])
    J4 = coeffs["ZZZZ"].real
    omega = 2.0 * np.array([coeffs[string_with("X", (i,))].real for i in range(4)])
    ising_keys = {"IIII", "ZZZZ"}
    ising_keys.update(string_with("Z", (i,)) for i in range(4))
    ising_keys.update(string_with("Z", p) for p in PAIRS)
    ising_keys.update(string_with("Z", t) for t in TRIPLES)
    ising_keys.update(string_with("X", (i,)) for i in range(4))
    residual = np.sqrt(16.0 * sum(abs(v) ** 2 for k, v in coeffs.items()
                                  if k not in ising_keys))
    model = {"shift": shift, "J1": J1, "J2": J2, "J3": J3, "J4": J4,
             "omega": omega}
    return model, float(residual)
