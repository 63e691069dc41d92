"""Schrieffer-Wolff engine.

Closed-form analytic coupling strengths from the quartic-truncated coupler,
the numerical 4th-order SWT in the exact coupler eigenbasis, and the
Pauli-string decomposition of effective Hamiltonians that every numerical
branch reads its couplings from (ising_couplings).
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
    delta_n0: np.ndarray  # coupler excitation energies n * Delta_10 (Hz)


def swt_prefactors(u, well, n_levels=9) -> SwtPrefactors:
    """Analytic-branch vertex strengths for the quartic-truncated coupler.

    m_c = 1/(4 E xi_c^2), omega_c = 2 E xi_c sqrt(1-beta_c),
    g = E alpha s / sqrt(2 m_c omega_c), K = E beta_c / (96 m_c^2 omega_c^2).
    The harmonic ladder gives Delta_n0 = n Delta_10.
    """
    E = u.E_Ltilde_c
    alpha = float(np.mean(u.alpha))
    s = well.s
    m_c = 1.0 / (4.0 * E * u.xi_c**2)
    omega_c = 2.0 * E * u.xi_c * np.sqrt(1.0 - u.beta_c)
    eps = alpha * s
    g = E * eps / np.sqrt(2.0 * m_c * omega_c)
    K = E * u.beta_c / (96.0 * m_c**2 * omega_c**2)
    delta = omega_c * np.arange(n_levels)
    return SwtPrefactors(g_qb_c=g, g_qb_qb=E * eps**2, K_corr=K, m_c=m_c,
                         omega_c=omega_c, epsilon=eps, delta_n0=delta)


# surd sum shared by C1_CONSTANT and the c~ of delta_form_couplings
_SURD_SUM = (1689.0 + 1060.0 * np.sqrt(2.0) - 82.0 * np.sqrt(6.0)
             - 12.0 * np.sqrt(30.0))
C1_CONSTANT = _SURD_SUM / 55296.0


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


def delta_form_couplings(p: SwtPrefactors):
    """Simplified 4th-order couplings written in the gap Delta_10.

    J4 = 24 g^4/D^3;  J3 = -6 K g^3/D^3;
    J2 = g_qbqb - 2 (1 - K/(4D) - c~ K^2/D^2) g^2/D + 40 g^4/D^3
    with c~ ~= 122 (same surd combination as C1_CONSTANT, normalized by 24);
    J1 = -(628 + 24 sqrt 3) K^3 g / D^3 - 12 K g^3 / D^3.
    Used for the term-by-term consistency check against analytic_couplings.
    """
    g, K, D = p.g_qb_c, p.K_corr, p.omega_c
    c_tilde = _SURD_SUM / 24.0
    J4 = 24.0 * g**4 / D**3
    J3 = -6.0 * K * g**3 / D**3
    J2 = p.g_qb_qb - 2.0 * (1.0 - K / (4.0 * D) - c_tilde * K**2 / D**2) * g**2 / D \
        + 40.0 * g**4 / D**3
    J1 = -(628.0 + 24.0 * np.sqrt(3.0)) * K**3 * g / D**3 - 12.0 * K * g**3 / D**3
    return {"J1": J1, "J2": J2, "J3": J3, "J4": J4}


def linear_map_L(x, energies, block0):
    """The superoperator L of the SWT recursion.

    Element (i, j) of the block-off-diagonal part of x divided by
    (E_i - E_j); block-diagonal elements are zeroed.  block0 is the boolean
    mask of the low-energy block.  Degenerate cross-block energies raise.
    """
    energies = np.asarray(energies, dtype=float)
    block0 = np.asarray(block0, dtype=bool)
    od = np.logical_xor.outer(block0, block0)
    dE = energies[:, None] - energies[None, :]
    scale = np.max(np.abs(energies)) or 1.0
    if np.any(np.abs(dE[od]) < 1e-12 * scale):
        raise ZeroDivisionError(
            "degenerate cross-block energies: L map undefined")
    out = np.zeros_like(x, dtype=x.dtype)
    out[od] = x[od] / dE[od]
    return out


def _block_split(x, block0):
    od_mask = np.logical_xor.outer(block0, block0)
    xd = x.copy()
    xd[od_mask] = 0.0
    xod = x - xd
    return xd, xod


def swt_effective_block(h0_diag, V, block0, coeffs=None):
    """4th-order SWT effective Hamiltonian on the low block.

    h0_diag: unperturbed diagonal energies; V: perturbation; block0: boolean
    mask of the low-energy block.  Generator:
      S1 = L(V_od)
      S2 = -L([V_d, S1])
      S3 = -L([V_d, S2]) + a2 L([S1, [S1, V_od]])
    Effective low block:
      P (H0 + V) P + b1 P [S1+S2+S3, V_od] P + b3 P [S1,[S1,[S1,V_od]]] P.
    """
    if coeffs is None:
        coeffs = swt_coefficients()
    block0 = np.asarray(block0, dtype=bool)
    Vd, Vod = _block_split(V, block0)

    def comm(A, B):
        return A @ B - B @ A

    S1 = linear_map_L(Vod, h0_diag, block0)
    S2 = -linear_map_L(comm(Vd, S1), h0_diag, block0)
    S3 = -linear_map_L(comm(Vd, S2), h0_diag, block0) \
        + coeffs.a2 * linear_map_L(comm(S1, comm(S1, Vod)), h0_diag, block0)
    for S in (S1, S2, S3):
        assert np.linalg.norm(S + S.conj().T) < 1e-12 * max(np.linalg.norm(S), 1.0)
    # P V_od P vanishes by construction, so the first-order low block is Vd
    Heff = np.diag(h0_diag).astype(V.dtype) + Vd \
        + coeffs.b1 * comm(S1 + S2 + S3, Vod) \
        + coeffs.b3 * comm(S1, comm(S1, comm(S1, Vod)))
    low = np.where(block0)[0]
    block = Heff[np.ix_(low, low)]
    return (block + block.conj().T) / 2.0


def numerical_swt(u, qubits, coupler: OperatorMatrix, order=4):
    """Numerical 4th-order SWT in the exact coupler eigenbasis.

    Builds the 16 x n_trunc product space with the diagonal unperturbed part
    (qubit splittings + exact coupler levels) and the full interaction
    (direct pair term + qubit-coupler term), block-partitions on coupler
    ground vs rest, runs the generator recursion, and Pauli-decomposes the
    resulting 16x16 low block in the persistent-current frame.
    """
    if order != 4:
        raise ValueError("only the 4th-order expansion is implemented")
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
    paulis = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}
    coeffs = {}
    for combo in itertools.product("IXYZ", repeat=4):
        op = kron_all([paulis[c] for c in combo])
        coeffs["".join(combo)] = complex(np.trace(op.conj().T @ A) / 16.0)

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
