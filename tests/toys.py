"""Small exactly-solvable toy systems shared between test modules."""

import numpy as np
from scipy.optimize import brentq
from scipy.special import binom, gammaln

from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.hamiltonian import (PAIRS, OperatorMatrix, build_coupler,
                                     build_qubit_bare, coupler_phase, kron_all,
                                     qubit_phase, reduce_qubit)
from fluxcoupler.swt import (A2, B1, B3, C1_CONSTANT, SwtPrefactors,
                             _cross_block_gaps, pauli_decompose,
                             swt_effective_block)

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])


def delta_form_couplings(p: SwtPrefactors):
    """Simplified 4th-order couplings written in the gap Delta_10.

    J4 = 24 g^4/D^3;  J3 = -6 K g^3/D^3;
    J2 = g_qbqb - 2 (1 - K/(4D) - c~ K^2/D^2) g^2/D + 40 g^4/D^3
    with c~ ~= 122 (same surd combination as C1_CONSTANT, normalized by 24);
    J1 = -(628 + 24 sqrt 3) K^3 g / D^3 - 12 K g^3 / D^3.
    Used for the term-by-term consistency check against analytic_couplings.
    """
    g, K, D = p.g_qb_c, p.K_corr, p.omega_c
    c_tilde = C1_CONSTANT * 55296.0 / 24.0
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
    block0 = np.asarray(block0, dtype=bool)
    gaps = _cross_block_gaps(energies, block0)
    p, q = np.flatnonzero(block0), np.flatnonzero(~block0)
    out = np.zeros_like(x, dtype=x.dtype)
    out[np.ix_(p, q)] = x[np.ix_(p, q)] / gaps
    out[np.ix_(q, p)] = x[np.ix_(q, p)] / -gaps.T
    return out


def _block_split(x, block0):
    od_mask = np.logical_xor.outer(block0, block0)
    xd = x.copy()
    xd[od_mask] = 0.0
    xod = x - xd
    return xd, xod


def dense_swt_effective_block(h0_diag, V, block0):
    """The 4th-order SWT recursion with full-size dense commutators.

    The reference for swt.swt_effective_block, which carries the same
    recursion in block form:
      S1 = L(V_od)
      S2 = -L([V_d, S1])
      S3 = -L([V_d, S2]) + a2 L([S1, [S1, V_od]])
    Effective low block:
      P (H0 + V) P + b1 P [S1+S2+S3, V_od] P + b3 P [S1,[S1,[S1,V_od]]] P.
    """
    block0 = np.asarray(block0, dtype=bool)
    Vd, Vod = _block_split(V, block0)

    def comm(A, B):
        return A @ B - B @ A

    S1 = linear_map_L(Vod, h0_diag, block0)
    S2 = -linear_map_L(comm(Vd, S1), h0_diag, block0)
    S3 = -linear_map_L(comm(Vd, S2), h0_diag, block0) \
        + A2 * linear_map_L(comm(S1, comm(S1, Vod)), h0_diag, block0)
    for S in (S1, S2, S3):
        assert np.linalg.norm(S + S.conj().T) < 1e-12 * max(np.linalg.norm(S), 1.0)
    # P V_od P vanishes by construction, so the first-order low block is Vd
    Heff = np.diag(h0_diag).astype(V.dtype) + Vd \
        + B1 * comm(S1 + S2 + S3, Vod) \
        + B3 * comm(S1, comm(S1, comm(S1, Vod)))
    low = np.where(block0)[0]
    block = Heff[np.ix_(low, low)]
    return (block + block.conj().T) / 2.0


def one_qubit_toy_error(alpha_eff, phi_cx=0.05, phi_jx=0.005, beta_c=0.2,
                        n_c=30):
    """|| H_eff - exact low block || for a single qubit + exact coupler.

    The coupling strength is E * alpha_eff * phi2 * phi_c; the exact low block
    comes from symmetric (Loewdin) orthonormalization of the projected exact
    eigenvectors, which matches the block-off-diagonal-generator convention of
    the engine.  Small flux biases keep the comparison generic: at the exactly
    symmetric point parity selection cancels all odd expansion orders.
    """
    u = derive_unitless(reference_circuit(beta_c=beta_c))
    u.phi_cx = phi_cx
    u.phi_jx = np.full(4, phi_jx)
    q = reduce_qubit(build_qubit_bare(u, 0, 50), qubit_phase(u, 0, 50))
    c = build_coupler(u, n_c)
    ev_c, vec_c = np.linalg.eigh(c.data)
    e_c = ev_c - ev_c[0]
    phi_c = vec_c.T @ coupler_phase(u, n_c).data @ vec_c
    h0 = np.concatenate([np.diag(q.h2)[0] + e_c, np.diag(q.h2)[1] + e_c])
    V = np.kron(q.phi2, phi_c) * u.E_Ltilde_c * alpha_eff
    block0 = np.array([(i % n_c) == 0 for i in range(2 * n_c)])
    h_eff = swt_effective_block(h0, V, block0)

    H = np.diag(h0) + V
    ev, vec = np.linalg.eigh(H)
    w = np.sum(vec[block0, :] ** 2, axis=0)
    idx = np.argsort(w)[::-1][:2]
    W = vec[:, idx][block0, :]
    gw, gv = np.linalg.eigh(W.T @ W)
    X = W @ gv @ np.diag(gw ** -0.5) @ gv.T
    h_exact = X @ np.diag(ev[idx]) @ X.T
    return np.linalg.norm(h_eff - h_exact)


# The interaction written term by term as Kronecker products of the 2 x 2
# phi operators: the reference for hamiltonian.qubit_configurations, which
# both product-space builders read.
def add_interaction(H, qubits, phi_c, u):
    """Add E_Ltilde_c [sum_{i<j} alpha_i alpha_j phi_i phi_j
    + sum_j alpha_j phi_j phi_c] onto the product-space matrix H, in place.

    The direct term runs over each unordered pair once.  Both sums are
    formed on the 16 qubit states first, so H receives two Kronecker
    products with the coupler.  Returns H.
    """
    def on_qubits(slot_ops):
        ops = [_I2] * 4
        for slot, op in slot_ops:
            ops[slot] = op
        return kron_all(ops)

    alpha = [float(a) for a in u.alpha]
    phi = [q.phi2 for q in qubits]
    direct = sum(alpha[i] * alpha[j] * on_qubits([(i, phi[i]), (j, phi[j])])
                 for i, j in PAIRS)
    force = sum(alpha[j] * on_qubits([(j, phi[j])]) for j in range(4))
    E = u.E_Ltilde_c
    H += np.kron(E * direct, np.eye(phi_c.shape[0]))
    H += np.kron(E * force, phi_c)
    return H


def linear_coupler_toy(g, delta, omega=0.0, n_c=25):
    """Four qubits linearly coupled to one harmonic mode, through the engine.

    In the persistent-current frame: H0 = sum_j (omega/2) X_j + delta a^dag a
    and V = g sum_j Z_j (a + a^dag).  The engine works in the energy basis
    (H0 diagonal, coupling operator = flip); the returned low block is rotated
    back to the pc frame before Pauli decomposition.

    For omega = 0 the model is exactly solvable by a coupler displacement:
    E(z) = -g^2 (sum_j z_j)^2 / delta, pure constant + two-local content.

    Returns (model dict, residual) from the Pauli decomposition.
    """
    dims = 16 * n_c
    h0 = np.zeros(dims)
    for idx in range(dims):
        c, rem = idx % n_c, idx // n_c
        bits = [(rem >> (3 - j)) & 1 for j in range(4)]
        h0[idx] = omega * sum(bits) + delta * c
    a = np.zeros((n_c, n_c))
    k = np.arange(1, n_c)
    a[k - 1, k] = np.sqrt(k)
    x = a + a.T
    ops0 = [_I2] * 4 + [np.eye(n_c)]

    # pc-frame Z_j is the flip operator in the qubit energy basis
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    V = np.zeros((dims, dims))
    for j in range(4):
        ops = list(ops0)
        ops[j] = flip
        ops[4] = g * x
        V += kron_all(ops)
    block0 = np.array([(i % n_c) == 0 for i in range(dims)])
    block = swt_effective_block(h0, V, block0)
    # rotate energy basis -> pc frame (Hadamard per qubit maps flip -> Z)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    U = kron_all([had] * 4)
    h_eff = OperatorMatrix(U.T @ block @ U, "ising_pc", (2, 2, 2, 2))
    return pauli_decompose(h_eff)


def _genlaguerre_matrix(lo, k, x):
    """L_lo^k(x) elementwise over the integer arrays lo and k.

    The three-term recurrence of scipy's eval_genlaguerre for integer
    degree, with p = L_j^k / binom(j+k, j), run over the whole array at
    once: step j holds for the elements with lo > j.
    """
    k = k.astype(float)
    d = -x / (k + 1.0)
    p = d + 1.0
    for j in range(1, int(np.max(lo, initial=0))):
        step = j < lo
        d_next = -x / (j + k + 1.0) * p + (j / (j + k + 1.0)) * d
        d = np.where(step, d_next, d)
        p = np.where(step, p + d, p)
    return np.select([lo == 0, lo == 1], [1.0, -x + k + 1.0],
                     binom(lo + k, lo) * p)


def displacement_matrix(n, r):
    """Matrix elements <m| exp(i r (a^dag + a)) |n| on the truncated space.

    Closed form via generalized Laguerre polynomials:
    <m|D|n> = i^{|m-n|} sqrt(min!/max!) r^{|m-n|} e^{-r^2/2} L_min^{|m-n|}(r^2)
    for the displacement-type operator with purely imaginary argument.
    The reference for oscillator.cosine_matrix, which equals
    ((E + E^H)/2).real bit for bit.
    """
    idx = np.arange(n)
    M, N = np.meshgrid(idx, idx, indexing="ij")
    lo = np.minimum(M, N)
    hi = np.maximum(M, N)
    k = hi - lo
    lag = _genlaguerre_matrix(lo, k, r * r)
    if r == 0.0:
        amp = (k == 0).astype(float)
    else:
        amp = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
                     + k * np.log(r) - r * r / 2.0)
    return (1j) ** k * amp * lag


def brentq_well_minimum(beta, alpha=0.0):
    """Double-well minimum by scipy.optimize.brentq and one Newton polish.

    The reference for oscillator.find_well_minimum, whose port of Brent's
    method gives the same bits; only for beta > 1 + alpha^2.
    """
    c = 1.0 + alpha**2

    def f(phi):
        return c * phi - beta * np.sin(phi)

    phi_p = brentq(f, 1e-9, np.pi - 1e-9, xtol=1e-15, rtol=8.9e-16)
    for _ in range(3):
        step = f(phi_p) / (c - beta * np.cos(phi_p))
        phi_p -= step
        if abs(step) < 1e-15:
            break
    return phi_p
