"""Small exactly-solvable toy systems shared between test modules."""

import importlib.util
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import binom, gammaln

from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.hamiltonian import (ISING_STRINGS, NON_ISING, PAIRS,
                                     IsingModel, OperatorMatrix,
                                     ReducedQubit, build_coupler,
                                     build_qubit_bare, check_hermitian,
                                     kron_all, qubit_phase,
                                     reduce_qubit, _PAULIS, _pc_states)
from fluxcoupler.oscillator import _margin, ladder
from fluxcoupler.swt import (A2, B1, B3, C1_CONSTANT, SwtPrefactors,
                             _check_convergence, ising_couplings,
                             pauli_decompose, swt_effective_block)

_I2 = np.eye(2)
_Z = np.diag([1.0, -1.0])


def _load_layers():
    """tools/layers.py, which imports only the standard library at module
    level: the timing harness and the tests build the same perturbed chip."""
    path = Path(__file__).resolve().parents[1] / "tools" / "layers.py"
    spec = importlib.util.spec_from_file_location("layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perturbed_circuit = _load_layers().perturbed_circuit


# The coupler and the qubit each written out as its own formula, with no
# memo anywhere: the reference for hamiltonian._rf_squid, through which
# build_coupler, build_qubit_bare and qubit_phase give the same bits.  The
# references below take their coupler phase from written_out_coupler, so
# they share no phase code with the library.
def _oscillator_ops(xi, stiffness, n_trunc):
    """Harmonic part, phi and its scale r of the oscillator basis of
    4 xi^2 q^2/2 + stiffness phi^2/2."""
    w0 = 2.0 * xi * np.sqrt(stiffness)
    r = np.sqrt(xi / np.sqrt(stiffness))
    a = ladder(n_trunc)
    phi = r * (a + a.T)
    h_harm = w0 * np.diag(np.arange(n_trunc) + 0.5)
    return h_harm, phi, r


def written_out_coupler(u, n_trunc):
    """(H_c, phi_c): E_Ltilde_c (4 xi_c^2 q^2/2 + (phi - phi_cx)^2/2
    + beta_c cos phi) and its phase, in the oscillator basis."""
    h_harm, phi, r = _oscillator_ops(u.xi_c, 1.0, n_trunc)
    h = h_harm + u.beta_c * memo_free_cosine(n_trunc, r) \
        - u.phi_cx * phi + 0.5 * u.phi_cx**2 * np.eye(n_trunc)
    return u.E_Ltilde_c * h, phi


def written_out_qubit(u, j, n_trunc):
    """(H_j, phi_j): E_Lj (4 xi^2 q^2/2 + (1+alpha^2)(phi - phi_jx)^2/2
    + beta cos phi) and its phase, in the oscillator basis."""
    alpha = float(u.alpha[j])
    phi_x = float(u.phi_jx[j])
    c = 1.0 + alpha**2
    h_harm, phi, r = _oscillator_ops(float(u.xi_j[j]), c, n_trunc)
    h = h_harm + float(u.beta_j[j]) * memo_free_cosine(n_trunc, r) \
        - c * phi_x * phi + 0.5 * c * phi_x**2 * np.eye(n_trunc)
    return float(u.E_Lj[j]) * h, phi


def written_out_reduction(h, phi):
    """reduce_qubit's two-level reduction of the bare qubit h with phase phi
    (arrays), gauge rules and all, with numpy's own reductions: the energy
    gauge flips the second state and forms v2^T phi v2 a second time, the
    two-product form whose bits reduce_qubit's sign vector keeps."""
    ev, vec = np.linalg.eigh(h)
    v2 = vec[:, :2]
    if (v2.T @ phi @ v2)[0, 1] < 0:
        v2 = v2 @ np.diag([1.0, -1.0])
    phi2 = v2.T @ phi @ v2
    return ReducedQubit(h2=np.diag(ev[:2] - np.mean(ev[:2])), phi2=phi2,
                        omega=float(ev[1] - ev[0]), pc=signed_pc(phi2))


def signed_pc(phi2):
    """The eigenvectors of phi2 by column, descending, the first with
    non-negative components and the second signed so that det = +1."""
    v = np.linalg.eigh(phi2)[1][:, ::-1]
    v = v * np.sign(v[:, 0].sum())
    if np.linalg.det(v) < 0:
        v = v * np.array([1.0, -1.0])
    return v


def memo_free_system(u, trunc):
    """analysis.build_system's (qubits, coupler) from the written-out
    formulas, each qubit built and reduced on its own."""
    qubits = [written_out_reduction(*written_out_qubit(u, j,
                                                       trunc.qubit_states))
              for j in range(4)]
    return qubits, OperatorMatrix(written_out_coupler(
        u, trunc.coupler_states)[0])


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


def cross_block_gaps(energies, block0):
    """E_p - E_q for p in the low block (boolean mask block0, rows) and q
    outside it (columns), picked by two mask copies: the reference for
    swt._cross_block_gaps, which reads them from the (z, n) layout.

    Cross-block pairs closer than 1e-12 of the largest |energy| raise.
    """
    energies = np.asarray(energies, dtype=float)
    gaps = energies[block0][:, None] - energies[~block0][None, :]
    scale = np.max(np.abs(energies)) or 1.0
    if np.any(np.abs(gaps) < 1e-12 * scale):
        raise ZeroDivisionError(
            "degenerate cross-block energies: L map undefined")
    return gaps


def linear_map_L(x, energies, block0):
    """The superoperator L of the SWT recursion.

    Element (i, j) of the block-off-diagonal part of x divided by
    (E_i - E_j); block-diagonal elements are zeroed.  block0 is the boolean
    mask of the low-energy block.  Degenerate cross-block energies raise.
    """
    block0 = np.asarray(block0, dtype=bool)
    gaps = cross_block_gaps(energies, block0)
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
    """The 4th-order SWT recursion with full-size dense commutators, on a
    dense V and any low block (boolean mask block0).

    The reference for swt.swt_effective_block, which carries the same
    recursion in block form, with V = A (x) 1 + F (x) phi_c by its factors
    and the low block the coupler ground state of each configuration:
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


def two_product_swt_effective_block(h0_diag, A, F, phi_c):
    """swt.swt_effective_block as it was written before each Hermitian pair
    Y Z^H + Z Y^H came from one product: both products formed, and X
    forming S1 Vpq^H again.  The reference whose bits the one-product form
    keeps on real operands."""
    for factor in (A, F, phi_c):
        check_hermitian(factor)
    n_z, n_c = len(A), len(phi_c)
    block0 = np.arange(len(h0_diag)) % n_c == 0
    G = cross_block_gaps(h0_diag, block0)
    phi_qq = phi_c[1:, 1:]
    Vpp = A + phi_c[0, 0] * F
    Vpq = (F[:, :, None] * phi_c[0, 1:]).reshape(n_z, -1)

    def H(Y):
        return Y.conj().T

    def times_Vqq(Y):
        # Y V_QQ for a PQ block Y read as (z, z', n): A and F act on z',
        # phi_qq on n
        Y = Y.reshape(n_z, n_z, n_c - 1)
        return (A.T @ Y + (F.T @ Y) @ phi_qq).reshape(n_z, -1)

    S1 = Vpq / G
    S2 = -(Vpp @ S1 - times_Vqq(S1)) / G
    # [S1, V_od] has the PP block W and the QQ block -S1^H Vpq - Vpq^H S1
    W = S1 @ H(Vpq) + Vpq @ H(S1)
    X = -(S1 @ H(S1)) @ Vpq - (S1 @ H(Vpq)) @ S1 - W @ S1
    S3 = (-(Vpp @ S2 - times_Vqq(S2)) + A2 * X) / G
    S = S1 + S2 + S3
    triple = B3 * (S1 @ H(X) + X @ H(S1))
    # the 2nd-order low block is b1 W, the 4th-order one b1 [S3, V_od] + triple
    _check_convergence(B1 * W, B1 * (S3 @ H(Vpq) + Vpq @ H(S3)) + triple)
    # P V_od P vanishes by construction, so the first-order low block is V_PP
    block = np.diag(np.asarray(h0_diag)[block0]).astype(Vpq.dtype) + Vpp \
        + B1 * (S @ H(Vpq) + Vpq @ H(S)) + triple
    return (block + H(block)) / 2.0


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
    phi_c = vec_c.T @ written_out_coupler(u, n_c)[1] @ vec_c
    h0 = np.concatenate([np.diag(q.h2)[0] + e_c, np.diag(q.h2)[1] + e_c])
    F = q.phi2 * u.E_Ltilde_c * alpha_eff
    h_eff = swt_effective_block(h0, np.zeros((2, 2)), F, phi_c)

    H = np.diag(h0) + np.kron(F, phi_c)
    block0 = np.arange(2 * n_c) % n_c == 0
    ev, vec = np.linalg.eigh(H)
    w = np.sum(vec[block0, :] ** 2, axis=0)
    idx = np.argsort(w)[::-1][:2]
    W = vec[:, idx][block0, :]
    gw, gv = np.linalg.eigh(W.T @ W)
    X = W @ gv @ np.diag(gw ** -0.5) @ gv.T
    h_exact = X @ np.diag(ev[idx]) @ X.T
    return np.linalg.norm(h_eff - h_exact)


def pc_rotation(qubits):
    """R = R_0 (x) ... (x) R_3, each qubit's persistent-current states
    decided from its own phi2 in one loop by signed_pc.  The reference for
    the R of hamiltonian._QubitSide, which reads ReducedQubit.pc."""
    return kron_all([signed_pc(q.phi2) for q in qubits])


def isometry(frame):
    """The basis states of an AdaptedBasis by column in the bare frame
    (qubit energy basis x coupler eigenbasis), column (z, n) written out as
    the Kronecker product rotation[:, z] (x) states[z, :, n]: the dense
    reference for the readings that take the frame's factors."""
    n_z, _, n_keep = frame.states.shape
    return np.column_stack([np.kron(frame.rotation[:, z], frame.states[z, :, n])
                            for z in range(n_z) for n in range(n_keep)])


def einsum_pauli_coefficients(A):
    """tr(P^H A) / 16 for every Pauli string P of a 16x16 array, as one
    contraction with the complex Pauli matrices, qubit 0 first."""
    subscripts = "iab,jcd,kef,lgh,acegbdfh->ijkl"
    paulis = [_PAULIS.conj()] * 4
    A = np.asarray(A).reshape((2,) * 8)
    path = np.einsum_path(subscripts, *paulis, A, optimize=True)[0]
    return np.einsum(subscripts, *paulis, A, optimize=path) / 16.0


def einsum_pauli_decompose(h_eff):
    """(IsingModel, residual) of a 16x16 array from
    einsum_pauli_coefficients, with the residual's strings summed in C order
    by a left-to-right loop.  The reference whose bits swt.pauli_decompose
    keeps."""
    c = einsum_pauli_coefficients(h_eff)
    fields = {name: c[index].real / factor
              for name, (index, factor) in ISING_STRINGS.items()}
    total = 0.0
    for v in c[NON_ISING]:
        total += abs(complex(v)) ** 2
    return IsingModel(**fields), float(np.sqrt(16.0 * total))


# The interaction written term by term as Kronecker products of the 2 x 2
# phi operators: the reference for the force and direct pair energy of
# hamiltonian._QubitSide, which both product-space builders read.
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

    # pc-frame Z_j is the flip operator in the qubit energy basis, so
    # V = (g sum_j flip_j) (x) (a + a^dag)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    F = g * sum(kron_all([flip if i == j else _I2 for i in range(4)])
                for j in range(4))
    block = swt_effective_block(h0, np.zeros((16, 16)), F, x)
    # rotate energy basis -> pc frame (Hadamard per qubit maps flip -> Z)
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    U = kron_all([had] * 4)
    return pauli_decompose(U.T @ block @ U)


def dense_bare_frame_couplings(u, k, n_c, qubit_states=50,
                               coupler_states=40):
    """Couplings with k levels kept per qubit, from one dense eigh in the
    bare frame: the reference for a k-level builder (Kafri et al., PRA 95,
    052333 (2017)).

    Each qubit keeps the k lowest levels of its qubit_states-level bare
    build, gauged so that phi[0, m] >= 0 (the sign vector of
    reduce_qubit); the coupler keeps the n_c lowest eigenstates of its
    coupler_states-level build.  The full interaction
    E_Ltilde_c [sum_{i<j} alpha_i alpha_j phi_i phi_j
    + sum_j alpha_j phi_j phi_c] is added and the k^4 n_c states are
    diagonalized at once.  The manifold is the 16 lowest levels whose
    weight on {0, 1}^4, summed over every coupler state, exceeds 0.5; they
    are projected onto {0, 1}^4 (x) coupler ground, orthogonalized
    symmetrically, rotated by each qubit's _pc_states of its 2 x 2 block
    and read by swt.ising_couplings.
    """
    levels, phases = [], []
    for j in range(4):
        ev, vec = np.linalg.eigh(build_qubit_bare(u, j, qubit_states).data)
        v = vec[:, :k]
        phi = v.T @ qubit_phase(u, j, qubit_states).data @ v
        s = np.where(phi[0] < 0, -1.0, 1.0)
        s[0] = 1.0
        levels.append(ev[:k])
        phases.append(phi * np.multiply.outer(s, s))
    ev_c, vec_c = np.linalg.eigh(build_coupler(u, coupler_states).data)
    vec_c = vec_c[:, :n_c]
    phi_c = vec_c.T @ written_out_coupler(u, coupler_states)[1] @ vec_c

    def on_qubit(j, op):
        ops = [np.eye(k)] * 4
        ops[j] = op
        return kron_all(ops)

    x = [float(u.alpha[j]) * on_qubit(j, phases[j]) for j in range(4)]
    qubit_part = sum(on_qubit(j, np.diag(levels[j])) for j in range(4)) \
        + u.E_Ltilde_c * sum(x[i] @ x[j] for i, j in PAIRS)
    H = np.kron(qubit_part, np.eye(n_c)) \
        + np.kron(np.eye(k**4), np.diag(ev_c[:n_c])) \
        + np.kron(u.E_Ltilde_c * sum(x), phi_c)
    energies, vectors = np.linalg.eigh(H)
    vectors = vectors.reshape((k,) * 4 + (n_c, -1))
    low = vectors[:2, :2, :2, :2]
    weights = np.sum(low**2, axis=(0, 1, 2, 3, 4))
    manifold = np.flatnonzero(weights > 0.5)[:16]
    if len(manifold) < 16:
        raise ValueError(f"only {len(manifold)} levels weigh more than 0.5 "
                         "on {0, 1}^4")
    B = low[..., 0, manifold].reshape(16, 16)
    U, _, Wt = np.linalg.svd(B)
    T = U @ Wt
    R = kron_all([_pc_states(phi[:2, :2]) for phi in phases])
    return ising_couplings(R.T @ (T * energies[manifold]) @ T.T @ R)


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
    An independent reference for oscillator.cosine_matrix, which agrees
    with ((E + E^H)/2).real to 1e-13.
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
    # i^k from a table: numpy's (1j) ** k leaves exact multiplication at
    # k = 100 (4.4e-15 + 1j at k = 101); below that it gives these bits
    return np.array([1, 1j, -1, -1j])[k % 4] * amp * lag


def quadrature_cosine(n, r, size):
    """cos(r (a^dag + a)) on n levels by Gauss-Hermite quadrature on size
    levels, the eigendecomposition of a + a^dag made afresh: the nodes x
    and eigenvectors V give V[:n] diag(cos(r x)) V[:n]^T, its odd distances
    set to zero and symmetrised."""
    a = ladder(size)
    nodes, vectors = np.linalg.eigh(a + a.T)
    w = vectors[:n]
    C = (w * np.cos(r * nodes)) @ w.T
    C[(np.arange(n)[:, None] + np.arange(n)) % 2 == 1] = 0.0
    return 0.5 * (C + C.T)


def memo_free_cosine(n, r):
    """quadrature_cosine on n + _margin(n, r) levels (the identity at
    r = 0): the reference oscillator.cosine_matrix, which memoises the
    decomposition, equals bit for bit."""
    if r == 0.0:
        return np.eye(n)
    return quadrature_cosine(n, r, n + _margin(n, r))


def brentq_well_minimum(beta, alpha=0.0):
    """Double-well minimum by scipy.optimize.brentq and one Newton polish.

    An independent reference for oscillator.find_well_minimum, which runs
    Newton's method alone; only for beta > 1 + alpha^2.
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
