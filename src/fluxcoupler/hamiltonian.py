"""Operator assembly.

Bare coupler and qubit Hamiltonians in truncated oscillator bases, the
two-level qubit reduction, the 4-qubit (x) coupler product-space Hamiltonian,
and the generalized Ising model (known 16-level spectra).

The product space is laid out qubits first (qubit 0 slowest) and coupler
index fastest.  This module is the only one that builds operators on it, and
it writes the interaction once, on the 16 persistent-current configurations z
of the qubits (qubit_configurations).  The numerical SWT reads it in the bare
frame: each qubit in its energy basis, the coupler in its own eigenbasis
(coupler_eigenbasis, bare_frame).  The spectral path (assemble_full) reads it
in a coupler basis adapted to each z: the displaced coupler states chi_n(z) of
Irish, PRL 99, 173601 (2007), kept per configuration as a local basis
reduction.

All assembled operators carry units of Hz (energy/h).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .oscillator import ladder, cosine_matrix

PAIRS = list(itertools.combinations(range(4), 2))
TRIPLES = list(itertools.combinations(range(4), 3))

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.diag([1.0, -1.0])
_PAULIS = np.array([_I2, _X, _Y, _Z])   # in the order of the names "IXYZ"
# the persistent-current states of (omega/2) X by column, in its energy basis
# (ground state first, as reduce_qubit orders it)
_HAD = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


@dataclass
class AdaptedBasis:
    """The frame of a product-space operator: a coupler basis per qubit
    configuration z, seen from the bare frame (qubit energy basis x full
    coupler eigenbasis).  Basis state (z, n) is rotation[:, z] (x)
    states[z, :, n], n = 0 coupler-ground.  assemble_full keeps n_keep
    displaced states chi_n(z); the Ising model keeps one, states = 1."""
    rotation: np.ndarray   # (16, 16) persistent-current states z, by column
    states: np.ndarray     # (16, n_c, n_keep) kept coupler states chi_n(z)

    def isometry(self):
        """Matrix whose columns are the basis states in the bare frame."""
        n_c, n_keep = self.states.shape[1:]
        return np.einsum("az,zcn->aczn", self.rotation, self.states).reshape(
            16 * n_c, 16 * n_keep)


@dataclass
class OperatorMatrix:
    data: np.ndarray
    basis: str            # 'oscillator', 'product' or 'ising_pc'
    dims: tuple           # subsystem dimensions, product equals matrix size
    # the product space the operator is written in, which eigendecompose
    # reads; None for oscillator operators and effective Hamiltonians
    frame: AdaptedBasis = None

    def __post_init__(self):
        self.data = np.asarray(self.data)
        n = self.data.shape[0]
        if self.data.shape != (n, n):
            raise ValueError("operator must be square")
        if int(np.prod(self.dims)) != n:
            raise ValueError("basis dims inconsistent with matrix dimension")
        check_hermitian(self.data)


def check_hermitian(A):
    """Raise ValueError unless ||A - A^H||_F <= 1e-12 max(||A||_F, 1)."""
    if np.linalg.norm(A - A.conj().T) > 1e-12 * max(np.linalg.norm(A), 1.0):
        raise ValueError("operator not Hermitian within tolerance")


def kron_all(ops):
    out = ops[0]
    for o in ops[1:]:
        out = np.kron(out, o)
    return out


def _oscillator_ops(xi, stiffness, n_trunc):
    """Quadratic-part oscillator basis for H/E_L = 4 xi^2 q^2/2 + stiffness phi^2/2.

    Returns (number operator contribution as the diagonal harmonic part, phi).
    The harmonic frequency is 2 xi sqrt(stiffness) and the phi matrix scale is
    r = sqrt(xi / sqrt(stiffness)).
    """
    w0 = 2.0 * xi * np.sqrt(stiffness)
    r = np.sqrt(xi / np.sqrt(stiffness))
    a = ladder(n_trunc)
    phi = r * (a + a.T)
    h_harm = w0 * np.diag(np.arange(n_trunc) + 0.5)
    return h_harm, phi, r


def build_coupler(u, n_trunc=40):
    """Bare coupler H_c = E_Ltilde_c (4 xi_c^2 q^2/2 + (phi - phi_cx)^2/2 + beta_c cos phi).

    Expressed in the oscillator basis of the quadratic part.  Refuses
    beta_c >= 1 (the harmonic expansion frame is invalid there).
    """
    if u.beta_c >= 1:
        raise ValueError("beta_c >= 1: coupler harmonic frame invalid")
    if n_trunc < 10:
        raise ValueError("n_trunc >= 10 required for the coupler")
    h_harm, phi, r = _oscillator_ops(u.xi_c, 1.0, n_trunc)
    h = h_harm + u.beta_c * cosine_matrix(n_trunc, r) \
        - u.phi_cx * phi + 0.5 * u.phi_cx**2 * np.eye(n_trunc)
    return OperatorMatrix(u.E_Ltilde_c * h, "oscillator", (n_trunc,))


def coupler_phase(u, n_trunc=40):
    """phi operator of the coupler in the same oscillator basis as build_coupler."""
    _, phi, _ = _oscillator_ops(u.xi_c, 1.0, n_trunc)
    return OperatorMatrix(phi, "oscillator", (n_trunc,))


def build_qubit_bare(u, j, n_trunc=50):
    """Bare qubit H_j = E_Lj (4 xi^2 q^2/2 + (1+alpha^2)(phi - phi_jx)^2/2 + beta cos phi)."""
    xi = float(u.xi_j[j])
    alpha = float(u.alpha[j])
    beta = float(u.beta_j[j])
    phi_x = float(u.phi_jx[j])
    if beta <= 1:
        raise ValueError("beta_j <= 1: no double well, qubit regime violated")
    c = 1.0 + alpha**2
    h_harm, phi, r = _oscillator_ops(xi, c, n_trunc)
    h = h_harm + beta * cosine_matrix(n_trunc, r) \
        - c * phi_x * phi + 0.5 * c * phi_x**2 * np.eye(n_trunc)
    return OperatorMatrix(float(u.E_Lj[j]) * h, "oscillator", (n_trunc,))


def qubit_phase(u, j, n_trunc=50):
    """phi operator of qubit j, matching build_qubit_bare's basis."""
    c = 1.0 + float(u.alpha[j])**2
    _, phi, _ = _oscillator_ops(float(u.xi_j[j]), c, n_trunc)
    return OperatorMatrix(phi, "oscillator", (n_trunc,))


@dataclass
class ReducedQubit:
    h2: np.ndarray          # 2x2, Hz, trace removed, diagonal in energy basis
    phi2: np.ndarray        # 2x2 phase operator in the same basis
    omega: float            # splitting (Hz)


def reduce_qubit(h: OperatorMatrix, phi: OperatorMatrix) -> ReducedQubit:
    """Project a bare qubit onto its two lowest eigenstates.

    The eigenvector gauge is fixed so the off-diagonal phi element is real and
    non-negative, making all downstream coupling signs deterministic.
    """
    ev, vec = np.linalg.eigh(h.data)
    v2 = vec[:, :2]
    phi2 = v2.T @ phi.data @ v2
    if phi2[0, 1] < 0:
        v2 = v2 @ np.diag([1.0, -1.0])
        phi2 = v2.T @ phi.data @ v2
    h2 = np.diag(ev[:2] - np.mean(ev[:2]))
    return ReducedQubit(h2=h2, phi2=phi2, omega=float(ev[1] - ev[0]))


def coupler_eigenbasis(coupler: OperatorMatrix, u):
    """Coupler levels (Hz, relative to the ground level) and the coupler phase
    phi_c in the coupler eigenbasis."""
    ev, vec = np.linalg.eigh(coupler.data)
    phi_c = vec.T @ coupler_phase(u, coupler.dims[0]).data @ vec
    return ev - ev[0], phi_c


def _configuration_sum(x):
    """sum_j x[j, z_j] for the 16 qubit states z, qubit 0 slowest."""
    out = x[0]
    for row in x[1:]:
        out = np.add.outer(out, row).ravel()
    return out


def qubit_configurations(qubits, u):
    """The qubits' side of the product space, which both builders read:
    the interaction E_Ltilde_c [sum_{i<j} alpha_i alpha_j phi_i phi_j
    + sum_j alpha_j phi_j phi_c] on the 16 persistent-current configurations
    z (qubit 0 slowest), on which every phi_j is diagonal.

    Returns (R, h_pc, force, direct): R = R_0 (x) ... (x) R_3, whose column z
    is configuration z in the qubit energy basis; h_pc (4, 2, 2), each
    qubit's h2 in its pc basis; force, the coupler force lambda(z) =
    E_Ltilde_c sum_j alpha_j phi_j(z_j); direct, the pair energy of z with
    each unordered pair once.  The columns of R_j are the eigenvectors of
    phi2 (descending eigenvalue: right-well state first), gauge-fixed to
    positive largest components.
    """
    R = []
    for q in qubits:
        v = np.linalg.eigh(q.phi2)[1][:, ::-1]
        R.append(v * np.sign(v[np.abs(v).argmax(axis=0), [0, 1]]))
    a_phi = np.asarray(u.alpha, dtype=float)[:, None] * np.array(
        [np.diag(r.T @ q.phi2 @ r) for r, q in zip(R, qubits)])
    h_pc = np.array([r.T @ q.h2 @ r for r, q in zip(R, qubits)])
    x = _configuration_sum(a_phi)
    E = u.E_Ltilde_c
    # sum_{i<j} x_i x_j = ((sum_j x_j)^2 - sum_j x_j^2) / 2
    direct = 0.5 * E * (x**2 - _configuration_sum(a_phi**2))
    return kron_all(R), h_pc, E * x, direct


def bare_frame(qubits, u, e_c, phi_c):
    """The product-space Hamiltonian in the bare frame (each qubit in its
    energy basis, the coupler in its eigenbasis: levels e_c, phase phi_c),
    split into the diagonal h0 = sum_j H_j + H_c and the interaction
        V = (R diag(direct) R^T) (x) 1 + (R diag(force) R^T) (x) phi_c
    of qubit_configurations.  Returns (h0, V, R)."""
    R, _, force, direct = qubit_configurations(qubits, u)
    h0 = np.add.outer(_configuration_sum([np.diag(q.h2) for q in qubits]), e_c)
    V = np.kron(R @ (direct[:, None] * R.T), np.eye(e_c.size))
    V += np.kron(R @ (force[:, None] * R.T), phi_c)
    return h0.ravel(), V, R


# the 32 configuration pairs (z, z') that differ in qubit j only, z_j = 0,
# and that qubit's index j
_FLIPS = [(z, z | 1 << (3 - j), j) for j in range(4) for z in range(16)
          if not z >> (3 - j) & 1]
_FLIP_LO, _FLIP_HI, _FLIP_QUBIT = (np.array(c) for c in zip(*_FLIPS))


def assemble_full(qubits, coupler: OperatorMatrix, u, n_keep=8):
    """Product-space Hamiltonian on 2^4 x n_keep dimensions.

    H = sum_j H_j + H_c
        + E_Ltilde_c [ sum_{i<j} alpha_i alpha_j phi_i phi_j
                       + sum_j alpha_j phi_c phi_j ]
    with each qubit in its two-level reduction.  Qubits are written in the
    persistent-current basis, where phi_j is diagonal with eigenvalues
    phi_j(z_j).  For each of the 16 configurations z the coupler is
    diagonalized under the static force of the qubits,
        H_c + lambda(z) phi_c,   lambda(z) = E_Ltilde_c sum_j alpha_j phi_j(z_j),
    in the full coupler eigenbasis, and its lowest n_keep states chi_n(z)
    are kept.  The block of z carries their energies (relative to the bare
    coupler ground level), the direct pair term and the qubits' diagonal
    terms; blocks z, z' that differ in qubit j only are coupled by that
    qubit's transverse term times the overlaps <chi_n(z)|chi_m(z')>.

    The returned operator carries the persistent-current rotations and the
    chi_n(z) as .frame, its change of basis to the bare frame (qubit energy
    basis x coupler eigenbasis).
    """
    if len(qubits) != 4:
        raise ValueError("need exactly four reduced qubits")
    n_c = coupler.dims[0]
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
    if n_keep > n_c:
        raise ValueError("n_keep exceeds coupler truncation")
    e_c, phi_c = coupler_eigenbasis(coupler, u)
    R, h_pc, force, direct = qubit_configurations(qubits, u)
    shift = direct + _configuration_sum(np.diagonal(h_pc, axis1=1, axis2=2))

    eps, chi = np.linalg.eigh(np.diag(e_c) + force[:, None, None] * phi_c)
    eps, chi = eps[:, :n_keep], chi[:, :, :n_keep]

    z = np.arange(16)
    H = np.zeros((16, n_keep, 16, n_keep))
    H[z, :, z, :] = np.eye(n_keep) * (eps + shift[:, None])[:, None, :]
    hop = h_pc[_FLIP_QUBIT, 0, 1][:, None, None] * (
        chi[_FLIP_LO].transpose(0, 2, 1) @ chi[_FLIP_HI])
    H[_FLIP_LO, :, _FLIP_HI, :] = hop
    H[_FLIP_HI, :, _FLIP_LO, :] = hop.transpose(0, 2, 1)
    return OperatorMatrix(H.reshape(16 * n_keep, 16 * n_keep), "product",
                          (2, 2, 2, 2, n_keep),
                          frame=AdaptedBasis(R, chi))


@dataclass
class IsingModel:
    """Generalized Ising target model in the persistent-current frame.

    The bare terms are diagonal in the qubit energy basis (omega/2 X-type in
    the persistent-current basis), the couplings are Z strings.
    """
    omega: np.ndarray            # (4,) Hz
    J1: np.ndarray               # (4,) Hz
    J2: np.ndarray               # (6,) Hz, pair order PAIRS
    J3: np.ndarray               # (4,) Hz, triple order TRIPLES
    J4: float                    # Hz
    shift: float = 0.0           # global offset (Hz)

    @classmethod
    def symmetric(cls, omega, J1=0.0, J2=0.0, J3=0.0, J4=0.0, shift=0.0):
        return cls(omega=np.full(4, float(omega)), J1=np.full(4, float(J1)),
                   J2=np.full(6, float(J2)), J3=np.full(4, float(J3)),
                   J4=float(J4), shift=float(shift))


def _on(pauli, support):
    """Index tuple over "IXYZ", qubit 0 first, of the string with `pauli` on
    the qubits of `support` and I elsewhere."""
    return tuple(pauli if q in support else 0 for q in range(4))


# The generalized Ising model's Pauli strings: for each IsingModel field, the
# index tuples of its entries' strings (one tuple for a scalar field) and the
# factor each entry carries in H.  Both directions read it:
# assemble_ising_model writes H from a model, swt.pauli_decompose reads a
# model back, indexing a (4, 4, 4, 4) array of string coefficients with
# tuple(np.transpose(strings)).
ISING_STRINGS = {
    "omega": ([_on(1, (q,)) for q in range(4)], 0.5),
    "J1": ([_on(3, (q,)) for q in range(4)], 1.0),
    "J2": ([_on(3, pair) for pair in PAIRS], 1.0),
    "J3": ([_on(3, triple) for triple in TRIPLES], 1.0),
    "J4": (_on(3, range(4)), 1.0),
    "shift": (_on(0, ()), 1.0),
}


def assemble_ising_model(m: IsingModel) -> OperatorMatrix:
    """16x16 matrix of the generalized Ising model, persistent-current basis:
    the sum of its ISING_STRINGS with their coefficients.

    Its frame is the product space with one coupler state: each qubit's
    persistent-current states carried to its energy basis by _HAD, so every
    level is coupler-ground.
    """
    c = np.zeros((4,) * 4)
    for name, (strings, factor) in ISING_STRINGS.items():
        c[tuple(np.transpose(strings))] = factor * getattr(m, name)
    # no Y string is in the table, so H is real
    H = np.einsum("ijkl,iab,jcd,kef,lgh->acegbdfh", c, *[_PAULIS] * 4,
                  optimize=True).real.reshape(16, 16)
    return OperatorMatrix(H, "ising_pc", (2, 2, 2, 2),
                          frame=AdaptedBasis(kron_all([_HAD] * 4),
                                             np.ones((16, 1, 1))))
