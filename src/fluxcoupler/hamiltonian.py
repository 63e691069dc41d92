"""Operator assembly.

Bare coupler and qubit Hamiltonians, each the one rf-SQUID loop of _rf_squid
on the parameters _loop reads, the memoised two-level qubit reduction
(_reduced_qubit), the memoised qubit side of the interaction (_qubit_side),
the 4-qubit (x) coupler product-space Hamiltonian, and the generalized Ising
model.

The product space is laid out qubits first (qubit 0 slowest, as its
Kronecker products write it) and coupler index fastest.  This module is the
only one that builds operators on it, and it writes the interaction once, on
the qubits' 16 persistent-current configurations z (_QubitSide,
each qubit's pc basis from reduce_qubit).  The numerical SWT reads it in the
bare frame, by Kronecker factors: each qubit in its energy basis, the coupler
in its own eigenbasis (coupler_eigenbasis, bare_frame).  The spectral path
(assemble_full) reads it in a coupler basis adapted to each z: the displaced
coupler states chi_n(z) of Irish, PRL 99, 173601 (2007), kept per
configuration as a local basis reduction.

All assembled operators carry units of Hz (energy/h).  Operators, their
frames and reduced qubits are read-only; an OperatorMatrix is checked
Hermitian once, when made.
"""

import functools
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


@dataclass(frozen=True)
class AdaptedBasis:
    """The frame of a product-space operator: a coupler basis per qubit
    configuration z, seen from the bare frame (qubit energy basis x full
    coupler eigenbasis).  Basis state (z, n) is rotation[:, z] (x)
    states[z, :, n], n = 0 coupler-ground.  assemble_full keeps n_keep
    displaced states chi_n(z); the Ising model keeps one, states = 1.
    Read-only, as the operator that carries it."""
    rotation: np.ndarray   # (n_z, n_z) persistent-current states z, by column
    states: np.ndarray     # (n_z, n_c, n_keep) kept coupler states chi_n(z)

    def __post_init__(self):
        for a in (self.rotation, self.states):
            a.setflags(write=False)

    def isometry(self):
        """Matrix whose columns are the basis states in the bare frame."""
        n_z, n_c, n_keep = self.states.shape
        return np.einsum("az,zcn->aczn", self.rotation, self.states).reshape(
            n_z * n_c, n_z * n_keep)


@dataclass(frozen=True)
class OperatorMatrix:
    """A square Hermitian matrix, checked once when made; data is read-only."""
    data: np.ndarray
    # the product space the operator is written in, which eigendecompose
    # reads; None for oscillator operators
    frame: AdaptedBasis = None

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data))
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError("operator must be square")
        check_hermitian(self.data)
        self.data.setflags(write=False)


def _frobenius(A):
    """||A||_F as np.linalg.norm computes it, without its dispatch."""
    x = A.ravel(order="K")
    if x.dtype.kind == "c":
        return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(x.dot(x))


def check_hermitian(A):
    """Raise ValueError unless ||A - A^H||_F <= 1e-12 max(||A||_F, 1), which
    a NaN entry never satisfies."""
    A = np.asarray(A)
    tol = 1e-12 * max(_frobenius(A), 1.0)
    if not _frobenius(A - A.conj().T) <= tol:
        raise ValueError("operator not Hermitian within tolerance")


def _mean(values):
    """np.mean of a short float array, bit for bit, in plain floats: numpy
    adds the values left to right onto +0.0 (no pairwise blocks below
    eight) and divides by their count.  A loop, not sum(), which Python
    3.12 compensates."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total / len(values)


def kron_all(ops):
    """ops[0] (x) ops[1] (x) ..., ops[0] slowest: the bits of np.kron's fold,
    each entry the same product ((a b) c) d, without its per-call cost."""
    out = ops[0]
    for op in ops[1:]:
        (r, c), (p, q) = out.shape, op.shape
        out = np.multiply.outer(out, op).transpose(0, 2, 1, 3).reshape(
            r * p, c * q)
    return out


def _kron_sum(ops):
    """sum_j 1 (x) ... (x) ops[j] (x) ... (x) 1, ops[0] slowest."""
    out = ops[0]
    for op in ops[1:]:
        n, m = len(out), len(op)
        out = (np.multiply.outer(out, np.eye(m)) + np.multiply.outer(
            np.eye(n), op)).transpose(0, 2, 1, 3).reshape(n * m, n * m)
    return out


@functools.cache
def _oscillator(n_trunc):
    """(a + a^dag, a^dag a + 1/2, 1) on n_trunc levels: the operators every
    rf-SQUID loop of that truncation is written in, built once per process,
    read-only."""
    a = ladder(n_trunc)
    ops = (a + a.T, np.diag(np.arange(n_trunc) + 0.5), np.eye(n_trunc))
    for op in ops:
        op.setflags(write=False)
    return ops


def _phase(xi, c, n_trunc):
    """phi = r (a + a^dag), r = sqrt(xi / sqrt(c)), in the oscillator basis
    of the quadratic part 4 xi^2 q^2/2 + c phi^2/2.  Returns (phi, r)."""
    r = np.sqrt(xi / np.sqrt(c))
    return r * _oscillator(n_trunc)[0], r


def _rf_squid(E_L, xi, c, beta, phi_x, n_trunc):
    """H = E_L (4 xi^2 q^2/2 + c (phi - phi_x)^2/2 + beta cos phi) in the
    oscillator basis of its quadratic part, harmonic frequency 2 xi sqrt(c)."""
    phi, r = _phase(xi, c, n_trunc)
    _, number, one = _oscillator(n_trunc)
    h = 2.0 * xi * np.sqrt(c) * number
    h += beta * cosine_matrix(n_trunc, r)
    h -= c * phi_x * phi
    h += 0.5 * c * phi_x**2 * one
    h *= E_L
    return OperatorMatrix(h)


def _loop(u, j=None):
    """(E_L, xi, c, beta, phi_x) of qubit j's rf-SQUID loop, c = 1 + alpha_j^2,
    or of the coupler's (j None), c = 1: all that its builders read of u."""
    if j is None:
        return (float(u.E_Ltilde_c), float(u.xi_c), 1.0, float(u.beta_c),
                float(u.phi_cx))
    return (float(u.E_Lj[j]), float(u.xi_j[j]), 1.0 + float(u.alpha[j])**2,
            float(u.beta_j[j]), float(u.phi_jx[j]))


def build_coupler(u, n_trunc):
    """Bare coupler H_c = E_Ltilde_c (4 xi_c^2 q^2/2 + (phi - phi_cx)^2/2 + beta_c cos phi).

    The rf-SQUID loop with c = 1.  Refuses beta_c >= 1 (the harmonic
    expansion frame is invalid there).
    """
    E_L, xi, c, beta, phi_x = _loop(u)
    if beta >= 1:
        raise ValueError("beta_c >= 1: coupler harmonic frame invalid")
    if n_trunc < 10:
        raise ValueError("n_trunc >= 10 required for the coupler")
    return _rf_squid(E_L, xi, c, beta, phi_x, n_trunc)


def build_qubit_bare(u, j, n_trunc):
    """Bare qubit H_j = E_Lj (4 xi^2 q^2/2 + c (phi - phi_jx)^2/2 + beta cos phi),
    the rf-SQUID loop with c = 1 + alpha^2; refuses E_Lj <= 0 and beta <= c
    (one well)."""
    E_L, xi, c, beta, phi_x = _loop(u, j)
    if not E_L > 0:
        raise ValueError("E_Lj must be strictly positive")
    if beta <= c:
        raise ValueError("no double well: beta <= 1 + alpha^2")
    return _rf_squid(E_L, xi, c, beta, phi_x, n_trunc)


def qubit_phase(u, j, n_trunc):
    """phi operator of qubit j, matching build_qubit_bare's basis."""
    return OperatorMatrix(_phase(*_loop(u, j)[1:3], n_trunc)[0])


@dataclass(frozen=True, eq=False)
class ReducedQubit:
    h2: np.ndarray          # 2x2, Hz, trace removed, diagonal in energy basis
    phi2: np.ndarray        # 2x2 phase operator in the same basis
    omega: float            # splitting (Hz)
    pc: np.ndarray          # 2x2 pc states by column, same basis

    def __post_init__(self):
        for a in (self.h2, self.phi2, self.pc):
            a.setflags(write=False)


def reduce_qubit(h: OperatorMatrix, phi: OperatorMatrix) -> ReducedQubit:
    """Project a bare qubit onto its two lowest eigenstates.

    Both bases are gauge-fixed, so all downstream coupling signs are
    deterministic: the energy basis so the off-diagonal phi element is real
    and non-negative, the persistent-current states as _pc_states does.
    The energy-basis gauge is a sign s_m per kept state, s_0 = 1 and
    s_m = -1 where phi[0, m] < 0, applied as phi2 * s s^T: an exact
    negation, with the bits of forming v^T phi v again from the flipped
    states.
    """
    ev, vec = np.linalg.eigh(h.data)
    v2 = vec[:, :2]
    phi2 = v2.T @ phi.data @ v2
    s = np.where(phi2[0] < 0, -1.0, 1.0)
    s[0] = 1.0
    phi2 *= np.multiply.outer(s, s)
    h2 = np.diag(ev[:2] - _mean(ev[:2]))
    return ReducedQubit(h2=h2, phi2=phi2, omega=float(ev[1] - ev[0]),
                        pc=_pc_states(phi2))


# The reduced qubits built in this process, by (n, _loop(u, j)), oldest first;
# past _REDUCED_MAX of them the oldest is evicted, so memory stays flat over
# chips that share no qubit.
_REDUCED = {}
_REDUCED_MAX = 64


def _reduced_qubit(u, j, n):
    """Qubit j reduced at truncation n, built once per key; read-only."""
    key = (n, _loop(u, j))
    if key not in _REDUCED:
        q = reduce_qubit(build_qubit_bare(u, j, n), qubit_phase(u, j, n))
        if len(_REDUCED) >= _REDUCED_MAX:
            del _REDUCED[next(iter(_REDUCED))]
        _REDUCED[key] = q
    return _REDUCED[key]


def _pc_states(phi2):
    """The persistent-current states of a 2x2 phi2 with phi2[0, 1] >= 0, by
    column: its eigenvectors, descending (right-well state first).  The
    right-well state's components share a sign, since phi2[0, 1] >= 0, and
    are made non-negative; the left-well state is signed so that det = +1.
    Neither sign is decided by comparing the components' sizes, which tie
    at a symmetric qubit."""
    pc = np.linalg.eigh(phi2)[1][:, ::-1]
    right = np.copysign(1.0, pc[0, 0] + pc[1, 0])
    det = right * (pc[0, 0] * pc[1, 1] - pc[1, 0] * pc[0, 1])
    return pc * np.array([right, np.copysign(1.0, det)])


def coupler_eigenbasis(coupler: OperatorMatrix, u):
    """Coupler levels (Hz, relative to the ground level) and the coupler phase
    phi_c in the coupler eigenbasis."""
    ev, vec = np.linalg.eigh(coupler.data)
    # build_coupler's phase, not made into a second checked OperatorMatrix
    phi_c = vec.T @ _phase(*_loop(u)[1:3], coupler.data.shape[0])[0] @ vec
    return ev - ev[0], phi_c


@functools.cache
def _configuration_index(count, levels):
    """(j, z_j) index arrays that pick x[j, z_j] for every configuration z
    of count qubits with levels each, qubit 0 slowest, as columns."""
    index = (np.arange(count)[:, None],
             np.indices((levels,) * count).reshape(count, -1))
    for a in index:
        a.setflags(write=False)
    return index


def _configuration_sum(x):
    """sum_j x[j, z_j] for the 16 qubit states z, qubit 0 slowest.  Each
    sum is taken over its terms sorted, so configurations that permute
    equal qubits get the same bits."""
    x = np.asarray(x)
    return np.sort(x[_configuration_index(*x.shape)], axis=0).sum(axis=0)


def _read_only(a):
    a.setflags(write=False)
    return a


class _QubitSide:
    """The qubits' side of the interaction, which both builders read:
    E_Ltilde_c [sum_{i<j} alpha_i alpha_j phi_i phi_j + sum_j alpha_j phi_j phi_c]
    on the 16 persistent-current configurations z (qubit 0 slowest), on
    which every phi_j is diagonal.

    Built with the side: R = pc_0 (x) ... (x) pc_3, whose column z is
    configuration z in the qubit energy basis; force, the coupler force
    lambda(z) = E_Ltilde_c sum_j alpha_j phi_j(z_j); direct, the pair energy
    of z with each unordered pair once.  Each on its first read: the
    configurations' qubit energies (the sums of their qubits' h2 diagonal
    entries), A = R diag(direct) R^T and F = R diag(force) R^T, which only
    bare_frame reads, and h_q, the Kronecker sum of each qubit's h2 in its
    pc basis, which only assemble_full reads.  Every field is read-only."""

    def __init__(self, qubits, u):
        self.qubits = tuple(qubits)
        a_phi = np.asarray(u.alpha, dtype=float)[:, None] * np.array(
            [np.diag(q.pc.T @ q.phi2 @ q.pc) for q in qubits])
        x = _configuration_sum(a_phi)
        E = u.E_Ltilde_c
        # sum_{i<j} x_i x_j = ((sum_j x_j)^2 - sum_j x_j^2) / 2
        direct = 0.5 * E * (x**2 - _configuration_sum(a_phi**2))
        self.R, self.force, self.direct = (_read_only(a) for a in (
            kron_all([q.pc for q in qubits]), E * x, direct))

    @functools.cached_property
    def energies(self):
        return _read_only(_configuration_sum(
            [np.diag(q.h2) for q in self.qubits]))

    @functools.cached_property
    def A(self):
        return _read_only(self.R @ (self.direct[:, None] * self.R.T))

    @functools.cached_property
    def F(self):
        return _read_only(self.R @ (self.force[:, None] * self.R.T))

    @functools.cached_property
    def h_q(self):
        return _read_only(_kron_sum([q.pc.T @ q.h2 @ q.pc
                                     for q in self.qubits]))


# The qubit side of the last qubit set read, by every value it reads: the
# bits of E_Ltilde_c and of alpha, and the read-only qubits themselves, which
# this entry holds, so no other qubit takes their identity.  One entry: a
# beta_c sweep holds one qubit set and a fabricated chip shares none.
_SIDE = {}


def _qubit_side(qubits, u):
    """The qubits' side of the interaction, built once per key; read-only."""
    key = (np.float64(u.E_Ltilde_c).tobytes(),
           np.asarray(u.alpha, dtype=float).tobytes(), *qubits)
    if key not in _SIDE:
        side = _QubitSide(qubits, u)
        _SIDE.clear()
        _SIDE[key] = side
    return _SIDE[key]


def bare_frame(qubits, u, e_c, phi_c):
    """The product-space Hamiltonian in the bare frame (each qubit in its
    energy basis, the coupler in its eigenbasis: levels e_c, phase phi_c),
    split into the diagonal h0 = sum_j H_j + H_c and the interaction
        V = A (x) 1 + F (x) phi_c,
        A = R diag(direct) R^T,  F = R diag(force) R^T
    of _QubitSide, carried by its factors and never formed.
    Returns (h0, (A, F, phi_c), R)."""
    side = _qubit_side(qubits, u)
    h0 = np.add.outer(side.energies, e_c)
    return h0.ravel(), (side.A, side.F, phi_c), side.R


def assemble_full(qubits, coupler: OperatorMatrix, u, n_keep):
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
    coupler ground level), the direct pair term and the diagonal h_q[z, z]
    of the qubits' own Hamiltonian h_q, the Kronecker sum of each qubit's h2
    in its pc basis; blocks z, z' with h_q[z, z'] != 0 (those that differ in
    one qubit) are coupled by it times the overlaps <chi_n(z)|chi_m(z')>.

    The returned operator carries the persistent-current rotations and the
    chi_n(z) as .frame, its change of basis to the bare frame (qubit energy
    basis x coupler eigenbasis).
    """
    if len(qubits) != 4:
        raise ValueError("need exactly four reduced qubits")
    n_c = coupler.data.shape[0]
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
    if n_keep > n_c:
        raise ValueError("n_keep exceeds coupler truncation")
    e_c, phi_c = coupler_eigenbasis(coupler, u)
    side = _qubit_side(qubits, u)
    R, force, direct, h_q = side.R, side.force, side.direct, side.h_q

    # one eigh per distinct force: equal forces give bitwise-equal matrices
    # (+0.0 and -0.0 too), so configurations that share a force share chi
    first = {}
    which = [first.setdefault(f, len(first)) for f in force.tolist()]
    coupler_z = np.array(list(first))[:, None, None] * phi_c
    coupler_z += np.diag(e_c)
    eps, chi = np.linalg.eigh(coupler_z)
    eps, chi = eps[which, :n_keep], chi[which, :, :n_keep]

    z = np.arange(len(R))
    H = np.zeros((len(R), n_keep, len(R), n_keep))
    H[z, :, z, :] = np.eye(n_keep) * (
        eps + (direct + np.diag(h_q))[:, None])[:, None, :]
    lo, hi = np.nonzero(h_q)
    upper = lo < hi
    lo, hi = lo[upper], hi[upper]
    hop = h_q[lo, hi][:, None, None] * (chi[lo].transpose(0, 2, 1) @ chi[hi])
    H[lo, :, hi, :] = hop
    H[hi, :, lo, :] = hop.transpose(0, 2, 1)
    return OperatorMatrix(H.reshape(len(R) * n_keep, len(R) * n_keep),
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
# index of its entries' strings into a (4, 4, 4, 4) array of string
# coefficients (one index array per qubit; scalars for a scalar field) and
# the factor each entry carries in H.  Both directions index with it:
# assemble_ising_model writes H from a model, swt.pauli_decompose reads a
# model back.
ISING_STRINGS = {name: (tuple(np.transpose(strings)), factor)
                 for name, strings, factor in (
    ("omega", [_on(1, (q,)) for q in range(4)], 0.5),
    ("J1", [_on(3, (q,)) for q in range(4)], 1.0),
    ("J2", [_on(3, pair) for pair in PAIRS], 1.0),
    ("J3", [_on(3, triple) for triple in TRIPLES], 1.0),
    ("J4", _on(3, range(4)), 1.0),
    ("shift", _on(0, ()), 1.0),
)}
# the strings outside the table, whose norm is pauli_decompose's residual
NON_ISING = np.ones((4,) * 4, dtype=bool)
for index, _ in ISING_STRINGS.values():
    NON_ISING[index] = False


def assemble_ising_model(m: IsingModel) -> OperatorMatrix:
    """16x16 matrix of the generalized Ising model, persistent-current basis:
    the sum of its ISING_STRINGS with their coefficients.

    Its frame is the product space with one coupler state: each qubit's
    persistent-current states in its energy basis, where its phase is X
    (_pc_states(_X)), so every level is coupler-ground.
    """
    c = np.zeros((4,) * 4)
    for name, (index, factor) in ISING_STRINGS.items():
        c[index] = factor * getattr(m, name)
    # no Y string is in the table, so H is real
    H = np.einsum("ijkl,iab,jcd,kef,lgh->acegbdfh", c, *[_PAULIS] * 4,
                  optimize=True).real.reshape(16, 16)
    frame = AdaptedBasis(kron_all([_pc_states(_X)] * 4), np.ones((16, 1, 1)))
    return OperatorMatrix(H, frame=frame)
