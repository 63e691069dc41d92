"""Diagonalization, subspace classification, coupling extraction, gap diagnostics.

One rule picks the 16-level coupler-ground manifold that every reading here
starts from: SpectrumResult.manifold(), the lowest 16 levels labeled
coupler-ground.  The couplings, the two-excitation levels and the gap
diagnostics all read it, and no other library code reads the labels.
eigendecompose trusts an OperatorMatrix, checked Hermitian when it was made
and read-only, its frame included.
"""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import AdaptedBasis, OperatorMatrix, _configuration_index
from .swt import CouplingStrengths, ising_couplings

# the subspaces count as separated when delta_gap > GAP_THRESHOLD * delta_max
GAP_THRESHOLD = 3.0


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coupler_occupation: np.ndarray   # weight on coupler state 0, in [0,1]
    subspace_label: np.ndarray       # True = coupler_ground
    frame: AdaptedBasis              # the operator's OperatorMatrix.frame

    @property
    def basis(self):
        """Read by the benchmark alone, until it reads the frame itself."""
        return "product" if self.frame.states.shape[1] > 1 else "ising_pc"

    def manifold(self):
        """Indices of the lowest 16 levels labeled coupler_ground, in
        ascending energy: the manifold every reading takes.  A spectrum
        with fewer raises ValueError."""
        idx = np.flatnonzero(self.subspace_label)
        if len(idx) < 16:
            raise ValueError("fewer than 16 coupler-ground levels identified")
        return idx[np.argsort(self.eigenvalues[idx], kind="stable")[:16]]


@dataclass
class GapDiagnostics:
    delta_gap: float     # lowest level outside the manifold minus its highest
    delta_max: float     # largest spacing between adjacent manifold levels
    valid: bool


def eigendecompose(h: OperatorMatrix) -> SpectrumResult:
    """Full dense Hermitian decomposition with coupler-subspace classification.

    The operator is read through its frame: the product space of 16 qubit
    configurations z times the coupler states kept per z.  The occupation is
    the eigenvector weight on coupler state 0 of each z, the coupler-ground
    state that the qubits dress (chi_0(z) of assemble_full); levels with
    occupation above 0.5 are labeled coupler_ground, and manifold() takes
    the lowest 16 of them.  With one coupler state (the Ising model) every
    level is coupler-ground.
    """
    if h.frame is None:
        raise ValueError("eigendecompose needs an operator with a frame")
    ev, vec = np.linalg.eigh(h.data)
    w = vec.reshape(h.frame.states.shape[0], h.frame.states.shape[2], -1)
    occ = np.sum(np.abs(w[:, 0, :]) ** 2, axis=0)
    return SpectrumResult(eigenvalues=ev, eigenvectors=vec, frame=h.frame,
                          coupler_occupation=occ, subspace_label=occ > 0.5)


def extract_couplings(s: SpectrumResult, omega) -> CouplingStrengths:
    """Couplings of the 16 coupler-ground levels by exact projection.

    The manifold eigenvectors are projected onto the bare coupler-ground
    subspace P (coupler ground state, qubits in the persistent-current
    frame) and orthogonalized symmetrically, T = B (B^T B)^(-1/2): the
    direct-rotation Schrieffer-Wolff transformation (Bravyi, DiVincenzo &
    Loss, Ann. Phys. 326, 2793 (2011)).  H_eff = T diag(E) T^T is the
    effective Hamiltonian on P to all orders; ising_couplings reads it.
    omega: bare qubit splittings (Hz); diagnostics["kappa"] is the dressing
    factor omega_eff / omega.
    """
    idx = s.manifold()
    n_z, _, n_keep = s.frame.states.shape
    # <z, bare coupler ground | psi_k> = sum_n <0|chi_n(z)> psi_k(z, n)
    B = np.einsum("zn,znk->zk", s.frame.states[:, 0, :],
                  s.eigenvectors[:, idx].reshape(n_z, n_keep, -1))
    U, _, Wt = np.linalg.svd(B)
    T = U @ Wt
    cs = ising_couplings((T * s.eigenvalues[idx]) @ T.T)
    cs.diagnostics["kappa"] = cs.diagnostics["omega_eff"] / np.asarray(omega)
    return cs


def _two_excitation_levels(s: SpectrumResult):
    """The six manifold levels of the two-excitation qubit sector, sorted,
    and their weights on it: the six manifold eigenvectors of largest
    weight, refused when a weight falls below 0.5."""
    idx = s.manifold()
    n_z, n_c, _ = s.frame.states.shape
    sector = _configuration_index(4, 2)[1].sum(axis=0) == 2
    # the sector is defined in the qubit energy basis: carry the manifold
    # eigenvectors to the bare frame first
    vec = (s.frame.isometry() @ s.eigenvectors[:, idx]).reshape(n_z, n_c, -1)
    weights = np.sum(np.abs(vec[sector]) ** 2, axis=(0, 1))
    top = np.argsort(weights)[::-1][:6]
    if np.min(weights[top]) < 0.5:
        raise RuntimeError(
            "two-excitation manifold not identifiable: strong mixing "
            f"(min sector weight {np.min(weights[top]):.3f})")
    return np.sort(s.eigenvalues[idx[top]]), weights[top]


def two_excitation_splitting(s: SpectrumResult, omega, cluster_tol=1e-6):
    """Degeneracy structure of the six-state two-excitation manifold.

    Takes the six levels of _two_excitation_levels, clusters their energies
    with tolerance cluster_tol * spread, and reports the degeneracy multiset
    and the top-bottom distance.  The multiset is defined for equal qubit
    frequencies omega only.
    """
    omega = np.asarray(omega, dtype=float)
    if np.ptp(omega) > 1e-6 * np.mean(omega):
        raise ValueError("degeneracy analysis requires equal qubit frequencies")
    levels, weights = _two_excitation_levels(s)
    spread = levels[-1] - levels[0]
    # absolute floor keeps exactly-degenerate manifolds (spread at rounding
    # level) from being split into singletons
    tol = max(cluster_tol * spread,
              1e-12 * float(np.max(np.abs(s.eigenvalues))), 1e-30)
    # a cluster ends wherever the next level lies more than tol above
    ends = np.flatnonzero(np.diff(levels) > tol) + 1
    degeneracies = np.diff(np.concatenate(([0], ends, [len(levels)])))
    return {
        "levels": levels,
        "degeneracies": sorted(degeneracies.tolist()),
        "distance": float(spread),
        "sector_weights": weights,
    }


def gap_diagnostics(s: SpectrumResult) -> GapDiagnostics:
    """Subspace separation: delta_gap of the manifold from every level
    outside it, against its largest internal spacing delta_max."""
    idx = s.manifold()
    ground = s.eigenvalues[idx]
    outside = np.ones(len(s.eigenvalues), dtype=bool)
    outside[idx] = False
    others = s.eigenvalues[outside]
    delta_max = float(np.max(np.diff(ground)))
    if len(others) == 0:
        return GapDiagnostics(np.inf, delta_max, True)
    delta_gap = float(np.min(others) - np.max(ground))
    return GapDiagnostics(delta_gap, delta_max,
                          bool(delta_gap > GAP_THRESHOLD * delta_max))
