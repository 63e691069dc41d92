"""Diagonalization, subspace classification, coupling extraction, gap diagnostics."""

from dataclasses import dataclass

import numpy as np

from .hamiltonian import AdaptedBasis, OperatorMatrix, kron_all
from .swt import CouplingStrengths, ising_couplings

_HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    coupler_occupation: np.ndarray   # weight on coupler state 0, in [0,1]
    subspace_label: np.ndarray       # True = coupler_ground
    dims: tuple
    basis: str
    frame: AdaptedBasis = None       # the operator's OperatorMatrix.frame

    def manifold(self, n=16):
        """Indices of the lowest n levels labeled coupler_ground."""
        idx = np.flatnonzero(self.subspace_label)
        return idx[np.argsort(self.eigenvalues[idx], kind="stable")[:n]]

    def coupler_ground_levels(self, n=16):
        return self.eigenvalues[self.manifold(n)]


@dataclass
class GapDiagnostics:
    delta_gap: float     # lowest coupler-excited minus highest of 16 ground levels
    delta_max: float     # largest spacing between adjacent coupler-ground levels
    valid: bool
    threshold: float = 3.0


def eigendecompose(h: OperatorMatrix) -> SpectrumResult:
    """Full dense Hermitian decomposition with coupler-subspace classification.

    For product-space operators (last subsystem = coupler) the occupation is
    the eigenvector weight on the kept coupler state 0 of each qubit
    configuration: the displaced coupler ground state chi_0(z) of
    assemble_full, i.e. the weight on the coupler-ground manifold that the
    qubits dress.  Levels with occupation above 0.5 are labeled
    coupler_ground.  Pure qubit-space operators are labeled coupler_ground
    throughout.
    """
    A = h.data
    if np.linalg.norm(A - A.conj().T) > 1e-10 * max(np.linalg.norm(A), 1.0):
        raise ValueError("input operator is not Hermitian")
    ev, vec = np.linalg.eigh(A)
    resid = np.linalg.norm(A @ vec - vec * ev, axis=0)
    assert np.all(resid < 1e-10 * max(np.linalg.norm(A), 1.0))
    if h.basis == "product" and len(h.dims) == 5:
        n_keep = h.dims[-1]
        w = vec.reshape(16, n_keep, -1)
        occ = np.sum(np.abs(w[:, 0, :]) ** 2, axis=0)
    else:
        occ = np.ones(len(ev))
    return SpectrumResult(eigenvalues=ev, eigenvectors=vec,
                          coupler_occupation=occ,
                          subspace_label=occ > 0.5, dims=h.dims, basis=h.basis,
                          frame=h.frame)


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
    idx = s.manifold(16)
    if len(idx) < 16:
        raise ValueError("fewer than 16 coupler-ground levels identified")
    vec = s.eigenvectors[:, idx]
    if s.basis == "ising_pc":
        B = vec
    elif s.basis == "product" and s.frame is not None:
        # <z, bare coupler ground | psi_k> = sum_n <0|chi_n(z)> psi_k(z, n)
        B = np.einsum("zn,znk->zk", s.frame.states[:, 0, :],
                      vec.reshape(16, s.dims[-1], 16))
    else:
        raise ValueError("projection needs an ising_pc spectrum or a product "
                         "spectrum with its adapted-basis frame")
    U, _, Wt = np.linalg.svd(B)
    T = U @ Wt
    h_eff = OperatorMatrix((T * s.eigenvalues[idx]) @ T.T, "ising_pc",
                           (2, 2, 2, 2))
    cs = ising_couplings(h_eff, "spectral_fit")
    cs.diagnostics["kappa"] = cs.diagnostics["omega_eff"] / np.asarray(omega)
    return cs


def _two_excitation_projector_weights(s: SpectrumResult):
    """Weight of each eigenvector on the two-excitation qubit sector."""
    popcount = np.array([bin(i).count("1") for i in range(16)])
    sector = popcount == 2
    if s.basis == "ising_pc":
        # rotate to the qubit energy basis: bare terms are (omega/2) X in the
        # persistent-current frame, so energy eigenstates are Hadamard-rotated
        U = kron_all([_HAD] * 4)
        comp = U.T @ s.eigenvectors
        return np.sum(np.abs(comp[sector, :]) ** 2, axis=0)
    if s.basis == "product":
        # the sector is defined in the qubit energy basis: carry the
        # eigenvectors to the bare frame first
        vec = s.eigenvectors
        if s.frame is not None:
            vec = s.frame.isometry() @ vec
        w = vec.reshape(16, -1, vec.shape[1])
        return np.sum(np.abs(w[sector, :, :]) ** 2, axis=(0, 1))
    raise ValueError("two-excitation analysis needs an ising_pc or product basis")


def two_excitation_splitting(s: SpectrumResult, omega, cluster_tol=1e-6,
                             min_weight=0.5):
    """Degeneracy structure of the six-state two-excitation manifold.

    Identifies the manifold by eigenvector weight on the two-excitation qubit
    sector (restricted to coupler-ground states for product-space spectra),
    clusters its energies with tolerance cluster_tol * spread, and reports the
    degeneracy multiset and the top-bottom distance.
    """
    omega = np.asarray(omega, dtype=float)
    if np.ptp(omega) > 1e-6 * np.mean(omega):
        raise ValueError("degeneracy analysis requires equal qubit frequencies")
    weights = _two_excitation_projector_weights(s)
    cand = np.where(s.subspace_label)[0]
    order = cand[np.argsort(weights[cand])[::-1]]
    sel = order[:6]
    if np.min(weights[sel]) < min_weight:
        raise RuntimeError(
            "two-excitation manifold not identifiable: strong mixing "
            f"(min sector weight {np.min(weights[sel]):.3f})")
    levels = np.sort(s.eigenvalues[sel])
    spread = levels[-1] - levels[0]
    # absolute floor keeps exactly-degenerate manifolds (spread at rounding
    # level) from being split into singletons
    tol = max(cluster_tol * spread,
              1e-12 * float(np.max(np.abs(s.eigenvalues))), 1e-30)
    degeneracies = []
    current = 1
    for a, b in zip(levels[:-1], levels[1:]):
        if b - a <= tol:
            current += 1
        else:
            degeneracies.append(current)
            current = 1
    degeneracies.append(current)
    return {
        "levels": levels,
        "degeneracies": sorted(degeneracies),
        "distance": float(spread),
        "sector_weights": weights[sel],
    }


def gap_diagnostics(s: SpectrumResult, threshold=3.0) -> GapDiagnostics:
    """Subspace separation: delta_gap vs delta_max of the coupler-ground manifold."""
    ground = s.coupler_ground_levels(16)
    excited = s.eigenvalues[~s.subspace_label]
    if len(ground) < 2:
        return GapDiagnostics(np.nan, np.nan, False, threshold)
    delta_max = float(np.max(np.diff(ground)))
    if len(excited) == 0:
        return GapDiagnostics(np.inf, delta_max, True, threshold)
    delta_gap = float(np.min(excited) - np.max(ground))
    return GapDiagnostics(delta_gap, delta_max,
                          bool(delta_gap > threshold * delta_max), threshold)
