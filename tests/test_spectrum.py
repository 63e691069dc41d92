import dataclasses
import itertools

import numpy as np
import pytest

from fluxcoupler.analysis import Truncations, spectral_system
from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.hamiltonian import (AdaptedBasis, IsingModel, OperatorMatrix,
                                     assemble_full, assemble_ising_model,
                                     build_coupler, build_qubit_bare,
                                     qubit_phase, reduce_qubit)
from fluxcoupler.spectrum import (GAP_THRESHOLD, _two_excitation_levels,
                                  eigendecompose, extract_couplings,
                                  gap_diagnostics, two_excitation_splitting)
from fluxcoupler.swt import pauli_decompose
from toys import isometry, perturbed_circuit


def _spec_of(model: IsingModel):
    return eigendecompose(assemble_ising_model(model))


def test_eigendecompose_rejects_non_hermitian():
    # eigendecompose reads only operators checked when made: a non-Hermitian
    # array is refused then, and a made operator refuses every later edit
    H = assemble_ising_model(IsingModel.symmetric(1.0, J2=0.1))
    edited = H.data + np.triu(np.ones_like(H.data), 1) * 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        OperatorMatrix(edited, frame=H.frame)
    with pytest.raises(dataclasses.FrozenInstanceError):
        H.data = edited
    with pytest.raises(ValueError, match="read-only"):
        H.data[0, 1] += 0.5


@pytest.mark.parametrize("rel,rejected", [(1e-11, True), (1e-13, False),
                                          (np.nan, True)])
def test_one_hermiticity_rule(rel, rejected):
    # the same 1e-12 rule when an operator is made, which eigendecompose
    # then reads, and for an effective Hamiltonian handed to pauli_decompose
    # as an array; a NaN entry fails it
    H = assemble_ising_model(IsingModel.symmetric(1.0, J2=0.1))
    A = H.data.copy()
    A[0, 1] += rel * np.linalg.norm(A)
    for read in (lambda: eigendecompose(OperatorMatrix(A, frame=H.frame)),
                 lambda: pauli_decompose(A)):
        if rejected:
            with pytest.raises(ValueError, match="not Hermitian"):
                read()
        else:
            read()


def test_pauli_decompose_refuses_a_non_16x16_array():
    for A in (np.eye(8), np.zeros((16, 15)), np.eye(32)):
        with pytest.raises(ValueError, match="16x16"):
            pauli_decompose(A)


def test_basis_is_read_from_the_frame():
    # the benchmark's tracer keys its manifold count on basis == "product"
    u = derive_unitless(reference_circuit())
    qubits = [reduce_qubit(build_qubit_bare(u, j, 30), qubit_phase(u, j, 30))
              for j in range(4)]
    coupler = build_coupler(u, 20)
    for n_keep in (1, 8):
        H = assemble_full(qubits, coupler, u, n_keep)
        assert eigendecompose(H).basis == "product"
    assert _planted_spectrum()[0].basis == "product"
    assert _spec_of(IsingModel.symmetric(1.0, J2=0.1)).basis == "ising_pc"


def test_eigendecompose_sorted_and_labeled():
    s = _spec_of(IsingModel.symmetric(2.0, J2=0.3, J4=0.1))
    assert np.all(np.diff(s.eigenvalues) >= 0)
    # pure qubit-space spectrum: everything is coupler-ground
    assert np.all(s.subspace_label)
    assert np.array_equal(s.manifold(), np.arange(16))


@pytest.mark.parametrize("J1,J2,J3,J4", [
    (0.0, -0.1455, 0.0, 0.291),
    (0.02, -0.3, 0.005, 0.05),
    (0.0, 0.0, 0.0, 0.2),
])
def test_fit_round_trip(J1, J2, J3, J4):
    omega = np.full(4, 2.9)
    m = IsingModel.symmetric(2.9, J1=J1, J2=J2, J3=J3, J4=J4, shift=0.7)
    cs = extract_couplings(_spec_of(m), omega)
    assert cs.residual < 1e-7
    for name, want in [("J1", J1), ("J2", J2), ("J3", J3), ("J4", J4)]:
        assert getattr(cs, name) == pytest.approx(want, abs=1e-6)
    assert cs.shift == pytest.approx(0.7, abs=1e-6)


def test_fit_reports_dressed_splittings():
    # the model's splittings are one common factor times the given bare ones
    m = IsingModel.symmetric(0.9 * 2.9, J2=-0.3, J4=0.05, shift=0.7)
    cs = extract_couplings(_spec_of(m), np.full(4, 2.9))
    assert cs.residual < 1e-7
    assert np.allclose(cs.diagnostics["omega_eff"], 0.9 * 2.9, rtol=1e-8)
    assert cs.J2 == pytest.approx(-0.3, abs=1e-6)
    assert cs.J4 == pytest.approx(0.05, abs=1e-6)


def _bare_frame_projection(spec):
    """Effective Hamiltonian on the bare coupler-ground subspace, computed
    through the bare frame: the 16 manifold eigenvectors carried there, their
    coupler-ground row rotated to the persistent-current frame and
    orthogonalized symmetrically by B (B^T B)^(-1/2)."""
    sel = spec.manifold()
    W = isometry(spec.frame)
    n_c = spec.frame.states.shape[1]
    bare = (W @ spec.eigenvectors[:, sel]).reshape(16, n_c, 16)[:, 0, :]
    B = spec.frame.rotation.T @ bare
    w, v = np.linalg.eigh(B.T @ B)
    T = B @ (v / np.sqrt(w)) @ v.T
    return T @ np.diag(spec.eigenvalues[sel]) @ T.T


@pytest.mark.parametrize("beta_c", [0.05, 0.43])
def test_spectral_couplings_are_the_bare_frame_projection(beta_c):
    u = derive_unitless(reference_circuit(beta_c=beta_c))
    qubits = [reduce_qubit(build_qubit_bare(u, j, 40), qubit_phase(u, j, 40))
              for j in range(4)]
    spec = eigendecompose(assemble_full(qubits, build_coupler(u, 30), u, 8))
    cs = extract_couplings(spec, [q.omega for q in qubits])
    model, residual = pauli_decompose(_bare_frame_projection(spec))
    scale = abs(cs.J2)
    for name in ("J1", "J2", "J3"):
        assert np.allclose(getattr(cs, name), np.mean(getattr(model, name)),
                           rtol=1e-9, atol=1e-9 * scale)
    assert cs.J4 == pytest.approx(model.J4, rel=1e-9, abs=1e-9 * scale)
    assert cs.shift == pytest.approx(model.shift, rel=1e-9)
    assert cs.residual == pytest.approx(residual, rel=1e-9)
    assert np.allclose(cs.diagnostics["omega_eff"], model.omega, rtol=1e-9)
    # the half-flux bias makes the odd-weight Z strings vanish
    assert abs(cs.J1) <= 1e-6 * scale
    assert abs(cs.J3) <= 1e-6 * scale


def test_projection_needs_a_frame():
    u = derive_unitless(reference_circuit(beta_c=0.3))
    qubits = [reduce_qubit(build_qubit_bare(u, j, 30), qubit_phase(u, j, 30))
              for j in range(4)]
    H = dataclasses.replace(assemble_full(qubits, build_coupler(u, 20), u, 4),
                            frame=None)
    with pytest.raises(ValueError, match="frame"):
        extract_couplings(eigendecompose(H), [q.omega for q in qubits])


@pytest.mark.parametrize("chip", ["reference", "perturbed"])
def test_two_excitation_levels_read_through_the_frame_factors(chip):
    # the sector weights carried to the qubit energy basis by the frame's
    # two factors, against the manifold vectors carried there by the dense
    # isometry: the same six levels, bit for bit, and the same weights
    p = reference_circuit(beta_c=0.43) if chip == "reference" \
        else perturbed_circuit(5)
    spec = spectral_system(derive_unitless(p), Truncations())[0]
    levels, weights = _two_excitation_levels(spec)
    idx = spec.manifold()
    n_c = spec.frame.states.shape[1]
    bare = (isometry(spec.frame) @ spec.eigenvectors[:, idx]).reshape(
        16, n_c, 16)
    sector = [sum(z) == 2 for z in itertools.product((0, 1), repeat=4)]
    want = np.sum(bare[sector] ** 2, axis=(0, 1))
    top = np.argsort(want)[::-1][:6]
    assert levels.tobytes() == np.sort(spec.eigenvalues[idx[top]]).tobytes()
    np.testing.assert_allclose(weights, want[top], rtol=0, atol=1e-12)


def test_two_excitation_sector_in_the_adapted_basis():
    # the sector weights are read in the qubit energy basis: the same levels
    # come out of the adapted operator as out of its image in the
    # persistent-current frame (x) coupler eigenbasis, and so does J4
    u = derive_unitless(reference_circuit(beta_c=0.3))
    qubits = [reduce_qubit(build_qubit_bare(u, j, 40), qubit_phase(u, j, 40))
              for j in range(4)]
    coupler = build_coupler(u, 20)
    n_c = coupler.data.shape[0]
    H = assemble_full(qubits, coupler, u, n_c)
    omega = np.full(4, np.mean([q.omega for q in qubits]))
    spec = eigendecompose(H)
    adapted = two_excitation_splitting(spec, omega)
    R = H.frame.rotation
    W = np.kron(R.T, np.eye(n_c)) @ isometry(H.frame)
    frame = AdaptedBasis(R, np.broadcast_to(np.eye(n_c), (16, n_c, n_c)))
    bare = OperatorMatrix(W @ H.data @ W.T, frame=frame)
    bare_spec = eigendecompose(bare)
    want = two_excitation_splitting(bare_spec, omega)
    assert np.allclose(adapted["levels"], want["levels"], rtol=1e-9)
    assert np.allclose(adapted["sector_weights"], want["sector_weights"],
                       atol=1e-9)
    assert extract_couplings(spec, omega).J4 == pytest.approx(
        extract_couplings(bare_spec, omega).J4, rel=1e-9)


def test_fit_noise_robustness():
    # perturb the spectrum at the 1e-6 level; recovered couplings move by a
    # comparable amount, not catastrophically
    rng = np.random.default_rng(3)
    m = IsingModel.symmetric(2.9, J2=-0.15, J4=0.29)
    s = _spec_of(m)
    s.eigenvalues = s.eigenvalues + rng.normal(scale=1e-6, size=16)
    cs = extract_couplings(s, np.full(4, 2.9))
    assert cs.J4 == pytest.approx(0.29, abs=1e-4)
    assert cs.J2 == pytest.approx(-0.15, abs=1e-4)
    assert cs.residual < 1e-5


def test_two_excitation_four_local_pattern():
    # omega/2 sum X + J4 ZZZZ is exactly block diagonal by excitation number
    # parity; the two-excitation block splits into +-J4 pairs: {3, 3}
    m = IsingModel.symmetric(5.0, J4=0.5)
    out = two_excitation_splitting(_spec_of(m), np.full(4, 5.0))
    assert out["degeneracies"] == [3, 3]
    assert out["distance"] == pytest.approx(2 * 0.5, rel=1e-9)


def test_two_excitation_two_local_pattern():
    # first-order degenerate theory: octahedron adjacency spectrum {4, 0^3, -2^2}
    m = IsingModel.symmetric(500.0, J2=0.1)
    out = two_excitation_splitting(_spec_of(m), np.full(4, 500.0))
    assert out["degeneracies"] == [1, 2, 3]
    assert out["distance"] == pytest.approx(6 * 0.1, rel=1e-3)


def test_two_excitation_degenerate_limit():
    m = IsingModel.symmetric(3.0)
    out = two_excitation_splitting(_spec_of(m), np.full(4, 3.0))
    assert out["degeneracies"] == [6]
    assert out["distance"] == pytest.approx(0.0, abs=1e-9)


def test_two_excitation_requires_equal_frequencies():
    m = IsingModel.symmetric(3.0, J4=0.1)
    m.omega = np.array([3.0, 3.0, 3.0, 3.3])
    with pytest.raises(ValueError, match="equal qubit frequencies"):
        two_excitation_splitting(_spec_of(m), m.omega)


def test_two_excitation_mixing_refusal():
    # couplings comparable to the splitting scramble the sector: the
    # identification must refuse rather than silently mislabel
    m = IsingModel.symmetric(1.0, J2=0.8, J4=0.9, J1=0.5)
    with pytest.raises(RuntimeError, match="not identifiable"):
        two_excitation_splitting(_spec_of(m), np.full(4, 1.0))


def _planted_spectrum():
    """A product space with two coupler states per configuration, frame
    = identity (z is the qubit energy basis), whose spectrum has 17 levels
    labelled coupler-ground: two n = 0 states of the two-excitation sector,
    (3, 0) and (5, 0), share three eigenvectors with the n = 1 state (0, 1)
    outside it, each of them weighing at least 0.55 on n = 0.  Two of them
    lie inside the manifold; the third, of sector weight 0.9, is planted at
    5.0, above the manifold's top level (4.15) and below the coupler-excited
    levels (10 and up).  Returns (spectrum, planted energy)."""
    planted = 5.0
    energy = {(z, 0): bin(z).count("1") + 0.01 * z for z in range(16)}
    energy.update({(z, 1): 10.0 + z for z in range(16)})
    mixed = [(0, 1), (3, 0), (5, 0)]
    # a reflection whose first row, the weights on (0, 1), is
    # (0.1, 0.45, 0.45)^(1/2): the eigenvectors' n = 1 weights
    r = np.sqrt([0.1, 0.45, 0.45])
    w = r - np.eye(3)[0]
    Q = np.eye(3) - 2.0 * np.outer(w, w) / (w @ w)
    V, E = np.eye(32), np.array([energy[z, n] for z in range(16)
                                 for n in range(2)])
    cols = [2 * z + n for z, n in mixed]
    V[np.ix_(cols, cols)] = Q
    E[cols] = [planted, 2.5, 2.6]
    H = (V * E) @ V.T
    frame = AdaptedBasis(np.eye(16), np.broadcast_to(np.eye(2), (16, 2, 2)))
    spec = eigendecompose(OperatorMatrix((H + H.T) / 2, frame=frame))
    return spec, planted


def test_manifold_leaves_out_a_seventeenth_labelled_level():
    # gap_diagnostics measures the manifold against every level outside it,
    # the planted one included, and the two-excitation levels are read from
    # the manifold alone
    spec, planted = _planted_spectrum()
    assert np.sum(spec.subspace_label) == 17
    idx = spec.manifold()
    top = np.max(spec.eigenvalues[idx])
    assert top == pytest.approx(4.15) and planted not in spec.eigenvalues[idx]
    gd = gap_diagnostics(spec)
    assert gd.delta_gap == pytest.approx(planted - top)
    out = two_excitation_splitting(spec, np.full(4, 1.0))
    assert not np.any(np.isclose(out["levels"], planted))
    assert np.allclose(out["levels"], [2.06, 2.09, 2.1, 2.12, 2.5, 2.6])
    assert np.allclose(np.sort(out["sector_weights"]), [0.55] * 2 + [1.0] * 4)


def test_gap_diagnostics_pure_qubit_space():
    gd = gap_diagnostics(_spec_of(IsingModel.symmetric(2.9, J2=-0.1)))
    assert np.isinf(gd.delta_gap)
    assert gd.valid


def test_gap_diagnostics_product_space():
    u = derive_unitless(reference_circuit(beta_c=0.2))
    qubits = [reduce_qubit(build_qubit_bare(u, j, 50), qubit_phase(u, j, 50))
              for j in range(4)]
    coupler = build_coupler(u, 40)
    s = eigendecompose(assemble_full(qubits, coupler, u, 8))
    gd = gap_diagnostics(s)
    # 16 coupler-ground levels identified, separated from the excited set
    assert np.sum(s.subspace_label) >= 16
    assert gd.delta_gap > 0
    assert gd.delta_max > 0
    assert gd.valid == (gd.delta_gap > GAP_THRESHOLD * gd.delta_max)
