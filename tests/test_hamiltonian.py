import dataclasses
import itertools

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from fluxcoupler import hamiltonian
from fluxcoupler.analysis import Truncations, build_system, with_flux_offsets
from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.hamiltonian import (AdaptedBasis, IsingModel,
                                     OperatorMatrix, PAIRS, TRIPLES,
                                     assemble_full,
                                     assemble_ising_model, build_coupler,
                                     build_qubit_bare, coupler_eigenbasis,
                                     bare_frame, kron_all,
                                     qubit_phase, reduce_qubit, _kron_sum,
                                     _pc_states, _QubitSide)
from fluxcoupler.oscillator import qubit_reduction
from toys import (isometry, pc_rotation, written_out_coupler,
                  written_out_qubit, written_out_reduction)


def _u(beta_c=0.43, **kw):
    return derive_unitless(reference_circuit(beta_c=beta_c, **kw))


# ------------------------------------------------------- grid oracle

def _grid_levels(xi, stiffness, beta, phi_x, span, n=6000, k=5):
    """Lowest k levels of 2 xi^2 q^2 + stiffness (phi-phi_x)^2/2 + beta cos phi
    by a real-space finite-difference Schroedinger solve (unit energy scale)."""
    phi = np.linspace(-span, span, n)
    h = phi[1] - phi[0]
    U = 0.5 * stiffness * (phi - phi_x) ** 2 + beta * np.cos(phi)
    t = 2.0 * xi**2 / h**2
    ev = eigh_tridiagonal(2.0 * t + U, np.full(n - 1, -t),
                          select="i", select_range=(0, k - 1),
                          eigvals_only=True)
    return ev


def test_coupler_spectrum_against_grid():
    u = _u(0.43)
    H = build_coupler(u, 40)
    lv = np.sort(np.linalg.eigvalsh(H.data))[:5] / u.E_Ltilde_c
    want = _grid_levels(u.xi_c, 1.0, u.beta_c, u.phi_cx, span=1.2)
    assert np.allclose(lv - lv[0], want - want[0], rtol=1e-4,
                       atol=1e-7 * (want[1] - want[0]))


def test_coupler_spectrum_with_flux_offset_against_grid():
    u = _u(0.3)
    u.phi_cx = 0.15
    H = build_coupler(u, 40)
    lv = np.sort(np.linalg.eigvalsh(H.data))[:4] / u.E_Ltilde_c
    want = _grid_levels(u.xi_c, 1.0, u.beta_c, 0.15, span=1.2, k=4)
    assert np.allclose(lv - lv[0], want - want[0], rtol=1e-4)


def test_coupler_harmonic_limit():
    # beta_c = 0: exact ladder with spacing 2 xi_c (in E units)
    u = _u(0.43)
    u.beta_c = 0.0
    lv = np.sort(np.linalg.eigvalsh(build_coupler(u, 40).data)) / u.E_Ltilde_c
    gaps = np.diff(lv[:10])
    assert np.allclose(gaps, 2.0 * u.xi_c, rtol=1e-12)


def test_qubit_spectrum_against_grid():
    u = _u()
    H = build_qubit_bare(u, 0, 50)
    E = float(u.E_Lj[0])
    lv = np.sort(np.linalg.eigvalsh(H.data))[:5] / E
    want = _grid_levels(float(u.xi_j[0]), 1.0 + float(u.alpha[0]) ** 2,
                        float(u.beta_j[0]), 0.0, span=3.0)
    assert np.allclose(lv - lv[0], want - want[0], rtol=1e-4,
                       atol=1e-6 * (want[2] - want[0]))


def test_qubit_spectrum_with_tilt_against_grid():
    u = _u()
    u.phi_jx = np.full(4, 0.05)
    H = build_qubit_bare(u, 1, 50)
    E = float(u.E_Lj[1])
    lv = np.sort(np.linalg.eigvalsh(H.data))[:4] / E
    want = _grid_levels(float(u.xi_j[1]), 1.0 + float(u.alpha[1]) ** 2,
                        float(u.beta_j[1]), 0.05, span=3.0, k=4)
    assert np.allclose(lv - lv[0], want - want[0], rtol=1e-4)


def test_truncation_convergence():
    u = _u()
    c40 = np.sort(np.linalg.eigvalsh(build_coupler(u, 40).data))[:10]
    c60 = np.sort(np.linalg.eigvalsh(build_coupler(u, 60).data))[:10]
    assert np.allclose(c40, c60, rtol=1e-9)
    q50 = np.sort(np.linalg.eigvalsh(build_qubit_bare(u, 0, 50).data))[:6]
    q70 = np.sort(np.linalg.eigvalsh(build_qubit_bare(u, 0, 70).data))[:6]
    assert np.allclose(q50, q70, rtol=1e-9)


def test_builder_input_validation():
    u = _u()
    bad = _u()
    bad.beta_c = 1.0
    with pytest.raises(ValueError):
        build_coupler(bad, 40)
    with pytest.raises(ValueError):
        build_coupler(u, 8)
    # beta_j = 1.001 is below 1 + alpha_j^2 = 1.0024: a single well
    for beta_j in (0.8, 1.001):
        shallow = _u()
        shallow.beta_j = np.full(4, beta_j)
        with pytest.raises(ValueError, match="no double well"):
            build_qubit_bare(shallow, 0, 50)
    qubits = [reduce_qubit(build_qubit_bare(u, j, 20), qubit_phase(u, j, 20))
              for j in range(4)]
    for n_keep, message in ((0, "at least 1"), (11, "exceeds")):
        with pytest.raises(ValueError, match=message):
            assemble_full(qubits, build_coupler(u, 10), u, n_keep)


@pytest.mark.parametrize("n", [20, 50])
@pytest.mark.parametrize("offsets", [False, True])
@pytest.mark.parametrize("beta_c", [0.1, 0.43, 0.6])
def test_element_builders_match_the_written_out_formulas(beta_c, offsets, n):
    p = reference_circuit(beta_c=beta_c)
    if offsets:
        p = with_flux_offsets(p, 0.002, (0.001, -0.002, 0.0015, 0.0005))
    u = derive_unitless(p)

    def same_bits(op, want):
        assert np.array_equal(op.data.view(np.int64), want.view(np.int64))

    h, phi = written_out_coupler(u, n)
    coupler = build_coupler(u, n)
    same_bits(coupler, h)
    # the coupler phase, which the library reads in the coupler eigenbasis
    vec = np.linalg.eigh(h)[1]
    assert coupler_eigenbasis(coupler, u)[1].tobytes() == \
        (vec.T @ phi @ vec).tobytes()
    for j in range(4):
        h, phi = written_out_qubit(u, j, n)
        same_bits(build_qubit_bare(u, j, n), h)
        same_bits(qubit_phase(u, j, n), phi)


@pytest.mark.parametrize("size", [2, 3])
def test_kron_sum_is_the_sum_of_kronecker_products(size):
    # the broadcast fold against the written-out sum, qubit 0 slowest
    rng = np.random.default_rng(size)
    ops = [rng.normal(size=(size, size)) for _ in range(4)]
    eye = np.eye(size)
    want = sum(kron_all([op if i == j else eye for i in range(4)])
               for j, op in enumerate(ops))
    assert np.array_equal(_kron_sum(ops), want)


@pytest.mark.parametrize("dtypes", [(float,) * 4, (complex,) * 4,
                                    (float, complex, float, complex)])
def test_kron_all_keeps_the_bits_of_the_np_kron_fold(dtypes):
    rng = np.random.default_rng(11)
    ops = [rng.normal(size=(2, 2)) for _ in dtypes]
    ops = [op + 1j * rng.normal(size=(2, 2)) if dtype is complex else op
           for op, dtype in zip(ops, dtypes)]
    want = ops[0]
    for op in ops[1:]:
        want = np.kron(want, op)
    got = kron_all(ops)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    for data in (np.ones((2, 3)), np.float64(1.0), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(data)


# the operators and reduced qubits the library and the toys make
VALUES = {
    "build_coupler": lambda u: build_coupler(u, 20),
    "build_qubit_bare": lambda u: build_qubit_bare(u, 0, 20),
    "qubit_phase": lambda u: qubit_phase(u, 0, 20),
    "assemble_full": lambda u: assemble_full(*_system(u, 20, 20), u, 4),
    "assemble_ising_model": lambda u: assemble_ising_model(
        IsingModel.symmetric(1.0, J2=0.1)),
    "reduce_qubit": lambda u: reduce_qubit(build_qubit_bare(u, 0, 20),
                                           qubit_phase(u, 0, 20)),
    "written_out_reduction": lambda u: written_out_reduction(
        *written_out_qubit(u, 0, 20)),
}


def _refused_arrays(value):
    """Assert that every field of the dataclass value, and of its frame,
    refuses reassignment and every array field an edit in place; returns
    the number of array fields."""
    arrays = 0
    for field in dataclasses.fields(value):
        a = getattr(value, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, a)
        if isinstance(a, np.ndarray):
            arrays += 1
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
        elif isinstance(a, AdaptedBasis):
            arrays += _refused_arrays(a)
    return arrays


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_operators_and_qubits_refuse_edits(make):
    # each is checked once, when made, and then refuses every edit: a field
    # reassigned, or an array field edited in place, its frame's included
    value = make(_u())
    frameless = isinstance(value, OperatorMatrix) and value.frame is None
    assert _refused_arrays(value) == (1 if frameless else 3)


def test_reduce_qubit_properties():
    u = _u()
    red = reduce_qubit(build_qubit_bare(u, 0, 50), qubit_phase(u, 0, 50))
    # gauge fix: off-diagonal phase element real and non-negative
    assert red.phi2[0, 1] >= 0
    assert np.allclose(red.phi2, red.phi2.T)
    assert np.trace(red.h2) == pytest.approx(0.0, abs=1e-3)
    assert red.omega > 0
    # the exact two-level dipole lies between the harmonic zero-point width s
    # and the deep-well estimate phi_p / sqrt(1 - ov^2); at beta_j = 1.1 the
    # barrier is shallow, so neither limit is reached
    w = qubit_reduction(float(u.xi_j[0]), float(u.beta_j[0]), float(u.alpha[0]))
    deep = w.phi_p / np.sqrt(1.0 - w.overlap00**2)
    assert w.s < red.phi2[0, 1] < deep
    # reference-point splitting: 2.9 GHz for the 817 pH / 77 fF / beta = 1.1
    # qubit (grid-oracle cross-checked via test_qubit_spectrum_against_grid)
    assert red.omega == pytest.approx(2.9e9, rel=1e-2)


def test_reduce_qubit_diagonal_phi_vanishes_at_degeneracy():
    # at the degeneracy bias the energy eigenstates have definite parity, so
    # the diagonal phase elements vanish
    u = _u()
    red = reduce_qubit(build_qubit_bare(u, 2, 50), qubit_phase(u, 2, 50))
    assert abs(red.phi2[0, 0]) < 1e-10
    assert abs(red.phi2[1, 1]) < 1e-10


def test_reduce_qubit_gauge_takes_both_branches_with_the_reference_bits():
    # phi and -phi give opposite raw phi[0, 1], so exactly one of them takes
    # the sign flip; on both, the sign vector keeps the bits of forming
    # v^T phi v again from the flipped states (toys.written_out_reduction)
    u = _u()
    bare, phase = build_qubit_bare(u, 0, 50), qubit_phase(u, 0, 50)
    v2 = np.linalg.eigh(bare.data)[1][:, :2]
    flipped = []
    for phi in (phase.data, -phase.data):
        flipped.append(bool((v2.T @ phi @ v2)[0, 1] < 0))
        got = reduce_qubit(bare, OperatorMatrix(phi))
        want = written_out_reduction(bare.data, phi)
        for name in ("h2", "phi2", "pc"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name
        assert got.omega == want.omega
        assert got.phi2[0, 1] >= 0
    assert sorted(flipped) == [False, True]


# the reference circuit and a flux offset that tilts every qubit differently
PC_CIRCUITS = [reference_circuit(), with_flux_offsets(
    reference_circuit(), 0.002, (0.001, -0.002, 0.0015, 0.0005))]


@pytest.mark.parametrize("p", PC_CIRCUITS, ids=["reference", "offset"])
def test_reduce_qubit_pc_basis(p):
    # pc: orthonormal eigenvectors of phi2, descending eigenvalue (right-well
    # state first), the first column non-negative and det pc = +1
    u = derive_unitless(p)
    for j in range(4):
        red = reduce_qubit(build_qubit_bare(u, j, 50), qubit_phase(u, j, 50))
        assert np.allclose(red.pc.T @ red.pc, np.eye(2), atol=1e-14)
        phi_pc = red.pc.T @ red.phi2 @ red.pc
        want = np.linalg.eigvalsh(red.phi2)[::-1]
        assert np.allclose(phi_pc, np.diag(want),
                           atol=1e-14 * np.max(np.abs(want)))
        assert want[0] > want[1]
        assert np.all(red.pc[:, 0] >= 0)
        assert np.linalg.det(red.pc) > 0


def test_pc_signs_survive_a_one_ulp_nudge():
    # at a symmetric qubit phi2's diagonal is zero but for rounding, and
    # both components of each pc state are about 0.7071, so a rule that
    # compared their sizes left the signs to rounding; a diagonal of -1, 0
    # or +1 ulp of phi2[0, 1] must not flip them
    u = _u()
    phi2 = reduce_qubit(build_qubit_bare(u, 0, 50), qubit_phase(u, 0, 50)).phi2
    want = np.sign(_pc_states(phi2))
    ulp = np.spacing(phi2[0, 1])
    for diagonal in itertools.product((-ulp, 0.0, ulp), repeat=2):
        nudged = phi2.copy()
        nudged[[0, 1], [0, 1]] = diagonal
        assert np.array_equal(np.sign(_pc_states(nudged)), want)


@pytest.mark.parametrize("p", PC_CIRCUITS, ids=["reference", "offset"])
def test_configuration_rotation_is_each_qubit_pc_basis(p):
    # the R both builders read is the per-qubit loop over phi2, bit for bit
    u = derive_unitless(p)
    qubits = [reduce_qubit(build_qubit_bare(u, j, 50), qubit_phase(u, j, 50))
              for j in range(4)]
    R = _QubitSide(qubits, u).R
    assert R.tobytes() == pc_rotation(qubits).tobytes()


def _system(u, n_q=50, n_c=40):
    qubits = [reduce_qubit(build_qubit_bare(u, j, n_q), qubit_phase(u, j, n_q))
              for j in range(4)]
    return qubits, build_coupler(u, n_c)


def test_assemble_full_shape_and_errors():
    u = _u()
    qubits, coupler = _system(u)
    H = assemble_full(qubits, coupler, u, n_keep=8)
    assert H.data.shape == (128, 128)
    assert H.frame.states.shape == (16, coupler.data.shape[0], 8)
    with pytest.raises(ValueError):
        assemble_full(qubits[:3], coupler, u, 8)
    with pytest.raises(ValueError):
        assemble_full(qubits, coupler, u, n_keep=41)


def test_decoupled_spectrum_is_sum_of_parts():
    # alpha = 0: the product-space spectrum is the Minkowski sum of the four
    # qubit spectra and the kept coupler levels
    p = reference_circuit()
    p.M_j = np.zeros(4)
    u = derive_unitless(p)
    qubits, coupler = _system(u)
    H = assemble_full(qubits, coupler, u, n_keep=6)
    got = np.sort(np.linalg.eigvalsh(H.data))

    ev_c = np.sort(np.linalg.eigvalsh(coupler.data))
    e_c = ev_c[:6] - ev_c[0]
    parts = [np.diag(q.h2) for q in qubits] + [e_c]
    want = np.sort([sum(c) for c in itertools.product(*parts)])
    assert np.allclose(got, want, atol=1e-6 * np.max(np.abs(want)) + 1e-3)


def test_n_keep_convergence():
    u = _u()
    qubits, coupler = _system(u)
    lv8 = np.sort(np.linalg.eigvalsh(assemble_full(qubits, coupler, u, 8).data))[:16]
    lv16 = np.sort(np.linalg.eigvalsh(assemble_full(qubits, coupler, u, 16).data))[:16]
    # kept-coupler-level truncation: low spectrum stable to well below the
    # coupling scales of interest (MHz)
    assert np.allclose(lv8 - lv8[0], lv16 - lv16[0], atol=1e5)


@pytest.mark.parametrize("beta_c", [0.43, 0.60])
def test_n_keep_converges_to_the_full_space(beta_c):
    # the lowest 16 levels at n_keep = 8 against the untruncated product
    # space (n_keep = coupler_states), not against another truncation
    u = _u(beta_c)
    qubits, coupler = _system(u)

    def lowest16(n_keep):
        H = assemble_full(qubits, coupler, u, n_keep)
        lv = np.linalg.eigvalsh(H.data)[:16]
        return lv - lv[0]

    kept, full = lowest16(8), lowest16(coupler.data.shape[0])
    assert np.max(np.abs(kept - full)) <= 1e-7 * full[-1]


def test_adapted_basis_is_an_isometry_into_the_bare_frame():
    # the kept per-configuration coupler states stay orthonormal when carried
    # to the bare frame (qubit energy basis x coupler eigenbasis)
    u = _u()
    qubits, coupler = _system(u, n_c=20)
    W = isometry(assemble_full(qubits, coupler, u, n_keep=8).frame)
    assert W.shape == (320, 128)
    assert np.allclose(W.T @ W, np.eye(128), atol=1e-12)


def _assemble_full_batch_of_16(qubits, coupler, u, n_keep):
    """assemble_full with one coupler eigh per configuration, all 16 in one
    batch, whatever their forces: the reference for the one eigh per
    distinct force."""
    e_c, phi_c = coupler_eigenbasis(coupler, u)
    side = _QubitSide(qubits, u)
    R, force, direct = side.R, side.force, side.direct
    h_q = _kron_sum([q.pc.T @ q.h2 @ q.pc for q in qubits])
    eps, chi = np.linalg.eigh(np.diag(e_c) + force[:, None, None] * phi_c)
    eps, chi = eps[:, :n_keep], chi[:, :, :n_keep]
    z = np.arange(16)
    H = np.zeros((16, n_keep, 16, n_keep))
    H[z, :, z, :] = np.eye(n_keep) * (
        eps + (direct + np.diag(h_q))[:, None])[:, None, :]
    lo, hi = np.nonzero(np.triu(h_q, 1))
    hop = h_q[lo, hi][:, None, None] * (chi[lo].transpose(0, 2, 1) @ chi[hi])
    H[lo, :, hi, :] = hop
    H[hi, :, lo, :] = hop.transpose(0, 2, 1)
    return H.reshape(16 * n_keep, 16 * n_keep), chi


@pytest.mark.parametrize("p, n_forces", [
    (reference_circuit(), 5),
    (with_flux_offsets(reference_circuit(), 0.0, (0.001, 0.001, -0.002, 0.0)),
     12)], ids=["reference", "unequal"])
def test_one_coupler_eigh_per_distinct_force(p, n_forces):
    # the 16 configurations share n_forces coupler problems; solving each
    # once gives the bits of solving all 16
    u = derive_unitless(p)
    qubits, coupler = _system(u)
    assert len(np.unique(_QubitSide(qubits, u).force)) == n_forces
    H = assemble_full(qubits, coupler, u, 8)
    data, chi = _assemble_full_batch_of_16(qubits, coupler, u, 8)
    assert H.data.tobytes() == data.tobytes()
    assert H.frame.states.tobytes() == chi.tobytes()


def test_equal_qubits_give_permutation_invariant_configurations():
    # with four equal qubits, a configuration and every permutation of its
    # qubits carry the same force, pair energy and bare level, bit for bit,
    # so the force takes one value per number of right-well qubits
    u = _u()
    qubits, coupler = _system(u)
    qubits = [qubits[0]] * 4
    e_c, phi_c = coupler_eigenbasis(coupler, u)
    side = _QubitSide(qubits, u)
    force, direct = side.force, side.direct
    h0 = bare_frame(qubits, u, e_c, phi_c)[0].reshape(16, -1)
    bits = np.array(list(itertools.product((0, 1), repeat=4)))
    for perm in itertools.permutations(range(4)):
        z = bits[:, perm] @ (8, 4, 2, 1)
        for x in (force, direct, h0):
            assert x[z].tobytes() == x.tobytes()
    assert len(set(force.tolist())) == 5


# ------------------------------------------------- the qubit-side memo

@pytest.mark.usefixtures("cold_memos")
def test_builders_keep_their_bytes_through_the_qubit_side_memo():
    # bare_frame and assemble_full give the same bytes with the memo cold
    # and warm, for the memoised qubits and for freshly reduced ones, which
    # miss the memo; both are read-only
    u = _u()
    memoised = build_system(u, Truncations(50, 40, 8))[0]
    fresh, coupler = _system(u)
    e_c, phi_c = coupler_eigenbasis(coupler, u)

    def frame_bytes(qubits):
        h0, V, R = bare_frame(qubits, u, e_c, phi_c)
        return [a.tobytes() for a in (h0, *V, R)]

    def full_bytes(qubits):
        H = assemble_full(qubits, coupler, u, 8)
        return [a.tobytes() for a in (H.data, H.frame.rotation,
                                      H.frame.states)]

    for build in (frame_bytes, full_bytes):
        hamiltonian._SIDE.clear()
        cold = build(memoised)
        assert build(memoised) == cold
        assert build(fresh) == cold
        hamiltonian._SIDE.clear()
        assert build(fresh) == cold
    assert not any(a.flags.writeable for q in fresh
                   for a in (q.h2, q.phi2, q.pc))


def _nudge(a, index):
    """Move a[index] up by one ulp, in place."""
    a[index] = np.nextafter(a[index], np.inf)


def _flip(a, index):
    """Flip the sign of a[index], in place."""
    a[index] = -a[index]


def _nudged_qubit(field, index):
    """Swap qubit 2 for a copy whose field has a[index] moved up by one ulp:
    the change a read-only qubit allows."""
    def change(qubits, u):
        a = getattr(qubits[2], field).copy()
        _nudge(a, index)
        qubits[2] = dataclasses.replace(qubits[2], **{field: a})
    return change


# each value the qubit side reads, changed: the key must see it
SIDE_INPUTS = {
    "E_Ltilde_c": lambda qubits, u: setattr(
        u, "E_Ltilde_c", float(np.nextafter(u.E_Ltilde_c, np.inf))),
    "alpha": lambda qubits, u: _nudge(u.alpha, 2),
    "alpha_sign": lambda qubits, u: _flip(u.alpha, 2),
    "h2": _nudged_qubit("h2", (0, 0)),
    "phi2": _nudged_qubit("phi2", (0, 1)),
    "pc": _nudged_qubit("pc", (0, 0)),
}


# the fields of the qubit side, each read by bare_frame or assemble_full
SIDE_FIELDS = ("R", "force", "direct", "energies", "A", "F", "h_q")


def _side_bytes(side):
    return {name: getattr(side, name).tobytes() for name in SIDE_FIELDS}


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("change", SIDE_INPUTS.values(), ids=SIDE_INPUTS)
def test_qubit_side_keys_on_every_value_it_reads(change, side_builds):
    # qubits and u, read once, then changed (u in place, a qubit by a copy):
    # the next read builds the side again, with the bits of an uncached build
    u = _u()
    qubits = _system(u)[0]
    hamiltonian._qubit_side(qubits, u)
    change(qubits, u)
    side = _side_bytes(hamiltonian._qubit_side(qubits, u))
    assert side_builds == [4, 4]
    assert side == _side_bytes(_QubitSide(qubits, u))


def test_qubit_side_is_read_only():
    u = _u()
    side = hamiltonian._qubit_side(_system(u)[0], u)
    for name in SIDE_FIELDS:
        a = getattr(side, name)
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1


@pytest.mark.usefixtures("cold_memos")
def test_spectral_build_leaves_the_bare_frame_fields_unbuilt():
    # a spectral build on fresh qubits, as every fabricated chip makes,
    # builds h_q and no field that only bare_frame reads; bare_frame then
    # builds those and not h_q
    u = _u()
    qubits, coupler = _system(u)
    assemble_full(qubits, coupler, u, 8)
    side = hamiltonian._qubit_side(qubits, u)
    built = {"A", "F", "energies", "h_q"} & set(vars(side))
    assert built == {"h_q"}
    hamiltonian._SIDE.clear()
    bare_frame(qubits, u, *coupler_eigenbasis(coupler, u))
    side = hamiltonian._qubit_side(qubits, u)
    assert {"A", "F", "energies", "h_q"} & set(vars(side)) == \
        {"A", "F", "energies"}


def test_ising_model_known_spectra():
    # pure four-local: eigenvalues -+ J4, eightfold each
    m = IsingModel.symmetric(0.0, J4=5.0)
    lv = np.linalg.eigvalsh(assemble_ising_model(m).data)
    assert np.allclose(np.sort(lv), np.r_[np.full(8, -5.0), np.full(8, 5.0)])

    # pure symmetric two-local: sum_{i<j} z_i z_j = (m^2 - 4)/2, m = sum z
    m = IsingModel.symmetric(0.0, J2=3.0)
    lv = np.sort(np.linalg.eigvalsh(assemble_ising_model(m).data))
    want = np.sort([3.0 * (np.sum(z) ** 2 - 4) / 2.0
                    for z in itertools.product([-1, 1], repeat=4)])
    assert np.allclose(lv, want)

    # pure transverse field: binomial ladder -2w .. 2w
    m = IsingModel.symmetric(4.0)
    lv = np.sort(np.linalg.eigvalsh(assemble_ising_model(m).data))
    want = np.sort([2.0 * sum(s) for s in itertools.product([-1, 1], repeat=4)])
    assert np.allclose(lv, want)
    # its frame carries it to the qubit energy basis: diagonal, -+omega_j/2
    # per qubit (ground state first), qubit 0 slowest
    m.omega = np.array([1.0, 2.0, 4.0, 8.0])
    H = assemble_ising_model(m)
    W = isometry(H.frame)
    want = [np.dot(m.omega / 2.0, s)
            for s in itertools.product([-1, 1], repeat=4)]
    assert np.allclose(W @ H.data @ W.T, np.diag(want), atol=1e-12)


def test_ising_model_shift_and_orders():
    rng = np.random.default_rng(7)
    m = IsingModel(omega=rng.normal(size=4), J1=rng.normal(size=4),
                   J2=rng.normal(size=6), J3=rng.normal(size=4),
                   J4=rng.normal(), shift=1.25)
    H = assemble_ising_model(m).data
    assert np.trace(H) / 16.0 == pytest.approx(1.25, rel=1e-12)
    assert len(PAIRS) == 6 and len(TRIPLES) == 4
    # Z-string coefficients recoverable by trace inner products
    Z = np.diag([1.0, -1.0])
    ops = [np.eye(2)] * 4
    ops[0] = Z
    ops[2] = Z
    proj = np.trace(kron_all(ops) @ H) / 16.0
    assert proj == pytest.approx(m.J2[PAIRS.index((0, 2))], rel=1e-12)
