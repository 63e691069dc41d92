import itertools
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

import fluxcoupler.analysis as analysis
from fluxcoupler.analysis import (Truncations, build_system, compare_swt,
                                  couplings_point, find_special_point,
                                  gap_scan, spectral_point, susceptibility,
                                  susceptibility_table, sweep_beta, sweep_flux,
                                  two_excitation_scan, with_beta_c,
                                  with_flux_offsets)
from fluxcoupler.circuit import (REFERENCE, circuit_from, derive_unitless,
                                 reference_circuit)
from fluxcoupler import hamiltonian
from fluxcoupler.hamiltonian import (_loop, _oscillator, assemble_full,
                                     build_coupler, build_qubit_bare,
                                     qubit_phase, reduce_qubit)
from fluxcoupler.oscillator import (_margin, _quadrature, cosine_matrix,
                                    qubit_reduction)
from fluxcoupler.spectrum import eigendecompose
from fluxcoupler.swt import analytic_couplings, numerical_swt
from toys import (dense_bare_frame_couplings, einsum_pauli_decompose,
                  memo_free_system, written_out_coupler, written_out_qubit,
                  written_out_reduction)

FAST = Truncations(qubit_states=40, coupler_states=30, n_keep=8)


def test_with_beta_c_round_trip():
    p = reference_circuit(beta_c=0.43)
    u = derive_unitless(with_beta_c(p, 0.27))
    assert u.beta_c == pytest.approx(0.27, rel=1e-12)
    # original object untouched
    assert derive_unitless(p).beta_c == pytest.approx(0.43, rel=1e-12)


def test_sweep_beta_non_positive_beta_c_is_an_error_row():
    out = sweep_beta(reference_circuit(), [-0.1, 0.2], FAST,
                     branches=("spectral_fit", "analytic_swt"))
    ok = sweep_beta(reference_circuit(), [0.2], FAST,
                    branches=("spectral_fit", "analytic_swt"))
    for prefix in ("spectral", "analytic"):
        assert out.rows[0][f"{prefix}_status"] == (
            "error: L_c, C_c, I_cc must be strictly positive")
        assert np.isnan(out.column(f"{prefix}_J2")[0])
    assert out.rows[1] == ok.rows[0]


def test_with_flux_offsets_mapping():
    p = reference_circuit()
    u = derive_unitless(with_flux_offsets(p, 2e-3, [1e-3, 0, 0, -1e-3]))
    assert u.phi_cx == pytest.approx(2 * np.pi * 2e-3, rel=1e-9)
    assert u.phi_jx[0] == pytest.approx(2 * np.pi * 1e-3, rel=1e-9)
    assert u.phi_jx[3] == pytest.approx(-2 * np.pi * 1e-3, rel=1e-9)
    assert u.phi_jx[1] == pytest.approx(0.0, abs=1e-12)


def test_with_flux_offsets_validates_the_copy():
    # a wrong number of qubit offsets is refused as CircuitParams refuses it
    p = reference_circuit()
    out = sweep_flux(p, [0.0], qubit_offsets=[1e-3, 0.0], trunc=FAST)
    assert out.rows[0]["spectral_status"] == (
        "error: Phi_jx must have shape (4,)")
    with pytest.raises(ValueError, match="Phi_jx must have shape"):
        with_flux_offsets(p, 0.0, [1e-3, 0.0])


def test_sweep_beta_labels_the_manifold_at_strong_screening():
    # with the default truncations the 16 levels that the coupler dresses
    # stay identifiable up to beta_c = 0.60
    res = sweep_beta(reference_circuit(), [0.50, 0.56, 0.60], Truncations())
    assert [r["spectral_status"] for r in res.rows] == ["ok"] * 3
    assert np.all(np.isfinite(res.column("spectral_J2")))


def test_gap_scan_refuses_an_incomplete_manifold():
    # at beta_c 0.85 only 15 levels are labelled coupler-ground, so there is
    # no manifold to measure a gap from: an error row, as the couplings give
    res = gap_scan(reference_circuit(), [0.85], Truncations())
    assert res.rows == [{"beta_c": 0.85, "status": "error: fewer than 16 "
                         "coupler-ground levels identified"}]


def test_spectral_point_reference():
    cs, gd, spec, omega = spectral_point(
        derive_unitless(reference_circuit(beta_c=0.43)), FAST)
    assert np.allclose(omega, 2.9e9, rtol=1e-2)
    assert cs.J2 < 0
    assert np.isfinite(gd.delta_gap)
    assert len(spec.eigenvalues) == 16 * FAST.n_keep


def test_spectral_point_matches_the_dense_bare_frame_at_two_levels():
    # at k = 2 the dense bare-frame build with 12 coupler eigenstates is the
    # spectral branch at 50/40/8: J2 -618.28 and J4 2.71 MHz at beta_c 0.43,
    # within 0.01 MHz (the reference a k-level builder is tested against)
    u = derive_unitless(reference_circuit(beta_c=0.43))
    cs = spectral_point(u, Truncations())[0]
    dense = dense_bare_frame_couplings(u, 2, 12)
    assert cs.J2 == pytest.approx(-618.28e6, abs=0.01e6)
    assert cs.J4 == pytest.approx(2.71e6, abs=0.01e6)
    for name in ("J2", "J4"):
        assert getattr(dense, name) == pytest.approx(getattr(cs, name),
                                                     abs=0.01e6), name


# The static (Born-Oppenheimer) limit: the qubits frozen in their 16
# persistent-current configurations z, each with the energy
# E_0(lambda(z)) - E_0(0) + direct(z), where E_0(lambda) is the ground level
# of H_c + lambda phi_c.  The spectral branch with one coupler state per
# configuration reads that diagonal's J2 and J4.
STATIC = Truncations(n_keep=1)


def _pc_phases(u):
    """Each qubit's two phase eigenvalues phi_j(z_j) in its two-level
    reduction, written out with no library builder."""
    return [np.linalg.eigvalsh(written_out_reduction(*written_out_qubit(
        u, j, STATIC.qubit_states)).phi2) for j in range(4)]


def _static_couplings(u):
    """(J2, J4) of the static limit: an independent Pauli decomposition of
    the diagonal E_0(lambda(z)) - E_0(0) + direct(z), J2 the mean of its six
    pair strings."""
    h_c, phi_c = written_out_coupler(u, STATIC.coupler_states)
    E = u.E_Ltilde_c
    phases = _pc_phases(u)
    diagonal = []
    for z in itertools.product((0, 1), repeat=4):
        x = [u.alpha[j] * phases[j][z_j] for j, z_j in enumerate(z)]
        direct = E * sum(x[i] * x[j]
                         for i, j in itertools.combinations(range(4), 2))
        diagonal.append(np.linalg.eigvalsh(h_c + E * sum(x) * phi_c)[0]
                        + direct)
    diagonal = np.array(diagonal) - np.linalg.eigvalsh(h_c)[0]
    model = einsum_pauli_decompose(np.diag(diagonal))[0]
    return np.mean(model.J2), model.J4


def _epsilon(u):
    """alpha phi_pc of qubit 0: 0.0277 on the reference circuit."""
    return u.alpha[0] * _pc_phases(u)[0][1]


@pytest.mark.parametrize("beta_c", [0.02, 0.43, 0.60])
def test_static_limit_is_the_spectral_branch_at_one_coupler_state(beta_c):
    # identical qubits at zero bias only (the reference circuit): the
    # agreement is unmeasured for distinct or biased qubits.  J2 -574.07
    # and J4 2.31 MHz at beta_c 0.43
    u = derive_unitless(reference_circuit(beta_c=beta_c))
    cs = spectral_point(u, STATIC)[0]
    J2, J4 = _static_couplings(u)
    assert cs.J2 == pytest.approx(J2, rel=1e-9)
    assert cs.J4 == pytest.approx(J4, rel=1e-9)


def test_static_limit_without_screening_has_no_couplings():
    # beta_c = 0: a harmonic coupler gives an exactly quadratic E_0(lambda),
    # whose induced pair term cancels the direct one.  Set on the unitless
    # parameters: with_beta_c(p, 0) would ask for a zero critical current
    u = derive_unitless(reference_circuit(beta_c=0.43))
    u.beta_c = 0.0
    cs = spectral_point(u, STATIC)[0]
    bound = 1e-12 * u.E_Ltilde_c * _epsilon(u) ** 2
    assert abs(cs.J2) < bound
    assert abs(cs.J4) < bound


def test_static_limit_is_first_order_in_weak_screening():
    # to first order in the coupler's quartic term,
    # J4 = beta_c E eps^4 / (1 - beta_c)^4 (ratio 0.994 at beta_c 0.02)
    u = derive_unitless(reference_circuit(beta_c=0.02))
    cs = spectral_point(u, STATIC)[0]
    first_order = (u.beta_c * u.E_Ltilde_c * _epsilon(u) ** 4
                   / (1.0 - u.beta_c) ** 4)
    assert cs.J4 == pytest.approx(first_order, rel=0.02)


def test_truncations_are_values():
    # the default Truncations every default argument shares refuses edits;
    # a truncation is varied by a new value
    trunc = Truncations()
    with pytest.raises(FrozenInstanceError):
        trunc.n_keep = 1
    static = replace(trunc, n_keep=1)
    assert static == Truncations(50, 40, 1) and static is not trunc
    assert trunc == Truncations(50, 40, 8)
    assert spectral_point.__defaults__ == (Truncations(50, 40, 8),)


def test_couplings_point_branches():
    # each branch name runs its own pipeline: the same values as the direct
    # call, and three different values
    u = derive_unitless(reference_circuit(beta_c=0.3))
    w = qubit_reduction(float(np.mean(u.xi_j)), float(np.mean(u.beta_j)),
                        float(np.mean(u.alpha)))
    direct = {"spectral_fit": spectral_point(u, FAST)[0],
              "analytic_swt": analytic_couplings(u, w),
              "numerical_swt": numerical_swt(u, *build_system(u, FAST))[1]}
    for branch, want in direct.items():
        cs = couplings_point(u, FAST, branch)
        for name in ("J1", "J2", "J3", "J4", "shift", "residual"):
            assert getattr(cs, name) == getattr(want, name), (branch, name)
        assert np.isfinite(cs.J4)
    assert len({cs.J4 for cs in direct.values()}) == 3
    with pytest.raises(ValueError):
        couplings_point(u, FAST, "nonsense")


def test_sweep_beta_grid_validation():
    p = reference_circuit()
    with pytest.raises(ValueError):
        sweep_beta(p, [])
    with pytest.raises(ValueError):
        sweep_beta(p, [0.3, 0.2])


def test_sweep_beta_rows_and_determinism():
    p = reference_circuit()
    grid = [0.2, 0.35]
    a = sweep_beta(p, grid, FAST)
    b = sweep_beta(p, grid, FAST)
    assert a.columns[0] == "beta_c"
    assert [r["beta_c"] for r in a.rows] == grid
    for r in a.rows:
        assert r["spectral_status"] == "ok"
    # bit-identical repeat runs
    for key in ("spectral_J2", "spectral_J4", "delta_gap"):
        assert np.array_equal(a.column(key), b.column(key))


def test_every_table_declares_its_columns():
    # each subcommand's table, one grid point each: a row holds no column
    # its table leaves out (the CSV writer would drop it), and a row whose
    # every status is ok holds every declared column (none is always nan)
    p = reference_circuit()
    branches = tuple(analysis.BRANCHES)
    tables = {
        "sweep-beta": sweep_beta(p, [0.43], FAST, branches),
        "sweep-flux": sweep_flux(p, [0.0], trunc=FAST, branches=branches),
        "compare-swt": compare_swt(p, [0.43], FAST),
        "gap-scan": gap_scan(p, [0.43], FAST),
        "spectrum": two_excitation_scan(p, [1.0], FAST),
        "susceptibility": susceptibility_table(p),
    }
    for name, res in tables.items():
        assert len(set(res.columns)) == len(res.columns), name
        for row in res.rows:
            assert set(row) <= set(res.columns), name
            assert all(row[col] == "ok" for col in res.columns
                       if col.endswith("status")), name
            assert set(row) == set(res.columns), name


def test_negative_mutual_inductance_flips_the_odd_couplings():
    # the double well reads alpha^2 alone, so M_j -> -M_j leaves J2 and J4
    # and negates J1 and J3; the analytic branch used to refuse alpha < 0
    plus, minus = (compare_swt(circuit_from({**REFERENCE, "M_j": M}),
                               [0.2, 0.43], FAST) for M in (40e-12, -40e-12))
    for a, b in zip(plus.rows, minus.rows):
        assert a["analytic_status"] == b["analytic_status"] == "ok"
        for name in ("J2", "J4"):
            assert b[f"analytic_{name}"] == a[f"analytic_{name}"]
            assert b[f"spectral_{name}"] == pytest.approx(
                a[f"spectral_{name}"], rel=1e-9)
        for name in ("J1", "J3"):
            assert b[f"analytic_{name}"] == -a[f"analytic_{name}"]


def test_analytic_branch_refuses_flux_offsets():
    # off the degeneracy point the closed forms do not apply: every row of
    # a flux sweep with qubit offsets is an error row, none an ok one
    res = sweep_flux(reference_circuit(), [-0.003, 0.0, 0.003],
                     qubit_offsets=[0.001, -0.002, 0.0015, 0.0005],
                     trunc=FAST, branches=("analytic_swt",))
    assert [r["analytic_status"] for r in res.rows] == [
        "error: analytic couplings need four identical qubits at the "
        "degeneracy point"] * 3
    assert np.all(np.isnan(res.column("analytic_J4")))


def test_sweep_beta_error_rows_stay_in_band():
    # a grid point in the forbidden regime shows up as an error row, without
    # taking down the rest of the sweep
    p = reference_circuit()
    out = sweep_beta(p, [0.3, 1.05], FAST)
    assert out.rows[0]["spectral_status"] == "ok"
    assert out.rows[1]["spectral_status"].startswith("error")
    assert np.isnan(out.column("spectral_J4")[1])


def test_coupler_regime_is_decided_by_the_builders():
    # beta_c >= 1 converts without complaint; every branch refuses it where
    # its coupler is built, each with its builder's message
    res = compare_swt(reference_circuit(), [1.05], FAST)
    assert {k: v for k, v in res.rows[0].items() if k.endswith("status")} == {
        "spectral_status": "error: beta_c >= 1: coupler harmonic frame invalid",
        "analytic_status": "error: beta_c >= 1: analytic couplings diverge",
        "numswt_status": "error: beta_c >= 1: coupler harmonic frame invalid"}


def test_truncation_ranges_agree_with_the_builders():
    # the config's bounds and the builders' are written apart: each bound
    # of Truncations.ranges() is accepted by the builder that reads it, and
    # one step past it refused
    u = derive_unitless(reference_circuit())
    trunc = Truncations(qubit_states=20, coupler_states=10, n_keep=4)
    ranges = trunc.ranges()
    for key, build in (("qubit_states", lambda n: build_qubit_bare(u, 0, n)),
                       ("coupler_states", lambda n: build_coupler(u, n))):
        lo, hi = ranges[key]
        assert hi == np.inf
        build(lo)
        with pytest.raises(ValueError):
            build(lo - 1)
    qubits, coupler = build_system(u, trunc)
    lo, hi = ranges["n_keep"]
    assert hi == len(coupler.data)
    for n_keep in (lo, hi):
        assemble_full(qubits, coupler, u, n_keep)
    for n_keep in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            assemble_full(qubits, coupler, u, n_keep)


def test_sweep_flux_coupler_even_symmetry():
    # couplings are even in the coupler flux offset at the qubit degeneracy
    p = reference_circuit(beta_c=0.3)
    lv = {}
    for sign in (-1, 1):
        u = derive_unitless(with_flux_offsets(p, sign * 2e-3))
        _, _, spec, _ = spectral_point(u, FAST)
        lv[sign] = spec.eigenvalues - spec.eigenvalues[0]
    # the spectrum is exactly even in the coupler offset (phi -> -phi maps
    # one sign to the other at the qubit degeneracy point)
    assert np.allclose(lv[-1], lv[1], rtol=1e-9, atol=1.0)
    # the extracted couplings inherit the symmetry
    out = sweep_flux(p, [-2e-3, 0.0, 2e-3], trunc=FAST)
    J4 = out.column("spectral_J4")
    J2 = out.column("spectral_J2")
    assert J4[0] == pytest.approx(J4[2], rel=1e-9)
    assert J2[0] == pytest.approx(J2[2], rel=1e-9)


def test_sweep_flux_common_mode_plumbing():
    p = reference_circuit(beta_c=0.3)
    out = sweep_flux(p, [1e-3], common_mode=True,
                     qubit_offsets=[0.0, 0.0, 0.0, 0.0], trunc=FAST)
    assert out.rows[0]["flux_offset"] == pytest.approx(1e-3)
    assert out.rows[0]["spectral_status"] == "ok"


def test_compare_swt_has_all_branches():
    out = compare_swt(reference_circuit(), [0.3], FAST)
    row = out.rows[0]
    for prefix in ("spectral", "analytic", "numswt"):
        assert row[f"{prefix}_status"] == "ok"
        assert np.isfinite(row[f"{prefix}_J2"])


def test_every_branch_refuses_a_single_well_qubit():
    # beta_j = 1.001 < 1 + alpha_j^2 = 1.0024: the qubit loop has one well
    out = compare_swt(reference_circuit(beta_j=1.001), [0.43], FAST)
    row = out.rows[0]
    for prefix in ("spectral", "analytic", "numswt"):
        assert row[f"{prefix}_status"].startswith("error: ")
        assert "no double well" in row[f"{prefix}_status"]
        assert np.isnan(out.column(f"{prefix}_J4")[0])
    # one refusal, one wording, whichever builder decides it
    assert row["spectral_status"] == row["analytic_status"] \
        == row["numswt_status"]


def _assert_separate_build_bits(u, qubits, n):
    # each qubit bit-identical to a separate build at truncation n
    for j, q in enumerate(qubits):
        ref = reduce_qubit(build_qubit_bare(u, j, n), qubit_phase(u, j, n))
        for name in ("h2", "phi2", "pc"):
            assert getattr(q, name).tobytes() == getattr(ref, name).tobytes()
        assert np.float64(q.omega).tobytes() == np.float64(ref.omega).tobytes()


def _count_builds(monkeypatch):
    """The (j, n) of every build_qubit_bare call that build_system makes,
    recorded from now on."""
    calls = []

    def counted(u, j, n, build=hamiltonian.build_qubit_bare):
        calls.append((j, n))
        return build(u, j, n)

    monkeypatch.setattr(hamiltonian, "build_qubit_bare", counted)
    return calls


def _assert_builds(monkeypatch, u, owners):
    # build_system(u, FAST) builds qubit j only where owners[j] == j and hands
    # qubit owners[j]'s ReducedQubit to j, each with a separate build's bits
    calls = _count_builds(monkeypatch)
    qubits = analysis.build_system(u, FAST)[0]
    assert [j for j, _ in calls] == sorted(set(owners))
    assert all(q is qubits[k] for q, k in zip(qubits, owners))
    _assert_separate_build_bits(u, qubits, FAST.qubit_states)


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("offsets, owners", [
    (None, [0, 0, 0, 0]),
    ((0.001, 0.001, -0.002, 0.0), [0, 0, 2, 3])])
def test_build_system_builds_each_distinct_qubit_once(offsets, owners,
                                                      monkeypatch):
    p = with_flux_offsets(reference_circuit(), 0.0, offsets)
    _assert_builds(monkeypatch, derive_unitless(p), owners)


def _with_qubit_2(u, name, change):
    """u with qubit 2's entry of field `name` replaced by change(entry)."""
    values = np.array(getattr(u, name), dtype=float)
    values[2] = change(values[2])
    return replace(u, **{name: values})


def _next_alpha_moving_c(alpha):
    """The first float above alpha whose c = 1 + alpha^2 differs from
    alpha's."""
    c = 1.0 + float(alpha)**2
    moved = np.nextafter(alpha, np.inf)
    while 1.0 + float(moved)**2 == c:
        moved = np.nextafter(moved, np.inf)
    return moved


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("name, change", [
    ("E_Lj", lambda x: np.nextafter(x, np.inf)),
    ("xi_j", lambda x: np.nextafter(x, np.inf)),
    ("alpha", _next_alpha_moving_c),
    ("beta_j", lambda x: np.nextafter(x, np.inf)),
    ("phi_jx", lambda x: np.nextafter(x, np.inf))],
    ids=["E_Lj", "xi_j", "alpha", "beta_j", "phi_jx"])
def test_build_system_keys_on_every_qubit_field(name, change, monkeypatch):
    # the fields that feed the five loop parameters (E_L, xi, c, beta,
    # phi_x): one ulp on E_Lj, xi_j, beta_j or phi_jx, or the smallest
    # change of alpha that moves c, gives qubit 2 its own build
    u = derive_unitless(reference_circuit())
    changed = _with_qubit_2(u, name, change)
    assert _loop(changed, 2) != _loop(u, 2)
    _assert_builds(monkeypatch, changed, [0, 0, 2, 0])


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("name, change", [
    ("alpha", lambda x: np.nextafter(x, np.inf)),
    ("alpha", lambda x: -x),
    ("phi_jx", lambda x: -x)],
    ids=["alpha_same_c", "alpha_sign", "phi_jx_sign"])
def test_build_system_shares_qubits_with_equal_loops(name, change,
                                                     monkeypatch):
    # the builders read alpha only through c = 1 + alpha^2, and a -0.0 bias
    # gives the bits of +0.0: qubit 2 shares qubit 0's build, which has the
    # bits of a fresh build of qubit 2
    u = derive_unitless(reference_circuit())
    changed = _with_qubit_2(u, name, change)
    before, after = getattr(u, name)[2], getattr(changed, name)[2]
    assert np.float64(before).tobytes() != np.float64(after).tobytes()
    assert _loop(changed, 2) == _loop(u, 2)
    _assert_builds(monkeypatch, changed, [0, 0, 0, 0])


def test_qubit_builders_read_only_the_key(monkeypatch):
    # every builder of a loop reads u through _loop alone: handed an empty
    # u and a _loop that answers from the real one, it gives the same bits
    p = with_flux_offsets(reference_circuit(), 0.001,
                          (0.001, 0.001, -0.002, 0.0))
    u = derive_unitless(p)
    n = FAST.qubit_states
    builders = [(b, (j, n)) for j in range(4)
                for b in (build_qubit_bare, qubit_phase)]
    builders.append((build_coupler, (n,)))
    want = [b(u, *args).data.tobytes() for b, args in builders]
    loops = {j: _loop(u, j) for j in (None, 0, 1, 2, 3)}
    monkeypatch.setattr(hamiltonian, "_loop", lambda _, j=None: loops[j])
    assert [b(SimpleNamespace(), *args).data.tobytes()
            for b, args in builders] == want


@pytest.mark.usefixtures("cold_memos")
def test_beta_sweep_builds_its_qubits_and_coupler_cosine_once(monkeypatch):
    # the qubits and the coupler's cosine argument do not depend on beta_c:
    # a 3-point sweep builds the shared qubit at its first point only, and
    # computes each of the two cosine matrices (qubit, coupler) once
    calls = _count_builds(monkeypatch)
    out = sweep_beta(reference_circuit(), [0.2, 0.3, 0.43], FAST,
                     branches=("numerical_swt",))
    assert list(out.column("numswt_status")) == ["ok"] * 3
    assert calls == [(0, FAST.qubit_states)]
    info = cosine_matrix.cache_info()
    # misses: the qubit's matrix and the coupler's, once each; hits: the
    # coupler's at the second and third points
    assert (info.misses, info.hits) == (2, 2)


@pytest.mark.usefixtures("cold_memos")
def test_qubit_memo_keys_on_the_truncation(monkeypatch):
    calls = _count_builds(monkeypatch)
    u = derive_unitless(reference_circuit())
    for n in (20, 30):
        qubits = build_system(u, Truncations(n, 30, 8))[0]
        assert qubits[0].h2.shape == (2, 2)
        _assert_separate_build_bits(u, qubits, n)
    assert calls == [(0, 20), (0, 30)]


@pytest.mark.usefixtures("cold_memos")
def test_memoised_results_are_read_only():
    u = derive_unitless(reference_circuit())
    q = build_system(u, FAST)[0][0]
    C = cosine_matrix(12, 0.3)
    built = _quadrature.cache_info().misses
    # the decomposition C was taken from, read from the memo
    constants = [*_quadrature(12 + _margin(12, 0.3)), *_oscillator(12)]
    assert _quadrature.cache_info().misses == built
    for a in (q.h2, q.phi2, q.pc, C, cosine_matrix(12, 0.0), *constants):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
    _assert_separate_build_bits(u, build_system(u, FAST)[0],
                                FAST.qubit_states)


def _perturbed_chip(seed):
    """The reference circuit at beta_c 0.43, beta_j 1.1 with every qubit
    element 1 % off its design value and each qubit 1e-4 Phi_0 off its
    bias, drawn from seed: four distinct qubits, 16 distinct forces."""
    rng = np.random.default_rng(seed)
    p = reference_circuit(beta_c=0.43, beta_j=1.1)
    spread = {name: getattr(p, name) * (1.0 + 0.01 * rng.normal(size=4))
              for name in ("L_j", "C_j", "I_cj", "M_j")}
    return with_flux_offsets(replace(p, **spread), 0.0,
                             1e-4 * rng.normal(size=4))


@pytest.mark.usefixtures("cold_memos")
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_perturbed_chip_has_the_memo_free_bits(seed):
    # build_system through its memos (qubits, cosine matrices, oscillator
    # constants), two chips in one process, against each qubit and the
    # coupler written out and reduced with no memo at all
    trunc = Truncations()
    for chip in (_perturbed_chip(seed), _perturbed_chip(seed + 100)):
        u = derive_unitless(chip)
        got = assemble_full(*build_system(u, trunc), u, trunc.n_keep)
        want = assemble_full(*memo_free_system(u, trunc), u, trunc.n_keep)
        assert got.data.tobytes() == want.data.tobytes()
        assert eigendecompose(got).eigenvalues.tobytes() == \
            np.linalg.eigh(want.data)[0].tobytes()


@pytest.mark.usefixtures("cold_memos")
def test_qubit_memo_is_bounded_and_evicts_the_oldest(monkeypatch):
    # more distinct qubits than the bound: the memo keeps the newest
    # _REDUCED_MAX of them, and a qubit evicted from it is built again
    calls = _count_builds(monkeypatch)
    trunc = Truncations(12, 10, 4)
    points = hamiltonian._REDUCED_MAX // 4 + 1
    systems = [derive_unitless(with_flux_offsets(
        reference_circuit(), 0.0, 1e-4 * (4 * k + np.arange(4))))
        for k in range(points)]
    for u in systems:
        build_system(u, trunc)
    assert len(calls) == 4 * points
    assert len(hamiltonian._REDUCED) == hamiltonian._REDUCED_MAX
    build_system(systems[-1], trunc)
    assert len(calls) == 4 * points
    build_system(systems[0], trunc)
    assert len(calls) == 4 * points + 4
    assert len(hamiltonian._REDUCED) == hamiltonian._REDUCED_MAX


@pytest.mark.usefixtures("cold_memos")
def test_qubit_side_is_built_once_per_qubit_set(side_builds):
    # the qubits do not depend on beta_c: a 30-point numerical-SWT sweep, and
    # a comparison of every branch, build the qubit side once; two circuits
    # with different qubits build it once each
    grid = 0.02 + 0.02 * np.arange(30)
    out = sweep_beta(reference_circuit(), grid, FAST,
                     branches=("numerical_swt",))
    assert list(out.column("numswt_status")) == ["ok"] * 30
    assert side_builds == [4]
    hamiltonian._SIDE.clear()
    out = compare_swt(reference_circuit(), [0.2, 0.3, 0.43], FAST)
    assert all(row[f"{prefix}_status"] == "ok" for row in out.rows
               for prefix in ("spectral", "numswt"))
    assert side_builds == [4] * 2
    hamiltonian._SIDE.clear()
    offset = with_flux_offsets(reference_circuit(), 0.0,
                               (0.001, 0.001, -0.002, 0.0))
    for p in (reference_circuit(), offset):
        sweep_beta(p, [0.2, 0.3], FAST, branches=("numerical_swt",))
    assert side_builds == [4] * 4


def test_find_special_point_bisection(monkeypatch):
    # synthetic couplings with a known J4 = -2 J2 crossing at beta = 0.37
    class FakeCS:
        def __init__(self, b):
            self.J4 = b - 0.37
            self.J2 = 0.0

    monkeypatch.setattr(analysis, "couplings_point",
                        lambda u, trunc, extraction: FakeCS(u.beta_c))
    b = find_special_point(reference_circuit(), lo=0.05, hi=0.6, tol=1e-4)
    assert b == pytest.approx(0.37, abs=1e-4)


def test_find_special_point_no_crossing():
    # the analytic branch keeps J4 + 2 J2 positive throughout this range
    with pytest.raises(RuntimeError, match="does not change sign"):
        find_special_point(reference_circuit(), lo=0.1, hi=0.6,
                           extraction="analytic_swt")


def _bounded_crossing(monkeypatch, limit=200):
    """Stub couplings_point with J4 + 2 J2 = beta_c - 0.37, raising after
    `limit` calls, so that a bisection that never stops fails instead of
    hanging.  Returns the list of the beta_c values it was called at."""
    calls = []

    def fake(u, trunc, extraction):
        calls.append(u.beta_c)
        if len(calls) > limit:
            raise RuntimeError(f"bisection still running after {limit} points")
        return SimpleNamespace(J4=u.beta_c - 0.37, J2=0.0)

    monkeypatch.setattr(analysis, "couplings_point", fake)
    return calls


@pytest.mark.parametrize("tol", [0.0, -1e-3, np.nan])
def test_find_special_point_refuses_a_tolerance_that_is_not_positive(
        monkeypatch, tol):
    calls = _bounded_crossing(monkeypatch)
    with pytest.raises(ValueError, match="tol must be positive"):
        find_special_point(reference_circuit(), tol=tol)
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(0.6, 0.05), (0.3, 0.3), (np.nan, 0.6)])
def test_find_special_point_refuses_an_empty_bracket(monkeypatch, lo, hi):
    calls = _bounded_crossing(monkeypatch)
    with pytest.raises(ValueError, match="need lo < hi"):
        find_special_point(reference_circuit(), lo=lo, hi=hi)
    assert calls == []


def test_find_special_point_stops_at_adjacent_floats(monkeypatch):
    # a tolerance below the float spacing at the root ends when the bracket
    # can no longer be halved
    calls = _bounded_crossing(monkeypatch)
    b = find_special_point(reference_circuit(), lo=0.05, hi=0.6, tol=1e-300)
    assert b == pytest.approx(0.37, abs=1e-15)
    assert len(calls) < 70


@pytest.mark.parametrize("rel_step", [0.0, -1e-4, np.nan, np.inf])
def test_susceptibility_refuses_a_step_that_is_not_positive(rel_step):
    with pytest.raises(ValueError, match="rel_step must be positive"):
        susceptibility(reference_circuit(beta_c=0.43), "E_Jc",
                       rel_step=rel_step)


def test_susceptibility_exact_energy_scale_case():
    s = susceptibility(reference_circuit(beta_c=0.43), "E_Ltilde_c")
    # pure energy-scale variation: J proportional to E exactly, so the
    # normalized susceptibilities are the multiplicities 1 and 4
    assert s.chi_4J == pytest.approx(1.0, abs=1e-6)
    assert s.chi_2J == pytest.approx(4.0, abs=1e-6)
    assert s.richardson_ok


@pytest.mark.parametrize("parameter", ["E_Jj", "E_Jc", "L_c", "E_Lj"])
def test_susceptibility_finite_and_deterministic(parameter):
    p = reference_circuit(beta_c=0.43)
    a = susceptibility(p, parameter)
    b = susceptibility(p, parameter)
    assert np.isfinite(a.chi_4J) and a.chi_4J > 0
    assert np.isfinite(a.chi_2J) and a.chi_2J > 0
    assert a.chi_4J == b.chi_4J and a.chi_2J == b.chi_2J
    assert a.richardson_ok


def test_susceptibility_step_robustness():
    p = reference_circuit(beta_c=0.43)
    a = susceptibility(p, "E_Jc", rel_step=1e-4)
    b = susceptibility(p, "E_Jc", rel_step=1e-3)
    assert a.chi_4J == pytest.approx(b.chi_4J, rel=1e-3)
    assert a.chi_2J == pytest.approx(b.chi_2J, rel=1e-3)


def test_susceptibility_unknown_parameter():
    with pytest.raises(ValueError):
        susceptibility(reference_circuit(), "C_c")
