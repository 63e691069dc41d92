import numpy as np
import pytest

import fluxcoupler.analysis as analysis
from fluxcoupler.analysis import (Truncations, compare_swt, couplings_point,
                                  find_special_point, spectral_point,
                                  susceptibility, sweep_beta, sweep_flux,
                                  with_beta_c, with_flux_offsets)
from fluxcoupler.circuit import derive_unitless, reference_circuit

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


def test_spectral_point_reference():
    cs, gd, spec, omega = spectral_point(
        derive_unitless(reference_circuit(beta_c=0.43)), FAST)
    assert cs.provenance == "spectral_fit"
    assert np.allclose(omega, 2.9e9, rtol=1e-2)
    assert cs.J2 < 0
    assert np.isfinite(gd.delta_gap)
    assert len(spec.eigenvalues) == 16 * FAST.n_keep


def test_couplings_point_branches():
    u = derive_unitless(reference_circuit(beta_c=0.3))
    for branch in ("spectral_fit", "analytic_swt", "numerical_swt"):
        cs = couplings_point(u, FAST, branch)
        assert cs.provenance == branch
        assert np.isfinite(cs.J4)
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
    assert a.swept == "beta_c"
    assert [r["beta_c"] for r in a.rows] == grid
    for r in a.rows:
        assert r["spectral_status"] == "ok"
    # bit-identical repeat runs
    for key in ("spectral_J2", "spectral_J4", "delta_gap"):
        assert np.array_equal(a.column(key), b.column(key))


def test_sweep_beta_error_rows_stay_in_band():
    # a grid point in the forbidden regime shows up as an error row, without
    # taking down the rest of the sweep
    p = reference_circuit()
    with pytest.warns(RuntimeWarning, match="beta_c >= 1"):
        out = sweep_beta(p, [0.3, 1.05], FAST)
    assert out.rows[0]["spectral_status"] == "ok"
    assert out.rows[1]["spectral_status"].startswith("error")
    assert np.isnan(out.column("spectral_J4")[1])


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
