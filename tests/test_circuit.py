import numpy as np
import pytest

from fluxcoupler.circuit import (CONSTANTS, CircuitParams, PhysicalConstants,
                                 capacitance_from_xi, critical_current_from_beta,
                                 derive_unitless, impedance_parameter,
                                 inductive_energy, reference_circuit,
                                 screening_parameter, validate_regime)


def test_constants_invariants():
    c = PhysicalConstants()
    assert c.resistance_quantum == pytest.approx(
        c.planck_h / c.electron_charge**2, rel=1e-15)
    assert c.flux_quantum == pytest.approx(
        c.planck_h / (2 * c.electron_charge), rel=1e-15)


def test_both_xi_definitions_agree():
    # 4 pi Z / R_Q versus (2 pi e / Phi_0) sqrt(L/C): asserted inside
    xi = impedance_parameter(817e-12, 77e-15)
    z = np.sqrt(817e-12 / 77e-15)
    assert xi == pytest.approx(
        2 * np.pi * CONSTANTS.electron_charge / CONSTANTS.flux_quantum * z,
        rel=1e-12)


def test_reference_parameters():
    u = derive_unitless(reference_circuit(beta_c=0.43))
    assert u.xi_c == pytest.approx(0.01, rel=0.05)
    assert np.allclose(u.xi_j, 0.05, rtol=0.05)
    assert np.allclose(u.alpha, 0.049, rtol=0.01)
    assert u.E_Ltilde_c == pytest.approx(1e12, rel=0.05)
    assert u.beta_c == pytest.approx(0.43, rel=1e-12)
    assert np.allclose(u.beta_j, 1.1, rtol=1e-12)
    # degeneracy-point bias maps to zero phase offset
    assert u.phi_cx == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(u.phi_jx, 0.0, atol=1e-12)


def test_zero_mutual_decouples():
    p = reference_circuit()
    p.M_j = np.zeros(4)
    u = derive_unitless(p)
    assert np.all(u.alpha == 0)
    assert u.L_tilde_c == pytest.approx(p.L_c, rel=1e-15)


def test_beta_inversion_round_trip():
    L = 817e-12
    I = critical_current_from_beta(1.1, L)
    assert I == pytest.approx(0.443e-6, rel=5e-3)
    assert screening_parameter(I, L) == pytest.approx(1.1, rel=1e-12)


def test_xi_inversion_round_trip():
    L = 170e-12
    C = capacitance_from_xi(0.01, L)
    assert impedance_parameter(L, C) == pytest.approx(0.01, rel=1e-12)


def test_full_round_trip_precision():
    p = reference_circuit(beta_c=0.37)
    u = derive_unitless(p)
    # invert beta <-> I_c and xi <-> C at fixed inductance, re-derive
    p2 = reference_circuit(beta_c=0.37)
    p2.I_cc = critical_current_from_beta(u.beta_c, u.L_tilde_c)
    p2.C_c = capacitance_from_xi(u.xi_c, u.L_tilde_c)
    p2.I_cj = critical_current_from_beta(u.beta_j, p.L_j)
    p2.C_j = capacitance_from_xi(u.xi_j, p.L_j)
    u2 = derive_unitless(p2)
    for name in ("beta_c", "xi_c", "E_Ltilde_c"):
        assert getattr(u2, name) == pytest.approx(getattr(u, name), rel=1e-12)
    assert np.allclose(u2.beta_j, u.beta_j, rtol=1e-12)
    assert np.allclose(u2.xi_j, u.xi_j, rtol=1e-12)


def test_derive_unitless_deterministic():
    p = reference_circuit()
    a, b = derive_unitless(p), derive_unitless(p)
    assert a.E_Ltilde_c == b.E_Ltilde_c
    assert np.array_equal(a.xi_j, b.xi_j)
    assert a.beta_c == b.beta_c


def test_inductive_energy_scale():
    # 817 pH is a few tens of GHz; the rescaled coupler inductance ~1 THz
    assert inductive_energy(817e-12) == pytest.approx(0.2e12, rel=0.02)


def test_validation_errors():
    p = reference_circuit()
    with pytest.raises(ValueError):
        CircuitParams(L_j=-p.L_j, C_j=p.C_j, I_cj=p.I_cj, M_j=p.M_j,
                      L_c=p.L_c, C_c=p.C_c, I_cc=p.I_cc)
    with pytest.raises(ValueError):
        CircuitParams(L_j=p.L_j, C_j=p.C_j, I_cj=p.I_cj,
                      M_j=np.full(4, 1e-9),  # M^2 >= L_j L_c
                      L_c=p.L_c, C_c=p.C_c, I_cc=p.I_cc)


@pytest.mark.parametrize("name,value", [("L_c", np.nan), ("C_c", np.inf),
                                        ("I_cc", np.nan)])
def test_non_finite_coupler_values_rejected(name, value):
    p = reference_circuit()
    values = dict(L_j=p.L_j, C_j=p.C_j, I_cj=p.I_cj, M_j=p.M_j, L_c=p.L_c,
                  C_c=p.C_c, I_cc=p.I_cc)
    with pytest.raises(ValueError, match="L_c, C_c, I_cc must be finite"):
        CircuitParams(**{**values, name: value})


def test_unphysical_network_rejected():
    p = reference_circuit()
    # mutuals individually legal but collectively eating all of L_c
    p.M_j = np.full(4, 0.37e-9)
    p.L_j = np.full(4, 0.9e-9)
    p.L_c = 0.6e-9
    with pytest.raises(ValueError, match="unphysical mutual inductance network"):
        derive_unitless(p)


def test_beta_c_above_one_warns():
    p = reference_circuit(beta_c=1.2)
    with pytest.warns(RuntimeWarning):
        derive_unitless(p)


def test_regime_flags():
    ok = validate_regime(derive_unitless(reference_circuit(beta_c=0.43)))
    assert ok.all_ok

    bad_qubit = validate_regime(derive_unitless(reference_circuit(beta_j=0.9)))
    assert not bad_qubit.qubit_double_well

    # beta_c -> 1 closes the coupler gap below the qubit splitting
    shallow = validate_regime(derive_unitless(reference_circuit(beta_c=0.999)))
    assert not shallow.hierarchy
