"""Physical circuit parameters and their dimensionless counterparts.

The model circuit is four rf-SQUID flux qubits inductively coupled to a
common rf-SQUID coupler.  Every downstream equation is written in the
dimensionless parameters (alpha, xi, beta, phase offsets) plus two energy
scales (the coupler and qubit inductive energies).  This module is the only
place where Joules, Henries and Farads appear; energies are stored as
frequencies (energy/h, in Hz) from here on.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .oscillator import qubit_reduction

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhysicalConstants:
    planck_h: float = 6.62607015e-34      # J s
    electron_charge: float = 1.602176634e-19  # C

    @property
    def flux_quantum(self):
        # Phi_0 = h / 2e
        return self.planck_h / (2.0 * self.electron_charge)

    @property
    def resistance_quantum(self):
        # R_Q = h / e^2
        return self.planck_h / self.electron_charge**2


CONSTANTS = PhysicalConstants()


@dataclass
class CircuitParams:
    """Physical circuit values (SI units)."""

    L_j: np.ndarray        # qubit self-inductances (H), shape (4,)
    C_j: np.ndarray        # qubit junction capacitances (F)
    I_cj: np.ndarray       # qubit junction critical currents (A)
    M_j: np.ndarray        # qubit-coupler mutual inductances (H)
    L_c: float             # coupler inductance (H)
    C_c: float             # coupler capacitance (F)
    I_cc: float            # coupler critical current (A)
    Phi_cx: float = None   # coupler external flux (Wb); None = Phi_0/2 bias
    Phi_jx: np.ndarray = None  # qubit external fluxes (Wb); None = Phi_0/2 each

    def __post_init__(self):
        half = CONSTANTS.flux_quantum / 2.0
        if self.Phi_cx is None:
            self.Phi_cx = half
        if self.Phi_jx is None:
            self.Phi_jx = np.full(4, half)
        for name in ("L_j", "C_j", "I_cj", "M_j", "Phi_jx"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            if getattr(self, name).shape != (4,):
                raise ValueError(f"{name} must have shape (4,)")
        for name in ("L_j", "C_j", "I_cj"):
            if not np.all(getattr(self, name) > 0):
                raise ValueError(f"{name} entries must be strictly positive")
        if not np.all(np.isfinite([self.L_c, self.C_c, self.I_cc])):
            raise ValueError("L_c, C_c, I_cc must be finite")
        if self.L_c <= 0 or self.C_c <= 0 or self.I_cc <= 0:
            raise ValueError("L_c, C_c, I_cc must be strictly positive")
        if not np.all(self.M_j**2 < self.L_j * self.L_c):
            raise ValueError("unphysical mutual inductance: M_j^2 >= L_j*L_c")


@dataclass
class UnitlessParams:
    """Dimensionless circuit parameters plus the two inductive energy scales.

    Flux offsets are stored already pi-shifted: an external flux of Phi_0/2
    (the degeneracy point) corresponds to phi = 0.
    """

    alpha: np.ndarray      # M_j / L_j
    L_tilde_c: float       # rescaled coupler inductance (H)
    E_Ltilde_c: float      # coupler inductive energy (Hz)
    E_Lj: np.ndarray       # qubit inductive energies (Hz)
    xi_c: float
    xi_j: np.ndarray
    beta_c: float
    beta_j: np.ndarray
    phi_cx: float          # rad, 0 at the degeneracy point
    phi_jx: np.ndarray


def impedance_parameter(L, C):
    """xi = 4 pi sqrt(L/C) / R_Q; asserted equal to (2 pi e / Phi_0) sqrt(L/C)."""
    z = np.sqrt(L / C)
    xi_a = 4.0 * np.pi * z / CONSTANTS.resistance_quantum
    xi_b = TWO_PI * CONSTANTS.electron_charge / CONSTANTS.flux_quantum * z
    # the two textbook forms are algebraically identical; keep both to catch
    # constant-handling bugs
    assert np.allclose(xi_a, xi_b, rtol=1e-12)
    return xi_a


def inductive_energy(L):
    """E_L = (Phi_0 / 2 pi)^2 / L, returned as a frequency (Hz)."""
    return (CONSTANTS.flux_quantum / TWO_PI) ** 2 / L / CONSTANTS.planck_h


def screening_parameter(I_c, L):
    """beta = 2 pi L I_c / Phi_0."""
    return TWO_PI * L * I_c / CONSTANTS.flux_quantum


def critical_current_from_beta(beta, L):
    """Inverse of screening_parameter at fixed inductance."""
    return beta * CONSTANTS.flux_quantum / (TWO_PI * L)


def capacitance_from_xi(xi, L):
    """Inverse of impedance_parameter at fixed inductance."""
    z = xi * CONSTANTS.resistance_quantum / (4.0 * np.pi)
    return L / z**2


def shifted_phase(Phi):
    """Dimensionless flux offset, pi-shifted so Phi_0/2 maps to 0."""
    return TWO_PI * Phi / CONSTANTS.flux_quantum - np.pi


def rescaled_coupler_inductance(L_c, M_j, L_j):
    """L_tilde_c = L_c - sum_j alpha_j M_j, alpha_j = M_j / L_j."""
    return L_c - np.sum(M_j / L_j * M_j)


def derive_unitless(p: CircuitParams) -> UnitlessParams:
    L_tilde_c = rescaled_coupler_inductance(p.L_c, p.M_j, p.L_j)
    if L_tilde_c <= 0:
        raise ValueError("unphysical mutual inductance network: L_tilde_c <= 0")
    beta_c = screening_parameter(p.I_cc, L_tilde_c)
    if beta_c >= 1:
        warnings.warn(
            "beta_c >= 1: coupler is no longer a single-well high-frequency "
            "mode; perturbative treatment invalid", RuntimeWarning)
    return UnitlessParams(
        alpha=p.M_j / p.L_j,
        L_tilde_c=L_tilde_c,
        E_Ltilde_c=inductive_energy(L_tilde_c),
        E_Lj=inductive_energy(p.L_j),
        xi_c=impedance_parameter(L_tilde_c, p.C_c),
        xi_j=impedance_parameter(p.L_j, p.C_j),
        beta_c=beta_c,
        beta_j=screening_parameter(p.I_cj, p.L_j),
        phi_cx=float(shifted_phase(p.Phi_cx)),
        phi_jx=shifted_phase(p.Phi_jx),
    )


@dataclass
class RegimeReport:
    qubit_double_well: bool
    coupler_single_well: bool
    hierarchy: bool
    coupler_gap_estimate: float   # Hz
    qubit_splitting_estimate: float  # Hz

    @property
    def all_ok(self):
        return self.qubit_double_well and self.coupler_single_well and self.hierarchy


def validate_regime(u: UnitlessParams) -> RegimeReport:
    """Diagnostic flags for the parameter regime the model assumes.

    Never raises.  The coupler gap estimate is the harmonic value
    2 E_Ltilde_c xi_c sqrt(1 - beta_c); the qubit splitting estimate uses the
    two-level reduction from the oscillator module.
    """
    double_well = bool(np.all(u.beta_j > 1))
    single_well = bool(u.beta_c < 1)
    gap = 2.0 * u.E_Ltilde_c * u.xi_c * np.sqrt(max(1.0 - u.beta_c, 0.0))
    splitting = 0.0
    if double_well:
        # tunnel splitting estimate omega ~ E_L * omega_eff * exp-factor;
        # use the shifted-well closed form via the reduction factor machinery
        w = qubit_reduction(float(u.xi_j[0]), float(u.beta_j[0]), float(u.alpha[0]))
        # two-level splitting ~ omega_eff * overlap00 in E_L units
        splitting = float(u.E_Lj[0]) * w.omega_eff * w.overlap00
    hierarchy = single_well and gap > splitting
    return RegimeReport(double_well, single_well, hierarchy, gap, splitting)


# element values (SI) and screening parameters of the reference circuit
REFERENCE = {"L_j": 817e-12, "C_j": 77e-15, "M_j": 40e-12, "L_c": 170e-12,
             "C_c": 407e-15, "beta_j": 1.1, "beta_c": 0.43}


def reference_circuit(beta_c=REFERENCE["beta_c"], beta_j=REFERENCE["beta_j"],
                      Phi_cx_offset=0.0,
                      Phi_jx_offset=(0.0, 0.0, 0.0, 0.0)) -> CircuitParams:
    """The realizable parameter set used throughout (REFERENCE), with the
    critical currents set from the requested screening parameters.  Flux
    offsets are given relative to the Phi_0/2 degeneracy bias, in Wb.
    """
    L_j = np.full(4, REFERENCE["L_j"])
    M_j = np.full(4, REFERENCE["M_j"])
    L_c = REFERENCE["L_c"]
    half = CONSTANTS.flux_quantum / 2.0
    return CircuitParams(
        L_j=L_j,
        C_j=np.full(4, REFERENCE["C_j"]),
        I_cj=critical_current_from_beta(np.full(4, beta_j), L_j),
        M_j=M_j,
        L_c=L_c,
        C_c=REFERENCE["C_c"],
        I_cc=critical_current_from_beta(
            beta_c, rescaled_coupler_inductance(L_c, M_j, L_j)),
        Phi_cx=half + Phi_cx_offset,
        Phi_jx=half + np.asarray(Phi_jx_offset, dtype=float),
    )
