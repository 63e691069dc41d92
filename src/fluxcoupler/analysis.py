"""Parameter sweeps, branch comparisons, and fabrication-error susceptibilities."""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import circuit as circ
from .circuit import CircuitParams, derive_unitless, critical_current_from_beta
from .oscillator import qubit_reduction
from .hamiltonian import (build_coupler, build_qubit_bare, qubit_phase,
                          reduce_qubit, assemble_full)
from .spectrum import eigendecompose, extract_couplings, gap_diagnostics
from .swt import analytic_couplings, numerical_swt


@dataclass
class Truncations:
    qubit_states: int = 50
    coupler_states: int = 40
    n_keep: int = 8


@dataclass
class SweepResult:
    swept: str
    rows: list = field(default_factory=list)

    def column(self, key):
        return np.array([r.get(key, np.nan) for r in self.rows])


def build_system(u, trunc=Truncations()):
    """Reduced qubits + bare coupler for a unitless parameter set."""
    qubits = []
    for j in range(4):
        h = build_qubit_bare(u, j, trunc.qubit_states)
        phi = qubit_phase(u, j, trunc.qubit_states)
        qubits.append(reduce_qubit(h, phi))
    coupler = build_coupler(u, trunc.coupler_states)
    return qubits, coupler


def spectral_point(u, trunc=Truncations()):
    """Full-numerics pipeline at one parameter point.

    Returns (CouplingStrengths, GapDiagnostics, SpectrumResult, omegas).
    """
    qubits, coupler = build_system(u, trunc)
    full = assemble_full(qubits, coupler, u, trunc.n_keep)
    spec = eigendecompose(full)
    omega = np.array([q.omega for q in qubits])
    cs = extract_couplings(spec, omega)
    gd = gap_diagnostics(spec)
    return cs, gd, spec, omega


def couplings_point(u, trunc=Truncations(), extraction="spectral_fit"):
    """One parameter point, one extraction branch."""
    if extraction == "spectral_fit":
        cs, _, _, _ = spectral_point(u, trunc)
        return cs
    if extraction == "analytic_swt":
        w = qubit_reduction(float(np.mean(u.xi_j)), float(np.mean(u.beta_j)),
                            float(np.mean(u.alpha)))
        return analytic_couplings(u, w)
    if extraction == "numerical_swt":
        qubits, coupler = build_system(u, trunc)
        _, cs = numerical_swt(u, qubits, coupler)
        return cs
    raise ValueError(f"unknown extraction branch {extraction!r}")


def with_beta_c(p: CircuitParams, beta_c) -> CircuitParams:
    """Copy of the circuit with the coupler critical current set from beta_c."""
    q = copy.deepcopy(p)
    L_tilde = p.L_c - np.sum(p.M_j**2 / p.L_j)
    q.I_cc = critical_current_from_beta(beta_c, L_tilde)
    return q


def with_flux_offsets(p: CircuitParams, coupler_offset=0.0, qubit_offsets=None):
    """Copy of the circuit with flux offsets (units of Phi_0) away from the
    half-flux-quantum degeneracy bias."""
    q = copy.deepcopy(p)
    phi0 = circ.CONSTANTS.flux_quantum
    q.Phi_cx = phi0 / 2.0 + coupler_offset * phi0
    if qubit_offsets is not None:
        q.Phi_jx = phi0 / 2.0 + np.asarray(qubit_offsets, dtype=float) * phi0
    return q


# extraction branches, in column order, and their CSV column prefixes
BRANCHES = {"spectral_fit": "spectral", "analytic_swt": "analytic",
            "numerical_swt": "numswt"}


def _row_for(u, trunc, branches):
    row = {}
    for branch in branches:
        prefix = BRANCHES[branch]
        try:
            if branch == "spectral_fit":
                cs, gd, _, _ = spectral_point(u, trunc)
                row["delta_gap"] = gd.delta_gap
                row["delta_max"] = gd.delta_max
                row["gap_valid"] = gd.valid
            else:
                cs = couplings_point(u, trunc, branch)
            for name in ("J1", "J2", "J3", "J4"):
                row[f"{prefix}_{name}"] = getattr(cs, name)
            row[f"{prefix}_residual"] = cs.residual
            row[f"{prefix}_status"] = "ok"
        except Exception as exc:  # per-point failures stay in-row
            row[f"{prefix}_status"] = f"error: {exc}"
    return row


def sweep_beta(p: CircuitParams, beta_grid, trunc=Truncations(),
               branches=("spectral_fit",)) -> SweepResult:
    """Coupling strengths versus the coupler screening parameter."""
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0 or np.any(np.diff(beta_grid) <= 0):
        raise ValueError("beta grid must be non-empty and strictly increasing")
    out = SweepResult(swept="beta_c")
    for b in beta_grid:
        u = derive_unitless(with_beta_c(p, b))
        row = {"beta_c": float(b)}
        row.update(_row_for(u, trunc, branches))
        out.rows.append(row)
    return out


def sweep_flux(p: CircuitParams, coupler_grid, qubit_offsets=None,
               common_mode=False, trunc=Truncations(),
               branches=("spectral_fit",)) -> SweepResult:
    """Coupling strengths versus coupler flux offset (units of Phi_0).

    qubit_offsets: fixed per-qubit offsets (Phi_0 units), or None.
    common_mode: apply the swept offset to the qubits as well (same noise
    environment for the whole chip).
    """
    coupler_grid = np.asarray(coupler_grid, dtype=float)
    out = SweepResult(swept="phi_cx_offset")
    for off in coupler_grid:
        qoff = qubit_offsets
        if common_mode:
            base = np.zeros(4) if qubit_offsets is None else np.asarray(qubit_offsets)
            qoff = base + off
        u = derive_unitless(with_flux_offsets(p, off, qoff))
        row = {"flux_offset": float(off)}
        row.update(_row_for(u, trunc, branches))
        out.rows.append(row)
    return out


def compare_swt(p: CircuitParams, beta_grid, trunc=Truncations()) -> SweepResult:
    """Spectral projection, analytic SWT, and numerical SWT side by side."""
    return sweep_beta(p, beta_grid, trunc, branches=tuple(BRANCHES))


def find_special_point(p: CircuitParams, lo=0.05, hi=0.6, trunc=Truncations(),
                       extraction="spectral_fit", tol=1e-3):
    """beta_c where the extracted J4 equals -2 J2 (bisection on J4 + 2 J2)."""
    def f(b):
        cs = couplings_point(derive_unitless(with_beta_c(p, b)), trunc, extraction)
        return cs.J4 + 2.0 * cs.J2

    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise RuntimeError(
            f"J4 + 2 J2 does not change sign on [{lo}, {hi}] "
            f"(f({lo}) = {flo:.3g}, f({hi}) = {fhi:.3g})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


@dataclass
class Susceptibility:
    parameter: str
    chi_4J: float           # normalized, dimensionless
    chi_2J: float
    normalization: str
    step: float
    richardson_ok: bool


def _central_diff(f, x0, step):
    return (f(x0 + step) - f(x0 - step)) / (2.0 * step)


def susceptibility(p: CircuitParams, parameter, trunc=Truncations(),
                   extraction="analytic_swt", rel_step=1e-4) -> Susceptibility:
    """Normalized fabrication-error susceptibilities at the operating point.

    parameter in {'E_Jj', 'E_Jc', 'L_c', 'E_Ltilde_c', 'E_Lj'}.  Junction and
    qubit-inductance cases carry the multiplicity factors (4 junctions; 12
    for the two-local case because each qubit talks to three partners); the
    coupler-inductance case is the chain-rule sum over E_Ltilde_c, xi_c and
    beta_c; the E_Ltilde_c case is the overall-energy-scale variation with
    E_Lj/E_Ltilde_c held fixed.  Derivatives are central differences with a
    Richardson half-step check.
    """
    u0 = derive_unitless(p)

    def J_of(u):
        cs = couplings_point(u, trunc, extraction)
        return np.array([cs.J4, cs.J2])

    def perturbed(**updates):
        u = copy.deepcopy(u0)
        for k, v in updates.items():
            setattr(u, k, v)
        return u

    J0 = J_of(u0)

    def normalized_derivative(f, x0):
        """|dJ/dx| / J at x0, with half-step agreement flag."""
        h = rel_step * abs(x0)
        d1 = _central_diff(f, x0, h)
        d2 = _central_diff(f, x0, h / 2.0)
        ok = np.all(np.abs(d1 - d2) <= 5e-2 * np.maximum(np.abs(d2), 1e-300))
        return np.abs(d2) / np.abs(J0), bool(ok), h

    if parameter == "E_Jj":
        # E_Jj = beta_j E_Lj; vary all four beta_j together, so the
        # single-junction derivative is 1/4 of the common one; with the
        # multiplicity 4 (and extra 3 for J2) this is 1x / 3x the common slope
        beta0 = float(np.mean(u0.beta_j))
        E_Lj = float(np.mean(u0.E_Lj))

        def f(b):
            return J_of(perturbed(beta_j=np.full(4, b)))

        d, ok, h = normalized_derivative(f, beta0)
        d = d * u0.E_Ltilde_c / E_Lj   # d/dE_Jj = (1/E_Lj) d/dbeta_j, x E norm
        return Susceptibility(parameter, float(d[0]), 3.0 * float(d[1]),
                              "E_Ltilde_c", h, ok)

    if parameter == "E_Jc":
        # E_Jc = beta_c E_Ltilde_c (in energy/h units)
        def f(b):
            return J_of(perturbed(beta_c=float(b)))

        d, ok, h = normalized_derivative(f, u0.beta_c)
        return Susceptibility(parameter, float(d[0]), float(d[1]),
                              "E_Ltilde_c", h, ok)

    if parameter == "L_c":
        # chain rule through E_Ltilde_c (unit slope), xi_c, and beta_c
        def f_xi(x):
            return J_of(perturbed(xi_c=float(x)))

        def f_b(b):
            return J_of(perturbed(beta_c=float(b)))

        d_xi, ok1, h = normalized_derivative(f_xi, u0.xi_c)
        d_b, ok2, _ = normalized_derivative(f_b, u0.beta_c)
        chi = 1.0 + u0.xi_c * d_xi + u0.beta_c * d_b
        return Susceptibility(parameter, float(chi[0]), float(chi[1]),
                              "L_tilde_c", h, ok1 and ok2)

    if parameter == "E_Ltilde_c":
        # overall energy scale with E_Lj / E_Ltilde_c fixed: J ~ E exactly,
        # multiplicities 1 (four-local) and 4 (two-local)
        ratio = u0.E_Lj / u0.E_Ltilde_c

        def f(E):
            return J_of(perturbed(E_Ltilde_c=float(E), E_Lj=ratio * float(E)))

        d, ok, h = normalized_derivative(f, u0.E_Ltilde_c)
        d = d * u0.E_Ltilde_c
        return Susceptibility(parameter, float(d[0]), 4.0 * float(d[1]),
                              "E_Ltilde_c", h, ok)

    if parameter == "E_Lj":
        # E_Lj enters through beta_j = E_Jj/E_Lj: |dbeta/dE_Lj| = beta_j/E_Lj;
        # multiplicity 4 (and 12 for J2) against the 1/4 single-vs-common slope
        beta0 = float(np.mean(u0.beta_j))

        def f(b):
            return J_of(perturbed(beta_j=np.full(4, b)))

        d, ok, h = normalized_derivative(f, beta0)
        d = d * beta0
        return Susceptibility(parameter, float(d[0]), 3.0 * float(d[1]),
                              "E_Lj", h, ok)

    raise ValueError(f"unknown susceptibility parameter {parameter!r}")
