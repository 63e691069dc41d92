"""The one point runner, and the sweeps, scans, special-point search and
fabrication-error susceptibilities built on it.  `run_point` records a point
as its columns and `ok`, or `error: <message>`, in its status column;
`BRANCHES` maps each extraction branch to its CSV prefix and point function;
`spectral_system` is the one spectral pipeline.
"""

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import circuit as circ
from .circuit import (CircuitParams, critical_current_from_beta,
                      derive_unitless, rescaled_coupler_inductance)
from .oscillator import qubit_reduction
from .hamiltonian import (build_coupler, build_qubit_bare, qubit_phase,
                          reduce_qubit, assemble_full)
from .spectrum import (eigendecompose, extract_couplings, gap_diagnostics,
                       two_excitation_splitting)
from .swt import analytic_couplings, numerical_swt


@dataclass
class Truncations:
    qubit_states: int = 50
    coupler_states: int = 40
    n_keep: int = 8

    def ranges(self):
        """Inclusive (min, max) of each truncation: the sizes that
        build_qubit_bare, build_coupler and assemble_full accept."""
        return {"qubit_states": (2, np.inf), "coupler_states": (10, np.inf),
                "n_keep": (1, self.coupler_states)}


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


def spectral_system(u, trunc):
    """The eigendecomposed product space at one parameter point, and the
    bare qubit splittings: (SpectrumResult, omegas)."""
    qubits, coupler = build_system(u, trunc)
    spec = eigendecompose(assemble_full(qubits, coupler, u, trunc.n_keep))
    return spec, np.array([q.omega for q in qubits])


def spectral_point(u, trunc=Truncations()):
    """Full-numerics pipeline at one parameter point.

    Returns (CouplingStrengths, GapDiagnostics, SpectrumResult, omegas).
    """
    spec, omega = spectral_system(u, trunc)
    return extract_couplings(spec, omega), gap_diagnostics(spec), spec, omega


# Point functions of the extraction branches: each returns the
# CouplingStrengths and the branch's extra columns, and calls the pipeline
# through this module's globals, so a rebound global is what runs.

def _spectral(u, trunc):
    cs, gd, _, _ = spectral_point(u, trunc)
    return cs, {"delta_gap": gd.delta_gap, "delta_max": gd.delta_max}


def _analytic(u, trunc):
    w = qubit_reduction(float(np.mean(u.xi_j)), float(np.mean(u.beta_j)),
                        float(np.mean(u.alpha)))
    return analytic_couplings(u, w), {}


def _numerical(u, trunc):
    qubits, coupler = build_system(u, trunc)
    return numerical_swt(u, qubits, coupler)[1], {}


# extraction branches, in column order: CSV column prefix, point function
BRANCHES = {"spectral_fit": ("spectral", _spectral),
            "analytic_swt": ("analytic", _analytic),
            "numerical_swt": ("numswt", _numerical)}


def couplings_point(u, trunc=Truncations(), extraction="spectral_fit"):
    """One parameter point, one extraction branch."""
    if extraction not in BRANCHES:
        raise ValueError(f"unknown extraction branch {extraction!r}")
    return BRANCHES[extraction][1](u, trunc)[0]


def run_point(row, status, point, *args):
    """Add the columns point(*args) returns to row and set row[status] to
    'ok', or to 'error: <message>' if the point raises, so that a failed
    point keeps its row."""
    try:
        row.update(point(*args))
        row[status] = "ok"
    except Exception as exc:
        row[status] = f"error: {exc}"
    return row


def _sweep(swept, column, grid, row_of):
    """The one row loop: a row per grid value, in grid order, led by the
    value under `column` and followed by the columns row_of(value) gives."""
    return SweepResult(swept, [{column: x, **row_of(x)} for x in grid])


def _scan(swept, grid, point):
    """One point per grid value, with its status in the `status` column."""
    return _sweep(swept, swept, grid,
                  lambda x: run_point({}, "status", point, x))


def _branch_columns(u_of, trunc, prefix, point):
    cs, extra = point(u_of(), trunc)
    return {**{f"{prefix}_{name}": getattr(cs, name)
               for name in ("J1", "J2", "J3", "J4", "residual")}, **extra}


def _row_for(u_of, trunc, branches):
    """Each branch's columns at the point whose parameters u_of() builds;
    u_of runs inside each branch, so a circuit it cannot build fails the
    branches and keeps the row."""
    row = {}
    for prefix, point in (BRANCHES[branch] for branch in branches):
        run_point(row, f"{prefix}_status", _branch_columns, u_of, trunc,
                  prefix, point)
    return row


def with_beta_c(p: CircuitParams, beta_c) -> CircuitParams:
    """Copy of the circuit with the coupler critical current set from beta_c,
    validated as CircuitParams validates its arguments."""
    return replace(p, I_cc=critical_current_from_beta(
        beta_c, rescaled_coupler_inductance(p.L_c, p.M_j, p.L_j)))


def with_flux_offsets(p: CircuitParams, coupler_offset=0.0, qubit_offsets=None):
    """Copy of the circuit with flux offsets (units of Phi_0) away from the
    half-flux-quantum degeneracy bias, validated as CircuitParams validates
    its arguments."""
    phi0 = circ.CONSTANTS.flux_quantum
    Phi_jx = p.Phi_jx if qubit_offsets is None else (
        phi0 / 2.0 + np.asarray(qubit_offsets, dtype=float) * phi0)
    return replace(p, Phi_cx=phi0 / 2.0 + coupler_offset * phi0,
                   Phi_jx=Phi_jx)


def sweep_beta(p: CircuitParams, beta_grid, trunc=Truncations(),
               branches=("spectral_fit",)) -> SweepResult:
    """Coupling strengths versus the coupler screening parameter."""
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0 or np.any(np.diff(beta_grid) <= 0):
        raise ValueError("beta grid must be non-empty and strictly increasing")
    return _sweep("beta_c", "beta_c", [float(b) for b in beta_grid],
                  lambda b: _row_for(
                      lambda: derive_unitless(with_beta_c(p, b)), trunc,
                      branches))


def sweep_flux(p: CircuitParams, coupler_grid, qubit_offsets=None,
               common_mode=False, trunc=Truncations(),
               branches=("spectral_fit",)) -> SweepResult:
    """Coupling strengths versus coupler flux offset (units of Phi_0).

    qubit_offsets: fixed per-qubit offsets (Phi_0 units), or None.
    common_mode: apply the swept offset to the qubits as well (same noise
    environment for the whole chip).
    """
    def row_of(off):
        qoff = qubit_offsets
        if common_mode:
            base = np.zeros(4) if qubit_offsets is None else np.asarray(qubit_offsets)
            qoff = base + off
        return _row_for(
            lambda: derive_unitless(with_flux_offsets(p, off, qoff)), trunc,
            branches)

    return _sweep("phi_cx_offset", "flux_offset",
                  [float(off) for off in coupler_grid], row_of)


def compare_swt(p: CircuitParams, beta_grid, trunc=Truncations()) -> SweepResult:
    """Spectral projection, analytic SWT, and numerical SWT side by side."""
    return sweep_beta(p, beta_grid, trunc, branches=tuple(BRANCHES))


def gap_scan(p: CircuitParams, beta_grid, trunc) -> SweepResult:
    """Gap diagnostics of the full spectrum versus beta_c."""
    def point(b):
        spec, _ = spectral_system(derive_unitless(with_beta_c(p, b)), trunc)
        gd = gap_diagnostics(spec)
        return {"delta_gap": gd.delta_gap, "delta_max": gd.delta_max,
                "valid": gd.valid}

    return _scan("beta_c", [float(b) for b in beta_grid], point)


def two_excitation_scan(p: CircuitParams, ratios, trunc) -> SweepResult:
    """Two-excitation level structure versus the qubit frequency ratio.

    Qubits 1, 2 keep their splitting; qubits 3, 4 are scaled by the ratio
    (through their inductive energy), and the six manifold levels are given
    relative to their mean.
    """
    def point(r):
        u = derive_unitless(p)
        u.E_Lj = u.E_Lj * np.array([1.0, 1.0, r, r])
        spec, omega = spectral_system(u, trunc)
        levels = two_excitation_splitting(spec, np.full(4, omega.mean()))["levels"]
        levels = levels - levels.mean()
        return {f"level_{k}": levels[k] for k in range(6)}

    return _scan("omega_ratio", [float(r) for r in ratios], point)


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


# the susceptibility parameters, in table order
SUSCEPTIBILITY_PARAMETERS = ("E_Jj", "E_Jc", "L_c", "E_Ltilde_c", "E_Lj")


def _susceptibility_terms(u0):
    """Per parameter: (chi offset, terms, 2J multiplicity, normalization).

    Each term is (unitless fields varied, each with its scale, x0, weight);
    chi = offset + sum of weight |dJ/dx| / J over the terms.
    """
    beta_j = float(np.mean(u0.beta_j))
    common_beta_j = {"beta_j": np.ones(4)}
    return {
        # E_Jj = beta_j E_Lj, all four beta_j varied together: the single-
        # junction slope is 1/4 of the common one, so with multiplicity 4
        # (and 3 more for J2) it is 1x / 3x; d/dE_Jj = (1/E_Lj) d/dbeta_j
        "E_Jj": (0.0, [(common_beta_j, beta_j,
                        u0.E_Ltilde_c / float(np.mean(u0.E_Lj)))],
                 3.0, "E_Ltilde_c"),
        # E_Jc = beta_c E_Ltilde_c (in energy/h units)
        "E_Jc": (0.0, [({"beta_c": 1.0}, u0.beta_c, 1.0)], 1.0, "E_Ltilde_c"),
        # chain rule through E_Ltilde_c (unit slope), xi_c, and beta_c
        "L_c": (1.0, [({"xi_c": 1.0}, u0.xi_c, u0.xi_c),
                      ({"beta_c": 1.0}, u0.beta_c, u0.beta_c)],
                1.0, "L_tilde_c"),
        # overall energy scale with E_Lj / E_Ltilde_c fixed: J ~ E exactly,
        # multiplicities 1 (four-local) and 4 (two-local)
        "E_Ltilde_c": (0.0, [({"E_Ltilde_c": 1.0,
                               "E_Lj": u0.E_Lj / u0.E_Ltilde_c},
                              u0.E_Ltilde_c, u0.E_Ltilde_c)],
                       4.0, "E_Ltilde_c"),
        # E_Lj enters through beta_j = E_Jj/E_Lj: |dbeta/dE_Lj| = beta_j/E_Lj;
        # multiplicity 4 (and 12 for J2) against the 1/4 single-vs-common slope
        "E_Lj": (0.0, [(common_beta_j, beta_j, beta_j)], 3.0, "E_Lj"),
    }


def susceptibility(p: CircuitParams, parameter,
                   rel_step=1e-4) -> Susceptibility:
    """Normalized fabrication-error susceptibilities at the operating point.

    parameter in {'E_Jj', 'E_Jc', 'L_c', 'E_Ltilde_c', 'E_Lj'}.  Junction and
    qubit-inductance cases carry the multiplicity factors (4 junctions; 12
    for the two-local case because each qubit talks to three partners); the
    coupler-inductance case is the chain-rule sum over E_Ltilde_c, xi_c and
    beta_c; the E_Ltilde_c case is the overall-energy-scale variation with
    E_Lj/E_Ltilde_c held fixed.  Derivatives are central differences of the
    analytic-SWT couplings with a Richardson half-step check.
    """
    u0 = derive_unitless(p)
    table = _susceptibility_terms(u0)
    if parameter not in table:
        raise ValueError(f"unknown susceptibility parameter {parameter!r}")
    chi, terms, multiplicity_2J, normalization = table[parameter]

    def J_of(u):
        cs = couplings_point(u, extraction="analytic_swt")
        return np.array([cs.J4, cs.J2])

    J0 = J_of(u0)
    ok, steps = True, []
    for fields, x0, weight in terms:
        def f(x):
            return J_of(replace(u0, **{name: scale * x
                                       for name, scale in fields.items()}))

        h = rel_step * abs(x0)
        d1 = _central_diff(f, x0, h)
        d2 = _central_diff(f, x0, h / 2.0)
        ok = ok and bool(np.all(
            np.abs(d1 - d2) <= 5e-2 * np.maximum(np.abs(d2), 1e-300)))
        chi = chi + weight * (np.abs(d2) / np.abs(J0))
        steps.append(h)
    return Susceptibility(parameter, float(chi[0]),
                          multiplicity_2J * float(chi[1]), normalization,
                          steps[0], ok)


def susceptibility_table(p: CircuitParams) -> SweepResult:
    """Every parameter's susceptibility, one row each."""
    return _scan("parameter", SUSCEPTIBILITY_PARAMETERS,
                 lambda parameter: asdict(susceptibility(p, parameter)))
