"""Acceptance criteria, one test per criterion.

Each test evaluates its criterion at the stated tolerances and emits a single
verdict line `ACCEPTANCE <name>: PASS|FAIL (<detail>)` before asserting, so
the suite output carries one pass/fail line per criterion.  The tolerances
are the contract; no test is weakened to force a pass.
"""

import time

import numpy as np
import pytest

from fluxcoupler.analysis import (Truncations, find_special_point,
                                  spectral_point, susceptibility, sweep_beta,
                                  sweep_flux, with_beta_c)
from fluxcoupler.circuit import derive_unitless, reference_circuit
from fluxcoupler.hamiltonian import (IsingModel, assemble_full,
                                     assemble_ising_model, build_coupler,
                                     build_qubit_bare, qubit_phase,
                                     reduce_qubit)
from fluxcoupler.oscillator import cosine_matrix, displaced_overlap
from fluxcoupler.spectrum import (eigendecompose, extract_couplings,
                                  gap_diagnostics, two_excitation_splitting)
from fluxcoupler.swt import analytic_couplings
from fluxcoupler.oscillator import qubit_reduction
from toys import one_qubit_toy_error

TRUNC = Truncations()          # contract defaults: 50 / 40 / 8


def _verdict(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"{name}: {detail}"


def _point(beta_c, **kw):
    u = derive_unitless(reference_circuit(beta_c=beta_c, **kw))
    cs, gd, spec, omega = spectral_point(u, TRUNC)
    return cs, gd, spec, omega


def test_criterion_1_operating_point():
    """Spectral-fit couplings at beta_c = 0.43 vs the target values."""
    t0 = time.time()
    cs, _, _, _ = _point(0.43)
    dt = time.time() - t0
    want_J4, want_J2 = 291e6, -145.5e6
    ok_J4 = abs(cs.J4 - want_J4) <= 0.15 * abs(want_J4)
    ok_J2 = abs(cs.J2 - want_J2) <= 0.15 * abs(want_J2)
    ok = ok_J4 and ok_J2 and dt < 10.0
    _verdict(
        "C1 operating point", ok,
        f"J4 = {cs.J4 / 1e6:.1f} MHz vs 291 +- 15%, "
        f"J2 = {cs.J2 / 1e6:.1f} MHz vs -145.5 +- 15%, "
        f"non-Ising norm {cs.residual / 1e6:.1f} MHz, {dt:.1f} s")


def test_criterion_2_special_point_degeneracy():
    """{2, 4} two-excitation clustering where fitted J4 = -2 J2."""
    p = reference_circuit()
    try:
        b_star = find_special_point(p, lo=0.30, hi=0.55, trunc=TRUNC)
    except (RuntimeError, ValueError) as exc:
        _verdict("C2 special-point degeneracy", False,
                 f"no J4 = -2 J2 point on [0.30, 0.55]: {exc}")
        return
    cs, _, spec, omega = _point(b_star)
    man = two_excitation_splitting(spec, omega)
    ok = (abs(b_star - 0.43) <= 0.05
          and man["degeneracies"] == [2, 4]
          and abs(man["distance"] - 3.0 * cs.J4) <= 0.02 * abs(3.0 * cs.J4))
    _verdict("C2 special-point degeneracy", ok,
             f"beta* = {b_star:.3f}, clusters {man['degeneracies']}, "
             f"distance {man['distance'] / 1e6:.1f} MHz vs 3 J4 = "
             f"{3 * cs.J4 / 1e6:.1f} MHz")


def _interp_crossing(grid, values):
    """First sign-change location of values over grid, linearly interpolated."""
    for k in range(len(grid) - 1):
        a, b = values[k], values[k + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            return grid[k]
        if a * b < 0:
            return grid[k] - a * (grid[k + 1] - grid[k]) / (b - a)
    return None


def test_criterion_3_sign_change_and_crossing():
    """J2 zero crossing near 0.20; |J2| = |J4| near 0.05."""
    grid = np.round(np.arange(0.04, 0.701, 0.06), 3)
    res = sweep_beta(reference_circuit(), grid, TRUNC)
    J2 = res.column("spectral_J2")
    J4 = res.column("spectral_J4")
    zero = _interp_crossing(grid, J2)
    equal = _interp_crossing(grid, np.abs(J2) - np.abs(J4))
    ok = (zero is not None and abs(zero - 0.20) <= 0.05
          and equal is not None and abs(equal - 0.05) <= 0.03)
    _verdict(
        "C3 sign change and crossing", ok,
        f"J2 zero crossing: {zero}, |J2| = |J4| crossing: {equal}; "
        f"J2 spans [{np.nanmin(J2) / 1e6:.1f}, {np.nanmax(J2) / 1e6:.1f}] MHz")


def test_criterion_4_analytic_values():
    """Closed-form couplings at beta_c = 0.43 and the zero-screening limit."""
    u = derive_unitless(reference_circuit(beta_c=0.43))
    well = qubit_reduction(float(np.mean(u.xi_j)), float(np.mean(u.beta_j)),
                           float(np.mean(u.alpha)))
    cs = analytic_couplings(u, well)
    ok_J4 = abs(cs.J4 - 112e6) <= 0.15 * 112e6
    ok_J2 = abs(cs.J2 - (-80e6)) <= 0.20 * 80e6
    u0 = derive_unitless(reference_circuit(beta_c=0.43))
    u0.beta_c = 0.0
    cs0 = analytic_couplings(u0, well)
    ok_zero = cs0.J1 == 0.0 and cs0.J3 == 0.0
    ok = ok_J4 and ok_J2 and ok_zero
    _verdict("C4 analytic values", ok,
             f"J4 = {cs.J4 / 1e6:.1f} MHz vs 112 +- 15% "
             f"[{'ok' if ok_J4 else 'out'}], "
             f"J2 = {cs.J2 / 1e6:.1f} MHz vs -80 +- 20% "
             f"[{'ok' if ok_J2 else 'out'}], "
             f"beta_c = 0 gives J1 = J3 = 0 [{'ok' if ok_zero else 'bad'}]")


def test_criterion_5_swt_order_scaling():
    """One-qubit toy: beyond-4th-order error scales as eps^(5 +- 0.3)."""
    eps = np.geomspace(0.005, 0.05, 8)
    errs = np.array([one_qubit_toy_error(e) for e in eps])
    slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
    ok = abs(slope - 5.0) <= 0.3
    _verdict("C5 SWT order scaling", ok,
             f"log-log slope {slope:.2f} over eps in [0.005, 0.05]")


def test_criterion_6_magic_point():
    """Flux-offset insensitivity at the half-flux coupler bias."""
    p = reference_circuit()
    m = 1e-3   # one milli-flux-quantum, in Phi_0 units
    checks = []

    # coupler-only: J4 flat to < 1%/mPhi_0, J2 measurably varying
    res = sweep_flux(p, [-m, 0.0, m], trunc=TRUNC)
    J4 = res.column("spectral_J4")
    J2 = res.column("spectral_J2")
    if np.any(np.isnan(J4)):
        checks.append(("coupler-only sweep", False, "point failure"))
    else:
        # worst-case change per milli-flux-quantum; the couplings are even in
        # the coupler offset at the qubit degeneracy, so a plain central
        # difference would vanish identically and hide the real sensitivity
        dJ4 = np.max(np.abs(J4[[0, 2]] - J4[1])) / abs(J4[1]) * 100.0
        dJ2 = np.max(np.abs(J2[[0, 2]] - J2[1])) / abs(J2[1])
        checks.append((f"J4 slope {dJ4:.2f}%/mPhi0", dJ4 < 1.0, ""))
        checks.append((f"J2 varies ({dJ2:.1e}/mPhi0)", dJ2 > 1e-4, ""))

    # common-mode and fixed-random-qubit-offset sweeps: all couplings within
    # 5% over a +-3 mPhi_0 coupler range
    for label, kwargs in [
            ("common-mode", dict(common_mode=True)),
            ("random offsets", dict(qubit_offsets=np.array([1.0, 1.5, -2.1, 3.0]) * m)),
    ]:
        res = sweep_flux(p, [-3 * m, 0.0, 3 * m], trunc=TRUNC, **kwargs)
        stat = [r["spectral_status"] for r in res.rows]
        if any(s != "ok" for s in stat):
            checks.append((f"{label}: {[s for s in stat if s != 'ok'][0]}",
                           False, ""))
            continue
        drift = 0.0
        for col in ("spectral_J2", "spectral_J4"):
            v = res.column(col)
            drift = max(drift, np.max(np.abs(v - v[1])) / abs(v[1]))
        checks.append((f"{label} max drift {drift * 100:.1f}%", drift < 0.05, ""))

    ok = all(c[1] for c in checks)
    _verdict("C6 magic point", ok,
             "; ".join(c[0] for c in checks))


def test_criterion_7_gap_crossover():
    """delta_gap = delta_max crossover inside beta_c in (0.65, 0.85)."""
    grid = np.round(np.arange(0.30, 0.951, 0.05), 3)
    diffs, usable = [], []
    for b in grid:
        try:
            u = derive_unitless(with_beta_c(reference_circuit(), b))
            from fluxcoupler.analysis import build_system
            qubits, coupler = build_system(u, TRUNC)
            gd = gap_diagnostics(eigendecompose(
                assemble_full(qubits, coupler, u, TRUNC.n_keep)))
            diffs.append(gd.delta_gap - gd.delta_max)
            usable.append(b)
        except Exception:
            diffs.append(np.nan)
            usable.append(b)
    cross = _interp_crossing(np.array(usable), np.array(diffs))
    ok = cross is not None and 0.65 < cross < 0.85
    _verdict("C7 gap crossover", ok,
             f"delta_gap = delta_max at beta_c = {cross}")


def test_criterion_8_susceptibilities():
    """Fabrication-error susceptibilities vs the target slope estimates."""
    p = reference_circuit(beta_c=0.43)
    want = {"E_Jj": (2.1, 33.1), "E_Jc": (2.7, 6.2), "L_c": (1.5, 2.1),
            "E_Lj": (9.0, 36.0)}
    details, ok = [], True
    for param, (w4, w2) in want.items():
        s = susceptibility(p, param)
        for got, wnt, tag in ((s.chi_4J, w4, "4J"), (s.chi_2J, w2, "2J")):
            factor = max(got / wnt, wnt / got)
            good = factor <= 2.0
            ok = ok and good
            details.append(f"{param}/{tag} {got:.2f} vs {wnt} (x{factor:.1f})")
    s = susceptibility(p, "E_Ltilde_c")
    exact = abs(s.chi_4J - 1.0) <= 1e-6 and abs(s.chi_2J - 4.0) <= 1e-6
    ok = ok and exact
    details.append(f"E_Ltilde_c {s.chi_4J:.8f}/{s.chi_2J:.8f} exact 1/4")
    _verdict("C8 susceptibilities", ok, "; ".join(details))


def test_criterion_9_invariant_suites(tmp_path):
    """Hermiticity, convergence, parity, fit round-trip, overlaps, CSV."""
    checks = []
    u = derive_unitless(reference_circuit(beta_c=0.43))

    # Hermiticity of every assembled operator
    herm = []
    for op in (build_coupler(u, 40), build_qubit_bare(u, 0, 50)):
        herm.append(np.linalg.norm(op.data - op.data.T)
                    <= 1e-12 * np.linalg.norm(op.data))
    checks.append(("hermiticity", all(herm)))

    # truncation convergence of the lowest 16 product-space levels
    def lowest16(trunc):
        from fluxcoupler.analysis import build_system
        qubits, coupler = build_system(u, trunc)
        lv = np.sort(np.linalg.eigvalsh(
            assemble_full(qubits, coupler, u, trunc.n_keep).data))[:16]
        return lv - lv[0]

    base = lowest16(Truncations(50, 40, 8))
    span = base[-1]
    rel_c = np.max(np.abs(lowest16(Truncations(50, 50, 8)) - base)) / span
    rel_q = np.max(np.abs(lowest16(Truncations(60, 40, 8)) - base)) / span
    rel_k = np.max(np.abs(lowest16(Truncations(50, 40, 16)) - base)) / span
    checks.append((f"coupler 40<->50 ({rel_c:.1e})", rel_c <= 1e-7))
    checks.append((f"qubit 50<->60 ({rel_q:.1e})", rel_q <= 1e-7))
    checks.append((f"n_keep 8<->16 ({rel_k:.1e})", rel_k <= 1e-7))

    # parity selection rules
    C = cosine_matrix(16, 0.31)
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    par = np.max(np.abs(C[(i + j) % 2 == 1])) <= 1e-14
    red = reduce_qubit(build_qubit_bare(u, 0, 50), qubit_phase(u, 0, 50))
    par = par and abs(red.phi2[0, 0]) <= 1e-10 and abs(red.phi2[1, 1]) <= 1e-10
    checks.append(("parity selection", bool(par)))

    # fit round-trip at 1e-9 relative
    m = IsingModel.symmetric(2.9e9, J1=1e6, J2=-145.5e6, J3=2e6, J4=291e6,
                             shift=5e8)
    cs = extract_couplings(eigendecompose(assemble_ising_model(m)),
                           np.full(4, 2.9e9))
    rel_fit = cs.residual / 2.9e9
    checks.append((f"fit round-trip ({rel_fit:.1e})", rel_fit <= 1e-9))

    # Laguerre closed form vs quadrature oracle at 1e-8
    from test_oscillator import _overlap_quadrature
    worst = 0.0
    for M, N in ((0, 0), (0, 3), (2, 5), (4, 4), (7, 1)):
        for d in (0.2, 1.0, 2.4):
            worst = max(worst, abs(displaced_overlap(M, N, d)
                                   - _overlap_quadrature(M, N, d)))
    checks.append((f"overlap oracle ({worst:.1e})", worst <= 1e-8))

    # byte-identical CSV on repeat runs
    from fluxcoupler.cli import main
    cfg = tmp_path / "r.cfg"
    cfg.write_text("[truncation]\nqubit_states = 40\ncoupler_states = 30\n"
                   "[sweep]\ngrid = 0.2, 0.4\n")
    outs = []
    for sub in ("a", "b"):
        main(["sweep-beta", "--config", str(cfg), "--out",
              str(tmp_path / sub)])
        outs.append((tmp_path / sub / "sweep_beta.csv").read_bytes())
    checks.append(("byte-identical CSV", outs[0] == outs[1]))

    ok = all(c[1] for c in checks)
    _verdict("C9 invariant suites", ok,
             "; ".join(f"{name}: {'ok' if good else 'VIOLATION'}"
                       for name, good in checks))
