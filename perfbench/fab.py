"""Seeded Monte-Carlo chips for the fab-spread workload.

Every chip is the reference circuit at the operating point (beta_c = 0.43,
beta_j = 1.1) with each element drawn independently around its design value.
Chip i of seed s depends only on (s, i), so a batch is the same whatever its
size, and the library sees nothing but the finished CircuitParams.
"""

import numpy as np

CHIPS_PER_BATCH = 64

# Relative one-sigma spread per element.  Junction critical currents and
# capacitances both scale with the junction area and barrier, the least
# controlled step of a Nb/AlOx process, so they get the widest spread (2 %).
# Loop and mutual inductances are set by lithographic geometry and get 1 %.
# With these values beta_j stays above 1 (no chip loses its double well) and
# beta_c at or below 0.47, so no chip raises.  A few chips in 64 still get
# fewer than 16 levels labelled coupler-ground; the chip table's
# ground_levels column shows them.
RELATIVE_SPREAD = {
    "L_j": 0.01, "C_j": 0.02, "I_cj": 0.02, "M_j": 0.01,
    "L_c": 0.01, "C_c": 0.02, "I_cc": 0.02,
}
# One-sigma residual static flux per qubit after bias calibration (Phi_0).
# It moves a qubit's splitting by a few MHz; the element spreads move it by
# hundreds of MHz (1.6 to 4.3 GHz around the 2.9 GHz design value), because the
# tunnel splitting depends exponentially on beta_j and xi_j.
QUBIT_FLUX_SIGMA = 1e-4
# Draws are cut at this many sigmas, so no chip lands in a tail that the
# spreads above do not describe.
CUTOFF_SIGMAS = 3.0


def _normal(rng, shape):
    x = rng.standard_normal(shape)
    out = np.abs(x) > CUTOFF_SIGMAS
    while np.any(out):
        x[out] = rng.standard_normal(int(np.count_nonzero(out)))
        out = np.abs(x) > CUTOFF_SIGMAS
    return x


def make_chip(seed, index):
    from fluxcoupler import CONSTANTS, CircuitParams, reference_circuit
    rng = np.random.default_rng([seed % 2**32, index])
    base = reference_circuit(beta_c=0.43, beta_j=1.1)
    values = {}
    for name, sigma in RELATIVE_SPREAD.items():
        design = np.asarray(getattr(base, name), dtype=float)
        values[name] = design * (1.0 + sigma * _normal(rng, design.shape))
    phi0 = CONSTANTS.flux_quantum
    flux = phi0 / 2.0 + QUBIT_FLUX_SIGMA * phi0 * _normal(rng, (4,))
    return CircuitParams(
        L_j=values["L_j"], C_j=values["C_j"], I_cj=values["I_cj"],
        M_j=values["M_j"], L_c=float(values["L_c"]), C_c=float(values["C_c"]),
        I_cc=float(values["I_cc"]), Phi_jx=flux)


def make_batch(seed, size=CHIPS_PER_BATCH):
    return [make_chip(seed, i) for i in range(size)]


# ground_levels: levels labelled coupler-ground; below 16 the gap screen
# ran on an incomplete manifold (the labelling defect of the beta_c >= 0.5
# sweep points), which the table shows rather than hides.
COLUMNS = ("chip", "beta_c", "omega_min", "omega_max", "ground_levels",
           "delta_gap", "delta_max", "gap_ratio", "valid", "status")


def format_row(row):
    out = []
    for col in COLUMNS:
        v = row.get(col)
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, (bool, np.bool_)):
            out.append("1" if v else "0")
        elif col in ("chip", "ground_levels"):
            out.append(str(v))
        elif v is None:
            out.append("nan")
        else:
            out.append(f"{float(v):.11e}")
    return ",".join(out)


def chip_table(seed, rows):
    lines = [f"# perfbench fab-spread seed={seed} chips={len(rows)}",
             "# columns: " + ",".join(COLUMNS)]
    lines += [format_row(r) for r in rows]
    return "\n".join(lines) + "\n"
