"""Three routes to the effective couplings, compared.

1. spectral      : exact diagonalization of the full circuit, the
                   coupler-ground manifold projected onto the bare
                   coupler-ground subspace (the effective Hamiltonian to all
                   orders), followed by a Pauli decomposition.
2. analytic SWT  : closed-form 4th-order Schrieffer-Wolff expressions in
                   the shifted-well approximation of the qubit.
3. numerical SWT : the 4th-order Schrieffer-Wolff transformation carried
                   out operator-by-operator in the truncated circuit
                   basis, followed by a Pauli decomposition.

Where the three agree the perturbative picture is trustworthy; where they
split, the coupler is hybridizing with the qubits.
"""

import numpy as np

from fluxcoupler.analysis import Truncations, compare_swt
from fluxcoupler.circuit import reference_circuit

TRUNC = Truncations(qubit_states=40, coupler_states=30, n_keep=8)
grid = [0.10, 0.20, 0.30, 0.43]

res = compare_swt(reference_circuit(), grid, TRUNC)

for name in ("J2", "J4"):
    print(f"{name} (MHz)")
    print(f"{'beta_c':>7} {'spectral':>10} {'analytic':>10} {'numerical':>10}")
    for row in res.rows:
        vals = []
        for prefix in ("spectral", "analytic", "numswt"):
            if row[f"{prefix}_status"] == "ok":
                vals.append(f"{row[f'{prefix}_{name}'] / 1e6:10.2f}")
            else:
                vals.append(f"{'--':>10}")
        print(f"{row['beta_c']:7.2f} {' '.join(vals)}")
    print()

print("the numerical transformation tracks the spectral branch for J2; the")
print("closed forms inherit the shifted-well approximation and a different")
print("definition of the qubit dipole, so they drift away as beta_c grows.")
print("the four-local channel is the interesting one: for two-level qubits")
print("the full 4th-order operator algebra cancels the naive g^4")
print("contribution of a linearly coupled mode, and what is left is small")
print("enough that the 6th and higher orders, which only the spectral branch")
print("holds, outweigh it: the two branches read J4 with opposite signs.")
print("but each qubit's third level, at 9.09 GHz, lies below the coupler's")
print("first excitation at 14.83 GHz.  keeping it moves J4 at beta_c 0.43")
print("from 2.71 to 115.55 MHz in the dense k = 3 reference")
print("(dense_bare_frame_couplings in tests/toys.py).")
