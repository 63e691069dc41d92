"""Anatomy of the low-lying spectrum at the operating point.

Four flux qubits share a common rf-SQUID coupler.  With the coupler bias held
at half a flux quantum, virtual excitations of the coupler dress the 16-state
qubit manifold and split it according to an effective Ising model with
one- through four-local terms.  This script diagonalizes the full circuit,
identifies the coupler-ground manifold by its weight on the displaced coupler
ground state of each qubit configuration, projects the 16 levels onto the bare
coupler-ground subspace and reads the effective Hamiltonian there as Pauli
strings.
"""

import numpy as np

from fluxcoupler.analysis import Truncations, spectral_point
from fluxcoupler.circuit import derive_unitless, reference_circuit, validate_regime

u = derive_unitless(reference_circuit(beta_c=0.43))
report = validate_regime(u)
print("unitless parameters at the reference point")
print(f"  alpha        = {np.mean(u.alpha):.5f}")
print(f"  xi_c         = {u.xi_c:.6f}")
print(f"  beta_c       = {u.beta_c:.3f}")
print(f"  E_Ltilde_c   = {u.E_Ltilde_c / 1e12:.4f} THz")
print(f"  regime flags : double well {report.qubit_double_well}, "
      f"single well {report.coupler_single_well}, "
      f"hierarchy {report.hierarchy}")
print()

cs, gaps, spec, omega = spectral_point(u, Truncations())
lv = spec.eigenvalues - spec.eigenvalues[0]
ground = spec.coupler_ground_levels(16)

print(f"bare qubit splitting   : {omega[0] / 1e9:.4f} GHz")
print(f"coupler-ground manifold ({len(ground)} levels, GHz above ground):")
for k, e in enumerate((ground - ground[0]) / 1e9):
    print(f"  {k:2d}  {e:8.4f}")
print()
print("effective Hamiltonian on the coupler-ground subspace (MHz):")
print(f"  J1 = {cs.J1 / 1e6:9.3f}    J2 = {cs.J2 / 1e6:9.3f}")
print(f"  J3 = {cs.J3 / 1e6:9.3f}    J4 = {cs.J4 / 1e6:9.3f}")
print(f"  dressed splitting omega_eff = "
      f"{cs.diagnostics['omega_eff'][0] / 1e9:.4f} GHz "
      f"(kappa = omega_eff / omega = {cs.diagnostics['kappa'][0]:.4f})")
print(f"  non-Ising norm = {cs.residual / 1e6:.3f} MHz")
print()
print("the projection is exact: it is the Schrieffer-Wolff effective")
print("Hamiltonian to all orders, so the half-flux symmetry leaves J1 = J3 = 0.")
print("virtual coupler excitations dress the transverse terms as well as the")
print("couplings: kappa < 1 shrinks every qubit splitting by the same factor.")
print("the non-Ising norm is physics, not misfit: the strongest strings are")
print("Z Z X, a qubit's transverse term that depends on two other qubits'")
print("configuration, because its tunnelling drags the displaced coupler along.")
print("the numerical SWT reports the same quantity to 4th order (demo 04).")
print(f"the manifold is well defined: its minimum coupler-ground weight is "
      f"{np.sort(spec.coupler_occupation)[-16]:.3f}.")
print()
print(f"subspace separation: delta_gap = {gaps.delta_gap / 1e9:.3f} GHz, "
      f"delta_max = {gaps.delta_max / 1e9:.3f} GHz "
      f"(separated by >= {gaps.threshold}x: {gaps.valid})")
