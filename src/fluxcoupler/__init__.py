"""Effective multi-qubit Ising interactions from a four-qubit flux coupler circuit.

Library layout:
  circuit     physical parameters -> dimensionless parameters
  oscillator  single-mode basis math (Laguerre cosine elements, double well)
  hamiltonian operator assembly (bare, product space, target Ising model)
  spectrum    diagonalization, classification, coupling extraction
  swt         Schrieffer-Wolff engine (analytic + numerical branches) and
              the Pauli reading of 16x16 effective Hamiltonians
  analysis    the one point runner; sweeps, scans, susceptibilities
  cli         config parsing and CSV emission
"""

from .circuit import (CircuitParams, PhysicalConstants, UnitlessParams,
                      CONSTANTS, derive_unitless, validate_regime,
                      reference_circuit)
from .oscillator import (cosine_matrix, displaced_overlap, find_well_minimum,
                         qubit_reduction, WellSolution)
from .hamiltonian import (OperatorMatrix, IsingModel, build_coupler,
                          build_qubit_bare, reduce_qubit, assemble_full,
                          assemble_ising_model)
from .spectrum import (eigendecompose, extract_couplings, gap_diagnostics,
                       two_excitation_splitting)
from .swt import (analytic_couplings, numerical_swt, pauli_decompose,
                  swt_prefactors, CouplingStrengths)
from .analysis import (Truncations, sweep_beta, sweep_flux, compare_swt,
                       susceptibility, spectral_point, find_special_point)

__version__ = "0.1.0"
