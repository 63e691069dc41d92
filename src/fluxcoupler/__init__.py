"""Effective multi-qubit Ising interactions from a four-qubit flux coupler circuit.

Library layout:
  circuit     physical parameters -> dimensionless parameters
  oscillator  single-mode basis math (quadrature cosine matrix, double well)
  hamiltonian operator assembly (bare, product space, target Ising model)
  spectrum    diagonalization, classification, coupling extraction
  swt         Schrieffer-Wolff engine (analytic + numerical branches) and
              the Pauli reading of 16x16 effective Hamiltonians
  analysis    the one point runner; sweeps, scans, susceptibilities
  cli         config parsing and CSV emission
"""

import numpy as _np

# glibc sets its malloc trim threshold to twice the largest mmapped block
# freed so far (mallopt(3), M_MMAP_THRESHOLD and M_TRIM_THRESHOLD): one freed
# 1 MiB block keeps the numerical SWT's ~80 KiB temporaries on the heap
# between points instead of handing them back to the OS to fault in again
_np.empty(1 << 17)

from .circuit import (CircuitParams, PhysicalConstants, UnitlessParams,
                      CONSTANTS, derive_unitless, reference_circuit)
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
