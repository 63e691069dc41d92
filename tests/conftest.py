import pytest

from fluxcoupler import hamiltonian, oscillator


@pytest.fixture
def cold_memos():
    """Empty the process-wide memos of reduced qubits, cosine matrices,
    quadrature decompositions and per-truncation oscillator constants, so a
    test that counts builds sees only the builds it causes."""
    hamiltonian._REDUCED.clear()
    oscillator.cosine_matrix.cache_clear()
    oscillator._quadrature.cache_clear()
    hamiltonian._oscillator.cache_clear()
