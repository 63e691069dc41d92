import pytest

from fluxcoupler import hamiltonian, oscillator


@pytest.fixture
def cold_memos():
    """Empty the process-wide memos of reduced qubits, the qubit side of
    the interaction (hamiltonian._SIDE), cosine matrices, quadrature
    decompositions and per-truncation oscillator constants, so a test that
    counts builds sees only the builds it causes."""
    hamiltonian._REDUCED.clear()
    hamiltonian._SIDE.clear()
    oscillator.cosine_matrix.cache_clear()
    oscillator._quadrature.cache_clear()
    hamiltonian._oscillator.cache_clear()


@pytest.fixture
def side_builds(monkeypatch):
    """The qubit sides built during the test: the qubit count of every
    construction of hamiltonian._QubitSide, which _qubit_side makes on a
    miss, patched through the module global as its callers read it."""
    calls = []

    def counted(qubits, u, build=hamiltonian._QubitSide):
        calls.append(len(qubits))
        return build(qubits, u)

    monkeypatch.setattr(hamiltonian, "_QubitSide", counted)
    return calls
