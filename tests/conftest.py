import pytest

import fluxcoupler.analysis as analysis
from fluxcoupler.oscillator import cosine_matrix


@pytest.fixture
def cold_memos():
    """Empty the process-wide memos of reduced qubits and cosine matrices, so
    a test that counts builds sees only the builds it causes."""
    analysis._REDUCED.clear()
    cosine_matrix.cache_clear()
