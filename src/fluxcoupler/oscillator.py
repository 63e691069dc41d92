"""Single-mode oscillator-basis mathematics.

Ladder operators; the cosine matrix cos(r (a + a^dag)) by Gauss-Hermite
quadrature in the eigenbasis of a + a^dag, the discrete variable
representation (Harris, Engerholm & Gwinn, J. Chem. Phys. 43, 1515 (1965);
Light, Hamilton & Lill, J. Chem. Phys. 82, 1400 (1985)); displaced-well
overlaps from the displaced-oscillator closed form
sqrt(lo!/hi!) d^k e^{-d^2/2} L_lo^k(d^2); the double-well minimum by Newton's
method; and the two-level qubit reduction factor s.

Two process-wide memos, both bounded and read-only: cosine_matrix's
results, by (n_trunc, r), and the eigendecomposition of a + a^dag, by its
size (_quadrature), so a new r costs one cosine of the nodes and one
product.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np


def ladder(n):
    """Annihilation operator on an n-dimensional truncated Fock space."""
    a = np.zeros((n, n))
    k = np.arange(1, n)
    a[k - 1, k] = np.sqrt(k)
    return a


def _margin(n_trunc, r):
    """Levels added beyond n_trunc before cos(r (a + a^dag)) is taken by
    quadrature, so the kept block is exact to about 1e-13: the quadrature
    on N levels integrates polynomials up to degree 2N - 1 exactly, and the
    kept states and cos(r x) need more of them as r sqrt(n) and r^2 grow.
    Rounded up to tens, so nearby r share one decomposition."""
    return 10 * math.ceil((10.0 + 1.5 * r * math.sqrt(n_trunc)
                           + 1.5 * r * r) / 10.0)


@functools.lru_cache(maxsize=8)
def _quadrature(size):
    """(nodes, vectors): the eigenvalues of a + a^dag on size levels, the
    Gauss-Hermite nodes times sqrt(2), and its eigenvectors by column.
    Memoised on the size, read-only."""
    a = ladder(size)
    nodes, vectors = np.linalg.eigh(a + a.T)
    nodes.setflags(write=False)
    vectors.setflags(write=False)
    return nodes, vectors


@functools.lru_cache(maxsize=16)
def cosine_matrix(n_trunc, r):
    """Matrix of cos(r (a^dag + a)) on the truncated Fock space.

    Real and symmetric, and zero at odd distance |m - n| by parity.  With
    the nodes x and eigenvectors V of a + a^dag on N = n_trunc +
    _margin(n_trunc, r) levels and W = V[:n_trunc], it is
    W diag(cos(r x)) W^T, its odd distances set to zero and symmetrised.

    Memoised on (n_trunc, r): the result is shared by every caller and is
    read-only.
    """
    if n_trunc < 2:
        raise ValueError("n_trunc must be >= 2")
    if not np.isfinite(r) or r < 0:
        raise ValueError("r must be finite and non-negative")
    if r == 0.0:
        C = np.eye(n_trunc)
        C.setflags(write=False)
        return C
    nodes, vectors = _quadrature(n_trunc + _margin(n_trunc, r))
    w = vectors[:n_trunc]
    C = (w * np.cos(r * nodes)) @ w.T
    C[::2, 1::2] = 0.0
    C[1::2, ::2] = 0.0
    C = 0.5 * (C + C.T)
    C.setflags(write=False)
    return C


def find_well_minimum(beta, alpha=0.0):
    """Positive minimum phi_p of the double-well potential.

    Solves f(phi) = (1 + alpha^2) phi - beta sin(phi) = 0 on (0, pi).
    Returns 0.0 when beta/(1+alpha^2) <= 1 (single well).  The linear
    coefficient is (1+alpha^2) and the screening parameter is the qubit's own
    beta, as the potential dictates; alpha enters squared, so either sign is
    allowed.

    Newton's method from pi: f is convex on (0, pi) and f(pi) > 0, so the
    iterates fall monotonically onto the root; they stop where a step no
    longer lowers phi.  Raises ArithmeticError if the residual is not at
    rounding level, |f| <= 1e-14 beta.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if np.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    c = 1.0 + alpha**2
    if beta / c <= 1.0:
        return 0.0
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    phi = math.pi
    # at most 46 steps, just above the threshold
    for _ in range(100):
        step = (c * phi - beta * math.sin(phi)) / (c - beta * math.cos(phi))
        if not step > 0.0 or phi - step == phi:
            break
        phi -= step
    if not abs(c * phi - beta * math.sin(phi)) <= 1e-14 * beta:
        raise ArithmeticError(f"well minimum not found for beta = {beta!r}, "
                              f"alpha = {alpha!r}")
    return phi


def _laguerre(lo, k, x):
    """L_lo^k(x) by the three-term recurrence
    L_{j+1} = ((2j + 1 + k - x) L_j - (j + k) L_{j-1}) / (j + 1)."""
    prev, cur = 0.0, 1.0
    for j in range(lo):
        prev, cur = cur, ((2 * j + 1 + k - x) * cur - (j + k) * prev) / (j + 1)
    return cur


def displaced_overlap(M, N, d):
    """Overlap <M_-|N_+> of number states of two wells displaced by d.

    d is the displacement in natural oscillator units (both wells share mass
    and frequency).  The displaced-oscillator element with its sign.
    """
    if M < 0 or N < 0:
        raise ValueError("levels must be non-negative")
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0.0:
        return 1.0 if M == N else 0.0
    lo, hi = min(M, N), max(M, N)
    k, x = hi - lo, d * d
    # |N_+> = D(d)|N> in the left well's frame, so the overlap is <M|D(d)|N>;
    # the Laguerre form carries (-d)^{N-M} when N > M
    sign = -1.0 if N > M and k % 2 else 1.0
    half = 0.5 * (math.lgamma(lo + 1.0) - math.lgamma(hi + 1.0))
    return sign * math.exp(half + k * math.log(d) - x / 2.0) \
        * _laguerre(lo, k, x)


@dataclass
class WellSolution:
    phi_p: float        # well minimum position (rad)
    m_eff: float        # effective mass, 1/(4 xi^2) (units of 1/E_L)
    omega_eff: float    # effective well frequency (units of E_L)
    overlap00: float    # <0_-|0_+>
    s: float            # two-level projection factor


def qubit_reduction(xi, beta, alpha=0.0):
    """Shifted-harmonic-well reduction of the flux-qubit double well.

    Returns the well minimum, effective mass/frequency, ground-state overlap
    of the two shifted wells, and the projection factor
    s = 1 / sqrt(2 m_eff omega_eff (1 - overlap00^2)).
    """
    phi_p = find_well_minimum(beta, alpha)
    if phi_p == 0.0:
        raise ValueError("no double well: beta <= 1 + alpha^2")
    m_eff = 1.0 / (4.0 * xi**2)
    omega_eff = 2.0 * xi * np.sqrt(1.0 + alpha**2 - beta * np.cos(phi_p))
    d = np.sqrt(2.0 * m_eff * omega_eff) * phi_p
    overlap00 = displaced_overlap(0, 0, d)
    denom = 2.0 * m_eff * omega_eff * (1.0 - overlap00**2)
    if denom < 1e-30:
        raise FloatingPointError(
            "vanishing barrier: overlap -> 1 and the projection factor s diverges")
    s = 1.0 / np.sqrt(denom)
    return WellSolution(phi_p=phi_p, m_eff=m_eff, omega_eff=omega_eff,
                        overlap00=overlap00, s=s)
