"""Single-mode oscillator-basis mathematics.

Ladder operators, cosine matrix elements via generalized Laguerre
polynomials, double-well minimum solving, displaced-well overlaps, and the
two-level qubit reduction factor s.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import binom, eval_genlaguerre, gammaln
from scipy.optimize import brentq

def ladder(n):
    """Annihilation operator on an n-dimensional truncated Fock space."""
    a = np.zeros((n, n))
    k = np.arange(1, n)
    a[k - 1, k] = np.sqrt(k)
    return a


def _genlaguerre_matrix(lo, k, x):
    """L_lo^k(x) elementwise over the integer arrays lo and k.

    The three-term recurrence of scipy's eval_genlaguerre for integer
    degree, with p = L_j^k / binom(j+k, j), run over the whole array at
    once: step j holds for the elements with lo > j.
    """
    k = k.astype(float)
    d = -x / (k + 1.0)
    p = d + 1.0
    for j in range(1, int(np.max(lo, initial=0))):
        step = j < lo
        d_next = -x / (j + k + 1.0) * p + (j / (j + k + 1.0)) * d
        d = np.where(step, d_next, d)
        p = np.where(step, p + d, p)
    return np.select([lo == 0, lo == 1], [1.0, -x + k + 1.0],
                     binom(lo + k, lo) * p)


def displacement_matrix(n, r):
    """Matrix elements <m| exp(i r (a^dag + a)) |n| on the truncated space.

    Closed form via generalized Laguerre polynomials:
    <m|D|n> = i^{|m-n|} sqrt(min!/max!) r^{|m-n|} e^{-r^2/2} L_min^{|m-n|}(r^2)
    for the displacement-type operator with purely imaginary argument.
    """
    idx = np.arange(n)
    M, N = np.meshgrid(idx, idx, indexing="ij")
    lo = np.minimum(M, N)
    hi = np.maximum(M, N)
    k = hi - lo
    lag = _genlaguerre_matrix(lo, k, r * r)
    if r == 0.0:
        amp = (k == 0).astype(float)
    else:
        amp = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
                     + k * np.log(r) - r * r / 2.0)
    return (1j) ** k * amp * lag


def cosine_matrix(n_trunc, r):
    """Matrix of cos(r (a^dag + a)) on the truncated Fock space.

    Built as the Hermitian average of e^{+i(.)} and e^{-i(.)} from the
    displacement-operator closed form, so it is convention-proof and exactly
    symmetric.  The matrix is real: parity selection makes the imaginary part
    vanish identically.
    """
    if n_trunc < 2:
        raise ValueError("n_trunc must be >= 2")
    if r < 0:
        raise ValueError("r must be non-negative")
    E = displacement_matrix(n_trunc, r)
    return ((E + E.conj().T) / 2.0).real


def find_well_minimum(beta, alpha=0.0):
    """Positive minimum phi_p of the double-well potential.

    Solves (1 + alpha^2) phi = beta sin(phi) on (0, pi).  Returns 0.0 when
    beta/(1+alpha^2) <= 1 (single well).  The linear coefficient is
    (1+alpha^2) and the screening parameter is the qubit's own beta, as the
    potential dictates.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    c = 1.0 + alpha**2
    if beta / c <= 1.0:
        return 0.0

    def f(phi):
        return c * phi - beta * np.sin(phi)

    # f < 0 just right of 0 (since beta/c > 1), f > 0 at pi: bracketed root
    lo, hi = 1e-9, np.pi - 1e-9
    phi_p = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    # one Newton polish
    for _ in range(3):
        step = f(phi_p) / (c - beta * np.cos(phi_p))
        phi_p -= step
        if abs(step) < 1e-15:
            break
    assert abs(f(phi_p)) < 1e-12
    return phi_p


def displaced_overlap(M, N, d):
    """Overlap <M_-|N_+> of number states of two wells displaced by d.

    d is the displacement in natural oscillator units (both wells share mass
    and frequency).  Uses the generalized-Laguerre closed form with
    log-factorial amplitudes (overflow-safe well past M, N = 60).
    """
    if M < 0 or N < 0:
        raise ValueError("levels must be non-negative")
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0.0:
        return 1.0 if M == N else 0.0
    lo, hi = (M, N) if M <= N else (N, M)
    k = hi - lo
    # |N_+> = D(d)|N> in the left well's frame, so the overlap is <M|D(d)|N>;
    # the Laguerre form carries (-d)^{N-M} when N > M
    sign = 1.0 if M >= N else (-1.0) ** k
    amp = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1))
                 + k * np.log(d) - d * d / 2.0)
    return sign * amp * eval_genlaguerre(lo, k, d * d)


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
        raise ValueError("no double well: qubit regime violated (beta <= 1+alpha^2)")
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
