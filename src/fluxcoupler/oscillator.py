"""Single-mode oscillator-basis mathematics.

Ladder operators; one displaced-oscillator element formula on scipy's
vectorised generalized-Laguerre polynomial, which gives both the cosine
matrix (its even-distance upper triangle in one call) and displaced-well
overlaps; the double-well minimum by Brent's method; and the two-level qubit
reduction factor s.

Two process-wide memos, both read-only: cosine_matrix's results, by
(n_trunc, r), and, by the truncation alone, everything of a cosine matrix
that does not depend on r (_even_triangle: its element pairs, signs,
log-factorial amplitudes and positions), so a new r costs one Laguerre
recurrence and one exp.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln


def ladder(n):
    """Annihilation operator on an n-dimensional truncated Fock space."""
    a = np.zeros((n, n))
    k = np.arange(1, n)
    a[k - 1, k] = np.sqrt(k)
    return a


def _half_log_ratio(lo, hi):
    """log sqrt(lo!/hi!), elementwise over integer lo and hi."""
    return 0.5 * (gammaln(lo + 1) - gammaln(hi + 1))


def _displaced_element(lo, k, half, r):
    """sqrt(lo!/hi!) r^k e^{-r^2/2} L_lo^k(r^2) with k = hi - lo >= 0, r > 0
    and half = _half_log_ratio(lo, hi).

    Elementwise over integer lo and k, with log-factorial amplitudes
    (overflow-safe well past level 60).  lo must be C long: as the degree
    of eval_genlaguerre it makes scipy run its three-term recurrence for
    integer degree.
    """
    amp = np.exp(half + k * np.log(r) - r * r / 2.0)
    return amp * eval_genlaguerre(lo, k, r * r)


@dataclass(frozen=True)
class _Triangle:
    """The even-distance upper triangle of an n x n cosine matrix, all of it
    that depends on n alone."""
    lo: np.ndarray      # row, as C long for eval_genlaguerre
    k: np.ndarray       # distance hi - lo, even
    half: np.ndarray    # _half_log_ratio(lo, hi)
    flip: np.ndarray    # where (-1)^{k/2} = -1
    at: np.ndarray      # flat positions of (lo, hi), then of (hi, lo)


@functools.cache
def _even_triangle(n):
    """_Triangle of truncation n, built once per process, with read-only
    arrays."""
    lo, hi = np.triu_indices(n)
    even = (hi - lo) % 2 == 0
    lo, hi = lo[even], hi[even]
    k = hi - lo
    t = _Triangle(lo=lo.astype("l"), k=k, half=_half_log_ratio(lo, hi),
                  flip=k % 4 != 0,
                  at=np.concatenate((lo * n + hi, hi * n + lo)))
    for a in vars(t).values():
        a.setflags(write=False)
    return t


@functools.lru_cache(maxsize=16)
def cosine_matrix(n_trunc, r):
    """Matrix of cos(r (a^dag + a)) on the truncated Fock space.

    Real and symmetric, and zero at odd distance k = hi - lo by parity.  An
    upper-triangle element at even k is the real part of the displacement
    closed form <lo|exp(i r (a^dag + a))|hi>:
    (-1)^{k/2} sqrt(lo!/hi!) r^k e^{-r^2/2} L_lo^k(r^2), all of the even-k
    triangle in one vectorised eval_genlaguerre call; what does not depend
    on r comes from _even_triangle.

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
    t = _even_triangle(n_trunc)
    val = _displaced_element(t.lo, t.k, t.half, r)
    np.negative(val, out=val, where=t.flip)
    # + 0.0 turns an underflowed -0.0 into +0.0: no element is ever -0.0
    val += 0.0
    C = np.zeros((n_trunc, n_trunc))
    C.ravel()[t.at] = np.concatenate((val, val))
    C.setflags(write=False)
    return C


def _brentq(f, xa, xb, xtol, rtol):
    """Root of f in the bracket [xa, xb] by Brent's method.

    A step-for-step port of scipy.optimize.brentq's C routine
    (scipy/optimize/Zeros/brentq.c) with its default 100 iterations: the
    same bracket bookkeeping, tolerance 2 delta, interpolation and
    extrapolation formulas in the same operation order and the same test for
    a short step, so it returns the same bits (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")


def find_well_minimum(beta, alpha=0.0):
    """Positive minimum phi_p of the double-well potential.

    Solves (1 + alpha^2) phi = beta sin(phi) on (0, pi).  Returns 0.0 when
    beta/(1+alpha^2) <= 1 (single well).  The linear coefficient is
    (1+alpha^2) and the screening parameter is the qubit's own beta, as the
    potential dictates; alpha enters squared, so either sign is allowed.
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    if np.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    c = 1.0 + alpha**2
    if beta / c <= 1.0:
        return 0.0

    def f(phi):
        return c * phi - beta * np.sin(phi)

    # f < 0 just right of 0 (since beta/c > 1), f > 0 at pi: bracketed root
    lo, hi = 1e-9, np.pi - 1e-9
    phi_p = _brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
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
    and frequency).  The displaced-oscillator element with its sign.
    """
    if M < 0 or N < 0:
        raise ValueError("levels must be non-negative")
    if d < 0:
        raise ValueError("d must be non-negative")
    if d == 0.0:
        return 1.0 if M == N else 0.0
    lo, hi = (M, N) if M <= N else (N, M)
    # |N_+> = D(d)|N> in the left well's frame, so the overlap is <M|D(d)|N>;
    # the Laguerre form carries (-d)^{N-M} when N > M
    sign = 1.0 if M >= N else (-1.0) ** (hi - lo)
    return sign * _displaced_element(np.asarray(lo, dtype="l"), hi - lo,
                                     _half_log_ratio(lo, hi), d)


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
