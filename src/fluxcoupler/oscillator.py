"""Single-mode oscillator-basis mathematics.

Ladder operators; one displaced-oscillator element formula,
sqrt(lo!/hi!) r^k e^{-r^2/2} L_lo^k(r^2), which gives both the cosine matrix
(its even-distance upper triangle at once) and displaced-well overlaps; the
double-well minimum by Brent's method; and the two-level qubit reduction
factor s.

The special functions of the element are ports of what scipy.special's
compiled eval_genlaguerre runs at integer degree: its three-term recurrence,
binom, and cephes' beta, rgamma, Gamma and lgam at integer arguments, with
the same operations in the same order and libm's exp, pow and log (Python's
math), so every element keeps scipy 1.17's bits and no scipy module is
imported.

Two process-wide memos, both read-only: cosine_matrix's results, by
(n_trunc, r), and, by the truncation alone, everything of a cosine matrix
that does not depend on r (_even_triangle: its element pairs, signs,
log-factorial amplitudes, binomials, recurrence coefficients and
positions), so a new r costs one Laguerre recurrence over the even
distances and one exp.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

# cephes' constants (scipy's xsf/cephes gamma.h and lgam.h)
_MAXGAM = 171.624376956302725
_MAXSTIR = 143.01608
_SQTPI = 2.50662827463100050242
_LS2PI = 0.91893853320467274178
_STIR = (7.87311395793093628397e-4, -2.29549961613378126380e-4,
         -2.68132617805781232825e-3, 3.47222221605458667310e-3,
         8.33333333333482257126e-2)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)


def ladder(n):
    """Annihilation operator on an n-dimensional truncated Fock space."""
    a = np.zeros((n, n))
    k = np.arange(1, n)
    a[k - 1, k] = np.sqrt(k)
    return a


def _polevl(x, coef):
    """cephes polevl: the polynomial with coefficients coef, highest power
    first, in Horner form."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


@functools.cache
def _lgam(x):
    """cephes lgam (scipy's gammaln) at an integer x >= 1."""
    if x < 13.0:
        z = 1.0
        while x >= 3.0:
            x -= 1.0
            z *= x
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p
                     - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


@functools.cache
def _gamma(x):
    """cephes Gamma at an integer 1 <= x < _MAXGAM: the descending product up
    to 33, Stirling's series above."""
    if x > 33.0:
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIR)
        y = math.exp(x)
        if x > _MAXSTIR:
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQTPI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    return z


def _rgamma(x):
    """cephes rgamma, 1/Gamma, at an integer 1 <= x < _MAXGAM."""
    if x > 4.0:
        return 1.0 / _gamma(x)
    z = 1.0
    while x > 1.0:
        x -= 1.0
        z *= x
    return 1.0 / z


def _beta(a, b):
    """cephes beta at integers a, b >= 1: a Gamma product scaled by
    rgamma(a + b), or exp of lgam differences where Gamma would overflow."""
    if a < b:
        a, b = b, a
    if a + b > _MAXGAM:
        return math.exp(_lgam(a) + (_lgam(b) - _lgam(a + b)))
    y = _rgamma(a + b)
    ga, gb = _gamma(a), _gamma(b)
    if abs(abs(ga * y) - 1.0) > abs(abs(gb * y) - 1.0):
        return ga * (gb * y)
    return ga * y * gb


def _binom(n, k):
    """scipy's binom at integers 0 <= k <= n < 1e6, elementwise over float
    arrays: the product formula for min(k, n - k) < 20, rescaled past 1e50,
    else through beta (inf where beta underflows, from n near 1030 on)."""
    kx = np.where(k > n / 2, n - k, k)
    num, den = np.ones(n.shape), np.ones(n.shape)
    for i in range(1, 20):
        on = kx >= i
        if not on.any():
            break
        num = np.where(on, num * (i + n - kx), num)
        den = np.where(on, den * i, den)
        big = np.abs(num) > 1e50
        num = np.where(big, num / den, num)
        den = np.where(big, 1.0, den)
    out = num / den
    far = np.flatnonzero(kx >= 20)
    for i, ni, ki in zip(far, n[far].tolist(), k[far].tolist()):
        b = _beta(1.0 + ni - ki, 1.0 + ki)
        out[i] = 1 / (ni + 1.0) / b if b else math.inf
    return out


def _laguerre_coefficients(dist, steps):
    """Denominators j + k + 1 and ratios j/(j + k + 1) of steps j = 1 ..
    steps of the Laguerre recurrence, one column per distance k in dist
    (floats)."""
    j = np.arange(1.0, steps + 1.0)[:, None]
    den = j + dist + 1.0
    return den, j / den


def _laguerre_p(dist, x, den, ratio):
    """p of eval_genlaguerre's integer-degree recurrence for L_lo^k(x), k in
    dist, before step 1 and after each step j of _laguerre_coefficients'
    (den, ratio): an array of shape (steps + 1, len(dist)).

    d = -x/(k+1) and p = d + 1 to start; step j sets
    d = -x/(j+k+1) p + (j/(j+k+1)) d and p = p + d, and
    L_lo^k(x) = binom(lo + k, lo) p after step lo - 1 for lo >= 2.  The two
    products are added in the other order, which IEEE addition allows.
    """
    ps = np.empty((len(den) + 1, len(dist)))
    d = -x / (dist + 1.0)
    p = np.add(d, 1.0, out=ps[0])
    for cx, cr, nxt in zip(np.divide(-x, den), ratio, ps[1:]):
        d *= cr
        d += cx * p
        p = np.add(p, d, out=nxt)
    return ps


@dataclass(frozen=True)
class _Triangle:
    """The even-distance upper triangle of an n x n cosine matrix, all of it
    that depends on n alone.  Elements run row by row (lo, then hi): row 0's
    (n + 1) // 2, row 1's n // 2, then the rows lo >= 2, whose Laguerre
    polynomials come from the recurrence."""
    k: np.ndarray       # distance hi - lo, even
    half: np.ndarray    # log sqrt(lo!/hi!)
    flip: np.ndarray    # where (-1)^{k/2} = -1
    at: np.ndarray      # flat positions of (lo, hi), then of (hi, lo)
    dist: np.ndarray    # the even distances 0, 2, ..., as floats
    den: np.ndarray     # _laguerre_coefficients(dist, n - 2)
    ratio: np.ndarray
    binom: np.ndarray   # binom(hi, lo) of the rows lo >= 2
    pick: np.ndarray    # their p in _laguerre_p(...).ravel()


@functools.cache
def _even_triangle(n):
    """_Triangle of truncation n, built once per process, with read-only
    arrays."""
    lo, hi = np.triu_indices(n)
    even = (hi - lo) % 2 == 0
    lo, hi = lo[even], hi[even]
    k = hi - lo
    log_fact = np.array([_lgam(float(m)) for m in range(1, n + 1)])
    dist = np.arange(0.0, n, 2.0)
    den, ratio = _laguerre_coefficients(dist, n - 2)
    far = lo >= 2
    t = _Triangle(k=k, half=0.5 * (log_fact[lo] - log_fact[hi]),
                  flip=k % 4 != 0,
                  at=np.concatenate((lo * n + hi, hi * n + lo)),
                  dist=dist, den=den, ratio=ratio,
                  binom=_binom(hi[far].astype(float), lo[far].astype(float)),
                  pick=(lo[far] - 1) * len(dist) + k[far] // 2)
    for a in vars(t).values():
        a.setflags(write=False)
    return t


@functools.lru_cache(maxsize=16)
def cosine_matrix(n_trunc, r):
    """Matrix of cos(r (a^dag + a)) on the truncated Fock space.

    Real and symmetric, and zero at odd distance k = hi - lo by parity.  An
    upper-triangle element at even k is the real part of the displacement
    closed form <lo|exp(i r (a^dag + a))|hi>:
    (-1)^{k/2} sqrt(lo!/hi!) r^k e^{-r^2/2} L_lo^k(r^2), with every L_lo^k of
    the even-k triangle from one recurrence over the distances; what does
    not depend on r comes from _even_triangle.

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
    x = r * r
    row0, row1 = (n_trunc + 1) // 2, n_trunc // 2
    lag = np.empty(len(t.k))
    lag[:row0] = 1.0
    lag[row0:row0 + row1] = -x + t.k[row0:row0 + row1] + 1.0
    p = _laguerre_p(t.dist, x, t.den, t.ratio)
    np.multiply(t.binom, p.ravel()[t.pick], out=lag[row0 + row1:])
    val = np.exp(t.half + t.k * np.log(r) - r * r / 2.0) * lag
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
    k, x = hi - lo, d * d
    if lo < 2:
        lag = 1.0 if lo == 0 else -x + k + 1.0
    else:
        dist = np.array([float(k)])
        p = _laguerre_p(dist, x, *_laguerre_coefficients(dist, lo - 1))
        lag = _binom(np.array([float(hi)]), np.array([float(lo)]))[0] \
            * p[-1, 0]
    half = 0.5 * (_lgam(lo + 1.0) - _lgam(hi + 1.0))
    return sign * (np.exp(half + k * np.log(d) - d * d / 2.0) * lag)


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
