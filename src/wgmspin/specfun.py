"""Spherical Bessel/Hankel functions of complex argument and angular-momentum matrices.

The characteristic equations and mode profiles sit on the Bessel routines;
the matrices are a reference for the spin-l algebra that the coupling's
ladder sums evaluate without them. The Bessel routines accept complex
arguments because resonance poles live just below the real wavenumber axis;
scipy's spherical Bessels are real-only. A real argument runs the same ladders
in real arithmetic: j_l, psi and psi' come back float64 (as
scipy.special.spherical_jn does), h, xi and xi' complex128. Any other input is
computed in complex128. y_l is reached as Im h_l for real z.

One envelope, l <= MAX_ORDER = 500, |z| <= TIGHT_ARG = 800 and |Im z| <= 1 for
h and xi, holds every whispering-gallery argument up to l = 500. Inside it j
and h hold 1e-10 relative (measured worst 1.7e-12 for j off the real axis,
4.6e-11 beside a real zero, 3.1e-13 for h); an AccuracyWarning marks a call
outside it. Past the hard limits l > MAX_ORDER and |z| > MAX_ARG = 1e4 a
call raises ValueError before any ladder is built: the Miller start, and so
the ladder's steps and coefficient table, grow with max|z| (j_5 takes 1.2 ms
at |z| = 1e3 and 2.0 s at 1e6 on a 2-core Xeon). One front end serves all
three functions: it checks the domain,
takes j from its power series below |z| = _SERIES_BELOW and from the ladders
elsewhere, and signals overflow.

Stability: j_l is computed by downward (Miller) recurrence to order l - 1,
normalized through the cross Wronskian of the pair it ends on,
j_l y_{l-1} - j_{l-1} y_l = 1/z^2, y_l by upward recurrence. Upward recurrence
of j_l is unstable for l > |z|, which is exactly the whispering-gallery regime
(l = 120, |z| ~ 84), hence Miller. There is one ladder family:
h_l^(1) = j_l + i y_l is summed from the Miller j values and the y pair they
are normalized with, so the tiny Re h = j_l that carries a resonance's
linewidth is never taken from an upward j recurrence. The sum is tight on the
strip |Im z| <= 1 and warned off it, where it cancels ~e^{2 Im z}. Both
ladders are the one three-term recurrence in 1/z, stepped in lockstep as the
two rows of one state: one numpy call per operation serves both. On calls of
few points the coefficients (2n + 3)/z come from one table built before the
loop, so a step costs two numpy calls; calls whose table would pass
_TABLE_BYTES form one row per step instead, with the same bits. Around the
steps, each branch (the series, the off-strip continuation, a y overflow or
a degenerate Wronskian to patch) is decided once, as a Python bool, and
builds its mask only when some z takes it, so a Newton iterate on the strip,
or a real grid off the origin, builds none.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AccuracyWarning",
    "AngularMomentumMatrices",
    "spherical_bessel_j",
    "spherical_hankel1",
    "riccati_bessel",
    "angular_momentum_matrices",
]

MAX_ORDER = 500          # hard domain limit, and 1e-10 relative accuracy up to it ...
TIGHT_ARG = 800.0        # ... and up to this |z| (|Im z| <= 1 for h and xi)
MAX_ARG = 1e4            # hard limit on |z|: the ladder's length grows with it
_HUGE = 1e250            # rescale threshold inside recurrences
_Y_OVERFLOW = 1e290      # beyond this y_l is treated as overflowed
# below this |z|, j_{l-1} and j_l are their two-term series, whose next term
# is < 1e-80 of them there. The Miller ladder loses j from |z| ~ 1e-59
# (l = 0, 1) or 1e-48 (l = 5) down: a step's growth (2 nstart + 3)/|z|
# outruns the rescale headroom, or y_l overflows and j_l is zeroed as if
# l >> |z|
_SERIES_BELOW = 1e-20
# largest (2n + 3)/z table _recur builds before its loop: it saves a numpy call
# per step on few points, costs a pass over memory on long grids (timings in
# CHANGES.md), and the limit bounds its memory
_TABLE_BYTES = 256 << 10


class AccuracyWarning(UserWarning):
    """Outside the validated |z| (and, for h and xi, |Im z|) envelope; result
    computed best-effort."""


def _check_order(l):
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"order l must be a non-negative integer, got {l!r}")
    if l > MAX_ORDER:
        raise ValueError(f"order l={l} exceeds validated maximum {MAX_ORDER}")


def _check_domain(l, arr, uses_y):
    """Validate l and arr, the front end's z array, and warn off the tight
    envelope, naming the public function's caller. Returns |z|, max|z| and
    min|z| (0, 0 for no z), which the ladder's start order and rescale stride
    take too."""
    # y_l, and so h_l and xi_l, is singular at z = 0 and tight on |Im z| <= 1.
    # max|z| is nan or inf exactly when some z is, so it is the finiteness test
    _check_order(l)
    absz = np.abs(arr)
    amax, amin = (float(absz.max()), float(absz.min())) if arr.size else (0.0, 0.0)
    if not math.isfinite(amax):
        raise ValueError(f"argument z must be finite, got max|z| = {amax}")
    if amax > MAX_ARG:
        raise ValueError(f"argument max|z| = {amax:.6g} exceeds the hard limit {MAX_ARG:g}")
    if uses_y and amin == 0:
        raise ValueError("argument z = 0 is outside the domain" if arr.size
                         else "argument z is empty")
    off_strip = uses_y and arr.dtype.kind == "c" and float(np.abs(arr.imag).max()) > 1.0
    if amax > TIGHT_ARG or off_strip:
        warnings.warn(
            f"(l={l}, max|z|={amax:.3g}) outside tight-tolerance range "
            f"(|z| <= {TIGHT_ARG}" + (", |Im z| <= 1 for h/xi" if uses_y else "")
            + "); accuracy relaxed",
            AccuracyWarning,
            stacklevel=4,
        )
    return absz, amax, amin


def _miller_start(l, amax):
    # start above the j/y turning point so the minimal solution dominates.
    # Past it j/y decays like exp(-c (nu - |z|)^{3/2} / |z|^{1/2}), so the
    # margin that buys double precision grows like turn^{1/3}. Acceptance
    # criterion 7 and the l = 300-500 mpmath test set the constants: a margin
    # of 2 turn^{1/3} + 2 loses j to ~1e-9. amax is max|z| over the call
    turn = max(float(l), amax + 4.05 * amax ** (1.0 / 3.0) + 8.0)
    return int(turn + 6.0 * turn ** (1.0 / 3.0) + 5.0)


def _recur(cur, prev, coefs, checks, zinv, *carried):
    """Step f <- c/z f - f_prev once per coefficient column c of coefs.

    Each row (first axis) of the states cur and prev is a ladder of its own
    with its own entry of c, and all rows share 1/z, so each product serves
    every row. The rows c/z come from one table coefs * zinv built before the
    loop when it fits in _TABLE_BYTES, else one per step: the same products
    either way, so the same bits, and a step costs two numpy calls instead of
    three where the table is built. After a step whose flag in checks is set,
    row 0, a Miller ladder, is multiplied by 1e-250 where it passes _HUGE, and
    the carried arrays alike, so ratios between them stay exact. Returns the
    last (cur, prev) and the carried arrays."""
    if coefs.size * zinv.nbytes <= _TABLE_BYTES:
        rows = coefs * zinv
    else:
        rows = (c * zinv for c in coefs)
    for cz, check in zip(rows, checks):
        prev, cur = cur, cz * cur - prev
        if check:
            big = np.maximum(np.abs(cur[0]), np.abs(prev[0])) > _HUGE
            if big.any():
                factor = np.where(big, 1e-250, 1.0)
                cur, prev = (np.concatenate((f[:1] * factor, f[1:])) for f in (cur, prev))
                carried = [f * factor for f in carried]
    return cur, prev, carried


@functools.lru_cache(maxsize=64)
def _ladder_coefs(l, nstart, stride, dtype, ndim):
    """_j_ladder's coefficient columns, shared read-only by every call of the
    same order, start order, rescale stride, dtype and rank of z: per step s
    the Miller row (0) goes to order nstart - s, c = 2 (nstart - s) + 3, and
    y (row 1) to order s + 1, c = 2 s + 1; and the steps after which the
    Miller row is tested for rescaling."""
    m_steps = nstart - l + 2
    s = np.arange(max(m_steps, l))
    coefs = np.stack([2 * (nstart - s) + 3, 2 * s + 1], axis=1).astype(dtype)
    coefs = coefs.reshape(coefs.shape + (1,) * ndim)   # broadcast over z
    coefs.flags.writeable = False
    return coefs, ((s < m_steps) & ((nstart - s) % stride == 0)).tolist()


def _j_ladder(l, z, amax, amin):
    """(j_{l-1}, j_l) and (y_{l-1}, y_l) (j_{-1} = cos z / z, y_{-1} = j_0),
    vectorized over a finite, nonzero float64 or complex128 z of at least one
    dimension and keeping its dtype, plus the masks where y and where the
    Miller ladder overflowed. amax and amin are max|z| and min|z|.

    Two ladders of one recurrence, f_{n-1} + f_{n+1} = (2n + 1)/z f_n: Miller
    j from an arbitrary seed down to order l - 1, and y up from
    y_{-1} = sin z/z, y_0 = -cos z/z to y_l. They are the two rows of one
    state, stepped together while both run, then the longer one finishes
    alone. On the few points of a Newton iterate call overhead, not
    arithmetic, is the cost: a step costs two numpy calls for both ladders
    where _recur's coefficient table fits in _TABLE_BYTES, three on a long
    grid, where the products are formed one row per step. The bookkeeping
    around the steps is lean for the same reason: each branch below is
    decided once, as a Python bool, so a real z builds no off-strip mask and
    a call with nothing off the strip, no overflowed y and no degenerate
    Wronskian (the common case) builds no mask to patch j with.
    The Miller result then gets per-element scale fixing:

    * |Im z| <= 1: cross Wronskian with the y pair (j_l y_{l-1} - j_{l-1} y_l
      = 1/z^2; the combination is conditioned like e^{2 Im z}, fine in this
      strip, and immune to the real zeros of sin z);
    * |Im z| > 1: the recurrence continues to order -1 for the closed form
      j_{-1} = cos(z)/z (|cos z| >= sinh|Im z| is bounded away from zero off
      the strip, while the Wronskian pairing cancels catastrophically there).

    One reciprocal 1/z serves every order of both ladders. Mid-recurrence
    rescales are applied to the whole running Miller set, so they cancel in
    either normalization ratio. One step grows max(|lo|, |hi|) by at most
    g + 1, g = (2 nstart + 3)/min|z|, so the rescale test runs only every
    `stride` orders: (g + 1)^stride <= 1e50 keeps a value that passed it
    (<= _HUGE = 1e250) below 1e300 until the next test. The y row is not
    rescaled: its overflow to inf is expected deep in the l >> |z| regime and
    resolved by setting j to 0 there (j underflows to zero there, an h or xi
    query raises). So numpy's floating-point warnings are silenced while the
    ladders and the normalization run, and a Miller overflow is returned for
    the front end to signal.
    """
    nstart = _miller_start(l, amax)
    stride = max(1, int(50 / np.log10((2 * nstart + 3) / amin + 1)))
    zinv = 1.0 / z
    m_steps = nstart - l + 2
    coefs, checks = _ladder_coefs(l, nstart, stride, z.dtype, z.ndim)
    both = min(m_steps, l)
    cur, prev = np.empty((2, 2) + z.shape, z.dtype)   # rows: Miller j, y
    cur[0], prev[0] = 1e-30, 0.0
    # the z with |Im z| > 1, or None where no z is off the strip (a real z never is)
    off = np.abs(z.imag) > 1.0 if z.dtype.kind == "c" else None
    off = off if off is not None and off.any() else None
    with np.errstate(all="ignore"):
        cur[1], prev[1] = -np.cos(z) / z, np.sin(z) / z
        cur, prev, _ = _recur(cur, prev, coefs[:both], checks[:both], zinv)
        (lo, yl), (hi, ylm1) = cur, prev
        if m_steps > l:
            (lo,), (hi,), _ = _recur(cur[:1], prev[:1], coefs[both:, :1], checks[both:], zinv)
        else:
            (yl,), (ylm1,), _ = _recur(cur[1:], prev[1:], coefs[both:, 1:], checks[both:], zinv)
        lost = ~np.isfinite(lo)
        y_over = ~(np.maximum(np.abs(ylm1), np.abs(yl)) < _Y_OVERFLOW)
        # unit scale keeps the Wronskian products (and the off-strip
        # continuation's underflow headroom) in range
        scale = np.maximum(np.abs(lo), np.abs(hi))
        scale = scale if scale.all() else np.where(scale == 0, 1.0, scale)
        lo, hi = lo / scale, hi / scale
        denom = z * z * (hi * ylm1 - lo * yl)   # = j-scale^{-1} by Wronskian
        jlm1, jl = lo / denom, hi / denom
        if off is not None:
            orders = np.arange(l - 2, -2, -1)
            coefs = (2 * orders + 3).astype(z.dtype).reshape((-1, 1) + (1,) * z.ndim)
            (fm1,), _, (flm1, fl) = _recur(lo[None], hi[None], coefs,
                                           (orders % stride == 0).tolist(), zinv, lo, hi)
            ratio = np.cos(z) / z / fm1
            jlm1 = np.where(off, flm1 * ratio, jlm1)
            jl = np.where(off, fl * ratio, jl)
    # where y overflowed, l >> |z| in the monotone regime and j underflows;
    # where the Wronskian is 0 or not finite, j is 0 too (off the strip, the
    # continuation holds j)
    if y_over.any() or not (np.isfinite(denom).all() and denom.all()):
        zero = y_over | (denom == 0) | ~np.isfinite(denom)
        if off is not None:
            zero &= ~off
        jlm1 = np.where(zero, 0.0, jlm1)
        jl = np.where(zero, 0.0, jl)
    return (jlm1, jl), (ylm1, yl), y_over, lost


def _signal_nonfinite(named):
    """Raise OverflowError naming the first non-finite array of named, a dict
    of name -> array; one pass over all of them when every value is finite."""
    if np.isfinite(np.concatenate([f.ravel() for f in named.values()])).all():
        return
    for name, values in named.items():
        if not np.isfinite(values).all():
            raise OverflowError(f"{name} overflowed double precision for given (l, z)")


def _bessel_pairs(l, z, y_name=None):
    """The front end of j, h and xi: z as an array of at least one dimension,
    (j_{l-1}, j_l), and (h_{l-1}, h_l), h = j + i y, where y_name names the
    public function as h1 or xi (else None).

    Below |z| = _SERIES_BELOW, j_n is its two-term series
    z^n/(2n+1)!! (1 - z^2/(2(2n+3))), exact to rounding there, at n = l - 1
    too: (-1)!! = 1, and (1 - z^2/2)/z is cos z/z to rounding. The Miller
    ladder serves j elsewhere. y has no series here, so h and xi run the
    ladder at every z; j runs it off the series alone, where neither z = 0
    nor a tiny |z|'s rescale stride reaches it. Warns, naming the public
    function's caller, where the Miller ladder overflowed off the series;
    raises OverflowError naming y_name_l where y_l overflowed. Whether some
    z takes the series is decided once, from min|z|: without one, no
    series mask is built and the ladder runs on z as it is."""
    arr = np.atleast_1d(np.asarray(z, dtype=float if np.isrealobj(z) else complex))
    absz, amax, amin = _check_domain(l, arr, y_name is not None)
    series = amin < _SERIES_BELOW   # decided once: some z takes j from the series
    ladder = absz >= _SERIES_BELOW if series else ...   # ... indexes every z
    if y_name is None and series:
        j, lost = np.zeros((2,) + arr.shape, arr.dtype), np.zeros(arr.shape, bool)
        if ladder.any():
            (j[0][ladder], j[1][ladder]), _, _, lost[ladder] = _j_ladder(
                l, arr[ladder], amax, float(absz[ladder].min()))
    else:
        j, y, y_over, lost = _j_ladder(l, arr, amax, amin)
    if lost[ladder].any():
        warnings.warn("overflow encountered in the Miller j ladder", RuntimeWarning,
                      stacklevel=3)
    if series:
        tiny = ~ladder
        w, c = arr[tiny], 1 / math.prod(range(1, 2 * l + 2, 2))   # 1/(2l+1)!!
        with np.errstate(divide="ignore", invalid="ignore"):   # j_{-1}(0): z = 0 reaches j alone
            for f, n, cn in zip(j, (l - 1, l), (c * (2 * l + 1), c)):
                f[tiny] = w**n * cn * (1 - w * w / (2 * (2 * n + 3)))
    if y_name is not None and y_over.any():
        # y_l ~ (2l - 1)!!/|z|^(l+1) for l >> |z|, and |y_l| ~ e^|Im z|/|z|
        raise OverflowError(f"{y_name}_{l} overflowed double precision (|z| too "
                            "small for l, or |Im z| too large)")
    return arr, j, None if y_name is None else (j[0] + 1j * y[0], j[1] + 1j * y[1])


def spherical_bessel_j(l, z):
    """Spherical Bessel j_l(z) for integer l >= 0 and real or complex z.

    Vectorized over z; float64 for real z, complex128 otherwise.
    j_l(0) = delta_{l0}; values below the double-precision floor (l >> |z|)
    underflow to exactly 0. Relative accuracy 1e-10 or better for
    l <= MAX_ORDER, |z| <= TIGHT_ARG; an AccuracyWarning is issued past that
    |z|. Below |z| = _SERIES_BELOW, j_l is its two-term power series, exact
    to rounding there.
    """
    _, (_, jl), _ = _bessel_pairs(l, z)
    _signal_nonfinite({"j_l": jl})
    return jl.reshape(np.shape(z))[()]


def spherical_hankel1(l, z):
    """Outgoing spherical Hankel h_l^(1)(z) = j_l(z) + i y_l(z), complex128
    for any z.

    Summed from the Miller j ladder and the y pair it normalizes with. The sum
    cancels ~e^{2 Im z} of the digits where h decays (Im z > 0): tight on the
    strip |Im z| <= 1, which holds the quasinormal poles (Im z < 0,
    |Im z| << |z|), and warned as relaxed off it.
    """
    _, _, (_, hl) = _bessel_pairs(l, z, "h1")
    _signal_nonfinite({"h1_l": hl})
    return hl.reshape(np.shape(z))[()]


def riccati_bessel(l, z):
    """Riccati-Bessel psi_l = z j_l, xi_l = z h_l^(1) and their derivatives.

    Returns (psi, psi', xi, xi'), each with the shape of z, from one Miller j
    ladder: h = j + i y, and f' = z f_{l-1} - l f_l for f = j, h. psi and psi'
    are float64 for real z (complex128 otherwise); xi and xi' are always
    complex128. Satisfies the Wronskian identity psi xi' - psi' xi = i. Same
    |Im z| <= 1 tight envelope as the Hankel function.
    """
    arr, (jlm1, jl), (hlm1, hl) = _bessel_pairs(l, z, "xi")
    out = {"psi": arr * jl, "psi'": arr * jlm1 - l * jl,
           "xi": arr * hl, "xi'": arr * hlm1 - l * hl}
    _signal_nonfinite(out)
    return tuple(f.reshape(np.shape(z))[()] for f in out.values())


@dataclass(frozen=True)
class AngularMomentumMatrices:
    """Spin-l representation matrices in the basis m = -l ... +l.

    Hermitian, satisfy [L_i, L_j] = i eps_ijk L_k and
    Lx^2 + Ly^2 + Lz^2 = l(l+1) 1.
    """

    l: int
    Lx: np.ndarray
    Ly: np.ndarray
    Lz: np.ndarray


def angular_momentum_matrices(l: int) -> AngularMomentumMatrices:
    """Build Lx, Ly, Lz for orbital quantum number l from the ladder rules.

    <l, m+1 | L+ | l, m> = sqrt(l(l+1) - m(m+1)), <l, m | Lz | l, m> = m.
    Entries are extended-precision complex (clongdouble): double-rounded
    ladder amplitudes alone would push the commutator/Casimir residuals past
    1e-12 absolute for l ~ 120. Each call builds fresh matrices; the order
    takes the Bessel functions' rule (an integer, 0 <= l <= MAX_ORDER).
    """
    _check_order(l)
    l = int(l)
    m = np.arange(-l, l + 1).astype(np.longdouble)
    dim = 2 * l + 1
    lp = np.zeros((dim, dim), dtype=np.clongdouble)
    if l > 0:
        raise_amp = np.sqrt((l * (l + 1) - m[:-1] * (m[:-1] + 1)).astype(np.longdouble))
        lp[np.arange(1, dim), np.arange(dim - 1)] = raise_amp
    lm = lp.conj().T
    lx = 0.5 * (lp + lm)
    ly = -0.5j * (lp - lm)
    lz = np.diag(m).astype(np.clongdouble)
    return AngularMomentumMatrices(l=l, Lx=lx, Ly=ly, Lz=lz)
