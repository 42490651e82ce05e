"""Spherical Bessel/Hankel functions of complex argument and angular-momentum matrices.

The characteristic equations and mode profiles sit on the Bessel routines;
the matrices are a reference for the spin-l algebra that the coupling's
ladder sums evaluate without them. The Bessel routines accept complex
arguments because resonance poles live just below the real wavenumber axis;
scipy's spherical Bessels are real-only. A real argument runs the same ladders
in real arithmetic: j_l, psi and psi' come back float64 (as
scipy.special.spherical_jn does), h, xi and xi' complex128. Any other input is
computed in complex128. y_l is reached as Im h_l for real z.

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
_TABLE_BYTES form one row per step instead, with the same bits.
"""

from __future__ import annotations

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

MAX_ORDER = 500          # hard domain limit
TIGHT_ORDER = 200        # 1e-10 relative accuracy validated up to here ...
TIGHT_ARG = 300.0        # ... and up to this |z|
_HUGE = 1e250            # rescale threshold inside recurrences
_Y_OVERFLOW = 1e290      # beyond this y_l is treated as overflowed
# largest (2n + 3)/z table _recur builds ahead of its loop. A 120-step
# two-row loop with the table takes, against one row per step (numpy 2.4,
# 2-core Xeon), 0.52x the time at 1 point, 0.56-0.63x at 28-64 points,
# 0.77-0.88x at 480-960 KiB of table, 1.0-1.3x at 0.9-1.9 MiB and 1.3-1.5x
# at 2.4-4.9 MiB: the table saves a numpy call per step where call overhead
# is the cost, and adds a pass over memory where arithmetic is. So the
# 1310-point profile grid keeps one row per step, while the scan (~90 KiB on
# the reference window), Newton and the matching build the table. The limit
# also bounds its memory (~300 MB at the scan's point cap)
_TABLE_BYTES = 256 << 10


class AccuracyWarning(UserWarning):
    """Outside the validated (l, |z|) envelope; result computed best-effort."""


def _check_order(l):
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"order l must be a non-negative integer, got {l!r}")
    if l > MAX_ORDER:
        raise ValueError(f"order l={l} exceeds validated maximum {MAX_ORDER}")


def _check_domain(l, z, uses_y):
    # y_l, and so h_l and xi_l, is singular at z = 0 and tight on |Im z| <= 1.
    # max|z| is nan or inf exactly when some z is, so it is the finiteness test
    _check_order(l)
    arr = np.asarray(z)
    amax = float(np.max(np.abs(arr))) if arr.size else 0.0
    if not math.isfinite(amax):
        raise ValueError(f"argument z must be finite, got max|z| = {amax}")
    if uses_y and np.any(arr == 0):
        raise ValueError("argument z = 0 is outside the domain")
    off_strip = uses_y and arr.size and float(np.max(np.abs(arr.imag))) > 1.0
    if l > TIGHT_ORDER or amax > TIGHT_ARG or off_strip:
        warnings.warn(
            f"(l={l}, max|z|={amax:.3g}) outside tight-tolerance range "
            f"(l <= {TIGHT_ORDER}, |z| <= {TIGHT_ARG}"
            + (", |Im z| <= 1 for h/xi" if uses_y else "")
            + "); accuracy relaxed",
            AccuracyWarning,
            stacklevel=3,
        )


def _as_array(z):
    arr = np.asarray(z, dtype=float if np.isrealobj(z) else complex)
    return np.atleast_1d(arr), arr.ndim == 0


def _miller_start(l, z):
    # start above the j/y turning point so the minimal solution dominates.
    # Past it j/y decays like exp(-c (nu - |z|)^{3/2} / |z|^{1/2}), so the
    # margin that buys double precision grows like turn^{1/3}. Acceptance
    # criterion 7 and the l = 300-500 mpmath test set the constants: a margin
    # of 2 turn^{1/3} + 2 loses j to ~1e-9
    amax = float(np.max(np.abs(z)))
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
            if np.any(big):
                factor = np.where(big, 1e-250, 1.0)
                cur, prev = (np.concatenate((f[:1] * factor, f[1:])) for f in (cur, prev))
                carried = [f * factor for f in carried]
    return cur, prev, carried


def _j_ladder(l, z):
    """(j_{l-1}, j_l) and (y_{l-1}, y_l) (j_{-1} = cos z / z, y_{-1} = j_0),
    vectorized over a finite, nonzero float64 or complex128 z of at least one
    dimension and keeping its dtype, plus the y overflow mask.

    Two ladders of one recurrence, f_{n-1} + f_{n+1} = (2n + 1)/z f_n: Miller
    j from an arbitrary seed down to order l - 1, and y up from
    y_{-1} = sin z/z, y_0 = -cos z/z to y_l. They are the two rows of one
    state, stepped together while both run, then the longer one finishes
    alone. On the few points of a Newton iterate call overhead, not
    arithmetic, is the cost: a step costs two numpy calls for both ladders
    where _recur's coefficient table fits in _TABLE_BYTES, three on a long
    grid, where the products are formed one row per step.
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
    resolved by the mask (j underflows to zero there, an h or xi query
    raises). So numpy's overflow warnings are silenced while the ladders run,
    and a Miller overflow raises a RuntimeWarning of its own.
    """
    nstart = _miller_start(l, z)
    zmin = float(np.min(np.abs(z)))
    stride = max(1, int(50 / np.log10((2 * nstart + 3) / zmin + 1)))
    zinv = 1.0 / z
    # step s takes Miller (row 0) to order nstart - s, c = 2 (nstart - s) + 3,
    # and y (row 1) to order s + 1, c = 2 s + 1
    m_steps = nstart - l + 2
    s = np.arange(max(m_steps, l))
    column = (1,) * z.ndim   # a coefficient per row, broadcast over z
    coefs = np.stack([2 * (nstart - s) + 3, 2 * s + 1], axis=1).astype(z.dtype)
    coefs = coefs.reshape(coefs.shape + column)
    checks = ((s < m_steps) & ((nstart - s) % stride == 0)).tolist()
    cur = np.stack([np.full_like(z, 1e-30), -np.cos(z) / z])
    prev = np.stack([np.zeros_like(z), np.sin(z) / z])
    both = min(m_steps, l)
    with np.errstate(over="ignore", invalid="ignore"):
        cur, prev, _ = _recur(cur, prev, coefs[:both], checks[:both], zinv)
        (lo, yl), (hi, ylm1) = cur, prev
        if m_steps > l:
            (lo,), (hi,), _ = _recur(cur[:1], prev[:1], coefs[both:, :1], checks[both:], zinv)
        else:
            (yl,), (ylm1,), _ = _recur(cur[1:], prev[1:], coefs[both:, 1:], checks[both:], zinv)
    if not np.all(np.isfinite(lo)):
        warnings.warn("overflow encountered in the Miller j ladder", RuntimeWarning,
                      stacklevel=3)
    y_over = ~(np.maximum(np.abs(ylm1), np.abs(yl)) < _Y_OVERFLOW)
    off = np.abs(z.imag) > 1.0
    with np.errstate(all="ignore"):
        # unit scale keeps the Wronskian products (and the off-strip
        # continuation's underflow headroom) in range
        scale = np.maximum(np.abs(lo), np.abs(hi))
        scale = np.where(scale == 0, 1.0, scale)
        lo, hi = lo / scale, hi / scale
        denom = z * z * (hi * ylm1 - lo * yl)   # = j-scale^{-1} by Wronskian
        bad = (denom == 0) | ~np.isfinite(denom)
        denom = np.where(bad, 1.0, denom)
        jlm1, jl = lo / denom, hi / denom
        if np.any(off):
            orders = np.arange(l - 2, -2, -1)
            coefs = (2 * orders + 3).astype(z.dtype).reshape((-1, 1) + column)
            (fm1,), _, (flm1, fl) = _recur(lo[None], hi[None], coefs,
                                           (orders % stride == 0).tolist(), zinv, lo, hi)
            ratio = np.cos(z) / z / fm1
            jlm1 = np.where(off, flm1 * ratio, jlm1)
            jl = np.where(off, fl * ratio, jl)
    # where y overflowed, l >> |z| in the monotone regime and j underflows
    zero = (y_over | bad) & ~off
    if np.any(zero):
        jlm1 = np.where(zero, 0.0, jlm1)
        jl = np.where(zero, 0.0, jl)
    return (jlm1, jl), (ylm1, yl), y_over


def _signal_nonfinite(name, values):
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{name} overflowed double precision for given (l, z)")


def spherical_bessel_j(l, z):
    """Spherical Bessel j_l(z) for integer l >= 0 and real or complex z.

    Vectorized over z; float64 for real z, complex128 otherwise.
    j_l(0) = delta_{l0}; values below the double-precision floor (l >> |z|)
    underflow to exactly 0. Relative accuracy ~1e-13 for l <= 200,
    |z| <= 300; an AccuracyWarning is issued outside that envelope.
    """
    _check_domain(l, z, uses_y=False)
    arr, scalar = _as_array(z)
    out = np.empty_like(arr)
    zero = arr == 0
    if np.any(zero):
        out[zero] = 1.0 if l == 0 else 0.0
    rest = ~zero
    if np.any(rest):
        (_, jl), _, _ = _j_ladder(l, arr[rest])
        _signal_nonfinite("j_l", jl)
        out[rest] = jl
    return out[0] if scalar else out.reshape(np.shape(z))


def spherical_hankel1(l, z):
    """Outgoing spherical Hankel h_l^(1)(z) = j_l(z) + i y_l(z), complex128
    for any z.

    Summed from the Miller j ladder and the y pair it normalizes with. The sum
    cancels ~e^{2 Im z} of the digits where h decays (Im z > 0): tight on the
    strip |Im z| <= 1, which holds the quasinormal poles (Im z < 0,
    |Im z| << |z|), and warned as relaxed off it.
    """
    _check_domain(l, z, uses_y=True)
    arr, scalar = _as_array(z)
    (_, jl), (_, yl), over = _j_ladder(l, arr)
    if np.any(over):
        raise OverflowError(f"h1_{l} overflowed double precision (|z| too small for l)")
    hl = jl + 1j * yl
    _signal_nonfinite("h1_l", hl)
    return hl[0] if scalar else hl.reshape(np.shape(z))


def riccati_bessel(l, z):
    """Riccati-Bessel psi_l = z j_l, xi_l = z h_l^(1) and their derivatives.

    Returns (psi, psi', xi, xi'), each with the shape of z, from one Miller j
    ladder: h = j + i y, and f' = z f_{l-1} - l f_l for f = j, h. psi and psi'
    are float64 for real z (complex128 otherwise); xi and xi' are always
    complex128. Satisfies the Wronskian identity psi xi' - psi' xi = i. Same
    |Im z| <= 1 tight envelope as the Hankel function.
    """
    _check_domain(l, z, uses_y=True)
    arr, _ = _as_array(z)
    (jlm1, jl), (ylm1, yl), over = _j_ladder(l, arr)
    if np.any(over):
        raise OverflowError(f"xi_{l} overflowed double precision (|z| too small for l)")
    hlm1, hl = jlm1 + 1j * ylm1, jl + 1j * yl
    out = {"psi": arr * jl, "psi'": arr * jlm1 - l * jl,
           "xi": arr * hl, "xi'": arr * hlm1 - l * hl}
    for name, f in out.items():
        _signal_nonfinite(name, f)
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
