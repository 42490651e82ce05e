"""Spherical Bessel/Hankel functions of complex argument and angular-momentum matrices.

Everything downstream (characteristic equations, mode profiles, coupling
matrices) sits on these. The Bessel routines accept complex arguments because
resonance poles live just below the real wavenumber axis; scipy's spherical
Bessels are real-only.

Stability: j_l is computed by downward (Miller) recurrence normalized through
the cross Wronskian j_{l+1} y_l - j_l y_{l+1} = 1/z^2, y_l by upward
recurrence. Upward recurrence of j_l is unstable for l > |z|, which is exactly
the whispering-gallery regime (l = 120, |z| ~ 84), hence Miller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "AccuracyWarning",
    "AngularMomentumMatrices",
    "spherical_bessel_j",
    "spherical_bessel_y",
    "spherical_hankel1",
    "riccati_bessel",
    "riccati_psi",
    "riccati_xi",
    "angular_momentum_matrices",
]

MAX_ORDER = 500          # hard domain limit
TIGHT_ORDER = 200        # 1e-10 relative accuracy validated up to here ...
TIGHT_ARG = 300.0        # ... and up to this |z|
_HUGE = 1e250            # rescale threshold inside recurrences
_Y_OVERFLOW = 1e290      # beyond this y_l is treated as overflowed


class AccuracyWarning(UserWarning):
    """Outside the validated (l, |z|) envelope; result computed best-effort."""


def _check_domain(l, z, need_nonzero, im_strip=False):
    if l < 0 or int(l) != l:
        raise ValueError(f"order l must be a non-negative integer, got {l!r}")
    if l > MAX_ORDER:
        raise ValueError(f"order l={l} exceeds validated maximum {MAX_ORDER}")
    arr = np.asarray(z, dtype=complex)
    amax = float(np.max(np.abs(arr))) if arr.size else 0.0
    if need_nonzero and np.any(arr == 0):
        raise ValueError("argument z = 0 is outside the domain")
    off_strip = im_strip and arr.size and float(np.max(np.abs(arr.imag))) > 1.0
    if l > TIGHT_ORDER or amax > TIGHT_ARG or off_strip:
        warnings.warn(
            f"(l={l}, max|z|={amax:.3g}) outside tight-tolerance range "
            f"(l <= {TIGHT_ORDER}, |z| <= {TIGHT_ARG}"
            + (", |Im z| <= 1 for y/h" if im_strip else "")
            + "); accuracy relaxed",
            AccuracyWarning,
            stacklevel=3,
        )


def _as_array(z):
    arr = np.asarray(z, dtype=complex)
    return np.atleast_1d(arr), arr.ndim == 0


def _upward_ladder(l, z, f_m1, f_0, f_1):
    """f_{l-1}, f_l, f_{l+1} by upward recurrence from f_{-1}, f_0 (f_1() is
    the closed form used for l = 0), plus a mask of overflowed entries:
    callers decide (j underflows to zero there, an explicit y/h query raises).
    """
    # overflow to inf is expected deep in the l >> |z| regime and resolved by
    # the mask below, so silence numpy's per-op warnings here
    with np.errstate(over="ignore", invalid="ignore"):
        if l == 0:
            trio = (f_m1, f_0, f_1())
        else:
            prev, cur = f_m1, f_0
            for order in range(0, l + 1):
                prev, cur = cur, (2 * order + 1) / z * cur - prev
                if order == l - 1:
                    keep_lm1 = prev
            trio = (keep_lm1, prev, cur)
    big = [np.maximum(np.abs(f.real), np.abs(f.imag)) for f in trio[1:]]
    return trio, ~((big[0] < _Y_OVERFLOW) & (big[1] < _Y_OVERFLOW))


def _y_ladder(l, z):
    """y_{l-1}, y_l, y_{l+1} and overflow mask; y_{-1}(z) = sin(z)/z by
    convention (= j_0), which makes h1_{-1} = e^{iz}/z."""
    sz, cz = np.sin(z), np.cos(z)
    return _upward_ladder(l, z, sz / z, -cz / z, lambda: -cz / (z * z) - sz / z)


def _h1_ladder(l, z):
    """h1_{l-1}, h1_l, h1_{l+1} and overflow mask, from exact seeds.

    h1_0 = -i e^{iz}/z, h1_{-1} = e^{iz}/z. Outgoing h1 is never the minimal
    solution (it grows like y_l for l >> |z| and like e^{-Im z} suppressed
    seeds keep the dominant-solution error component at relative eps
    elsewhere), so upward recurrence is uniformly stable. Separately adding
    j + i y would cancel catastrophically for Im z >> 1.
    """
    eiz = np.exp(1j * z)
    return _upward_ladder(l, z, eiz / z, -1j * eiz / z,
                          lambda: -eiz * (z + 1j) / (z * z))


def _miller_start(l, z):
    # start above the j/y turning point so the minimal solution dominates
    amax = float(np.max(np.abs(z)))
    turn = max(float(l), amax + 4.05 * amax ** (1.0 / 3.0) + 8.0)
    return int(turn + 8.0 * np.sqrt(turn) + 10.0)


def _j_ladder(l, z):
    """j_{l-1}, j_l, j_{l+1} (j_{-1} = cos z / z), vectorized over z.

    Downward recurrence from an arbitrary seed, then per-element scale fixing:

    * |Im z| <= 1: cross Wronskian with y_l (j_{l+1} y_l - j_l y_{l+1} = 1/z^2;
      the combination is conditioned like e^{2 Im z}, fine in this strip, and
      immune to the real zeros of sin z);
    * |Im z| > 1: classic j_0 = sin(z)/z normalization (|sin z| >= sinh|Im z|
      is bounded away from zero off the strip, while the Wronskian pairing
      cancels catastrophically there).

    Mid-recurrence rescales are applied to the whole running set, so they
    cancel in either normalization ratio.
    """
    nstart = _miller_start(l, z)
    hi = np.zeros_like(z)
    lo = np.full_like(z, 1e-30)
    keep = {}
    targets = {l + 1, l, l - 1} if l >= 1 else {l + 1, l}
    need_j0 = bool(np.any(np.abs(z.imag) > 1.0))
    if need_j0:
        targets = targets | {0}
    lowest = min(targets)
    for order in range(nstart, -1, -1):
        hi, lo = lo, (2 * order + 3) / z * lo - hi
        big = (np.abs(lo.real) > _HUGE) | (np.abs(lo.imag) > _HUGE)
        if np.any(big):
            factor = np.where(big, 1e-250, 1.0)
            hi = hi * factor
            lo = lo * factor
            for key in keep:
                keep[key] = keep[key] * factor
        if order in targets:
            keep[order] = lo
            if order == lowest:
                break

    (ym1, yl, ylp1), y_over = _y_ladder(l, z)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        # normalize keeps to unit scale so the Wronskian products stay in range
        scale = np.maximum(np.abs(keep[l]), np.abs(keep[l + 1]))
        scale = np.where(scale == 0, 1.0, scale)
        kl = keep[l] / scale
        klp1 = keep[l + 1] / scale
        klm1 = keep[l - 1] / scale if l >= 1 else None
        denom = z * z * (klp1 * yl - kl * ylp1)   # = j-scale^{-1} by Wronskian
        bad = (denom == 0) | ~np.isfinite(denom)
        denom = np.where(bad, 1.0, denom)
        jl = kl / denom
        jlp1 = klp1 / denom
        jlm1 = (klm1 / denom) if l >= 1 else np.cos(z) / z

        if need_j0:
            k0 = keep[0] / scale
            ok0 = (k0 != 0) & (np.abs(z.imag) > 1.0)
            ratio = np.sin(z) / z / np.where(k0 == 0, 1.0, k0)
            jl = np.where(ok0, kl * ratio, jl)
            jlp1 = np.where(ok0, klp1 * ratio, jlp1)
            if l >= 1:
                jlm1 = np.where(ok0, klm1 * ratio, jlm1)
    # where y overflowed, l >> |z| in the monotone regime and j underflows
    zero = y_over | bad
    if need_j0:
        zero = zero & ~ok0
    if np.any(zero):
        jlm1 = np.where(zero, 0.0, jlm1)
        jl = np.where(zero, 0.0, jl)
        jlp1 = np.where(zero, 0.0, jlp1)
    return (jlm1, jl, jlp1), (ym1, yl, ylp1), y_over


def _signal_nonfinite(name, values):
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{name} overflowed double precision for given (l, z)")


def spherical_bessel_j(l, z):
    """Spherical Bessel j_l(z) for integer l >= 0 and complex z.

    Vectorized over z. j_l(0) = delta_{l0}; values below the double-precision
    floor (l >> |z|) underflow to exactly 0. Relative accuracy ~1e-13 for
    l <= 200, |z| <= 300; an AccuracyWarning is issued outside that envelope.
    """
    _check_domain(l, z, need_nonzero=False)
    arr, scalar = _as_array(z)
    out = np.empty_like(arr)
    zero = arr == 0
    if np.any(zero):
        out[zero] = 1.0 if l == 0 else 0.0
    rest = ~zero
    if np.any(rest):
        (_, jl, _), _, _ = _j_ladder(l, arr[rest])
        _signal_nonfinite("j_l", jl)
        out[rest] = jl
    return out[0] if scalar else out.reshape(np.shape(z))


def spherical_bessel_y(l, z):
    """Spherical Bessel y_l(z) (Neumann); raises OverflowError past double range.

    Tight accuracy on the strip |Im z| <= 1 (upward recurrence dips with the
    e^{2 Im z} solution split off it); warned as relaxed outside.
    """
    _check_domain(l, z, need_nonzero=True, im_strip=True)
    arr, scalar = _as_array(z)
    (_, yl, _), over = _y_ladder(l, arr)
    if np.any(over):
        raise OverflowError(f"y_{l} overflowed double precision (|z| too small for l)")
    _signal_nonfinite("y_l", yl)
    return yl[0] if scalar else yl.reshape(np.shape(z))


def spherical_hankel1(l, z):
    """Outgoing spherical Hankel h_l^(1)(z) = j_l(z) + i y_l(z).

    Computed by its own upward ladder from exact seeds (adding separately
    computed j and i y would cancel ~e^{2 Im z} digits for Im z >> 1).
    Tight accuracy for Im z >= -1; quasinormal poles (Im z < 0, |Im z| << |z|)
    are deep inside that envelope.
    """
    _check_domain(l, z, need_nonzero=True, im_strip=True)
    arr, scalar = _as_array(z)
    (_, hl, _), over = _h1_ladder(l, arr)
    if np.any(over):
        raise OverflowError(f"h1_{l} overflowed double precision (|z| too small for l)")
    _signal_nonfinite("h1_l", hl)
    return hl[0] if scalar else hl.reshape(np.shape(z))


def _riccati_pair(name, z, f, fp):
    """(f, f') shaped like z (scalars for scalar z), after the non-finite checks."""
    _signal_nonfinite(name, f)
    _signal_nonfinite(name + "'", fp)
    return f.reshape(np.shape(z))[()], fp.reshape(np.shape(z))[()]


def riccati_psi(l, z):
    """Riccati-Bessel psi_l = z j_l and psi_l', from the Miller j ladder alone."""
    _check_domain(l, z, need_nonzero=True, im_strip=True)
    arr, _ = _as_array(z)
    (jlm1, jl, _), _, _ = _j_ladder(l, arr)
    return _riccati_pair("psi", z, arr * jl, arr * jlm1 - l * jl)


def riccati_xi(l, z):
    """Riccati-Bessel xi_l = z h_l^(1) and xi_l', from the h1 ladder alone."""
    _check_domain(l, z, need_nonzero=True, im_strip=True)
    arr, _ = _as_array(z)
    (hlm1, hl, _), over = _h1_ladder(l, arr)
    if np.any(over):
        raise OverflowError(f"xi_{l} overflowed double precision (|z| too small for l)")
    return _riccati_pair("xi", z, arr * hl, arr * hlm1 - l * hl)


def riccati_bessel(l, z):
    """Riccati-Bessel psi_l = z j_l, xi_l = z h_l^(1) and their derivatives.

    Returns (psi, psi', xi, xi'), each with the shape of z. Satisfies the
    Wronskian identity psi xi' - psi' xi = i. Same |Im z| <= 1 tight envelope
    as the Hankel functions.
    """
    return riccati_psi(l, z) + riccati_xi(l, z)


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


@lru_cache(maxsize=64)
def angular_momentum_matrices(l: int) -> AngularMomentumMatrices:
    """Build Lx, Ly, Lz for orbital quantum number l from the ladder rules.

    <l, m+1 | L+ | l, m> = sqrt(l(l+1) - m(m+1)), <l, m | Lz | l, m> = m.
    Entries are extended-precision complex (clongdouble): double-rounded
    ladder amplitudes alone would push the commutator/Casimir residuals past
    1e-12 absolute for l ~ 120. Matrices are cached and returned read-only
    (population is idempotent, so the cache is safe under concurrent first
    use).
    """
    if l < 0 or int(l) != l:
        raise ValueError(f"l must be a non-negative integer, got {l!r}")
    if l > 1000:
        raise ValueError(f"l={l} exceeds supported maximum 1000")
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
    for a in (lx, ly, lz):
        a.flags.writeable = False
    return AngularMomentumMatrices(l=l, Lx=lx, Ly=ly, Lz=lz)
