"""Test-only oracles, independent of the package implementation.

* Arbitrary-precision spherical Bessel j_l / y_l from their ascending power
  series (mpmath, >= 50 working digits, precision raised with |z| to absorb
  the alternating-series cancellation). Self-checked via the cross Wronskian
  j_{l+1} y_l - j_l y_{l+1} = 1/z^2 at working precision.
* Argument-principle pole scanner: counts zeros of an analytic function
  inside a rectangle by winding number and localizes them by recursive
  subdivision. Used to brute-force quasinormal pole sets.
* The characteristic function D built from mpmath's besselj/bessely of order
  l + 1/2, its poles by findroot, and the TE coupling constant Lambda on the
  real axis at a pole's real part, at as many digits as the pole's Q needs.
"""

from __future__ import annotations

import math

import mpmath as mp


def _working_dps(l, z):
    # cancellation grows like e^{|Im z| + |z|-ish}; 0.5*|z| digits is generous
    return 50 + int(0.5 * abs(complex(z))) + 10


def _dbl_factorial(n):
    # (2k-1)!! style products via mpmath for exactness
    out = mp.mpf(1)
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def sph_j_oracle(l, z, dps=None):
    """j_l(z) = z^l/(2l+1)!! * sum_k (-z^2/2)^k / (k! (2l+2k+1)!!)."""
    z = mp.mpmathify(z)
    if z == 0:
        return mp.mpf(1) if l == 0 else mp.mpf(0)
    with mp.workdps(dps or _working_dps(l, z)):
        zz = -z * z / 2
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= zz / (k * (2 * l + 2 * k + 1))
            total += term
            if abs(term) < mp.eps * abs(total) and k > abs(z):
                break
            if k > 100000:
                raise RuntimeError("j series did not converge")
        pref = z**l / _dbl_factorial(2 * l + 1)
        return +(pref * total)


def sph_y_oracle(l, z, dps=None):
    """y_l(z) = -(2l-1)!!/z^{l+1} * sum_k (-z^2/2)^k / (k! prod_j (2j-1-2l)).

    The denominator factors 2j-1-2l are odd, never zero, so the series is
    globally valid.
    """
    z = mp.mpmathify(z)
    if z == 0:
        raise ZeroDivisionError("y_l singular at 0")
    with mp.workdps(dps or _working_dps(l, z)):
        zz = -z * z / 2
        term = mp.mpf(1)
        total = mp.mpf(1)
        k = 0
        while True:
            k += 1
            term *= zz / (k * (2 * k - 1 - 2 * l))
            total += term
            if abs(term) < mp.eps * abs(total) and k > abs(z):
                break
            if k > 100000:
                raise RuntimeError("y series did not converge")
        pref = -_dbl_factorial(2 * l - 1) / z ** (l + 1)
        return +(pref * total)


def sph_h1_oracle(l, z, dps=None):
    # j + i y cancels ~ e^{2 Im z} for Im z > 0; do the sum at a precision
    # that absorbs it, not at the ambient context precision
    zc = mp.mpmathify(z)
    if dps is None:
        dps = _working_dps(l, zc) + int(0.9 * max(0.0, float(mp.im(zc)))) + 20
    with mp.workdps(dps):
        return +(sph_j_oracle(l, zc, dps) + 1j * sph_y_oracle(l, zc, dps))


def mp_spherical(l, z, hankel=False):
    """j_l(z), or h_l^(1)(z) when hankel, as a complex double, from mpmath's J
    of order l + 1/2 at 30 digits, with y_l = (-1)^(l+1) j_{-l-1} (3x
    cheaper than bessely). The same doubles as sph_j_oracle and sph_h1_oracle
    on criterion 7's draws, far faster: their ascending series takes up to
    ~0.5 s a value at |z| ~ 800."""
    with mp.workdps(30):
        zm = mp.mpc(z)
        ref = mp.besselj(l + 0.5, zm)
        if hankel:
            ref += 1j * (-1) ** (l + 1) * mp.besselj(-l - 0.5, zm)
        return complex(mp.sqrt(mp.pi / (2 * zm)) * ref)


def oracle_self_check(l, z):
    """Cross-Wronskian residual |z^2 (j_{l+1} y_l - j_l y_{l+1}) - 1|."""
    with mp.workdps(_working_dps(l, z) + 20):
        zm = mp.mpmathify(z)
        w = zm * zm * (sph_j_oracle(l + 1, zm) * sph_y_oracle(l, zm)
                       - sph_j_oracle(l, zm) * sph_y_oracle(l + 1, zm))
        return abs(w - 1)


# --- argument-principle pole scanner ----------------------------------------

def winding_number(f_vec, re_range, im_range, samples_per_side=2000):
    """Winding of f around the rectangle boundary (= zero count inside).

    f_vec must accept a complex numpy array. Raises if the phase sampling is
    too coarse to be trustworthy (a zero hugging the contour).
    """
    import numpy as np

    re_lo, re_hi = re_range
    im_lo, im_hi = im_range
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0, 1, samples_per_side, endpoint=False)
        pts.append(a + (b - a) * ts)
    pts = np.concatenate(pts + [np.array([corners[0]])])
    vals = np.asarray(f_vec(pts))
    if np.any(vals == 0) or not np.all(np.isfinite(vals)):
        raise RuntimeError("zero or non-finite value on the contour")
    dphi = np.diff(np.angle(vals))
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    if np.any(np.abs(dphi) > 2.8):
        raise RuntimeError("phase step too large; refine contour sampling")
    return int(round(np.sum(dphi) / (2 * np.pi)))


def contour_pole_scan(f_vec, re_range, im_range, *, n_re=600, n_im=160,
                      rel_tol=1e-9):
    """Zeros of analytic f in a rectangle: dense 2-D |f| grid scan for
    candidate minima, local grid zooms to rel_tol, count cross-checked
    against the boundary winding number.
    """
    import numpy as np

    re = np.linspace(*re_range, n_re)
    im = np.linspace(*im_range, n_im)
    grid = re[None, :] + 1j * im[:, None]
    mag = np.abs(f_vec(grid.ravel())).reshape(grid.shape)
    inner = mag[1:-1, 1:-1]
    is_min = np.ones_like(inner, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            is_min &= inner <= mag[1 + di:n_im - 1 + di, 1 + dj:n_re - 1 + dj]
    cand = grid[1:-1, 1:-1][is_min]
    dre = re[1] - re[0]
    dim = im[1] - im[0]

    zeros = []
    for z0 in cand:
        half_re, half_im = dre, dim
        z = z0
        scale = abs(z0)
        while max(half_re, half_im) > rel_tol * scale:
            rr = np.linspace(z.real - half_re, z.real + half_re, 21)
            ii = np.linspace(z.imag - half_im, z.imag + half_im, 21)
            local = rr[None, :] + 1j * ii[:, None]
            lm = np.abs(f_vec(local.ravel())).reshape(local.shape)
            k = np.unravel_index(np.argmin(lm), lm.shape)
            z = local[k]
            half_re /= 5.0
            half_im /= 5.0
        # discard shallow grid minima that do not converge toward a zero
        if abs(complex(f_vec(np.array([z]))[0])) > 1e-6 * float(np.median(mag)):
            continue
        if any(abs(z - w) < 1e-6 * abs(w) for w in zeros):
            continue
        zeros.append(complex(z))

    count = winding_number(f_vec, re_range, im_range)
    if count != len(zeros):
        raise RuntimeError(
            f"argument principle counts {count} zeros but grid scan located "
            f"{len(zeros)}; refine the scan")
    return sorted(zeros, key=lambda v: v.real)


# --- mpmath characteristic function, poles and Lambda -----------------------

def lly_wavenumber(l, pol, n, R):
    """First-order WGM position from the asymptotic series of Lam, Leung &
    Young, JOSA B 9, 1585 (1992), through order nu^(-2/3)."""
    nu, c, a = l + 0.5, 2.0 ** (-1 / 3), 2.338107410459767  # a: first zero of Ai(-z)
    p = 1.0 if pol == "TE" else 1.0 / (n * n)
    nx = (nu + c * a * nu ** (1 / 3) - p * n / math.sqrt(n * n - 1)
          + 0.3 * c * c * a * a * nu ** (-1 / 3)
          - c * p * n * (n * n - 2 * p * p / 3) * a * nu ** (-2 / 3) / (n * n - 1) ** 1.5)
    return nx / (n * R)


def _mp_riccati(l, z, hankel):
    """The Riccati-Bessel function z f_l(z) and its derivative
    z f_{l-1}(z) - l f_l(z) at the working precision, f = h_l^(1) if hankel
    else j_l, from mpmath's besselj/bessely of order l + 1/2."""
    nu = l + mp.mpf(1) / 2

    def f(order):
        bessel = mp.besselj(order, z) + (1j * mp.bessely(order, z) if hankel else 0)
        return mp.sqrt(mp.pi / (2 * z)) * bessel

    fl, flm1 = f(nu), f(nu - 1)
    return z * fl, z * flm1 - l * fl


def mp_characteristic(pol, l, n):
    """D(x) = a psi'(n x) xi(x) - b psi(n x) xi'(x) of x = kR at the working
    precision, (a, b) = (n, 1) for TE and (1, n) for TM, psi = y j_l(y) and
    xi = x h_l(x). n is taken as the exact double."""
    n = mp.mpf(n)
    a, b = (n, 1) if pol == "TE" else (1, n)

    def D(x):
        psi, psip = _mp_riccati(l, n * x, hankel=False)
        xi, xip = _mp_riccati(l, x, hankel=True)
        return a * psip * xi - b * psi * xip

    return D


def mp_pole(pol, l, n, R, start, dps):
    """The pole of D nearest start [1/m], by findroot in x = kR at dps digits;
    an mpc wavenumber [1/m]."""
    with mp.workdps(dps):
        x = mp.findroot(mp_characteristic(pol, l, n), mp.mpc(start) * mp.mpf(R),
                        tol=mp.mpf(10) ** -dps, verify=False)
        return x / mp.mpf(R)


def mp_te_lambda(l, n, R, start):
    """Lambda of the TE pole nearest start [1/m] (complex, lower half plane).

    The pole is found by mp_pole at 50 + log10 Q digits, so its width
    kappa_c = -2 Im p keeps ~50 digits at any Q. Lambda is then the
    real-axis closed form at x0 = Re p R, y = n x0:

        Lambda = kappa_c R (n^2 - 1) [y psi'^2 + (y - l(l+1)/y) psi^2 - psi psi']
                 / (n x0 |D(x0)|^2).

    The closed form is the package's (Lommel's integral, which the Simpson
    and trapezoid tests check against quadrature of the profile); the
    numbers are not: no Bessel ladder, and no k0 rounded to a double, so
    |D(x0)| needs no expansion about the pole to be resolved."""
    q = start.real / (-2.0 * start.imag)
    dps = 50 + max(0, math.ceil(math.log10(q)))
    p = mp_pole("TE", l, n, R, start, dps)
    with mp.workdps(dps):
        n_mp, x0 = mp.mpf(n), mp.re(p) * mp.mpf(R)
        kappa_x = -2 * mp.im(p) * mp.mpf(R)
        y = n_mp * x0
        psi, psip = _mp_riccati(l, y, hankel=False)
        bracket = y * psip**2 + (y - l * (l + 1) / y) * psi**2 - psi * psip
        d = mp_characteristic("TE", l, n)(x0)
        return float(kappa_x * (n_mp**2 - 1) * bracket / (n_mp * x0 * abs(d) ** 2))
