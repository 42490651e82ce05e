"""Whispering-gallery resonances of a dielectric sphere.

TE/TM characteristic equations in Riccati-Bessel form, quasinormal-mode pole
search (a real-axis seed scan at 32 points per radial-order spacing pi/(nR),
then complex Halley-corrected Newton on D, D' and D'' in closed form), and
continuum-normalized TE radial mode profiles. Conventions:

* poles sit at k0 - i*kappa_c/2 in the lower half plane; kappa_c is the full
  linewidth (intensity FWHM / energy decay rate in wavenumber), Q = k0/kappa_c;
* radial profiles carry delta-in-k continuum normalization, exterior
  asymptotic form sqrt(2/pi) sin(k r - l pi/2 + delta_l)/r. They are matched
  through the real-axis TE D(k0) alone (D = n (c - i b) for the exterior
  coefficients b, c), so they and the interior norm integral are TE-only;
  exterior grids past k0 r = 300 raise an AccuracyWarning.

The module returns records and writes no files; the CLI (wgmspin.cli) writes
modes.csv and modes.json.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .specfun import riccati_bessel, spherical_bessel_j, spherical_hankel1

__all__ = [
    "SphereParams",
    "ModeRecord",
    "te_characteristic",
    "tm_characteristic",
    "find_resonance",
    "radial_profile",
    "interior_norm_integral",
    "default_profile_grid",
    "attach_profile",
]

log = logging.getLogger(__name__)

POLE_TOL = 1e-10          # residual bound, |D| normalized by window-edge |D|
MAX_RELATIVE_WIDTH = 0.5  # poles with kappa_c/k0 at or above this are dropped
_NEWTON_MAX_ITER = 80     # iteration cap; the residual test decides convergence
_SCAN_PER_SPACING = 32    # scan points per radial-order spacing pi/(nR) in k


def _check_positive(name, value):
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SphereParams:
    """Sphere geometry and material: radius R [m], refractive index n,
    mass density rho [kg/m^3], moment of inertia I [kg m^2].

    I defaults to the solid-sphere value (2/5) M R^2 = (8/15) pi rho R^5.
    n = 1 is allowed (vacuum limit used by no-scatterer checks). Each value
    must be finite; a bad one raises ValueError naming it.
    """

    R: float
    n: float
    rho: float = 2000.0
    I: float = None  # type: ignore[assignment]

    def __post_init__(self):
        _check_positive("R", self.R)
        if not 1 <= self.n < math.inf:
            raise ValueError(f"n must be >= 1 and finite, got {self.n!r}")
        _check_positive("rho", self.rho)
        if self.I is None:
            inertia = (2.0 / 5.0) * ((4.0 / 3.0) * math.pi * self.R**3 * self.rho) * self.R**2
            object.__setattr__(self, "I", inertia)
        _check_positive("I", self.I)


@dataclass(frozen=True)
class ModeRecord:
    """One whispering-gallery resonance.

    kappa_c > 0 is the full linewidth in wavenumber; the quasinormal pole is
    k0 - i kappa_c/2 and Q = k0/kappa_c exactly.
    """

    polarization: str
    l: int
    k0: float
    kappa_c: float
    Q: float
    radial_profile: np.ndarray | None = field(default=None, compare=False)

    @property
    def pole(self) -> complex:
        return self.k0 - 0.5j * self.kappa_c

    @property
    def lambda_vac(self) -> float:
        return 2.0 * math.pi / self.k0


def _riccati_pair(l, k, params: SphereParams):
    """psi, psi' at nkR and xi, xi' at x = kR, plus x, from one ladder call
    on the stacked arguments [nkR, kR]."""
    z = np.multiply.outer([params.n * params.R, params.R], k)
    psi, psip, xi, xip = riccati_bessel(l, z)
    return psi[0], psip[0], xi[1], xip[1], z[1]


def _characteristic(l, k, params: SphereParams, te):
    """(D, dD/dk, d2D/dk2) of D = a psi'(nkR) xi(kR) - b psi(nkR) xi'(kR),
    vectorized over k; weights (a, b) = (n, 1) for TE and (1, n) for TM.

    psi'' = (L/y^2 - 1) psi and xi'' = (L/x^2 - 1) xi, with L = l(l+1),
    y = nkR and x = kR, make both derivatives exact in the same four values:
    D' = R [A psi xi + C psi' xi'] with A = (a/n - b) L/x^2 + b - a n and
    C = a - b n (R (1 - n^2) psi xi for TE), and
    D'' = R^2 [-2 (a/n - b) L/x^3 psi xi + A (n psi' xi + psi xi')
               + C (n (L/y^2 - 1) psi xi' + (L/x^2 - 1) psi' xi)].
    """
    n, R = params.n, params.R
    a, b = (n, 1.0) if te else (1.0, n)
    psi, psip, xi, xip, x = _riccati_pair(l, k, params)
    lx = l * (l + 1) / (x * x)
    w = a / n - b
    big_a = w * lx + (b - a * n)
    c = a - b * n
    d = a * psip * xi - b * psi * xip
    slope = R * (big_a * psi * xi + c * psip * xip)
    curv = R * R * (-2.0 * w * lx / x * psi * xi
                    + big_a * (n * psip * xi + psi * xip)
                    + c * (n * (lx / (n * n) - 1.0) * psi * xip + (lx - 1.0) * psip * xi))
    return d, slope, curv


def te_characteristic(l, k, params: SphereParams):
    """TE residual D(k) = n psi'(nkR) xi(kR) - psi(nkR) xi'(kR).

    Zeros in the lower half k-plane are TE quasinormal modes (continuity of
    the tangential field and its radial derivative across r = R). Vectorized
    over k.
    """
    return _characteristic(l, k, params, te=True)[0]


def tm_characteristic(l, k, params: SphereParams):
    """TM residual D(k) = psi'(nkR) xi(kR) - n psi(nkR) xi'(kR).

    The 1/epsilon factor in the derivative matching across the permittivity
    step moves n onto the other term relative to TE.
    """
    return _characteristic(l, k, params, te=False)[0]


_CHARACTERISTIC = {"TE": partial(_characteristic, te=True),
                   "TM": partial(_characteristic, te=False)}


def _newton_poles(Dvec, seeds, first, k_lo, k_hi, d_scale):
    """Complex Newton refinement of many seeds at once, with Halley's
    third-order correction.

    Dvec maps a complex ndarray of k to (D, dD/dk, d2D/dk2), one evaluation
    per iteration after the first, which steps from first = (D, D', D'')
    already known at the seeds. Each step is the Newton step s = -D/D',
    divided by 1 + h with h = -D D''/(2 D'^2) = s D''/(2 D') where h is
    finite and |h| <= 1/2 (Halley's step); elsewhere, as far from a root,
    it stays the Newton step. All seeds iterate together (the
    special-function ladders amortize across the seed vector); a zero or
    non-finite slope leaves its seed in place, and runaway iterates are
    parked on a safe placeholder before D is evaluated there and reported as
    dead. Returns (poles ndarray, converged mask): each pole is its last
    iterate plus that iterate's step, and a seed has converged when that step
    was below 5e-15 |k| and the |D| evaluated at the iterate, normalized by
    d_scale, is at most POLE_TOL. So the residual costs no evaluation of its
    own, and Newton evaluates nothing when every first step is parked.
    """
    k = np.asarray(seeds, dtype=complex).copy()
    if k.size == 0:
        return k, np.zeros(0, dtype=bool)
    alive = np.ones(k.size, dtype=bool)
    span = k_hi - k_lo
    for i in range(_NEWTON_MAX_ITER):
        d0, dp, dpp = Dvec(k) if i else first
        ok = alive & (dp != 0) & np.isfinite(d0) & np.isfinite(dp)
        step = np.zeros_like(k)
        step[ok] = -d0[ok] / dp[ok]
        with np.errstate(all="ignore"):
            h = 0.5 * step * dpp / dp
        halley = ok & np.isfinite(h) & (np.abs(h) <= 0.5)
        step[halley] /= 1.0 + h[halley]
        k = k + step
        runaway = (~np.isfinite(k)) | (k.real < k_lo - 2 * span) \
            | (k.real > k_hi + 2 * span) | (np.abs(k.imag) > 0.5 * (k_hi + span))
        if np.any(runaway & alive):
            alive &= ~runaway
            k[runaway] = k_lo  # safe placeholder, excluded from results
        settled = np.abs(step) / np.abs(k) < 5e-15
        if np.all(settled[alive]):
            break
    converged = alive & settled & (np.abs(d0) / d_scale <= POLE_TOL)
    return k, converged


def find_resonance(polarization, l, k_window, params: SphereParams, *,
                   scan_points=2000) -> list[ModeRecord]:
    """All poles with Re k in the window and kappa_c/k0 < MAX_RELATIVE_WIDTH.

    Seeds are the local minima of |D| on a real-axis scan. The scan takes
    _SCAN_PER_SPACING = 32 points per radial-order spacing pi/(nR), D's
    finest real-axis period (n >= 1), and at least 16; scan_points, an
    integer >= 3, caps that count (3 still leaves an interior point to seed
    from). So above the derived count the poles do not depend on
    scan_points: the reference window (736-751 nm) takes 28 points.
    Complex Newton with Halley's correction refines the seeds until its step
    falls below 5e-15 |k|, and keeps a pole when the edge-normalized |D| of
    its last iteration is at most POLE_TOL; its first step uses the D, D'
    and D'' the scan computes. The reference solve takes three ladder runs:
    the scan and two Newton iterations. Returns records sorted by k0; empty
    list when the window holds no pole. Non-convergent seeds are logged and
    skipped.
    """
    if polarization not in _CHARACTERISTIC:
        raise ValueError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    k_lo, k_hi = float(min(k_window)), float(max(k_window))
    if not (k_lo > 0 and k_hi > k_lo and math.isfinite(k_hi)):
        raise ValueError(f"window must be positive, finite and non-empty, got {k_window}")
    if not (isinstance(scan_points, numbers.Integral) and scan_points >= 3):
        raise ValueError(f"scan_points must be an integer >= 3, got {scan_points!r}")
    Dfun = _CHARACTERISTIC[polarization]

    spacings = (k_hi - k_lo) * params.n * params.R / math.pi
    points = min(scan_points, max(16, math.ceil(_SCAN_PER_SPACING * spacings) + 1))
    ks = np.linspace(k_lo, k_hi, points)
    d, slope, curv = Dfun(l, ks, params)
    absd = np.abs(d)
    d_scale = max(absd[0], absd[-1])
    if d_scale == 0:
        d_scale = float(np.max(absd)) or 1.0

    minima = np.flatnonzero((absd[1:-1] < absd[:-2]) & (absd[1:-1] < absd[2:])) + 1
    seeds = ks[minima]

    refined, converged = _newton_poles(lambda k: Dfun(l, k, params), seeds,
                                       (d[minima], slope[minima], curv[minima]),
                                       k_lo, k_hi, d_scale)
    for seed, ok in zip(seeds, converged):
        if not ok:
            log.debug("%s l=%d: Newton did not converge from seed k=%.6e; skipped",
                      polarization, l, seed)

    poles: list[complex] = []
    for pole in refined[converged]:
        pole = complex(pole)
        if (pole.imag < 0 and k_lo <= pole.real <= k_hi
                and -2.0 * pole.imag / pole.real < MAX_RELATIVE_WIDTH
                and not any(abs(pole - p) < 1e-8 * abs(p) for p in poles)):
            poles.append(pole)

    poles.sort(key=lambda p: p.real)
    return [
        ModeRecord(polarization=polarization, l=l, k0=p.real,
                   kappa_c=-2.0 * p.imag, Q=p.real / (-2.0 * p.imag))
        for p in poles
    ]


def _te_matching(mode: ModeRecord, params: SphereParams):
    """Real-axis TE D(k0), with psi(y) and psi'(y) at y = n k0 R, from the
    stacked ladder call of the characteristic function.

    For real k, xi = psi + i x y_l splits D into n (c - i b), with b, c the
    exterior coefficients (b j_l + c y_l outside) of the continuum mode that
    is j_l(n k r) inside: D holds the whole matching. When k0 sits at a
    resonance center located to machine precision, the true b is orders of
    magnitude below its own rounding noise; Im D = -n b is then snapped to
    exactly 0 (the Lorentzian peak). That noise has two sources: k0 is a
    double within a few ulps of the center, which leaves Im D at a few
    |Im D'(k0)| ulp(k0), with the TE slope D' = R (1 - n^2) psi xi from the
    same ladder call; and the terms t1 = n psi' xi and t2 = psi xi' carry
    eps (|Im t1| + |Im t2|). Im D is snapped when it is at most 8 of the
    first plus 4 of the second. On 173
    TE poles at R = 10 um (n^2 = 1.44, 2.31, 4; l = 10-500) the rounding
    leaves up to 1.8 |Im D'| ulp(k0) at Q > 1e13, while at Q <= 2e6 Im D
    is at least 1.9e4 of them. Profiles and Lambda are defined for TE only.
    """
    if mode.polarization != "TE":
        raise ValueError("continuum matching is defined for TE modes only, "
                         f"got {mode.polarization!r}")
    psi, psip, xi, xip, _ = _riccati_pair(mode.l, mode.k0, params)
    t1, t2 = params.n * psip * xi, psi * xip
    d = complex(t1 - t2)
    slope = params.R * (1.0 - params.n**2) * psi * xi
    if abs(d.imag) <= (8.0 * abs(slope.imag) * np.spacing(mode.k0)
                       + 4.0 * np.finfo(float).eps * (abs(t1.imag) + abs(t2.imag))):
        d = complex(d.real, 0.0)
    return d, float(psi), float(psip)


def interior_norm_integral(mode: ModeRecord, params: SphereParams) -> float:
    """integral_0^R r^2 u(k0, r)^2 dr of the continuum-normalized TE mode, in
    closed form.

    Inside the sphere u = A j_l(n k0 r) with A = sqrt(2/pi) k0 n / |D(k0)|.
    Lommel's integral in Riccati form, int_0^y psi^2 = [y psi'^2 +
    (y - l(l+1)/y) psi^2 - psi psi'] / 2 at y = n k0 R, turns it into that
    bracket over pi n k0 |D|^2: no grid, only the ladder call of D.
    """
    d, psi, psip = _te_matching(mode, params)
    l, y = mode.l, params.n * params.R * mode.k0
    bracket = y * psip * psip + (y - l * (l + 1) / y) * psi * psi - psi * psip
    return bracket / (math.pi * params.n * mode.k0 * abs(d) ** 2)


def default_profile_grid(mode: ModeRecord, params: SphereParams):
    """Uniform grid over the sphere interior [0, R], 64 points per internal
    wavelength 2 pi/(n k0)."""
    n_wave = params.n * mode.k0 * params.R / (2.0 * math.pi)
    return np.linspace(0.0, params.R, int(math.ceil(64 * max(n_wave, 1.0))) + 1)


def radial_profile(mode: ModeRecord, params: SphereParams, grid) -> np.ndarray:
    """Continuum TE mode u(k0, r) at the pole's real part, at each radius of
    grid.

    With D = D(k0) on the real axis: interior (r <= R) A j_l(n k0 r),
    A = sqrt(2/pi) k0 n / |D|; exterior sqrt(2/pi) k0 Im[conj(D) h_l(k0 r)]
    / |D|, the same matching, so u is continuous at R. The grid must start
    at <= 0+ and reach past R; exterior points past k0 r = 300 leave the
    tight Bessel envelope and raise an AccuracyWarning.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-D array of radii")
    R, n, l, k0 = params.R, params.n, mode.l, mode.k0
    if grid[0] > 1e-9 * R or grid[-1] < R:
        raise ValueError("grid must cover [0, r_max] with r_max >= R")

    d, _, _ = _te_matching(mode, params)
    scale = math.sqrt(2.0 / math.pi) * k0 / abs(d)
    u = np.empty_like(grid)
    inside = grid <= R
    u[inside] = n * scale * spherical_bessel_j(l, n * k0 * grid[inside])
    outside = ~inside
    if np.any(outside):
        u[outside] = scale * (d.conjugate() * spherical_hankel1(l, k0 * grid[outside])).imag
    return u


def attach_profile(mode: ModeRecord, params: SphereParams) -> ModeRecord:
    """Return the mode with u of its radial profile on the default grid."""
    grid = default_profile_grid(mode, params)
    return replace(mode, radial_profile=radial_profile(mode, params, grid))
