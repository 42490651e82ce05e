"""Whispering-gallery resonances of a dielectric sphere.

TE/TM characteristic equations in Riccati-Bessel form, quasinormal-mode pole
search (real-axis seeding + complex Newton), and continuum-normalized radial
mode profiles. Conventions:

* poles sit at k0 - i*kappa_c/2 in the lower half plane; kappa_c is the full
  linewidth (intensity FWHM / energy decay rate in wavenumber), Q = k0/kappa_c;
* radial profiles carry delta-in-k continuum normalization, exterior
  asymptotic form sqrt(2/pi) sin(k r - l pi/2 + delta_l)/r.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .specfun import riccati_psi, riccati_xi, _j_ladder, _as_array

__all__ = [
    "SphereParams",
    "ModeRecord",
    "RadialProfile",
    "te_characteristic",
    "tm_characteristic",
    "find_resonance",
    "radial_profile",
    "default_profile_grid",
    "attach_profile",
    "modes_to_csv",
    "modes_to_json",
]

log = logging.getLogger(__name__)

POLE_TOL = 1e-10          # residual bound, |D| normalized by window-edge |D|
_B_SNAP_ULPS = 100.0      # resonance-peak coefficient snap threshold


@dataclass(frozen=True)
class SphereParams:
    """Sphere geometry and material: radius R [m], refractive index n,
    mass density rho [kg/m^3], moment of inertia I [kg m^2].

    I defaults to the solid-sphere value (2/5) M R^2 = (8/15) pi rho R^5.
    n = 1 is allowed (vacuum limit used by no-scatterer checks).
    """

    R: float
    n: float
    rho: float = 2000.0
    I: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.n >= 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.I is None:
            inertia = (2.0 / 5.0) * ((4.0 / 3.0) * math.pi * self.R**3 * self.rho) * self.R**2
            object.__setattr__(self, "I", inertia)
        if not self.I > 0:
            raise ValueError(f"I must be positive, got {self.I}")


@dataclass(frozen=True)
class RadialProfile:
    """Tabulated continuum-normalized radial mode u(r)."""

    r: np.ndarray
    u: np.ndarray
    k0: float
    l: int
    delta: float              # scattering phase from exterior matching
    interior_amplitude: float # coefficient of j_l(n k0 r) inside


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
    radial_profile: RadialProfile | None = field(default=None, compare=False)

    @property
    def pole(self) -> complex:
        return self.k0 - 0.5j * self.kappa_c

    @property
    def lambda_vac(self) -> float:
        return 2.0 * math.pi / self.k0


def _characteristic(l, k, params: SphereParams, te):
    """(D, dD/dk) of D = a psi'(nkR) xi(kR) - b psi(nkR) xi'(kR), vectorized
    over k; weights (a, b) = (n, 1) for TE and (1, n) for TM.

    psi'' = (l(l+1)/z^2 - 1) psi, and likewise xi, make the slope exact in the
    same four values: R [(a/n - b) l(l+1)/(kR)^2 + b - a n] psi xi
    + R (a - b n) psi' xi', i.e. R (1 - n^2) psi xi for TE.
    """
    n, R = params.n, params.R
    a, b = (n, 1.0) if te else (1.0, n)
    x = np.asarray(k) * R
    psi, psip = riccati_psi(l, np.asarray(k) * (n * R))
    xi, xip = riccati_xi(l, x)
    d = a * psip * xi - b * psi * xip
    slope = R * (((a / n - b) * (l * (l + 1)) / (x * x) + (b - a * n)) * psi * xi
                 + (a - b * n) * psip * xip)
    return d, slope


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


def _newton_poles(Dvec, seeds, k_lo, k_hi, d_scale, pole_tol, max_iter=80):
    """Complex Newton refinement of many seeds at once.

    Dvec maps a complex ndarray of k to (D(k), dD/dk), one evaluation per
    iteration. All seeds iterate together (the special-function ladders
    amortize across the seed vector); runaway iterates are parked on a safe
    placeholder and reported as dead. Returns (poles ndarray, converged mask).
    """
    k = np.asarray(seeds, dtype=complex).copy()
    if k.size == 0:
        return k, np.zeros(0, dtype=bool)
    alive = np.ones(k.size, dtype=bool)
    span = k_hi - k_lo
    for _ in range(max_iter):
        d0, dp = Dvec(k)
        ok = alive & (dp != 0) & np.isfinite(d0) & np.isfinite(dp)
        step = np.zeros_like(k)
        step[ok] = -d0[ok] / dp[ok]
        k = k + step
        runaway = (~np.isfinite(k)) | (k.real < k_lo - 2 * span) \
            | (k.real > k_hi + 2 * span) | (np.abs(k.imag) > 0.5 * (k_hi + span))
        if np.any(runaway & alive):
            alive &= ~runaway
            k[runaway] = k_lo  # safe placeholder, excluded from results
        if not np.any(alive) or np.max(np.abs(step[alive]) / np.abs(k[alive])) < 5e-15:
            break
    converged = alive & (np.abs(Dvec(k)[0]) / d_scale <= pole_tol)
    return k, converged


def find_resonance(polarization, l, k_window, params: SphereParams, *,
                   scan_points=2000, pole_tol=POLE_TOL,
                   max_relative_width=0.5) -> list[ModeRecord]:
    """All quasinormal poles with Re k in the window and kappa_c/k0 below cut.

    Seeds are local minima of |D| on a real-axis scan, refined by complex
    Newton until the edge-normalized residual drops below pole_tol. Returns
    records sorted by k0; empty list when the window holds no pole.
    Non-convergent seeds are logged and skipped.
    """
    if polarization not in _CHARACTERISTIC:
        raise ValueError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    k_lo, k_hi = float(min(k_window)), float(max(k_window))
    if not (k_lo > 0 and k_hi > k_lo):
        raise ValueError(f"window must be positive and non-empty, got {k_window}")
    Dfun = _CHARACTERISTIC[polarization]

    ks = np.linspace(k_lo, k_hi, int(scan_points))
    absd = np.abs(Dfun(l, ks, params)[0])
    d_scale = max(absd[0], absd[-1])
    if d_scale == 0:
        d_scale = float(np.max(absd)) or 1.0

    interior = (absd[1:-1] < absd[:-2]) & (absd[1:-1] < absd[2:])
    seeds = ks[1:-1][interior]

    refined, converged = _newton_poles(lambda k: Dfun(l, k, params), seeds,
                                       k_lo, k_hi, d_scale, pole_tol)
    for seed, ok in zip(seeds, converged):
        if not ok:
            log.debug("%s l=%d: Newton did not converge from seed k=%.6e; skipped",
                      polarization, l, seed)

    poles: list[complex] = []
    for pole in refined[converged]:
        pole = complex(pole)
        if (pole.imag < 0 and k_lo <= pole.real <= k_hi
                and -2.0 * pole.imag / pole.real < max_relative_width
                and not any(abs(pole - p) < 1e-8 * abs(p) for p in poles)):
            poles.append(pole)

    poles.sort(key=lambda p: p.real)
    return [
        ModeRecord(polarization=polarization, l=l, k0=p.real,
                   kappa_c=-2.0 * p.imag, Q=p.real / (-2.0 * p.imag))
        for p in poles
    ]


def _matching_coefficients(l, k0, params: SphereParams, raw_scale=1.0):
    """Real-axis matching of interior j_l(n k0 r) to exterior b j_l + c y_l.

    Returns (b, c, snapped). When k0 sits at a resonance center located to
    machine precision, the true b is orders of magnitude below its own
    floating-point evaluation noise; such b is snapped to exactly 0 (the
    Lorentzian peak). raw_scale multiplies the unnormalized coefficients and
    must cancel downstream (normalization invariance hook).
    """
    n, R = params.n, params.R
    x = k0 * R
    y = n * k0 * R
    (jym1, jy, _), _, _ = _j_ladder(l, _as_array(y)[0])
    (jxm1, jx, _), (_, yx, yxp1), over = _j_ladder(l, _as_array(x)[0])
    if bool(over[0]):
        raise OverflowError("exterior Neumann function out of double range")
    # j_l' = j_{l-1} - (l+1)/z j_l (and likewise for y via the upward ladder)
    jy0 = jy[0].real
    jyp0 = (jym1[0] - (l + 1) / y * jy[0]).real
    jx0 = jx[0].real
    jxp0 = (jxm1[0] - (l + 1) / x * jx[0]).real
    yx0 = yx[0].real
    yxp0 = (l / x * yx[0] - yxp1[0]).real

    t1 = jy0 * yxp0
    t2 = n * jyp0 * yx0
    b = x * x * (t1 - t2) * raw_scale
    b_noise = x * x * (abs(t1) + abs(t2)) * np.finfo(float).eps * abs(raw_scale)
    c = x * x * (n * jyp0 * jx0 - jy0 * jxp0) * raw_scale
    snapped = abs(b) < _B_SNAP_ULPS * b_noise
    if snapped:
        b = 0.0
    return b, c, snapped


def default_profile_grid(mode: ModeRecord, params: SphereParams, *,
                         r_max_factor=3.0, points_per_wavelength=64):
    """Uniform grid over [0, r_max] with a point exactly at R and a
    4m+1-point interior segment (composite-Simpson/Richardson friendly)."""
    R = params.R
    n_wave = params.n * mode.k0 * R / (2.0 * math.pi)
    quarters = max(2, int(math.ceil(points_per_wavelength * max(n_wave, 1.0) / 4.0)))
    n_interior = 4 * quarters + 1
    h = R / (n_interior - 1)
    n_total = int(round(r_max_factor * R / h)) + 1
    return np.arange(n_total) * h


def radial_profile(mode: ModeRecord, params: SphereParams, grid,
                   _raw_scale=1.0) -> RadialProfile:
    """Continuum mode u(k0, r) at the pole's real part, tabulated on grid.

    Interior (r <= R): A j_l(n k0 r); exterior: sqrt(2/pi) k0 (b j_l + c y_l)
    / sqrt(b^2+c^2); A fixed by continuity, i.e. the same normalization. The
    grid must start at <= 0+ and reach past R.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing 1-D array of radii")
    R, n, l, k0 = params.R, params.n, mode.l, mode.k0
    if grid[0] > 1e-9 * R or grid[-1] < R:
        raise ValueError("grid must cover [0, r_max] with r_max >= R")

    b, c, _ = _matching_coefficients(l, k0, params, raw_scale=_raw_scale)
    norm = math.sqrt(2.0 / math.pi) * k0 / math.hypot(b, c)
    delta = math.atan2(-c, b)
    # unnormalized interior coefficient is 1 * _raw_scale; norm carries 1/scale
    amp_in = norm * _raw_scale

    u = np.empty_like(grid)
    inside = grid <= R
    zin = n * k0 * grid[inside]
    u_in = np.zeros_like(zin)
    nz = zin > 0
    if np.any(nz):
        (_, jl, _), _, _ = _j_ladder(l, _as_array(zin[nz])[0])
        u_in[nz] = jl.real
    if l == 0:
        u_in[~nz] = 1.0
    u[inside] = amp_in * u_in

    outside = ~inside
    if np.any(outside):
        (_, jl, _), (_, yl, _), over = _j_ladder(l, _as_array(k0 * grid[outside])[0])
        if np.any(over):
            raise OverflowError("exterior Neumann function out of double range")
        u[outside] = norm * (b * jl.real + c * yl.real)
    return RadialProfile(r=grid, u=u, k0=k0, l=l, delta=delta,
                         interior_amplitude=amp_in)


def attach_profile(mode: ModeRecord, params: SphereParams, **grid_kwargs) -> ModeRecord:
    """Return the mode with a default-grid radial profile tabulated."""
    grid = default_profile_grid(mode, params, **grid_kwargs)
    return replace(mode, radial_profile=radial_profile(mode, params, grid))


_TABLE_FIELDS = ("pol", "l", "k0", "lambda_vac", "kappa_c", "Q")


def _mode_row(m: ModeRecord):
    return {"pol": m.polarization, "l": m.l, "k0": m.k0,
            "lambda_vac": m.lambda_vac, "kappa_c": m.kappa_c, "Q": m.Q}


def modes_to_csv(modes, path):
    """Mode table as CSV with columns pol,l,k0,lambda_vac,kappa_c,Q (SI)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_TABLE_FIELDS)
        writer.writeheader()
        for m in modes:
            writer.writerow({k: (v if isinstance(v, (str, int)) else repr(v))
                             for k, v in _mode_row(m).items()})


def modes_to_json(modes, path):
    with open(path, "w") as fh:
        json.dump([_mode_row(m) for m in modes], fh, indent=2, sort_keys=True)
        fh.write("\n")
