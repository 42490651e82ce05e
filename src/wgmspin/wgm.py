"""Whispering-gallery resonances of a dielectric sphere.

TE/TM characteristic equations in Riccati-Bessel form, quasinormal-mode pole
search (a real-axis seed scan at 32 points per radial-order spacing pi/(nR),
run on 4 points past each window edge, then complex Halley-corrected Newton
on D, D', D'' and D''' in closed form from the scan's values on, every step
refined on the cubic Taylor model, whose every evaluation also
samples D on a ring about each uncertified iterate to certify its step by
Cauchy's bound with a q^4 remainder and Rouche's theorem: two ladder runs
for the TE and the TM reference pole), and continuum-normalized TE radial
mode profiles. Conventions:

* poles sit at k0 - i*kappa_c/2 in the lower half plane; kappa_c is the full
  linewidth (intensity FWHM / energy decay rate in wavenumber), Q = k0/kappa_c;
* radial profiles carry delta-in-k continuum normalization, exterior
  asymptotic form sqrt(2/pi) sin(k r - l pi/2 + delta_l)/r. They are matched
  through the real-axis TE D(k0) alone (D = n (c - i b) for the exterior
  coefficients b, c), so they and the interior norm integral are TE-only;
  exterior grids past k0 r = 800 raise an AccuracyWarning;
* a TE pole carries the Riccati values of Newton's last ladder call at its
  last iterate. _te_matching alone forms D(k0), as D(k0) - D(p) from the
  Taylor series about that iterate, so Lambda, the norm integral and the
  profile of a high-Q pole from find_resonance run no matching ladder and
  do not hang on the rounding of D near k0.

The module returns records and writes no files; the CLI (wgmspin.cli) writes
modes.csv and modes.json.
"""

from __future__ import annotations

import cmath
import logging
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .specfun import (TIGHT_ARG, AccuracyWarning, riccati_bessel, spherical_bessel_j,
                      spherical_hankel1)

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
_EDGE_STEPS = 4           # scan points past each window edge, at the scan's step
_RING_POINTS = 8          # D samples on the certificate's ring about each iterate
_RING = np.exp(2j * np.pi * np.arange(_RING_POINTS) / _RING_POINTS).tolist()
_RING_SPACINGS = 0.3      # the ring's radius in spacings pi/(nR), before its caps
_CERT_MARGIN = 10.0       # safety factor on each bound of the certificate
_SHIFT_TERMS = 6          # Taylor terms of _ode_shift's move of psi, psi' to k0
_SHIFT_MAX = 1e-3         # largest nR |k - k0| and nR |k - p| of a TE matching's series


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
            inertia = _solid_sphere_inertia(self.R, self.rho)
            if not math.isfinite(inertia):
                raise ValueError(f"R = {self.R!r} overflows the default I = (8/15) pi rho R^5 "
                                 f"at rho = {self.rho!r}; give I")
            object.__setattr__(self, "I", inertia)
        _check_positive("I", self.I)


def _solid_sphere_inertia(R, rho):
    """(2/5) M R^2 = (8/15) pi rho R^5 of a solid sphere, inf where it
    overflows."""
    try:
        return (2.0 / 5.0) * ((4.0 / 3.0) * math.pi * R**3 * rho) * R**2
    except OverflowError:
        return math.inf


class _TEMatching(NamedTuple):
    """A TE pole's Riccati values from Newton's last ladder call: psi, psi'
    at y = nkR and xi, xi' at x = kR of the pole's last iterate k, with the
    (l, pole, n, R) they belong to."""

    at: tuple
    k: complex
    psi: complex
    psip: complex
    xi: complex
    xip: complex


@dataclass(frozen=True)
class ModeRecord:
    """One whispering-gallery resonance.

    kappa_c > 0 is the full linewidth in wavenumber; the quasinormal pole is
    k0 - i kappa_c/2 and Q = k0/kappa_c exactly. te_matching holds the
    Riccati values at the last iterate of a TE pole's Newton run (None for
    TM, or where Newton evaluated nothing), from which _te_matching forms
    the real-axis matching; it takes no part in equality, repr or any
    artifact.
    """

    polarization: str
    l: int
    k0: float
    kappa_c: float
    Q: float
    radial_profile: np.ndarray | None = field(default=None, compare=False)
    te_matching: _TEMatching | None = field(default=None, compare=False, repr=False)

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


def _d_from_riccati(l, psi, psip, xi, xip, x, params: SphereParams, te):
    """(D, dD/dk, d2D/dk2, d3D/dk3) of the TE D = n psi'(nkR) xi(kR) -
    psi(nkR) xi'(kR) or the TM D = psi'(nkR) xi(kR) - n psi(nkR) xi'(kR),
    from the four Riccati values (psi, psi' at y = nkR; xi, xi' at x = kR)
    and x.

    psi'' = (L/y^2 - 1) psi and xi'' = (L/x^2 - 1) xi, with L = l(l+1) and
    u = L/x^2 = n^2 L/y^2, make every derivative exact in the same four
    values. TE:
        D'   = R (1 - n^2) psi xi,
        D''  = R^2 (1 - n^2) (n psi' xi + psi xi'),
        D''' = R^3 (1 - n^2) [(2u - 1 - n^2) psi xi + 2n psi' xi'].
    TM, with w = 1/n - n:
        D'   = R w [u psi xi + n psi' xi'],
        D''  = R^2 w [u (n psi' xi + psi xi') + (u - n^2) psi xi'
                      + n (u - 1) psi' xi - 2 (u/x) psi xi],
        D''' = R^3 w [(6u/x^2 + u (2u - 1 - n^2) + 2 (u - n^2)(u - 1)) psi xi
                      - 6 (u/x) (n psi' xi + psi xi') + n (4u - 1 - n^2) psi' xi'].
    Each term is a coefficient times one psi-type and one xi-type value, so
    on the real axis Re and Im of D keep their own rounding.
    """
    n, R = params.n, params.R
    u = l * (l + 1) / (x * x)
    p0, p3 = psi * xi, psip * xip
    if te:
        e = 1.0 - n * n
        np1, p2 = n * psip * xi, psi * xip
        return (np1 - p2, R * e * p0, R * R * e * (np1 + p2),
                R**3 * e * ((2.0 * u - (1.0 + n * n)) * p0 + 2.0 * n * p3))
    w = 1.0 / n - n
    v = u / x
    p1, p2 = psip * xi, psi * xip
    q = n * p1 + p2
    f, g = u - n * n, u - 1.0
    return (p1 - n * psi * xip,
            R * w * (u * p0 + n * p3),
            R * R * w * (u * q + f * p2 + n * g * p1 - 2.0 * v * p0),
            R**3 * w * ((6.0 * v / x + u * (2.0 * u - (1.0 + n * n)) + 2.0 * f * g) * p0
                        - 6.0 * v * q + n * (4.0 * u - (1.0 + n * n)) * p3))


def _characteristic(l, k, params: SphereParams, te):
    """(D, dD/dk, d2D/dk2, d3D/dk3) at each k (vectorized), from one ladder
    call (_riccati_pair) and _d_from_riccati."""
    return _d_from_riccati(l, *_riccati_pair(l, k, params), params, te)


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


def _certify(d0, dp, dpp, d3, k, rho, m, d_scale):
    """(steps, mask) of one Newton evaluation, one entry per seed in seed
    order, from D, D', D'' and D''' at each seed's iterate k, the ring
    radius rho (0: no ring, no certificate) and m, twice the largest |D|
    sampled on the ring.

    The step is Newton's -D/D' divided by 1 + h, h = -D D''/(2 D'^2), where
    h is finite and |h| <= 1/2 (Halley's step), then refined by two Newton
    steps on the cubic model P(w) = D + D' w + c2 w^2 + c3 w^3, c2 = D''/2,
    c3 = D'''/6, about k; elsewhere, as far from a root, it stays the plain
    Newton step; it is 0 where D' is 0 or D or D' is not finite. The mask
    says whether _newton_poles' certificate accepts k + step: only a refined
    step can be certified, and a seed whose refinement or bounds divide by
    zero or overflow is not."""
    steps, mask = [], []
    for a, b, c, t, z, r, mm in zip(d0, dp, dpp, d3, k, rho, m):
        s, h, ok = 0j, math.inf, False   # h = inf: no Halley step
        if b and cmath.isfinite(a) and cmath.isfinite(b):
            s = -a / b
            h = 0.5 * s * c / b
        if math.hypot(h.real, h.imag) <= 0.5:   # Halley's step; False for a non-finite h
            s /= 1.0 + h
            c2, c3 = 0.5 * c, t / 6.0
            c2x2, c3x3 = 2.0 * c2, 3.0 * c3
            try:
                for _ in range(2):
                    s -= (a + s * (b + s * (c2 + s * c3))) / (b + s * (c2x2 + s * c3x3))
                if r > 0:
                    p, pp = abs(a + s * (b + s * (c2 + s * c3))), abs(b + s * (c2x2 + s * c3x3))
                    p2, p3 = abs(c2 + s * c3x3), abs(c3)   # |P''(s)/2|, |c3|
                    delta = 5e-16 * abs(z + s)
                    q_s = abs(s) / r
                    q = q_s + delta / r
                    half_m = 0.5 * mm
                    ok = (abs(b) * r <= half_m and abs(c2) * r**2 <= half_m
                          and p3 * r**3 <= half_m and q < 1
                          and pp * delta > _CERT_MARGIN * (p + (p2 + p3 * delta) * delta * delta
                                                           + mm * q**4 / (1.0 - q))
                          and _CERT_MARGIN * (p + mm * q_s**4 / (1.0 - q_s)) <= POLE_TOL * d_scale)
            except (ZeroDivisionError, OverflowError):   # P'(s) = 0, or |.| past the float range
                pass
        steps.append(s)
        mask.append(ok)
    return steps, mask


def _newton_poles(Dvec, seeds, first, k_lo, k_hi, d_scale, ring_radius):
    """Complex Newton refinement of many seeds at once, with Halley's
    third-order correction, certified at every evaluation where it can be.

    Dvec maps a complex ndarray of k to (D, dD/dk, d2D/dk2, d3D/dk3), one
    evaluation per iteration after the first, which steps from
    first = (D, D', D'', D''') already known at the seeds. Each evaluation
    is one vectorized Dvec call on every seed's iterate in seed order (dead
    and certified ones included), then the ring points below, so the
    special-function ladders amortize across the seeds. The rest is
    per-seed bookkeeping on Python complex and float scalars, taken once
    per evaluation with .tolist(): on a window's one to a few seeds, numpy
    calls on such short arrays cost more than their arithmetic. Every step
    is _certify's: Halley's step refined on the cubic Taylor model
        P(w) = D + D' w + c2 w^2 + c3 w^3,  c2 = D''/2, c3 = D'''/6,
    about the iterate k, or, far from a root, the plain Newton step. A zero
    or non-finite slope leaves its seed in place, and runaway iterates are
    parked on a safe placeholder before D is evaluated there and reported
    as dead. Returns (poles ndarray, converged mask): each pole is its last
    iterate plus that iterate's step. A seed has converged when the
    certificate below accepts that step or, by the settled rule, when the
    step was below 5e-15 |k| and |D|/d_scale at the iterate is at most
    POLE_TOL, which costs no evaluation (none at all if every first step is
    parked).

    Certificate. ring_radius maps the list of iterates to a list of radii
    rho. Every evaluation also takes D at N = _RING_POINTS points
    k + rho e^{2 pi i j/N} about each iterate k that is alive, not yet
    certified and has rho > 0, in the same Dvec call, and a seed whose
    refined step s it certifies stops there, converged, at k + s. Other
    seeds get no ring points, rho = 0 and M = 0, and no certificate. Let M
    be twice the largest |D| sampled on the ring. If D is analytic on the
    closed disk |w| <= rho about k and |D| <= M on its edge, Cauchy bounds
    the Taylor coefficients,
    |D^(j)(k)/j!| <= M/rho^j, so past the known c3 the Taylor remainder at
    |w| = q rho is at most M q^4/(1 - q). Expanded about s,
    D(k + w) = P'(s) (w - s) + [P(s) + (P''(s)/2) (w - s)^2 + c3 (w - s)^3
    + remainder]. So where, on the circle |w - s| = delta,
        |P'(s)| delta > 10 (|P(s)| + |P''(s)/2| delta^2 + |c3| delta^3
                            + M q^4/(1 - q)),
    q = (|s| + delta)/rho < 1, Rouche's theorem puts exactly one root of D
    within delta of k + s. The certificate takes delta = 5e-16 |k + s|, a
    tenth of the settled rule's step bound, and asks too that the bound on
    the residual there, 10 (|P(s)| + M q_s^4/(1 - q_s)) with q_s = |s|/rho,
    be at most POLE_TOL d_scale. The margins are the 10 on every bound and
    the 2 on M, since N = 8 samples stand for the maximum over the circle.
    The samples are refused where they contradict Cauchy at the orders known
    exactly, |D'| rho, |c2| rho^2 or |c3| rho^3 > M/2: too few to resolve D
    on the ring. A second root inside the ring shrinks |D'| against M/rho,
    so the bound then needs a much shorter step. D is analytic away from
    k = 0; keeping the ring off it, and inside the ladders' tight envelope,
    is the caller's choice of radius. The argument bounds D as the ladders
    evaluate it; their rounding lies outside it (|P(s)| as evaluated holds
    the rounding of D + D' s, ~1e-16 |D|), as it lies outside the settled
    rule. A refused seed steps and meets the certificate again at its next
    evaluation; the settled rule closes those with rho = 0 (off the strip,
    past 0.99 TIGHT_ARG or near k = 0) and any refused to the end.
    """
    k = np.asarray(seeds, dtype=complex).tolist()
    size = len(k)
    alive, certified, settled = [True] * size, [False] * size, [False] * size
    span = k_hi - k_lo
    lo, hi, im_max = k_lo - 2 * span, k_hi + 2 * span, 0.5 * (k_hi + span)
    d0, dp, dpp, d3 = (np.asarray(f).tolist() for f in first)
    rho = m = [0.0] * size   # the seeds' values come without a ring
    for i in range(_NEWTON_MAX_ITER):
        if i:
            rho = [r if a and not c else 0.0
                   for r, a, c in zip(ring_radius(k), alive, certified)]
            ring = [z + r * w for z, r in zip(k, rho) if r > 0 for w in _RING]
            values = [f.tolist() for f in Dvec(np.array(k + ring))]
            rings = zip(*[iter(values[0][size:])] * _RING_POINTS)   # D on each ring, in turn
            m = [2.0 * max(map(abs, next(rings))) if r > 0 else 0.0 for r in rho]
            d0, dp, dpp, d3 = (f[:size] for f in values)
        steps, accepted = _certify(d0, dp, dpp, d3, k, rho, m, d_scale)
        done = True
        for j, s in enumerate(steps):
            if not alive[j] or certified[j]:
                continue
            z = k[j] + s
            if not (lo <= z.real <= hi and abs(z.imag) <= im_max):
                k[j], alive[j] = k_lo, False   # runaway: a safe placeholder, excluded from results
                continue
            k[j], settled[j], certified[j] = z, abs(s) < 5e-15 * abs(z), accepted[j]
            done = done and (settled[j] or certified[j])
        if done:
            break
    converged = [a and (c or (st and abs(d) / d_scale <= POLE_TOL))
                 for a, c, st, d in zip(alive, certified, settled, d0)]
    return np.array(k, dtype=complex), np.array(converged, dtype=bool)


def _ring_radius(params: SphereParams, k):
    """The certificate's ring radius about each iterate of the list k, as a
    list of floats (on one to three iterates, Python scalars cost less than
    numpy calls): _RING_SPACINGS radial-order spacings pi/(nR), less where
    the ring would leave the ladders' tight envelope (every ring point's
    z = nkR at |Im z| <= 0.99 and |z| <= 0.99 TIGHT_ARG; first-order
    whispering-gallery poles, at nkR ~ l + 2.34 (l/2)^(1/3) <= 515 up to
    l = 500, keep a full ring) or come within |k|/2 of k = 0, where D is
    singular; 0, and so no certificate, where no room is left."""
    nr = params.n * params.R
    return [max(min(0.99 - nr * abs(z.imag), 0.99 * TIGHT_ARG - nr * abs(z),
                    0.5 * nr * abs(z), _RING_SPACINGS * math.pi), 0.0) / nr for z in k]


def find_resonance(polarization, l, k_window, params: SphereParams, *,
                   scan_points=2000) -> list[ModeRecord]:
    """All poles with Re k in the window and kappa_c/k0 < MAX_RELATIVE_WIDTH.

    Seeds are the local minima of |D| on a real-axis scan. The scan takes
    _SCAN_PER_SPACING = 32 points per radial-order spacing pi/(nR), D's
    finest real-axis period (n >= 1), and at least 16; scan_points, an
    integer >= 3, caps that count (3 still leaves an interior point to seed
    from). So above the derived count the poles do not depend on
    scan_points. Past that count, the scan runs on at the same step for
    _EDGE_STEPS = 4 points beyond each edge (below k_lo only as far as
    k_lo/2, since D is singular at k = 0), so a pole near an edge has a
    seed: a scan takes at most scan_points + 8 points, and the reference
    window (736-751 nm) 36. |D| at the window's own edge points sets
    d_scale, and a pole is kept only where k_lo <= Re k <= k_hi. The window
    is closed: a pole exactly on an edge that two windows share is reported
    by both.

    Complex Newton refines the seeds from the scan's D, D', D'' and D'''
    (_newton_poles): every step is Halley's, refined by two Newton steps on
    the cubic Taylor model (_certify). Each evaluation also samples D on a
    ring of _RING_SPACINGS radial-order spacings about each uncertified
    iterate (_ring_radius), and a seed stops when a Cauchy/Rouche bound,
    with the remainder past the cubic model at q^4, certifies the iterate
    plus its refined step to within 5e-16 |k| of a root. Seeds without ring
    room iterate until the step falls below 5e-15 |k|, and keep a pole when
    the edge-normalized |D| of their last iteration is at most POLE_TOL.
    The TE and the TM reference solve each take two ladder runs: the scan
    and one certified Newton iteration. Returns records sorted by k0; empty
    list when the window holds no pole. Non-convergent seeds are logged and
    skipped.

    Newton's evaluation is the same for both polarizations: one vectorized
    ladder run on the iterates (and the ring), nothing appended; each seed's
    step, certificate and stopping rules run on Python scalars around it.
    A TE pole is its last iterate k plus a step s, and its record keeps psi,
    psi', xi and xi' of the last call at k (te_matching), from which
    compute_lambda, interior_norm_integral and radial_profile form the
    matching without a ladder run. A TM record, or a TE one whose Newton
    evaluated nothing, carries None.

    A pole whose Q = k0/kappa_c overflows, or whose kappa_c is subnormal
    (below sys.float_info.min, so with few significant digits), is returned
    as it is, with one AccuracyWarning naming its polarization, l, k0 and
    kappa_c (TM l = 494 at n = 2.895 has such poles, kappa_c down to
    1.8e-322).
    """
    if polarization not in _CHARACTERISTIC:
        raise ValueError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    k_lo, k_hi = float(min(k_window)), float(max(k_window))
    if not (k_lo > 0 and k_hi > k_lo and math.isfinite(k_hi)):
        raise ValueError(f"window must be positive, finite and non-empty, got {k_window}")
    if not (isinstance(scan_points, numbers.Integral) and scan_points >= 3):
        raise ValueError(f"scan_points must be an integer >= 3, got {scan_points!r}")
    te = polarization == "TE"

    spacings = (k_hi - k_lo) * params.n * params.R / math.pi
    points = min(scan_points, max(16, math.ceil(_SCAN_PER_SPACING * spacings) + 1))
    step = (k_hi - k_lo) / (points - 1)
    below = min(_EDGE_STEPS, int(0.5 * k_lo / step))   # padding stays at k >= k_lo/2
    ks = np.linspace(k_lo - below * step, k_hi + _EDGE_STEPS * step,
                     below + points + _EDGE_STEPS)
    scan = _CHARACTERISTIC[polarization](l, ks, params)
    absd = np.abs(scan[0])
    d_scale = max(absd[below], absd[below + points - 1]) or float(np.max(absd)) or 1.0

    minima = np.flatnonzero((absd[1:-1] < absd[:-2]) & (absd[1:-1] < absd[2:])) + 1
    seeds = ks[minima]

    last = []   # the last Newton call's iterates, and psi, psi', xi, xi' there

    def newton_d(k):
        # the iterates lead every Newton call, so the last call leaves each
        # pole's Riccati values one step away
        values = _riccati_pair(l, k, params)
        last[:] = [k[:seeds.size], *(f[:seeds.size] for f in values[:4])]
        return _d_from_riccati(l, *values, params, te)

    refined, converged = _newton_poles(newton_d, seeds, [f[minima] for f in scan],
                                       k_lo, k_hi, d_scale, partial(_ring_radius, params))
    for seed, ok in zip(seeds, converged):
        if not ok:
            log.debug("%s l=%d: Newton did not converge from seed k=%.6e; skipped",
                      polarization, l, seed)

    poles: list[tuple[complex, int]] = []   # (pole, its seed's index)
    for i in np.flatnonzero(converged):
        pole = complex(refined[i])
        if (pole.imag < 0 and k_lo <= pole.real <= k_hi
                and -2.0 * pole.imag / pole.real < MAX_RELATIVE_WIDTH
                and not any(abs(pole - p) < 1e-8 * abs(p) for p, _ in poles)):
            poles.append((pole, i))

    poles.sort(key=lambda pole: pole[0].real)
    modes = [
        ModeRecord(polarization=polarization, l=l, k0=p.real,
                   kappa_c=-2.0 * p.imag, Q=p.real / (-2.0 * p.imag),
                   te_matching=(_TEMatching((l, p, params.n, params.R), *(f[i] for f in last))
                                if te and last else None))
        for p, i in poles
    ]
    for mode in modes:
        if not (math.isfinite(mode.Q) and mode.kappa_c >= sys.float_info.min):
            warnings.warn(f"{polarization} l={l} pole at k0={mode.k0!r} 1/m: kappa_c="
                          f"{mode.kappa_c!r} 1/m, Q={mode.Q!r}; Q overflows or kappa_c is "
                          "subnormal in double precision", AccuracyWarning, stacklevel=2)
    return modes


def _ode_shift(f, fp, z, h, l):
    """f and f' at z + h from f and f' at z, for a solution of the
    Riccati-Bessel ODE f'' = (L/z^2 - 1) f, L = l(l+1): _SHIFT_TERMS terms
    of the Taylor series of each. Its coefficients a_m = f^(m)(z)/m! follow
    from the ODE, (m + 2)(m + 1) a_{m+2} = sum_j q_j a_{m-j}, with
    q_j = (j + 1) L/z^2 (-1/z)^j - [j = 0] the Taylor coefficients of
    L/(z + w)^2 - 1. z and the step h may be complex. a_m grows like
    |q_0|^{m/2}/m!, so at |h| <= _SHIFT_MAX and |q_0| <= 15 the first dropped
    term is below 1e-17 of f. _te_matching shifts only psi, at y = nkR near
    a pole, where |q_0| = |L/y^2 - 1| is small.
    """
    c = l * (l + 1) / (z * z)
    q = [(j + 1) * c * (-1.0 / z) ** j for j in range(_SHIFT_TERMS - 1)]
    q[0] -= 1.0
    a = [f, fp]
    for m in range(_SHIFT_TERMS - 1):
        a.append(sum(q[j] * a[m - j] for j in range(m + 1)) / ((m + 2) * (m + 1)))
    return (sum(a[m] * h**m for m in range(_SHIFT_TERMS)),
            sum((m + 1) * a[m + 1] * h**m for m in range(_SHIFT_TERMS)))


def _te_matching(mode: ModeRecord, params: SphereParams):
    """Real-axis TE D(k0), with psi(y) and psi'(y) at y = n k0 R.

    For real k, xi = psi + i x y_l splits D into n (c - i b), with b, c the
    exterior coefficients (b j_l + c y_l outside) of the continuum mode that
    is j_l(n k r) inside: D holds the whole matching. It is formed here
    alone, from psi, psi' at y = nkR and xi, xi' at x = kR of one point k:
    Newton's last values (ModeRecord.te_matching) while their (l, pole, n, R)
    are the mode's and params' and nR |k0 - k| <= _SHIFT_MAX, else one
    stacked ladder call at k = k0. Profiles and Lambda are TE only.

    At a high-Q pole p = k0 - i kappa_c/2, D(k0) lies far below the rounding
    of D near k0, but D(p) = 0 is exact. So where nR max(|s|, |h|) <=
    _SHIFT_MAX, with s = p - k and h = k0 - k, the Taylor series about k
    gives, with nothing cancelling,
        D(k0) - D(p) = (k0 - p) [D' + c2 (h + s) + c3 (h^2 + h s + s^2)],
    with D', c2 = D''/2 and c3 = D'''/6 from _d_from_riccati.
    D(p) = D + s (D' + s (c2 + s c3)) is added only where p is no root,
    |D(p)| > 5e-15 |p| |D'| (find_resonance's settled step bound): at poles,
    carried or built by hand, it is rounding (<= 3.1e-16 |p| |D'| on the TE
    l = 20-500 survey); a record off a pole (4.8e-2 at 1.07 k0) and n = 1
    (D = -i, D' = D'' = D''' = 0, so D(k0) would be 0) keep it. psi, psi'
    move to y0 = n k0 R by _ode_shift over the complex step nR h. Elsewhere
    (low Q, k = k0), D(k0) is n psi' xi - psi xi' as the ladder gives it.
    """
    if mode.polarization != "TE":
        raise ValueError("continuum matching is defined for TE modes only, "
                         f"got {mode.polarization!r}")
    carried, l, k0, p = mode.te_matching, mode.l, mode.k0, mode.pole
    n, R, nr = params.n, params.R, params.n * params.R
    if (carried is not None and carried.at == (l, p, n, R)
            and nr * abs(k0 - carried.k) <= _SHIFT_MAX):
        point = carried[1:]
    else:
        point = (k0, *_riccati_pair(l, k0, params)[:4])
    k, psi, psip, xi, xip = map(complex, point)
    x = R * k
    d, slope, curv, third = _d_from_riccati(l, psi, psip, xi, xip, x, params, te=True)
    s, h = p - k, k0 - k
    if nr * max(abs(s), abs(h)) <= _SHIFT_MAX:
        c2, c3 = 0.5 * curv, third / 6.0
        d_pole = d + s * (slope + s * (c2 + s * c3))
        d = (k0 - p) * (slope + c2 * (h + s) + c3 * (h * h + h * s + s * s))
        if abs(d_pole) > 5e-15 * abs(p) * abs(slope):   # p is no root
            d += d_pole
        psi, psip = _ode_shift(psi, psip, nr * k, nr * h, l)
    return d, psi.real, psip.real


def interior_norm_integral(mode: ModeRecord, params: SphereParams) -> float:
    """integral_0^R r^2 u(k0, r)^2 dr of the continuum-normalized TE mode, in
    closed form.

    Inside the sphere u = A j_l(n k0 r) with A = sqrt(2/pi) k0 n / |D(k0)|.
    Lommel's integral in Riccati form, int_0^y psi^2 = [y psi'^2 +
    (y - l(l+1)/y) psi^2 - psi psi'] / 2 at y = n k0 R, turns it into that
    bracket over pi n k0 |D|^2, with D(k0), psi and psi' from _te_matching:
    no grid, and no ladder call for a pole that carries Newton's values.
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
    at <= 0+ and reach past R; exterior points past k0 r = TIGHT_ARG = 800
    leave the tight Bessel envelope and raise an AccuracyWarning. The grid,
    validated as strictly increasing, splits at R by one binary search into
    two slices, so the default grid, all inside the sphere, builds no mask
    and gathers and scatters nothing.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or (np.diff(grid) <= 0).any():
        raise ValueError("grid must be a strictly increasing 1-D array of radii")
    R, n, l, k0 = params.R, params.n, mode.l, mode.k0
    if grid[0] > 1e-9 * R or grid[-1] < R:
        raise ValueError("grid must cover [0, r_max] with r_max >= R")

    d, _, _ = _te_matching(mode, params)
    scale = math.sqrt(2.0 / math.pi) * k0 / abs(d)
    cut = int(np.searchsorted(grid, R, side="right"))   # grid[:cut] <= R < grid[cut:]
    u = np.empty_like(grid)
    u[:cut] = n * scale * spherical_bessel_j(l, n * k0 * grid[:cut])
    if cut < grid.size:
        u[cut:] = scale * (d.conjugate() * spherical_hankel1(l, k0 * grid[cut:])).imag
    return u


def attach_profile(mode: ModeRecord, params: SphereParams) -> ModeRecord:
    """Return the mode with u of its radial profile on the default grid."""
    grid = default_profile_grid(mode, params)
    return replace(mode, radial_profile=radial_profile(mode, params, grid))
