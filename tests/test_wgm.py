import math
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wgmspin import wgm
from wgmspin.config import MAX_SCAN_POINTS
from wgmspin.coupling import compute_lambda
from wgmspin.specfun import TIGHT_ARG, AccuracyWarning, riccati_bessel
from wgmspin.wgm import (
    _CHARACTERISTIC,
    ModeRecord,
    SphereParams,
    attach_profile,
    default_profile_grid,
    find_resonance,
    interior_norm_integral,
    radial_profile,
    te_characteristic,
    tm_characteristic,
)

from oracles import (contour_pole_scan, lly_wavenumber, mp_characteristic, mp_pole,
                     winding_number)

K_REF = 2.0 * math.pi / 743.25e-9
REF_WINDOW = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)


def _record_ladder_runs(monkeypatch):
    # the argument shape of every riccati_bessel call find_resonance makes,
    # each one ladder run on the stacked [nkR, kR] arguments; the first is
    # the scan, (2, points)
    real = wgm.riccati_bessel
    shapes = []

    def recorded(l, z):
        shapes.append(np.shape(z))
        return real(l, z)

    monkeypatch.setattr(wgm, "riccati_bessel", recorded)
    return shapes


def _record_certificates(monkeypatch):
    # the mask of every _certify call, one per Newton evaluation, the scan's
    # values first (no ring there, so that mask is all False)
    real = wgm._certify
    masks = []

    def recorded(*args):
        step, mask = real(*args)
        masks.append(mask)
        return step, mask

    monkeypatch.setattr(wgm, "_certify", recorded)
    return masks


def _no_ring(k):
    # a zero-radius certificate ring: the certificate refuses every seed
    # (q = |s|/0), so Newton keeps to the settled rule
    return [0.0] * len(k)


def _record_scan(monkeypatch, pol):
    # the (D, D', D'', D''') of find_resonance's first D call, its scan
    real = wgm._CHARACTERISTIC[pol]
    scans = []

    def recorded(l, k, params):
        out = real(l, k, params)
        if not scans:
            scans.append(out)
        return out

    monkeypatch.setitem(wgm._CHARACTERISTIC, pol, recorded)
    return scans


@pytest.fixture(scope="module")
def ref_params():
    return SphereParams(R=10e-6, n=math.sqrt(2.31))


@pytest.fixture(scope="module")
def ref_mode(ref_params):
    window = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)
    modes = find_resonance("TE", 120, window, ref_params)
    assert len(modes) == 1
    return modes[0]


# --- SphereParams -------------------------------------------------------------

def test_default_inertia_solid_sphere():
    p = SphereParams(R=10e-6, n=1.5, rho=2000.0)
    want = (2.0 / 5.0) * ((4.0 / 3.0) * math.pi * p.R**3 * p.rho) * p.R**2
    assert p.I == want


def test_inertia_override():
    p = SphereParams(R=1e-6, n=1.5, rho=1000.0, I=3e-25)
    assert p.I == 3e-25


@pytest.mark.parametrize("kwargs", [
    dict(R=-1e-6, n=1.5),
    dict(R=1e-6, n=0.5),
    dict(R=1e-6, n=1.5, rho=-1.0),
    dict(R=1e-6, n=1.5, I=-1e-30),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SphereParams(**kwargs)


@pytest.mark.parametrize("name", ["R", "n", "rho", "I"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite(name, value):
    # R = inf would give I = inf; each value is named where it is rejected
    kwargs = dict(R=1e-6, n=1.5, rho=1000.0, I=None) | {name: value}
    with pytest.raises(ValueError, match=f"^{name} must be .* finite"):
        SphereParams(**kwargs)


@pytest.mark.parametrize("R", [1e70, 1e120])
def test_params_default_inertia_overflow_names_r(R):
    # a finite R whose (8/15) pi rho R^5 overflows: R**3 itself at 1e120
    with pytest.raises(ValueError, match="^R = .* overflows the default I"):
        SphereParams(R=R, n=1.5)
    assert SphereParams(R=R, n=1.5, I=1.0).I == 1.0


# --- characteristic equations ---------------------------------------------------

def test_te_deep_minimum_at_reference_wavenumber(ref_params):
    # |D| dips near k = 2 pi / 743.25 nm for l = 120
    ks = np.linspace(0.995 * K_REF, 1.005 * K_REF, 1501)
    absd = np.abs(te_characteristic(120, ks, ref_params))
    k_min = ks[np.argmin(absd)]
    assert abs(k_min - K_REF) / K_REF < 0.005
    # dip depth at this grid resolution is set by the step size; "deep" here
    # means orders of magnitude below the window edges
    assert absd.min() < 1e-2 * max(absd[0], absd[-1])


def test_uniform_medium_has_no_resonance():
    # n = 1: D reduces to -(psi xi' - psi' xi) = -i, |D| = 1 everywhere
    p = SphereParams(R=10e-6, n=1.0)
    ks = np.linspace(0.5 * K_REF, 1.5 * K_REF, 400)
    for fn in (te_characteristic, tm_characteristic):
        absd = np.abs(fn(40, ks, p))
        np.testing.assert_allclose(absd, 1.0, atol=1e-10)
    assert find_resonance("TE", 40, (0.8 * K_REF, 1.2 * K_REF), p) == []


def test_uniform_medium_zero_slope_seeds_from_grid(monkeypatch):
    # n = 1: dD/dk is exactly 0, yet rounding leaves local minima in |D| on
    # the grid find_resonance scans; Newton's first step leaves those seeds
    # in place instead of dividing by the slope
    p = SphereParams(R=10e-6, n=1.0)
    window = (0.8 * K_REF, 1.2 * K_REF)
    for pol in ("TE", "TM"):
        scans = _record_scan(monkeypatch, pol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_resonance(pol, 40, window, p, scan_points=2000) == []
        d, slope, _, _ = scans[0]
        absd = np.abs(d)
        assert np.all(slope == 0)
        assert np.any((absd[1:-1] < absd[:-2]) & (absd[1:-1] < absd[2:]))


def test_near_uniform_medium_first_step_stays_in_newton_box(monkeypatch):
    # n = 1 + 1e-9: D ~ -i and dD/dk ~ 1e-9, so -D/D' from a scan minimum
    # lands far outside the window. Newton parks such a step before D is
    # evaluated there: no argument leaves the runaway box, no far-field
    # AccuracyWarning, no ladder of ~1e9 orders, and no pole. With every
    # first step parked, the scan is the only ladder run. The seeds are the
    # |D| minima of the grid find_resonance scans
    p = SphereParams(R=10e-6, n=1.0 + 1e-9)
    k_lo, k_hi = 0.8 * K_REF, 1.2 * K_REF
    span = k_hi - k_lo
    z_box = p.n * p.R * math.hypot(k_hi + 2 * span, 0.5 * (k_hi + span))
    real = wgm.riccati_bessel
    seen = []

    def recorded(l, z):
        seen.append(float(np.max(np.abs(z))))
        return real(l, z)

    monkeypatch.setattr(wgm, "riccati_bessel", recorded)
    for pol in ("TE", "TM"):
        scans = _record_scan(monkeypatch, pol)
        seen.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_resonance(pol, 40, (k_lo, k_hi), p, scan_points=2000) == []
        assert len(seen) == 1 and max(seen) <= z_box, (pol, seen, z_box)
        absd = np.abs(scans[0][0])
        assert np.any((absd[1:-1] < absd[:-2]) & (absd[1:-1] < absd[2:]))


def test_te_tm_differ_for_contrast(ref_params):
    k = 0.9 * K_REF
    dte = te_characteristic(30, k, ref_params)
    dtm = tm_characteristic(30, k, ref_params)
    assert abs(dte - dtm) > 1e-6 * (abs(dte) + abs(dtm))


# windows holding at least one pole of each (polarization, l) below
_POLE_WINDOWS = {
    1: (0.1 / 10e-6, 5.0 / 10e-6),
    20: (14.0 / 10e-6, 22.0 / 10e-6),
    120: (0.98 * 8.45e6, 1.02 * 8.45e6),
}
_CHARACTERISTIC_PUBLIC = {"TE": te_characteristic, "TM": tm_characteristic}


def _cauchy_derivative(fn, k, radius, order=1, points=32):
    # trapezoidal rule for (order!/2 pi i) \oint D(z) / (z - k)^(order+1) dz
    # on a circle; exponentially convergent for the entire function D
    theta = 2.0 * np.pi * np.arange(points) / points
    return (math.factorial(order) * np.mean(fn(k + radius * np.exp(1j * theta))
                                            * np.exp(-1j * order * theta)) / radius**order)


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("l", [1, 20, 120])
def test_exact_slope_matches_cauchy_derivative(ref_params, pol, l, monkeypatch):
    # dD/dk and d2D/dk2 from the Riccati-Bessel ODE against contour
    # derivatives of the public D, on a pole, just off it, and away from it on
    # both sides of the real axis. Radius 0.01/R and 32 nodes give <= 4e-13
    # relative for D'; for D'', 64 nodes give <= 9.9e-11 (2.1e-10 with 32),
    # so its bound 1e-9 leaves 10x headroom.
    R = ref_params.R
    monkeypatch.setattr(wgm, "MAX_RELATIVE_WIDTH", 0.6)
    modes = find_resonance(pol, l, _POLE_WINDOWS[l], ref_params, scan_points=3000)
    assert modes
    pole = modes[len(modes) // 2].pole
    public = _CHARACTERISTIC_PUBLIC[pol]
    for k in (pole, pole + (1 + 1j) * 1e-3 / R, 1.003 * pole.real - 0.2j / R,
              0.97 * pole.real + 0.1j / R):
        d, slope, curv, _ = _CHARACTERISTIC[pol](l, k, ref_params)
        assert d == public(l, k, ref_params)
        want = _cauchy_derivative(lambda z: public(l, z, ref_params), k, 0.01 / R)
        assert abs(slope - want) <= 1e-11 * abs(want)
        want = _cauchy_derivative(lambda z: public(l, z, ref_params), k, 0.01 / R,
                                  order=2, points=64)
        assert abs(curv - want) <= 1e-9 * abs(want)


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("l", [1, 20, 120, 300])
def test_third_derivative_matches_mpmath(ref_params, pol, l, monkeypatch):
    # d3D/dk3 from the Riccati-Bessel ODE, as Newton's evaluation and
    # _te_matching take it, against mpmath's third derivative of the
    # 40-digit D, on a pole, just off it, and away from it on both sides of
    # the real axis (measured <= 3.4e-14 relative)
    R = ref_params.R
    monkeypatch.setattr(wgm, "MAX_RELATIVE_WIDTH", 0.6)
    k_lly = lly_wavenumber(l, pol, ref_params.n, R)
    window = _POLE_WINDOWS.get(l, (0.99 * k_lly, 1.01 * k_lly))
    modes = find_resonance(pol, l, window, ref_params, scan_points=3000)
    assert modes
    pole = modes[len(modes) // 2].pole
    d = mp_characteristic(pol, l, ref_params.n)
    for k in (pole, pole + (1 + 1j) * 1e-3 / R, 1.003 * pole.real - 0.2j / R,
              0.97 * pole.real + 0.1j / R):
        values = wgm._riccati_pair(l, k, ref_params)
        third = wgm._d_from_riccati(l, *values, ref_params, pol == "TE")[3]
        with mp.workdps(40):
            want = complex(mp.diff(d, mp.mpc(k) * R, 3) * mp.mpf(R) ** 3)
        assert abs(third - want) <= 1e-12 * abs(want), (k, third, want)


@pytest.mark.parametrize("l", [1, 20, 120])
def test_characteristic_is_riccati_combination(ref_params, l):
    # D is bit-identical to the Riccati-Bessel combination it stands for
    n, R = ref_params.n, ref_params.R
    rng = np.random.default_rng(l)
    k = K_REF * (0.9 + 0.2 * rng.random(64) - 1j * 10.0 ** rng.uniform(-20, -3, 64))
    # the same stacked [k nR, k R] argument D passes to its one ladder call
    psi, psip, xi, xip = riccati_bessel(l, np.stack([k * (n * R), k * R]))
    psi, psip, xi, xip = psi[0], psip[0], xi[1], xip[1]
    te = n * psip * xi - psi * xip
    tm = psip * xi - n * psi * xip
    assert te_characteristic(l, k, ref_params).tobytes() == te.tobytes()
    assert tm_characteristic(l, k, ref_params).tobytes() == tm.tobytes()


@pytest.mark.parametrize("l", [1, 20, 120])
def test_characteristic_real_path_matches_complex(ref_params, l):
    # a real k vector runs the ladders in real arithmetic; the same k cast to
    # complex128 runs them in complex arithmetic
    ks = np.linspace(*_POLE_WINDOWS[l], 2000)
    for fn in (te_characteristic, tm_characteristic):
        d_real = fn(l, ks, ref_params)
        d_complex = fn(l, ks.astype(np.complex128), ref_params)
        assert np.max(np.abs(d_real - d_complex)) <= 1e-13 * np.max(np.abs(d_complex))


# --- find_resonance --------------------------------------------------------------

def test_resonance_wavelength_and_uniqueness(ref_mode):
    assert ref_mode.polarization == "TE"
    assert abs(ref_mode.lambda_vac - 743.25e-9) / 743.25e-9 < 0.005
    # frozen regression of the solved position
    assert ref_mode.lambda_vac == pytest.approx(7.432450251524547e-07, rel=1e-9)
    assert ref_mode.kappa_c > 0
    assert ref_mode.Q == ref_mode.k0 / ref_mode.kappa_c
    assert abs(ref_mode.pole - (ref_mode.k0 - 0.5j * ref_mode.kappa_c)) == 0


def test_window_far_below_resonance_is_empty(ref_params):
    R = ref_params.R
    assert find_resonance("TE", 120, (5.0 / R, 10.0 / R), ref_params) == []


@pytest.mark.parametrize("window", [(0.0, 1e7), (1e7, 1e7), (1e6, math.inf)])
def test_window_must_be_positive_finite_and_non_empty(ref_params, window):
    # the scan's point count is derived from the window's width, so an
    # infinite window is rejected before it
    with pytest.raises(ValueError, match="window"):
        find_resonance("TE", 120, window, ref_params)


def test_unknown_polarization_rejected(ref_params):
    with pytest.raises(ValueError, match="polarization must be 'TE' or 'TM'"):
        find_resonance("TX", 120, (8.3e6, 8.6e6), ref_params)


@pytest.mark.parametrize("points", [1, 2, 2.5, 0, -5])
def test_scan_points_must_be_integer_at_least_3(ref_params, points):
    # 1, 2 and 2.5 left no interior scan point and returned [] for this
    # window, which holds the reference pole; 0 and -5 failed inside numpy
    window = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)
    with pytest.raises(ValueError, match="scan_points"):
        find_resonance("TE", 120, window, ref_params, scan_points=points)


def test_pole_residual_normalized(ref_params, ref_mode):
    window = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)
    ks = np.array(window)
    edge = np.max(np.abs(te_characteristic(120, ks, ref_params)))
    res = abs(te_characteristic(120, ref_mode.pole, ref_params))
    assert res / edge <= 1e-10


def test_pole_stable_under_seed_scan_refinement(ref_params, monkeypatch):
    # the pole from the derived scan density (28 points here, 36 with the
    # edge padding) against a scan forced to 2000 points (2008)
    shapes = _record_ladder_runs(monkeypatch)
    coarse = find_resonance("TE", 120, REF_WINDOW, ref_params, scan_points=2000)
    assert shapes[0] == (2, 36)
    monkeypatch.setattr(wgm, "_SCAN_PER_SPACING", 10**9)
    shapes.clear()
    fine = find_resonance("TE", 120, REF_WINDOW, ref_params, scan_points=2000)
    assert shapes[0] == (2, 2008)
    assert len(coarse) == len(fine) == 1
    assert abs(coarse[0].k0 - fine[0].k0) / fine[0].k0 < 1e-12


def test_reference_solve_ladder_runs(ref_params, monkeypatch):
    # one scan, then one Newton run from slope-stepped seeds, which the
    # cubic certificate accepts: the iterate and its ring of 8 points in one
    # riccati_bessel call on the stacked arguments, whose values the TE pole
    # carries. TE and TM take the same two calls, and the TM record carries
    # no matching
    calls = _record_ladder_runs(monkeypatch)
    assert len(find_resonance("TE", 120, REF_WINDOW, ref_params, scan_points=2000)) == 1
    assert len(calls) == 2, calls
    te_newton = calls[1]
    assert te_newton == (2, 1 + wgm._RING_POINTS)
    calls.clear()
    tm = find_resonance("TM", 120, REF_WINDOW, ref_params, scan_points=2000)
    assert len(tm) == 1
    assert calls == [(2, 36), (2, 1 + wgm._RING_POINTS)], calls
    assert te_newton == calls[1]
    assert [mode.te_matching for mode in tm] == [None]


def test_scan_density_independent_above_derived_count(ref_params, monkeypatch):
    # the reference window spans 0.82 radial-order spacings pi/(nR): 28 scan
    # points and 4 past each edge, whatever larger cap scan_points sets, so
    # the poles are the same list at every such cap, from two ladder runs
    # (scan + certified Newton)
    shapes = _record_ladder_runs(monkeypatch)
    results = []
    for points in (500, 2000, 100_000):
        shapes.clear()
        results.append(find_resonance("TE", 120, REF_WINDOW, ref_params,
                                      scan_points=points))
        assert shapes[0] == (2, 36) and len(shapes) == 2, (points, shapes)
    assert len(results[0]) == 1
    assert results[0] == results[1] == results[2]


def test_newton_far_seed_takes_plain_newton_step(monkeypatch):
    # D = k^2 - 2: h = -D D''/(2 D'^2) = (2 - k^2)/(4 k^2) is 1.75 at k = 0.5,
    # outside |h| <= 1/2, so the first step is -D/D' bit for bit; at k = 1.2,
    # h = 0.097, and Halley's step differs from it
    def dvec(k):
        return k * k - 2, 2 * k, np.full_like(k, 2), np.zeros_like(k)

    monkeypatch.setattr(wgm, "_NEWTON_MAX_ITER", 1)
    seeds = np.array([0.5, 1.2], dtype=complex)
    d, dp, dpp, d3 = dvec(seeds)
    k, _ = wgm._newton_poles(dvec, seeds, (d, dp, dpp, d3), 0.1, 3.0, 1.0, _no_ring)
    newton = seeds + -d / dp
    assert k[0] == newton[0]
    assert k[1] != newton[1]
    assert abs(k[1] - math.sqrt(2)) < abs(newton[1] - math.sqrt(2))


def test_newton_evaluates_finite_k_only():
    # a first step that overflows to inf, or lands far outside the window,
    # is parked at k_lo before D is evaluated: the Bessel ladders never see
    # a non-finite argument from Newton, and the parked seeds are dead
    seen = []

    def dvec(k):
        seen.append(k.copy())
        return k - 1.5, np.ones_like(k), np.zeros_like(k), np.zeros_like(k)

    seeds = np.array([1.2, 1.8, 1.9], dtype=complex)
    first = (np.array([1e300, 1.0, 0.4], dtype=complex),
             np.array([1e-300, 1e-300, 1.0], dtype=complex), np.zeros(3, dtype=complex),
             np.zeros(3, dtype=complex))
    with np.errstate(over="ignore"):
        k, converged = wgm._newton_poles(dvec, seeds, first, 1.0, 2.0, 1.0, _no_ring)
    assert seen and all(np.all(np.isfinite(z)) for z in seen)
    assert converged.tolist() == [False, False, True]
    assert k[2] == 1.5


def test_newton_curvature_saves_evaluations():
    # D = k^3 - 2 from k = 1.5: the exact D'' and D''' (Halley, refined on
    # the cubic model) converge in fewer Dvec calls than zero D'' and D'''
    # (plain Newton), to the same root
    def run(curvature, third):
        calls = []

        def dvec(k):
            calls.append(k.size)
            return k**3 - 2, 3 * k * k, curvature(k), third(k)

        seeds = np.array([1.5], dtype=complex)
        k, converged = wgm._newton_poles(dvec, seeds, dvec(seeds), 1.0, 2.0, 1.0, _no_ring)
        assert converged.tolist() == [True]
        assert abs(k[0] - 2 ** (1 / 3)) <= 1e-15
        return len(calls)

    halley = run(lambda k: 6 * k, lambda k: np.full_like(k, 6))
    newton = run(np.zeros_like, np.zeros_like)
    assert halley < newton, (halley, newton)


def test_newton_small_residual_without_settled_step_is_not_converged():
    # past k = 1.4, |D| = 1e-12 is below POLE_TOL * d_scale (d_scale = 1),
    # but D' = -+1e-9 makes each step +-1e-3 toward 1.5: the iterate from
    # 1.51 oscillates about 1.5, its step never falls below 5e-15 |k|, and
    # it has not converged, whatever its |D|. The seed from 1.2 meets the
    # simple root 1.25 and has converged, alone or next to the other seed
    def dvec(k):
        near = k.real < 1.4
        d = np.where(near, k - 1.25, 1e-12 + 0j)
        dp = np.where(near, 1.0 + 0j, np.where(k.real < 1.5, -1e-9, 1e-9) + 0j)
        return d, dp, np.zeros_like(d), np.zeros_like(d)

    seeds = np.array([1.2, 1.51])
    for k_seeds in (seeds, seeds[1:]):
        k, converged = wgm._newton_poles(dvec, k_seeds, dvec(k_seeds.astype(complex)),
                                         1.0, 2.0, 1.0, _no_ring)
        assert np.all(np.abs(dvec(k)[0]) <= wgm.POLE_TOL)
        assert converged.tolist() == [True, False][-k_seeds.size:], (k, converged)
        assert abs(k[-1] - 1.5) <= 1.5e-3


def test_newton_certificate_refuses_second_root_inside_ring(monkeypatch):
    # D = (k - 1.5)(k - b), seed 1e-4 below the root 1.5, ring radius 0.1.
    # The seed's values carry D and D' only (D'' = D''' = 0), so its step is
    # plain Newton's; a step from the exact quadratic model would land on the
    # root. With b = 2.5, outside the ring, the first iterate is ~1e-8 off
    # and the first evaluation certifies its step: one Dvec call, on the
    # iterate and its 8 ring points. With b = 1.5002, inside the ring, |D'|
    # is 2e-4 at the root and the first iterate is still ~2.5e-5 off, so the
    # Cauchy remainder M q^4 outweighs |D'| delta, and the first evaluation
    # certifies nothing; a later one, with its own ring, certifies. A
    # zero-radius ring certifies nothing, and the seed takes the settled
    # rule to the same root
    certified = _record_certificates(monkeypatch)

    def run(b, ring_radius):
        calls = []
        certified.clear()

        def dvec(k):
            calls.append(k.size)
            return (k - 1.5) * (k - b), 2 * k - 1.5 - b, np.full_like(k, 2), np.zeros_like(k)

        seeds = np.array([1.5 - 1e-4], dtype=complex)
        d, dp, _, third = dvec(seeds)
        first = (d, dp, np.zeros_like(d), third)
        k, converged = wgm._newton_poles(dvec, seeds, first, 1.0, 2.0, 1.0, ring_radius)
        return k, converged.tolist(), calls[1:]

    def ring(k):
        return [0.1] * len(k)

    k, converged, calls = run(2.5, ring)
    assert converged == [True] and calls == [1 + wgm._RING_POINTS]
    assert abs(k[0] - 1.5) <= 1e-15
    k, converged, calls = run(1.5002, ring)
    assert calls[0] == 1 + wgm._RING_POINTS and len(calls) > 1, calls
    assert not certified[0][0] and not certified[1][0], certified   # the seed's, the first run's
    assert any(mask[0] for mask in certified[2:]), certified
    assert converged == [True] and abs(k[0] - 1.5) <= 1e-15
    k, converged, calls = run(1.5002, _no_ring)
    assert calls == [1] * len(calls) and not np.any(certified), (calls, certified)
    assert converged == [True] and abs(k[0] - 1.5) <= 1e-15


def test_newton_bookkeeping_per_seed(monkeypatch):
    # D = (k - 1.2)(k - 1.5)(k - 1.5002), ring radius 0.1, three seeds whose
    # values carry D and D' only (D'' = D''' = 0: plain Newton first steps,
    # where the exact cubic model would land on the roots). The seed 1e-4
    # below 1.2 has no other root in its ring and is certified at the first
    # evaluation; the seed 1e-4 below 1.5 has 1.5002 in its ring and is
    # certified only at a later one; the third's first step (D = 1,
    # D' = 1e-300) runs away and is parked, dead, at k_lo = 1. Every Dvec
    # call takes the iterates in seed order, the certified and the parked
    # one included, then 8 ring points about each seed that is alive,
    # uncertified and has ring room; every _certify mask has one entry per
    # seed, in seed order, the seeds' own (no ring) first
    roots = (1.2, 1.5, 1.5002)
    calls = []

    def dvec(k):
        calls.append(k.copy())
        u, v, w = (k - r for r in roots)
        return u * v * w, v * w + u * w + u * v, 2 * (u + v + w), np.full_like(k, 6)

    masks = _record_certificates(monkeypatch)
    seeds = np.array([1.2 - 1e-4, 1.5 - 1e-4, 1.9], dtype=complex)
    d, dp, _, _ = dvec(seeds)
    d[2], dp[2] = 1.0, 1e-300
    calls.clear()
    zero = np.zeros_like(d)
    k, converged = wgm._newton_poles(dvec, seeds, (d, dp, zero, zero), 1.0, 2.0, 1.0,
                                     lambda k: [0.1] * len(k))
    assert converged.tolist() == [True, True, False]
    assert abs(k[0] - 1.2) <= 1e-15 and abs(k[1] - 1.5) <= 1e-15 and k[2] == 1.0
    assert len(calls) + 1 == len(masks) > 2
    assert [list(mask) for mask in masks] == (
        [[False] * 3, [True, False, False]] + [[False] * 3] * (len(masks) - 3)
        + [[False, True, False]])
    ring = 0.1 * np.exp(2j * np.pi * np.arange(wgm._RING_POINTS) / wgm._RING_POINTS)
    for i, call in enumerate(calls):
        with_ring = [0, 1] if i == 0 else [1]
        assert call.size == 3 + wgm._RING_POINTS * len(with_ring), [c.size for c in calls]
        assert call[2] == 1.0 and (i == 0 or call[0] == k[0])
        assert np.allclose(call[3:], np.concatenate([call[j] + ring for j in with_ring]),
                           rtol=0, atol=1e-15)


def test_certify_keeps_step_where_model_slope_vanishes():
    # D = 3, D' = 3, D'' = 0, D''' = -6: Halley's step is s = -1, where the
    # cubic model's slope P'(s) = 3 - 3 s^2 is exactly 0. The refinement
    # stops there with Halley's finite step, and the seed is not certified
    steps, mask = wgm._certify([3 + 0j], [3 + 0j], [0j], [-6 + 0j], [1 + 0j], [0.1], [10.0], 1.0)
    assert steps == [-1] and mask == [False]


def test_two_pole_window_certified_at_first_newton_run(ref_params, monkeypatch):
    # TE l = 120 over 0.97-1.09 times the Lam-Leung-Young wavenumber holds two
    # poles: the 166-point scan, then one Newton run on both iterates and
    # their rings, which certifies both. Each record's last iterate lies
    # within _SHIFT_MAX/(nR) of its k0 (nR |k0 - k| = 1.6e-7 and 7.5e-6), so
    # Lambda runs no ladder on either pole
    shapes = _record_ladder_runs(monkeypatch)
    masks = _record_certificates(monkeypatch)
    k = lly_wavenumber(120, "TE", ref_params.n, ref_params.R)
    modes = find_resonance("TE", 120, (0.97 * k, 1.09 * k), ref_params)
    assert len(modes) == 2
    assert shapes == [(2, 166), (2, 2 * (1 + wgm._RING_POINTS))], shapes
    assert [list(mask) for mask in masks] == [[False, False], [True, True]]
    nr = ref_params.n * ref_params.R
    for mode in modes:
        assert nr * abs(mode.k0 - mode.te_matching.k) <= wgm._SHIFT_MAX
    shapes.clear()
    for mode in modes:
        compute_lambda(mode, ref_params)
    assert shapes == []


def test_overflowing_q_poles_warn(ref_params):
    # TM l = 494, n = 2.895 over 0.97-1.09 times its Lam-Leung-Young
    # wavenumber: 6 poles, 3 of them with kappa_c = 1.8e-322, 1.1e-314 and
    # 6.4e-307, so Q = inf. Each takes one AccuracyWarning naming it, and the
    # poles are returned as they are. The reference window and a coarse
    # +-1 % survey warn of nothing
    p = SphereParams(R=10e-6, n=2.895)
    k = lly_wavenumber(494, "TM", p.n, p.R)
    with pytest.warns(AccuracyWarning) as record:
        modes = find_resonance("TM", 494, (0.97 * k, 1.09 * k), p)
    assert len(modes) == 6
    bad = [mode for mode in modes if not math.isfinite(mode.Q)]
    assert len(bad) == len(record) == 3, [str(w.message) for w in record]
    assert min(mode.kappa_c for mode in bad) < sys.float_info.min
    for mode, warning in zip(bad, record):
        message = str(warning.message)
        assert "TM l=494" in message
        assert repr(mode.k0) in message and repr(mode.kappa_c) in message
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        assert find_resonance("TE", 120, REF_WINDOW, ref_params)
        for pol in ("TE", "TM"):
            for n2 in (1.44, 2.31, 4.0):
                q = SphereParams(R=10e-6, n=math.sqrt(n2))
                for l in range(20, 501, 40):
                    k = lly_wavenumber(l, pol, q.n, q.R)
                    find_resonance(pol, l, (0.99 * k, 1.01 * k), q)


def test_te_pole_runs_no_matching_ladder(ref_params, monkeypatch):
    # a TE pole carries the Riccati values of Newton's last ladder call, at
    # its last iterate: find_resonance, attach_profile and compute_lambda
    # take the scan and the certified Newton call, and Lambda, the norm
    # integral and the profile run no riccati_bessel call of their own
    calls = _record_ladder_runs(monkeypatch)
    mode, = find_resonance("TE", 120, REF_WINDOW, ref_params, scan_points=2000)
    compute_lambda(attach_profile(mode, ref_params), ref_params)
    assert len(calls) == 2, calls
    calls.clear()
    compute_lambda(mode, ref_params)
    interior_norm_integral(mode, ref_params)
    attach_profile(mode, ref_params)
    assert calls == []


def test_te_pole_without_newton_evaluation_carries_no_matching(ref_params, monkeypatch):
    # a Newton that evaluates nothing (here one that takes each seed's first
    # step from the scan's D and D' and calls it converged) leaves no
    # Riccati values to carry: the TE record's te_matching is None, and
    # Lambda takes its one ladder call at k0
    def first_step(Dvec, seeds, first, k_lo, k_hi, d_scale, ring_radius):
        d, dp, _, _ = first
        return seeds - d / dp, np.ones(seeds.size, dtype=bool)

    monkeypatch.setattr(wgm, "_newton_poles", first_step)
    calls = _record_ladder_runs(monkeypatch)
    modes = find_resonance("TE", 120, REF_WINDOW, ref_params, scan_points=2000)
    assert len(modes) == 1 and calls == [(2, 36)], calls
    assert modes[0].te_matching is None
    calls.clear()
    compute_lambda(modes[0], ref_params)
    assert calls == [(2,)], calls


@pytest.mark.parametrize("n2", [1.44, 2.31, 4.0])
def test_carried_lambda_matches_direct_call(n2, monkeypatch):
    # Lambda from the values Newton's last stacked ladder call carries
    # against Lambda from one solo riccati_bessel call at the same k, on
    # every pole of a +-10 % window (26 poles per n, up to 7 a window, Q 7 to
    # 2e188): what carrying alone can change is the rounding of the two
    # ladder calls (measured <= 3.1e-14 here)
    p = SphereParams(R=10e-6, n=math.sqrt(n2))
    windows = {}
    for l in (10, 20, 60, 120, 200, 300, 410, 500):
        k = lly_wavenumber(l, "TE", p.n, p.R)
        windows[l] = (0.9 * k, 1.1 * k)
        modes = find_resonance("TE", l, windows[l], p)
        assert modes, l
        for mode in modes:
            carried = mode.te_matching
            assert carried is not None
            solo = carried._replace(**dict(zip(("psi", "psip", "xi", "xip"),
                                               wgm._riccati_pair(l, carried.k, p)[:4])))
            stacked = compute_lambda(mode, p).lambda_
            direct = compute_lambda(replace(mode, te_matching=solo), p).lambda_
            assert abs(stacked - direct) <= 2e-13 * abs(direct), (l, mode.Q)
    # a record without values for its own (l, pole, n, R) takes one ladder
    # call: one built by hand, one replaced to another k0, a pole solved with
    # other params, and a pole whose values lie past _SHIFT_MAX. Off a pole,
    # D(k0) is the one call's n psi' xi - psi xi' (the root test keeps D(p));
    # at n = 1, D = -i, though D' = 0
    calls = _record_ladder_runs(monkeypatch)
    mode = find_resonance("TE", 120, windows[120], p)[0]
    k2 = 1.07 * mode.k0
    hand = ModeRecord(polarization="TE", l=120, k0=k2, kappa_c=mode.kappa_c,
                      Q=k2 / mode.kappa_c)
    psi, psip, xi, xip, _ = wgm._riccati_pair(120, k2, p)
    calls.clear()
    d, _, _ = wgm._te_matching(hand, p)
    assert len(calls) == 1
    assert abs(d - (p.n * psip * xi - psi * xip)) <= 1e-14 * abs(d)
    vacuum = ModeRecord(polarization="TE", l=120, k0=mode.k0, kappa_c=mode.kappa_c, Q=mode.Q)
    d, _, _ = wgm._te_matching(vacuum, SphereParams(R=p.R, n=1.0))
    assert abs(d + 1j) <= 1e-15
    other = SphereParams(R=p.R, n=p.n * (1 + 1e-9))
    monkeypatch.setattr(wgm, "_SHIFT_MAX", -1.0)   # refuses every shift, 0 too
    unshifted = find_resonance("TE", 120, windows[120], p)[0]
    assert unshifted.te_matching is not None
    calls.clear()
    for record, params in ((hand, p), (replace(mode, k0=k2, Q=k2 / mode.kappa_c), p),
                           (mode, other), (unshifted, p)):
        got = wgm._te_matching(record, params)
        assert len(calls) == 1 and got == wgm._te_matching(replace(record, te_matching=None),
                                                           params)
        calls.clear()


def test_low_q_window_takes_certificate_and_matches_mpmath(monkeypatch):
    # TE l = 8, n = 1.52 (Q ~ 25): the seed's step, Halley's refined on the
    # scan's cubic model, leaves the first Newton iterate so close to the
    # pole that its own refined step is short against the ring, and the
    # first evaluation certifies it. So Newton takes one run after the scan,
    # with the ring, and the pole matches mpmath
    p = SphereParams(R=10e-6, n=1.52)
    shapes = _record_ladder_runs(monkeypatch)
    modes = find_resonance("TE", 8, (6.5 / p.R, 9.5 / p.R), p, scan_points=3000)
    assert len(modes) == 1
    assert [s[1] for s in shapes[1:]] == [1 + wgm._RING_POINTS], shapes
    want = complex(mp_pole("TE", 8, p.n, p.R, modes[0].pole, 30))
    assert abs(modes[0].k0 - want.real) <= 1e-15 * want.real
    assert abs(modes[0].kappa_c + 2 * want.imag) <= 1e-13 * -2 * want.imag


def _certificate_windows():
    # (pol, l, window, params): +-1 % windows about first-order poles
    # (Q 1e2 to 2e188), and the low-Q TE l = 8 window (Q ~ 25)
    low_q = SphereParams(R=10e-6, n=1.52)
    windows = [("TE", 8, (6.5 / low_q.R, 9.5 / low_q.R), low_q)]
    for pol in ("TE", "TM"):
        for l in (40, 120, 300, 500):
            for n2 in (1.44, 2.31, 4.0):
                p = SphereParams(R=10e-6, n=math.sqrt(n2))
                k = lly_wavenumber(l, pol, p.n, p.R)
                windows.append((pol, l, (0.99 * k, 1.01 * k), p))
    return windows


def test_every_pole_with_ring_room_is_certified(monkeypatch):
    # the certificate runs at every Newton evaluation: each converged seed
    # whose last iterate has ring room converges by it, none by the settled
    # rule
    masks = _record_certificates(monkeypatch)
    real_newton = wgm._newton_poles

    def newton(Dvec, seeds, first, k_lo, k_hi, d_scale, ring_radius):
        masks.clear()
        k, converged = real_newton(Dvec, seeds, first, k_lo, k_hi, d_scale, ring_radius)
        uncertified = converged & ~np.any(masks, axis=0)
        assert not np.any(uncertified & (np.array(ring_radius(k.tolist())) > 0)), (k, converged)
        return k, converged

    monkeypatch.setattr(wgm, "_newton_poles", newton)
    for pol, l, window, p in _certificate_windows():
        assert find_resonance(pol, l, window, p), (pol, l, p.n)


def test_certificate_windows_take_scan_and_one_newton_run(monkeypatch):
    # the cubic certificate accepts the refined step of the first Newton
    # iterate, which the seed's own refined step (from the scan's D to D''')
    # put close to the pole: the scan, then one Newton run on the iterate and
    # its ring, in every window, the low-Q ones (n^2 = 1.44 at l = 40, TE
    # l = 8 at n = 1.52) included
    shapes = _record_ladder_runs(monkeypatch)
    for pol, l, window, p in _certificate_windows():
        shapes.clear()
        assert find_resonance(pol, l, window, p), (pol, l, p.n)
        assert shapes[1:] == [(2, 1 + wgm._RING_POINTS)], (pol, l, p.n, shapes)


def test_scan_memory_bounded_at_point_cap(ref_params, monkeypatch):
    # the scan holds a few arrays over the points, never a table over the
    # ladder's orders (~200 orders x 2e5 stacked points would be ~600 MiB);
    # a density forced past the cap makes the scan take all MAX_SCAN_POINTS
    # points and the 8 of its edge padding, and the traced peak is ~34 MiB
    monkeypatch.setattr(wgm, "_SCAN_PER_SPACING", 10**9)
    shapes = _record_ladder_runs(monkeypatch)
    tracemalloc.start()
    try:
        modes = find_resonance("TE", 120, REF_WINDOW, ref_params,
                               scan_points=MAX_SCAN_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes[0] == (2, MAX_SCAN_POINTS + 2 * wgm._EDGE_STEPS)
    assert len(modes) == 1
    assert peak < 48 * 2**20, peak / 2**20


def test_pole_near_window_edge_is_found():
    # TE l = 20, n = 1.2 (Q 21.5): the +-1 % window about the Lam-Leung-Young
    # position holds a pole 0.78 scan steps inside its upper edge, which no
    # |D| minimum inside the window seeds; one past the edge, in the scan's
    # padding, does. The pole matches mpmath
    p = SphereParams(R=10e-6, n=1.2)
    k = lly_wavenumber(20, "TE", p.n, p.R)
    mode, = find_resonance("TE", 20, (0.99 * k, 1.01 * k), p)
    want = complex(mp_pole("TE", 20, p.n, p.R, mode.pole, 30))
    assert abs(mode.k0 - want.real) <= 1e-15 * want.real
    assert abs(mode.kappa_c + 2 * want.imag) <= 1e-12 * -2 * want.imag


def test_pole_near_window_seam_found_once():
    # two windows, each half a radial-order spacing pi/(nR) wide, meeting
    # 0.002, 0.01 or 0.02 spacings above or below a first-order pole
    # (TE/TM, l = 20-500, n^2 = 1.44-4, Q 16 to 2e188): exactly one of the
    # two reports the pole, with the k0 and kappa_c of a window about it
    for pol in ("TE", "TM"):
        for n2 in (1.44, 2.31, 4.0):
            p = SphereParams(R=10e-6, n=math.sqrt(n2))
            spacing = math.pi / (p.n * p.R)
            for l in (20, 40, 80, 120, 200, 300, 400, 500):
                k = lly_wavenumber(l, pol, p.n, p.R)
                pole = max(find_resonance(pol, l, (0.99 * k, 1.01 * k), p), key=lambda m: m.Q)
                for offset in (-0.02, -0.01, -0.002, 0.002, 0.01, 0.02):
                    seam = pole.k0 + offset * spacing
                    found = [m for w in ((seam - 0.5 * spacing, seam), (seam, seam + 0.5 * spacing))
                             for m in find_resonance(pol, l, w, p)
                             if abs(m.k0 - pole.k0) <= 1e-12 * pole.k0]
                    assert len(found) == 1, (pol, l, n2, offset, found)
                    assert abs(found[0].kappa_c - pole.kappa_c) <= 1e-10 * pole.kappa_c


# windows, in kR at R = 10 um, whose poles near an edge a scan without edge
# padding loses: TM l = 54, n = 2.186, two spacings wide with the Q 1.2e22
# pole 0.3 scan steps inside the upper edge, and three windows of a random
# draw (numpy default_rng(3); TE/TM, l = 5-120, n = 1.2-2.5, 1-4 spacings
# wide, centred up to a spacing off the Lam-Leung-Young position)
_EDGE_WINDOWS = [
    ("TM", 54, 2.186, (25.28638128166747, 28.160665502701136)),
    ("TM", 45, 2.047695645856084, (23.947788539307172, 28.139657166241435)),
    ("TE", 30, 2.046195173698134, (15.560606172501515, 17.316283410207884)),
    ("TE", 14, 1.5086217690508372, (9.597187334443888, 17.029161371837915)),
]


@pytest.mark.parametrize("pol, l, n, window", _EDGE_WINDOWS)
def test_poles_found_match_winding_count(pol, l, n, window):
    # the argument principle on the package's own D counts its zeros with
    # Re k in the window and -0.9/(nR) <= Im k <= 0.1/(nR); find_resonance
    # returns exactly as many poles in that rectangle
    p = SphereParams(R=10e-6, n=n)
    re = (window[0] / p.R, window[1] / p.R)
    im = (-0.9 / (n * p.R), 0.1 / (n * p.R))
    fn = _CHARACTERISTIC_PUBLIC[pol]
    count = winding_number(lambda z: fn(l, z, p), re, im, samples_per_side=1500)
    modes = find_resonance(pol, l, re, p)
    assert count >= 1
    assert sum(m.pole.imag >= im[0] for m in modes) == count, (count, modes)


def test_kappa_and_lambda_window_independent(ref_params):
    # the reference mode's linewidth and coupling constant do not depend on
    # the search window or the scan density beyond 1e-10 relative
    kappas, lambdas = [], []
    for lam_lo, lam_hi, points in ((736e-9, 751e-9, 2000), (736e-9, 751e-9, 1000),
                                   (720e-9, 760e-9, 3000), (740e-9, 746e-9, 700),
                                   (730e-9, 770e-9, 4000), (742e-9, 744.5e-9, 500)):
        window = (2.0 * math.pi / lam_hi, 2.0 * math.pi / lam_lo)
        modes = find_resonance("TE", 120, window, ref_params, scan_points=points)
        best = max(modes, key=lambda m: m.Q)
        kappas.append(best.kappa_c)
        cc = compute_lambda(attach_profile(best, ref_params), ref_params)
        lambdas.append(cc.lambda_)
    for values in (kappas, lambdas):
        assert (max(values) - min(values)) / np.median(values) <= 1e-10


def _assert_poles_resolved(pol, l, window, params, modes):
    fn = _CHARACTERISTIC_PUBLIC[pol]
    edge = np.max(np.abs(fn(l, np.array(window), params)))
    assert modes
    for m in modes:
        assert window[0] <= m.k0 <= window[1] and m.kappa_c > 0
        assert abs(fn(l, m.pole, params)) / edge <= 1e-10


def test_te_l148_survey_window_resolves_lambda(ref_params):
    # +-1 % window about the Lam-Leung-Young position, 1200 scan points; the
    # finite-difference Newton slope left kappa_c unresolved here (Lambda ~ 1e-21)
    window = (10232024.479852132, 10438732.045101672)
    modes = find_resonance("TE", 148, window, ref_params, scan_points=1200)
    _assert_poles_resolved("TE", 148, window, ref_params, modes)
    best = attach_profile(max(modes, key=lambda m: m.Q), ref_params)
    assert 0.5 <= compute_lambda(best, ref_params).lambda_ <= 2.0


def test_tm_l180_survey_window_finds_pole(ref_params):
    # +-1 % window about the Lam-Leung-Young position, 2000 scan points; the
    # finite-difference Newton slope lost this pole
    window = (12411241.74340223, 12661973.899834597)
    modes = find_resonance("TM", 180, window, ref_params, scan_points=2000)
    _assert_poles_resolved("TM", 180, window, ref_params, modes)


def _mpmath_pole(pol, l, n=math.sqrt(2.31), R=10e-6, dps=60):
    """Generator of MPMATH_POLES: the pole of the same D, built from mpmath's
    besselj/bessely of order l + 1/2 at dps digits, by findroot from the
    Lam-Leung-Young position. n and R are the doubles the package sees."""
    return mp_pole(pol, l, n, R, complex(lly_wavenumber(l, pol, n, R), -1e-30 / R), dps)


# (pol, l): (k0, kappa_c) [1/m] of the highest-Q pole in a +-1 % window about
# the Lam-Leung-Young position; R = 10 um, n^2 = 2.31; from _mpmath_pole
MPMATH_POLES = {
    ("TE", 20): (1603902.727161633451866207, 1394.792875037866906495765),
    ("TE", 120): (8453719.963871642585373463, 2.302310614501496726616006e-14),
    ("TE", 147): (10271873.04962075977449298, 2.98625129787515517668449e-19),
    ("TE", 179): (12420588.63995124818427007, 4.137247852220790681550152e-25),
    ("TE", 200): (13827953.21341563830951712, 5.531107547528257326217742e-29),
    ("TE", 300): (20509888.96598302356149401, 1.21647166245520376507563e-47),
    ("TE", 400): (27171047.77410109258822171, 1.616372632181071932436469e-66),
    ("TE", 500): (33819570.45947915500031299, 1.585442535914847253293365e-85),
    ("TM", 20): (1646225.754685607061303892, 2285.644152704988755431259),
    ("TM", 120): (8502358.634616595501174126, 3.278402545715440003046657e-14),
    ("TM", 147): (10320667.24765875839720529, 4.22097733541681337388935e-19),
    ("TM", 179): (12469505.19008324005449045, 5.811552685016449250633523e-25),
    ("TM", 200): (13876928.59375277255586029, 7.745079716773282576350308e-29),
    ("TM", 300): (20559032.14371895939574101, 1.687070456409610168394701e-47),
    ("TM", 400): (27220276.40567232051202996, 2.229694146256873068793743e-66),
    ("TM", 500): (33868851.56964018020319205, 2.179428110538242459700961e-85),
}


@pytest.mark.parametrize("pol, l", sorted(MPMATH_POLES))
def test_pole_matches_mpmath_table(ref_params, pol, l):
    # kappa_c lives in the tiny Re xi(kR) = kR j_l(kR); taken from an upward
    # j recurrence it was off by 1.9e-7 at TE l = 147 and lost above l ~ 178
    k0, kappa_c = MPMATH_POLES[pol, l]
    k = lly_wavenumber(l, pol, ref_params.n, ref_params.R)
    modes = find_resonance(pol, l, (0.99 * k, 1.01 * k), ref_params, scan_points=2000)
    assert modes
    best = max(modes, key=lambda m: m.Q)
    assert abs(best.k0 - k0) <= 1e-15 * k0
    assert abs(best.kappa_c - kappa_c) <= 1e-12 * kappa_c
    if pol == "TE":
        assert 0.5 <= compute_lambda(best, ref_params).lambda_ <= 2.0


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")   # off-strip low-Q poles
@settings(max_examples=100, deadline=None, derandomize=True)
@given(pol=st.sampled_from(["TE", "TM"]), l=st.integers(1, 300), n=st.floats(1.05, 2.5),
       width=st.floats(0.01, 0.06))
def test_poles_match_mpmath_over_envelope(pol, l, n, width):
    # every pole with Q <= 1e60 from a window 1-6 % wide about the
    # Lam-Leung-Young position matches the pole of the same D that mpmath
    # finds from it at 50 + log10 Q digits: k0 to 1e-15, kappa_c to 1e-12.
    # The asymptotic position is negative at low l and n (l <= 6 at n = 1.05)
    p = SphereParams(R=10e-6, n=n)
    k = lly_wavenumber(l, pol, n, p.R)
    assume(k > 0)
    for mode in find_resonance(pol, l, (k * (1 - width / 2), k * (1 + width / 2)), p):
        if mode.Q <= 1e60:
            dps = 50 + max(0, math.ceil(math.log10(mode.Q)))
            want = complex(mp_pole(pol, l, n, p.R, mode.pole, dps))
            assert abs(mode.k0 - want.real) <= 1e-15 * want.real, (mode, want)
            assert abs(mode.kappa_c + 2 * want.imag) <= 1e-12 * -2 * want.imag, (mode, want)


def test_mpmath_table_regenerates():
    # the cheapest entry, recomputed live by the stored generator
    pole = _mpmath_pole("TE", 20)
    k0, kappa_c = MPMATH_POLES["TE", 20]
    assert abs(float(pole.real) - k0) <= 1e-15 * k0
    assert abs(float(-2 * pole.imag) - kappa_c) <= 1e-15 * kappa_c


def _oracle_poles(fn, l, params, re_range, im_depth):
    def f_vec(k):
        return fn(l, k, params)
    return contour_pole_scan(f_vec, re_range, (-im_depth, -1e-12 * re_range[1]))


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
def test_low_l_poles_match_contour_oracle(monkeypatch):
    # very lossy l=1 modes of the reference sphere in x = kR in [0.1, 5]
    p = SphereParams(R=10e-6, n=1.52)
    R = p.R
    window = (0.1 / R, 5.0 / R)
    # widened width cut so the pole sitting right at kappa_c/k0 = 0.5 is
    # compared robustly on both sides
    monkeypatch.setattr(wgm, "MAX_RELATIVE_WIDTH", 0.6)
    found = find_resonance("TE", 1, window, p, scan_points=4000)
    oracle = _oracle_poles(te_characteristic, 1, p, window, 1.0 / R)
    oracle = [z for z in oracle if window[0] <= z.real <= window[1]]
    assert len(found) == len(oracle) > 0
    for mode, z in zip(found, sorted(oracle, key=lambda v: v.real)):
        assert abs(mode.pole - z) < 1e-6 * abs(z)


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
def test_mid_l_poles_match_contour_oracle():
    p = SphereParams(R=10e-6, n=1.52)
    window = (0.25 * K_REF, 0.32 * K_REF)
    found = find_resonance("TE", 20, window, p, scan_points=3000)
    oracle = _oracle_poles(te_characteristic, 20, p, window, 1.0 / p.R)
    oracle = [z for z in oracle if window[0] <= z.real <= window[1]
              and -2.0 * z.imag / z.real < 0.5]
    assert len(found) == len(oracle) > 0
    for mode, z in zip(found, sorted(oracle, key=lambda v: v.real)):
        assert abs(mode.pole - z) < 1e-8 * abs(z)


def test_tm_isolation_from_te_pole(ref_params, ref_mode):
    # nearest TM pole is many TE linewidths away
    window = (0.98 * ref_mode.k0, 1.02 * ref_mode.k0)
    tm = find_resonance("TM", 120, window, ref_params)
    distances = [abs(m.k0 - ref_mode.k0) for m in tm]
    assert distances, "expected a TM pole in the +-2% window"
    nearest = min(distances)
    assert nearest > 1e6 * ref_mode.kappa_c


def test_q_monotone_in_index():
    # stronger confinement: fundamental-mode Q never decreases with n
    R = 10e-6
    qs = []
    for n in (1.3, 1.5, 1.7, 2.0):
        p = SphereParams(R=R, n=n)
        modes = find_resonance("TE", 20, (14.0 / R, 22.0 / R), p, scan_points=3000)
        assert modes
        qs.append(max(m.Q for m in modes))
    assert all(b >= a for a, b in zip(qs, qs[1:])), qs


# --- radial profiles -------------------------------------------------------------

def test_exterior_asymptotic_amplitude():
    # r u(r) envelope -> sqrt(2/pi) far outside; probe with quarter-period pairs
    p = SphereParams(R=10e-6, n=1.52)
    R = p.R
    modes = find_resonance("TE", 2, (1.5 / R, 4.5 / R), p, scan_points=3000)
    mode = modes[0]
    k0 = mode.k0
    r1 = 2000.0 / k0
    r2 = r1 + 0.5 * math.pi / k0
    grid = np.array([0.0, 0.5 * R, R, r1, r2])
    # k0 r = 2000 lies past the tight Bessel envelope (|z| <= 800)
    with pytest.warns(AccuracyWarning):
        u = radial_profile(mode, p, grid)
    amp = math.hypot(grid[3] * u[3], grid[4] * u[4])
    assert amp == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-6)


def test_profile_free_limit_matches_plane_wave():
    # n = 1: u = sqrt(2/pi) k j_l(k r) everywhere
    from wgmspin.specfun import spherical_bessel_j

    p = SphereParams(R=10e-6, n=1.0)
    k0 = 0.9 * K_REF
    mode = ModeRecord(polarization="TE", l=15, k0=k0, kappa_c=1.0, Q=k0)
    grid = np.linspace(0.0, 3.0 * p.R, 901)
    u = radial_profile(mode, p, grid)
    want = math.sqrt(2.0 / math.pi) * k0 * np.array(
        [spherical_bessel_j(15, complex(k0 * r)).real for r in grid])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(u - want)) / scale < 1e-8


def test_profile_continuous_at_surface(ref_params, ref_mode):
    R = ref_params.R
    eps = 1e-7 * R
    grid = np.array([0.0, R - eps, R, R + eps])
    u = radial_profile(ref_mode, ref_params, grid)
    left, right = u[1], u[3]
    assert right == pytest.approx(left, rel=1e-4)


def test_profile_split_at_surface_keeps_the_bits(ref_params, ref_mode):
    # a grid that crosses R: its interior, up to R itself, and its exterior,
    # each evaluated apart (the exterior behind a lone r = 0), give the bits
    # of the whole grid
    R = ref_params.R
    grid = np.concatenate((np.linspace(0.0, R, 601), np.linspace(R, 1.5 * R, 301)[1:]))
    u = radial_profile(ref_mode, ref_params, grid)
    inside = radial_profile(ref_mode, ref_params, grid[:601])
    outside = radial_profile(ref_mode, ref_params, np.concatenate(([0.0], grid[601:])))[1:]
    assert grid[600] == R and grid[601] > R
    assert u.tobytes() == np.concatenate((inside, outside)).tobytes()


def test_profile_grid_must_cover_sphere(ref_params, ref_mode):
    with pytest.raises(ValueError):
        radial_profile(ref_mode, ref_params, np.linspace(0, 0.5 * ref_params.R, 100))
    with pytest.raises(ValueError):
        radial_profile(ref_mode, ref_params,
                       np.linspace(0.3 * ref_params.R, 2.0 * ref_params.R, 100))
    with pytest.raises(ValueError, match="strictly increasing"):
        radial_profile(ref_mode, ref_params, np.linspace(2.0 * ref_params.R, 0.0, 100))


def test_continuum_orthogonality_decay():
    from scipy.integrate import trapezoid

    # off-diagonal overlap / diagonal overlap ~ 1/(dk L): drops with domain size
    p = SphereParams(R=10e-6, n=1.52)
    R = p.R
    modes = find_resonance("TE", 8, (6.5 / R, 9.5 / R), p, scan_points=3000)
    mode = modes[0]
    k1 = mode.k0
    k2 = 1.07 * k1
    mode2 = ModeRecord(polarization="TE", l=8, k0=k2, kappa_c=mode.kappa_c,
                       Q=k2 / mode.kappa_c)
    eps_weight = lambda r: np.where(r <= R, p.n**2, 1.0)
    ratios = []
    for L in (60.0 * R, 240.0 * R):
        grid = np.linspace(0.0, L, int(40 * k2 * L / (2 * math.pi)) + 1)
        # k r reaches ~500, inside the tight envelope |z| <= 800, and ~2000,
        # past it
        with pytest.warns(AccuracyWarning) if k2 * L > TIGHT_ARG else nullcontext():
            u1 = radial_profile(mode, p, grid)
        with pytest.warns(AccuracyWarning) if k2 * L > TIGHT_ARG else nullcontext():
            u2 = radial_profile(mode2, p, grid)
        w = eps_weight(grid) * grid**2
        off = abs(trapezoid(w * u1 * u2, grid))
        diag = trapezoid(w * u1 * u1, grid)
        ratios.append(off / diag)
    assert ratios[1] < 0.5 * ratios[0]
    assert ratios[1] < 0.02

