import json
import math

import numpy as np
import pytest

from wgmspin.coupling import compute_lambda
from wgmspin.specfun import riccati_bessel
from wgmspin.wgm import (
    _CHARACTERISTIC,
    ModeRecord,
    SphereParams,
    attach_profile,
    default_profile_grid,
    find_resonance,
    modes_to_csv,
    modes_to_json,
    radial_profile,
    te_characteristic,
    tm_characteristic,
)

from oracles import contour_pole_scan

K_REF = 2.0 * math.pi / 743.25e-9


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


def _cauchy_derivative(fn, k, radius, points=32):
    # trapezoidal rule for (1/2 pi i) \oint D(z) / (z - k)^2 dz on a circle;
    # exponentially convergent for the entire function D
    theta = 2.0 * np.pi * np.arange(points) / points
    return np.mean(fn(k + radius * np.exp(1j * theta)) * np.exp(-1j * theta)) / radius


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
@pytest.mark.parametrize("pol", ["TE", "TM"])
@pytest.mark.parametrize("l", [1, 20, 120])
def test_exact_slope_matches_cauchy_derivative(ref_params, pol, l):
    # dD/dk from the Riccati-Bessel ODE against a contour derivative of the
    # public D, on a pole, just off it, and away from it on both sides of the
    # real axis. Radius 0.01/R and 32 nodes give <= 4e-13 relative here.
    R = ref_params.R
    modes = find_resonance(pol, l, _POLE_WINDOWS[l], ref_params, scan_points=3000,
                           max_relative_width=0.6)
    assert modes
    pole = modes[len(modes) // 2].pole
    public = _CHARACTERISTIC_PUBLIC[pol]
    for k in (pole, pole + (1 + 1j) * 1e-3 / R, 1.003 * pole.real - 0.2j / R,
              0.97 * pole.real + 0.1j / R):
        d, slope = _CHARACTERISTIC[pol](l, k, ref_params)
        assert d == public(l, k, ref_params)
        want = _cauchy_derivative(lambda z: public(l, z, ref_params), k, 0.01 / R)
        assert abs(slope - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("l", [1, 20, 120])
def test_characteristic_is_riccati_combination(ref_params, l):
    # D is bit-identical to the Riccati-Bessel combination it stands for
    n, R = ref_params.n, ref_params.R
    rng = np.random.default_rng(l)
    k = K_REF * (0.9 + 0.2 * rng.random(64) - 1j * 10.0 ** rng.uniform(-20, -3, 64))
    psi, psip, _, _ = riccati_bessel(l, k * (n * R))
    _, _, xi, xip = riccati_bessel(l, k * R)
    te = n * psip * xi - psi * xip
    tm = psip * xi - n * psi * xip
    assert te_characteristic(l, k, ref_params).tobytes() == te.tobytes()
    assert tm_characteristic(l, k, ref_params).tobytes() == tm.tobytes()


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


def test_pole_residual_normalized(ref_params, ref_mode):
    window = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)
    ks = np.array(window)
    edge = np.max(np.abs(te_characteristic(120, ks, ref_params)))
    res = abs(te_characteristic(120, ref_mode.pole, ref_params))
    assert res / edge <= 1e-10


def test_pole_stable_under_seed_scan_refinement(ref_params):
    window = (2.0 * math.pi / 751e-9, 2.0 * math.pi / 736e-9)
    coarse = find_resonance("TE", 120, window, ref_params, scan_points=1000)
    fine = find_resonance("TE", 120, window, ref_params, scan_points=2000)
    assert len(coarse) == len(fine) == 1
    assert abs(coarse[0].k0 - fine[0].k0) / fine[0].k0 < 1e-12


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


def _oracle_poles(fn, l, params, re_range, im_depth):
    def f_vec(k):
        return fn(l, k, params)
    return contour_pole_scan(f_vec, re_range, (-im_depth, -1e-12 * re_range[1]))


@pytest.mark.filterwarnings("ignore::wgmspin.specfun.AccuracyWarning")
def test_low_l_poles_match_contour_oracle():
    # very lossy l=1 modes of the reference sphere in x = kR in [0.1, 5]
    p = SphereParams(R=10e-6, n=1.52)
    R = p.R
    window = (0.1 / R, 5.0 / R)
    # widened width cut so the pole sitting right at kappa_c/k0 = 0.5 is
    # compared robustly on both sides
    found = find_resonance("TE", 1, window, p, scan_points=4000,
                           max_relative_width=0.6)
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
    prof = radial_profile(mode, p, grid)
    amp = math.hypot(grid[3] * prof.u[3], grid[4] * prof.u[4])
    assert amp == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-6)


def test_profile_free_limit_matches_plane_wave():
    # n = 1: u = sqrt(2/pi) k j_l(k r) everywhere
    from wgmspin.specfun import spherical_bessel_j

    p = SphereParams(R=10e-6, n=1.0)
    k0 = 0.9 * K_REF
    mode = ModeRecord(polarization="TE", l=15, k0=k0, kappa_c=1.0, Q=k0)
    grid = np.linspace(0.0, 3.0 * p.R, 901)
    prof = radial_profile(mode, p, grid)
    want = math.sqrt(2.0 / math.pi) * k0 * np.array(
        [spherical_bessel_j(15, complex(k0 * r)).real for r in grid])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(prof.u - want)) / scale < 1e-8


def test_profile_continuous_at_surface(ref_params, ref_mode):
    R = ref_params.R
    eps = 1e-7 * R
    grid = np.array([0.0, R - eps, R, R + eps])
    prof = radial_profile(ref_mode, ref_params, grid)
    left, right = prof.u[1], prof.u[3]
    assert right == pytest.approx(left, rel=1e-4)


def test_profile_grid_must_cover_sphere(ref_params, ref_mode):
    with pytest.raises(ValueError):
        radial_profile(ref_mode, ref_params, np.linspace(0, 0.5 * ref_params.R, 100))
    with pytest.raises(ValueError):
        radial_profile(ref_mode, ref_params,
                       np.linspace(0.3 * ref_params.R, 2.0 * ref_params.R, 100))


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
        u1 = radial_profile(mode, p, grid).u
        u2 = radial_profile(mode2, p, grid).u
        w = eps_weight(grid) * grid**2
        off = abs(trapezoid(w * u1 * u2, grid))
        diag = trapezoid(w * u1 * u1, grid)
        ratios.append(off / diag)
    assert ratios[1] < 0.5 * ratios[0]
    assert ratios[1] < 0.02


# --- exports ----------------------------------------------------------------------

def test_mode_table_exports(tmp_path, ref_mode):
    csv_path = tmp_path / "modes.csv"
    json_path = tmp_path / "modes.json"
    modes_to_csv([ref_mode], csv_path)
    modes_to_json([ref_mode], json_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "pol,l,k0,lambda_vac,kappa_c,Q"
    rows = json.loads(json_path.read_text())
    assert rows[0]["pol"] == "TE"
    assert set(rows[0]) == {"pol", "l", "k0", "lambda_vac", "kappa_c", "Q"}
    assert rows[0]["k0"] == ref_mode.k0
