import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgmspin import specfun
from wgmspin.specfun import (
    MAX_ORDER,
    AccuracyWarning,
    _miller_start,
    angular_momentum_matrices,
    riccati_bessel,
    spherical_bessel_j,
    spherical_hankel1,
)

from oracles import sph_h1_oracle, sph_j_oracle

RNG_SEED = 20260811


# --- closed forms ------------------------------------------------------------

def test_j0_closed_form():
    assert spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)


def test_jl_zero_argument():
    assert spherical_bessel_j(2, 0.0) == 0.0
    assert spherical_bessel_j(0, 0.0) == 1.0


def test_h0_closed_form():
    # h_0^(1)(x) = -i e^{ix} / x
    got = spherical_hankel1(0, 1.0)
    want = complex(math.sin(1.0), -math.cos(1.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_h1_at_imaginary_argument():
    # h_1^(1)(z) = -e^{iz}(z + i)/z^2; at z = i this is 2i/e
    got = spherical_hankel1(1, 1j)
    want = 2j / math.e
    assert got == pytest.approx(want, rel=1e-14)


# --- frozen oracle values (ascending series, >= 50 digits) -------------------

def test_j_wgm_regime_frozen():
    assert spherical_bessel_j(120, 128.5) == pytest.approx(
        0.0063038236286901676, rel=1e-10)


def test_h1_wgm_regime_frozen():
    got = spherical_hankel1(120, 84.5 + 0.001j)
    want = complex(-32162.883514110101, -31634961.085152574)
    assert abs(got - want) / abs(want) < 1e-10


def test_j_evanescent_frozen():
    assert spherical_bessel_j(120, 84.5) == pytest.approx(
        2.1776129555027576e-12, rel=1e-10)


def test_y_frozen():
    # y_l is Im h_l for real z
    assert spherical_hankel1(120, 84.5).imag == pytest.approx(
        -31634977.813819837, rel=1e-10)


# --- live oracle sample -------------------------------------------------------

def test_j_against_series_oracle_any_phase():
    # j (Miller + dual normalization) holds its contract at any argument phase
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        phase = float(rng.uniform(-0.3, 0.3))
        z = x * cmath.exp(1j * phase)
        jref = complex(sph_j_oracle(l, z))
        if abs(jref) < 1e-270 or abs(jref) > 1e270:
            continue
        jgot = spherical_bessel_j(l, z)
        assert abs(jgot - jref) / abs(jref) < 1e-10, (l, z)


def test_h_against_series_oracle_strip():
    # h's tight envelope is the strip |Im z| <= 1 around the real axis,
    # where all quasinormal-pole evaluations live
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        z = complex(x, float(rng.uniform(-1.0, 1.0)))
        href = complex(sph_h1_oracle(l, z))
        if abs(href) > 1e270:
            continue
        hgot = spherical_hankel1(l, z)
        assert abs(hgot - href) / abs(href) < 1e-10, (l, z)


def test_real_arguments_against_scipy():
    # a float64 argument runs the ladders in real arithmetic
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(300):
        l = int(rng.integers(0, 201))
        x = float(rng.uniform(0.3, 300.0))
        yref = scipy_special.spherical_yn(l, x)
        if abs(yref) <= 1e250:
            yl = spherical_hankel1(l, x).imag
            assert abs(yl - yref) <= 1e-10 * abs(yref), (l, x)
        ref = scipy_special.spherical_jn(l, x)
        if abs(ref) < 1e-250:
            continue
        got = spherical_bessel_j(l, x)
        assert abs(got - ref) <= 1e-10 * abs(ref) + 1e-25, (l, x)


def test_real_input_dtypes():
    # real z: j, psi, psi' are float64 (as scipy's spherical_jn); h, xi,
    # xi' are complex128; complex z gives complex128 throughout
    for z in (84.5, np.linspace(80.0, 90.0, 5)):
        psi, psip, xi, xip = riccati_bessel(120, z)
        real = (spherical_bessel_j(120, z), psi, psip)
        assert all(f.dtype == np.float64 for f in real)
        assert all(f.dtype == np.complex128
                   for f in (spherical_hankel1(120, z), xi, xip))
        zc = np.asarray(z, dtype=complex)
        assert all(f.dtype == np.complex128
                   for f in (spherical_bessel_j(120, zc), *riccati_bessel(120, zc)))


# --- Riccati-Bessel -----------------------------------------------------------

def test_riccati_psi0_at_pi():
    psi, _, _, _ = riccati_bessel(0, math.pi)
    assert abs(psi) < 1e-12


def test_riccati_wronskian_random():
    # psi xi' - psi' xi = i everywhere
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(50):
        l = int(rng.integers(0, 180))
        x = float(rng.uniform(0.5, 250.0))
        z = complex(x, float(rng.uniform(-0.5, 0.5)))
        psi, psip, xi, xip = riccati_bessel(l, z)
        w = psi * xip - psip * xi
        assert abs(w - 1j) < 1e-10, (l, z)


def test_riccati_consistent_with_bessel_functions():
    z = 84.5 + 0.0j
    l = 120
    psi, psip, xi, xip = riccati_bessel(l, z)
    j = spherical_bessel_j(l, z)
    h = spherical_hankel1(l, z)
    assert abs(psi - z * j) / abs(psi) < 1e-12
    assert abs(xi - z * h) / abs(xi) < 1e-12


def test_recurrence_consistency():
    # j_{l-1} + j_{l+1} = (2l+1)/x j_l
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(40):
        l = int(rng.integers(1, 200))
        x = complex(float(rng.uniform(1.0, 290.0)), float(rng.uniform(-0.2, 0.2)))
        jm = spherical_bessel_j(l - 1, x)
        j0 = spherical_bessel_j(l, x)
        jp = spherical_bessel_j(l + 1, x)
        lhs = jm + jp
        rhs = (2 * l + 1) / x * j0
        scale = max(abs(jm), abs(jp), abs(rhs))
        if scale == 0:
            continue
        assert abs(lhs - rhs) / scale < 1e-10, (l, x)


@settings(max_examples=40, deadline=None)
@given(l=st.integers(min_value=0, max_value=60),
       x=st.floats(min_value=0.5, max_value=150.0),
       y=st.floats(min_value=-0.4, max_value=0.4))
def test_wronskian_property(l, x, y):
    psi, psip, xi, xip = riccati_bessel(l, complex(x, y))
    assert abs(psi * xip - psip * xi - 1j) < 1e-10


# --- domain and accuracy contracts ---------------------------------------------

def test_order_domain_error():
    with pytest.raises(ValueError):
        spherical_bessel_j(501, 10.0)
    # an integral float is not an integer order: the ladders need range(l)
    for func in (spherical_bessel_j, spherical_hankel1, riccati_bessel):
        for l in (2.0, 2.5):
            with pytest.raises(ValueError, match="non-negative integer"):
                func(l, 1.5)
        func(np.int64(2), 1.5)
    # the spin-l matrices take the same order rule
    with pytest.raises(ValueError, match="exceeds validated maximum"):
        angular_momentum_matrices(MAX_ORDER + 1)
    with pytest.raises(ValueError, match="non-negative integer"):
        angular_momentum_matrices(2.0)
    assert angular_momentum_matrices(np.int64(2)).l == 2


def test_hankel_zero_argument_error():
    with pytest.raises(ValueError):
        spherical_hankel1(0, 0.0)
    with pytest.raises(ValueError):
        spherical_hankel1(3, 0.0)


@pytest.mark.parametrize("func", [spherical_bessel_j, spherical_hankel1, riccati_bessel])
@pytest.mark.parametrize("z", [math.nan, math.inf, complex(math.nan, 0.0), [1.0, math.nan]],
                         ids=["nan", "inf", "nan+0j", "vector"])
def test_non_finite_argument_error(func, z):
    # named before any ladder runs: there, nan would come out of j as 0
    # behind an overflow warning, and inf would fail converting the Miller
    # start to an int
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="argument z must be finite"):
            func(3, z)


def test_relaxed_accuracy_warning():
    with pytest.warns(AccuracyWarning):
        spherical_bessel_j(250, 10.0)
    with pytest.warns(AccuracyWarning):
        spherical_bessel_j(10, 350.0)


def test_underflow_to_zero_below_double_range():
    # l >> |z|: true value < 1e-300, correctly rounded double is 0, on the
    # strip and off it (j_200(3 - 1.5i) ~ 6.4e-332)
    assert spherical_bessel_j(120, 1e-3) == 0.0
    assert spherical_bessel_j(200, 3 - 0.9j) == 0.0
    assert spherical_bessel_j(200, 3 - 1.5j) == 0.0
    # while j_180 at the same off-strip argument (~8.5e-291) is still resolved
    jref = complex(sph_j_oracle(180, 3 - 1.5j))
    assert abs(spherical_bessel_j(180, 3 - 1.5j) - jref) / abs(jref) < 1e-10


def test_y_overflow_signalled():
    with pytest.raises(OverflowError):
        spherical_hankel1(120, 1e-3)
    with pytest.raises(OverflowError):
        riccati_bessel(120, 1e-3)


def test_vectorized_matches_scalar():
    zs = np.array([5.0 + 0j, 20.0 + 0.1j, 84.5 + 0j])
    vec = spherical_bessel_j(120, zs)
    for z, v in zip(zs, vec):
        assert v == spherical_bessel_j(120, z)


@pytest.mark.parametrize("zs", [
    np.array([5.0 + 0j, 20.0 + 0.1j, 60.0 - 0.5j, 84.5 - 1e-3j, 90.0 + 1e-6j]),
    np.array([5.0, 20.0, 60.0, 84.5, 90.0]),
    np.linspace(5.0, 90.0, 600),
], ids=["complex", "real", "real, one row per step"])
def test_riccati_and_hankel_vectorized_match_scalar(zs):
    # every |z| here is below the l = 120 turning point, so a vector and each
    # of its elements share one Miller start and must agree bit for bit. The
    # 600-point vector's (2n + 3)/z tables exceed _TABLE_BYTES, so it takes
    # one row per step while each scalar call builds the table
    vec = riccati_bessel(120, zs)
    hvec = spherical_hankel1(120, zs)
    for i, z in enumerate(zs):
        for v, s in zip(vec, riccati_bessel(120, z)):
            assert v[i] == s, (z, v[i], s)
        assert hvec[i] == spherical_hankel1(120, z)


@pytest.mark.parametrize("l", [300, 400, 500])
def test_riccati_large_order_matches_mpmath(l):
    # the Miller start past criterion 7's l <= 200, on whispering-gallery
    # arguments x in [0.6 l, 1.6 l] just below the real axis; mpmath's
    # cylinder functions at 60 digits are the reference
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(60):
        for x in np.linspace(0.6 * l, 1.6 * l, 9):
            for im in (0.0, -1e-3):
                z = complex(x, im)
                zm = mp.mpc(z)
                half = mp.sqrt(mp.pi / (2 * zm))
                jl, jm = (half * mp.besselj(nu, zm) for nu in (l + 0.5, l - 0.5))
                hl, hm = (half * (mp.besselj(nu, zm) + 1j * mp.bessely(nu, zm))
                          for nu in (l + 0.5, l - 0.5))
                want = (zm * jl, zm * jm - l * jl, zm * hl, zm * hm - l * hl)
                with pytest.warns(AccuracyWarning):
                    got = riccati_bessel(l, z)
                for g, w in zip(got, want):
                    w = complex(w)
                    worst = max(worst, abs(g - w) / abs(w))
    assert worst <= 1e-10


def _mpmath_riccati(l, z):
    """(psi, psi', xi, xi') and j_l at z from mpmath's cylinder functions of
    order l + 1/2 at 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        zm = mp.mpc(z)
        half = mp.sqrt(mp.pi / (2 * zm))
        jl, jm = (half * mp.besselj(nu, zm) for nu in (l + 0.5, l - 0.5))
        hl, hm = (half * (mp.besselj(nu, zm) + 1j * mp.bessely(nu, zm))
                  for nu in (l + 0.5, l - 0.5))
        want = (zm * jl, zm * jm - l * jl, zm * hl, zm * hm - l * hl)
        return tuple(complex(w) for w in want), complex(jl)


def _ladder_bits(l, z):
    (jlm1, jl), (ylm1, yl), over = specfun._j_ladder(l, z)
    return [f.tobytes() for f in (jlm1, jl, ylm1, yl, over)]


@pytest.mark.parametrize("l", [1, 20, 120, 300])
def test_table_and_row_per_step_give_the_same_bits(l, monkeypatch):
    # _recur takes c/z from one table or one row per step, by the table's
    # size alone; the products are the same, so every bit of the ladder is,
    # NaN and inf included: a stacked complex scan, a real grid from near 0
    # (Miller rescales, y overflows) and off-strip z (the continuation)
    k = np.linspace(80.0, 130.0, 40) - 1e-4j
    real = np.linspace(1e-3, 30.0, 300)
    zs = {"scan": np.stack([1.52 * k, k]), "real grid": real,
          "off strip": np.array([15.0 - 2.0j, 30.0 - 1.5j, 100.0 - 3.0j, 2.0 + 1.2j])}
    assert np.any(specfun._j_ladder(120, real)[2])
    bits = {}
    for limit in (0, 2**40):
        monkeypatch.setattr(specfun, "_TABLE_BYTES", limit)
        bits[limit] = {name: _ladder_bits(l, z) for name, z in zs.items()}
    assert bits[0] == bits[2**40]


def test_table_bounded_by_table_bytes(monkeypatch):
    # 800 real points at l = 120 would need tables of ~450 and ~525 KiB, about
    # twice _TABLE_BYTES, so the call takes one row per step and its traced
    # peak stays below the limit; with the limit lifted the table shows
    z = np.linspace(5.0, 90.0, 800)
    limit = specfun._TABLE_BYTES
    peaks = []
    for table_bytes in (limit, 2**40):
        monkeypatch.setattr(specfun, "_TABLE_BYTES", table_bytes)
        tracemalloc.start()
        try:
            riccati_bessel(120, z)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < limit < peaks[1], peaks


# (l, arguments, branch): the Miller ladder takes m = nstart - l + 2 steps and
# the y ladder l; they step together for min(m, l) steps, then the longer one
# finishes alone
@pytest.mark.parametrize("l, zs, branch", [
    (120, [84.0, 100.0, 128.0, 100.0 - 1e-3j], "y longer"),
    (80, [95.98], "y longer by one step"),
    (2, [250.0, 250.0 - 0.5j], "Miller longer"),
    (3, [250.0, 249.0 + 0.5j], "Miller longer"),
    (30, [16.25], "Miller longer by one step"),
    (0, [0.5, 3.0, 250.0 - 0.5j], "no lockstep step"),
    (1, [0.5, 3.0, 250.0 - 0.5j], "one lockstep step"),
    (20, [15.0 - 2.0j, 30.0 - 1.5j], "off strip"),
    (120, [100.0 - 1.5j], "off strip"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_lockstep_ladders_match_mpmath(l, zs, branch):
    # every branch of the stacked Miller/y ladder holds the 1e-10 contract
    # for riccati_bessel and spherical_bessel_j, called per argument and on
    # the whole vector; off the strip the Miller ladder goes on to order -1
    for z in zs:
        m = _miller_start(l, np.array([z])) - l + 2
        assert {"y longer": m < l, "y longer by one step": m == l - 1,
                "Miller longer": m > l, "Miller longer by one step": m == l + 1,
                "no lockstep step": l == 0, "one lockstep step": l == 1,
                "off strip": abs(z.imag) > 1.0}[branch], (z, m)
    wants = [_mpmath_riccati(l, z) for z in zs]
    off = any(abs(complex(z).imag) > 1.0 for z in zs)
    with warnings.catch_warnings():
        # off the strip the xi half of riccati_bessel warns as relaxed
        warnings.simplefilter("ignore" if off else "error", AccuracyWarning)
        got_vec = riccati_bessel(l, np.array(zs))
        for i, (z, (want, jwant)) in enumerate(zip(zs, wants)):
            for got in (riccati_bessel(l, z), tuple(f[i] for f in got_vec)):
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-10 * abs(w), (z, g, w)
            for j in (spherical_bessel_j(l, z), spherical_bessel_j(l, np.array(zs))[i]):
                assert abs(j - jwant) <= 1e-10 * abs(jwant), (z, j, jwant)


# --- angular momentum matrices -------------------------------------------------

def test_lz_l1():
    mats = angular_momentum_matrices(1)
    np.testing.assert_allclose(mats.Lz, np.diag([-1.0, 0.0, 1.0]), atol=0)


def test_l0_all_zero():
    mats = angular_momentum_matrices(0)
    for a in (mats.Lx, mats.Ly, mats.Lz):
        assert a.shape == (1, 1)
        np.testing.assert_array_equal(a, 0)


@pytest.mark.parametrize("l", [1, 2, 3, 120])
def test_algebra_invariants(l):
    mats = angular_momentum_matrices(l)
    lx, ly, lz = mats.Lx, mats.Ly, mats.Lz
    for a in (lx, ly, lz):
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12
    for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) <= 1e-12
    casimir = lx @ lx + ly @ ly + lz @ lz
    expected = l * (l + 1) * np.eye(2 * l + 1)
    assert np.max(np.abs(casimir - expected)) <= 1e-12


@pytest.mark.parametrize("l", [1, 3, 120])
def test_selection_rules(l):
    mats = angular_momentum_matrices(l)
    dim = 2 * l + 1
    idx = np.arange(dim)
    dm = idx[:, None] - idx[None, :]
    for a in (mats.Lx, mats.Ly):
        assert np.all(a[np.abs(dm) != 1] == 0)
    assert np.all(mats.Lz[dm != 0] == 0)


def test_matrices_not_retained_between_calls():
    # each call's matrices are freed with their last reference: ten orders
    # of l ~ 60 (3 x 121^2 clongdouble entries each, ~1.4 MB) leave nothing
    tracemalloc.start()
    try:
        angular_momentum_matrices(60)
        before = tracemalloc.get_traced_memory()[0]
        for l in range(60, 70):
            angular_momentum_matrices(l)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 100_000
