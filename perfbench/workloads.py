"""Seeded inputs, requests and correctness checks of the three workloads.

Each workload is a deterministic stream of requests derived from the seed:
request i belongs to block i // BLOCK, and each block is drawn from its own
generator, stratified so that every block has the same mix of request kinds
and covers each parameter range evenly. The first FIXED requests of the
stream form the fixed set: every run executes it, the traced run times it
again and again, and the deterministic accuracy figures are taken over it.

A request is timed from the first call into wgmspin to the return of the
last one. Its check runs afterwards, untimed, and returns None or a Failure.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wgmspin import coupling, dynamics, wgm
from wgmspin.constants import HBAR

# Reference problem of the paper: R = 10 um, n^2 = 2.31, TE l = 120.
REF_R = 10e-6
REF_N = math.sqrt(2.31)
REF_L = 120
REF_LAMBDA_NM = 743.245
# Frozen reference values and their tolerances. None is looser than the
# acceptance suite's: lambda_vac rel 1e-9 (tests/test_wgm.py), Lambda
# rel 1e-5 (tests/test_coupling.py), pole residual 1e-10 of the window-edge
# |D| (tests/test_wgm.py). Q has no frozen value in the suite; 1e-6 is far
# above its window-to-window scatter (about 1e-8) and far below a lost digit.
REF_LAMBDA_VAC = 7.432450251524547e-07
REF_LAMBDA_VAC_REL = 1e-9
REF_Q = 3.6718416331869304e20
REF_Q_REL = 1e-6
REF_LAMBDA = 1.1238737
REF_LAMBDA_REL = 1e-5
POLE_RESIDUAL = 1e-10
# Criterion-4 conservation contract and criteria 5/6 rate tolerance.
DRIFT_LIMITS = {"abs_S": 1e-13, "abs_omega": 1e-13, "K": 1e-12, "H_r": 1e-10}
RATE_REL = 1e-6
OMEGA_NORM_DRIFT = 1e-12   # step_general with dGamma/dt = 0 (criterion 6)
# Survey Lambda has no frozen value. Resolved TE modes at n^2 = 2.31 give
# 0.9 < Lambda < 1.5 for l = 40..147; a value outside this wider range means
# kappa_c or the matching coefficients were not resolved in double precision.
LAMBDA_PLAUSIBLE = (0.5, 2.0)
# Survey l range: every request in it is solved. From TE l = 148 up the
# program misses poles or returns an unresolved Lambda (ROADMAP item 5).
# KNOWN_DEFECTS, (polarization, l, scan_points) of three such failures, is
# probed once per run, outside the measurement.
SURVEY_L = (40, 147)
KNOWN_DEFECTS = (("TE", 148, 1200), ("TE", 200, 2000), ("TM", 180, 2000))

AIRY_A1 = 2.338107410459767   # first zero of Ai(-z)


@dataclass
class Failure:
    """Why a request failed: a result contradicts a reference value or a
    contract, or the request raised."""

    cause: str


# Speed kernels: fixed tasks that call nothing in wgmspin, timed just before
# each request; their time follows the host's phases of speed (README,
# "Machine speed"). *_REF_MS is each kernel's time in a fast phase of the
# machine the baseline was measured on.
_KERNEL_X = np.linspace(1.0, 50.0, 4000)
NUMPY_KERNEL_REF_MS = 2.5
PROCESS_KERNEL_REF_MS = 40.0        # python3 -c pass
IMPORT_KERNEL_REF_MS = 130.0        # python3 -c "import numpy"


def numpy_kernel():
    """Milliseconds for a rescaled three-term recurrence over 4000 points,
    shaped like the Bessel ladders."""
    x = _KERNEL_X
    t0 = time.perf_counter_ns()
    a, b = np.ones_like(x), x.copy()
    for k in range(100):
        a, b = b, (2 * k + 1) / x * b - a
        big = np.abs(b) > 1e200
        a, b = np.where(big, a * 1e-200, a), np.where(big, b * 1e-200, b)
    return (time.perf_counter_ns() - t0) / 1e6


def process_kernel(code="pass"):
    """Milliseconds to start a Python interpreter, run `code` and end."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter_ns() - t0) / 1e6


def _rel(got, want):
    return abs(got - want) / abs(want)


def _rng(seed, block, tag):
    return np.random.default_rng([seed % 2**64, block, tag])


def _strata(rng, lo, hi, n):
    """n values in [lo, hi], one per equal-width stratum, in random order."""
    edges = np.linspace(lo, hi, n + 1)
    vals = edges[:-1] + rng.random(n) * (edges[1:] - edges[:-1])
    return list(rng.permutation(vals))


def lly_wavenumber(l, polarization, n, R):
    """First-order (s = 1) WGM position k = x/R from the asymptotic series of
    Lam, Leung & Young, JOSA B 9, 1585 (1992), through order nu^(-2/3)."""
    nu = l + 0.5
    p = 1.0 if polarization == "TE" else 1.0 / (n * n)
    c = 2.0 ** (-1.0 / 3.0)
    a = AIRY_A1
    nx = (nu + c * a * nu ** (1 / 3) - p * n / math.sqrt(n * n - 1)
          + 0.3 * c * c * a * a * nu ** (-1 / 3)
          - c * p * n * (n * n - 2 * p * p / 3) * a * nu ** (-2 / 3)
          / (n * n - 1) ** 1.5)
    return nx / (n * R)


class Workload:
    """A seeded request stream with its timed call, check and accuracy."""

    BLOCK = 1
    FIXED = 1
    KERNEL_REF_MS = NUMPY_KERNEL_REF_MS

    @staticmethod
    def speed_kernel():
        """Milliseconds of the workload's speed kernel."""
        return numpy_kernel()

    def __init__(self, seed, root: Path):
        self.seed = seed
        self.root = root
        self._blocks = {}

    def request(self, i):
        b = i // self.BLOCK
        if b not in self._blocks:
            self._blocks = {b: self.make_block(b)}
        return self._blocks[b][i % self.BLOCK]

    def inputs_digest(self, n):
        """Canonical text of the first n requests (seed-determinism self-test)."""
        return "\n".join(describe(self.request(i)) for i in range(n))

    def setup(self):
        """Generate the fixed set and run one untimed warm-up request."""
        fixed = [self.request(i) for i in range(self.FIXED)]
        warm = self.warmup_request()
        self.check(warm, self.run(warm))
        return fixed

    def accuracy_sample(self, req, out):
        """Scalar accuracy figure of one fixed-set request, or None."""
        return None

    def known_defects(self):
        """(request, Failure or None) for program defects the workload's
        input ranges leave out; reported, not counted."""
        return []

    def accuracy(self, samples):
        return {}


def describe(req):
    out = []
    for k, v in sorted(vars(req).items()):
        if isinstance(v, np.ndarray):
            v = v.tobytes().hex()
        out.append(f"{k}={v!r}")
    return " ".join(out)


# --- mode_solve -------------------------------------------------------------

@dataclass
class ModeRequest:
    kind: str            # "reference" or "survey"
    polarization: str
    l: int
    window: tuple        # (k_lo, k_hi) [1/m]
    scan_points: int
    N: float = 1e5


class ModeSolve(Workload):
    """find_resonance on the reference problem and on a TE/TM survey; TE
    requests go on through profile, Lambda and the rate estimates."""

    BLOCK = 16
    FIXED = 32

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.params = wgm.SphereParams(R=REF_R, n=REF_N)

    def make_block(self, b):
        rng = _rng(self.seed, b, 1)
        reqs = []
        for sp in _strata(rng, 500, 4000, 8):
            lam_lo = rng.uniform(720.0, 742.0) * 1e-9
            lam_hi = rng.uniform(744.5, 770.0) * 1e-9
            reqs.append(ModeRequest("reference", "TE", REF_L,
                                    (2 * math.pi / lam_hi, 2 * math.pi / lam_lo),
                                    int(sp)))
        sps = _strata(rng, 500, 4000, 8)
        for pol in ("TE", "TM"):
            for l in _strata(rng, SURVEY_L[0], SURVEY_L[1] + 1, 4):
                l = min(int(l), SURVEY_L[1])
                reqs.append(self.survey_request(pol, l, int(sps.pop())))
        return [reqs[j] for j in rng.permutation(len(reqs))]

    @staticmethod
    def survey_request(polarization, l, scan_points):
        k = lly_wavenumber(l, polarization, REF_N, REF_R)
        return ModeRequest("survey", polarization, l, (0.99 * k, 1.01 * k), scan_points)

    def known_defects(self):
        """(request, Failure or None) for each KNOWN_DEFECTS case; untimed
        and not counted."""
        out = []
        for pol, l, scan_points in KNOWN_DEFECTS:
            req = self.survey_request(pol, l, scan_points)
            out.append((req, self.check(req, self.run(req))))
        return out

    def warmup_request(self):
        lam_lo, lam_hi = 736e-9, 751e-9
        return ModeRequest("reference", "TE", REF_L,
                           (2 * math.pi / lam_hi, 2 * math.pi / lam_lo), 2000)

    def run(self, req):
        p = self.params
        modes = wgm.find_resonance(req.polarization, req.l, req.window, p,
                                   scan_points=req.scan_points)
        out = {"modes": modes}
        if req.polarization == "TE" and modes:
            best = wgm.attach_profile(max(modes, key=lambda m: m.Q), p)
            cc = coupling.compute_lambda(best, p)
            out["cc"] = cc
            out["estimate"] = coupling.precession_rate_estimate(
                p, req.N, req.l, cc.lambda_)
            out["thresholds"] = [
                coupling.resolvability_threshold(cc.lambda_, m, best.Q, best.k0)
                for m in (1, 10, req.l)]
        return out

    def check(self, req, out):
        modes = out["modes"]
        if not modes:
            return Failure(f"no pole in window: {req.kind} {req.polarization} "
                           f"l={req.l} scan_points={req.scan_points}")
        fn = wgm.te_characteristic if req.polarization == "TE" else wgm.tm_characteristic
        edge = float(np.max(np.abs(fn(req.l, np.array(req.window), self.params))))
        for m in modes:
            res = abs(fn(req.l, m.pole, self.params)) / edge
            if not res <= POLE_RESIDUAL:
                return Failure(f"pole residual {res:.2e} > {POLE_RESIDUAL:g}"
                               f" ({req.polarization} l={req.l})")
            if not (req.window[0] <= m.k0 <= req.window[1] and m.kappa_c > 0):
                return Failure(f"pole {m.pole} outside window or not decaying")
        if req.polarization == "TE":
            lam = out["cc"].lambda_
            values = [lam, out["estimate"].exact_hz, *out["thresholds"]]
            if not all(math.isfinite(v) for v in values):
                return Failure(f"non-finite Lambda or estimate {values}")
            if not LAMBDA_PLAUSIBLE[0] <= lam <= LAMBDA_PLAUSIBLE[1]:
                best = max(modes, key=lambda m: m.Q)
                return Failure(f"Lambda {lam:.3g} outside {LAMBDA_PLAUSIBLE}: "
                               f"TE l={req.l} Q={best.Q:.1e}")
        if req.kind == "reference":
            best = max(modes, key=lambda m: m.Q)
            for label, got, want, tol in (
                    ("lambda_vac", best.lambda_vac, REF_LAMBDA_VAC, REF_LAMBDA_VAC_REL),
                    ("Q", best.Q, REF_Q, REF_Q_REL),
                    ("Lambda", out["cc"].lambda_, REF_LAMBDA, REF_LAMBDA_REL)):
                if not _rel(got, want) <= tol:
                    return Failure(f"reference {label} {got!r} off {want!r} "
                                   f"by {_rel(got, want):.2e} > {tol:g}")
        return None

    def accuracy_sample(self, req, out):
        if req.kind != "reference" or "cc" not in out:
            return None
        return (out["cc"].lambda_, max(out["modes"], key=lambda m: m.Q).kappa_c)

    def accuracy(self, samples):
        """Spread of Lambda and kappa_c over the reference requests of the
        fixed set, which differ only in window and scan density."""
        def spread(v):
            return (max(v) - min(v)) / float(np.median(v)) if v else float("nan")
        return {"lambda_spread_rel": spread([lam for lam, _ in samples]),
                "kappa_spread_rel": spread([kap for _, kap in samples])}


# --- spin_dynamics ------------------------------------------------------------

@dataclass
class SpinRequest:
    kind: str            # "simulate", "step_wgm" or "step_general"
    l: int
    alpha: np.ndarray    # coherent amplitudes, m = -l..l
    S_expected: np.ndarray
    omega0: np.ndarray
    dt: float
    n_steps: int
    sample_every: int
    gamma: np.ndarray = field(default_factory=lambda: np.zeros(3))


def coherent_amplitudes(l, theta, phi, N):
    """Spin-coherent amplitudes of N photons pointing along (theta, phi):
    <S> = N l (sin theta cos phi, sin theta sin phi, cos theta)."""
    m = np.arange(-l, l + 1)
    log_binom = 0.5 * np.array([math.lgamma(2 * l + 1) - math.lgamma(l + k + 1)
                                - math.lgamma(l - k + 1) for k in m])
    log_amp = (log_binom + (l + m) * math.log(math.cos(theta / 2))
               + (l - m) * math.log(math.sin(theta / 2)))
    alpha = np.exp(log_amp) * np.exp(-1j * m * phi)
    return alpha * math.sqrt(N / float(np.sum(np.abs(alpha) ** 2)))


def _unit(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])


def _tilted(u, angle, azimuth):
    """Unit vector at `angle` from unit u, at `azimuth` around it."""
    trial = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    return (math.cos(angle) * u + math.sin(angle)
            * (math.cos(azimuth) * e1 + math.sin(azimuth) * e2))


class SpinDynamics(Workload):
    """Coherent amplitudes -> optical S -> coupled precession; no specfun Bessel
    ladders and no wgm solve."""

    BLOCK = 8
    FIXED = 16
    L_SET = (30, 120, 200, 400)
    KINDS = ("simulate",) * 5 + ("step_wgm",) * 2 + ("step_general",)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.params = wgm.SphereParams(R=REF_R, n=REF_N)
        self._cc = {}

    def constants(self, l):
        # Lambda of the reference mode; the mode record only labels l.
        if l not in self._cc:
            k0 = 2 * math.pi / (REF_LAMBDA_NM * 1e-9)
            mode = wgm.ModeRecord("TE", l, k0, k0 / REF_Q, REF_Q)
            self._cc[l] = coupling.CouplingConstants(
                lambda_=1.1238737302299986, I=self.params.I, mode=mode, l=l)
        return self._cc[l]

    def _make(self, rng, kind, l, s_dominated, steps_u):
        N = 10 ** rng.uniform(4, 6)
        S_dir = _unit(rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi))
        alpha = coherent_amplitudes(l, math.acos(S_dir[2]),
                                    math.atan2(S_dir[1], S_dir[0]), N)
        S = N * l * S_dir
        inertia = self.params.I
        lam = self.constants(l).lambda_
        tilt = rng.uniform(0.3, 1.2)
        w_dir = _tilted(S_dir, tilt, rng.uniform(0, 2 * math.pi))
        if kind == "step_general":
            rate = rng.uniform(0.5, 2.0)
            gamma = inertia * rate * _tilted(w_dir, tilt, rng.uniform(0, 2 * math.pi))
            n = int(800 + 400 * steps_u)
            return SpinRequest(kind, l, alpha, S, w_dir, 0.02 / rate, n, 10, gamma)
        ratio = 10 ** (rng.uniform(-2, -1) if s_dominated else rng.uniform(1, 2))
        omega = ratio * (lam - 1) * HBAR * N * l / inertia * w_dir
        K = inertia * omega - (lam - 1) * HBAR * S
        big_omega = lam * np.linalg.norm(K) / inertia
        dt = rng.uniform(2e-3, 6e-3) / big_omega
        if kind == "simulate":
            n = int(10_000 + 4_000 * steps_u)
        else:
            n = int(1_500 + 1_000 * steps_u)
        return SpinRequest(kind, l, alpha, S, omega, dt, n, 10)

    def make_block(self, b):
        rng = _rng(self.seed, b, 2)
        ls = list(rng.permutation(self.L_SET * 2))
        regimes = list(rng.permutation([True, False] * 4))
        steps = _strata(rng, 0.0, 1.0, 8)
        reqs = [self._make(rng, kind, int(ls[j]), bool(regimes[j]), steps[j])
                for j, kind in enumerate(self.KINDS)]
        return [reqs[j] for j in rng.permutation(len(reqs))]

    def warmup_request(self):
        # The largest l first: its matrices are built while nothing else is
        # cached, so peak RSS does not depend on the order the seed draws l.
        # A short simulate keeps set-up time mostly imports, as elsewhere.
        req = self._make(_rng(self.seed, 0, 20), "simulate", max(self.L_SET), True, 0.0)
        return dataclasses.replace(req, n_steps=2000)

    def run(self, req):
        s = coupling.optical_S_from_amplitudes(req.alpha)
        state = dynamics.SpinState(omega=req.omega0, S=s.S)
        cc = self.constants(req.l)
        if req.kind == "simulate":
            traj = dynamics.simulate(state, cc, req.dt, req.n_steps, req.sample_every)
            return {"S": s, "samples": traj.samples, "trajectory": traj}
        samples = [state]
        cur = state
        if req.kind == "step_wgm":
            for i in range(1, req.n_steps + 1):
                cur = dynamics.step_wgm(cur, req.dt, cc)
                if i % req.sample_every == 0:
                    samples.append(cur)
        else:
            gamma, zero = req.gamma, np.zeros(3)

            def provider(t):
                return gamma, zero
            for i in range(1, req.n_steps + 1):
                cur = dynamics.step_general(cur, req.dt, self.params.I, provider,
                                            project_omega_norm=True)
                if i % req.sample_every == 0:
                    samples.append(cur)
        return {"S": s, "samples": samples}

    def drifts(self, req, out):
        """Relative monitor drifts over the samples (criterion-4 definition)."""
        traj = out.get("trajectory")
        cc = self.constants(req.l)
        if traj is not None:
            abs_s, abs_w, ks, hr = traj.abs_S, traj.abs_omega, traj.K, traj.H_r
        else:
            samples = out["samples"]
            abs_s = np.array([float(np.sqrt(np.sum(s.S * s.S))) for s in samples])
            abs_w = np.array([float(np.sqrt(np.sum(s.omega * s.omega))) for s in samples])
            ks = np.array([dynamics.conserved_K(s, cc).astype(float) for s in samples])
            hr = np.array([dynamics.rotating_frame_energy(s, cc) for s in samples])
        ks = np.asarray(ks, dtype=float)
        return {
            "abs_S": float(np.max(np.abs(abs_s - abs_s[0])) / abs_s[0]),
            "abs_omega": float(np.max(np.abs(abs_w - abs_w[0])) / abs_w[0]),
            "K": float(np.max(np.abs(ks - ks[0])) / np.linalg.norm(ks[0])),
            "H_r": float(np.max(np.abs(hr - hr[0])) / abs(hr[0])),
        }

    def check(self, req, out):
        s = out["S"]
        err = np.linalg.norm(np.asarray(s.S, dtype=float) - req.S_expected) \
            / np.linalg.norm(req.S_expected)
        if not err <= 1e-9:
            return Failure(f"optical S off the coherent-state value by {err:.2e}")
        samples = out["samples"]
        times = [float(x.t) for x in samples]
        if req.kind == "step_general":
            w = np.array([x.omega.astype(float) for x in samples])
            norms = np.linalg.norm(w, axis=1)
            drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
            if not drift <= OMEGA_NORM_DRIFT:
                return Failure(f"step_general |omega| drift {drift:.2e}")
            want = np.linalg.norm(req.gamma) / self.params.I
            got = dynamics.precession_frequency(times, w, req.gamma)
            if got is None or not _rel(got, want) <= RATE_REL:
                return Failure(f"step_general rate {got} != |Gamma|/I {want}")
            return None
        drift = self.drifts(req, out)
        for ch, limit in DRIFT_LIMITS.items():
            if not drift[ch] <= limit:
                return Failure(f"{req.kind} drift {ch} {drift[ch]:.2e} > {limit:g}")
        cc = self.constants(req.l)
        k0 = self.params.I * req.omega0 - (cc.lambda_ - 1.0) * HBAR * req.S_expected
        want = cc.lambda_ * np.linalg.norm(k0) / self.params.I
        measured = 0
        for vecs in ([x.S.astype(float) for x in samples],
                     [x.omega.astype(float) for x in samples]):
            got = dynamics.precession_frequency(times, vecs, k0)
            if got is None:
                continue
            measured += 1
            if not _rel(got, want) <= RATE_REL:
                return Failure(f"{req.kind} precession {got!r} != "
                               f"Lambda|K|/I {want!r} (rel {_rel(got, want):.2e})")
        if not measured:
            return Failure(f"{req.kind}: no measurable precession")
        return None

    def accuracy_sample(self, req, out):
        return None if req.kind == "step_general" else max(self.drifts(req, out).values())

    def accuracy(self, samples):
        return {"drift_max_rel": max(samples, default=float("nan"))}


# --- cli_batch ----------------------------------------------------------------

@dataclass
class CliRequest:
    verb: str
    config: str          # config file text
    window_nm: tuple     # (lambda_min, lambda_max) as written
    scan_points: tuple   # one value, or the sweep values
    sweep: bool
    repeat: int          # 0 or 1: every config runs twice


def spawn(argv, env, cwd, stdout_path, stderr_path, timeout=120.0):
    """Run one process to completion; returns (start ns, end ns, exit code,
    peak RSS in MiB). A process still running after `timeout` is killed."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, t1, proc.returncode, usage.ru_maxrss / 1024.0


class CliBatch(Workload):
    """Cold wgmspin processes, one at a time, on configs generated from
    configs/reference.cfg; each config runs twice."""

    BLOCK = 16
    FIXED = 16
    KERNEL_REF_MS = PROCESS_KERNEL_REF_MS
    # Three quarters of the commands are the light verbs, so the median
    # lands inside one cluster of command costs, not in a gap between two.
    VERBS = ("modes", "modes", "lambda", "lambda", "estimate", "estimate",
             "simulate", "sweep")

    def __init__(self, seed, root, workdir: Path):
        super().__init__(seed, root)
        self.workdir = workdir
        self.reference_cfg = root / "configs" / "reference.cfg"
        self._refs = {}
        self.params = wgm.SphereParams(R=REF_R, n=REF_N)
        self.traced = False
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(workdir))

    def _config_text(self, verb, lam_nm, sps, N, n_steps, m_list):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        cp.optionxform = str
        cp.read(self.reference_cfg)
        ms = cp["mode_search"]
        ms["lambda_min"] = repr(lam_nm[0] * 1e-9)
        ms["lambda_max"] = repr(lam_nm[1] * 1e-9)
        ms["scan_points"] = str(sps[0])
        cp["coupling"]["N"] = repr(N)
        cp["simulation"]["n_steps"] = str(n_steps)
        cp["estimate"]["m_list"] = ", ".join(str(m) for m in m_list)
        if verb == "sweep":
            cp["sweep"] = {"field": "mode_search.scan_points",
                           "values": ", ".join(str(v) for v in sps)}
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def make_block(self, b):
        rng = _rng(self.seed, b, 3)
        sps = _strata(rng, 500, 4000, len(self.VERBS) + 1)
        reqs = []
        for j in rng.permutation(len(self.VERBS)):
            verb = self.VERBS[j]
            lam_nm = (float(rng.uniform(736.0, 742.0)), float(rng.uniform(745.0, 751.0)))
            points = (int(sps[j]), int(sps[-1])) if verb == "sweep" else (int(sps[j]),)
            N = float(10 ** rng.uniform(4, 6))
            m_list = sorted(int(m) for m in rng.choice(np.arange(1, 121), 3, replace=False))
            text = self._config_text(verb, lam_nm, points, N,
                                     int(rng.integers(2000, 4001)), m_list)
            for rep in (0, 1):
                reqs.append(CliRequest(verb, text, lam_nm, points, verb == "sweep", rep))
        return reqs

    @staticmethod
    def speed_kernel():
        # a command is mostly process start-up, which does not follow the
        # numpy kernel
        return process_kernel()

    def warmup_request(self):
        return CliRequest("lambda", self._config_text(
            "lambda", (736.0, 751.0), (2000,), 1e5, 4000, (1, 10, 120)),
            (736.0, 751.0), (2000,), False, 0)

    def _dirs(self, req):
        key = hashlib.sha1(req.config.encode()).hexdigest()[:12]
        base = self.workdir / f"{req.verb}-{key}"
        return base, base / f"run{req.repeat}"

    def run(self, req):
        base, out = self._dirs(req)
        if req.repeat == 0 and base.exists():
            shutil.rmtree(base)
        out.parent.mkdir(parents=True, exist_ok=True)
        if out.exists():
            shutil.rmtree(out)
        cfg = base / "run.cfg"
        cfg.write_text(req.config)
        verb = "lambda" if req.sweep else req.verb
        tail = [verb, "--config", str(cfg), "--out", str(out)]
        if self.traced:
            spans_path = base / f"spans{req.repeat}.json"
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                    str(spans_path), "--", *tail]
        else:
            argv = [sys.executable, "-m", "wgmspin.cli", *tail]
        t0, t1, code, rss = spawn(argv, self.env, str(self.root),
                                  base / f"stdout{req.repeat}.txt",
                                  base / f"stderr{req.repeat}.txt")
        result = {"code": code, "rss_mb": rss, "t0": t0, "t1": t1, "out": out,
                  "stdout": (base / f"stdout{req.repeat}.txt").read_bytes()}
        if self.traced:
            try:
                result["spans"] = json.loads(spans_path.read_text())
            except (OSError, ValueError):
                result["spans"] = None
        return result

    def reference(self, lam_nm, scan_points):
        """In-process (Lambda, k0, lambda_vac) for the same window and scan."""
        key = (lam_nm, scan_points)
        if key not in self._refs:
            p = self.params
            lam_min, lam_max = lam_nm[0] * 1e-9, lam_nm[1] * 1e-9
            modes = wgm.find_resonance("TE", REF_L, (2 * math.pi / lam_max,
                                                     2 * math.pi / lam_min),
                                       p, scan_points=scan_points)
            best = wgm.attach_profile(max(modes, key=lambda m: m.Q), p)
            cc = coupling.compute_lambda(best, p)
            self._refs[key] = {"lambda": cc.lambda_, "k0": best.k0,
                               "lambda_vac": best.lambda_vac}
        return self._refs[key]

    @staticmethod
    def read_tree(path: Path):
        return {str(f.relative_to(path)): f.read_bytes()
                for f in sorted(path.rglob("*")) if f.is_file()}

    def check(self, req, out):
        if out["code"] != 0:
            return Failure(f"{req.verb}: exit code {out['code']}, expected 0")
        files = self.read_tree(out["out"])
        out["bytes"] = sum(len(v) for v in files.values())
        try:
            failure = self._check_outputs(req, files)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            failure = Failure(f"{req.verb}: output does not parse: {exc!r}")
        if failure is None and req.repeat == 1:
            _, first = self._dirs(CliRequest(req.verb, req.config, req.window_nm,
                                             req.scan_points, req.sweep, 0))
            if not first.exists() or self.read_tree(first) != files:
                failure = Failure(f"{req.verb}: repeated run not byte-identical")
        return failure

    def _check_outputs(self, req, files):
        def load(name):
            return json.loads(files[name])

        if req.verb == "sweep":
            for v in req.scan_points:
                got = load(f"mode_search.scan_points={v}/coupling.json")
                ref = self.reference(req.window_nm, v)
                if got["lambda"] != ref["lambda"] or got["k0"] != ref["k0"]:
                    return Failure(f"sweep scan_points={v}: Lambda "
                                   f"{got['lambda']!r} != in-process {ref['lambda']!r}")
            return None
        ref = self.reference(req.window_nm, req.scan_points[0])
        if req.verb == "modes":
            rows = load("modes.json")
            table = list(csv.DictReader(io.StringIO(files["modes.csv"].decode())))
            if len(table) != len(rows) or not rows:
                return Failure("modes.csv and modes.json disagree or are empty")
            for row in table:
                for key in ("k0", "lambda_vac", "kappa_c", "Q"):
                    float(row[key])
            best = max(rows, key=lambda r: r["Q"])
            if best["lambda_vac"] != ref["lambda_vac"]:
                return Failure(f"modes: lambda_vac {best['lambda_vac']!r} != "
                               f"in-process {ref['lambda_vac']!r}")
        elif req.verb in ("lambda", "estimate"):
            got = load("coupling.json" if req.verb == "lambda" else "estimates.json")
            if got["lambda"] != ref["lambda"]:
                return Failure(f"{req.verb}: Lambda {got['lambda']!r} != "
                               f"in-process {ref['lambda']!r}")
            if req.verb == "estimate":
                vals = list(got["threshold_hz_by_m"].values())
                if not vals or not all(v > 0 and math.isfinite(v) for v in vals):
                    return Failure(f"estimate: bad thresholds {vals}")
        elif req.verb == "simulate":
            summary = load("summary.json")
            for ch, limit in (("drift_abs_S", DRIFT_LIMITS["abs_S"]),
                              ("drift_abs_omega", DRIFT_LIMITS["abs_omega"]),
                              ("drift_K", DRIFT_LIMITS["K"]),
                              ("drift_Hr", DRIFT_LIMITS["H_r"])):
                if not summary[ch] <= limit:
                    return Failure(f"simulate: {ch} {summary[ch]:.2e} > {limit:g}")
            got, want = summary["precession_hz_measured"], summary["precession_hz_predicted"]
            if got is None or want is None or not _rel(got, want) <= RATE_REL:
                return Failure(f"simulate: measured precession {got} != "
                               f"predicted {want}")
            lines = files["trajectory.csv"].decode().splitlines()
            for line in lines[2:]:
                [float(x) for x in line.split(",")]
            if len(lines) < 3:
                return Failure("simulate: empty trajectory.csv")
        return None


WORKLOADS = {"mode_solve": ModeSolve, "spin_dynamics": SpinDynamics,
             "cli_batch": CliBatch}


def make(name, seed, root: Path, workdir: Path):
    cls = WORKLOADS[name]
    return cls(seed, root, workdir) if cls is CliBatch else cls(seed, root)


def work_units(wl, req):
    """Units of throughput_per_s: solves, simulated steps, or commands."""
    if isinstance(wl, SpinDynamics):
        return req.n_steps
    return 1
