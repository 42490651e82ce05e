"""Coupled precession of mechanical and optical angular momentum.

The single-mode coupled equations

    dS/dt = Lambda w x S,    I dw/dt = Lambda (Lambda - 1) hbar (w x S)

(S in hbar units) imply d/dt [I w - (Lambda-1) hbar S] = 0, so the flow is an
exact uniform rotation of S (and of w with it) about the conserved axis
K = I w - (Lambda-1) hbar S at angular rate Lambda |K| / I. simulate evaluates
that flow in closed form at every sample time at once (no stepping): one
quaternion per sample, the rotation by Lambda |K| t / I about K, turns both S
and the body frame. step_wgm is the same flow at t = dt, orientation
included. |S|, |w|, K and the rotating-frame energy are conserved to
rounding, not to integration order.

State vectors are kept in numpy longdouble (x86 extended precision). A
simulate sample is one rotation of the initial state, so its rounding does not
accumulate; extended precision matters for long step_wgm chains, where plain
float64 rounding random-walks to ~2e-13 relative over 1e6 steps, right at the
conservation contract, and for w, which is advanced by the increment of the
much larger S. Three contracts hold only where numpy's longdouble is the x86
80-bit format (elsewhere it may be plain float64 or a software quad, neither
tested): time reversibility of step_wgm chains to 1e-10 (acceptance criterion
9), step_wgm chains landing on simulate's samples, and the 1e-12 K drift in
the balanced regime |K| ~ 1e-4 I|w|, where float64 rounding of K alone is
~1.5e-12. The general torque equation I dw/dt = -w x Gamma + dGamma/dt
rotates u = I w - Gamma about Gamma(t); step_general takes that rotation as
one fourth-order Magnus vector per step, exact for constant Gamma.

A step costs numpy object handling, not arithmetic, so the step path works on
longdouble scalar components read from the state by index. step_wgm and
simulate evaluate the one _flow, at a scalar time and at an array of sample
times. One builder, _step_state, holds a state's checks and makes every
state, from SpinState's inputs as longdouble arrays or a step's components;
_unit_quat normalises q there and simulate's samples alike. A restructuring
of this path keeps every longdouble operation and its order, so the states
stay the same to the bit (test_step_chains_reproduce_pinned_bytes holds them
to recorded bytes).

simulate returns its samples as the arrays of a Trajectory and writes no
files; the CLI (wgmspin.cli) writes them as trajectory.csv and summary.json.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .coupling import CouplingConstants
from .wgm import _check_positive

__all__ = [
    "SpinState",
    "Trajectory",
    "step_wgm",
    "step_general",
    "conserved_K",
    "rotating_frame_energy",
    "simulate",
    "precession_frequency",
]

MONITOR_TOL = 1e-6  # relative drift of a monitor channel at which simulate raises
_LD = np.longdouble
_ONE = _LD(1.0)  # _ONE * x is x in longdouble, exactly, and cheaper than _LD(x)
_IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SpinState:
    """Mechanical angular velocity w [rad/s], optical angular momentum S
    [hbar units], body-frame orientation (unit quaternion, scalar first),
    and time [s]."""

    omega: np.ndarray
    S: np.ndarray
    orientation: np.ndarray = None  # type: ignore[assignment]
    t: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t!r}")
        q = _IDENTITY_Q if self.orientation is None else self.orientation
        omega, S, q = (np.array(v, dtype=_LD).reshape(size)
                       for v, size in ((self.omega, 3), (self.S, 3), (q, 4)))
        self.__dict__.update(_step_state(omega, S, q, self.t).__dict__)


def _quat_norm(q):
    """|q| of four longdouble components, scalars or arrays over samples. The
    squares add left to right, as np.sum adds 4 elements."""
    qw, qx, qy, qz = q
    return np.sqrt(((qw * qw + qx * qx) + qy * qy) + qz * qz)


def _unit_quat(q, norm):
    """The four components of q over norm, its _quat_norm."""
    return q[0] / norm, q[1] / norm, q[2] / norm, q[3] / norm


def _new_state(omega, S, orientation, t):
    """A SpinState of fields taken as they are: no copies and no checks."""
    state = object.__new__(SpinState)
    fields = state.__dict__
    fields["omega"], fields["S"], fields["orientation"], fields["t"] = omega, S, orientation, t
    return state


def _step_state(omega, S, q, t):
    """The one SpinState builder, from three longdouble components each of w
    and S, four of q, and t as it is: ValueError unless w and S are finite as
    float64 (math.isfinite reads a longdouble through float()) and |q| is in
    (0.9, 1.1). w and S are built as one array, q as the unit quaternion."""
    parts = (omega[0], omega[1], omega[2], S[0], S[1], S[2])
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"vector components must be finite, got {parts!r}")
    norm = _quat_norm(q)
    if not 0.9 < float(norm) < 1.1:
        raise ValueError("orientation quaternion is far from unit norm")
    ws = np.array(parts, dtype=_LD).reshape(2, 3)
    return _new_state(ws[0], ws[1], np.array(_unit_quat(q, norm), dtype=_LD), t)


def _components(state: SpinState):
    """S, w and q of a state as tuples of longdouble scalars, by index reads
    (unpacking an array costs several times more)."""
    s, w, q = state.S, state.omega, state.orientation
    return (s[0], s[1], s[2]), (w[0], w[1], w[2]), (q[0], q[1], q[2], q[3])


@dataclass(frozen=True)
class Trajectory:
    """The arrays simulate computes: times t (n,), longdouble omega and S (n, 3),
    unit orientation quaternions (n, 4) and the float64 monitor channels
    abs_S, abs_omega, K and H_r. samples is derived from them on each read."""

    t: np.ndarray
    omega: np.ndarray
    S: np.ndarray
    orientation: np.ndarray
    abs_S: np.ndarray
    abs_omega: np.ndarray
    K: np.ndarray      # (n, 3), K = I w - (Lambda-1) hbar S
    H_r: np.ndarray

    @property
    def samples(self):
        """One SpinState per sample, row i bit for bit: the rows are taken as
        they are (views), since normalizing a unit quaternion again can move it
        by an ulp."""
        return list(map(_new_state, self.omega, self.S, self.orientation,
                        self.t.tolist()))

    @property
    def drift(self):
        """Largest deviation of each monitor channel from its first sample,
        relative to the first sample's magnitude (norm for K; 0 when that
        magnitude is 0), keyed abs_S, abs_omega, K, H_r."""
        out = {}
        for name in ("abs_S", "abs_omega", "K", "H_r"):
            series = getattr(self, name)
            ref = float(np.linalg.norm(series[0]))
            out[name] = (float(np.max(np.abs(series - series[0]))) / ref
                         if ref else 0.0)
        return out


# --- rotations (quaternions scalar-first) -----------------------------------

def _quat_mul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    )


def _rotation_quat(v, t):
    """Rotation by |v| t about v (t scalar or array); identity for v = 0."""
    vx, vy, vz = v
    vn = np.sqrt(vx * vx + vy * vy + vz * vz)
    if vn == 0.0:
        return _IDENTITY_Q
    half = 0.5 * vn * t
    s = np.sin(half) / vn
    return (np.cos(half), vx * s, vy * s, vz * s)


def _rotate(q, v):
    """v turned by the unit quaternion q = (w, qv), as component tuples (q may
    hold arrays): v + w t + qv x t with t = 2 qv x v. |v| is restored to its
    incoming value: a rotation repeated at a fixed angle has a same-sign
    per-step norm bias that would otherwise accumulate linearly."""
    w, qx, qy, qz = q
    vx, vy, vz = v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    x2 = vx + w * tx + (qy * tz - qz * ty)
    y2 = vy + w * ty + (qz * tx - qx * tz)
    z2 = vz + w * tz + (qx * ty - qy * tx)
    n_old = np.sqrt(vx * vx + vy * vy + vz * vz)
    if n_old > 0.0:
        f = n_old / np.sqrt(x2 * x2 + y2 * y2 + z2 * z2)
        x2 = x2 * f
        y2 = y2 * f
        z2 = z2 * f
    return x2, y2, z2


# --- WGM coupled flow (exact rotation about conserved K) --------------------

def _ld_constants(constants: CouplingConstants, hbar):
    """I, Lambda and hbar as longdouble scalars."""
    return _ONE * constants.I, _ONE * constants.lambda_, _ONE * hbar


def _k_vector(omega, S, inertia, lam, hbar):
    """K = I w - (Lambda-1) hbar S in longdouble as three components, from
    the components of w and S (scalars, or arrays over samples) and
    _ld_constants."""
    wx, wy, wz = omega
    sx, sy, sz = S
    c = (lam - 1.0) * hbar
    return inertia * wx - c * sx, inertia * wy - c * sy, inertia * wz - c * sz


def _h_r(omega, constants: CouplingConstants):
    """H_r = I |w|^2 / 2 in longdouble, over the last axis of w."""
    return 0.5 * (_ONE * constants.I) * np.sum(omega * omega, axis=-1)


def _flow(s, w, q, inertia, lam, hbar, t):
    """Exact flow over elapsed time t (longdouble scalar or array) from the
    S, w and q component tuples of a state, with _ld_constants.

    S rotates about the conserved K = I w - (Lambda-1) hbar S by Omega t,
    Omega = Lambda |K| / I, and w moves by the matching increment of S. w(t)
    is w0 rotated about K at Omega, so the orientation is
    q(t) = q_K q(w0 - Omega K^, t) q0 with q_K the rotation that turns S, and
    w0 - Omega K^ = w0 - (Lambda/I) K. K = 0 makes q_K the identity. Returns
    the S, w and q component tuples (arrays over t for array t).
    """
    lam_i = lam / inertia
    sx, sy, sz = s
    wx, wy, wz = w
    kx, ky, kz = k = _k_vector(w, s, inertia, lam, hbar)
    q_k = _rotation_quat(k, lam_i * t)
    sx2, sy2, sz2 = _rotate(q_k, s)
    # advance omega by the increment of S: K = I w - (lam-1) hbar S is then
    # conserved identically, and the S-dominated regime (|K| >> I|w|) never
    # reconstructs small w from a cancellation of large vectors
    scale = (lam - 1.0) * hbar / inertia
    wx2 = wx + scale * (sx2 - sx)
    wy2 = wy + scale * (sy2 - sy)
    wz2 = wz + scale * (sz2 - sz)
    body = (wx - lam_i * kx, wy - lam_i * ky, wz - lam_i * kz)
    q = _quat_mul(q_k, _quat_mul(_rotation_quat(body, t), q))
    return (sx2, sy2, sz2), (wx2, wy2, wz2), q


def step_wgm(state: SpinState, dt: float, constants: CouplingConstants, *,
             hbar: float = HBAR) -> SpinState:
    """The exact flow of the coupled precession equations over one step dt.

    Rotates S about the conserved axis K = I w - (Lambda-1) hbar S by
    Lambda |K| dt / I, advances w by the matching increment, and turns the
    orientation by the same rotation composed with the closed-form body
    rotation over dt. The state is exact for any dt; w = S = 0 is a valid
    fixed point.
    """
    _check_positive("dt", dt)
    s, w, q = _flow(*_components(state), *_ld_constants(constants, hbar), _ONE * dt)
    return _step_state(w, s, q, state.t + dt)


# --- general torque step (one Magnus rotation) -----------------------------

def step_general(state: SpinState, dt: float, inertia: float, gamma_provider, *,
                 project_omega_norm: bool = False) -> SpinState:
    """One step of I dw/dt = -w x Gamma(t) + dGamma/dt as one rotation.

    u = I w - Gamma obeys du/dt = (Gamma/I) x u, so u turns about Gamma(t), by
    the fourth-order Magnus vector phi = (dt/6)(a0 + 4 am + a1) +
    (dt^2/12) a1 x a0 of a = Gamma/I at t0, t0 + dt/2 and t0 + dt (Blanes,
    Casas, Oteo and Ros, Phys. Rep. 470, 151 (2009)). w advances by the
    increment of (u + Gamma)/I, as in _flow, so Gamma = 0 leaves w bit-exact.
    In the frame turning with u the body rate is the constant u0/I, so the
    orientation is q(phi) q(u0/I, dt) q0, and q(phi) also turns u. Exact for
    constant Gamma (|w| then holds to rounding), fourth order in dt
    otherwise. gamma_provider(t) returns (Gamma, dGamma/dt) [SI], Gamma as
    three numbers (a list, or a float64 or longdouble array); dGamma/dt is
    not read. It is called three times per step, at t0, t0 + dt/2 and
    t0 + dt, so a chain evaluates each interior boundary twice: the API
    keeps that on purpose, since reusing the value at t0 + dt would need
    state carried from one call to the next. The project_omega_norm keyword
    is accepted and ignored.
    """
    _check_positive("dt", dt)
    _check_positive("inertia", inertia)
    t0 = state.t
    inertia = _ONE * inertia
    a = []
    for t in (t0, t0 + 0.5 * dt, t0 + dt):
        g = gamma_provider(t)[0]
        if len(g) != 3:
            raise ValueError(f"Gamma must have 3 components, got {g!r}")
        a.append((g[0] / inertia, g[1] / inertia, g[2] / inertia))
    (x0, y0, z0), (xm, ym, zm), (x1, y1, z1) = a
    h = _ONE * dt
    c1, c2 = h / 6.0, h * h / 12.0
    # (h/6)((a0 + 4 am) + a1) + (h^2/12) a1 x a0, the cross product in
    # np.cross's order of operations
    phi = (c1 * ((x0 + 4.0 * xm) + x1) + c2 * (y1 * z0 - z1 * y0),
           c1 * ((y0 + 4.0 * ym) + y1) + c2 * (z1 * x0 - x1 * z0),
           c1 * ((z0 + 4.0 * zm) + z1) + c2 * (x1 * y0 - y1 * x0))
    q_phi = _rotation_quat(phi, 1.0)
    _, (wx, wy, wz), q0 = _components(state)
    v0x, v0y, v0z = v0 = (wx - x0, wy - y0, wz - z0)  # u0 / I
    v1x, v1y, v1z = _rotate(q_phi, v0)
    q = _quat_mul(q_phi, _quat_mul(_rotation_quat(v0, h), q0))
    omega = (wx + ((v1x - v0x) + (x1 - x0)),
             wy + ((v1y - v0y) + (y1 - y0)),
             wz + ((v1z - v0z) + (z1 - z0)))
    return _step_state(omega, state.S, q, t0 + dt)


# --- invariants --------------------------------------------------------------

def conserved_K(state: SpinState, constants: CouplingConstants, *,
                hbar: float = HBAR):
    """K = I w - (Lambda-1) hbar S, the exact precession axis [SI]."""
    s, w, _ = _components(state)
    return np.array(_k_vector(w, s, *_ld_constants(constants, hbar)))


def rotating_frame_energy(state: SpinState, constants: CouplingConstants) -> float:
    """H_r = [Lambda (J+S)^2 + (1-Lambda) J^2 + Lambda(Lambda-1) S^2] / 2I
    with J = I w - Lambda S (all vectors in SI units; S scaled by hbar).

    J + S = K = I w - (Lambda-1) hbar S makes the S terms cancel exactly, so
    the bracket is |I w|^2 and H_r = I |w|^2 / 2, evaluated in that form (no
    cancellation of large terms), which does not involve hbar.
    """
    return float(_h_r(state.omega, constants))


# --- driver ------------------------------------------------------------------

def simulate(initial: SpinState, constants: CouplingConstants, dt: float,
             n_steps: int, sample_every: int = 1, *, hbar: float = HBAR) -> Trajectory:
    """Exact flow at steps 0, sample_every, 2 sample_every, ... and n_steps.

    Each sample is the closed-form flow at its elapsed time t = step * dt,
    the flow of step_wgm evaluated for all sample times at once: S rotated
    about K by Lambda |K| t / I, w advanced by the matching increment of S,
    and the exact orientation. Monitor channels (|S|, |w|, K, H_r) are
    recorded per sample; relative drift beyond MONITOR_TOL raises
    RuntimeError (it indicates misuse, e.g. state scales beyond the working
    precision). Deterministic for fixed inputs.
    """
    _check_positive("dt", dt)
    for name, count in (("n_steps", n_steps), ("sample_every", sample_every)):
        try:
            count = operator.index(count)
        except TypeError:
            # samples are stamped at whole steps: a fraction would mislabel t
            raise ValueError(f"{name} must be an integer, got {count!r}") from None
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    steps = np.arange(0, n_steps + 1, sample_every)
    if steps[-1] != n_steps:
        steps = np.append(steps, n_steps)
    ld = _ld_constants(constants, hbar)
    s, w, q = _flow(*_components(initial), *ld, steps * (_ONE * dt))
    s, w, q = (np.stack([np.broadcast_to(c, steps.shape) for c in cols], axis=1)
               for cols in (s, w, _unit_quat(q, _quat_norm(q))))
    traj = Trajectory(
        t=initial.t + steps * dt, omega=w, S=s, orientation=q,
        abs_S=np.sqrt(np.sum(s * s, axis=1)).astype(float),
        abs_omega=np.sqrt(np.sum(w * w, axis=1)).astype(float),
        K=np.stack(_k_vector(w.T, s.T, *ld), axis=1).astype(float),
        H_r=_h_r(w, constants).astype(float))
    channel, drift = max(traj.drift.items(), key=lambda item: item[1])
    if drift > MONITOR_TOL:
        raise RuntimeError(
            f"conservation monitor drift {drift:.3e} in {channel} beyond "
            f"{MONITOR_TOL:.1e}: integrator misuse (check dt and state scales)")
    return traj


def precession_frequency(times, vectors, axis):
    """Signed precession rate [rad/s] of a vector series about axis.

    Unwraps the phase of the component transverse to axis and fits a line.
    Returns None when the transverse component is negligible (no measurable
    precession), e.g. for a vector parallel to the axis or identically zero.
    """
    times = np.asarray(times, dtype=float)
    vecs = np.asarray(vectors, dtype=float)
    axis = np.asarray(axis, dtype=float)
    an = np.linalg.norm(axis)
    if an == 0 or len(times) < 3:
        return None
    u = axis / an
    # orthonormal frame transverse to u
    trial = np.array([1.0, 0.0, 0.0]) if abs(u[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(u, trial)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(u, e1)
    p1 = vecs @ e1
    p2 = vecs @ e2
    perp = np.hypot(p1, p2)
    scale = np.max(np.linalg.norm(vecs, axis=1))
    if scale == 0 or np.min(perp) < 1e-9 * scale:
        return None
    phase = np.unwrap(np.arctan2(p2, p1))
    coeffs = np.polyfit(times - times[0], phase, 1)
    return float(coeffs[0])
