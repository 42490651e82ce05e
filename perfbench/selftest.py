"""Self-tests of the benchmark itself (not of wgmspin).

    python3 perfbench/selftest.py

1. One seed generates identical inputs on every run; another seed differs.
2. Each checker counts a deliberately corrupted result as failed: a
   perturbed Lambda or a lost pole (mode_solve), an injected monitor drift
   (spin_dynamics) and a flipped output byte (cli_batch).
3. A request that raises makes the run incorrect, on every workload.
4. A wrap target that no longer exists is reported, not fatal.
Exits 0 when every self-test passes.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_out" / "selftest"


def make(name, seed):
    return workloads.make(name, seed, ROOT, WORK / name)


def test_seed_determinism():
    for name in workloads.WORKLOADS:
        n = 2 * workloads.WORKLOADS[name].BLOCK
        a = make(name, 7).inputs_digest(n)
        assert a == make(name, 7).inputs_digest(n), f"{name}: seed 7 not reproducible"
        assert a != make(name, 8).inputs_digest(n), f"{name}: seeds 7 and 8 agree"


def _first(wl, kind_attr, value):
    i = 0
    while getattr(wl.request(i), kind_attr) != value:
        i += 1
    return wl.request(i)


def test_mode_solve_catches_perturbed_lambda():
    wl = make("mode_solve", 3)
    req = _first(wl, "kind", "reference")
    out = wl.run(req)
    assert wl.check(req, out) is None, wl.check(req, out)
    for factor in (1 + 3e-5, 10.0):
        bad = dict(out, cc=dataclasses.replace(out["cc"], lambda_=out["cc"].lambda_ * factor))
        failure = wl.check(req, bad)
        assert failure is not None, (factor, failure)
    failure = wl.check(req, dict(out, modes=[]))
    assert failure is not None, failure


def test_spin_dynamics_catches_injected_drift():
    wl = make("spin_dynamics", 3)
    for kind in ("simulate", "step_wgm"):
        req = _first(wl, "kind", kind)
        if kind == "simulate":
            req = dataclasses.replace(req, n_steps=2000)
        out = wl.run(req)
        assert wl.check(req, out) is None, wl.check(req, out)
        bad = dict(out)
        samples = list(out["samples"])
        last = samples[-1]
        samples[-1] = dataclasses.replace(last, S=last.S * (1 + 1e-12))
        bad["samples"] = samples
        if "trajectory" in out:
            traj = out["trajectory"]
            abs_s = traj.abs_S.copy()
            abs_s[-1] *= 1 + 1e-12
            bad["trajectory"] = dataclasses.replace(traj, abs_S=abs_s)
        failure = wl.check(req, bad)
        assert failure is not None, (kind, failure)


def test_cli_batch_catches_flipped_byte():
    wl = make("cli_batch", 3)
    shutil.rmtree(wl.workdir, ignore_errors=True)
    wl.workdir.mkdir(parents=True)
    first = _first(wl, "verb", "lambda")
    second = dataclasses.replace(first, repeat=1)
    assert wl.check(first, wl.run(first)) is None
    out = wl.run(second)
    assert wl.check(second, copy.copy(out)) is None
    # flip a digit of the moment of inertia: the file still parses and
    # Lambda still matches, so only the byte comparison can catch it
    target = out["out"] / "coupling.json"
    data = bytearray(target.read_bytes())
    pos = data.index(b'"I": ') + len(b'"I": ')
    data[pos] ^= 0x01
    target.write_bytes(bytes(data))
    failure = wl.check(second, copy.copy(out))
    assert failure is not None, failure


def test_raising_request_is_wrong():
    for name in workloads.WORKLOADS:
        wl = make(name, 3)

        def broken(req):
            raise RuntimeError("injected")
        wl.run = broken
        tally = run.Tally()
        _, out = run.execute(wl, 0, wl.request(0), tally)
        assert out is None and tally.failed == 1 and not tally.correct, \
            (name, tally.failures)


def test_missing_wrap_target_is_reported():
    tracer = spans.Tracer()
    tracer.install([("wgmspin.wgm", "no_such_function", "wgm.none", None, None),
                    ("wgmspin.no_such_module", "f", "wgm.none", None, None),
                    ("wgmspin.wgm:_NO_SUCH_TABLE", "TE", "wgm.none", None, None)])
    tracer.uninstall()
    assert len(tracer.missing) == 3, tracer.missing


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
