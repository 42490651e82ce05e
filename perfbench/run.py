"""wgmspin benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 times
the fixed request set with and without span tracing, alternately, and
reports the per-layer metrics and the tracing overhead. --all runs every
workload both ways. Human-readable lines come first; the last line of a
single-workload run is one JSON object with keys correct, attempted, failed
and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("mode_solve", "spin_dynamics", "cli_batch")
SETUP_PROBES = 7

THROUGHPUT_OF = {"mode_solve": "solves", "spin_dynamics": "simulated steps",
                 "cli_batch": "commands"}


def declared(key):
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)[key]


def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in declared(section)}


def with_units(values, section):
    units = declared_units(section)
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    return {name: (values[name], unit) for name, unit in units.items()}


def setup_workload(name, seed):
    """Import wgmspin, generate the fixed request set, run one warm-up."""
    import workloads
    wd = OUT / "work" / name
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    wl = workloads.make(name, seed, ROOT, wd)
    return wl, wl.setup()


def setup_probe(name, seed):
    t0 = time.perf_counter()
    setup_workload(name, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def probe_setup(name, seed):
    """Set-up time of one fresh process, as (scaled, unscaled) seconds: the
    scale is set by an interpreter that imports numpy, timed just before it.
    Set-up is mostly imports, whose time has phases of its own that a bare
    interpreter start does not show."""
    import workloads
    kernel_ms = workloads.process_kernel("import numpy")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", name,
         "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
    return setup_s * workloads.IMPORT_KERNEL_REF_MS / kernel_ms, setup_s


class Tally:
    """Attempted and failed requests, with the cause of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []   # (request index, cause)

    def add(self, i, failure):
        self.attempted += 1
        if failure is not None:
            self.failures.append((i, failure.cause))

    @property
    def failed(self):
        return len(self.failures)

    @property
    def correct(self):
        return not self.failures

    def causes(self):
        counts = {}
        for _, cause in self.failures:
            counts[cause] = counts.get(cause, 0) + 1
        return counts


def run_request(wl, i, req, tally):
    """Run one request, timed; a raised exception is a wrong result."""
    import workloads
    t0 = time.perf_counter_ns()
    try:
        out = wl.run(req)
    except Exception as exc:   # the request boundary: record and go on
        tally.add(i, workloads.Failure(f"raised {exc!r}"))
        return time.perf_counter_ns() - t0, None
    return time.perf_counter_ns() - t0, out


def check_request(wl, i, req, out, tally):
    """Check one request's output, untimed."""
    import workloads
    if out is None:
        return
    try:
        failure = wl.check(req, out)
    except Exception as exc:   # a check that cannot read the output fails it
        failure = workloads.Failure(f"check raised {exc!r}: "
                                    f"{traceback.format_exc(limit=2)}")
    tally.add(i, failure)


def execute(wl, i, req, tally):
    """Run one request and check it; returns (ns, output or None)."""
    elapsed, out = run_request(wl, i, req, tally)
    check_request(wl, i, req, out, tally)
    return elapsed, out


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= 10:
        return lat[-1], 100.0, n
    return lat[n - 11], 100.0 * (n - 10) / n, n


def measure(name, seed, seconds):
    """--trace 0: end-to-end metrics, tracing off."""
    t0 = time.perf_counter()
    wl, fixed = setup_workload(name, seed)
    own_setup_s = time.perf_counter() - t0
    import workloads

    tally = Tally()
    raw, lat, units, samples, rss, kernel, setups = [], [], [], [], [], [], []
    start = time.perf_counter()
    i = 0
    # whole blocks only, so every run has the same mix of request kinds
    while i < len(fixed) or i % wl.BLOCK or time.perf_counter() - start < seconds:
        # set-up probes are spread over the run, between blocks, so they see
        # the same phases of machine speed as the requests; their time is
        # left out of the measuring time
        due = min(0.5 + (time.perf_counter() - start) * SETUP_PROBES / seconds, SETUP_PROBES)
        while i % wl.BLOCK == 0 and len(setups) < int(due):
            t0 = time.perf_counter()
            setups.append(probe_setup(name, seed))
            start += time.perf_counter() - t0
        # the host runs in phases of speed that change within seconds; each
        # request's time is put on one scale with a kernel timed just before it
        kernel.append(wl.speed_kernel())
        req = wl.request(i)
        elapsed, out = execute(wl, i, req, tally)
        raw.append(elapsed / 1e6)
        lat.append(raw[-1] * wl.KERNEL_REF_MS / kernel[-1])
        units.append(workloads.work_units(wl, req))
        if out is not None and i < len(fixed):
            sample = wl.accuracy_sample(req, out)
            if sample is not None:
                samples.append(sample)
        if isinstance(out, dict) and "rss_mb" in out:
            rss.append(out["rss_mb"])
        out = None   # free this request's output before the next one runs
        i += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(name, seed))
    raw_busy_s = sum(raw) / 1e3
    busy_s = sum(lat) / 1e3
    tail_ms, tail_pct, n = tail(lat)
    peak = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "throughput_per_s": sum(units) / busy_s,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(s for s, _ in setups),
    }
    accuracy = wl.accuracy(samples)
    report = [
        f"workload {name}  seed {seed}  trace 0  closed loop, 1 client",
        f"  requests {tally.attempted} in {time.perf_counter() - start:.1f} s "
        f"(busy {raw_busy_s:.1f} s); fixed set {len(fixed)}",
        f"  machine speed: speed kernel median {statistics.median(kernel):.4f} ms "
        f"(reference {wl.KERNEL_REF_MS} ms); each request time below is scaled by the "
        f"reference / the kernel time before it. Unscaled: p50 "
        f"{statistics.median(raw):.4f} ms, throughput {sum(units) / raw_busy_s:.6g} 1/s",
        f"  latency_p50_ms = {metrics['latency_p50_ms']:.4f} ms",
        f"  latency_tail_ms = {tail_ms:.4f} ms  (p{tail_pct:.2f}: 10 of {n} samples beyond)",
        f"  throughput_per_s = {metrics['throughput_per_s']:.6g} 1/s  ({THROUGHPUT_OF[name]} "
        f"per busy second)",
        f"  failed_frac = {tally.failed / tally.attempted:.4f} ratio "
        f"({tally.failed} failed / {tally.attempted} attempted)",
        f"  peak_rss_mb = {peak:.1f} MiB"
        + ("  (largest wgmspin process)" if rss else "  (benchmark process)"),
        f"  setup_s = {metrics['setup_s']:.4f} s  (median of {SETUP_PROBES} fresh processes, "
        f"each scaled by {workloads.IMPORT_KERNEL_REF_MS} ms / the import kernel before it; "
        "unscaled " + ", ".join(f"{u:.3f}" for _, u in setups)
        + f"; this process {own_setup_s:.3f})",
    ]
    for key, value in accuracy.items():
        report.append(f"  {key} = {value:.3e} ratio  (over the fixed set; deterministic per seed)")
    for cause, count in sorted(tally.causes().items()):
        report.append(f"  failed {count}x {cause}")
    for req, failure in wl.known_defects():
        report.append(f"  known defect, outside the workload and not counted: "
                      f"{req.polarization} l={req.l} scan_points={req.scan_points}: "
                      + ("solved now" if failure is None else failure.cause))
    details = {"metrics": metrics, "accuracy": accuracy, "setups": setups,
               "own_setup_s": own_setup_s,
               "tail_percentile": tail_pct, "samples": n, "kernel_ms": kernel,
               "failures": tally.failures, "latencies_ms": lat, "unscaled_ms": raw}
    return tally, with_units(metrics, "end_to_end"), report, details


def traced_pass(wl, fixed, tracer, tally):
    """One pass over the fixed set with spans on; returns (first span, extra counts)."""
    import spans
    import workloads
    first_span = len(tracer.spans)
    if isinstance(wl, workloads.CliBatch):
        extra = {"bytes_written": 0, "amj_cache_size": 0}
        wl.traced = True
        for i, req in enumerate(fixed):
            _, out = execute(wl, i, req, tally)
            if out is None:
                continue
            child = out.get("spans")
            tracer.add_process(i, out["t0"], out["t1"], child,
                               "cli.sweep" if req.sweep else "cli.main")
            extra["bytes_written"] += out.get("bytes", 0)
            if child:
                tracer.missing = child["missing"]
                extra["amj_cache_size"] = max(extra["amj_cache_size"],
                                              child["amj_cache_size"] or 0)
        wl.traced = False
    else:
        extra = {"accuracy_warnings": 0}
        tracer.install(spans.TARGETS)
        try:
            for i, req in enumerate(fixed):
                tracer.request = i
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    tracer.enabled = True
                    root = tracer.begin("bench.request")
                    try:
                        _, out = run_request(wl, i, req, tally)
                    finally:
                        tracer.end(root)
                        tracer.enabled = False
                extra["accuracy_warnings"] += sum(
                    w.category.__name__ == "AccuracyWarning" for w in caught)
                check_request(wl, i, req, out, tally)
        finally:
            tracer.uninstall()
        extra["amj_cache_size"] = _amj_cache_size()
    return first_span, extra


def traced(name, seed, seconds):
    """--trace 1: alternate untraced and traced passes over the fixed set."""
    import spans
    wl, fixed = setup_workload(name, seed)
    tracer = spans.Tracer()
    tally = Tally()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # alternate which pass runs first, so a drift in machine speed
        # does not bias the overhead estimate
        if len(passes) % 2:
            first_span, extra = traced_pass(wl, fixed, tracer, tally)
        untraced_ns = sum(execute(wl, i, req, tally)[0] for i, req in enumerate(fixed))
        if not len(passes) % 2:
            first_span, extra = traced_pass(wl, fixed, tracer, tally)
        summary = spans.PassSummary(tracer.spans, first_span)
        metrics = spans.per_layer_metrics(summary, extra)
        metrics["trace.overhead_ms"] = (summary.wall_ns - untraced_ns) / len(fixed) / 1e6
        metrics["trace.overhead_frac"] = (summary.wall_ns - untraced_ns) / untraced_ns
        passes.append(metrics)
    combined = spans.combine(passes)
    units = declared_units("per_layer")
    not_observed = sorted(k for k, v in combined.items() if v is None)
    combined["trace.not_observed"] = len(not_observed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.csv"
    tracer.write(spans_path)
    report = [
        f"workload {name}  seed {seed}  trace 1  {len(passes)} traced passes "
        f"of the {len(fixed)}-request fixed set",
        f"  spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
        f"  tracing overhead {combined['trace.overhead_ms']:.4f} ms/request "
        f"({100 * combined['trace.overhead_frac']:.2f} %)",
        f"  layer self times sum to {100 * (combined['trace.self_sum_frac'] or 0):.1f} % "
        f"of traced wall time {combined['trace.wall_ms']:.3f} ms/request",
    ]
    for layer in spans.LAYERS:
        share = combined[f"{layer}.self_ms"] / combined["trace.wall_ms"]
        report.append(f"    {layer:<9} self {combined[f'{layer}.self_ms']:10.4f} ms/request"
                      f"  {100 * share:5.1f} %")
    for key in sorted(combined):
        v = combined[key]
        report.append(f"  {key} = " + ("not observed" if v is None
                                       else f"{v:.6g} {units[key]}"))
    if tracer.missing:
        report.append("  wrap targets that no longer exist: " + ", ".join(tracer.missing))
    for cause, count in sorted(tally.causes().items()):
        report.append(f"  failed {count}x {cause}")
    metrics = with_units({k: 0 if v is None else v for k, v in combined.items()}, "per_layer")
    details = {"passes": passes, "not_observed": not_observed,
               "missing_targets": tracer.missing, "failures": tally.failures}
    return tally, metrics, report, details


def _amj_cache_size():
    from wgmspin import specfun
    info = getattr(getattr(specfun, "angular_momentum_matrices", None), "cache_info", None)
    return info().currsize if info else None


def run_all(seed, seconds):
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)], cwd=ROOT,
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                ok = False
            else:
                print(f"  -> correct {result['correct']}  attempted {result['attempted']}"
                      f"  failed {result['failed']}\n", flush=True)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload, trace 0 and 1")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(declared("run_seconds"))
    if not (ROOT / "src" / "wgmspin" / "__init__.py").is_file() \
            or not (ROOT / "configs" / "reference.cfg").is_file():
        print(f"perfbench: no wgmspin checkout at {ROOT} (src/wgmspin, configs/)",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    OUT.mkdir(exist_ok=True)
    run = traced if args.trace else measure
    tally, metrics, report, details = run(args.workload, args.seed, args.seconds)
    print("\n".join(report), flush=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(details, fh, indent=1, default=str)
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
