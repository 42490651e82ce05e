"""Span tracing of wgmspin from outside the package, and the per-layer metrics.

Tracer.install() replaces, for the length of a traced pass, the names each
wgmspin module looks up at call time when it calls the module below (for
example wgmspin.wgm.riccati_bessel, the name find_resonance's
characteristic functions call) by wrappers that record a span: name, start,
end, parent span, request id, argument size and result size. The span name
says which layer does the work: "specfun.riccati_bessel" is specfun work
called from wgm. A target that no longer exists is listed as missing and
skipped, so a later refactor of the package leaves the benchmark running
and the metrics it fed read "not observed".

Spans stay in memory until the run ends. A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

LAYERS = ("specfun", "wgm", "coupling", "dynamics", "config", "cli")

# span record fields
NAME, START, END, PARENT, REQUEST, SIZE, EXTRA = range(7)


def _arg(index, name, measure=np.size):
    def size(args, kwargs):
        if len(args) > index:
            return int(measure(args[index]))
        if name in kwargs:
            return int(measure(kwargs[name]))
        return 0
    return size


def _identity(v):
    return v


# (owner, attribute or key, span name, argument size, result size).
# owner is "module" or "module:attribute" (a dict or class inside it).
TARGETS = [
    # harness -> wgm
    ("wgmspin.wgm", "find_resonance", "wgm.find_resonance", None, len),
    ("wgmspin.wgm", "attach_profile", "wgm.attach_profile", None, None),
    # wgm -> wgm: characteristic function D(k); the scan calls it on the
    # scan_points vector, Newton on the seed vector
    ("wgmspin.wgm:_CHARACTERISTIC", "TE", "wgm.D", _arg(1, "k"), None),
    ("wgmspin.wgm:_CHARACTERISTIC", "TM", "wgm.D", _arg(1, "k"), None),
    ("wgmspin.wgm", "radial_profile", "wgm.radial_profile", _arg(2, "grid"), None),
    # wgm -> specfun
    ("wgmspin.wgm", "riccati_bessel", "specfun.riccati_bessel", _arg(1, "z"), None),
    ("wgmspin.wgm", "_j_ladder", "specfun._j_ladder", _arg(1, "z"), None),
    # harness -> coupling, coupling -> specfun
    ("wgmspin.coupling", "compute_lambda", "coupling.compute_lambda", None, None),
    ("wgmspin.coupling", "precession_rate_estimate", "coupling.estimate", None, None),
    ("wgmspin.coupling", "resolvability_threshold", "coupling.estimate", None, None),
    ("wgmspin.coupling", "optical_S_from_amplitudes", "coupling.optical_S",
     _arg(0, "alpha"), None),
    ("wgmspin.coupling", "angular_momentum_matrices",
     "specfun.angular_momentum_matrices", _arg(0, "l", _identity), None),
    # harness -> dynamics, dynamics -> dynamics monitors
    ("wgmspin.dynamics", "simulate", "dynamics.simulate", _arg(3, "n_steps", _identity),
     lambda traj: len(traj.samples)),
    ("wgmspin.dynamics", "step_wgm", "dynamics.step_wgm", None, None),
    ("wgmspin.dynamics", "step_general", "dynamics.step_general", None, None),
    ("wgmspin.dynamics", "conserved_K", "dynamics.monitor", None, None),
    ("wgmspin.dynamics", "rotating_frame_energy", "dynamics.monitor", None, None),
]

# Installed only inside a traced wgmspin CLI process.
CLI_TARGETS = [
    ("wgmspin.config:RunConfig", "from_file", "config.parse", None, None),
    ("wgmspin.cli:_COMMANDS", "modes", "cli.modes", None, None),
    ("wgmspin.cli:_COMMANDS", "lambda", "cli.lambda", None, None),
    ("wgmspin.cli:_COMMANDS", "estimate", "cli.estimate", None, None),
    ("wgmspin.cli:_COMMANDS", "simulate", "cli.simulate", None, None),
    ("wgmspin.wgm", "modes_to_csv", "cli.write", None, None),
    ("wgmspin.wgm", "modes_to_json", "cli.write", None, None),
    ("wgmspin.coupling", "coupling_to_json", "cli.write", None, None),
    ("wgmspin.dynamics", "trajectory_to_csv", "cli.write", None, None),
    ("json", "dump", "cli.write", None, None),
]


def _resolve(owner):
    module, _, inner = owner.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, inner, None) if inner else obj


class Tracer:
    """In-memory spans of one process; enabled only around timed requests."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self.enabled = False
        self.missing = []
        self._stack = []
        self._installed = []

    def begin(self, name, size=0):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic_ns(), 0, parent, self.request, size, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx, extra=0):
        self.spans[idx][END] = time.monotonic_ns()
        self.spans[idx][EXTRA] = extra
        self._stack.pop()

    def _wrap(self, fn, name, size, result_size):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(name, size(args, kwargs) if size else 0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                tracer._stack.pop()
                span = tracer.spans[idx]
                span[END] = end
                if result_size is not None and result is not None:
                    span[EXTRA] = result_size(result)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """Wrap every target that exists; remember the rest as missing."""
        self.missing = []
        for owner_name, attr, name, size, result_size in targets:
            owner = _resolve(owner_name)
            if isinstance(owner, dict):
                if attr not in owner:
                    self.missing.append(f"{owner_name}[{attr!r}]")
                    continue
                raw = owner[attr]
                owner[attr] = self._wrap(raw, name, size, result_size)
            elif owner is not None and callable(getattr(owner, attr, None)):
                raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, size, result_size))
            else:
                self.missing.append(f"{owner_name}.{attr}")
                continue
            self._installed.append((owner, attr, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._installed = []

    def add_process(self, request, t0, t1, child, main_name):
        """Merge a traced CLI process: a root span from spawn to exit, a
        startup span from spawn to main entered, and the child's own spans
        (same monotonic clock) under them."""
        root = len(self.spans)
        self.spans.append(["cli.process", t0, t1, -1, request, 0, 0])
        if not child:
            return
        spans = child["spans"]
        main = next(s for s in spans if s[NAME] == "cli.main")
        startup = len(self.spans)
        self.spans.append(["cli.startup", t0, main[START], root, request, 0, 0])
        offset = len(self.spans)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += offset
            else:
                s[PARENT] = root if s[NAME] == "cli.main" else startup
            if s[NAME] == "cli.main":
                s[NAME] = main_name
            s[REQUEST] = request
            self.spans.append(s)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,request,size,extra\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")


def _layer(name):
    return name.split(".", 1)[0]


class PassSummary:
    """Self times and per-name groups of one traced pass (spans[first:])."""

    def __init__(self, spans, first):
        self.spans = spans[first:]
        n = len(self.spans)
        child = [0] * n
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT] - first] += s[END] - s[START]
        self.first = first
        self.self_ns = [s[END] - s[START] - c for s, c in zip(self.spans, child)]
        self.by_name = {}
        for i, s in enumerate(self.spans):
            self.by_name.setdefault(s[NAME], []).append(i)
        self.roots = [i for i, s in enumerate(self.spans) if s[PARENT] < 0]
        self.wall_ns = sum(self.dur(i) for i in self.roots)
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        for s, own in zip(self.spans, self.self_ns):
            if _layer(s[NAME]) in self.layer_self_ns:
                self.layer_self_ns[_layer(s[NAME])] += own

    def dur(self, i):
        s = self.spans[i]
        return s[END] - s[START]

    def parent(self, i):
        p = self.spans[i][PARENT]
        return p - self.first if p >= 0 else -1

    def outermost(self, layer):
        """Spans of `layer` not nested in another span of the same layer."""
        out = []
        for i, s in enumerate(self.spans):
            if _layer(s[NAME]) != layer:
                continue
            p = self.parent(i)
            if p < 0 or _layer(self.spans[p][NAME]) != layer:
                out.append(i)
        return out

    def ancestor(self, i, name):
        p = self.parent(i)
        while p >= 0 and self.spans[p][NAME] != name:
            p = self.parent(p)
        return p

    def mean_ms(self, name, outer_only=False):
        idx = self.by_name.get(name, [])
        if outer_only:
            idx = [i for i in idx if self.ancestor(i, name) < 0]
        return sum(self.dur(i) for i in idx) / len(idx) / 1e6 if idx else None


def per_layer_metrics(summary: PassSummary, extra):
    """Per-layer metrics of one traced pass; None marks "not observed".

    Counts are totals over the pass (its request set is fixed, so they
    repeat exactly); times are means per call, per request or per unit as
    their names say.
    """
    s = summary
    n_req = len(s.roots) or 1
    m = {}

    # specfun: outermost calls into the Bessel/matrix layer
    outer = s.outermost("specfun")
    busy = sum(s.dur(i) for i in outer)
    points = sum(s.spans[i][SIZE] for i in outer if s.spans[i][NAME] != "specfun.angular_momentum_matrices")
    m["specfun.calls"] = len(outer) if outer else None
    m["specfun.points"] = points if outer else None
    m["specfun.busy_ms"] = busy / n_req / 1e6 if outer else None
    bessel_ns = sum(s.dur(i) for i in outer
                    if s.spans[i][NAME] != "specfun.angular_momentum_matrices")
    m["specfun.ns_per_point"] = bessel_ns / points if points else None
    m["specfun.accuracy_warnings"] = extra.get("accuracy_warnings") if points else None

    # wgm: the solve split into scan and Newton by D's argument length
    solves = s.by_name.get("wgm.find_resonance", [])
    scan_ns = newton_ns = newton_calls = seeds = 0
    per_solve = {j: [] for j in solves}
    for i in s.by_name.get("wgm.D", []):
        j = s.ancestor(i, "wgm.find_resonance")
        if j in per_solve:
            per_solve[j].append(i)
    for calls in per_solve.values():
        if not calls:
            continue
        longest = max(s.spans[i][SIZE] for i in calls)
        newton = [i for i in calls if s.spans[i][SIZE] != longest]
        scan_ns += sum(s.dur(i) for i in calls if s.spans[i][SIZE] == longest)
        newton_ns += sum(s.dur(i) for i in newton)
        newton_calls += len(newton)
        seeds += s.spans[newton[0]][SIZE] if newton else 0
    observed_d = solves and any(per_solve.values())
    poles = sum(s.spans[j][EXTRA] for j in solves)
    m["wgm.solves"] = len(solves) if solves else None
    m["wgm.find_resonance_self_ms"] = (sum(s.self_ns[j] for j in solves) / len(solves) / 1e6
                                       if solves else None)
    m["wgm.scan_ms"] = scan_ns / len(solves) / 1e6 if observed_d else None
    m["wgm.newton_ms"] = newton_ns / len(solves) / 1e6 if observed_d else None
    m["wgm.newton_calls_per_solve"] = newton_calls / len(solves) if observed_d else None
    m["wgm.seeds_per_solve"] = seeds / len(solves) if observed_d else None
    m["wgm.seed_yield"] = poles / seeds if observed_d and seeds else None
    m["wgm.profile_ms"] = s.mean_ms("wgm.attach_profile", outer_only=True)
    grids = [s.spans[i][SIZE] for i in s.by_name.get("wgm.radial_profile", [])]
    m["wgm.profile_points"] = sum(grids) / len(grids) if grids else None

    # coupling
    lam = s.by_name.get("coupling.compute_lambda", [])
    m["coupling.lambda_self_ms"] = (sum(s.self_ns[i] for i in lam) / len(lam) / 1e6
                                    if lam else None)
    m["coupling.estimate_ms"] = s.mean_ms("coupling.estimate")
    m["coupling.optical_S_ms"] = s.mean_ms("coupling.optical_S")
    ls = {s.spans[i][SIZE] for i in s.by_name.get("specfun.angular_momentum_matrices", [])}
    m["coupling.amj_cache_size"] = extra.get("amj_cache_size") if ls else None
    itemsize = np.dtype(np.clongdouble).itemsize
    m["coupling.amj_cache_mb_computed"] = (sum(3 * (2 * l + 1) ** 2 * itemsize for l in ls)
                                           / 2**20 if ls else None)

    # dynamics
    sims = s.by_name.get("dynamics.simulate", [])
    steps = sum(s.spans[i][SIZE] for i in sims)
    m["dynamics.simulate_ms"] = s.mean_ms("dynamics.simulate")
    m["dynamics.us_per_step"] = (sum(s.dur(i) for i in sims) / steps / 1e3
                                 if steps else None)
    mon = [i for i in s.by_name.get("dynamics.monitor", [])
           if s.ancestor(i, "dynamics.simulate") >= 0]
    m["dynamics.monitor_ms"] = sum(s.dur(i) for i in mon) / len(sims) / 1e6 if sims else None
    m["dynamics.samples"] = sum(s.spans[i][EXTRA] for i in sims) if sims else None
    for kind in ("step_wgm", "step_general"):
        ms = s.mean_ms(f"dynamics.{kind}")
        m[f"dynamics.{kind}_us"] = ms * 1e3 if ms is not None else None

    # config and cli
    m["config.parse_ms"] = s.mean_ms("config.parse")
    m["cli.startup_ms"] = s.mean_ms("cli.startup")
    m["cli.numpy_import_ms"] = s.mean_ms("cli.numpy_import")
    for verb in ("modes", "lambda", "estimate", "simulate"):
        m[f"cli.{verb}_ms"] = s.mean_ms(f"cli.{verb}")
    m["cli.sweep_ms"] = s.mean_ms("cli.sweep")
    writes = [i for i in s.by_name.get("cli.write", []) if s.ancestor(i, "cli.write") < 0]
    procs = s.by_name.get("cli.process", [])
    m["cli.write_ms"] = sum(s.dur(i) for i in writes) / len(procs) / 1e6 if procs else None
    m["cli.bytes_written"] = extra.get("bytes_written")

    for layer in LAYERS:
        m[f"{layer}.self_ms"] = s.layer_self_ns[layer] / n_req / 1e6
    m["trace.wall_ms"] = s.wall_ns / n_req / 1e6
    m["trace.self_sum_frac"] = (sum(s.layer_self_ns.values()) / s.wall_ns
                                if s.wall_ns else None)
    return m


def combine(passes):
    """Median over traced passes, metric by metric; None if never observed."""
    out = {}
    for key in passes[0]:
        vals = [p[key] for p in passes if p[key] is not None]
        out[key] = statistics.median(vals) if vals else None
    return out

