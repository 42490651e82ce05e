"""Run one wgmspin CLI command with span tracing and write its spans as JSON.

    python3 perfbench/cli_child.py SPANS.json -- VERB --config CFG --out DIR

Used by the traced cli_batch pass in place of `python3 -m wgmspin.cli`. It
times `import numpy` and `import wgmspin.cli` itself, installs the span
wrappers of spans.py (library and CLI targets), and calls wgmspin.cli.main.
Clock: time.monotonic_ns, shared with the parent process.
"""

import time

T_ENTER = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    spans_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.monotonic_ns()
    import numpy  # noqa: F401
    t1 = time.monotonic_ns()
    import wgmspin.cli
    t2 = time.monotonic_ns()
    import spans

    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + spans.CLI_TARGETS)
    tracer.request = 0
    tracer.spans += [["cli.numpy_import", t0, t1, -1, 0, 0, 0],
                     ["cli.import", t1, t2, -1, 0, 0, 0]]
    tracer.enabled = True
    idx = tracer.begin("cli.main")
    code = 1
    try:
        code = wgmspin.cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.enabled = False
        info = getattr(getattr(wgmspin.specfun, "angular_momentum_matrices", None),
                       "cache_info", None)
        with open(spans_path, "w") as fh:
            json.dump({"enter": T_ENTER, "spans": tracer.spans, "missing": tracer.missing,
                       "amj_cache_size": info().currsize if info else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
