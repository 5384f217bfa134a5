"""One benchmark pass in a fresh process, so every cache starts cold.

Usage (started by run.py, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
        [--setup-only] [--spans PATH]

Imports torusdual, builds the workload's inputs from the seed, then runs
its cases one after another and prints one JSON line: monotonic clock
readings (comparable with the parent's, as CLOCK_MONOTONIC is system
wide), per-case verdicts, peak RSS, provenance and, when traced, the
per-layer metrics.  ``--setup-only`` stops after the set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time


def _openblas():
    """(config, threads) of every OpenBLAS library loaded in this process."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    # symbol prefixes and suffixes differ between the numpy and scipy builds
    symbols = [(f"{p}_get_config{s}", f"{p}_get_num_threads{s}")
               for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for conf_name, threads_name in symbols:
            get_conf = getattr(lib, conf_name, None)
            get_threads = getattr(lib, threads_name, None)
            if get_conf is not None and get_threads is not None:
                get_conf.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                found.append({"config": get_conf().decode(), "threads": get_threads()})
                break
    return found


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    import torusdual
    import torusdual.cli  # noqa: F401  (loaded before the tracer wraps modules)
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    # one stream orders the cases, another makes the inputs
    order_rng = np.random.default_rng([args.seed, 0])
    cases = WORKLOADS[args.workload](np.random.default_rng([args.seed, 1]), tracer)
    cases = [cases[i] for i in order_rng.permutation(len(cases))]
    out = {
        "t_ready": time.monotonic(),
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "torusdual": torusdual.__version__,
            "openblas": _openblas(),
        },
    }
    if not args.setup_only:
        verdicts = []
        out["t_first"] = time.monotonic()
        for name, case in cases:
            start, error = time.monotonic(), None
            try:
                case()
            except Exception as exc:  # a raising case counts as failed
                error = f"{type(exc).__name__}: {exc}"
            verdicts.append([name, time.monotonic() - start, error])
        out["t_last"] = time.monotonic()
        out["cases"] = verdicts
        if args.trace:
            out["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write(args.spans, workload=args.workload, seed=args.seed)
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
