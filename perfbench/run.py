"""torusdual benchmark: run one workload (or both) and report its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {kduality,spectral_identities,all}
        --seed N --seconds S --trace {0,1}

Every pass is one fresh worker process (perfbench/worker.py) that imports
torusdual from ``src/``, builds the workload's inputs from the seed and
runs its cases one after another, so caches start cold as they do for a
CLI user.  The harness is one closed-loop client: a case starts when the
previous one has finished, and a pass when the previous pass has exited.

--trace 0 runs passes until the next one would end after S seconds (at
least one) and reports the end-to-end metrics: median wall time of a
pass, median set-up time over the passes and extra set-up-only
processes, and median peak RSS.  --trace 1 runs one untraced and two
traced passes and reports the per-layer metrics of the traced ones;
their counts must repeat exactly.  Traced passes write their spans to
perfbench/out/.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kduality", "spectral_identities")
SETUP_PROBES = 5  # set-up-only processes per run, beside the passes' own set-ups
WORKER_TIMEOUT_S = 170

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics that are not times ("_s" suffix) or counts
LAYER_UNITS = {
    "oscillator.residual_ratio_max": "ratio",
    "poincare.max_deviation": "abs",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def layer_unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS thread: on a shared 2-core VM a two-thread dense eigh ran up
    # to twice as slow whenever the host was busy, one thread far less so.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(env, workload, seed, *, trace=0, setup_only=False, spans=None):
    """Run one worker process; returns its report with `setup_s` filled in."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["t_ready"] - t_spawn
    if not setup_only:
        report["wall_s"] = report["t_last"] - report["t_first"]
    return report


def provenance(seed, worker_report):
    prov = dict(worker_report["provenance"])
    prov["nproc"] = len(os.sched_getaffinity(0))
    prov["seed"] = seed
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    prov["src_sha256"] = digest.hexdigest()[:16]
    prov["commit"] = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        if git.returncode == 0:
            prov["commit"] = git.stdout.strip()
    return prov


def run_workload(env, workload, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics) and prints a report."""
    probes = [spawn(env, workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    prov = provenance(seed, probes[0])
    passes = []
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        passes.append(spawn(env, workload, seed))
        for k in (1, 2):
            passes.append(spawn(env, workload, seed, trace=1,
                                spans=out_dir / f"{workload}-seed{seed}-pass{k}.json"))
    else:
        start = time.monotonic()
        while True:
            passes.append(spawn(env, workload, seed))
            elapsed = time.monotonic() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break

    print(f"perfbench {workload} seed={seed} trace={trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    problems = []
    blas = prov["openblas"]
    if not blas or any(b["threads"] > prov["nproc"] for b in blas):
        problems.append(f"BLAS threads {blas} not within nproc {prov['nproc']}")
    attempted = failed = 0
    for k, p in enumerate(passes):
        bad = [(name, err) for name, _, err in p["cases"] if err is not None]
        attempted += len(p["cases"])
        failed += len(bad)
        problems += [f"pass {k + 1} {name}: {err}" for name, err in bad]
        kind = "traced" if "layers" in p else "untraced"
        print(f"pass {k + 1} ({kind}): wall {p['wall_s']:.3f} s, setup {p['setup_s']:.3f} s, "
              f"peak rss {p['maxrss_mb']:.1f} MB, "
              f"{len(p['cases']) - len(bad)}/{len(p['cases'])} cases verified")
        for name, secs, err in p["cases"]:
            print(f"  {secs:9.3f} s  {name}" + (f"  FAILED {err}" if err else ""))

    untraced = [p for p in passes if "layers" not in p]
    if trace:
        traced = [p for p in passes if "layers" in p]
        first, second = (p["layers"] for p in traced)
        metrics = {}
        for name, value in first.items():
            unit = layer_unit(name)
            if unit == "count" and value != second[name]:
                problems.append(f"count {name} differs between traced passes: "
                                f"{value} vs {second[name]}")
            metrics[name] = max(value, second[name]) if unit != "s" \
                else (value + second[name]) / 2
        metrics["trace.overhead_ratio"] = \
            statistics.mean(p["wall_s"] for p in traced) / untraced[0]["wall_s"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in probes + untraced),
            "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in untraced),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {failed / attempted:g} ({failed} of {attempted} cases)")
    for problem in problems:
        print("FAIL " + problem)
    return not problems, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload with tracing off, then on")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "torusdual" / "__init__.py").is_file():
        print(f"error: no torusdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload, trace in runs:
            ok, n, bad, m = run_workload(env, workload, args.seed, args.seconds, trace)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
