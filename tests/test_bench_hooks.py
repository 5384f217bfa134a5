"""The benchmark's traced pass wraps library functions by name; a renamed
or deleted one must fail here rather than only under ``--trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_wrapped_name():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    proc = subprocess.run(
        [sys.executable, "-c", "from tracing import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
