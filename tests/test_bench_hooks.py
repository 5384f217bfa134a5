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


TRACED_ORACLE = """
from tracing import Tracer
from torusdual import ktheory, rootdata, weyl

tracer = Tracer()
tracer.install()
group = weyl.generate(rootdata.build_simple("B", 3, "sc"))
assert ktheory.commuting_pairs_rank(group) == ktheory.rational_equivariant_k(group)
print(tracer.counters["ktheory.pairs_terms"])
"""


def test_traced_oracle_and_class_sum_run():
    # the after-hooks read what the wrapped names return (fixed_set's
    # component_count(), for one), so a wrapped name that changes its
    # result's shape fails here and not only under --trace 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", "perfbench"])}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ORACLE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["480"]  # 48 elements x 10 classes
