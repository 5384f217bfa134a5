"""Run each demo script end to end and check the lines it is about."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

KEY_LINES = {
    "01_root_data_and_duals.py": [
        "dual datum: A2[adjoint]",
        "  D4: f = |pi_1| * |Z| = 4 on both sides",
        "  dualize(dualize(B3[sc])) == B3[sc]",
    ],
    "02_weyl_and_fixed_points.py": [
        "  W(F4):  1152 elements,  25 conjugacy classes",
        "  SU(3) torus: 3 fixed points:",
        "  D4: 4 fixed points, center Z/2 x Z/2 of order 4",
    ],
    "03_equivariant_k_duality.py": [
        "Z/2 acting by inversion on U(1): (k0=3, k1=0)",
        "graded rank (k0=5, k1=1)",
        "  B3 sc: primal (k0=17, k1=0)  dual (k0=17, k1=0)  -> equal",
        "  commuting-pairs form:      (k0=17, k1=0)",
    ],
    "04_oscillator_spectrum.py": [
        "kernel dimension: 1",
        "kernel dimension: 1, parity: even",
    ],
    "05_clifford_and_line_bundle.py": [
        "n = 1: P has 2 terms; P^2 == P: True; P* == P: True",
        "n = 2: P has 4 terms; P^2 == P: True; P* == P: True",
        "n = 3: P has 8 terms; P^2 == P: True; P* == P: True",
        "P e1 eps1 P == i P: True",
        "P invariant under all 8 signed permutations of rank 2",
        "P invariant under the exact 3-4-5 rotation: True",
    ],
}


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs(name):
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in KEY_LINES[name]:
        assert line in lines, line
    if name.startswith("05"):
        devs = [
            float(m.group(1))
            for m in (re.match(r"  (?:pairing|section).*:\s+(\S+)$", ln) for ln in lines)
            if m
        ]
        assert len(devs) == 3
        assert all(0.0 <= d <= 1e-10 for d in devs)
        assert any("(positive semidefinite)" in ln for ln in lines)
