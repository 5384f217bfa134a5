"""Byte-identity of the reference CLI outputs.

Each command runs through ``cli.main`` in process.  The sha256 digest of
its exit code, stdout, stderr and ``--json`` file must equal the digest
recorded in ``golden_outputs.json``.  ``oscillator`` and
``poincare-check`` are left out: their floats depend on the BLAS build.

After a deliberate change of output, re-record the digests with

    python tests/test_golden_outputs.py > tests/golden_outputs.json

and say in the change log which commands changed and why.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from torusdual import cli
from torusdual.rootdata import SIMPLE_TYPES, is_simple_type

GOLDEN = Path(__file__).with_name("golden_outputs.json")

COMMANDS = [
    *(f"dual --type {t} --rank {r} --form {form}"
      for t in SIMPLE_TYPES for r in range(1, 9) if is_simple_type(t, r)
      for form in ("sc", "adjoint", "so")),
    "table-check",
    "verify-duality --max-rank 4",
    "verify-duality --max-rank 4 --forms sc,adjoint,so",
    "verify-duality --max-rank 5 --allow-large --forms sc,adjoint,so",
    "ktheory --type F --rank 4 --form sc",
    "ktheory --type E --rank 6 --form sc",
    "ktheory --type B --rank 6 --form sc",
    "affine-compare --max-rank 4",
    "fixed-points --type E --rank 6",
    "fixed-points --type A --rank 2",
    "fixed-points --type D --rank 4 --form so",
    "clifford-check --max-dim 4",
]


def digest(command: str, directory: Path) -> str:
    """sha256 over the exit code, stdout, stderr and --json bytes of one run."""
    path = directory / "out.json"
    path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*command.split(), "--json", str(path)])
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode(),
             path.read_bytes() if path.exists() else b""]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def test_every_command_has_a_recorded_digest():
    assert len(COMMANDS) == 111
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_byte_identical(command, tmp_path):
    assert digest(command, tmp_path) == json.loads(GOLDEN.read_text())[command]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        table = {command: digest(command, Path(scratch)) for command in COMMANDS}
    json.dump(table, sys.stdout, indent=1)
    sys.stdout.write("\n")
