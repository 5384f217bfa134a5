import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torusdual import cli, weyl


def run(argv):
    return cli.main(argv)


def test_dual_command(tmp_path, capsys):
    out = tmp_path / "dual.json"
    assert run(["dual", "--type", "A", "--rank", "2", "--form", "sc",
                "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "A2[sc]" in text and "A2[adjoint]" in text
    payload = json.loads(out.read_text())
    assert set(payload) == {"primal", "dual"}
    assert payload["primal"]["type"] == "A"
    assert payload["dual"]["form"] == "adjoint"


def test_dual_labels_a_generator_list_by_its_structure(capsys):
    # "so" of A2 quotients by all of pi_1(adjoint): PSU3, the adjoint form
    assert run(["dual", "--type", "A", "--rank", "2", "--form", "so"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "A2[adjoint]  ->  A2[sc]"


def test_dual_self_dual_e8(capsys):
    assert run(["dual", "--type", "E", "--rank", "8"]) == 0
    text = capsys.readouterr().out
    assert "E8" in text


def test_invalid_type_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["dual", "--type", "H", "--rank", "2"])
    assert err.value.code == 2


def test_invalid_rank_exits_2(capsys):
    assert run(["dual", "--type", "G", "--rank", "5"]) == 2


def test_table_check_passes(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert run(["table-check", "--json", str(out)]) == 0
    assert "9/9 rows pass" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert [r["f_computed"] for r in payload["rows"]] == [3, 2, 2, 4, 3, 2, 1, 1, 1]


def test_table_check_corrupted_row():
    rows = list(cli.REFERENCE_TABLE)
    bad = cli.ReferenceTableRow("A", 2, "sc", "SU3", "PSU3", "A", "adjoint", 4)
    rows[0] = bad
    results = cli.run_table_check(rows)
    assert not results[0]["pass"]
    assert all(r["pass"] for r in results[1:])
    assert results[0]["name"] == "SU3"


def test_table_check_corrupted_row_exits_1(monkeypatch, capsys):
    rows = list(cli.REFERENCE_TABLE)
    rows[3] = cli.ReferenceTableRow("D", 4, cli.SO_FORM, "SO8", "SO8", "D", "quotient", 5)
    monkeypatch.setattr(cli, "REFERENCE_TABLE", tuple(rows))
    assert run(["table-check"]) == 1
    out = capsys.readouterr().out
    assert "failing rows: SO8" in out
    assert "8/9 rows pass" in out


def test_verify_duality_small(tmp_path, capsys):
    out = tmp_path / "dual.json"
    assert run(["verify-duality", "--max-rank", "2", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "verdict=equal" in text
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert all(r["verdict"] == "equal" for r in payload["reports"])


def test_duality_targets_follow_the_type_rank_rule():
    assert [t[:2] for t in cli._duality_targets(4, ["sc"])] == [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
        ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4), ("F", 4), ("G", 2),
    ]
    targets = cli._duality_targets(8, ["sc", "adjoint"])
    assert targets == sorted(targets, key=lambda t: t[:2])
    assert {t[:2] for t in targets if t[0] == "E"} == {("E", 6), ("E", 7), ("E", 8)}


def test_verify_duality_rank_cap(capsys):
    assert run(["verify-duality", "--max-rank", "7"]) == 2
    assert "--allow-large" in capsys.readouterr().err


def test_group_cap_is_one_error_line_naming_the_datum(monkeypatch, capsys):
    # A1, A2 and B2 close within 10 elements; G2 (order 12) does not
    monkeypatch.setattr(weyl, "WEYL_ORDER_CAP", 10)
    assert run(["verify-duality", "--max-rank", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: G2[") and "cap of 10" in err[0]


@pytest.mark.parametrize("argv", [
    ["ktheory", "--type", "E", "--rank", "7"],
    ["fixed-points", "--type", "E", "--rank", "8"],
    ["ktheory", "--type", "D", "--rank", "8"],
])
def test_group_over_the_cap_is_refused_before_closing(monkeypatch, capsys, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a closure started")

    monkeypatch.setattr(weyl.WeylGroup, "from_generators", refuse)
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {argv[2]}{argv[4]}[") and "cap of 2000000" in err[0]


def test_affine_compare_small(capsys):
    assert run(["affine-compare", "--max-rank", "2"]) == 0
    text = capsys.readouterr().out
    assert "dual_equal=True" in text
    assert "n/a (type excluded)" in text  # the B2/C2 lines


def test_ktheory_command(tmp_path, capsys):
    out = tmp_path / "k.json"
    assert run(["ktheory", "--type", "A", "--rank", "2", "--form", "sc",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["k0"] == 5 and payload["k1"] == 1
    assert payload["weyl_order"] == 6 and payload["class_count"] == 3


def test_fixed_points_command(tmp_path, capsys):
    out = tmp_path / "fp.json"
    assert run(["fixed-points", "--type", "A", "--rank", "2", "--form", "sc",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["full_fixed_points"]) == 3
    assert run(["fixed-points", "--type", "A", "--rank", "2", "--form", "adjoint"]) == 0


def test_oscillator_command_small(tmp_path, capsys):
    out = tmp_path / "osc.json"
    assert run(["oscillator", "--grid", "400", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["kernel_dim"] == 1
    assert payload["kernel_parity"] == "even"


def test_oscillator_bad_grid(capsys):
    assert run(["oscillator", "--grid", "10"]) == 2


def test_clifford_check(tmp_path, capsys):
    out = tmp_path / "cl.json"
    assert run(["clifford-check", "--max-dim", "2", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True and payload["failures"] == []


def test_poincare_check(tmp_path, capsys):
    out = tmp_path / "pc.json"
    assert run(["poincare-check", "--samples", "25", "--seed", "11",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["max_deviation"] <= 1e-10


def test_poincare_check_deterministic(capsys):
    assert run(["poincare-check", "--samples", "10", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["poincare-check", "--samples", "10", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_so_form_flag(capsys):
    assert run(["dual", "--type", "D", "--rank", "4", "--form", "so"]) == 0
    text = capsys.readouterr().out
    assert "Z/2 -> Z/2" in text


@pytest.mark.parametrize("argv", [
    ["poincare-check", "--samples", "-5"],
    ["poincare-check", "--samples", "0"],
    ["clifford-check", "--max-dim", "0"],
    ["clifford-check", "--max-dim", "5"],
    ["verify-duality", "--max-rank", "0"],
    ["affine-compare", "--max-rank", "0"],
    ["verify-duality", "--forms", ""],
    ["verify-duality", "--forms", " , "],
    ["verify-duality", "--max-rank", "2", "--forms", "sc,bogus"],
    ["oscillator", "--grid", "249"],
    ["oscillator", "--grid", "4001"],
    ["oscillator", "--dim", "2", "--grid", "49"],
    ["oscillator", "--dim", "2", "--grid", "201"],
    ["oscillator", "--halfwidth", "3.9"],
    ["oscillator", "--halfwidth", "10.1"],
    ["oscillator", "--tol", "-1"],
    ["oscillator", "--tol", "nan"],
    ["oscillator", "--tol", "inf"],
    ["poincare-check", "--tol", "-1"],
    ["poincare-check", "--tol", "nan"],
    ["poincare-check", "--tol", "inf"],
    ["verify-duality", "--max-rank", "7", "--allow-large"],
    ["affine-compare", "--max-rank", "7", "--allow-large"],
])
def test_runs_that_check_nothing_exit_2_before_any_work(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# one small run of every command
EVERY_COMMAND = [
    ["dual", "--type", "A", "--rank", "2"],
    ["table-check"],
    ["verify-duality", "--max-rank", "2"],
    ["affine-compare", "--max-rank", "2"],
    ["ktheory", "--type", "A", "--rank", "2"],
    ["fixed-points", "--type", "A", "--rank", "2"],
    ["oscillator", "--dim", "1", "--grid", "250"],
    ["clifford-check", "--max-dim", "2"],
    ["poincare-check", "--samples", "5"],
]


def test_every_command_is_listed():
    [commands] = [a.choices for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert sorted(argv[0] for argv in EVERY_COMMAND) == sorted(commands)


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=[argv[0] for argv in EVERY_COMMAND])
def test_unwritable_json_path_exits_2(tmp_path, argv, capsys):
    # an OSError is a configuration error, not a failed check (exit 1)
    path = tmp_path / "missing" / "report.json"
    assert run(argv + ["--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "report.json" in err and not path.parent.exists()


SCIPY_FREE_COMMANDS = [
    ["verify-duality", "--max-rank", "2"],
    ["ktheory", "--type", "B", "--rank", "3"],
    ["fixed-points", "--type", "A", "--rank", "2"],
    ["table-check"],
    ["clifford-check", "--max-dim", "2"],
    ["poincare-check", "--samples", "5"],
    ["oscillator", "--dim", "1", "--grid", "250"],
    ["oscillator", "--dim", "2", "--grid", "50"],
]

IMPORT_BOUNDARY = f"""
import sys
import torusdual, torusdual.cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not loaded(), loaded()
for argv in {SCIPY_FREE_COMMANDS!r}:
    assert torusdual.cli.main(argv) == 0, argv
    assert not loaded(), (argv, loaded())
assert torusdual.cli.main(["oscillator", "--grid", "10"]) == 2
assert not loaded(), loaded()
"""


def test_no_command_loads_scipy():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
