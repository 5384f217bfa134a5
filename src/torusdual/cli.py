"""Command-line verification runs.

Exit codes: 0 = every requested check passed, 1 = a mathematical check
failed, 2 = usage or configuration error (an unwritable ``--json`` path
included).  Every command takes ``--json PATH`` to emit a machine-readable
report with a stable schema.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import clifford as cliff
from . import ktheory as kt
from . import oscillator as osc
from . import poincare as pc
from .fixedpoints import fixed_sets, full_fixed_points
from .rootdata import (
    SIMPLE_TYPES,
    RootDatum,
    build_simple,
    center,
    connection_index,
    datum_to_json,
    dualize,
    fundamental_group,
    is_simple_type,
)
from .weyl import GroupTooLargeError, generate

__all__ = ["main", "ReferenceTableRow", "REFERENCE_TABLE", "run_table_check"]

KTHEORY_RANK_CAP = 4
# E7 (rank 7, |W| = 2,903,040) and every rank-8 group but A8 exceed
# weyl.WEYL_ORDER_CAP, so a sweep through rank 7 or 8 could only fail
LARGE_RANK_CAP = 6

# per --dim: accepted grid range, default grid, halfwidth and level tolerance.
# The floors meet the default tolerance at the default halfwidth; the caps
# bound the cost of a run.
OSCILLATOR_SETTINGS = {1: ((250, 4000), 1600, 6.0, 0.01), 2: ((50, 200), 60, 4.0, 0.03)}
OSCILLATOR_HALFWIDTH_RANGE = (4.0, 10.0)


@dataclass(frozen=True)
class ReferenceTableRow:
    """One row of the embedded Langlands-dual table at its representative rank."""

    type: str
    rank: int
    form: object  # GroupForm of the named group G
    name: str
    dual_name: str
    dual_type: str
    dual_form: str  # expected structural classification of the dual
    f: int


SO_FORM = ((1, 0, 0, 0),)  # vector-class quotient of D4

REFERENCE_TABLE = (
    ReferenceTableRow("A", 2, "sc", "SU3", "PSU3", "A", "adjoint", 3),
    ReferenceTableRow("B", 2, "adjoint", "SO5", "Sp4", "C", "sc", 2),
    ReferenceTableRow("C", 2, "sc", "Sp4", "SO5", "B", "adjoint", 2),
    ReferenceTableRow("D", 4, SO_FORM, "SO8", "SO8", "D", "quotient", 4),
    ReferenceTableRow("E", 6, "sc", "E6", "E6(adjoint)", "E", "adjoint", 3),
    ReferenceTableRow("E", 7, "sc", "E7", "E7(adjoint)", "E", "adjoint", 2),
    ReferenceTableRow("E", 8, "sc", "E8", "E8", "E", "sc", 1),
    ReferenceTableRow("F", 4, "sc", "F4", "F4", "F", "sc", 1),
    ReferenceTableRow("G", 2, "sc", "G2", "G2", "G", "sc", 1),
)


def run_table_check(rows=None):
    """Check connection indices and dual labels against the embedded table.

    Returns a list of per-row result dicts; a row fails if the computed
    connection index or the dual's (type, form classification) disagree.
    """
    if rows is None:
        rows = REFERENCE_TABLE
    results = []
    for row in rows:
        rd = build_simple(row.type, row.rank, row.form)
        f_computed = connection_index(rd)
        dual = dualize(rd)
        # dualize labels the dual's form by the same tag as classify_form
        dual_label = (dual.label[0], dual.label[2])
        ok = f_computed == row.f and dual_label == (row.dual_type, row.dual_form)
        results.append(
            {
                "name": row.name,
                "type": row.type,
                "rank": row.rank,
                "f_expected": row.f,
                "f_computed": f_computed,
                "dual_expected": [row.dual_type, row.dual_form],
                "dual_computed": list(dual_label),
                "f_dual": connection_index(dual),
                "pass": ok,
            }
        )
    return results


def _parse_form(form: str, rank: int):
    if form in ("sc", "adjoint"):
        return form
    if form == "so":
        return [[1] + [0] * (rank - 1)]
    raise ValueError(f"unknown form {form!r} (expected sc, adjoint, or so)")


def _write_json(path, payload):
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


def _datum_from_args(args) -> RootDatum:
    return build_simple(args.type, args.rank, _parse_form(args.form, args.rank))


def cmd_dual(args) -> int:
    rd = _datum_from_args(args)
    dual = dualize(rd)
    print(f"{rd}  ->  {dual}")
    print(f"  pi1: {fundamental_group(rd)} -> {fundamental_group(dual)}")
    print(f"  center: {center(rd)} -> {center(dual)}")
    print(f"  connection index: {connection_index(rd)} = {connection_index(dual)}")
    _write_json(args.json, {"primal": datum_to_json(rd), "dual": datum_to_json(dual)})
    return 0


def cmd_table_check(args) -> int:
    results = run_table_check()
    failed = [r for r in results if not r["pass"]]
    for r in results:
        status = "ok" if r["pass"] else "FAIL"
        print(
            f"{r['name']:12s} f={r['f_computed']} (expected {r['f_expected']}) "
            f"dual={r['dual_computed']} (expected {r['dual_expected']})  {status}"
        )
    print(f"{len(results) - len(failed)}/{len(results)} rows pass")
    _write_json(args.json, {"rows": results, "pass": not failed})
    if failed:
        print("failing rows: " + ", ".join(r["name"] for r in failed))
        return 1
    return 0


def _duality_targets(max_rank: int, forms):
    """Every simple (type, rank) up to max_rank, in sorted order, in each form."""
    return [
        (t, r, form)
        for t in SIMPLE_TYPES
        for r in range(1, max_rank + 1)
        if is_simple_type(t, r)
        for form in forms
    ]


def _check_max_rank(max_rank: int, allow_large: bool) -> None:
    """Raise ValueError (exit 2) unless 1 <= max_rank <= the rank cap."""
    cap = LARGE_RANK_CAP if allow_large else KTHEORY_RANK_CAP
    if max_rank < 1:
        raise ValueError(f"--max-rank {max_rank} selects no datum")
    if max_rank > cap:
        raise ValueError(
            f"rank {max_rank} exceeds the cap of {cap}"
            + ("" if allow_large else f" (use --allow-large to lift it to {LARGE_RANK_CAP})")
        )


def cmd_verify_duality(args) -> int:
    forms = [f.strip() for f in args.forms.split(",") if f.strip()]
    if not forms:
        raise ValueError("--forms names no form")
    for form in forms:
        _parse_form(form, 1)
    _check_max_rank(args.max_rank, args.allow_large)
    reports = []
    all_equal = True
    for t, r, form in _duality_targets(args.max_rank, forms):
        rd = build_simple(t, r, _parse_form(form, r))
        rep = kt.verify_duality(rd)
        reports.append(rep)
        all_equal = all_equal and rep.verdict == "equal"
        print(
            f"{t}{r} {form:8s} primal={rep.primal} dual={rep.dual} verdict={rep.verdict}"
        )
    print(f"{sum(r.verdict == 'equal' for r in reports)}/{len(reports)} dual pairs equal")
    _write_json(args.json, {"reports": [kt.duality_report_to_json(r) for r in reports],
                            "pass": all_equal})
    return 0 if all_equal else 1


def cmd_affine_compare(args) -> int:
    _check_max_rank(args.max_rank, args.allow_large)
    adjoint_targets = [
        (t, r)
        for t, r, form in _duality_targets(args.max_rank, ["adjoint"])
    ]
    ok = True
    rows = []
    for t, r in adjoint_targets:
        rd = build_simple(t, r, "adjoint")
        rep = kt.affine_comparison(rd)
        line_ok = rep.dual_equal and rep.own_equal is not False
        ok = ok and line_ok
        rows.append(
            {
                "type": t,
                "rank": r,
                "extended": [rep.extended.k0, rep.extended.k1],
                "dual_affine": [rep.dual_affine.k0, rep.dual_affine.k1],
                "own_affine": None if rep.own_affine is None
                else [rep.own_affine.k0, rep.own_affine.k1],
                "pass": line_ok,
            }
        )
        own = "n/a (type excluded)" if rep.own_equal is None else str(rep.own_equal)
        print(
            f"{t}{r} adjoint: extended={rep.extended} dual_affine={rep.dual_affine} "
            f"dual_equal={rep.dual_equal} own_equal={own}"
        )
    _write_json(args.json, {"rows": rows, "pass": ok})
    return 0 if ok else 1


def cmd_ktheory(args) -> int:
    rd = _datum_from_args(args)
    group = generate(rd)
    rank, rows = kt.graded_rank_with_classes(group)
    print(f"{rd}: |W| = {len(group)}, {len(rows)} conjugacy classes")
    for row in rows:
        print(
            f"  class size {row.class_size:4d}  |Z| {row.centralizer_order:4d}  "
            f"fixed dim {row.fixed_dim}  components {row.component_count:3d}  "
            f"even {row.even_invariants:3d}  odd {row.odd_invariants:3d}"
        )
    print(f"graded rank: {rank}")
    _write_json(args.json, {
        "datum": datum_to_json(rd),
        "weyl_order": len(group),
        "class_count": len(rows),
        "k0": rank.k0,
        "k1": rank.k1,
        "classes": [kt._class_row_json(r, "primal") for r in rows],
    })
    return 0


def cmd_fixed_points(args) -> int:
    rd = _datum_from_args(args)
    group = generate(rd)
    print(f"{rd}: per-conjugacy-class fixed sets on T")
    rows = []
    reports = fixed_sets(group.array[[c.representative for c in group.classes]])
    for c, rep in zip(group.classes, reports):
        rows.append({
            "class_size": len(c.members),
            "fixed_dim": rep.fixed_dim,
            "components": rep.component_count(),
        })
        print(
            f"  class size {len(c.members):4d}: fixed dim {rep.fixed_dim}, "
            f"{rep.component_count()} components"
        )
    pts = [[str(v) for v in p] for p in full_fixed_points(rd)]
    print(f"full W-fixed points: {len(pts)}  {pts}")
    _write_json(args.json, {
        "datum": datum_to_json(rd),
        "classes": rows,
        "full_fixed_points": pts,
    })
    return 0


def _check_tol(tol: float) -> None:
    """Raise ValueError (exit 2) unless tol is finite and non-negative: a
    negative or nan tolerance fails every check and an infinite one passes
    every check, so neither tests anything."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"--tol must be finite and non-negative, got {tol}")


def cmd_oscillator(args) -> int:
    (lo, hi), grid, halfwidth, tol = OSCILLATOR_SETTINGS[args.dim]
    grid = grid if args.grid is None else args.grid
    halfwidth = halfwidth if args.halfwidth is None else args.halfwidth
    tol = tol if args.tol is None else args.tol
    _check_tol(tol)
    if not lo <= grid <= hi:
        raise ValueError(f"grid points must lie in [{lo}, {hi}] for dimension {args.dim}")
    h_lo, h_hi = OSCILLATOR_HALFWIDTH_RANGE
    if not h_lo <= halfwidth <= h_hi:
        raise ValueError(f"halfwidth must lie in [{h_lo}, {h_hi}]")
    report = osc.spectral_check(osc.build_q0(args.dim, grid, halfwidth))
    unit = 4.0 * np.pi
    checks = []
    for lam, expect in zip(report.eigenvalues, report.expected):
        if expect == 0.0:
            ok = bool(abs(lam) <= tol * unit)
        else:
            ok = bool(abs(lam - expect) <= tol * expect)
        checks.append(ok)
        print(f"  lambda = {lam:12.6f}  expected {expect:12.6f}  {'ok' if ok else 'FAIL'}")
    spectrum_ok = all(checks)
    kernel_ok = report.kernel_dim == 1
    parity_ok = report.kernel_even_fraction >= 0.999
    cosine_ok = report.kernel_cosine >= 0.999
    print(
        f"kernel dim {report.kernel_dim}, parity {report.kernel_parity} "
        f"(even fraction {report.kernel_even_fraction:.6f}), "
        f"cosine to exp(-pi |y|^2): {report.kernel_cosine:.6f}, "
        f"max residual {report.residual_max:.2e}"
    )
    passed = spectrum_ok and kernel_ok and parity_ok and cosine_ok
    payload = osc.spectral_report_to_json(report)
    payload["pass"] = passed
    # the kernel vector is grid-sized; keep the JSON schema lean
    _write_json(args.json, payload)
    print("oscillator check:", "pass" if passed else "FAIL")
    return 0 if passed else 1


def cmd_clifford_check(args) -> int:
    if not 1 <= args.max_dim <= cliff.MAX_DIM:
        raise ValueError(f"--max-dim must lie in 1..{cliff.MAX_DIM}")
    failures = []
    for n in range(1, args.max_dim + 1):
        p = cliff.clifford_projection(n)
        pd = cliff.dual_projection(n)
        checks = {
            "P^2 = P": p * p == p,
            "P* = P": p.star() == p,
            "u P u* = P_dual": cliff.conjugation_by_u(n, p) == pd,
        }
        for j in range(1, n + 1):
            e = cliff.generator(n, "e", j)
            eps = cliff.generator(n, "eps", j)
            checks[f"u e{j} u* = e{j}"] = cliff.conjugation_by_u(n, e) == e
            checks[f"u eps{j} u* = -eps{j}"] = cliff.conjugation_by_u(n, eps) == -eps
        checks["P invariant under signed permutations"] = all(
            cliff.symmetric_invariance_check(n, g, p)
            for g in cliff.signed_permutations(n)
        )
        bad = [name for name, ok in checks.items() if not ok]
        failures.extend(f"n={n}: {name}" for name in bad)
        print(f"n={n}: {len(checks) - len(bad)}/{len(checks)} identities hold")
    _write_json(args.json, {"failures": failures, "pass": not failures})
    return 0 if not failures else 1


def cmd_poincare_check(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    _check_tol(args.tol)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    rows = []
    for rank in (1, 2):
        f1 = pc.random_bump(rng, rank)
        f2 = pc.random_bump(rng, rank)
        devs = {
            "periodicity": pc.periodicity_check(f1, f2, rng, args.samples),
            "quasi_periodicity": pc.quasi_periodicity_check(f1, rng, args.samples),
        }
        mats = [np.eye(rank, dtype=int), -np.eye(rank, dtype=int)]
        if rank == 2:
            mats.append(np.array([[0, 1], [1, 0]]))
        for w in mats:
            key = "equivariance_" + "".join(str(int(v)) for v in np.asarray(w).ravel())
            devs[key] = pc.equivariance_check(w, f1, f2, rng, args.samples)
        gram = pc.gram_matrix(f1, rng.uniform(-1, 1, rank))
        devs["gram_negativity"] = max(0.0, -float(np.linalg.eigvalsh(gram).min()))
        for name, d in devs.items():
            print(f"  rank {rank} {name:24s} max deviation {d:.3e}")
            worst = max(worst, float(d))
        rows.append({"rank": rank, "deviations": devs})
    passed = bool(worst <= args.tol)
    print(f"max deviation {worst:.3e} vs tolerance {args.tol:.1e}: "
          + ("pass" if passed else "FAIL"))
    _write_json(args.json, {"rows": rows, "max_deviation": worst, "pass": passed})
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusdual",
        description="Desk-scale verification of Langlands-dual torus K-theory facts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def datum_args(p):
        p.add_argument("--type", required=True, choices=list("ABCDEFG"))
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--form", default="sc", help="sc, adjoint, or so")
        p.add_argument("--json", default=None)

    p = sub.add_parser("dual", help="build a root datum and its Langlands dual")
    datum_args(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("table-check", help="verify the embedded dual-group table")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_table_check)

    p = sub.add_parser("verify-duality", help="rational K-rank equality across duals")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--forms", default="sc,adjoint")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_verify_duality)

    p = sub.add_parser("affine-compare", help="affine vs extended affine ranks (adjoint types)")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_affine_compare)

    p = sub.add_parser("ktheory", help="graded rational equivariant K-rank of one datum")
    datum_args(p)
    p.set_defaults(func=cmd_ktheory)

    p = sub.add_parser("fixed-points", help="fixed sets of the Weyl action on the torus")
    datum_args(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("oscillator", help="spectral check of the duality operator")
    p.add_argument("--dim", type=int, default=1, choices=(1, 2))
    p.add_argument("--grid", type=int, default=None, help="default: 1600 (1D), 60 (2D)")
    p.add_argument("--halfwidth", type=float, default=None, help="default: 6 (1D), 4 (2D)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("clifford-check", help="exact spinor-projection identities")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_clifford_check)

    p = sub.add_parser("poincare-check", help="line-bundle pairing property run")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_poincare_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (ValueError, GroupTooLargeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
