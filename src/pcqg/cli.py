"""Command line interface.

Every subcommand prints one JSON report to stdout with sorted keys, fixed
indentation and no timestamps, so identical invocations produce identical
bytes.  Exit code 0 means every check in the report passed, 1 means some
check failed, 2 means the invocation itself was malformed.  Reports embed
the parsed configuration and the tolerance of every check.

CSV output (--format csv) is available only for subcommands whose payload
is a flat table.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .corep import regular_rep, tensor_reps, trivial_rep, verify_rep
from .cset import brute_force_csets, classify_irreducible_csets, compare_on_window
from .decoupling import (
    build_pi_ST,
    default_c_grid,
    enumerate_irreps,
    grading_residuals,
    round_trip_residuals,
    spec_omega_brute_force,
    spec_omega_closed_form,
    support_residual,
)
from .dynsu2 import (
    SUITES,
    DynParams,
    antipode_block_check,
    antipode_check,
    antipode_square_check,
    build_pi_c,
    coproduct_compat_check,
    default_window,
    generator_norm_bounds,
    reduce_and_check,
    verify_dynsu2_relations,
    x_symmetry_check,
)
from .fdpcqg import (
    FiniteGroupoid,
    FinitePQG,
    from_finite_groupoid_algebra,
    from_finite_groupoid_functions,
    haar_cesaro,
    haar_linear_solve,
    haar_residuals,
    raum_instance,
    standard_groupoids,
    uniform_haar_oracle,
    verify_axioms,
)
from .uqsu11 import build_pi_T, compatible_sets, verify_uqsu11_relations
from .words import parse_word

__all__ = ["RunConfig", "main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# two independent Haar constructions must agree to this absolute tolerance
HAAR_AGREEMENT_TOL = 1e-8
NORM_SLACK = 1e-12
# a reduced word must match the original in both pi_c oracles to this
# absolute tolerance (acceptance criterion 8)
REDUCE_ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Knobs of one invocation, embedded verbatim in its report."""

    q: Optional[float] = None
    x: Optional[float] = None
    c: Optional[float] = None
    c2: Optional[float] = None
    y: Optional[float] = None
    window: Optional[int] = None
    truncation: Optional[int] = None
    grid: Optional[int] = None
    half: Optional[int] = None
    index: Optional[int] = None
    max_len: Optional[int] = None
    anchor: Optional[float] = None
    tol: Optional[float] = None
    seed: int = 0
    word: Optional[str] = None
    form: Optional[str] = None
    method: Optional[str] = None
    suite: Optional[str] = None
    path: Optional[str] = None
    fmt: str = "json"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        names = (f.name for f in fields(cls))
        return cls(**{n: getattr(args, n) for n in names if hasattr(args, n)})


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "value"):  # enums
        return obj.value
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _check_dict(r) -> dict:
    if hasattr(r, "to_json_dict"):
        d = r.to_json_dict()
        d.setdefault("passed", bool(r.passed))
        return d
    d = {
        "label": r.label,
        "residual": float(r.residual),
        "tol": float(r.tol),
        "passed": bool(r.passed),
    }
    return d


def _write_csv(rows: list, stream) -> None:
    fields: list = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    writer = csv.DictWriter(stream, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        flat = {
            k: json.dumps(v, default=_json_default) if isinstance(v, (list, dict)) else v
            for k, v in row.items()
        }
        writer.writerow(flat)


def _emit(args: argparse.Namespace, report: dict) -> int:
    code = EXIT_OK if report.get("passed", True) else EXIT_FAIL
    if getattr(args, "fmt", "json") == "csv":
        rows = report.get("rows")
        if rows is None:
            print("csv output is only available for flat tables", file=sys.stderr)
            return EXIT_USAGE
        _write_csv(rows, sys.stdout)
        if getattr(args, "out", None):
            with open(args.out, "w", newline="") as fh:
                _write_csv(rows, fh)
        return code
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return code


def _finish(args, command: str, payload: dict, checks=None, tolerances=None) -> int:
    report: dict = {"command": command, "config": asdict(RunConfig.from_args(args))}
    if tolerances:
        report["tolerances"] = tolerances
    if checks is not None:
        clist = [_check_dict(r) for r in checks]
        report["checks"] = clist
        report["passed"] = all(c["passed"] for c in clist)
    else:
        report["passed"] = True
    report.update(payload)
    return _emit(args, report)


# -- c-set subcommands --------------------------------------------------------


def _descriptor_dict(d) -> dict:
    out = {"kind": d.kind.value, "series": d.series_label(), "c": d.c, "q": d.q}
    if d.z is not None:
        out["z"] = d.z
    if d.z_exponent is not None:
        out["z_exponent"] = d.z_exponent
    if d.z_range is not None:
        out["z_range"] = list(d.z_range)
    return out


def cmd_csets_classify(args) -> int:
    sets = classify_irreducible_csets(args.c, args.q)
    rows = [_descriptor_dict(d) for d in sets]
    return _finish(args, "csets classify", {"rows": rows, "count": len(rows)})


def cmd_csets_brute(args) -> int:
    sets = brute_force_csets(args.c, args.q, args.window, anchor=args.anchor)
    rows = [
        {
            "exponents": list(s.exponents),
            "size": len(s.exponents),
            "limited_low": s.limited_low,
            "limited_high": s.limited_high,
        }
        for s in sets
    ]
    return _finish(args, "csets brute", {"rows": rows, "count": len(rows)})


def cmd_csets_compare(args) -> int:
    rep = compare_on_window(args.c, args.q, args.window, anchor=args.anchor)
    return _finish(args, "csets compare", {"comparison": rep, "passed": bool(rep["equal"])})


# -- one-variable representation subcommands ----------------------------------


def _compatible_rows(sets) -> list:
    return [
        {
            "label": s.label(),
            "kind": s.kind.value,
            "gamma_exponent": s.gamma_exponent,
            "t_preview": list(s.t_preview),
        }
        for s in sets
    ]


def cmd_uq_reps(args) -> int:
    sets = compatible_sets(args.y, args.c, args.q, window=args.window)
    return _finish(args, "uq reps", {"rows": _compatible_rows(sets), "count": len(sets)})


def cmd_uq_verify(args) -> int:
    sets = compatible_sets(args.y, args.c, args.q, window=args.window)
    checks = []
    for s in sets:
        rep = build_pi_T(s, truncation=args.truncation)
        for r in verify_uqsu11_relations(rep, tol=args.tol):
            checks.append(
                type(r)(
                    label=f"{s.label()}::{r.label}",
                    residual=r.residual,
                    margins=r.margins,
                    tol=r.tol,
                )
            )
    payload = {"sets": _compatible_rows(sets)}
    return _finish(args, "uq verify", payload, checks=checks, tolerances={"tol": args.tol})


# -- two-variable generator family subcommands --------------------------------


def _pi_c_bundle(args, c=None):
    params = DynParams(q=args.q, x=args.x, c=args.c if c is None else c)
    half = (args.window - 1) // 2
    return build_pi_c(params, window=default_window(params, half=half))


def cmd_dyn_build(args) -> int:
    b = _pi_c_bundle(args)
    norms = generator_norm_bounds(b)
    payload = {
        "window": b.window.to_json_dict(),
        "basis_size": b.window.size,
        "norm_bounds": norms,
        "passed": all(v <= 1.0 + NORM_SLACK for v in norms.values()),
    }
    return _finish(args, "dyn build", payload, tolerances={"norm_slack": NORM_SLACK})


def cmd_dyn_verify(args) -> int:
    b = _pi_c_bundle(args)
    checks = verify_dynsu2_relations(b, tol=args.tol, suite=args.suite)
    payload = {"relation_count": len(checks), "basis_size": b.window.size}
    return _finish(args, "dyn verify", payload, checks=checks, tolerances={"tol": args.tol})


def cmd_dyn_coproduct(args) -> int:
    b1 = _pi_c_bundle(args)
    b2 = _pi_c_bundle(args, c=args.c2)
    checks = coproduct_compat_check(b1, b2, half=args.half, tol=args.tol)
    return _finish(args, "dyn coproduct", {}, checks=checks, tolerances={"tol": args.tol})


def cmd_dyn_antipode(args) -> int:
    b = _pi_c_bundle(args)
    checks = list(antipode_check(b, tol=args.tol))
    checks.append(antipode_square_check(b))
    checks.append(antipode_block_check(b))
    return _finish(args, "dyn antipode", {}, checks=checks, tolerances={"tol": args.tol})


def cmd_dyn_reduce(args) -> int:
    letters, _ = parse_word(args.word, args.q, args.x)
    b1 = _pi_c_bundle(args)
    b2 = _pi_c_bundle(args, c=args.c2)
    rep = reduce_and_check(letters, (b1, b2), max_len=args.max_len)
    ok = rep.pop("ok")
    passed = ok and rep["idempotent"] and all(
        r < REDUCE_ORACLE_TOL for r in rep["oracle_residuals"]
    )
    payload = {"word": args.word, "letters": list(letters), **rep, "passed": passed}
    return _finish(
        args, "dyn reduce", payload, tolerances={"oracle_tol": REDUCE_ORACLE_TOL}
    )


def cmd_dyn_xsym(args) -> int:
    b = _pi_c_bundle(args)
    checks = x_symmetry_check(b, tol=args.tol)
    return _finish(args, "dyn xsym", {}, checks=checks, tolerances={"tol": args.tol})


# -- decoupled pair subcommands ------------------------------------------------


def cmd_irreps_enumerate(args) -> int:
    pairs = enumerate_irreps(args.q, args.x, args.c, window=args.window)
    rows = [p.to_json_dict() for p in pairs]
    return _finish(args, "irreps enumerate", {"rows": rows, "count": len(rows)})


def cmd_irreps_build(args) -> int:
    pairs = enumerate_irreps(args.q, args.x, args.c, window=args.window)
    if not pairs:
        payload = {"passed": False, "error": "no irreducible pairs at this Casimir value"}
        return _finish(args, "irreps build", payload)
    if args.index >= len(pairs):
        print(f"--index {args.index} out of range ({len(pairs)} pairs)", file=sys.stderr)
        return EXIT_USAGE
    st = build_pi_ST(pairs[args.index], truncation=args.truncation)
    checks = list(verify_dynsu2_relations(st, tol=args.tol))
    checks.extend(grading_residuals(st))
    checks.append(support_residual(st))
    checks.extend(round_trip_residuals(st, tol=args.tol))
    payload = {"bundle": st.to_json_dict(), "count": len(pairs)}
    return _finish(args, "irreps build", payload, checks=checks, tolerances={"tol": args.tol})


def cmd_spectrum_closed(args) -> int:
    desc = spec_omega_closed_form(args.q, args.x)
    return _finish(args, "spectrum closed", {"spectrum": desc.to_json_dict()})


def _brute_report(args) -> dict:
    grid = default_c_grid(args.q, args.x, n=args.grid)
    return spec_omega_brute_force(args.q, args.x, c_grid=grid, window=args.window)


def cmd_spectrum_brute(args) -> int:
    rep = _brute_report(args)
    rows = rep.pop("entries")
    return _finish(args, "spectrum brute", {"rows": rows, "summary": rep})


def cmd_spectrum_compare(args) -> int:
    rep = _brute_report(args)
    rep.pop("entries")
    agreement = rep["grid_agreement"]
    payload = {
        "summary": rep,
        "mismatches": agreement["mismatches"],
        "checked": agreement["checked"],
        "passed": agreement["mismatches"] == 0,
    }
    return _finish(args, "spectrum compare", payload)


# -- finite instance subcommands -----------------------------------------------


def _load_instance(args):
    """Instance from a JSON file: either an instance dump or a groupoid."""
    with open(args.path) as fh:
        data = json.load(fh)
    if "arrows" in data:
        gpd = FiniteGroupoid.from_json_dict(data)
        if args.form == "algebra":
            return from_finite_groupoid_algebra(gpd), gpd
        return from_finite_groupoid_functions(gpd), gpd
    return FinitePQG.from_json_dict(data), None


def cmd_fdqg_check(args) -> int:
    G, _ = _load_instance(args)
    report = verify_axioms(G, tol=args.tol)
    lines = [f"({c.label}): {'PASS' if c.passed else 'FAIL'}" for c in report.checks]
    payload = {
        "lines": lines,
        "failed_axioms": report.failed_axioms(),
        "failed_labels": report.failed_labels(),
        "dim": G.dim,
        "n_objects": G.n_objects,
    }
    return _finish(args, "fdqg check", payload, checks=report.checks, tolerances={"tol": args.tol})


def cmd_fdqg_haar(args) -> int:
    G, gpd = _load_instance(args)
    checks = []
    payload: dict = {"dim": G.dim, "n_objects": G.n_objects}
    families = {}
    if args.method in ("cesaro", "both"):
        families["cesaro"] = haar_cesaro(G, tol=args.tol)
    if args.method in ("solve", "both"):
        families["solve"] = haar_linear_solve(G, tol=args.tol)
    for name, fam in families.items():
        payload[f"{name}_diagnostics"] = fam.diagnostics
        for r in haar_residuals(G, fam, tol=args.tol):
            checks.append(
                type(r)(label=f"{name}::{r.label}", passed=r.passed, residual=r.residual)
            )
    if len(families) == 2:
        diff = max(
            np.abs(
                families["cesaro"].phi(k, m).vector - families["solve"].phi(k, m).vector
            ).max(initial=0.0)
            for k in range(G.n_objects)
            for m in range(G.n_objects)
        )
        ok = diff <= HAAR_AGREEMENT_TOL
        checks.append(type(checks[0])(label="routes_agree", passed=ok, residual=float(diff)))
    if gpd is not None and args.form == "functions":
        oracle = uniform_haar_oracle(G, gpd)
        base = families.get("solve") or families["cesaro"]
        diff = max(
            np.abs(base.phi(k, m).vector - oracle.phi(k, m).vector).max(initial=0.0)
            for k in range(G.n_objects)
            for m in range(G.n_objects)
        )
        checks.append(
            type(checks[0])(
                label="uniform_oracle", passed=diff <= args.tol, residual=float(diff)
            )
        )
    tolerances = {"tol": args.tol, "agreement_tol": HAAR_AGREEMENT_TOL}
    return _finish(args, "fdqg haar", payload, checks=checks, tolerances=tolerances)


def cmd_fdqg_reps(args) -> int:
    G, gpd = _load_instance(args)
    checks = []

    def _collect(tag, X):
        for r in verify_rep(X, tol=args.tol):
            checks.append(
                type(r)(
                    label=f"{tag}::{r.label}",
                    passed=r.passed,
                    residual=r.residual,
                    detail=r.detail,
                )
            )
        return X.space_dim

    dims = {"trivial": _collect("trivial", trivial_rep(G))}
    if gpd is not None and args.form == "functions":
        R = regular_rep(G, gpd)
        dims["regular"] = _collect("regular", R)
        dims["regular_x_trivial"] = _collect(
            "regular_x_trivial", tensor_reps(R, trivial_rep(G))
        )
    payload = {"space_dims": dims}
    return _finish(args, "fdqg reps", payload, checks=checks, tolerances={"tol": args.tol})


def cmd_fixtures_generate(args) -> int:
    import os

    os.makedirs(args.dir, exist_ok=True)
    written = []

    def _dump(name, obj):
        path = os.path.join(args.dir, name)
        with open(path, "w") as fh:
            json.dump(obj.to_json_dict(), fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        written.append(path)

    for name, gpd in sorted(standard_groupoids().items()):
        _dump(f"{name}.groupoid.json", gpd)
        _dump(f"{name}_fn.json", from_finite_groupoid_functions(gpd))
        _dump(f"{name}_alg.json", from_finite_groupoid_algebra(gpd))
    _dump("raum.json", raum_instance())
    return _finish(args, "fixtures generate", {"written": sorted(written)})


# -- parser --------------------------------------------------------------------


def _odd_window(text: str) -> int:
    value = int(text)
    if value < 3 or value % 2 == 0:
        raise argparse.ArgumentTypeError("window must be an odd integer >= 3")
    return value


def _add_out(p) -> None:
    p.add_argument("--out", default=None, help="also write the report to this file")
    p.add_argument(
        "--format",
        dest="fmt",
        choices=("json", "csv"),
        default="json",
        help="csv is accepted only by flat-table subcommands",
    )


def _add_qc(p, *, c_default=0.0) -> None:
    p.add_argument("--q", type=float, default=0.5, help="deformation parameter in (0, 1)")
    p.add_argument("--c", type=float, default=c_default, help="Casimir eigenvalue")


def _add_tol(p, default=1e-10) -> None:
    p.add_argument("--tol", type=float, default=default, help="residual tolerance")


def _add_dyn(p) -> None:
    _add_qc(p)
    p.add_argument("--x", type=float, default=1.0, help="lattice anchor parameter")
    p.add_argument(
        "--window",
        type=_odd_window,
        default=21,
        help="points per lattice axis (odd)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcqg",
        description="classification, representation, and axiom checks with JSON reports",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    sub = parser.add_subparsers(dest="command", required=True)

    cs = sub.add_parser("csets", help="adapted subsets of one q^2 orbit")
    cs_sub = cs.add_subparsers(dest="mode", required=True)
    p = cs_sub.add_parser("classify", help="closed-form classification")
    _add_qc(p)
    _add_out(p)
    p.set_defaults(func=cmd_csets_classify)
    p = cs_sub.add_parser("brute", help="exhaustive search on an exponent window")
    _add_qc(p)
    p.add_argument("--window", type=int, default=24, help="exponent half-range")
    p.add_argument("--anchor", type=float, default=1.0)
    _add_out(p)
    p.set_defaults(func=cmd_csets_brute)
    p = cs_sub.add_parser("compare", help="classification against brute force")
    _add_qc(p)
    p.add_argument("--window", type=int, default=24, help="exponent half-range")
    p.add_argument("--anchor", type=float, default=1.0)
    _add_out(p)
    p.set_defaults(func=cmd_csets_compare)

    uq = sub.add_parser("uq", help="one-variable generator triples")
    uq_sub = uq.add_subparsers(dest="mode", required=True)
    p = uq_sub.add_parser("reps", help="compatible sets at (y, c)")
    _add_qc(p)
    p.add_argument("--y", type=float, default=1.0, help="spectral anchor")
    p.add_argument("--window", type=int, default=8)
    _add_out(p)
    p.set_defaults(func=cmd_uq_reps)
    p = uq_sub.add_parser("verify", help="relation residuals on each compatible set")
    _add_qc(p)
    p.add_argument("--y", type=float, default=1.0, help="spectral anchor")
    p.add_argument("--window", type=int, default=8)
    # deep discrete-series windows accumulate K-weight roundoff; 10 keeps the
    # raw residuals below 1e-10 at every tabulated c
    p.add_argument("--truncation", type=int, default=10)
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_uq_verify)

    dyn = sub.add_parser("dyn", help="two-variable generator family")
    dyn_sub = dyn.add_subparsers(dest="mode", required=True)
    p = dyn_sub.add_parser("build", help="build and report norm bounds")
    _add_dyn(p)
    _add_out(p)
    p.set_defaults(func=cmd_dyn_build)
    p = dyn_sub.add_parser("verify", help="defining relation residuals")
    _add_dyn(p)
    p.add_argument(
        "--suite",
        choices=tuple(SUITES),
        default="defining",
        help="defining: the 14 checks ort_*, id2_* and slide_*; "
        "full: all 22, adding adjoint_* and extcom_*",
    )
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_dyn_verify)
    p = dyn_sub.add_parser("coproduct", help="comultiplication compatibility")
    _add_dyn(p)
    p.add_argument("--c2", type=float, default=1.3, help="Casimir value of the second leg")
    p.add_argument("--half", type=int, default=4, help="half-width of the joint window")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_dyn_coproduct)
    p = dyn_sub.add_parser("antipode", help="antipode consistency checks")
    _add_dyn(p)
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_dyn_antipode)
    p = dyn_sub.add_parser("reduce", help="normal-form rewriting with operator oracle")
    _add_dyn(p)
    p.add_argument("--word", required=True, help="generator word, e.g. 'ab*gd'")
    p.add_argument("--c2", type=float, default=1.3, help="Casimir value of the second oracle")
    p.add_argument("--max-len", dest="max_len", type=int, default=8)
    _add_out(p)
    p.set_defaults(func=cmd_dyn_reduce)
    p = dyn_sub.add_parser("xsym", help="anchor-reflection symmetry checks")
    _add_dyn(p)
    _add_tol(p, default=1e-12)
    _add_out(p)
    p.set_defaults(func=cmd_dyn_xsym)

    ir = sub.add_parser("irreps", help="decoupled pairs at a Casimir value")
    ir_sub = ir.add_subparsers(dest="mode", required=True)
    p = ir_sub.add_parser("enumerate", help="all pairs at (q, x, c)")
    _add_qc(p)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--window", type=int, default=8)
    _add_out(p)
    p.set_defaults(func=cmd_irreps_enumerate)
    p = ir_sub.add_parser("build", help="build one pair and run the relation battery")
    _add_qc(p)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--index", type=int, default=0, help="which enumerated pair to build")
    p.add_argument("--truncation", type=int, default=16)
    _add_tol(p, default=1e-9)
    _add_out(p)
    p.set_defaults(func=cmd_irreps_build)

    spec = sub.add_parser("spectrum", help="Casimir spectrum of the decoupled pair")
    spec_sub = spec.add_subparsers(dest="mode", required=True)
    p = spec_sub.add_parser("closed", help="closed-form description")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--x", type=float, default=1.0)
    _add_out(p)
    p.set_defaults(func=cmd_spectrum_closed)
    p = spec_sub.add_parser("brute", help="membership by direct enumeration on a grid")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=400, help="grid points across the range")
    p.add_argument("--window", type=int, default=12, help="orbit exponent half-range")
    _add_out(p)
    p.set_defaults(func=cmd_spectrum_brute)
    p = spec_sub.add_parser("compare", help="closed form against enumeration")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--window", type=int, default=12)
    _add_out(p)
    p.set_defaults(func=cmd_spectrum_compare)

    fd = sub.add_parser("fdqg", help="finite-dimensional instances from files")
    fd_sub = fd.add_subparsers(dest="mode", required=True)
    p = fd_sub.add_parser("check", help="axiom report for an instance or groupoid file")
    p.add_argument("path", help="instance JSON or groupoid JSON")
    p.add_argument("--form", choices=("functions", "algebra"), default="functions")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_fdqg_check)
    p = fd_sub.add_parser("haar", help="invariant integrals by iteration and solve")
    p.add_argument("path")
    p.add_argument("--form", choices=("functions", "algebra"), default="functions")
    p.add_argument("--method", choices=("cesaro", "solve", "both"), default="both")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_fdqg_haar)
    p = fd_sub.add_parser("reps", help="trivial, regular, and tensor representation checks")
    p.add_argument("path")
    p.add_argument("--form", choices=("functions", "algebra"), default="functions")
    _add_tol(p)
    _add_out(p)
    p.set_defaults(func=cmd_fdqg_reps)

    fx = sub.add_parser("fixtures", help="bundled instance files")
    fx_sub = fx.add_subparsers(dest="mode", required=True)
    p = fx_sub.add_parser("generate", help="write the groupoid and instance fixtures")
    p.add_argument("--dir", default="fixtures", help="output directory")
    _add_out(p)
    p.set_defaults(func=cmd_fixtures_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
