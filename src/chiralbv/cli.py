"""Command-line driver for reproducible verification runs.

Subcommands mirror the package's verification surfaces:

    chiralbv fedosov solve --tmax N [--out j.json]
    chiralbv bcov verify --tmax N --degmax D [--out r.json]
    chiralbv phi --in j.json [--out modes.json] [--kmax K] [--bg-kmax K]
    chiralbv w-commute --jmax J
    chiralbv psm check --poisson p.json --degmax D
    chiralbv renorm ucheck --m M --k k0,k1,...
    chiralbv props [--cases N] [--seed S]

Every run emits a versioned JSON report (schema "1"); the exit code is 0
iff every check passed, 2 on usage errors and malformed input files, 3 on
truncation-budget overflow.  Reports are byte-identical across thread
counts apart from the wall_time_s field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import List, Optional

from .algebra import BudgetError, DiffPoly
from .vertex import ModeElement, mode_normal_form
from . import moyal
from . import bcov as bcov_mod
from . import psm as psm_mod
from . import renorm
from .correspondence import BackgroundSubstitution, phi as phi_map
from .properties import ALL_SUITES
from .vertex import make_bcov

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SCHEMA = "1"


class InputError(Exception):
    """An input file that cannot be read or does not describe a valid object."""


def _load(path: str, parse):
    """parse(json content of path); every defect of the file is an InputError."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        raise InputError(f"{path}: {msg}") from None


def _thread_count(args) -> int:
    if getattr(args, "threads", None):
        return args.threads
    env = os.environ.get("CHIRALBV_THREADS")
    return int(env) if env else 1


def _report(command: str, parameters: dict, checks: List[dict], extra: Optional[dict] = None) -> dict:
    rep = {
        "schema": SCHEMA,
        "command": command,
        "parameters": {k: parameters[k] for k in sorted(parameters)},
        "checks": sorted(checks, key=lambda c: c["name"]),
        "pass": all(c["pass"] for c in checks),
    }
    if extra:
        rep.update(extra)
    return rep


def _emit(rep: dict, out: Optional[str], started: float) -> int:
    rep["wall_time_s"] = round(time.time() - started, 3)
    text = json.dumps(rep, indent=2, sort_keys=False)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if rep["pass"] else EXIT_FAIL


def _frac(f: Fraction) -> str:
    return str(f)


def cmd_fedosov_solve(args) -> int:
    started = time.time()
    sol = moyal.fedosov_solve(args.tmax)
    J = sol.j()
    checks = [
        {"name": "mc-residual-zero", "pass": all(sol.residual_zero.values()),
         "detail": {str(k): v for k, v in sorted(sol.residual_zero.items())}},
        {"name": "delta-inv-zero", "pass": moyal.delta_inv(J).is_zero()},
        {"name": "reflection-invariant", "pass": moyal.reflection(J) == J},
        {"name": "closed-form-dz-free", "pass":
            J.filter(lambda w, l: all(dg.dz == 0 for dg in w)) == moyal.closed_form_j0(args.tmax, sol.system)},
        {"name": "levels-graded-1-1", "pass": all(
            lv.is_zero() or (lambda g: g is not None and (g[0], g[1]) == (1, Fraction(1)))(moyal.deg_cw(lv))
            for lv in sol.levels)},
    ]
    rep = _report("fedosov solve", {"tmax": args.tmax}, checks,
                  {"expression": J.to_obj(),
                   "residual_report": {str(k): v for k, v in sorted(sol.residual_zero.items())}})
    return _emit(rep, args.out, started)


def cmd_bcov_verify(args) -> int:
    started = time.time()
    threads = _thread_count(args)
    sol = moyal.fedosov_solve(args.tmax)

    def check_classical() -> dict:
        rep = bcov_mod.verify_classical_limit(args.tmax, args.degmax, solution=sol)
        return {"name": "classical-limit", "pass": rep.exact_match,
                "detail": {"global_scalar": _frac(rep.scalar) if rep.scalar is not None else None,
                           "compared_terms": rep.compared_terms,
                           "difference_zero": rep.difference.is_zero()}}

    def check_equivariance() -> dict:
        system, _ = make_bcov(max(args.degmax - 2, args.tmax, 1))
        ok = bcov_mod.check_equivariant(bcov_mod.bcov_classical(system, args.degmax))
        return {"name": "classical-equivariance", "pass": ok}

    def check_stationary() -> dict:
        pairs = [(j, k) for j in range(2, 5) for k in range(j, 5)]
        bad = [p for p in pairs if not bcov_mod.stationary_commutator(*p).is_zero()]
        return {"name": "stationary-commutators", "pass": not bad,
                "detail": {"pairs": len(pairs), "failing": [list(p) for p in bad]}}

    def check_quantum_mc() -> dict:
        wmax = min(args.tmax, 2)
        rep = bcov_mod.bcov_mc_report(args.tmax, wmax, solution=sol)
        return {"name": "quantum-mc-central-repair",
                "pass": rep.residual_purely_central and rep.repaired_zero,
                "detail": {"weight_window": wmax,
                           "raw_residual_terms": rep.raw_residual.num_terms(),
                           "purely_central": rep.residual_purely_central,
                           "repaired_zero": rep.repaired_zero}}

    def check_integrality() -> dict:
        system, _ = make_bcov(max(args.tmax, 1))
        bg = BackgroundSubstitution(kmax=max(args.tmax, 1))
        image = phi_map(sol.j(), system, bg, wmax=args.tmax).part(0)
        nf = mode_normal_form(ModeElement.zero_mode(image)).part(0)
        even = all(sum(dg.dz for dg in w) % 2 == 0 for (w, _) in nf._terms)
        ok = even
        if even:
            try:
                bcov_mod.restore_lambda_powers(nf)
            except ValueError:
                ok = False
        return {"name": "integrality-even-dz", "pass": ok}

    tasks = [check_classical, check_equivariance, check_stationary, check_quantum_mc, check_integrality]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            checks = list(pool.map(lambda f: f(), tasks))
    else:
        checks = [f() for f in tasks]
    rep = _report("bcov verify", {"tmax": args.tmax, "degmax": args.degmax, "threads": threads}, checks)
    return _emit(rep, args.out, started)


def cmd_phi(args) -> int:
    started = time.time()
    bsys = moyal.make_b_system()
    J = _load(args.infile, lambda obj: DiffPoly.from_obj(bsys, obj))
    kmax_bg = args.bg_kmax
    system, _ = make_bcov(kmax_bg)
    bg = BackgroundSubstitution(kmax=kmax_bg)
    modes = phi_map(J, system, bg, kmax=args.kmax)
    rep = _report("phi", {"in": args.infile, "kmax": args.kmax, "bg_kmax": kmax_bg},
                  [{"name": "computed", "pass": True}],
                  {"modes": modes.to_obj()})
    return _emit(rep, args.out, started)


def cmd_w_commute(args) -> int:
    started = time.time()
    threads = _thread_count(args)
    pairs = [(j, k) for j in range(2, args.jmax + 1) for k in range(j, args.jmax + 1)]

    def one(p):
        j, k = p
        return {"name": f"commutator-{j}-{k}", "pass": bcov_mod.stationary_commutator(j, k).is_zero()}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            checks = list(pool.map(one, pairs))
    else:
        checks = [one(p) for p in pairs]
    rep = _report("w-commute", {"jmax": args.jmax, "threads": threads}, checks)
    return _emit(rep, args.out, started)


def cmd_psm_check(args) -> int:
    started = time.time()
    P = _load(args.poisson, psm_mod.PoissonBivector.from_obj)
    built = psm_mod.build_psm(P, args.degmax)
    residual = psm_mod.psm_mc_check(P, args.degmax, built=built)
    # the interaction keeps P up to polynomial degree degmax - 2, and its
    # residual carries that part's whole obstruction (degree <= 2*degmax - 5)
    carried = P.truncated(args.degmax - 2)
    jacobi = carried.is_jacobi()
    tri = psm_mod.trivector_functional(carried, built[0], 2 * args.degmax)
    obstruction = mode_normal_form(ModeElement.zero_mode(tri)).scale(Fraction(4))
    lam_ok = all(l == 0 for p in residual.parts.values() for (_, l) in p._terms)
    checks = [
        {"name": "residual-zero-iff-jacobi", "pass": residual.is_zero() == jacobi,
         "detail": {"jacobi": jacobi, "residual_zero": residual.is_zero()}},
        {"name": "residual-equals-obstruction", "pass": (residual - obstruction).is_zero()},
        {"name": "no-quantum-sectors", "pass": lam_ok},
    ]
    rep = _report("psm check", {"poisson": args.poisson, "degmax": args.degmax}, checks,
                  {"residual": residual.to_obj()})
    return _emit(rep, args.out, started)


def cmd_renorm_ucheck(args) -> int:
    started = time.time()
    ks = [int(x) for x in args.k.split(",")]
    r = renorm.residue_identity_report(args.m, ks)
    tol = args.tol
    checks = [
        {"name": "quadrature-vs-oracle", "pass": r["quadrature_vs_exact"] <= tol,
         "detail": {"difference": r["quadrature_vs_exact"]}},
        {"name": "ratio-is-m-plus-1", "pass": r["ratio_exact"] == Fraction(args.m + 1),
         "detail": {"ratio": _frac(r["ratio_exact"])}},
    ]
    rep = _report("renorm ucheck", {"m": args.m, "k": ks, "tol": tol}, checks,
                  {"S": r["S_quadrature"], "S_exact": _frac(r["S_exact"]),
                   "rhs": _frac(r["rhs"]), "ratio": _frac(r["ratio_exact"])})
    return _emit(rep, args.out, started)


def cmd_props(args) -> int:
    started = time.time()
    threads = _thread_count(args)
    names = list(ALL_SUITES)

    def one(name):
        from .properties import run_suite
        return run_suite(name, seed=args.seed, cases=args.cases).as_obj()

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            checks = list(pool.map(one, names))
    else:
        checks = [one(n) for n in names]
    rep = _report("props", {"cases": args.cases, "seed": args.seed, "threads": threads}, checks)
    return _emit(rep, args.out, started)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chiralbv", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--threads", type=int, default=None,
                    help="worker threads for independent checks (default: CHIRALBV_THREADS or 1)")
    sub = ap.add_subparsers(dest="command", required=True)

    fed = sub.add_parser("fedosov", help="flat-connection solver").add_subparsers(dest="sub", required=True)
    s = fed.add_parser("solve", help="solve delta J + [J,J]/2 = 0 through T <= tmax")
    s.add_argument("--tmax", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_fedosov_solve)

    bv = sub.add_parser("bcov", help="BCOV identity checks").add_subparsers(dest="sub", required=True)
    s = bv.add_parser("verify", help="classical limit, gradings, commuting Hamiltonians")
    s.add_argument("--tmax", type=int, required=True)
    s.add_argument("--degmax", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_bcov_verify)

    s = sub.add_parser("phi", help="apply the chiral-mode transport to a Moyal element")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--kmax", type=int, default=None, help="bound on the W-sum (default: exact)")
    s.add_argument("--bg-kmax", type=int, default=6, help="background-series truncation index")
    s.set_defaults(func=cmd_phi)

    s = sub.add_parser("w-commute", help="stationary Hamiltonians commute")
    s.add_argument("--jmax", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_w_commute)

    ps = sub.add_parser("psm", help="Poisson sigma-model checks").add_subparsers(dest="sub", required=True)
    s = ps.add_parser("check", help="master-equation residual for a bivector")
    s.add_argument("--poisson", required=True)
    s.add_argument("--degmax", type=int, required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_psm_check)

    rn = sub.add_parser("renorm", help="ordered u-integral verification").add_subparsers(dest="sub", required=True)
    s = rn.add_parser("ucheck")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--k", required=True, help="comma-separated exponents k0,k1,...")
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_renorm_ucheck)

    s = sub.add_parser("props", help="randomized property suites")
    s.add_argument("--cases", type=int, default=100)
    s.add_argument("--seed", type=int, default=20240901)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_props)

    return ap


def run(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget overflow: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
