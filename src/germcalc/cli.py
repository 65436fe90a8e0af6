"""Command-line interface: compute, verify, conjecture, lc, oracle, corpus."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import time

from . import __version__
from .germfile import Germfile, GermfileError, load_germfile
from .invariants import (
    ChainDegenerate,
    br_codim2_formula,
    br_direct,
    br_minus_direct,
    br_minus_formula,
    br_tor_formula,
    conjecture_scan,
    df_image,
    is_icis,
    jacobian_ideal,
    lc_ideals,
    milnor_icis,
    milnor_number,
    section_milnor,
    tau_via_theta_quotient,
    theta_x,
    theta_x_trivial,
    tjurina,
    tor1_dimension,
    verify_relative_identity,
)
from .modops import InternalError
from .ring import ParseError, render
from .stdbasis import (INFINITE, DegreeCapExceeded, Sentinel, degree_cap,
                       ideal_colength, oracle_colength, step_budget)

SCHEMA_VERSION = 1
SAFE_INT = 2 ** 53 - 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

ALL_IDENTITIES = ("t22", "t46", "c412", "c49", "p47", "p41", "cor23")


class InputError(ValueError):
    pass


def jsonable(value):
    """Exact JSON encoding: big integers become strings, sentinels markers."""
    if isinstance(value, Sentinel):
        return value.value
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if -SAFE_INT <= value <= SAFE_INT else str(value)
    return value


def emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for line in render_report(report):
        print(line)


def render_report(report: dict) -> list[str]:
    lines = []
    for name, value in sorted(report.get("invariants", {}).items()):
        lines.append(f"{name} = {value}")
    for entry in report.get("identities", []):
        detail = ""
        if entry.get("lhs") is not None:
            detail = f"  lhs={entry['lhs']} rhs={entry['rhs']}"
        if entry.get("reason"):
            detail += f"  ({entry['reason']})"
        lines.append(f"{entry['identity']}: {entry['status']}{detail}")
    for row in report.get("rows", []):
        if "tor" not in row:
            lines.append(f"trial {row['trial']}: degenerate")
            continue
        lines.append(f"trial {row['trial']}: tor={row['tor']} "
                     f"predicted={row['predicted']} "
                     f"{'PASS' if row['match'] else 'FAIL'}")
    if "matches" in report:
        lines.append(f"matches: {report['matches']}/{report['trials']}")
    if "oracle" in report:
        lines.append(f"oracle colength: {report['oracle']}")
        if "engine" in report:
            lines.append(f"engine colength: {report['engine']}")
    for item in report.get("items", []):
        lines.append(f"{item['file']}: {item['verdict']}")
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']}")
    return lines


def base_report(command: str) -> dict:
    return {"schema": SCHEMA_VERSION, "engine": __version__, "command": command}


def require_icis(gf: Germfile):
    ok, certificate = is_icis(gf.X)
    if not ok:
        cert = {k: jsonable(v) for k, v in certificate.items()}
        raise InputError(f"not an ICIS: {json.dumps(cert, sort_keys=True)}")


# ---------------------------------------------------------------------------
# compute

DIRECT_ONLY = ("muX", "tauX", "muF", "muSection", "tor1")
ROUTED = ("brMinus", "br")
ALL_INVARIANTS = DIRECT_ONLY + ROUTED


def compute_report(gf: Germfile, names: list[str], method: str) -> dict:
    require_icis(gf)
    X, f = gf.X, gf.f
    needs_f = {"muF", "muSection", "brMinus", "br", "tor1"}
    report = base_report("compute")
    values: dict = {}
    routes: dict = {}
    mismatches = []
    theta = None
    for name in names:
        if name in needs_f and f is None:
            raise InputError(f"invariant {name} needs an f: line in the germfile")
        if name in ("brMinus", "br") and theta is None:
            theta = theta_x(X)
        if name == "muX":
            values[name] = milnor_icis(X)
        elif name == "tauX":
            values[name] = tjurina(X)
        elif name == "muF":
            values[name] = milnor_number(f)
        elif name == "muSection":
            values[name] = section_milnor(f, X)
        elif name == "tor1":
            values[name] = tor1_dimension(list(X.phi), jacobian_ideal(f))
        elif name == "brMinus":
            by_route = {}
            if method in ("direct", "both"):
                by_route["direct"] = br_minus_direct(f, X, theta)
            if method in ("formula", "both"):
                by_route["formula"] = br_minus_formula(f, X)
            routes[name] = by_route
        elif name == "br":
            by_route = {}
            if method in ("direct", "both"):
                by_route["direct"] = br_direct(f, X, theta)
            if method in ("formula", "both"):
                by_route["formula"] = br_tor_formula(f, X)
                if X.k == 2:
                    by_route["codim2"] = br_codim2_formula(f, X)
            routes[name] = by_route
        else:
            raise InputError(f"unknown invariant {name!r}")
    for name, by_route in routes.items():
        vals = set(by_route.values())
        if len(vals) > 1:
            mismatches.append(name)
        values[name] = next(iter(by_route.values()))
    report["invariants"] = {k: jsonable(v) for k, v in values.items()}
    report["routes"] = {k: {r: jsonable(v) for r, v in by.items()}
                        for k, by in routes.items()}
    report["method"] = method
    report["mismatches"] = mismatches
    return report


def cmd_compute(args) -> int:
    gf = load_germfile(args.file)
    names = list(ALL_INVARIANTS) if args.invariants is None else [
        s.strip() for s in args.invariants.split(",") if s.strip()]
    if args.invariants is None and gf.f is None:
        names = ["muX", "tauX"]
    start = time.perf_counter()
    report = compute_report(gf, names, args.method)
    report["timing"] = round(time.perf_counter() - start, 6)
    emit(report, args.json)
    if report["mismatches"]:
        print(f"route mismatch on {', '.join(report['mismatches'])}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify

def check_identity(identity: str, gf: Germfile) -> dict:
    """One PASS/FAIL/SKIPPED verdict with both sides of the identity."""
    X, f = gf.X, gf.f
    entry: dict = {"identity": identity}

    def skip(reason):
        entry.update(status="SKIPPED", reason=reason)
        return entry

    def settle(lhs, rhs, ok=None):
        entry.update(lhs=jsonable(lhs), rhs=jsonable(rhs),
                     status="PASS" if (lhs == rhs if ok is None else ok)
                     else "FAIL")
        return entry

    if identity == "t22":
        if f is None:
            return skip("needs f")
        res = verify_relative_identity(f, X)
        return settle(res["lhs"], res["rhs"], ok=res["pass"])
    if identity == "t46":
        if f is None:
            return skip("needs f")
        return settle(br_direct(f, X), br_tor_formula(f, X))
    if identity == "c412":
        if f is None:
            return skip("needs f")
        if X.k != 2:
            return skip("needs codimension 2")
        return settle(br_direct(f, X), br_codim2_formula(f, X))
    if identity == "c49":
        if f is None:
            return skip("needs f")
        if X.k != 1:
            return skip("needs a hypersurface")
        Jf = jacobian_ideal(f)
        return settle(tor1_dimension(list(X.phi), Jf),
                      ideal_colength(list(X.phi) + Jf))
    if identity == "p47":
        tau = tjurina(X)
        first, second = tau_via_theta_quotient(X, f)
        entry.update(tau=jsonable(tau))
        return settle(first, second, ok=(first == tau and second == tau))
    if identity == "p41":
        if f is None:
            return skip("needs f")
        full = ideal_colength(df_image(f, theta_x(X)))
        trivial = ideal_colength(df_image(f, theta_x_trivial(X)))
        return settle("infinite" if full is INFINITE else "finite",
                      "infinite" if trivial is INFINITE else "finite")
    if identity == "cor23":
        if not gf.options.get("weighted_homogeneous"):
            return skip("needs the weighted_homogeneous option")
        return settle(milnor_icis(X), tjurina(X))
    raise InputError(f"unknown identity {identity!r}")


def verify_report(gf: Germfile, identities: list[str]) -> dict:
    require_icis(gf)
    report = base_report("verify")
    report["identities"] = [check_identity(name, gf) for name in identities]
    report["verdict"] = ("PASS" if all(e["status"] != "FAIL"
                                       for e in report["identities"])
                         else "FAIL")
    return report


def cmd_verify(args) -> int:
    gf = load_germfile(args.file)
    identities = list(ALL_IDENTITIES) if args.identities is None else [
        s.strip() for s in args.identities.split(",") if s.strip()]
    start = time.perf_counter()
    report = verify_report(gf, identities)
    report["timing"] = round(time.perf_counter() - start, 6)
    emit(report, args.json)
    return EXIT_PASS if report["verdict"] == "PASS" else EXIT_FAIL


# ---------------------------------------------------------------------------
# conjecture

def cmd_conjecture(args) -> int:
    if args.n <= 0 or args.k <= 0 or args.k > args.n:
        raise InputError("need 0 < k <= n")
    if args.trials < 0 or args.maxdeg <= 0:
        raise InputError("trials must be >= 0 and maxdeg positive")
    field = None
    if args.field is not None:
        from .germfile import _parse_field
        field = _parse_field(args.field, 0)
    start = time.perf_counter()
    scan = conjecture_scan(args.n, args.k, args.trials, args.maxdeg,
                           args.seed, field=field)
    report = base_report("conjecture")
    report.update(
        n=args.n, k=args.k, trials=args.trials, maxdeg=args.maxdeg,
        seed=args.seed,
        rows=[r if "tor" not in r else
              {"trial": r["trial"], "I": r["I"], "J": r["J"],
               "tor": [jsonable(t) for t in r["tor"]],
               "colength": jsonable(r["colength_sum"]),
               "predicted": [jsonable(t) for t in r["predicted"]],
               "euler_zero": r["euler_zero"], "match": r["match"]}
              for r in scan["rows"]],
        matches=scan["matches"], euler_all_zero=scan["euler_all_zero"])
    report["timing"] = round(time.perf_counter() - start, 6)
    emit(report, args.json)
    if not scan["euler_all_zero"]:
        return EXIT_FAIL
    return EXIT_PASS


# ---------------------------------------------------------------------------
# lc

def cmd_lc(args) -> int:
    gf = load_germfile(args.file)
    require_icis(gf)
    bundle = lc_ideals(gf.X)
    doc = {
        "schema": SCHEMA_VERSION,
        "engine": __version__,
        "variables": list(bundle.ring2n.names),
        "lc": [render(g) for g in bundle.lc],
        "lcMinus": [render(g) for g in bundle.lc_minus],
        "lcT": [render(g) for g in bundle.lc_trivial],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# oracle

def cmd_oracle(args) -> int:
    if args.object != "colength":
        raise InputError(f"unknown oracle {args.object!r}")
    gf = load_germfile(args.file)
    gens = [g for g in gf.X.phi if not g.is_zero]
    if not gens:
        raise InputError("no nonzero generators")
    start = time.perf_counter()
    oracle = oracle_colength(gens, truncation=args.truncation)
    engine = ideal_colength(gens)
    report = base_report("oracle")
    report["oracle"] = jsonable(oracle)
    report["engine"] = jsonable(engine)
    report["truncation"] = args.truncation
    report["agree"] = report["oracle"] == report["engine"]
    report["timing"] = round(time.perf_counter() - start, 6)
    emit(report, args.json)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# corpus

def _corpus_item(path: str) -> dict:
    try:
        gf = load_germfile(path)
        report = verify_report(gf, list(ALL_IDENTITIES))
        return {"file": path, "verdict": report["verdict"],
                "identities": report["identities"]}
    except (GermfileError, ParseError, InputError, ChainDegenerate,
            InternalError, DegreeCapExceeded, OSError) as e:
        return {"file": path, "verdict": "ERROR", "error": str(e)}


def cmd_corpus(args) -> int:
    import glob
    import os
    paths = sorted(glob.glob(os.path.join(args.directory, "*.germ")))
    if not paths:
        raise InputError(f"no .germ files in {args.directory}")
    start = time.perf_counter()
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            items = list(pool.map(_corpus_item, paths))
    else:
        items = [_corpus_item(p) for p in paths]
    report = base_report("corpus")
    report["items"] = items
    report["verdict"] = ("PASS" if all(i["verdict"] == "PASS" for i in items)
                         else "FAIL")
    report["timing"] = round(time.perf_counter() - start, 6)
    emit(report, args.json)
    return EXIT_PASS if report["verdict"] == "PASS" else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germcalc",
        description="Singularity invariants of analytic germs on an ICIS.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute invariants of a germfile")
    p.add_argument("file")
    p.add_argument("--invariants", default=None,
                   help="comma-separated subset of " + ",".join(ALL_INVARIANTS))
    p.add_argument("--method", choices=("direct", "formula", "both"),
                   default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="check the theorem identities")
    p.add_argument("file")
    p.add_argument("--identities", default=None,
                   help="comma-separated subset of " + ",".join(ALL_IDENTITIES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="randomized Tor dimension scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--maxdeg", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default=None, help="Q or Fp:P")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("lc", help="write the logarithmic characteristic ideals")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lc)

    p = sub.add_parser("oracle", help="independent truncated-linear-algebra check")
    p.add_argument("object", choices=("colength",))
    p.add_argument("file")
    p.add_argument("--truncation", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("corpus", help="verify every germfile in a directory")
    p.add_argument("directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        degree_cap(), step_budget()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (GermfileError, ParseError, InputError, OSError,
            ChainDegenerate, InternalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except DegreeCapExceeded as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
