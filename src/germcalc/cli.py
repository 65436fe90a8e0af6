"""Command-line interface: compute, verify, conjecture, lc, oracle, corpus."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import time

from . import __version__
from .germfile import Germfile, GermfileError, load_germfile, parse_field
from .invariants import (ChainDegenerate, Germ, conjecture_scan, df_image,
                         lc_ideals)
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


def require_icis(germ: Germ):
    ok, certificate = germ.icis
    if not ok:
        cert = {k: jsonable(v) for k, v in certificate.items()}
        raise InputError(f"not an ICIS: {json.dumps(cert, sort_keys=True)}")


# ---------------------------------------------------------------------------
# compute

# invariant -> {route: Germ attribute}.  A one-route invariant runs under every
# --method and reports no routes; codim2 is a formula route for k = 2 only.
INVARIANTS = {
    "muX": {"direct": "mu_X"},
    "tauX": {"direct": "tau_X"},
    "muF": {"direct": "mu_f"},
    "muSection": {"direct": "mu_section"},
    "tor1": {"direct": "tor1"},
    "brMinus": {"direct": "br_minus_direct", "formula": "br_minus_formula"},
    "br": {"direct": "br_direct", "formula": "br_tor", "codim2": "br_codim2"},
}
ALL_INVARIANTS = tuple(INVARIANTS)
WITHOUT_F = ("muX", "tauX")


def _runs(route: str, method: str, k: int) -> bool:
    if route == "direct":
        return method != "formula"
    return method != "direct" and (route == "formula" or k == 2)


def compute_report(gf: Germfile, names: list[str], method: str) -> dict:
    germ = Germ(gf.X, gf.f)
    require_icis(germ)
    values: dict = {}
    routes: dict = {}
    for name in names:
        if name not in INVARIANTS:
            raise InputError(f"unknown invariant {name!r}")
        if name not in WITHOUT_F and gf.f is None:
            raise InputError(f"invariant {name} needs an f: line in the germfile")
        by_route = INVARIANTS[name]
        if len(by_route) == 1:
            values[name] = getattr(germ, by_route["direct"])
            continue
        routes[name] = {route: getattr(germ, attr)
                        for route, attr in by_route.items()
                        if _runs(route, method, gf.X.k)}
        values[name] = next(iter(routes[name].values()))
    report = base_report("compute")
    report["invariants"] = {k: jsonable(v) for k, v in values.items()}
    report["routes"] = {k: {r: jsonable(v) for r, v in by.items()}
                        for k, by in routes.items()}
    report["method"] = method
    report["mismatches"] = [name for name, by_route in routes.items()
                            if len(set(by_route.values())) > 1]
    return report


def cmd_compute(args) -> int:
    gf = load_germfile(args.file)
    names = list(ALL_INVARIANTS) if args.invariants is None else [
        s.strip() for s in args.invariants.split(",") if s.strip()]
    if args.invariants is None and gf.f is None:
        names = list(WITHOUT_F)
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

def check_identity(identity: str, germ: Germ, options: dict) -> dict:
    """One PASS/FAIL/SKIPPED verdict with both sides of the identity."""
    entry: dict = {"identity": identity}

    def skip(reason):
        entry.update(status="SKIPPED", reason=reason)
        return entry

    def settle(lhs, rhs, ok=None):
        entry.update(lhs=jsonable(lhs), rhs=jsonable(rhs),
                     status="PASS" if (lhs == rhs if ok is None else ok)
                     else "FAIL")
        return entry

    if identity in ("t22", "t46", "c412", "c49", "p41") and germ.f is None:
        return skip("needs f")
    if identity == "t22":
        res = germ.relative_identity
        return settle(res["lhs"], res["rhs"], ok=res["pass"])
    if identity == "t46":
        return settle(germ.br_direct, germ.br_tor)
    if identity == "c412":
        if germ.X.k != 2:
            return skip("needs codimension 2")
        return settle(germ.br_direct, germ.br_codim2)
    if identity == "c49":
        if germ.X.k != 1:
            return skip("needs a hypersurface")
        return settle(germ.tor1, germ.mixed)
    if identity == "p47":
        first, second = germ.tau_via_theta_quotient()
        entry.update(tau=jsonable(germ.tau_X))
        return settle(first, second, ok=first == second == germ.tau_X)
    if identity == "p41":
        full = germ.br_direct
        trivial = ideal_colength(df_image(germ.f, germ.theta_trivial))
        return settle("infinite" if full is INFINITE else "finite",
                      "infinite" if trivial is INFINITE else "finite")
    if identity == "cor23":
        if not options.get("weighted_homogeneous"):
            return skip("needs the weighted_homogeneous option")
        return settle(germ.mu_X, germ.tau_X)
    raise InputError(f"unknown identity {identity!r}")


def verify_report(gf: Germfile, identities: list[str]) -> dict:
    germ = Germ(gf.X, gf.f)
    require_icis(germ)
    report = base_report("verify")
    report["identities"] = [check_identity(name, germ, gf.options)
                            for name in identities]
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
        try:
            field = parse_field(args.field)
        except ValueError as e:
            raise InputError(f"--field: {e}") from None
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
    require_icis(Germ(gf.X))
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
    if args.truncation < 2:
        # one truncation degree has no second value to stabilize against
        raise InputError("truncation must be at least 2")
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
    # a stabilized oracle value is exact, so any other engine value is wrong
    if isinstance(oracle, int) and oracle != engine:
        print(f"oracle colength {oracle} but engine {engine}", file=sys.stderr)
        return EXIT_FAIL
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
