"""Inputs, operations and answer checks of the three benchmark workloads.

An op is one user request: a CLI command on one germfile (`corpus`), one
library call on one coordinate-changed germ (`moved`), or one conjecture
trial (`scan`).  `build(...)` is the set-up; it returns the ops in a fixed
order, each a name, a thunk producing a JSON-able answer, and a check of that
answer.  No op repeats an input within a pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import germcalc
import germcalc.cli

# Known failures at the seed commit.  They are kept out of the timed ops,
# because a workload whose ops fail cannot be compared run against run, and
# are probed in the traced run (`cli.known_failures`) so a fix shows.
KNOWN_FAILURES = (
    ("lc", "nonwh_space.germ"),
)

# Values from the repository's tests (the worked space curve X = V(x^2+y^2+z^2,
# xy) with f = z^2+xy, or with f = z) and from the literature: A_k has
# mu = tau = k; D4 (x^3+xy^2, and the surface x^2+y^3+z^3) has 4; E7 has 7;
# the curve x^5+y^5+x^2y^2 is T(2,5,5), with mu = 2+5+5-1 = 11 and tau = 10.
REFERENCE = {
    "worked.germ": {"muX": 5, "tauX": 5, "muF": 1, "muSection": 7,
                    "brMinus": 7, "br": 9, "tor1": 2},
    "worked_linear.germ": {"muX": 5, "tauX": 5, "brMinus": 3},
    "fp_worked.germ": {"muX": 5, "tauX": 5, "brMinus": 3},
    "a1_surface.germ": {"muX": 1, "tauX": 1},
    "a2_cusp.germ": {"muX": 2, "tauX": 2},
    "a4.germ": {"muX": 4, "tauX": 4},
    "d4.germ": {"muX": 4, "tauX": 4},
    "surface_section.germ": {"muX": 4, "tauX": 4},
    "e7.germ": {"muX": 7, "tauX": 7},
    "nonwh_curve.germ": {"muX": 11, "tauX": 10},
}

SMOKE_GERMS = ("a2_cusp.germ", "d4.germ")

# The criterion-6 coordinate changes: random.Random(17) per germ, first draw.
MOVED_SEED = 17
MOVED_DRAWS = 1

SCAN_OPS = 60
SCAN_OPS_SMOKE = 2
SCAN_N = 3
SCAN_MAXDEG = 2


class CheckFailed(Exception):
    """The program answered, but the answer is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def germ_paths(root: str, smoke: bool) -> list[str]:
    directory = os.path.join(root, "corpus")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".germ"))
    if smoke:
        names = [n for n in names if n in SMOKE_GERMS]
    if not names:
        raise FileNotFoundError(f"no germfiles in {directory}")
    return [os.path.join(directory, n) for n in names]


def germ_shape(path: str) -> dict:
    """Number of variables, codimension, presence of f and the homogeneity
    flag, read from the germfile text without the program's parser."""
    shape = {"n": 0, "k": 0, "has_f": False, "wh": False}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("ring "):
                shape["n"] = len(line.split()) - 2
            elif line.startswith("X:"):
                shape["k"] = len(line[2:].split(","))
            elif line.startswith("f:"):
                shape["has_f"] = True
            elif line.startswith("options:") and "weighted_homogeneous" in line:
                shape["wh"] = True
    return shape


# ---------------------------------------------------------------------------
# corpus: germcalc.cli.main in-process, stdout captured

def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = germcalc.cli.main(argv)
    return code, out.getvalue()


def _compute(path):
    code, out = run_cli(["compute", path, "--method", "both", "--json"])
    require(code == 0, f"exit {code}")
    report = json.loads(out)
    report.pop("timing", None)
    return report


def _check_compute(name, report):
    require(report["mismatches"] == [], f"route mismatch {report['mismatches']}")
    for inv, by_route in report["routes"].items():
        require(len(set(map(str, by_route.values()))) == 1,
                f"{inv} routes disagree: {by_route}")
    for inv, value in REFERENCE.get(name, {}).items():
        got = report["invariants"].get(inv)
        require(got == value, f"{inv} = {got}, reference {value}")


def _verify(path):
    code, out = run_cli(["verify", path, "--json"])
    require(code == 0, f"exit {code}")
    report = json.loads(out)
    report.pop("timing", None)
    return report


def _expected_identities(shape: dict) -> dict:
    """PASS where the identity applies to the germ, SKIPPED where not."""
    f, k = shape["has_f"], shape["k"]
    applies = {"t22": f, "t46": f, "c412": f and k == 2, "c49": f and k == 1,
               "p47": True, "p41": f, "cor23": shape["wh"]}
    return {name: "PASS" if ok else "SKIPPED" for name, ok in applies.items()}


def _check_verify(shape, report):
    require(report["verdict"] == "PASS", f"verdict {report['verdict']}")
    got = {e["identity"]: e["status"] for e in report["identities"]}
    require(got == _expected_identities(shape), f"identities {got}")


def _lc(path, out_path):
    code, _ = run_cli(["lc", path, "--out", out_path])
    require(code == 0, f"exit {code}")
    try:
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        os.remove(out_path)


def _check_lc(n, doc):
    require(len(doc["variables"]) == 2 * n, "doubled ring has wrong size")
    for key in ("lc", "lcMinus", "lcT"):
        require(bool(doc[key]) and all(isinstance(g, str) for g in doc[key]),
                f"{key} is empty")


def corpus_ops(root: str, tmp_dir: str, smoke: bool):
    ops = []
    for path in germ_paths(root, smoke):
        name = os.path.basename(path)
        shape = germ_shape(path)
        out_path = os.path.join(tmp_dir, f"lc-{name}.json")
        candidates = [
            ("compute", lambda p=path: _compute(p),
             lambda r, nm=name: _check_compute(nm, r)),
            ("verify", lambda p=path: _verify(p),
             lambda r, s=shape: _check_verify(s, r)),
            ("lc", lambda p=path, o=out_path: _lc(p, o),
             lambda r, s=shape: _check_lc(s["n"], r)),
        ]
        for command, run, check in candidates:
            if (command, name) not in KNOWN_FAILURES:
                ops.append((f"{command} {name}", run, check))
    return ops


def probe_known_failures(root: str, tmp_dir: str) -> int:
    """Number of the known failing commands that still do not exit 0."""
    failing = 0
    for command, name in KNOWN_FAILURES:
        path = os.path.join(root, "corpus", name)
        out_path = os.path.join(tmp_dir, f"probe-{name}.json")
        argv = [command, path] + (["--out", out_path] if command == "lc" else [])
        code, _ = run_cli(argv)
        failing += code != 0
        if os.path.exists(out_path):
            os.remove(out_path)
    return failing


# ---------------------------------------------------------------------------
# moved: library calls on coordinate-changed germs, against unmoved values

MOVED_CALLS = ("muX", "tauX", "brMinus")


def _moved_call(kind, X, f):
    if kind == "muX":
        return germcalc.milnor_icis(X)
    if kind == "tauX":
        return germcalc.tjurina(X)
    return germcalc.br_minus_formula(f, X)


def moved_ops(root: str, smoke: bool):
    from germcalc.invariants import random_linear_images
    ops = []
    for path in germ_paths(root, smoke):
        name = os.path.basename(path)
        gf = germcalc.load_germfile(path)
        rng = random.Random(MOVED_SEED)
        for draw in range(MOVED_DRAWS):
            images = random_linear_images(gf.ring, rng)
            X = germcalc.ICIS(tuple(p.substitute(images) for p in gf.X.phi))
            f = gf.f.substitute(images)
            for kind in MOVED_CALLS:
                ops.append((f"{kind} {name} draw {draw}",
                            lambda k=kind, X=X, f=f: _moved_call(k, X, f),
                            _moved_check(name, kind, gf)))
    return ops


def _moved_check(name, kind, gf):
    def check(value):
        reference = REFERENCE.get(name, {}).get(kind)
        require(reference is None or value == reference,
                f"{kind} = {value}, reference {reference}")
        unmoved = _moved_call(kind, gf.X, gf.f)
        require(value == unmoved, f"{kind} = {value}, unmoved {unmoved}")
    return check


# ---------------------------------------------------------------------------
# scan: conjecture trials over F_32003, n = 3, maxdeg 2, k alternating 2, 3

def scan_ops(seed: int, pass_index: int, smoke: bool):
    rng = random.Random(f"scan {seed} {pass_index}")
    ops = []
    for i in range(SCAN_OPS_SMOKE if smoke else SCAN_OPS):
        k = 2 + i % 2
        trial_seed = rng.randrange(2 ** 31)
        ops.append((f"trial k={k} seed={trial_seed}",
                    lambda k=k, s=trial_seed: _scan_trial(k, s),
                    lambda row, k=k: _check_trial(k, row)))
    return ops


def _scan_trial(k: int, trial_seed: int) -> dict:
    scan = germcalc.conjecture_scan(SCAN_N, k, 1, SCAN_MAXDEG, trial_seed)
    row = scan["rows"][0]
    require("tor" in row, "degenerate trial")
    return {"tor": row["tor"], "colength": row["colength_sum"]}


def _check_trial(k: int, row: dict) -> None:
    """Euler characteristic zero, Tor_0 = colength(I+J), and for a regular
    sequence of length 2, Tor_1 = 2 colength(I+J)."""
    tor, c = row["tor"], row["colength"]
    require(len(tor) == k + 1, "wrong Tor length")
    require(sum((-1) ** i * t for i, t in enumerate(tor)) == 0,
            f"Euler characteristic of {tor} is not zero")
    require(tor[0] == c, f"Tor_0 = {tor[0]}, colength {c}")
    if k == 2:
        require(tor[1] == 2 * c, f"Tor_1 = {tor[1]}, 2*colength {2 * c}")


def build(workload: str, root: str, tmp_dir: str, seed: int, pass_index: int,
          smoke: bool):
    if workload == "corpus":
        return corpus_ops(root, tmp_dir, smoke)
    if workload == "moved":
        return moved_ops(root, smoke)
    if workload == "scan":
        return scan_ops(seed, pass_index, smoke)
    raise ValueError(f"unknown workload {workload!r}")
