"""Acceptance gate: each criterion runs end to end and prints one verdict line.

Run with -s to see the per-criterion lines.
"""

import glob
import os
import random
import time

from germcalc import (ICIS, Germ, GermRing, br_minus_formula, colength,
                      conjecture_scan, ideal_basis, is_icis, jacobian_ideal,
                      milnor_icis, milnor_number, oracle_colength,
                      section_milnor, tjurina, tor1_dimension)
from germcalc.cli import ALL_IDENTITIES, check_identity
from germcalc.germfile import load_germfile
from germcalc.invariants import random_linear_images, relative_jacobian_ideal
from germcalc.modops import jacobian_matrix, maximal_minors

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_worked_icis():
    start = time.perf_counter()
    R3 = GermRing(("x", "y", "z"))
    q = R3.parse("x^2+y^2+z^2")
    xy = R3.parse("x*y")
    X = ICIS((q, xy))

    ok, _ = is_icis(X)
    assert ok
    assert milnor_icis(X) == 5
    assert tjurina(X) == 5

    # Le-Greuel step for the curve: the 2-minors of d(q, xy) together with q
    minors = maximal_minors(jacobian_matrix([q, xy]), 2)
    step = colength(ideal_basis([q] + minors))
    assert step == 6
    # adding xy as well drops the colength to 5; both values are confirmed by
    # the independent truncated-linear-algebra oracle
    with_xy = [q, xy] + minors
    assert colength(ideal_basis(with_xy)) == 5
    assert oracle_colength(with_xy) == 5
    assert oracle_colength([q] + minors) == 6

    f1 = R3.parse("z")
    assert Germ(X, f1).br_minus_direct == 3
    assert br_minus_formula(f1, X) == 3
    rel = relative_jacobian_ideal(f1, X) + [q, xy]
    assert colength(ideal_basis(rel)) == 8

    f2 = R3.parse("z^2+x*y")
    assert milnor_number(f2) == 1
    assert section_milnor(f2, X) == 7
    Jf = jacobian_ideal(f2)
    assert colength(ideal_basis(Jf + [q, xy])) == 1
    assert tor1_dimension([q, xy], Jf) == 2
    germ = Germ(X, f2)
    assert germ.br_direct == 9
    assert germ.br_tor == 9
    assert germ.br_codim2 == 9
    res = germ.relative_identity
    assert res["pass"] and res["lhs"] == 7

    # Euler obstruction equals the multiplicity of the four-line curve
    m, eu = Germ(X).polar_and_euler()
    assert eu == 4 and m == 8

    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(1, True, f"worked space curve chain exact in {elapsed:.2f}s "
                    "(Le-Greuel step value 6 holds for the minors plus q; "
                    "adding the second generator gives 5, oracle-confirmed)")


def test_criterion_2_ade_suite():
    R2 = GermRing(("x", "y"))
    timings = []
    for k in range(1, 7):
        start = time.perf_counter()
        f = R2.parse(f"x^{k + 1}+y^2")
        J = jacobian_ideal(f)
        assert milnor_number(f) == k
        assert oracle_colength(J) == k
        timings.append(time.perf_counter() - start)
    start = time.perf_counter()
    e7 = R2.parse("x^3+x*y^3")
    assert milnor_number(e7) == 7
    assert oracle_colength(jacobian_ideal(e7)) == 7
    timings.append(time.perf_counter() - start)
    assert max(timings) < 1
    report(2, True, f"A1..A6 and E7 match the oracle, slowest "
                    f"{max(timings):.3f}s")


def test_criterion_3_identity_suite():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.germ")))
    assert len(paths) >= 12
    strata = {"ihs": 0, "k2": 0, "wh": 0, "nonwh": 0}
    checked = 0
    for path in paths:
        gf = load_germfile(path)
        strata["ihs" if gf.X.k == 1 else "k2"] += 1
        strata["wh" if gf.options.get("weighted_homogeneous") else "nonwh"] += 1
        germ = Germ(gf.X, gf.f)
        for name in ALL_IDENTITIES:
            entry = check_identity(name, germ, gf.options)
            assert entry["status"] != "FAIL", (path, entry)
            checked += entry["status"] == "PASS"
    assert all(strata.values()), strata
    report(3, True, f"{len(paths)} germfiles, {checked} identity checks "
                    f"exact (strata {strata})")


def test_criterion_4_tor1_randomized():
    start = time.perf_counter()
    total = matched = 0
    for n, seed in ((2, 42), (3, 43)):
        scan = conjecture_scan(n=n, k=2, trials=10, maxdeg=2, seed=seed)
        assert scan["completed"] == 10
        assert scan["euler_all_zero"]
        for row in scan["rows"]:
            assert row["tor"][1] == 2 * row["colength_sum"]
        total += scan["completed"]
        matched += scan["matches"]
    elapsed = time.perf_counter() - start
    assert matched == total == 20
    assert elapsed < 60
    report(4, True, f"20/20 trials: Tor1 = 2*colength(I+J), Euler "
                    f"characteristic zero, in {elapsed:.1f}s")


def test_criterion_5_conjecture_scanner():
    scan = conjecture_scan(n=3, k=3, trials=10, maxdeg=2, seed=7)
    assert scan["completed"] == 10
    assert scan["euler_all_zero"]
    verdicts = [row["match"] for row in scan["rows"]]
    assert len(verdicts) == 10
    # the conjecture is open: verdicts are reported, not asserted
    report(5, True, f"10 trials complete, Euler check passes on all, "
                    f"verdicts {sum(verdicts)}/10 (reported only)")


def test_criterion_6_invariance_suite():
    R2 = GermRing(("x", "y"))
    assert colength(ideal_basis([R2.parse("x-x^2"), R2.parse("y")])) == 1
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.germ")))
    moved_checks = 0
    for path in paths:
        gf = load_germfile(path)
        base = (milnor_icis(gf.X), tjurina(gf.X))
        rng = random.Random(17)
        for _ in range(5):
            images = random_linear_images(gf.ring, rng)
            moved = ICIS(tuple(p.substitute(images) for p in gf.X.phi))
            assert (milnor_icis(moved), tjurina(moved)) == base, path
            if gf.f is not None:
                f_moved = gf.f.substitute(images)
                assert br_minus_formula(f_moved, moved) == \
                    br_minus_formula(gf.f, gf.X), path
            moved_checks += 1
    report(6, True, f"{moved_checks} coordinate changes left every corpus "
                    "invariant fixed; local-ring sanity colength is 1")


def test_criterion_7_cohen_macaulay_shadow():
    # the closed formula muBR^-(f, X) = colength(J(f, phi) + I_X) - tau(X)
    # rests on a Cohen-Macaulay length argument; its numeric shadow is that
    # the direct module colength agrees with it on every corpus germ with f
    checked = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.germ"))):
        gf = load_germfile(path)
        if gf.f is None:
            continue
        direct = Germ(gf.X, gf.f).br_minus_direct
        assert isinstance(direct, int), (path, direct)
        assert direct == br_minus_formula(gf.f, gf.X), path
        checked.append(direct)
    assert len(checked) >= 12
    report(7, True, f"muBR^- direct equals the closed formula on "
                    f"{len(checked)} corpus germs")
