"""Mora normal form, standard bases, colength, membership, and the
independent truncated-linear-algebra oracle."""

import copy
import glob
import itertools
import json
import math
import os
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import (ICIS, INCONCLUSIVE, INFINITE, ArtinianAlgebra,
                      DegreeCapExceeded, Field, GermRing, StandardBasis, Vector,
                      colength, ideal_basis, jacobian_matrix, lc_ideals,
                      maximal_minors, mora_divide, mora_normal_form,
                      oracle_colength, staircase, standard_basis)
from germcalc.cli import jsonable
from germcalc.germfile import load_germfile
from germcalc.invariants import (_random_mix, _random_poly, _tangent_columns,
                                 jacobian_ideal, random_linear_images,
                                 relative_jacobian_ideal)
from germcalc.modops import dedupe_vectors
from germcalc.stdbasis import _Budget, _spair

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def vec(p):
    return Vector.ideal(p)


# ---------------------------------------------------------------------------
# Mora reduction

def test_unit_times_generator_reduces_to_zero(R2):
    # x = (1-x)^(-1) * (x - x^2) in the local ring
    g = R2.parse("x-x^2")
    r = mora_normal_form(vec(R2.parse("x")), [vec(g)])
    assert r.is_zero


def test_mora_divide_invariant(R2):
    v = vec(R2.parse("x^2+x*y^3"))
    basis = [vec(R2.parse("x+y^2")), vec(R2.parse("y^3"))]
    r, u, q = mora_divide(v, basis)
    lhs = v.mul_poly(u)
    rhs = r
    for qi, b in zip(q, basis):
        rhs = rhs + b.mul_poly(qi)
    assert (lhs + rhs.scale(R2.field.neg(R2.field.one))).is_zero or lhs == rhs
    assert u.is_unit


def test_normal_form_of_member_is_zero(R3):
    gens = [vec(R3.parse(s)) for s in ("x^2+y^2+z^2", "x*y")]
    sb = standard_basis(gens)
    member = gens[0].mul_poly(R3.parse("z+x^2")) + gens[1].mul_poly(R3.parse("y"))
    assert sb.normal_form(member).is_zero
    assert sb.contains(member)


# ---------------------------------------------------------------------------
# colength

def test_monomial_box():
    R = GermRing(("x", "y"))
    sb = ideal_basis([R.parse("x^3"), R.parse("y^4"), R.parse("x*y^2")])
    # staircase {1,x,x^2} x {1,y} plus {y^2,y^3}: 8 monomials
    assert colength(sb) == 8


def test_local_unit_generator_gives_colength_zero(R2):
    assert colength(ideal_basis([R2.parse("1+x")])) == 0


def test_local_versus_global_colength(R2):
    # <x - x^2> = <x> locally, so the quotient by <x-x^2, y> is 1-dimensional
    assert colength(ideal_basis([R2.parse("x-x^2"), R2.parse("y")])) == 1


def test_infinite_colength(R2):
    assert colength(ideal_basis([R2.parse("x*y")])) is INFINITE
    assert colength(ideal_basis([R2.parse("x")])) is INFINITE


def test_ade_colengths(R2):
    for k in range(1, 7):
        gens = [R2.parse(f"{k + 1}*x^{k}"), R2.parse("2*y")]
        assert colength(ideal_basis(gens)) == k
    e7 = [R2.parse("3*x^2+y^3"), R2.parse("3*x*y^2")]
    assert colength(ideal_basis(e7)) == 7


def test_degree_cap(monkeypatch, R2):
    monkeypatch.setenv("GERMCALC_DEGREE_CAP", "3")
    with pytest.raises(DegreeCapExceeded):
        mora_normal_form(vec(R2.parse("x")), [vec(R2.parse("x-x^5"))])


def test_staircase_and_module_colength_with_empty_component(R2):
    x, y = R2.gens()
    assert staircase([], 2) is INFINITE
    assert staircase([(2, 0)], 2) is INFINITE
    assert sorted(staircase([(2, 0), (1, 1), (0, 2)], 2)) == [(0, 0), (0, 1), (1, 0)]
    # component 1 has no leading terms, so the quotient O^2/M is infinite
    gens = [Vector((x * x, R2.zero)), Vector((y, R2.zero))]
    sb = standard_basis(gens)
    assert sb.rank == 2 and colength(sb) is INFINITE
    sb = standard_basis(gens + [Vector((R2.zero, x)), Vector((R2.zero, y))])
    assert colength(sb) == 3


def test_sentinels_survive_pickle_and_copy():
    for s, text, encoded in ((INFINITE, "INFINITE", "infinite"),
                             (INCONCLUSIVE, "INCONCLUSIVE", "inconclusive")):
        assert pickle.loads(pickle.dumps(s)) is s
        assert copy.deepcopy(s) is s and copy.copy(s) is s
        assert str(s) == repr(s) == f"{s}" == text
        assert json.dumps(jsonable(s)) == f'"{encoded}"'
    assert INFINITE is not INCONCLUSIVE and INFINITE != INCONCLUSIVE


# ---------------------------------------------------------------------------
# certified corner

def test_corner_only_for_finite_colength(R2):
    for gens in (["x*y"], ["x"]):
        sb = ideal_basis([R2.parse(s) for s in gens])
        assert colength(sb) is INFINITE and sb.corner is None
    # staircase {1, x, y, y^2, y^3}: m^4 lies in the ideal
    sb = ideal_basis([R2.parse("x^2+y^3"), R2.parse("x*y")])
    assert colength(sb) == 5 and sb.corner == 4
    assert sb.contains(vec(R2.parse("y^4+x^40")))
    assert not sb.contains(vec(R2.parse("y^3+x^40")))
    # <x, y^3> locally; an S-pair one degree below the corner still counts
    gens = ["x+x^3+x^2*y^3", "x+x*y^2+x^2*y^2", "x^2*y+y^3"]
    assert colength(ideal_basis([R2.parse(s) for s in gens])) == 3


def test_capped_chain_step_from_moved_nonwh_space():
    # the chain step of the coordinate-changed nonwh_space germ whose plain
    # Mora run climbs past the degree cap before any pure z-power appears
    gf = load_germfile(os.path.join(CORPUS, "nonwh_space.germ"))
    images = random_linear_images(gf.ring, random.Random(17))
    phis = [p.substitute(images) for p in gf.X.phi]
    mix = _random_mix(phis, random.Random(0))
    gens = [mix[0]] + maximal_minors(jacobian_matrix(mix), 2)
    sb = ideal_basis(gens)
    assert colength(sb) == oracle_colength(gens) == 11
    assert all(sb.contains(vec(g)) for g in gens)
    stairs = staircase([m for _, m in sb.leading_module()], 3)
    assert not any(sb.contains(vec(gf.ring.monomial(m))) for m in stairs)


def test_corner_bases_agree_with_the_oracle():
    rng = random.Random(2024)
    for trial in range(120):
        n = 2 + trial % 2
        R = GermRing(("x", "y", "z")[:n], Field(32003))
        gens = [_random_poly(R, 2 + trial // 2 % 2, rng)
                for _ in range(n + rng.randrange(2))]
        sb = ideal_basis(gens)
        assert colength(sb) == oracle_colength(gens), (trial, gens)
        combo = sum((g * (R.constant(rng.randrange(1, 32003)) + _random_poly(R, 2, rng))
                     for g in gens), R.zero)
        assert sb.contains(vec(combo)), (trial, gens)
        assert_buchberger(sb, [vec(g) for g in gens])
        stairs = staircase([m for _, m in sb.leading_module()], n)
        if stairs is not INFINITE and stairs:
            top = R.monomial(max(stairs, key=sum))
            assert not sb.contains(vec(combo + top)), (trial, gens)


def test_module_corner_sums_the_component_corners(R2):
    x, y = R2.gens()
    zero, one = R2.zero, R2.one
    # each component's leads are x and y, so every D_c is 1, but x e_0 = -e_1
    # lies outside M: the corner is the sum of the D_c, not their maximum
    gens = [Vector((x, one)), Vector((y, zero)), Vector((zero, x)), Vector((zero, y))]
    sb = standard_basis(gens)
    assert sb.corner == 2 and colength(sb) == 2
    assert not standard_basis(gens, exact=True).contains(Vector((x, zero)))
    assert sb.contains(Vector((x * x, zero))) and not sb.contains(Vector((x, zero)))


def test_module_pairs_above_the_corner_still_reduce(R2):
    x, y = R2.gens()
    zero, one = R2.zero, R2.one
    # the corner 2 is known from the start, and the pair of (x^5, 1) and
    # (x, 0) has an lcm of degree 5; its S-vector (0, 1) sits below the corner
    gens = [Vector((x ** 5, one)), Vector((x, zero)), Vector((y, zero)),
            Vector((zero, x)), Vector((zero, y))]
    sb = standard_basis(gens)
    assert colength(sb) == colength(standard_basis(gens, exact=True)) == 1
    assert sb.contains(Vector((zero, one)))


def test_module_of_unit_generators_has_corner_zero(R2):
    # both components hold a unit, so M is all of O^2; with no corner the
    # normal form of this member climbed past the degree cap
    sb = standard_basis([Vector((R2.zero, R2.parse("1+y+y^3"))),
                         Vector((R2.parse("1+1/2*x"), R2.zero))])
    assert sb.corner == 0 and colength(sb) == 0
    p = R2.parse("1+x^3")
    assert sb.contains(Vector((p, p * p)))


def moved_germ(X, seed):
    """X under the first random_linear_images draw of random.Random(seed)."""
    images = random_linear_images(X.ring, random.Random(seed))
    return ICIS(tuple(p.substitute(images) for p in X.phi))


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.germ"))),
                         ids=os.path.basename)
def test_tangent_module_holds_its_corner(path):
    # every x^a e_c of degree the recorded corner lies in the module, as the
    # uncut basis that syzygies uses decides
    X = load_germfile(path).X
    for germ in (X, moved_germ(X, 17)):
        gens = dedupe_vectors(list(itertools.chain(*_tangent_columns(germ))))
        D, exact = standard_basis(gens).corner, standard_basis(gens, exact=True)
        assert D is not None and exact.corner is None
        R = germ.ring
        for c in range(germ.k):
            for a in itertools.product(range(D + 1), repeat=germ.n):
                if sum(a) == D:
                    v = Vector([R.monomial(a) if j == c else R.zero for j in range(germ.k)])
                    assert exact.contains(v), (c, a)


def test_module_corner_bases_agree_with_the_uncut_bases():
    # random finite-colength submodules of O^k over F_32003: the colength of
    # the basis cut at its corner against that of the plain algorithm
    rng = random.Random(7)
    R = GermRing(("x", "y"), Field(32003))
    checked = 0
    for trial in range(40):
        k = 2 + trial % 2
        gens = []
        for c in range(k):
            for i in range(R.nvars):
                comps = [R.zero] * k
                comps[c] = R.var(i) ** rng.randrange(1, 3)
                gens.append(Vector([p + _random_poly(R, 2, rng) if rng.random() < 0.5 else p
                                    for p in comps]))
        gens.append(Vector([_random_poly(R, 2, rng) for _ in range(k)]))
        try:
            plain = colength(standard_basis(gens, exact=True))
        except DegreeCapExceeded:
            continue
        sb = standard_basis(gens)
        assert sb.corner is not None and colength(sb) == plain, (trial, gens)
        assert_buchberger(sb, [g for g in gens if not g.is_zero])
        checked += 1
    assert checked >= 20


def assert_buchberger(sb, gens):
    """Buchberger's criterion, independent of the pairs the run kept: sb holds
    the generators, and the S-vector of any two of its elements with the same
    lead component has normal form zero."""
    assert all(sb.contains(g) for g in gens)
    for f, g in itertools.combinations(sb.generators, 2):
        if f.lead()[0] == g.lead()[0]:
            assert sb.normal_form(_spair(f, g)).is_zero, (f, g)


def corpus_certificate_inputs(path):
    """The tangent module, the relations-kernel input of Theta_X, Jf and
    J(f, phi) + I_X of a corpus germ."""
    gf = load_germfile(path)
    X, f = gf.X, gf.f
    zero, one = X.ring.zero, X.ring.one
    jacobian, ideal = _tangent_columns(X)
    s = len(jacobian)
    kernel = [Vector(c.components + tuple(one if i == j else zero for i in range(s)))
              for j, c in enumerate(jacobian)]
    kernel += [Vector(m.components + (zero,) * s) for m in ideal]
    return {"tangent": dedupe_vectors(jacobian + ideal), "kernel": kernel,
            "jf": [vec(p) for p in jacobian_ideal(f) if not p.is_zero],
            "polar": [vec(p) for p in relative_jacobian_ideal(f, X) + list(X.phi)
                      if not p.is_zero]}


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CORPUS, "*.germ"))),
                         ids=os.path.basename)
def test_corpus_bases_satisfy_buchberger(path):
    for name, gens in corpus_certificate_inputs(path).items():
        assert gens, name
        # the relations-kernel input through the uncut path that syzygies takes
        assert_buchberger(standard_basis(gens, exact=name == "kernel"), gens)
    # the tangent module of the criterion-6 coordinate change, cut at its corner
    X = moved_germ(load_germfile(path).X, 17)
    gens = dedupe_vectors(list(itertools.chain(*_tangent_columns(X))))
    sb = standard_basis(gens)
    assert sb.corner is not None
    assert_buchberger(sb, gens)


# ---------------------------------------------------------------------------
# membership

def test_membership(R2):
    sb = ideal_basis([R2.parse("x-x^2"), R2.parse("y")])
    assert sb.contains(vec(R2.parse("x")))
    assert sb.contains(vec(R2.parse("x+y^5")))
    assert not sb.contains(vec(R2.one))


# ---------------------------------------------------------------------------
# oracle agreement

def test_oracle_matches_engine_on_finite_examples(R2, R3):
    cases = [
        [R2.parse("x^3"), R2.parse("y^4"), R2.parse("x*y^2")],
        [R2.parse("3*x^2+y^3"), R2.parse("3*x*y^2")],
        [R3.parse("x^2+y^2+z^2"), R3.parse("x*y"), R3.parse("z^3")],
    ]
    for gens in cases:
        assert oracle_colength(gens) == colength(ideal_basis(gens))


def test_oracle_detects_infinite(R2):
    assert oracle_colength([R2.parse("x*y")]) is INFINITE


def test_oracle_inconclusive_on_tiny_truncation(R2):
    res = oracle_colength([R2.parse("x^9"), R2.parse("y^9")], truncation=2)
    assert res is INCONCLUSIVE


def test_oracle_reports_persistent_growth_as_infinite(R2):
    # degree-truncated heuristic: dimensions that still grow at the cap are
    # classified infinite even though a deeper truncation could stabilize
    res = oracle_colength([R2.parse("x^9"), R2.parse("y^9")], truncation=6)
    assert res is INFINITE


# ---------------------------------------------------------------------------
# invariance of colength

def test_colength_invariant_under_presentation(R2):
    gens = [R2.parse("x^3+y^2"), R2.parse("x*y^2")]
    base = colength(ideal_basis(gens))
    # permuted generators
    assert colength(ideal_basis(gens[::-1])) == base
    # unit multiples
    unit = R2.parse("1+x+3*y^2")
    assert colength(ideal_basis([g * unit for g in gens])) == base
    # redundant generator
    assert colength(ideal_basis(gens + [gens[0] * R2.parse("y")])) == base


def test_colength_invariant_under_linear_change(R2):
    gens = [R2.parse("x^3+y^2"), R2.parse("x*y^2")]
    base = colength(ideal_basis(gens))
    rng = random.Random(11)
    for _ in range(5):
        images = random_linear_images(R2, rng)
        moved = [g.substitute(images) for g in gens]
        assert colength(ideal_basis(moved)) == base


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_monomial_staircase_closed_form(a, b):
    R = GermRing(("x", "y"))
    sb = ideal_basis([R.monomial((a, 0)), R.monomial((0, b))])
    assert colength(sb) == a * b


# ---------------------------------------------------------------------------
# integer coefficients over Q, cached leads and ecarts, the pair heap

# rendered generator lists of three fixed runs; each new generator follows the
# inputs in the order its pair was reduced, so the lists pin the pair order
CORNER_BASIS = [
    "Vector(3*x^2+2*y*z+3*z^3)",
    "Vector(2*y^2-x*z+6*x^3)",
    "Vector(5*x*y+4*z^2)",
    "Vector(14*y*z^2-90*x^4-15*z^4)",
    "Vector(7*x*z^2+30*x^3*z-15*y*z^3)",
    "Vector(56*z^4+450*x^5+75*x*z^4)",
]
TANGENT_BASIS = [
    "Vector(2*x, y)",
    "Vector(2*y, x)",
    "Vector(z, 0)",
    "Vector(0, x^2+y^2+z^2)",
    "Vector(0, x*y)",
    "Vector(0, x*z)",
    "Vector(0, y*z)",
    "Vector(0, 2*y^2+z^2)",
    "Vector(0, z^2)",
]
COLON_BASIS = [
    "Vector(p1, p2, p3, 1)",
    "Vector(0, x*p1+y*p2+z*p3, 0, 0)",
    "Vector(0, 0, x*p1+y*p2+z*p3, 0)",
    "Vector(0, y^2*p1+z^2*p1+x*y*p2-x*z*p3, 0, 0)",
    "Vector(0, 0, y^2*p1+z^2*p1+x*y*p2-x*z*p3, 0)",
    "Vector(x^2*p2-y^2*p2+z^2*p2-2*y*z*p3, 0, 0, 0)",
    "Vector(0, x^2*p2-y^2*p2+z^2*p2-2*y*z*p3, 0, 0)",
    "Vector(0, 0, x^2*p2-y^2*p2+z^2*p2-2*y*z*p3, 0)",
    "Vector(x*y*p3, 0, 0, 0)",
    "Vector(0, x*y*p3, 0, 0)",
    "Vector(0, 0, x*y*p3, 0)",
    "Vector(0, y*z*p2-y^2*p3, 0, 0)",
    "Vector(0, 0, y*z*p2-y^2*p3, 0)",
    "Vector(x^2*p3+y^2*p3+z^2*p3, 0, 0, 0)",
    "Vector(0, x^2*p3+y^2*p3+z^2*p3, 0, 0)",
    "Vector(0, 0, x^2*p3+y^2*p3+z^2*p3, 0)",
    "Vector(0, y^2*p2+y*z*p3, 0, 0)",
    "Vector(0, 0, y^2*p2+y*z*p3, 0)",
    "Vector(0, y^3*p3+y*z^2*p3, 0, 0)",
    "Vector(0, 0, y^3*p3+y*z^2*p3, 0)",
    "Vector(0, x*y*p2, 0, 0)",
    "Vector(0, 0, x*y*p2, 0)",
    "Vector(y*p2+z*p3, -1*x*p2, -1*x*p3, -1*x)",
    "Vector(y^2*p3+z^2*p3, -1*x*z*p2, -1*x*z*p3, -1*x*z)",
    "Vector(0, 0, 0, x*y)",
    "Vector(x*z*p3, -1*x^2*p2, -1*x^2*p3, -1*x^2)",
    "Vector(0, 0, 0, x^2+y^2+z^2)",
    "Vector(0, 0, 0, y^3+y*z^2)",
    "Vector(0, 0, 0, x*p1+y*p2+z*p3)",
    "Vector(0, 0, 0, y^2*p2+y*z*p3)",
    "Vector(0, 0, 0, y^2*p1+z^2*p1-x*y*p2-x*z*p3)",
    "Vector(z^2*p2*p3-y*z*p3^2, -1*x*z*p2^2, -1*x*z*p2*p3, -1*x*z*p2)",
    "Vector(0, 0, 0, y*z*p2-y^2*p3)",
    "Vector(0, z^2*p1*p2+x*y*p2^2-y*z*p1*p3-x*z*p2*p3, 0, 0)",
    "Vector(0, 0, z^2*p1*p2+x*y*p2^2-y*z*p1*p3-x*z*p2*p3, 0)",
    "Vector(0, 0, 0, z^2*p1*p2-x*y*p2^2-y*z*p1*p3-x*z*p2*p3)",
]


def test_pinned_basis_of_a_corner_ideal(R3):
    sb = ideal_basis([R3.parse(s) for s in ("x^2+2/3*y*z+z^3", "y^2-1/2*x*z+3*x^3",
                                            "z^2+5/4*x*y")])
    assert sb.corner == 4
    assert [repr(g) for g in sb.generators] == CORNER_BASIS
    assert all(type(c) is int for g in sb.generators for c in coefficients(g))


def test_pinned_basis_of_the_worked_tangent_module():
    X = load_germfile(os.path.join(CORPUS, "worked.germ")).X
    jacobian, ideal = _tangent_columns(X)
    sb = standard_basis(dedupe_vectors(jacobian + ideal))
    assert [repr(g) for g in sb.generators] == TANGENT_BASIS


def test_pinned_basis_of_the_worked_lc_colon():
    # the relations-kernel input of LC(X) : (p1, p2, p3) in the block order
    # of the cotangent ring: the column (p1, p2, p3 | 1) and the g e_j
    X = load_germfile(os.path.join(CORPUS, "worked.germ")).X
    bundle = lc_ideals(X)
    ext, n = bundle.ring2n, X.n
    zero = ext.zero
    gens = [Vector([ext.var(n + i) for i in range(n)] + [ext.one])]
    gens += [Vector([g if i == j else zero for i in range(n)] + [zero])
             for g in bundle.lc for j in range(n)]
    sb = standard_basis(gens)
    assert [repr(g) for g in sb.generators] == COLON_BASIS
    assert all(type(c) is int for g in sb.generators for c in coefficients(g))


def coefficients(v):
    return [c for p in v.components for _, c in p.terms]


def fresh_lead_and_ecart(v):
    i = next(i for i, p in enumerate(v.components) if p.terms)
    m, c = v.components[i].terms[0]
    top = max(sum(t) for p in v.components for t, _ in p.terms)
    return (i, m, c), top - sum(m)


_RQ = GermRing(("x", "y"))
rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
q_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals,
                          max_size=4).map(_RQ.from_dict)


# standard bases are taken of ideals only: those of random small modules over
# Q often run past the degree cap or for seconds, with Fraction or int
# coefficients alike
@given(st.lists(st.lists(q_polys, min_size=1, max_size=3), min_size=1, max_size=3),
       st.lists(q_polys, min_size=1, max_size=3), q_polys)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_integer_coefficients_and_cached_leads_over_q(vectors, polys, p):
    for v in map(Vector, vectors):
        if v.is_zero:
            continue
        assert (v.lead(), v.ecart()) == fresh_lead_and_ecart(v)
        w = v.normalized()
        assert all(type(c) is int for c in coefficients(w))
        assert math.gcd(*coefficients(w)) == 1 and w.lead()[2] > 0
        ratio = Fraction(w.lead()[2]) / v.lead()[2]
        assert coefficients(w) == [ratio * c for c in coefficients(v)]
    if all(q.is_zero for q in polys):
        return
    sb = ideal_basis(polys)
    for g in sb.generators:
        assert all(type(c) is int for c in coefficients(g))
        assert (g.lead(), g.ecart()) == fresh_lead_and_ecart(g)
    assert not any(isinstance(c, float) for c in coefficients(sb.normal_form(vec(p))))
    if colength(sb) is not INFINITE:
        algebra = ArtinianAlgebra(polys)
        assert not any(isinstance(c, float) for c in algebra.normal_form(p).values())


# ---------------------------------------------------------------------------
# the reducer index against one flat reducer list

def flat_normal_form(v, basis, cap, corner=None, budget=None):
    """Mora's weak normal form with every reducer in one list T: the nonzero
    basis elements, then each appended h.  The reducer is the minimum of
    (ecart, position in T) among those whose lead divides, and the step
    subtracts by negate-then-add.  Each step spends one unit of budget."""
    F = v.ring.field

    def cut(w):
        if corner is None:
            return w
        return Vector(p.ring.from_dict({m: c for m, c in p.terms if sum(m) < corner})
                      for p in w.components)

    def minus(a, b):
        return Vector(p + (-q) for p, q in zip(a.components, b.components))

    h = cut(v)
    T = [(g, g.lead(), g.ecart()) for g in basis if not g.is_zero]
    while not h.is_zero:
        ci, mh, ah = h.lead()
        candidates = [(e, i) for i, (g, (cj, mj, _), e) in enumerate(T)
                      if cj == ci and all(a >= b for a, b in zip(mh, mj))]
        if not candidates:
            break
        _, idx = min(candidates)
        g, (_, mg, ag), eg = T[idx]
        if eg > h.ecart():
            T.append((h, h.lead(), h.ecart()))
        if budget is not None:
            budget.spend()
        q = tuple(a - b for a, b in zip(mh, mg))
        if F.p is None and type(ag) is int and type(ah) is int:
            d = math.gcd(ag, ah)
            h = minus(h if ag == d else h.scale(ag // d), g.mul_term(q, ah // d))
        else:
            h = minus(h, g.mul_term(q, F.div(ah, ag)))
        h = cut(h)
        if not h.is_zero:
            h = h.normalized()
            if sum(h.lead()[1]) > cap:
                raise DegreeCapExceeded(f"leading degree above {cap}")
    return h


REDUCTION_CAP = 10
REDUCTION_RINGS = (GermRing(("x", "y")), GermRing(("x", "y"), Field(32003)),
                   GermRing(("x", "y", "z")))


@st.composite
def reduction_inputs(draw):
    """A ring in 2 or 3 variables, a basis of 1-4 vectors of rank 1-3 (zero
    vectors too), two vectors to reduce and an optional corner.  Entries
    have 0-3 terms of degree at most 3 in each variable, so reducers of
    positive ecart are common: in about one in seven of the reductions an
    intermediate h joins the reducers, and about one in eighty reaches the
    degree cap."""
    R = draw(st.sampled_from(REDUCTION_RINGS))
    rank = draw(st.integers(1, 3))
    polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * R.nvars), rationals,
                            max_size=3).map(
        lambda d: sum((R.monomial(m, c) for m, c in d.items()), R.zero))
    vectors = st.lists(polys, min_size=rank, max_size=rank).map(Vector)
    basis = draw(st.lists(vectors, min_size=1, max_size=4))
    return basis, draw(vectors), draw(vectors), draw(st.none() | st.integers(3, 6))


def assert_same_normal_form(reduce, v, basis, corner, budget=None):
    try:
        expected = flat_normal_form(v, basis, REDUCTION_CAP, corner, budget)
    except DegreeCapExceeded:
        with pytest.raises(DegreeCapExceeded):
            reduce(v)
        return
    assert reduce(v) == expected


@given(reduction_inputs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_indexed_normal_form_matches_the_flat_list(case):
    basis, v, w, corner = case
    spent, flat_spent = _Budget(10 ** 6), _Budget(10 ** 6)
    assert_same_normal_form(
        lambda u: mora_normal_form(u, basis, cap=REDUCTION_CAP, budget=spent, corner=corner),
        v, basis, corner, flat_spent)
    # one unit of budget per reduction step, as in the flat list
    assert spent.remaining == flat_spent.remaining
    # a StandardBasis builds its index once; what one call appends must not
    # reach the next call
    sb = StandardBasis([g for g in basis if not g.is_zero], v.rank, corner)
    with mock.patch.dict(os.environ, {"GERMCALC_DEGREE_CAP": str(REDUCTION_CAP)}):
        for u in (v, w, v):
            assert_same_normal_form(sb.normal_form, u, basis, corner)


def test_an_appended_reducer_is_chosen_over_a_basis_element(R2):
    basis = [Vector((R2.parse("-x*y+x^3*y^2"), R2.zero)),
             Vector((R2.parse("-y^3-2*x^2*y^2"), R2.zero))]
    v = Vector((R2.parse("2*x*y^2"), R2.parse("3*x^2*y^2")))
    # Only the first basis element, of ecart 3, divides the lead x*y^2 of v,
    # so v (ecart 1) joins the reducers as the third.  At the next lead the
    # second basis element and v tie at ecart 1 and the basis element wins by
    # its number; at the last one v wins by its ecart over the first.  The
    # basis element there climbs past the degree cap, and numbering v first
    # gives (0, x^2*y^2-x^4*y^3).
    expected = Vector((R2.zero, R2.parse("x^2*y^2+2*x^6*y^2")))
    assert flat_normal_form(v, basis, 30) == expected
    assert mora_normal_form(v, basis) == expected
