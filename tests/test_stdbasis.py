"""Mora normal form, standard bases, colength, membership, and the
independent truncated-linear-algebra oracle."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germcalc import (INCONCLUSIVE, INFINITE, DegreeCapExceeded, GermRing,
                      Vector, colength, ideal_basis, mora_divide,
                      mora_normal_form, oracle_colength, staircase,
                      standard_basis)
from germcalc.cli import jsonable
from germcalc.invariants import random_linear_images


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
