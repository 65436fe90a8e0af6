"""Jacobian minors, syzygies, intersection and quotient of ideals,
subquotient colength, and Koszul homology."""

import itertools
import os
import random
from fractions import Fraction

import pytest

from germcalc import (INFINITE, ArtinianAlgebra, Field, GermRing,
                      InternalError, Subquotient, Vector,
                      colength, determinant, ideal_basis, ideal_product,
                      intersect, jacobian_matrix, koszul_tor,
                      matrix_rank, maximal_minors, quotient_ideal, staircase,
                      load_germfile, standard_basis, syzygies)
from germcalc.invariants import _tangent_columns

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def same_module(A, B):
    """Double inclusion of modules given by generator lists."""
    sbA, sbB = standard_basis(A), standard_basis(B)
    return all(sbA.contains(v) for v in B) and all(sbB.contains(v) for v in A)


def contains_same_ideal(I, J):
    """Double inclusion of ideals given by generator lists."""
    return same_module([Vector.ideal(g) for g in I], [Vector.ideal(g) for g in J])


# ---------------------------------------------------------------------------
# matrices and minors

def test_jacobian_matrix(R3):
    M = jacobian_matrix([R3.parse("x^2+y^2+z^2"), R3.parse("x*y")])
    assert len(M) == 2 and len(M[0]) == 3
    assert M[0][2] == R3.parse("2*z")
    assert M[1][2].is_zero


def test_determinant(R2):
    x, y = R2.gens()
    rows = [[x, y], [y, x]]
    assert determinant(rows) == R2.parse("x^2-y^2")


def test_maximal_minors(R3):
    M = jacobian_matrix([R3.parse("x^2+y^2+z^2"), R3.parse("x*y")])
    minors = maximal_minors(M, 2)
    expected = ideal_basis([R3.parse("2*x^2-2*y^2"), R3.parse("2*y*z"),
                            R3.parse("2*x*z")])
    assert len(minors) == 3
    for m in minors:
        assert expected.contains(Vector.ideal(m))


# ---------------------------------------------------------------------------
# syzygies

def apply(M, v):
    """The matrix with rows M times the column vector v."""
    if v.rank != len(M[0]):
        raise ValueError("rank mismatch")
    ring = M[0][0].ring
    return Vector([sum((a * b for a, b in zip(row, v.components)), ring.zero)
                   for row in M])


def test_koszul_syzygy(R2):
    x, y = R2.gens()
    M = [[x, y]]
    rels = syzygies([Vector(c) for c in zip(*M)])
    assert rels
    for r in rels:
        assert apply(M, r).components[0].is_zero
    # the Koszul relation (y, -x) must be among them
    sb = standard_basis(rels)
    assert sb.contains(Vector((y, -x)))


def test_syzygies_of_jacobian_with_relations(R3):
    phis = [R3.parse("x^2+y^2+z^2"), R3.parse("x*y")]
    M = jacobian_matrix(phis)
    rels = syzygies([Vector(c) for c in zip(*M)])
    for r in rels:
        image = apply(M, r)
        assert all(c.is_zero for c in image.components)


@pytest.mark.parametrize("name", ["worked", "twin_cusps", "fp_worked",
                                  "nonwh_space", "ideals"])
def test_syzygies_modulo_is_the_projected_syzygies(name, R2):
    """The relations modulo a submodule are the first s components of the
    relations among the columns and the modulo vectors together."""
    if name == "ideals":
        x, y = R2.gens()
        columns = [Vector((x,)), Vector((y,))]
        modulo = [Vector((R2.parse(p),)) for p in ("x^2", "x*y", "y^3")]
    else:
        X = load_germfile(os.path.join(CORPUS, f"{name}.germ")).X
        columns, modulo = _tangent_columns(X)
    s = len(columns)
    projected = [Vector(v.components[:s]) for v in syzygies(columns + modulo)]
    assert same_module(syzygies(columns, modulo),
                       [v for v in projected if not v.is_zero])


def test_matrix_shape_is_checked(R2):
    x, y = R2.gens()
    for columns, modulo in (([], []), ([Vector((x,)), Vector((x, y))], []),
                            ([Vector((x, y))], [Vector((x,))])):
        with pytest.raises(ValueError):
            syzygies(columns, modulo)
    for rows in ([], [[]], [[x, y], [y]], [[x], [x, y]]):
        with pytest.raises(ValueError):
            maximal_minors(rows, 1)


# ---------------------------------------------------------------------------
# intersection and quotient

def test_intersect_principal(R2):
    x, y = R2.gens()
    I = intersect([x], [y])
    assert contains_same_ideal(I, [x * y])


def test_intersect_nontrivial(R2):
    I = intersect([R2.parse("x^2"), R2.parse("y")], [R2.parse("x")])
    assert contains_same_ideal(I, [R2.parse("x^2"), R2.parse("x*y")])


def test_quotient_ideal(R2):
    x, y = R2.gens()
    Q = quotient_ideal([x * y, y * y], [y])
    assert contains_same_ideal(Q, [x, y])
    Q2 = quotient_ideal([x], [x])
    assert contains_same_ideal(Q2, [R2.one])


def test_ideal_product(R2):
    x, y = R2.gens()
    P = ideal_product([x, y], [x, y])
    assert contains_same_ideal(P, [x * x, x * y, y * y])


# ---------------------------------------------------------------------------
# subquotients

def test_subquotient_of_ideals(R2):
    x, y = R2.gens()
    # m/m^2 is two-dimensional
    S = Subquotient.of_ideals([x, y], [x * x, x * y, y * y])
    assert S.colength() == 2


def test_subquotient_rejects_non_inclusion(R2):
    x, y = R2.gens()
    with pytest.raises(ValueError):
        Subquotient.of_ideals([x], [y])


def test_subquotient_module(R2):
    x, y = R2.gens()
    # O^2 / (x,y-span of the unit vectors) has dimension 2
    e1 = Vector((R2.one, R2.zero))
    e2 = Vector((R2.zero, R2.one))
    num = [e1, e2]
    den = [e1.mul_poly(x), e1.mul_poly(y), e2.mul_poly(x), e2.mul_poly(y)]
    assert Subquotient(num, den).colength() == 2


def test_subquotient_rank_mismatch(R2):
    x, y = R2.gens()
    with pytest.raises(ValueError, match="ambient rank mismatch"):
        Subquotient([Vector((x,))], [Vector((x, y))], check=False)


def test_subquotient_infinite(R2):
    x, y = R2.gens()
    S = Subquotient.of_ideals([x], [x * y], check=False)
    assert S.colength() is INFINITE


# ---------------------------------------------------------------------------
# exact rank

def test_matrix_rank_over_q():
    from fractions import Fraction
    F = Field()
    rows = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)],
            [Fraction(0), Fraction(1)]]
    assert matrix_rank(rows, F) == 2


def test_matrix_rank_mod_p():
    F = Field(5)
    rows = [[1, 2], [3, 6 % 5]]
    assert matrix_rank(rows, F) == 1


def _det(M, F):
    if len(M) == 1:
        return M[0][0]
    acc = F.zero
    for j, c in enumerate(M[0]):
        term = F.mul(c, _det([r[:j] + r[j + 1:] for r in M[1:]], F))
        acc = F.add(acc, term) if j % 2 == 0 else F.sub(acc, term)
    return acc


def _brute_rank(rows, F):
    """Size of the largest nonzero minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                if _det([[rows[i][j] for j in cs] for i in rs], F) != F.zero:
                    return k
    return 0


@pytest.mark.parametrize("p", [None, 32003])
@pytest.mark.parametrize("kind", ["dense", "sparse", "deficient"])
def test_matrix_rank_against_largest_minor(p, kind):
    F = Field(p)
    rng = random.Random(f"{p}-{kind}")

    def entry():
        if kind == "sparse" and rng.random() < 0.7:
            return F.zero
        c = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        return F.from_fraction(c.numerator, c.denominator)

    for _ in range(12):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        if kind == "deficient":
            r = rng.randint(0, min(m, n) - 1)
            A = [[entry() for _ in range(r)] for _ in range(m)]
            B = [[entry() for _ in range(n)] for _ in range(r)]
            rows = [[sum((F.mul(A[i][t], B[t][j]) for t in range(r)), F.zero)
                     if p is None else
                     sum(F.mul(A[i][t], B[t][j]) for t in range(r)) % p
                     for j in range(n)] for i in range(m)]
        else:
            rows = [[entry() for _ in range(n)] for _ in range(m)]
        before = [list(r) for r in rows]
        assert matrix_rank(rows, F) == _brute_rank(rows, F)
        assert rows == before
    assert matrix_rank([], F) == 0


# ---------------------------------------------------------------------------
# Artinian algebras and Koszul homology

def test_artinian_algebra_tables_commute(R2):
    A = ArtinianAlgebra([R2.parse("x^2"), R2.parse("y^3")])
    assert A.dim == 6
    assert A.tables_commute()


def test_artinian_basis_is_the_sorted_staircase(R2):
    A = ArtinianAlgebra([R2.parse("x^2+y^3"), R2.parse("x*y")])
    leads = [g.lead()[1] for g in A.sb.generators]
    assert A.basis == sorted(staircase(leads, 2), key=R2.mono_key, reverse=True)
    assert A.dim == colength(A.sb) == 5


def test_koszul_tor_transverse_squares(R2):
    I = [R2.parse("x"), R2.parse("y")]
    J = [R2.parse("x^2"), R2.parse("y^2")]
    assert koszul_tor(I, J) == [1, 2, 1]


def test_koszul_tor_euler_characteristic(R2):
    I = [R2.parse("x^2+y^3"), R2.parse("x*y")]
    J = [R2.parse("x^3"), R2.parse("y^2")]
    tors = koszul_tor(I, J)
    assert sum((-1) ** i * t for i, t in enumerate(tors)) == 0


def test_koszul_tor_mod_p():
    R = GermRing(("x", "y"), Field(32003))
    I = [R.parse("x"), R.parse("y")]
    J = [R.parse("x^2"), R.parse("y^2")]
    assert koszul_tor(I, J) == [1, 2, 1]
