"""Jacobian minors, syzygies, intersection and quotient of ideals,
subquotient colength, and Koszul homology."""

import itertools
import os
import random
from fractions import Fraction

import pytest

from germcalc import (INFINITE, ArtinianAlgebra, DegreeCapExceeded, Field,
                      GermRing, InternalError, Subquotient, Vector,
                      colength, determinant, ideal_basis, ideal_product,
                      intersect, jacobian_matrix, koszul_tor,
                      matrix_rank, maximal_minors, quotient_ideal, staircase,
                      load_germfile, standard_basis, syzygies)
from germcalc.invariants import _cotangent_ring, _tangent_columns

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
    # a global fiber variable above the local block
    P = _cotangent_ring(R2)
    I = intersect([P.parse("x*p1")], [P.parse("p1^2")])
    assert contains_same_ideal(I, [P.parse("x*p1^2")])


def test_quotient_ideal(R2, R3p):
    x, y = R2.gens()
    Q = quotient_ideal([x * y, y * y], [y])
    assert contains_same_ideal(Q, [x, y])
    Q2 = quotient_ideal([x], [x])
    assert contains_same_ideal(Q2, [R2.one])
    # a colon by two generators, over Q and over F_32003
    for R in (R2, R3p):
        Q = quotient_ideal([R.parse("x^2"), R.parse("y^2")],
                           [R.parse("x"), R.parse("y")])
        assert contains_same_ideal(Q, [R.parse(g) for g in ("x^2", "x*y", "y^2")])
    P = _cotangent_ring(R2)
    Q = quotient_ideal([P.parse("x*p1"), P.parse("y*p2")],
                       [P.parse("p1"), P.parse("p2")])
    assert contains_same_ideal(Q, [P.parse(g) for g in ("x*y", "x*p1", "y*p2")])


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


def test_artinian_algebra_of_infinite_colength(R2, R3p, monkeypatch):
    x, y = R2.gens()
    for gens in ([], [R2.zero], [x * y]):
        assert ArtinianAlgebra.of(gens) is None
        with pytest.raises(ValueError):
            ArtinianAlgebra(gens)
    assert ArtinianAlgebra.of(ideal_basis([x * y])) is None
    # all four vanish on the z-axis, and their Mora run climbs to the degree
    # cap: the oracle finds the colength infinite
    J = [R3p.parse(s) for s in (
        "10667*x*z+4*x^3+32002*y^2*z", "16002*x*y+32001*x^3+16002*y^3",
        "16003*x^2+2*x*z^2", "x*y+2*x*z+10668*y^2*z")]
    with pytest.raises(DegreeCapExceeded):
        ArtinianAlgebra(J)
    assert ArtinianAlgebra.of(J) is None
    # a cap hit on an ideal the oracle finds of finite colength still raises
    monkeypatch.setenv("GERMCALC_STEP_BUDGET", "0")
    with pytest.raises(DegreeCapExceeded):
        ArtinianAlgebra.of([R2.parse("x^2+y^3"), R2.parse("x*y+x^3")])


# ---------------------------------------------------------------------------
# the algebra's reduction against a loop with no reducer index

def reference_normal_form(algebra, p):
    """Reduction with no reducer index: the largest term outside the
    standard monomials is reduced by the first basis element, in generator
    order, whose lead divides it, subtracting term by term, and every term
    of degree >= max(dim, 1) is dropped."""
    F, key = algebra.ring.field, algebra.ring.mono_key
    trunc = max(algebra.dim, 1)
    leads = [(g.lead()[1], g.components[0]) for g in algebra.sb.generators]
    standard = set(algebra.basis)
    d = {m: c for m, c in p.terms if sum(m) < trunc}
    while True:
        outside = [m for m in d if m not in standard]
        if not outside:
            return d
        best = max(outside, key=key)
        lm, g = next((lm, g) for lm, g in leads
                     if all(a >= b for a, b in zip(best, lm)))
        q = tuple(a - b for a, b in zip(best, lm))
        factor = F.div(d[best], g.lead()[1])
        for gm, gc in g.terms:
            m2 = tuple(a + b for a, b in zip(gm, q))
            if sum(m2) >= trunc:
                continue
            c2 = F.sub(d.get(m2, F.zero), F.mul(factor, gc))
            if c2 == F.zero:
                d.pop(m2, None)
            else:
                d[m2] = c2


ALGEBRA_RINGS = (GermRing(("x", "y")), GermRing(("x", "y"), Field(32003)),
                 GermRing(("x", "y", "z")), GermRing(("x", "y", "z"), Field(32003)))


def random_poly(R, rng, degrees, terms):
    p = R.zero
    for _ in range(terms):
        m = [0] * R.nvars
        for _ in range(rng.randint(*degrees)):
            m[rng.randrange(R.nvars)] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + R.monomial(tuple(m), R.field.from_fraction(c.numerator, c.denominator))
    return p


def random_algebras(count, seed=0):
    """Finite-colength ideals of n or n + 1 generators without linear terms,
    over Q and F_32003 in 2 and 3 variables, and their algebras."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        R = ALGEBRA_RINGS[len(out) % len(ALGEBRA_RINGS)]
        degrees = (2, 4 if R.nvars == 2 else 3)
        gens = [random_poly(R, rng, degrees, rng.randint(1, 3))
                for _ in range(R.nvars + rng.randint(0, 1))]
        try:
            algebra = ArtinianAlgebra.of(gens)
        except DegreeCapExceeded:
            continue  # an ideal of infinite colength can reach the cap
        if algebra is not None:
            out.append(algebra)
    return out


def test_artinian_reduction_matches_the_reference():
    rng = random.Random(1)
    algebras = random_algebras(60)
    # the basis's corner truncates below the length bound on most draws
    assert sum(A.sb.corner < A.dim for A in algebras) > 30
    for A in algebras:
        for _ in range(5):
            p = random_poly(A.ring, rng, (0, 6), rng.randint(1, 6))
            ref = reference_normal_form(A, p)
            assert A.vector_of(p) == [ref.get(m, 0) for m in A.basis]
        for i, table in enumerate(A.variable_tables()):
            x = A.ring.var(i)
            assert table == [[reference_normal_form(A, x * A.ring.monomial(m)).get(b, 0)
                              for m in A.basis] for b in A.basis]
