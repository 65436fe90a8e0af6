"""Derived ideal/module constructions: syzygies, intersection, quotient,
Jacobian minors, subquotient colength, and Koszul homology over the Artinian
quotient algebra."""

from __future__ import annotations

import itertools
from functools import cached_property

from .ring import Polynomial, mono_div, sub_mul_into
from .stdbasis import (INFINITE, DegreeCapExceeded, StandardBasis, Vector, colength,
                       ideal_basis, oracle_colength, staircase, standard_basis)


class InternalError(RuntimeError):
    """An identity the implementation guarantees failed to hold."""


# ---------------------------------------------------------------------------
# polynomial matrices and determinantal ideals

def jacobian_matrix(fs: list[Polynomial]) -> list[list[Polynomial]]:
    """Rows of the Jacobian matrix: row i is the gradient of fs[i]."""
    ring = fs[0].ring
    return [[f.derivative(j) for j in range(ring.nvars)] for f in fs]


def determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ring = rows[0][0].ring
    acc = ring.zero
    for j in range(n):
        if rows[0][j].is_zero:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * determinant(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _shape(rows: list[list[Polynomial]]) -> tuple[int, int]:
    """Number of rows and columns of a nonempty rectangular matrix."""
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return len(rows), len(rows[0])


def maximal_minors(rows: list[list[Polynomial]], size: int) -> list[Polynomial]:
    """All size x size minors, subsets in lexicographic order, zeros dropped."""
    nrows, ncols = _shape(rows)
    if size < 1 or size > min(nrows, ncols):
        raise ValueError(f"minor size {size} out of range for {nrows}x{ncols}")
    out = []
    for rsub in itertools.combinations(range(nrows), size):
        for csub in itertools.combinations(range(ncols), size):
            d = determinant([[rows[i][j] for j in csub] for i in rsub])
            if not d.is_zero:
                out.append(d)
    return dedupe(out)


def dedupe(polys: list[Polynomial]) -> list[Polynomial]:
    """Drop zeros and constant-multiple duplicates, preserving order."""
    return [v.components[0] for v in dedupe_vectors([Vector.ideal(p) for p in polys])]


def dedupe_vectors(vs: list[Vector]) -> list[Vector]:
    """Drop zero vectors and constant-multiple duplicates, preserving order."""
    seen = set()
    out = []
    for v in vs:
        if v.is_zero:
            continue
        key = v.normalized()
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# syzygies

def syzygies(columns: list[Vector], modulo: list[Vector] = ()) -> list[Vector]:
    """Generators of {a in O^s : sum a_j columns_j in <modulo>} over the local
    ring, for s columns of one rank r; with no modulo vectors, the relations
    among the columns.

    Standard basis of the (column_j | e_j) and the (m | 0); in the
    position-over-term ordering the elements whose first r components vanish
    generate the preimage (Singular's modulo).
    """
    if not columns:
        raise ValueError("need at least one column")
    ring, r, s = columns[0].ring, columns[0].rank, len(columns)
    zero, one = ring.zero, ring.one
    gens = [Vector(c.components + tuple(one if i == j else zero for i in range(s)))
            for j, c in enumerate(columns)]
    sb = standard_basis(gens + [Vector(m.components + (zero,) * s) for m in modulo],
                        exact=True)
    return dedupe_vectors([Vector(g.components[r:]) for g in sb.generators
                           if all(p.is_zero for p in g.components[:r])])


# ---------------------------------------------------------------------------
# intersection and quotient: relations modulo a submodule

def intersect(I: list[Polynomial], J: list[Polynomial]) -> list[Polynomial]:
    """Generators of the intersection of two ideals of the localized ring:
    the a with (a, a) in I x J inside O^2."""
    I = [p for p in I if not p.is_zero]
    J = [p for p in J if not p.is_zero]
    if not I or not J:
        return []
    ring = I[0].ring
    zero = ring.zero
    rels = syzygies([Vector((ring.one, ring.one))],
                    [Vector((g, zero)) for g in I] + [Vector((zero, h)) for h in J])
    return [v.components[0] for v in rels]


def quotient_ideal(I: list[Polynomial], J: list[Polynomial]) -> list[Polynomial]:
    """Quotient ideal I : J for J = (h_1..h_m): the a with (a h_1, .., a h_m)
    in I*O^m, the submodule generated by the g e_j."""
    J = [p for p in J if not p.is_zero]
    if not J:
        raise ValueError("colon by the zero ideal")
    zero, m = J[0].ring.zero, len(J)
    modulo = [Vector(tuple(g if i == j else zero for i in range(m)))
              for g in I for j in range(m)]
    return [v.components[0] for v in syzygies([Vector(J)], modulo)]


def ideal_product(I: list[Polynomial], J: list[Polynomial]) -> list[Polynomial]:
    return dedupe([a * b for a in I for b in J])


# ---------------------------------------------------------------------------
# subquotients

class Subquotient:
    """A module (numerator)/(denominator) inside a common free ambient.

    numerator_basis is a standard basis of the numerator that the caller
    already holds."""

    def __init__(self, numerator: list[Vector], denominator: list[Vector],
                 check: bool = True, numerator_basis: StandardBasis | None = None):
        self.numerator = [v for v in numerator if not v.is_zero]
        self.denominator = [v for v in denominator if not v.is_zero]
        if len({v.rank for v in self.numerator + self.denominator}) > 1:
            raise ValueError("ambient rank mismatch")
        if numerator_basis is not None:
            self._numerator_basis = numerator_basis
        if check and self.denominator:
            if not self.numerator:
                raise ValueError("denominator not contained in zero numerator")
            for v in self.denominator:
                if not self._numerator_basis.contains(v):
                    raise ValueError("denominator not contained in numerator")

    @cached_property
    def _numerator_basis(self):
        return standard_basis(self.numerator)

    @classmethod
    def of_ideals(cls, numerator: list[Polynomial], denominator: list[Polynomial],
                  check: bool = True,
                  numerator_basis: StandardBasis | None = None) -> "Subquotient":
        return cls([Vector.ideal(p) for p in numerator],
                   [Vector.ideal(p) for p in denominator], check=check,
                   numerator_basis=numerator_basis)

    def colength(self):
        """Present the numerator by its generators and divide out all relations
        landing in the denominator."""
        if not self.numerator:
            return 0
        if self.numerator[0].rank == 1:
            # ideal quotient: when both colengths are finite the dimension is
            # their difference, which sidesteps the syzygy computation
            num = colength(self._numerator_basis)
            if num is not INFINITE:
                den = (colength(standard_basis(self.denominator))
                       if self.denominator else INFINITE)
                if den is INFINITE:
                    return INFINITE
                return den - num
        rels = syzygies(self.numerator, self.denominator)
        # the relations always include denominator-multiples of each generator,
        # so there are none only when the denominator is zero and the numerator
        # is free; the quotient is then infinite
        if not rels:
            return INFINITE
        return colength(standard_basis(rels))


# ---------------------------------------------------------------------------
# exact linear algebra

def matrix_rank(rows: list[list], field) -> int:
    """Exact rank by Gaussian elimination over the coefficient field.

    Rows with a zero in the pivot column are skipped and only the columns
    from the pivot onward are updated, which keeps sparse matrices cheap.
    """
    p, zero = field.p, field.zero
    rows = [list(r) if p is None else [c % p for c in r] for r in rows]
    rows = [r for r in rows if any(c != zero for c in r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pinv = field.inv(rows[rank][col])
        tail = rows[rank][col:]
        for r in rows[rank + 1:]:
            if r[col] != zero:
                f = field.mul(r[col], pinv)
                r[col:] = ([a - f * b for a, b in zip(r[col:], tail)] if p is None
                           else [(a - f * b) % p for a, b in zip(r[col:], tail)])
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# the Artinian algebra O_n/J and Koszul homology

class _InfiniteColength(ValueError):
    """The ideal of an ArtinianAlgebra has infinite colength."""


class ArtinianAlgebra:
    """Finite-dimensional quotient of the local ring by a finite-colength ideal.

    The basis is the set of standard monomials.  Reduction runs through the
    reducer index of J's standard basis and drops every term of degree at
    least the corner D the basis records (m^D inside J).  A basis with no
    corner, in an ordering other than the local degree ordering, truncates at
    the dimension instead, which is sound because the maximal ideal of an
    Artinian local algebra of length d is nilpotent of order at most d.
    J is given by its generators or by its standard basis.
    """

    def __init__(self, J: list[Polynomial] | StandardBasis):
        if not isinstance(J, StandardBasis):
            J = [p for p in J if not p.is_zero]
            if not J:
                raise _InfiniteColength("zero ideal has infinite colength")
            J = ideal_basis(J)
        self.sb = J
        self.ring = J.ring
        basis = staircase([m for _, m in J.leading_module()], self.ring.nvars)
        if basis is INFINITE:
            raise _InfiniteColength("ideal does not have finite colength")
        self.basis = sorted(basis, key=self.ring.mono_key, reverse=True)
        self.dim = len(self.basis)
        self.trunc = J.corner if J.corner is not None else max(self.dim, 1)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._var_tables = None

    @classmethod
    def of(cls, J: list[Polynomial] | StandardBasis) -> "ArtinianAlgebra | None":
        """O/J, or None when J has infinite colength.  When the Mora run of J
        reaches the degree cap, the oracle decides: None if it finds the
        colength infinite, the cap error otherwise."""
        try:
            return cls(J)
        except _InfiniteColength:
            return None
        except DegreeCapExceeded:
            if isinstance(J, StandardBasis) or oracle_colength(J) is not INFINITE:
                raise
            return None

    def normal_form(self, p: Polynomial) -> dict:
        """Fully reduced representative, supported on standard monomials.

        The largest term off them is cancelled by the first reducer of the
        basis's index with the exact coefficient: a multiplication table needs
        the representative itself, not the unit multiple of it that a Mora
        normal form may return."""
        F = self.ring.field
        first, trunc, index = self.sb.reducers.first, self.trunc, self._index
        d = {m: c for m, c in p.terms if sum(m) < trunc}
        while True:
            m = max((m for m in d if m not in index), key=self.ring.mono_key, default=None)
            if m is None:
                return d
            _, _, mg, ag, g = first(0, m)
            sub_mul_into(d, mono_div(m, mg), F.div(d[m], ag), g.components[0].terms,
                         F.p, trunc)

    def vector_of(self, p: Polynomial) -> list:
        nf = self.normal_form(p)
        return [nf.get(m, self.ring.field.zero) for m in self.basis]

    def multiplication_matrix(self, g: Polynomial) -> list[list]:
        """Row-major matrix of multiplication by g on the monomial basis."""
        cols = [self.vector_of(g * self.ring.monomial(m)) for m in self.basis]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def variable_tables(self) -> list[list[list]]:
        if self._var_tables is None:
            self._var_tables = [self.multiplication_matrix(self.ring.var(i))
                                for i in range(self.ring.nvars)]
        return self._var_tables

    def tables_commute(self) -> bool:
        F = self.ring.field
        return all(_mat_mul(a, b, F) == _mat_mul(b, a, F)
                   for a, b in itertools.combinations(self.variable_tables(), 2))


def _mat_mul(a, b, field):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(n):
            c = ai[k]
            if c == field.zero:
                continue
            bk = b[k]
            row = out[i]
            for j in range(n):
                row[j] = field.add(row[j], field.mul(c, bk[j]))
    return out


def koszul_tor(I: list[Polynomial], J: list[Polynomial] | ArtinianAlgebra) -> list:
    """Homology dimensions Tor_0..Tor_k of the Koszul complex of the
    multiplication maps of I's generators on the algebra of J (given by its
    generators or as that algebra)."""
    k = len(I)
    algebra = J if isinstance(J, ArtinianAlgebra) else ArtinianAlgebra(J)
    field = algebra.ring.field
    mu = algebra.dim
    if mu == 0:
        return [0] * (k + 1)
    if not algebra.tables_commute():
        raise InternalError("multiplication tables do not commute")
    maps = [algebra.multiplication_matrix(g) for g in I]

    subsets = [list(itertools.combinations(range(k), p)) for p in range(k + 1)]

    negated = [[[field.neg(c) for c in row] for row in M] for M in maps]

    def differential(p: int):
        """Matrix of d_p : C_p -> C_{p-1}, blocks of multiplication maps.  A
        p-subset and the generator removed from it fix the (p-1)-subset, so
        each block is written once."""
        src = subsets[p]
        dst = {s: i for i, s in enumerate(subsets[p - 1])}
        rows = [[field.zero] * (len(src) * mu) for _ in range(len(dst) * mu)]
        for sj, sub in enumerate(src):
            for a, gen_idx in enumerate(sub):
                block = (maps if a % 2 == 0 else negated)[gen_idx]
                di = dst[sub[:a] + sub[a + 1:]]
                for i in range(mu):
                    rows[di * mu + i][sj * mu:(sj + 1) * mu] = block[i]
        return rows

    ranks = [0] + [matrix_rank(differential(p), field) for p in range(1, k + 1)] + [0]
    return [len(subsets[p]) * mu - ranks[p] - ranks[p + 1] for p in range(k + 1)]

