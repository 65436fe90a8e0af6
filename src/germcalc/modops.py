"""Derived ideal/module constructions: syzygies, intersection, quotient,
Jacobian minors, subquotient colength, and Koszul homology over the Artinian
quotient algebra."""

from __future__ import annotations

import itertools
from functools import cached_property

from .ring import (BlockOrder, DegRevLex, GermRing, NegDegRevLex, Polynomial,
                   mono_deg, mono_div)
from .stdbasis import (INFINITE, Vector, colength, ideal_basis, mora_divide,
                       staircase, standard_basis)


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

def syzygies(rows: list[list[Polynomial]]) -> list[Vector]:
    """Generators of {v : M v = 0} over the local ring, for the matrix M
    with the given rows.

    Standard basis of the columns augmented with unit vectors; the elements
    whose ambient block vanishes are the relations.
    """
    r, c = _shape(rows)
    ring = rows[0][0].ring
    augmented = []
    for j, col in enumerate(zip(*rows)):
        unit = [ring.one if jj == j else ring.zero for jj in range(c)]
        augmented.append(Vector(list(col) + unit))
    sb = standard_basis(augmented)
    out = []
    for g in sb.generators:
        if all(g.components[i].is_zero for i in range(r)):
            out.append(Vector(g.components[r:]))
    return dedupe_vectors(out)


# ---------------------------------------------------------------------------
# elimination: intersection and quotient

AUX_NAME = "@t"


def _aux_ring(ring: GermRing) -> GermRing:
    """Adjoin one global auxiliary variable in front of the existing block(s)."""
    if isinstance(ring.order, BlockOrder):
        blocks = [(0, 1, DegRevLex())]
        blocks += [(lo + 1, hi + 1, sub) for lo, hi, sub in ring.order.blocks]
        order = BlockOrder(blocks)
    elif isinstance(ring.order, NegDegRevLex):
        order = BlockOrder([(0, 1, DegRevLex()), (1, ring.nvars + 1, NegDegRevLex())])
    else:
        raise ValueError(f"cannot extend ordering {ring.order!r}")
    return GermRing((AUX_NAME,) + ring.names, ring.field, order)


def _strip_aux(p: Polynomial, ring: GermRing) -> Polynomial | None:
    """Map back to the base ring; None when the aux variable occurs."""
    d = {}
    for m, c in p.terms:
        if m[0] != 0:
            return None
        d[m[1:]] = c
    return ring.from_dict(d)


def intersect(I: list[Polynomial], J: list[Polynomial]) -> list[Polynomial]:
    """Generators of the intersection of two ideals of the localized ring,
    via one global elimination variable t and <t*I, (1-t)*J>."""
    I = [p for p in I if not p.is_zero]
    J = [p for p in J if not p.is_zero]
    if not I or not J:
        return []
    ring = I[0].ring
    ext = _aux_ring(ring)
    t = ext.var(0)
    var_map = list(range(1, ring.nvars + 1))
    gens = [t * p.map_to(ext, var_map) for p in I]
    gens += [(ext.one - t) * p.map_to(ext, var_map) for p in J]
    sb = ideal_basis(gens)
    out = []
    for g in sb.generators:
        stripped = _strip_aux(g.components[0], ring)
        if stripped is not None:
            out.append(stripped)
    return dedupe(out)


def quotient_by_element(I: list[Polynomial], g: Polynomial) -> list[Polynomial]:
    """I : <g>, from generators of the intersection with <g> divided by g."""
    if g.is_zero:
        raise ValueError("colon by zero")
    inter = intersect(I, [g])
    out = []
    gv = [Vector.ideal(g)]
    for w in inter:
        r, _, qs = mora_divide(Vector.ideal(w), gv)
        if not r.is_zero:
            raise InternalError("nonzero remainder dividing an intersection generator")
        out.append(qs[0])
    return dedupe(out)


def quotient_ideal(I: list[Polynomial], J: list[Polynomial]) -> list[Polynomial]:
    """Quotient ideal I : J as the intersection of the single-element colons."""
    J = [p for p in J if not p.is_zero]
    if not J:
        raise ValueError("colon by the zero ideal")
    result = None
    for g in J:
        part = quotient_by_element(I, g)
        result = part if result is None else intersect(result, part)
    return result


def ideal_product(I: list[Polynomial], J: list[Polynomial]) -> list[Polynomial]:
    return dedupe([a * b for a in I for b in J])


# ---------------------------------------------------------------------------
# subquotients

class Subquotient:
    """A module (numerator)/(denominator) inside a common free ambient."""

    def __init__(self, ambient_rank: int, numerator: list[Vector],
                 denominator: list[Vector], check: bool = True):
        self.ambient_rank = ambient_rank
        self.numerator = [v for v in numerator if not v.is_zero]
        self.denominator = [v for v in denominator if not v.is_zero]
        for v in self.numerator + self.denominator:
            if v.rank != ambient_rank:
                raise ValueError("ambient rank mismatch")
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
                  check: bool = True) -> "Subquotient":
        return cls(1, [Vector.ideal(p) for p in numerator],
                   [Vector.ideal(p) for p in denominator], check=check)

    def colength(self):
        """Present the numerator by its generators and divide out all relations
        landing in the denominator."""
        if not self.numerator:
            return 0
        if self.ambient_rank == 1:
            # ideal quotient: when both colengths are finite the dimension is
            # their difference, which sidesteps the syzygy computation
            num = colength(self._numerator_basis)
            if num is not INFINITE:
                den = (colength(standard_basis(self.denominator))
                       if self.denominator else INFINITE)
                if den is INFINITE:
                    return INFINITE
                return den - num
        s = len(self.numerator)
        cols = self.numerator + self.denominator
        rels = syzygies([[v.components[i] for v in cols]
                         for i in range(self.ambient_rank)])
        projected = [Vector(v.components[:s]) for v in rels]
        projected = [v for v in projected if not v.is_zero]
        # relations always include denominator-multiples of each generator, so
        # an empty projection only happens when the denominator is zero and the
        # numerator is free; the quotient is then infinite for s >= 1
        if not projected:
            return INFINITE
        return colength(standard_basis(projected))


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

class ArtinianAlgebra:
    """Finite-dimensional quotient of the local ring by a finite-colength ideal.

    The basis is the set of standard monomials; reduction truncates at total
    degree equal to the dimension, which is sound because the maximal ideal of
    an Artinian local algebra of length d is nilpotent of order at most d.
    """

    def __init__(self, J: list[Polynomial]):
        J = [p for p in J if not p.is_zero]
        if not J:
            raise ValueError("zero ideal has infinite colength")
        self.ring = J[0].ring
        self.sb = ideal_basis(J)
        self._leads = [(g.lead()[1], g) for g in self.sb.generators]
        basis = staircase([m for m, _ in self._leads], self.ring.nvars)
        if basis is INFINITE:
            raise ValueError("ideal does not have finite colength")
        self.basis = sorted(basis, key=self.ring.mono_key, reverse=True)
        self.dim = len(self.basis)
        self.trunc = max(self.dim, 1)
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._var_tables = None

    def normal_form(self, p: Polynomial) -> dict:
        """Fully reduced representative, supported on standard monomials."""
        F = self.ring.field
        d = {m: c for m, c in p.terms if mono_deg(m) < self.trunc}
        while True:
            best = None
            for m in d:
                if m in self._index:
                    continue
                if best is None or self.ring.mono_key(m) > self.ring.mono_key(best):
                    best = m
            if best is None:
                return d
            g = next(g for lm, g in self._leads if mono_div(best, lm) is not None)
            lm, lc = g.components[0].lead()
            q = mono_div(best, lm)
            factor = F.div(d[best], lc)
            for gm, gc in g.components[0].terms:
                m2 = tuple(a + b for a, b in zip(gm, q))
                if mono_deg(m2) >= self.trunc:
                    continue
                c2 = F.sub(d.get(m2, F.zero), F.mul(factor, gc))
                if c2 == F.zero:
                    d.pop(m2, None)
                else:
                    d[m2] = c2

    def vector_of(self, p: Polynomial) -> list:
        F = self.ring.field
        nf = self.normal_form(p)
        return [nf.get(m, F.zero) for m in self.basis]

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
        tables = self.variable_tables()
        for a, b in itertools.combinations(tables, 2):
            if _mat_mul(a, b, self.ring.field) != _mat_mul(b, a, self.ring.field):
                return False
        return True


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


def koszul_tor(I: list[Polynomial], J: list[Polynomial]) -> list:
    """Homology dimensions Tor_0..Tor_k of the Koszul complex of the
    multiplication maps of I's generators on the algebra of J."""
    k = len(I)
    algebra = ArtinianAlgebra(J)
    field = algebra.ring.field
    mu = algebra.dim
    if mu == 0:
        return [0] * (k + 1)
    if not algebra.tables_commute():
        raise InternalError("multiplication tables do not commute")
    maps = [algebra.multiplication_matrix(g) for g in I]

    subsets = [list(itertools.combinations(range(k), p)) for p in range(k + 1)]

    def differential(p: int):
        """Matrix of d_p : C_p -> C_{p-1}, blocks of multiplication maps."""
        src = subsets[p]
        dst = {s: i for i, s in enumerate(subsets[p - 1])}
        rows = [[field.zero] * (len(src) * mu) for _ in range(len(dst) * mu)]
        for sj, sub in enumerate(src):
            for a, gen_idx in enumerate(sub):
                reduced = tuple(x for x in sub if x != gen_idx)
                di = dst[reduced]
                sign = 1 if a % 2 == 0 else -1
                M = maps[gen_idx]
                for i in range(mu):
                    row = rows[di * mu + i]
                    for j in range(mu):
                        val = M[i][j] if sign == 1 else field.neg(M[i][j])
                        row[sj * mu + j] = field.add(row[sj * mu + j], val)
        return rows

    ranks = [0] * (k + 2)
    for p in range(1, k + 1):
        ranks[p] = matrix_rank(differential(p), field)
    dims = []
    for p in range(k + 1):
        dims.append(len(subsets[p]) * mu - ranks[p] - ranks[p + 1])
    return dims

