"""Mora normal form and standard bases for ideals and submodules of free modules.

Vectors are tuples of polynomials; rank 1 degenerates to the ideal case.  The
module ordering is position-over-term with lower component index first, so a
standard basis doubles as a component-elimination basis for syzygy extraction.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import os
from bisect import insort
from functools import cached_property
from math import gcd, lcm
from operator import le, sub

from .ring import (GermRing, NegDegRevLex, Polynomial, mono_deg, mono_div,
                   mono_lcm, mono_mul, sub_mul_into)


class Sentinel(enum.Enum):
    """Non-numeric colength: INFINITE, or INCONCLUSIVE for an oracle run that
    hit its cap without stabilizing.  The value is the JSON encoding."""

    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"

    def __repr__(self):
        return self.name

    __str__ = __repr__


INFINITE = Sentinel.INFINITE
INCONCLUSIVE = Sentinel.INCONCLUSIVE


class DegreeCapExceeded(RuntimeError):
    """A standard-basis run produced a leading term above the safety cap."""


DEFAULT_DEGREE_CAP = 30
DEFAULT_STEP_BUDGET = 50_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def degree_cap() -> int:
    return _env_int("GERMCALC_DEGREE_CAP", DEFAULT_DEGREE_CAP)


def step_budget() -> int:
    return _env_int("GERMCALC_STEP_BUDGET", DEFAULT_STEP_BUDGET)


class _Budget:
    """Deterministic countdown of reduction steps across one basis run."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int):
        self.remaining = remaining

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise DegreeCapExceeded(
                "reduction step budget exceeded; set GERMCALC_STEP_BUDGET to raise")


class Vector:
    """Element of a free module O^r, stored as r polynomials.

    Immutable: the lead and the ecart are computed on first use and kept.
    """

    __slots__ = ("components", "_lead", "_ecart")

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("rank must be at least 1")
        self._lead = self._ecart = None

    @classmethod
    def ideal(cls, p: Polynomial) -> "Vector":
        return cls((p,))

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def ring(self) -> GermRing:
        return self.components[0].ring

    @property
    def is_zero(self) -> bool:
        for p in self.components:
            if p.terms:
                return False
        return True

    def lead(self):
        """(component, monomial, coefficient) of the POT-leading term."""
        if self._lead is None:
            i = next((i for i, p in enumerate(self.components) if p.terms), None)
            if i is None:
                raise ValueError("zero vector has no leading term")
            self._lead = (i,) + self.components[i].terms[0]
        return self._lead

    def max_degree(self) -> int:
        return max((p.max_degree() for p in self.components), default=-1)

    def ecart(self) -> int:
        if self._ecart is None:
            self._ecart = self.max_degree() - mono_deg(self.lead()[1])
        return self._ecart

    def __add__(self, other):
        return Vector(tuple(a + b for a, b in zip(self.components, other.components)))

    def mul_term(self, m, c) -> "Vector":
        return Vector(tuple(p.mul_term(m, c) for p in self.components))

    def scale(self, c) -> "Vector":
        return Vector(tuple(p.scale(c) for p in self.components))

    def mul_poly(self, q: Polynomial) -> "Vector":
        return Vector(tuple(p * q for p in self.components))

    def normalized(self) -> "Vector":
        """Scale by a constant: monic over F_p; over Q, int coefficients of
        content 1 and a positive lead, which depend only on the Q-line."""
        if self.is_zero:
            return self
        F = self.ring.field
        _, _, lc = self.lead()
        if F.p is not None:
            return self.scale(F.inv(lc))
        num, den, ints = 0, 1, True
        for p in self.components:
            for _, c in p.terms:
                if type(c) is not int:
                    ints = False
                    den = lcm(den, c.denominator)
                num = gcd(num, c.numerator)
        if lc < 0:
            num = -num
        if ints and num == 1:
            return self
        return Vector(tuple(
            Polynomial(p.ring, tuple((m, c.numerator * (den // c.denominator) // num)
                                     for m, c in p.terms))
            for p in self.components))

    def __eq__(self, other):
        return isinstance(other, Vector) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        from .ring import render
        return "Vector(" + ", ".join(render(p) for p in self.components) + ")"


class _Reducers:
    """The reducers of Mora's normal form, bucketed by lead component.

    An entry is (ecart, index, lead monomial, lead coefficient, vector), the
    index numbering the vectors from start in the order they were added.  A
    bucket stays sorted, so its first entry whose lead divides a monomial is
    the one of minimal (ecart, index).  Zero vectors are skipped.  Over Q the
    vectors given at construction are stored normalized, and every reducer
    has int coefficients.
    """

    __slots__ = ("buckets", "size")

    def __init__(self, vectors=(), start: int = 0):
        self.buckets = {}
        self.size = start
        for g in vectors:
            if not g.is_zero:
                self.add(g.normalized() if g.ring.field.p is None else g)

    def add(self, g: Vector):
        c, m, a = g.lead()
        insort(self.buckets.setdefault(c, []), (g.ecart(), self.size, m, a, g))
        self.size += 1

    def first(self, c: int, m: tuple):
        """The entry of minimal (ecart, index) whose lead divides x^m e_c, or None."""
        for entry in self.buckets.get(c, ()):
            if all(map(le, entry[2], m)):
                return entry
        return None


def _integral(h: list[dict]) -> list[dict]:
    """The rational dicts h scaled to int coefficients."""
    if all(type(c) is int for d in h for c in d.values()):
        return h
    den = lcm(*(c.denominator for d in h for c in d.values()))
    return [{m: c.numerator * (den // c.denominator) for m, c in d.items()} for d in h]


def mora_normal_form(v: Vector, basis, cap: int | None = None,
                     budget: _Budget | None = None, corner: int | None = None) -> Vector:
    """Mora's weak normal form with minimal-ecart reducer selection.

    basis is a list of vectors or a _Reducers index of them.  Returns r with
    u*v = (combination of basis) + r for some unit u of the local ring; r is
    0 exactly when v lies in the localized submodule.  A corner D asserts
    m^D * O^r inside the submodule: terms of degree >= D are then dropped.
    An intermediate h that a reducer of larger ecart reduces joins the
    reducers of this call, numbered after the basis.

    h is one dict per component, reduced in place, and r is normalized on
    return once a step was made.  In between h is a nonzero multiple of that
    line, which changes no lead, ecart or reducer choice: over Q int
    coefficients, fraction-free steps and the content divided out after
    each; over F_p the lead coefficient the subtraction leaves.
    """
    if cap is None:
        cap = degree_cap()
    if not isinstance(basis, _Reducers):
        basis = _Reducers(basis)
    ring = v.ring
    p, key = ring.field.p, ring.mono_key
    if corner is None:
        h = [dict(q.terms) for q in v.components]
    else:
        h = [{m: c for m, c in q.terms if sum(m) < corner} for q in v.components]
    appended = _Reducers(start=basis.size)
    stepped = False
    while True:
        c = next((i for i, hd in enumerate(h) if hd), None)
        if c is None:
            break
        mh = max(h[c], key=key)
        dh = sum(mh)
        if stepped and dh > cap:
            raise DegreeCapExceeded(
                f"leading degree exceeded safety cap {cap}; set GERMCALC_DEGREE_CAP to raise")
        best = basis.first(c, mh)
        own = appended.first(c, mh)
        if own is not None and (best is None or own < best):
            best = own
        if best is None:
            break
        if not stepped and p is None:
            h = _integral(h)
        eg, _, mg, ag, g = best
        if eg and eg > max(max(map(sum, hd)) for hd in h if hd) - dh:
            appended.add(Vector(map(ring.from_dict, h)))
        if budget is not None:
            budget.spend()
        ah = h[c][mh]
        if p is None:
            # fraction-free: h <- (ag/d)*h - (ah/d)*x^q*g
            d = gcd(ag, ah)
            if ag != d:
                a = ag // d
                h = [{t: x * a for t, x in hd.items()} for hd in h]
            b = ah // d
        else:
            b = ah * pow(ag, -1, p) % p
        q = tuple(map(sub, mh, mg))
        for hd, gp in zip(h, g.components):
            sub_mul_into(hd, q, b, gp.terms, p, corner)
        if p is None:
            # dividing out the content keeps the coefficients small
            d = gcd(*itertools.chain.from_iterable(hd.values() for hd in h))
            if d > 1:
                h = [{t: x // d for t, x in hd.items()} for hd in h]
        stepped = True
    if not stepped:
        return v if corner is None else Vector(map(ring.from_dict, h))
    return Vector(map(ring.from_dict, h)).normalized()


def mora_divide(v: Vector, basis: list[Vector]):
    """Weak normal form with cofactor tracking.

    Returns (r, u, q) with u*v = sum(q_i * basis_i) + r and u a unit: the
    normal form of (v | e_0) against the (basis_i | e_{i+1}) is
    (r | u, -q_1, ..., -q_s).
    """
    ring, s = v.ring, len(basis)
    e = [tuple(ring.one if j == i else ring.zero for j in range(s + 1))
         for i in range(s + 1)]
    h = mora_normal_form(Vector(v.components + e[0]),
                         [Vector(g.components + e[i + 1]) for i, g in enumerate(basis)])
    r, u, q = h.components[:v.rank], h.components[v.rank], h.components[v.rank + 1:]
    if not u.is_unit:
        raise AssertionError("Mora division produced a non-unit cofactor")
    return Vector(r), u, tuple(-c for c in q)


class StandardBasis:
    """Mora-computed standard basis of a submodule, with its leading structure.

    corner is a degree D with m^D * O^rank inside the submodule, or None when
    none is known; the generators may then lack their terms of degree >= D.
    """

    def __init__(self, generators: list[Vector], rank: int, corner: int | None = None):
        self.generators = list(generators)
        self.rank = rank
        self.corner = corner

    @property
    def ring(self) -> GermRing:
        return self.generators[0].ring

    @cached_property
    def reducers(self) -> _Reducers:
        """The one reducer index of the generators, built on first use."""
        return _Reducers(self.generators)

    def leading_module(self):
        return [g.lead()[:2] for g in self.generators]

    def normal_form(self, v: Vector) -> Vector:
        return mora_normal_form(v, self.reducers, corner=self.corner)

    def contains(self, v: Vector) -> bool:
        if v.is_zero:
            return True
        if v.rank != self.rank:
            raise ValueError("rank mismatch")
        return self.normal_form(v).is_zero


def _spair(f: Vector, g: Vector) -> Vector:
    cf, mf, af = f.lead()
    cg, mg, ag = g.lead()
    assert cf == cg
    L = mono_lcm(mf, mg)
    qf, qg = mono_div(L, mf), mono_div(L, mg)
    return Vector(a.mul_term(qf, ag).sub_mul_term(qg, af, b)
                  for a, b in zip(f.components, g.components))


def standard_basis(gens: list[Vector], exact: bool = False) -> StandardBasis:
    """Mora's algorithm: Buchberger completion with the local weak normal form.

    Deterministic: normal pair selection (minimal lcm under the ordering),
    ties broken by generator index.  Pairs are pruned by the Gebauer-Moller
    criteria (see _mora): B, F and M, and the product criterion for ideals.

    In the local degree ordering the basis stops at a certified corner D, a
    degree with m^D * O^k inside the submodule M of O^k (Singular's noether;
    Greuel-Pfister, A Singular Introduction to Commutative Algebra, 1.7 and
    7.5): every term of degree >= D is dropped.  _mora finds D from the
    leading module: D is the sum over the components c of D_c, one more than
    the top degree of the staircase of the component-c leads.  For an ideal,
    when a normal form first climbs to the watched degree W (one more than
    the top input degree) before that, the basis of I + m^W is computed cut
    at W instead.  If its staircase stops below degree W - 1, each monomial
    of degree D = top + 1 is the lead of an element of I itself, so m^D lies
    in I by the argument of _mora, and that basis is a standard basis of I.
    Otherwise W doubles, and past the degree cap the plain algorithm runs.

    exact is for a caller that reads the basis elements themselves, as
    syzygies does: then no corner cuts them, and criterion M stays off for
    modules, so the elements are those of the plain algorithm.  Every other
    caller reads only the leading module, normal forms or membership.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    rank = gens[0].rank
    if any(g.rank != rank for g in gens):
        raise ValueError("generators of mixed rank")
    ring = gens[0].ring
    cap = degree_cap()

    G = [g.normalized() for g in gens]
    if exact or rank > 1 or not isinstance(ring.order, NegDegRevLex):
        return _mora(G, rank, cap, exact=exact)
    watch = 1 + max(g.max_degree() for g in G)
    sb = _mora(G, rank, cap, watch=watch)
    while sb is None and watch <= cap:
        sb = _mora(G, rank, cap, corner=watch)
        corner = _corner(sb.leading_module(), rank, ring.nvars, watch)
        if corner < watch:
            sb.corner = corner
        else:
            sb, watch = None, 2 * watch
    return sb if sb is not None else _mora(G, rank, cap)


def _corner(leads: list[tuple], rank: int, n: int, bound: int | None = None):
    """The sum over the components c of D_c, one more than the top degree of
    the staircase of the component-c leads (c, monomial), with m^bound
    adjoined when bound is given; None when some staircase is infinite."""
    total = 0
    for c in range(rank):
        monos = [m for cm, m in leads if cm == c]
        if bound is not None:
            monos += [tuple(bound if j == i else 0 for j in range(n)) for i in range(n)]
        monos = staircase(monos, n)
        if monos is INFINITE:
            return None
        total += 1 + max((mono_deg(m) for m in monos if bound is None or mono_deg(m) < bound),
                         default=-1)
    return total


def _mora(G: list[Vector], rank: int, cap: int, corner: int | None = None,
          watch: int | None = None, exact: bool = False) -> StandardBasis | None:
    """Mora's algorithm from normalized generators.

    In the local degree ordering, unless exact, the corner comes from the
    leading module of M in O^k.  Let Q_c be the image of F_c = e_c O + ... +
    e_(k-1) O in O^k / M.  An element of M whose lead lies in component c
    vanishes before c, so it lies in F_c.  Once the component-c leads hold a
    pure power of every variable, each x^a e_c with |a| = D_c = 1 + (top
    staircase degree) is the lead of such an element.  In a local degree
    ordering those elements are triangular modulo m^(D_c + 1) F_c + F_(c+1),
    so Nakayama gives m^(D_c) Q_c inside Q_(c+1), and m^D O^k inside M for
    D = the sum of the D_c.  The largest D_c is not enough: in O^2,
    <(x, 1), (y, 0), (0, x), (0, y)> has every D_c = 1 but not x e_0.  A
    corner passed in asserts m^corner O^k inside M.  Returns None when, with
    no corner known, a normal form reaches the leading degree watch.

    With a corner D the normal forms drop every term of degree >= D, and a
    pair is skipped only when its S-vector lies in m^D O^k: when the degree
    of its lcm, less the most by which a term of either element falls below
    that element's lead degree, is >= D.  No term of an ideal element falls
    below its lead; in a module the later components can.  Under the corner
    2 of <(x^5, 1), (x, 0), (y, 0), (0, x), (0, y)>, the pair of the first
    two has an lcm of degree 5 and the S-vector (0, 1).

    Pairs join elements of one lead component and are pruned by the
    Gebauer-Moller criteria (Gebauer-Moller, On an installation of
    Buchberger's algorithm, 1988) each time an element k enters G:
    B retires a waiting pair (i, j) when lm(k) divides its lcm L and neither
    lcm(i, k) nor lcm(j, k) is L; F keeps one new pair (i, k) per lcm, the
    one of least i; M drops a new pair whose lcm another new lcm properly
    divides.  For ideals an lcm group holding a coprime pair is dropped whole
    (the product criterion, which does not hold for modules).  With exact,
    M stays off for modules: it changes which elements join a module basis,
    and the relations kernel reads its output generators off module bases.
    Live pairs pop in the order (deg L, order key of L, i, j).
    """
    ring = G[0].ring
    G = list(G)
    reducers = _Reducers(G)
    budget = _Budget(step_budget())
    find_corner = not exact and isinstance(ring.order, NegDegRevLex)
    criterion_m = rank == 1 or not exact

    def tighten(corner):
        D = _corner([g.lead()[:2] for g in G], rank, ring.nvars)
        return D if D is not None and (corner is None or D < corner) else corner

    if find_corner:
        corner = tighten(corner)
    pairs = []    # heap of (deg lcm, order key of lcm, i, j), live or dead
    waiting = {}  # the live pairs: (i, j) -> (component, lcm)

    def update(k):
        """Gebauer-Moller: retire the waiting pairs that G[k] makes redundant
        (B), then enter the pairs (i, k) that the criteria keep (M, F)."""
        ck, mk, _ = G[k].lead()
        for ij, (c, L) in list(waiting.items()):
            if (c == ck and all(map(le, mk, L))
                    and mono_lcm(G[ij[0]].lead()[1], mk) != L
                    and mono_lcm(G[ij[1]].lead()[1], mk) != L):
                del waiting[ij]
        new = []
        for i in range(k):
            ci, mi, _ = G[i].lead()
            if ci == ck:
                L = mono_lcm(mi, mk)
                new.append((i, L, rank == 1 and L == mono_mul(mi, mk)))
        if criterion_m:
            lcms = {L for _, L, _ in new}
            new = [p for p in new
                   if not any(M != p[1] and all(map(le, M, p[1])) for M in lcms)]
        groups = {}
        for i, L, coprime in new:
            group = groups.setdefault(L, [i, False])
            group[1] |= coprime
        for L, (i, coprime) in groups.items():
            if not coprime:
                waiting[i, k] = (ck, L)
                # lowest-degree lcm first keeps local computations shallow; the
                # ordering key and the input indices make the choice deterministic
                heapq.heappush(pairs, (mono_deg(L), ring.mono_key(L), i, k))

    def below_lead(i):
        """How far the terms of G[i] fall below its lead degree; each
        component's first term has its least degree, as a corner is found
        only in the local degree ordering."""
        return mono_deg(G[i].lead()[1]) - min(mono_deg(p.terms[0][0])
                                              for p in G[i].components if p.terms)

    for k in range(1, len(G)):
        update(k)
    while pairs:
        d, _, i, j = heapq.heappop(pairs)
        if waiting.pop((i, j), None) is None:
            continue  # retired by criterion B
        if (corner is not None and d >= corner
                and d - max(below_lead(i), below_lead(j)) >= corner):
            continue  # the S-vector lies in m^corner O^k
        watching = corner is None and watch is not None and watch <= cap
        try:
            h = mora_normal_form(_spair(G[i], G[j]), reducers,
                                 cap=watch - 1 if watching else cap, budget=budget, corner=corner)
        except DegreeCapExceeded:
            if watching and budget.remaining >= 0:
                return None
            raise
        if h.is_zero:
            continue
        G.append(h.normalized())
        reducers.add(G[-1])
        update(len(G) - 1)
        if find_corner and sum(1 for e in h.lead()[1] if e) <= 1:
            corner = tighten(corner)

    # minimalize: drop generators whose lead term another one divides
    leads = [g.lead()[:2] for g in G]
    keep = [G[i] for i, (ci, mi) in enumerate(leads)
            if not any(cj == ci and all(map(le, mj, mi)) and (mj != mi or j < i)
                       for j, (cj, mj) in enumerate(leads) if j != i)]
    return StandardBasis(keep, rank, corner)


def ideal_basis(polys: list[Polynomial]) -> StandardBasis:
    return standard_basis([Vector.ideal(p) for p in polys])


def ideal_colength(polys: list[Polynomial]):
    """Colength of the ideal the polynomials generate; INFINITE for the zero ideal."""
    gens = [p for p in polys if not p.is_zero]
    return colength(ideal_basis(gens)) if gens else INFINITE


def staircase(leads: list[tuple], n: int):
    """Monomials in n variables outside the monomial ideal of leads, or
    INFINITE when some variable has no pure power among them."""
    bounds = []
    for i in range(n):
        pure = [m[i] for m in leads if all(m[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return INFINITE
        bounds.append(min(pure))
    return [mono for mono in itertools.product(*(range(b) for b in bounds))
            if not any(all(map(le, m, mono)) for m in leads)]


def colength(basis: StandardBasis):
    """Number of standard monomials outside the leading module, or INFINITE.

    Exact for local orderings: finite iff each component's leading ideal
    contains a pure power of every variable.
    """
    ring = basis.ring
    if not ring.order.is_local:
        raise ValueError("colength requires a local ordering")
    by_comp = [[] for _ in range(basis.rank)]
    for c, m in basis.leading_module():
        by_comp[c].append(m)
    total = 0
    for leads in by_comp:
        monos = staircase(leads, ring.nvars)
        if monos is INFINITE:
            return INFINITE
        total += len(monos)
    return total


# ---------------------------------------------------------------------------
# independent oracle: degree-truncated dense linear algebra

def _monomials_below(n: int, d: int):
    """All exponent vectors of total degree < d, in a fixed deterministic order."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], n, d - 1)
    return out


def _truncated_quotient_dim(gens: list[Polynomial], D: int) -> int:
    """dim of (polynomials of degree < D) / (degree-<D span of monomial*generator)."""
    ring = gens[0].ring
    n = ring.nvars
    monos = _monomials_below(n, D)
    index = {m: i for i, m in enumerate(monos)}
    field = ring.field
    rows = []
    for g in gens:
        if g.is_zero:
            continue
        gmin = min(mono_deg(m) for m, _ in g.terms)
        for m in _monomials_below(n, D - gmin):
            row = [field.zero] * len(monos)
            hit = False
            for gm, gc in g.terms:
                prod = mono_mul(m, gm)
                i = index.get(prod)
                if i is not None:
                    row[i] = field.add(row[i], gc)
                    hit = True
            if hit:
                rows.append(row)
    from .modops import matrix_rank  # modops imports this module
    return len(monos) - matrix_rank(rows, field)


def oracle_colength(gens: list[Polynomial], truncation: int | None = None):
    """Colength of an ideal by dense truncated Gaussian elimination.

    Independent of the standard-basis route.  Increases the truncation degree
    until two consecutive values agree (exact by Nakayama); at the cap,
    persistent growth reports INFINITE, anything else INCONCLUSIVE.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return INFINITE
    cap = truncation if truncation is not None else 16
    values = []
    for D in range(1, cap + 1):
        values.append(_truncated_quotient_dim(gens, D))
        if len(values) >= 2 and values[-1] == values[-2]:
            return values[-1]
    if len(values) >= 3 and values[-1] > values[-2] > values[-3]:
        return INFINITE
    return INCONCLUSIVE
