"""Singularity invariants of germs: Milnor and Tjurina numbers, tangent vector
field modules, the two Bruce-Roberts numbers by independent routes, Tor terms,
polar multiplicity, Euler obstruction, and the logarithmic characteristic
ideals."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

from .ring import (QQ, BlockOrder, DegRevLex, GermRing, NegDegRevLex,
                   Polynomial, render)
from .stdbasis import (INFINITE, DegreeCapExceeded, Vector, colength,
                       ideal_colength, oracle_colength, standard_basis)
from .modops import (InternalError, Subquotient, dedupe, dedupe_vectors,
                     determinant, ideal_product, intersect, jacobian_matrix,
                     koszul_tor, matrix_rank, maximal_minors, quotient_ideal,
                     syzygies)


class ChainDegenerate(RuntimeError):
    """Every attempted generator combination broke the Milnor-number chain."""


@dataclass(frozen=True)
class ICIS:
    """A complete-intersection germ presented by its defining map."""

    phi: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.phi:
            raise ValueError("need at least one defining equation")
        if len(self.phi) > self.ring.nvars:
            raise ValueError("more equations than variables")

    @property
    def ring(self) -> GermRing:
        return self.phi[0].ring

    @property
    def n(self) -> int:
        return self.ring.nvars

    @property
    def k(self) -> int:
        return len(self.phi)


def jacobian_ideal(f: Polynomial) -> list[Polynomial]:
    return [f.derivative(i) for i in range(f.ring.nvars)
            if not f.derivative(i).is_zero]


def milnor_number(f: Polynomial):
    """Colength of the Jacobian ideal; INFINITE for a non-isolated critical point."""
    return ideal_colength(jacobian_ideal(f))


def _chain_step_colength(gens: list[Polynomial]):
    """Colength via standard basis, deferring to the truncated-elimination
    oracle when the reduction degrees blow past the safety cap; a stabilized
    oracle value is exact."""
    try:
        return ideal_colength(gens)
    except DegreeCapExceeded:
        val = oracle_colength(gens)
        if isinstance(val, int):
            return val
        raise


def _chain_colengths(phis: list[Polynomial]):
    """The ladder of colengths behind the iterated Milnor-number formula:
    step i is colength(<phi_1..phi_{i-1}> + i-minors of d(phi_1..phi_i))."""
    out = []
    for i in range(1, len(phis) + 1):
        head = phis[:i]
        minors = maximal_minors(jacobian_matrix(head), i)
        out.append(_chain_step_colength(list(phis[: i - 1]) + minors))
        if out[-1] is INFINITE:
            return out
    return out


def _random_mix(phis: list[Polynomial], rng: random.Random) -> list[Polynomial]:
    """Invertible constant-coefficient recombination of the generators."""
    k = len(phis)
    ring = phis[0].ring
    while True:
        A = [[QQ.from_fraction(rng.randint(-3, 3)) for _ in range(k)]
             for _ in range(k)]
        if matrix_rank(A, QQ) == k:
            break
    return [sum((ring.constant(A[i][j]) * phis[j] for j in range(k)), ring.zero)
            for i in range(k)]


def milnor_chain(phis: list[Polynomial]):
    """Milnor number of a complete intersection by the iterated chain,
    retrying with nine seeded random generator recombinations when a truncated
    chain degenerates."""
    rng = random.Random(0)
    candidates = [list(phis)]
    candidates += [_random_mix(list(phis), rng) for _ in range(9)]
    for cand in candidates:
        try:
            chain = _chain_colengths(cand)
        except DegreeCapExceeded:
            # a different recombination usually tames the reduction degrees
            continue
        if all(c is not INFINITE for c in chain):
            mu = 0
            for c in chain:
                mu = c - mu
            return mu
    raise ChainDegenerate(
        "no generator combination produced a nondegenerate chain")


def milnor_icis(X: ICIS):
    """Milnor number of the ICIS (0-dimensional convention: colength - 1)."""
    return milnor_chain(list(X.phi))


def is_icis(X: ICIS):
    """Finiteness certificate: the singular locus colength and the full chain."""
    return Germ(X).icis


def _tangent_columns(X: ICIS) -> tuple[list[Vector], list[Vector]]:
    """The n columns of dphi in O^k, and the generators phi_i e_j of I_X O^k
    for i, then j."""
    zero, k = X.ring.zero, X.k
    dphi = [Vector([phi.derivative(t) for phi in X.phi]) for t in range(X.n)]
    return dphi, [Vector([phi if t == j else zero for t in range(k)])
                  for phi in X.phi for j in range(k)]


def tjurina(X: ICIS):
    """Colength of O^k by (Im dphi + I_X O^k)."""
    jacobian, ideal = _tangent_columns(X)
    return colength(standard_basis(dedupe_vectors(jacobian + ideal)))


# ---------------------------------------------------------------------------
# tangent vector fields

def theta_x(X: ICIS) -> list[Vector]:
    """Generators of the vector fields preserving the ideal of X: the xi with
    dphi(xi) in I_X O^k."""
    return syzygies(*_tangent_columns(X))


def _cofactor_fields(X: ICIS) -> list[Vector]:
    """One field per (k+1)-subset of the coordinates, in lexicographic order:
    the signed first-row cofactors of the (k+1)-minor of dphi with a
    symbolic first row on those columns."""
    zero, n, k = X.ring.zero, X.n, X.k
    dphi = jacobian_matrix(list(X.phi))
    out = []
    for csub in itertools.combinations(range(n), k + 1):
        comps = [zero] * n
        for a, col in enumerate(csub):
            minor = determinant([[row[j] for j in csub if j != col] for row in dphi])
            comps[col] = minor if a % 2 == 0 else -minor
        out.append(Vector(comps))
    return out


def theta_x_trivial(X: ICIS) -> list[Vector]:
    """The cofactor fields together with the phi_i-multiples of the
    coordinate fields."""
    zero, n = X.ring.zero, X.n
    multiples = [Vector([phi if t == j else zero for t in range(n)])
                 for phi in X.phi for j in range(n)]
    return dedupe_vectors(_cofactor_fields(X) + multiples)


def df_image(f: Polynomial, theta: list[Vector]) -> list[Polynomial]:
    """The ideal generated by the evaluations df(xi) over the given fields."""
    ring = f.ring
    grads = [f.derivative(i) for i in range(ring.nvars)]
    out = []
    for xi in theta:
        acc = ring.zero
        for g, comp in zip(grads, xi.components):
            acc = acc + g * comp
        out.append(acc)
    return dedupe(out)


# ---------------------------------------------------------------------------
# Bruce-Roberts numbers

def relative_jacobian_ideal(f: Polynomial, X: ICIS) -> list[Polynomial]:
    """Maximal minors of the Jacobian matrix of (f, phi)."""
    return maximal_minors(jacobian_matrix([f] + list(X.phi)), X.k + 1)


def br_minus_formula(f: Polynomial, X: ICIS):
    """colength(J(f,phi) + I_X) - tau; INFINITE when f is not finite on X."""
    return Germ(X, f).br_minus_formula


def section_milnor(f: Polynomial, X: ICIS):
    """Milnor number of the slice of X by f."""
    return milnor_chain(list(X.phi) + [f])


def tor1_dimension(I: list[Polynomial], J: list[Polynomial]):
    """dim (I cap J)/(I J) by the subquotient route; cross-checked against the
    Koszul homology route whenever J has finite colength."""
    inter = intersect(I, J)
    prod = ideal_product(I, J)
    if not inter:
        return 0
    sub = Subquotient.of_ideals(inter, prod, check=False).colength()
    if ideal_colength(J) is not INFINITE:
        kos = koszul_tor(I, J)[1]
        if kos != sub:
            raise InternalError(
                f"Tor1 routes disagree: subquotient {sub}, Koszul {kos}")
    return sub


class Germ:
    """One ICIS X, and optionally a function germ f on it, as a session.

    Each invariant is computed on first use and kept, so a term shared by
    several formulas (mu(X), tau(X), Theta_X, ...) is computed once however
    many formulas and identities read it.  The invariants of f need f."""

    def __init__(self, X: ICIS, f: Polynomial | None = None):
        self.X = X
        self.f = f

    @cached_property
    def icis(self) -> tuple[bool, dict]:
        """Finiteness certificate: the singular locus colength and the full
        chain."""
        phi = list(self.X.phi)
        minors = maximal_minors(jacobian_matrix(phi), self.X.k)
        certificate = {"singular_colength": ideal_colength(phi + minors)}
        if certificate["singular_colength"] is INFINITE:
            return False, certificate
        try:
            certificate["milnor"] = self.mu_X
        except ChainDegenerate:
            certificate["chain"] = "degenerate"
        return "milnor" in certificate, certificate

    @cached_property
    def mu_X(self):
        return milnor_icis(self.X)

    @cached_property
    def tau_X(self):
        return tjurina(self.X)

    @cached_property
    def theta(self) -> list[Vector]:
        return theta_x(self.X)

    @cached_property
    def theta_trivial(self) -> list[Vector]:
        return theta_x_trivial(self.X)

    @cached_property
    def jf(self) -> list[Polynomial]:
        return jacobian_ideal(self.f)

    @cached_property
    def mu_f(self):
        return ideal_colength(self.jf)

    @cached_property
    def mu_section(self):
        return section_milnor(self.f, self.X)

    @cached_property
    def mixed(self):
        """colength(Jf + I_X)."""
        return ideal_colength(self.jf + list(self.X.phi))

    @cached_property
    def tor1(self):
        """dim Tor_1(O/I_X, O/Jf)."""
        return tor1_dimension(list(self.X.phi), self.jf)

    @cached_property
    def br_minus_direct(self):
        """colength(df(Theta_X) + I_X)."""
        return ideal_colength(df_image(self.f, self.theta) + list(self.X.phi))

    @cached_property
    def br_minus_formula(self):
        """colength(J(f,phi) + I_X) - tau; INFINITE when f is not finite on X."""
        c = ideal_colength(relative_jacobian_ideal(self.f, self.X)
                           + list(self.X.phi))
        return INFINITE if c is INFINITE else c - self.tau_X

    @cached_property
    def br_direct(self):
        """colength(df(Theta_X))."""
        return ideal_colength(df_image(self.f, self.theta))

    @cached_property
    def br_tor(self):
        """The Bruce-Roberts number assembled from Milnor data and the Tor
        term."""
        parts = (self.mu_f, self.mu_section, self.mu_X, self.tau_X,
                 self.mixed, self.tor1)
        if any(v is INFINITE for v in parts):
            return INFINITE
        mu_f, mu_sect, mu, tau, mixed, tor1 = parts
        return mu_f + mu_sect + mu - tau - mixed + tor1

    @cached_property
    def br_codim2(self):
        """Codimension-2 closed formula."""
        if self.X.k != 2:
            raise ValueError("closed formula requires codimension 2")
        parts = (self.mu_f, self.mu_section, self.mu_X, self.tau_X,
                 self.mixed)
        if any(v is INFINITE for v in parts):
            return INFINITE
        mu_f, mu_sect, mu, tau, mixed = parts
        return mu_f + mu_sect + mu - tau + mixed

    @cached_property
    def relative_identity(self) -> dict:
        """Slice Milnor number against relative Bruce-Roberts minus Milnor plus
        Tjurina, both sides computed independently."""
        lhs, brm = self.mu_section, self.br_minus_direct
        mu, tau = self.mu_X, self.tau_X
        rhs = None
        if all(v is not INFINITE for v in (brm, mu, tau)):
            rhs = brm - mu + tau
        return {"lhs": lhs, "rhs": rhs, "brMinus": brm, "muX": mu, "tauX": tau,
                "pass": lhs == rhs}

    @cached_property
    def generic_linear(self) -> tuple[int, Polynomial]:
        """(m, p): of ten seeded random linear forms p, the one with the least
        finite m = colength(J(p,phi) + I_X).  That m is the polar multiplicity,
        muBR^-(p, X) + tau(X)."""
        rng = random.Random(0)
        ring = self.X.ring
        best = None
        for _ in range(10):
            coeffs = [rng.randint(-5, 5) for _ in range(ring.nvars)]
            if all(c == 0 for c in coeffs):
                continue
            p = sum((ring.constant(c) * ring.var(i) for i, c in enumerate(coeffs)),
                    ring.zero)
            m = ideal_colength(relative_jacobian_ideal(p, self.X)
                               + list(self.X.phi))
            if m is not INFINITE and (best is None or m < best[0]):
                best = (m, p)
        if best is None:
            raise ChainDegenerate("no finite linear projection found")
        return best

    def tau_via_theta_quotient(self):
        """Tjurina number as the colength of Theta_X over its trivial part, and
        of the corresponding image ideals under df (under the generic linear
        form when there is no f)."""
        first = Subquotient(self.theta, self.theta_trivial).colength()
        f = self.f if self.f is not None else self.generic_linear[1]
        phi = list(self.X.phi)
        num = df_image(f, self.theta) + phi
        den = df_image(f, self.theta_trivial) + phi
        return first, Subquotient.of_ideals(num, den).colength()

    def polar_and_euler(self):
        """Polar multiplicity of the generic linear projection and the local
        Euler obstruction recovered from it."""
        m = self.generic_linear[0]
        return m, m - self.mu_X + (-1) ** (self.X.n - self.X.k - 1)


# ---------------------------------------------------------------------------
# logarithmic characteristic ideals

@dataclass
class LCBundle:
    ring2n: GermRing
    lc: list[Polynomial]
    lc_minus: list[Polynomial]
    lc_trivial: list[Polynomial]


def _cotangent_ring(ring: GermRing) -> GermRing:
    """Adjoin global fiber variables p1..pn above the local base block."""
    n = ring.nvars
    names = ring.names + tuple(f"p{i + 1}" for i in range(n))
    order = BlockOrder([(n, 2 * n, DegRevLex()), (0, n, NegDegRevLex())])
    return GermRing(names, ring.field, order)


def lc_ideals(X: ICIS) -> LCBundle:
    """The ideals of the logarithmic characteristic variety, its relative
    version (colon by the fiber ideal), and the trivial-fields version."""
    n = X.n
    ext = _cotangent_ring(X.ring)
    var_map = list(range(n))
    pvars = [ext.var(n + i) for i in range(n)]

    def symbol(xi: Vector) -> Polynomial:
        """sigma(xi) = sum_j xi_j p_j in the doubled ring."""
        return sum((c.map_to(ext, var_map) * p
                    for c, p in zip(xi.components, pvars)), ext.zero)

    lc = dedupe([symbol(xi) for xi in theta_x(X)])
    lc_minus = quotient_ideal(lc, pvars)
    lc_trivial = dedupe([p.map_to(ext, var_map) for p in X.phi]
                        + [symbol(xi) for xi in _cofactor_fields(X)])
    return LCBundle(ext, lc, lc_minus, lc_trivial)


# ---------------------------------------------------------------------------
# randomized conjecture scanner

def _random_poly(ring: GermRing, maxdeg: int, rng: random.Random) -> Polynomial:
    """Dense random polynomial with zero constant term; the linear part is
    dropped half of the time so the trials reach nontrivial colengths."""
    F = ring.field
    d = {}
    mindeg = 1 if maxdeg == 1 or rng.random() < 0.5 else 2
    for deg in range(mindeg, maxdeg + 1):
        for mono in itertools.combinations_with_replacement(range(ring.nvars), deg):
            e = [0] * ring.nvars
            for i in mono:
                e[i] += 1
            if F.p is not None:
                c = rng.randrange(F.p)
            else:
                c = rng.randint(-9, 9)
            if c:
                d[tuple(e)] = F.from_fraction(c)
    return ring.from_dict(d)


def _is_regular_sequence(gens: list[Polynomial], rng: random.Random) -> bool:
    """Dimension check: k generators cut the expected codimension exactly when
    some generic linear slice of complementary dimension is finite."""
    ring = gens[0].ring
    n, k = ring.nvars, len(gens)
    if k == n:
        return ideal_colength(gens) is not INFINITE
    for _ in range(3):
        linears = []
        for _ in range(n - k):
            coeffs = [rng.randint(1, 7) * (1 if rng.random() < 0.5 else -1)
                      for _ in range(n)]
            linears.append(sum((ring.constant(c) * ring.var(i)
                                for i, c in enumerate(coeffs)), ring.zero))
        if ideal_colength(gens + linears) is not INFINITE:
            return True
    return False


def conjecture_scan(n: int, k: int, trials: int, maxdeg: int, seed: int,
                    field=None) -> dict:
    """Random Tor-length trials against the binomial prediction."""
    from .ring import Field, DEFAULT_PRIME
    from math import comb
    if k > n:
        raise ValueError("need k <= n")
    if field is None:
        field = Field(DEFAULT_PRIME)
    ring = GermRing(tuple(f"x{i + 1}" for i in range(n)), field)
    rng = random.Random(seed)
    rows = []
    for trial in range(trials):
        I = J = None
        for _ in range(50):
            cand = [_random_poly(ring, maxdeg, rng) for _ in range(k)]
            if all(not p.is_zero for p in cand) and _is_regular_sequence(cand, rng):
                I = cand
                break
        for _ in range(50):
            cand = [_random_poly(ring, maxdeg, rng) for _ in range(n)]
            if all(not p.is_zero for p in cand) and ideal_colength(cand) is not INFINITE:
                J = cand
                break
        if I is None or J is None:
            rows.append({"trial": trial, "status": "degenerate"})
            continue
        tors = koszul_tor(I, J)
        c = ideal_colength(I + J)
        predicted = [comb(k, i) * c for i in range(k + 1)]
        euler = sum((-1) ** i * t for i, t in enumerate(tors))
        rows.append({
            "trial": trial,
            "I": [render(p) for p in I],
            "J": [render(p) for p in J],
            "tor": tors,
            "colength_sum": c,
            "predicted": predicted,
            "euler_zero": euler == 0,
            "match": tors == predicted,
        })
    done = [r for r in rows if "tor" in r]
    return {
        "n": n, "k": k, "trials": trials, "maxdeg": maxdeg, "seed": seed,
        "field": field.tag,
        "rows": rows,
        "matches": sum(r["match"] for r in done),
        "completed": len(done),
        "euler_all_zero": all(r["euler_zero"] for r in done),
    }


# ---------------------------------------------------------------------------
# coordinate changes (used by the invariance suites)

def random_linear_images(ring: GermRing, rng: random.Random) -> list[Polynomial]:
    """Images of the variables under a random invertible linear substitution.

    Sampled as a product of shears, sign flips, and a permutation, which is
    always unimodular and keeps the transformed generators from densifying
    beyond what exact arithmetic handles comfortably."""
    n = ring.nvars
    A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n + rng.randrange(2)):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            A[i][k] += c * A[j][k]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    A = [[signs[i] * A[perm[i]][k] for k in range(n)] for i in range(n)]
    return [sum((ring.constant(A[i][j]) * ring.var(j) for j in range(n)),
                ring.zero) for i in range(n)]
