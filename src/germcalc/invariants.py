"""Singularity invariants of germs: Milnor and Tjurina numbers, tangent vector
field modules, the two Bruce-Roberts numbers by independent routes, Tor terms,
polar multiplicity, Euler obstruction, and the logarithmic characteristic
ideals."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .ring import (QQ, BlockOrder, DegRevLex, GermRing, NegDegRevLex,
                   Polynomial, render)
from .stdbasis import (INFINITE, DegreeCapExceeded, Vector, colength,
                       ideal_colength, oracle_colength, standard_basis)
from .modops import (InternalError, PolyMatrix, Subquotient, dedupe,
                     dedupe_vectors, ideal_product, intersect, jacobian_matrix,
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


def milnor_chain(phis: list[Polynomial], seed: int = 0, attempts: int = 10):
    """Milnor number of a complete intersection by the iterated chain,
    retrying with seeded random generator recombinations when a truncated
    chain degenerates."""
    rng = random.Random(seed)
    candidates = [list(phis)]
    candidates += [_random_mix(list(phis), rng) for _ in range(attempts - 1)]
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


def milnor_icis(X: ICIS, seed: int = 0):
    """Milnor number of the ICIS (0-dimensional convention: colength - 1)."""
    return milnor_chain(list(X.phi), seed=seed)


def is_icis(X: ICIS):
    """Finiteness certificate: the singular locus colength and the full chain."""
    minors = maximal_minors(jacobian_matrix(list(X.phi)), X.k)
    sing = ideal_colength(list(X.phi) + minors)
    certificate = {"singular_colength": sing}
    if sing is INFINITE:
        return False, certificate
    try:
        mu = milnor_icis(X)
    except ChainDegenerate:
        certificate["chain"] = "degenerate"
        return False, certificate
    certificate["milnor"] = mu
    return True, certificate


def tjurina_generators(X: ICIS) -> list[Vector]:
    """Columns of the Jacobian of phi together with phi_i times the unit
    vectors, inside O^k."""
    ring = X.ring
    k = X.k
    dphi = jacobian_matrix(list(X.phi))
    gens = [dphi.column(j) for j in range(X.n)]
    for i in range(k):
        for j in range(k):
            gens.append(Vector(tuple(X.phi[i] if t == j else ring.zero
                                     for t in range(k))))
    return dedupe_vectors(gens)


def tjurina(X: ICIS):
    """Colength of O^k by (Im dphi + I_X O^k)."""
    return colength(standard_basis(tjurina_generators(X)))


# ---------------------------------------------------------------------------
# tangent vector fields

def theta_x(X: ICIS) -> list[Vector]:
    """Generators of the vector fields preserving the ideal of X, as the
    projection of the syzygies of [dphi | phi_i e_j]."""
    ring = X.ring
    n, k = X.n, X.k
    dphi = jacobian_matrix(list(X.phi))
    cols: list[list[Polynomial]] = [[dphi.entry(i, j) for i in range(k)]
                                    for j in range(n)]
    for i in range(k):
        for j in range(k):
            cols.append([X.phi[i] if t == j else ring.zero for t in range(k)])
    M = PolyMatrix([[cols[j][i] for j in range(len(cols))] for i in range(k)])
    rels = syzygies(M)
    out = [Vector(v.components[:n]) for v in rels]
    return dedupe_vectors([v for v in out if not v.is_zero])


def theta_x_trivial(X: ICIS) -> list[Vector]:
    """The cofactor fields of the (k+1)-minors with a symbolic first row,
    together with the phi_i-multiples of the coordinate fields."""
    ring = X.ring
    n, k = X.n, X.k
    dphi = jacobian_matrix(list(X.phi))
    out = []
    if k + 1 <= n:
        from .modops import determinant
        for csub in itertools.combinations(range(n), k + 1):
            comps = [ring.zero] * n
            for a, col in enumerate(csub):
                rest = [c for c in csub if c != col]
                minor = determinant([[dphi.entry(i, j) for j in rest]
                                     for i in range(k)])
                comps[col] = minor if a % 2 == 0 else -minor
            out.append(Vector(comps))
    for i in range(k):
        for j in range(n):
            out.append(Vector(tuple(X.phi[i] if t == j else ring.zero
                                    for t in range(n))))
    return dedupe_vectors(out)


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


def br_minus_direct(f: Polynomial, X: ICIS, theta: list[Vector] | None = None):
    """colength(df(Theta_X) + I_X)."""
    if theta is None:
        theta = theta_x(X)
    return ideal_colength(df_image(f, theta) + list(X.phi))


def br_minus_formula(f: Polynomial, X: ICIS):
    """colength(J(f,phi) + I_X) - tau; INFINITE when f is not finite on X."""
    c = ideal_colength(relative_jacobian_ideal(f, X) + list(X.phi))
    if c is INFINITE:
        return INFINITE
    return c - tjurina(X)


def section_milnor(f: Polynomial, X: ICIS, seed: int = 0):
    """Milnor number of the slice of X by f."""
    return milnor_chain(list(X.phi) + [f], seed=seed)


def verify_relative_identity(f: Polynomial, X: ICIS) -> dict:
    """Slice Milnor number against relative Bruce-Roberts minus Milnor plus
    Tjurina, both sides computed independently."""
    lhs = section_milnor(f, X)
    brm = br_minus_direct(f, X)
    mu = milnor_icis(X)
    tau = tjurina(X)
    rhs = None
    if all(v is not INFINITE for v in (brm, mu, tau)):
        rhs = brm - mu + tau
    return {"lhs": lhs, "rhs": rhs, "brMinus": brm, "muX": mu, "tauX": tau,
            "pass": lhs == rhs}


def br_direct(f: Polynomial, X: ICIS, theta: list[Vector] | None = None):
    """colength(df(Theta_X))."""
    if theta is None:
        theta = theta_x(X)
    return ideal_colength(df_image(f, theta))


def tor1_dimension(I: list[Polynomial], J: list[Polynomial],
                   koszul_check: bool = True):
    """dim (I cap J)/(I J) by the subquotient route; cross-checked against the
    Koszul homology route whenever J has finite colength."""
    inter = intersect(I, J)
    prod = ideal_product(I, J)
    if not inter:
        return 0
    sub = Subquotient.of_ideals(inter, prod, check=False).colength()
    if koszul_check and ideal_colength(J) is not INFINITE:
        kos = koszul_tor(I, J)[1]
        if kos != sub:
            raise InternalError(
                f"Tor1 routes disagree: subquotient {sub}, Koszul {kos}")
    return sub


def br_tor_formula(f: Polynomial, X: ICIS):
    """The Bruce-Roberts number assembled from Milnor data and the Tor term."""
    mu_f = milnor_number(f)
    Jf = jacobian_ideal(f)
    mu_sect = section_milnor(f, X)
    mu = milnor_icis(X)
    tau = tjurina(X)
    mixed = ideal_colength(Jf + list(X.phi))
    tor1 = tor1_dimension(list(X.phi), Jf)
    parts = (mu_f, mu_sect, mu, tau, mixed, tor1)
    if any(v is INFINITE for v in parts):
        return INFINITE
    return mu_f + mu_sect + mu - tau - mixed + tor1


def br_codim2_formula(f: Polynomial, X: ICIS):
    """Codimension-2 closed formula."""
    if X.k != 2:
        raise ValueError("closed formula requires codimension 2")
    mu_f = milnor_number(f)
    mu_sect = section_milnor(f, X)
    mu = milnor_icis(X)
    tau = tjurina(X)
    mixed = ideal_colength(jacobian_ideal(f) + list(X.phi))
    parts = (mu_f, mu_sect, mu, tau, mixed)
    if any(v is INFINITE for v in parts):
        return INFINITE
    return mu_f + mu_sect + mu - tau + mixed


def tau_via_theta_quotient(X: ICIS, f: Polynomial | None = None, seed: int = 0):
    """Tjurina number as the colength of Theta_X over its trivial part, and of
    the corresponding image ideals under df."""
    theta = theta_x(X)
    trivial = theta_x_trivial(X)
    first = Subquotient(X.n, theta, trivial).colength()
    if f is None:
        f = generic_linear(X, seed=seed)
    num = df_image(f, theta) + list(X.phi)
    den = df_image(f, trivial) + list(X.phi)
    second = Subquotient.of_ideals(num, den).colength()
    return first, second


def generic_linear(X: ICIS, seed: int = 0, draws: int = 10) -> Polynomial:
    """Seeded random linear form with finite relative Bruce-Roberts number,
    minimal over the draws."""
    rng = random.Random(seed)
    ring = X.ring
    best = None
    for _ in range(draws):
        coeffs = [rng.randint(-5, 5) for _ in range(ring.nvars)]
        if all(c == 0 for c in coeffs):
            continue
        p = sum((ring.constant(c) * ring.var(i) for i, c in enumerate(coeffs)),
                ring.zero)
        val = br_minus_formula(p, X)
        if val is INFINITE:
            continue
        if best is None or val < best[0]:
            best = (val, p)
    if best is None:
        raise ChainDegenerate("no finite linear projection found")
    return best[1]


def polar_and_euler(X: ICIS, seed: int = 0):
    """Polar multiplicity of the generic linear projection and the local Euler
    obstruction recovered from it."""
    p = generic_linear(X, seed=seed)
    brm = br_minus_formula(p, X)
    tau = tjurina(X)
    mu = milnor_icis(X)
    m = brm + tau
    eu = brm + tau - mu + (-1) ** (X.n - X.k - 1)
    return m, eu


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
    ring = X.ring
    n, k = X.n, X.k
    ext = _cotangent_ring(ring)
    var_map = list(range(n))
    pvars = [ext.var(n + i) for i in range(n)]

    theta = theta_x(X)
    lc = []
    for xi in theta:
        acc = ext.zero
        for j in range(n):
            acc = acc + xi.components[j].map_to(ext, var_map) * pvars[j]
        if not acc.is_zero:
            lc.append(acc)
    lc = dedupe(lc)
    lc_minus = quotient_ideal(lc, pvars)

    phis_ext = [p.map_to(ext, var_map) for p in X.phi]
    dphi = jacobian_matrix(list(X.phi))
    symbol_rows = [pvars]
    for i in range(k):
        symbol_rows.append([dphi.entry(i, j).map_to(ext, var_map)
                            for j in range(n)])
    lc_trivial = list(phis_ext)
    if k + 1 <= n:
        lc_trivial += maximal_minors(PolyMatrix(symbol_rows), k + 1)
    return LCBundle(ext, lc, lc_minus, dedupe(lc_trivial))


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


def _is_regular_sequence(gens: list[Polynomial], rng: random.Random,
                         attempts: int = 3) -> bool:
    """Dimension check: k generators cut the expected codimension exactly when
    some generic linear slice of complementary dimension is finite."""
    ring = gens[0].ring
    n, k = ring.nvars, len(gens)
    if k == n:
        return ideal_colength(gens) is not INFINITE
    for _ in range(attempts):
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
