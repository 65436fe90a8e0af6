"""Exact coefficient fields, monomials, orderings, sparse polynomials and the parser."""

from __future__ import annotations

from fractions import Fraction
from operator import add


def _is_prime(p: int) -> bool:
    """Miller-Rabin on the prime bases up to 37, which is exact for p < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * d with d odd
    d = (p - 1) >> s
    return all(x == 1 or p - 1 in (pow(x, 2 ** r, p) for r in range(s))
               for x in (pow(a, d, p) for a in bases))


class Field:
    """The rationals (p is None) or the prime field of p elements.

    A rational value is an `int` or a `Fraction` (in lowest terms with
    positive denominator); the two compare, hash and render alike.
    Prime-field values are ints in [0, p).
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and p >= 2 ** 64:
            raise ValueError(f"modulus must be below 2^64, got {p}")
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p
        self.zero, self.one = 0, 1

    @property
    def tag(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    def from_fraction(self, num: int, den: int = 1):
        if self.p is None:
            return Fraction(num, den)
        d = den % self.p
        if d == 0:
            raise ZeroDivisionError(f"denominator {den} not invertible mod {self.p}")
        return num * pow(d, -1, self.p) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("division by zero in Q")
            return Fraction(1) / a
        if a % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.tag})"


QQ = Field()

#: default prime for probabilistic stand-ins for Q
DEFAULT_PRIME = 32003


# ---------------------------------------------------------------------------
# monomials: plain tuples of non-negative exponents

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_div(a: tuple, b: tuple) -> tuple | None:
    """a / b, or None when b does not divide a."""
    q = []
    for x, y in zip(a, b):
        if x < y:
            return None
        q.append(x - y)
    return tuple(q)


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: tuple) -> int:
    return sum(a)


def sub_mul_into(d: dict, m: tuple, c, terms, p: int | None, limit: int | None = None):
    """d -= c*x^m*(the polynomial of terms), in place, over Q (p None) or
    F_p; a product of total degree >= limit is never inserted.  A
    coefficient that cancels leaves d, so d holds no zero."""
    get = d.get
    for t, tc in terms:
        t = tuple(map(add, t, m))
        if limit is not None and sum(t) >= limit:
            continue
        v = get(t, 0) - tc * c
        if p is not None:
            v %= p
        if v:
            d[t] = v
        else:
            d.pop(t, None)


# ---------------------------------------------------------------------------
# monomial orderings

class MonomialOrder:
    """Total multiplicative order, realized as a sort key (larger key = larger monomial)."""

    def key(self, m: tuple):
        raise NotImplementedError

    def compare(self, a: tuple, b: tuple) -> int:
        if len(a) != len(b):
            raise ValueError("monomial length mismatch")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    @property
    def is_local(self) -> bool:
        """True when every non-unit monomial is smaller than 1."""
        return False


class DegRevLex(MonomialOrder):
    """Global degree reverse lexicographic order; a well-order with 1 < x_i."""

    def key(self, m):
        return (sum(m), tuple(-e for e in reversed(m)))

    def __eq__(self, other):
        return type(other) is DegRevLex

    def __hash__(self):
        return hash("DegRevLex")

    def __repr__(self):
        return "DegRevLex()"


class NegDegRevLex(MonomialOrder):
    """Local order: negative degree first, then the degrevlex tie-break; 1 > x_i."""

    def key(self, m):
        return (-sum(m), tuple(-e for e in reversed(m)))

    @property
    def is_local(self):
        return True

    def __eq__(self, other):
        return type(other) is NegDegRevLex

    def __hash__(self):
        return hash("NegDegRevLex")

    def __repr__(self):
        return "NegDegRevLex()"


class BlockOrder(MonomialOrder):
    """Compare variable blocks left to right, each with its own sub-order."""

    def __init__(self, blocks: list[tuple[int, int, MonomialOrder]]):
        self.blocks = tuple(blocks)

    def key(self, m):
        return tuple(sub.key(m[lo:hi]) for lo, hi, sub in self.blocks)

    @property
    def is_local(self):
        return all(sub.is_local for _, _, sub in self.blocks)

    def __eq__(self, other):
        return type(other) is BlockOrder and self.blocks == other.blocks

    def __hash__(self):
        return hash(("BlockOrder", self.blocks))

    def __repr__(self):
        return f"BlockOrder({list(self.blocks)!r})"


# ---------------------------------------------------------------------------
# the ring and its elements

class _KeyCache(dict):
    """Order keys of monomials, each computed on its first lookup."""

    __slots__ = ("key",)

    def __init__(self, key):
        super().__init__()
        self.key = key

    def __missing__(self, m):
        k = self[m] = self.key(m)
        return k


class GermRing:
    """Polynomial representatives of germs: named variables, a field, an ordering.

    mono_key(m) is the order key of the monomial m, a lookup in a cache that
    sorts and max calls take as a C-level key.
    """

    __slots__ = ("names", "field", "order", "nvars", "mono_key")

    def __init__(self, names, field: Field = QQ, order: MonomialOrder | None = None):
        names = tuple(names)
        if len(names) < 1:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = names
        self.field = field
        self.order = order if order is not None else NegDegRevLex()
        self.nvars = len(names)
        self.mono_key = _KeyCache(self.order.key).__getitem__

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    @property
    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self._coerce(c)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, i: int) -> "Polynomial":
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, ((tuple(e), self.field.one),))

    def gens(self) -> list["Polynomial"]:
        return [self.var(i) for i in range(self.nvars)]

    def monomial(self, m: tuple, c=1) -> "Polynomial":
        c = self._coerce(c)
        if c == self.field.zero:
            return self.zero
        if len(m) != self.nvars or any(e < 0 for e in m):
            raise ValueError(f"bad exponent vector {m}")
        return Polynomial(self, ((tuple(m), c),))

    def _coerce(self, c):
        if isinstance(c, Fraction):
            return self.field.from_fraction(c.numerator, c.denominator)
        if isinstance(c, int):
            return self.field.from_fraction(c)
        raise TypeError(f"cannot coerce {c!r} into {self.field.tag}")

    def from_dict(self, d: dict) -> "Polynomial":
        """The polynomial of the nonzero terms of d (monomial -> coefficient)."""
        if self.field.zero in d.values():
            d = {m: c for m, c in d.items() if c}
        monos = sorted(d, key=self.mono_key, reverse=True)
        return Polynomial(self, tuple(zip(monos, map(d.__getitem__, monos))))

    def parse(self, text: str) -> "Polynomial":
        return _Parser(text, self).parse()

    def __eq__(self, other):
        return (isinstance(other, GermRing) and self.names == other.names
                and self.field == other.field and self.order == other.order)

    def __hash__(self):
        return hash((self.names, self.field, self.order))

    def __repr__(self):
        return f"GermRing({self.field.tag}; {', '.join(self.names)}; {self.order!r})"


class Polynomial:
    """Sparse polynomial with terms strictly decreasing under the ring ordering."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GermRing, terms: tuple):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lead(self) -> tuple:
        """(monomial, coefficient) of the largest term; error on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def max_degree(self) -> int:
        """Largest total degree of a term (-1 for zero)."""
        return max((mono_deg(m) for m, _ in self.terms), default=-1)

    def constant_coeff(self):
        z = (0,) * self.ring.nvars
        for m, c in self.terms:
            if m == z:
                return c
        return self.ring.field.zero

    @property
    def is_unit(self) -> bool:
        """Unit of the local ring: nonzero constant term."""
        return self.constant_coeff() != self.ring.field.zero

    def __add__(self, other):
        other = self._lift(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        F = self.ring.field
        d = dict(self.terms)
        for m, c in other.terms:
            c2 = F.add(d.get(m, F.zero), c)
            if c2 == F.zero:
                d.pop(m, None)
            else:
                d[m] = c2
        return self.ring.from_dict(d)

    def __sub__(self, other):
        return self.sub_mul_term((0,) * self.ring.nvars, self.ring.field.one,
                                 self._lift(other))

    def __neg__(self):
        F = self.ring.field
        return Polynomial(self.ring, tuple((m, F.neg(c)) for m, c in self.terms))

    def __mul__(self, other):
        other = self._lift(other)
        F = self.ring.field
        d = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                c = F.add(d.get(m, F.zero), F.mul(c1, c2))
                if c == F.zero:
                    d.pop(m, None)
                else:
                    d[m] = c
        return self.ring.from_dict(d)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._lift(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_term(self, m: tuple, c) -> "Polynomial":
        """Multiply by the single term c*x^m (c a field element)."""
        F = self.ring.field
        if not self.terms or c == F.zero:
            return self.ring.zero
        return Polynomial(self.ring,
                          tuple((mono_mul(t, m), F.mul(tc, c)) for t, tc in self.terms))

    def sub_mul_term(self, m: tuple, c, g: "Polynomial") -> "Polynomial":
        """self - c*x^m*g in one dict pass (c a field element)."""
        if not g.terms or c == 0:
            return self
        d = dict(self.terms)
        sub_mul_into(d, m, c, g.terms, self.ring.field.p)
        return self.ring.from_dict(d)

    def scale(self, c) -> "Polynomial":
        return self.mul_term((0,) * self.ring.nvars, c)

    def derivative(self, i: int) -> "Polynomial":
        F = self.ring.field
        d = {}
        for m, c in self.terms:
            if m[i] == 0:
                continue
            m2 = list(m)
            m2[i] -= 1
            d[tuple(m2)] = F.mul(c, F.from_fraction(m[i]))
        return self.ring.from_dict(d)

    def substitute(self, images: list["Polynomial"]) -> "Polynomial":
        """Evaluate at x_i -> images[i] (all in the same target ring)."""
        if len(images) != self.ring.nvars:
            raise ValueError("wrong number of substitution images")
        target = images[0].ring
        result = target.zero
        for m, c in self.terms:
            cc = c if target.field == self.ring.field else target._coerce(c)
            term = _const(target, cc)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    def map_to(self, target: GermRing, var_map: list[int]) -> "Polynomial":
        """Re-home into target, variable i going to target variable var_map[i]."""
        d = {}
        F = target.field
        for m, c in self.terms:
            e = [0] * target.nvars
            for i, exp in enumerate(m):
                e[var_map[i]] += exp
            d[tuple(e)] = F.add(d.get(tuple(e), F.zero), c)
        return target.from_dict(d)

    def _lift(self, other):
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.constant(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return f"<{render(self)}>"


# ---------------------------------------------------------------------------
# pretty printer (round-trips through the parser)

def _render_term(ring: GermRing, m: tuple, c, lead: bool) -> str:
    F = ring.field
    neg = False
    if F.p is None and c < 0:
        neg, c = True, -c
    parts = []
    for name, e in zip(ring.names, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    body = "*".join(parts)
    cstr = str(c)
    if not body:
        s = cstr
    elif c == F.one:
        s = body
    else:
        s = f"{cstr}*{body}"
    if lead:
        if neg:
            # a negative lead keeps its coefficient (-1*x), the stored text form
            return f"-{cstr}*{body}" if body else f"-{cstr}"
        return s
    return ("-" if neg else "+") + s


def render(p: Polynomial) -> str:
    """Canonical text form; parse(render(p)) == p."""
    if p.is_zero:
        return "0"
    out = [_render_term(p.ring, m, c, i == 0) for i, (m, c) in enumerate(p.terms)]
    return "".join(out)


# ---------------------------------------------------------------------------
# parser

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    """Recursive descent for: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := '-'* base ('^' nat)?; base := rational | ident | '(' expr ')'.
    A unary minus binds looser than '^': -x^2 is -(x^2)."""

    def __init__(self, text: str, ring: GermRing):
        self.text = text
        self.ring = ring
        self.pos = 0

    def parse(self) -> Polynomial:
        try:
            p = self.expr()
        except RecursionError:
            raise ParseError("nesting too deep", self.pos) from None
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return p

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self) -> Polynomial:
        p = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                p = p + self.term()
            elif ch == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        negate = False
        while self.peek() == "-":
            self.pos += 1
            negate = not negate
        p = self.base()
        if self.peek() == "^":
            self.pos += 1
            p = p ** self.nat()
        return -p if negate else p

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return p
        if ch.isdigit():
            return self.rational()
        if ch.isalpha() or ch == "_":
            return self.ident()
        raise ParseError(f"unexpected {ch!r}" if ch else "unexpected end of input", self.pos)

    def rational(self) -> Polynomial:
        start = self.pos
        num = self.nat()
        den = 1
        if self.peek() == "/":
            self.pos += 1
            if not self.peek().isdigit():
                raise ParseError("expected denominator", self.pos)
            den = self.nat()
            if den == 0:
                raise ParseError("zero denominator", start)
        try:
            c = self.ring.field.from_fraction(num, den)
        except ZeroDivisionError as e:
            raise ParseError(str(e), start)
        return _const(self.ring, c)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected number", start)
        return int(self.text[start:self.pos])

    def ident(self) -> Polynomial:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        name = self.text[start:self.pos]
        try:
            i = self.ring.names.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}", start)
        return self.ring.var(i)


def _const(ring: GermRing, c) -> Polynomial:
    if c == ring.field.zero:
        return ring.zero
    return Polynomial(ring, (((0,) * ring.nvars, c),))
