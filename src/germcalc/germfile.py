"""Line-oriented germfile front end.

Format:
    # comment
    ring <Q|Fp:p> <var> <var> ...
    X: <poly>, <poly>, ...
    f: <poly>    (vanishes at 0, nonzero; fewer X: equations than variables)
    options: weighted_homogeneous
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import Field, GermRing, ParseError, Polynomial
from .invariants import ICIS


class GermfileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Germfile:
    ring: GermRing
    X: ICIS
    f: Polynomial | None
    options: dict = field(default_factory=dict)
    name: str = ""


def parse_germfile(text: str, name: str = "") -> Germfile:
    ring = None
    phis: list[Polynomial] | None = None
    f = f_line = None
    options: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("ring "):
            if ring is not None:
                raise GermfileError("duplicate ring declaration", lineno)
            parts = line.split()
            if len(parts) < 3:
                raise GermfileError("ring needs a field and variables", lineno)
            if len(set(parts[2:])) != len(parts[2:]):
                raise GermfileError("duplicate variable names", lineno)
            try:
                field = parse_field(parts[1])
            except ValueError as e:
                raise GermfileError(str(e), lineno)
            ring = GermRing(tuple(parts[2:]), field)
        elif line.startswith("X:"):
            if ring is None:
                raise GermfileError("X before ring declaration", lineno)
            if phis is not None:
                raise GermfileError("duplicate X: line", lineno)
            phis = [_parse_poly(ring, chunk, lineno)
                    for chunk in line[2:].split(",")]
            if len(phis) > ring.nvars:
                raise GermfileError("more equations than variables", lineno)
            for i, phi in enumerate(phis, start=1):
                if phi.is_unit:
                    raise GermfileError(f"X: generator {i} is a unit (empty germ)", lineno)
        elif line.startswith("f:"):
            if ring is None:
                raise GermfileError("f before ring declaration", lineno)
            if f is not None:
                raise GermfileError("duplicate f: line", lineno)
            f, f_line = _parse_poly(ring, line[2:], lineno), lineno
            if f.is_zero or f.is_unit:
                raise GermfileError("f: must vanish at 0 and be nonzero", lineno)
        elif line.startswith("options:"):
            for chunk in line[len("options:"):].split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                if chunk != "weighted_homogeneous":
                    raise GermfileError(f"unknown option {chunk!r} (expected the "
                                        "bare flag weighted_homogeneous)", lineno)
                options[chunk] = True
        else:
            raise GermfileError(f"unrecognized line {line!r}", lineno)
    if ring is None:
        raise GermfileError("missing ring declaration", 0)
    if not phis:
        raise GermfileError("missing X: generators", 0)
    if f is not None and len(phis) >= ring.nvars:
        raise GermfileError("f: needs fewer X: equations than variables", f_line)
    return Germfile(ring=ring, X=ICIS(tuple(phis)), f=f, options=options,
                    name=name)


def load_germfile(path: str) -> Germfile:
    with open(path, encoding="utf-8") as fh:
        return parse_germfile(fh.read(), name=path)


def parse_field(tag: str) -> Field:
    """The field named Q or Fp:p; ValueError for any other tag."""
    if tag == "Q":
        return Field()
    if tag.startswith("Fp:") and tag[3:].isdecimal():
        return Field(int(tag[3:]))
    raise ValueError(f"unknown field {tag!r} (expected Q or Fp:p)")


def _parse_poly(ring: GermRing, text: str, lineno: int) -> Polynomial:
    try:
        return ring.parse(text.strip())
    except ParseError as e:
        raise GermfileError(str(e), lineno)
