"""Span tracing installed from outside the program.

The tracer wraps the public functions of each germcalc module (and a few
methods) and keeps, per wrapped name, the call count, the self time (span
duration minus the time covered by wrapped children) and the inclusive time.
Nothing inside germcalc is changed on disk; the wrappers are installed into
every namespace that holds a reference to the original function, because
`from .stdbasis import standard_basis` in another module binds its own name.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

MODULES = ("ring", "germfile", "stdbasis", "modops", "invariants", "cli")

# The ring layer is wrapped only at the polynomial arithmetic that the
# coefficient work runs through; its monomial helpers are too hot to wrap.
RING_METHODS = {"__add__": "add", "__mul__": "mul", "mul_term": "mul_term"}

# Subquotient.colength is the subquotient colength the program calls; the
# free function of that name is an unused alias and stays unwrapped.
MODOPS_METHODS = {("Subquotient", "colength"): "subquotient_colength"}
UNWRAPPED = {("modops", "subquotient_colength")}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0
        self.extra = {}


class Tracer:
    """Counts and times calls through installed wrappers while enabled."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack = [[0.0]]
        self.enabled = False
        self.keys: dict[str, set] = {}

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        """A wrapper recording one span per call of fn under name.

        The hooks run outside the timed interval with the tracer disabled,
        and their cost is charged to no span.
        """
        tracer = self
        stat = self.stat(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            if before is not None:
                tracer.enabled = False
                before(args, kwargs)
                tracer.enabled = True
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                if on_error is not None:
                    on_error(exc)
                raise
            else:
                t1 = perf_counter()
                if after is not None:
                    tracer.enabled = False
                    after(result)
                    tracer.enabled = True
                return result
            finally:
                stack.pop()
                stat.active -= 1
                elapsed = t1 - t0
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stat.active == 0:
                    stat.total_s += elapsed
                stack[-1][0] += perf_counter() - start

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def count_distinct(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def module_self_s(self, module: str) -> float:
        prefix = module + "."
        return sum(s.self_s for n, s in self.stats.items()
                   if n.startswith(prefix))


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every germcalc module attribute that refers to original."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "germcalc"
                               or mod_name.startswith("germcalc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _replace_in_class(cls, original, wrapper) -> None:
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, wrapper)


def _normalized_key(ring, vectors):
    return (ring, tuple(v.normalized() for v in vectors if not v.is_zero))


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported germcalc package."""
    import germcalc.cli  # noqa: F401  (the CLI module must be bound too)
    from germcalc import ring
    from germcalc.stdbasis import DegreeCapExceeded, Vector

    hooks = {}

    def sb_before(args, kwargs):
        gens = args[0] if args else kwargs["gens"]
        gens = [g for g in gens if not g.is_zero]
        if gens:
            tracer.count_distinct("stdbasis.standard_basis",
                                  _normalized_key(gens[0].ring, gens))

    def sb_error(exc):
        if isinstance(exc, DegreeCapExceeded):
            extra = tracer.stat("stdbasis.standard_basis").extra
            extra["cap_hits"] = extra.get("cap_hits", 0) + 1

    def nf_after(result):
        if result.is_zero:
            extra = tracer.stat("stdbasis.mora_normal_form").extra
            extra["zeros"] = extra.get("zeros", 0) + 1

    def chain_before(args, kwargs):
        phis = list(args[0] if args else kwargs["phis"])
        rest = args[1:] + tuple(sorted(kwargs.items()))
        vecs = [Vector.ideal(p) for p in phis]
        tracer.count_distinct(
            "invariants.milnor_chain",
            (_normalized_key(phis[0].ring, vecs), rest))

    def rank_before(args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        extra = tracer.stat("modops.matrix_rank").extra
        cells = len(rows) * len(rows[0]) if rows else 0
        extra["cells"] = extra.get("cells", 0) + cells

    hooks["stdbasis.standard_basis"] = dict(before=sb_before, on_error=sb_error)
    hooks["stdbasis.mora_normal_form"] = dict(after=nf_after)
    hooks["invariants.milnor_chain"] = dict(before=chain_before)
    hooks["modops.matrix_rank"] = dict(before=rank_before)

    for attr, short in RING_METHODS.items():
        original = vars(ring.Polynomial)[attr]
        wrapper = tracer.wrap(f"ring.{short}", original)
        _replace_in_class(ring.Polynomial, original, wrapper)

    for short in MODULES:
        if short == "ring":
            continue
        mod = sys.modules[f"germcalc.{short}"]
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or value.__module__ != mod.__name__
                    or (short, attr) in UNWRAPPED):
                continue
            name = f"{short}.{attr}"
            _replace_everywhere(value, tracer.wrap(name, value,
                                                   **hooks.get(name, {})))

    modops = sys.modules["germcalc.modops"]
    for (cls_name, attr), short in MODOPS_METHODS.items():
        cls = getattr(modops, cls_name)
        original = vars(cls)[attr]
        _replace_in_class(cls, original,
                          tracer.wrap(f"modops.{short}", original))
