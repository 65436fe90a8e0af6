"""Milnor, Tjurina, and Bruce-Roberts numbers: route agreement, vector field
modules, characteristic ideals, and the randomized scanner."""

import functools
import glob
import os
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from germcalc import (ICIS, INFINITE, ChainDegenerate, Field, Germ, GermRing, Vector,
                      br_minus_formula, colength, conjecture_scan, df_image,
                      ideal_basis, is_icis, jacobian_ideal, lc_ideals,
                      milnor_chain, milnor_icis, milnor_number,
                      render, section_milnor, standard_basis, theta_x,
                      theta_x_trivial, tjurina, tor1_dimension)
import germcalc.invariants
import germcalc.stdbasis
from germcalc.germfile import load_germfile, parse_germfile
from germcalc.invariants import random_linear_images
from germcalc.modops import jacobian_matrix

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.germ")))


@pytest.fixture
def fourlines(R3):
    return ICIS((R3.parse("x^2+y^2+z^2"), R3.parse("x*y")))


# ---------------------------------------------------------------------------
# Milnor numbers

def test_milnor_hypersurfaces(R2):
    assert milnor_number(R2.parse("x^2+y^2")) == 1
    assert milnor_number(R2.parse("x^3+y^3")) == 4
    assert milnor_number(R2.parse("x^3+x*y^3")) == 7
    assert milnor_number(R2.parse("x^2*y")) is INFINITE


def test_milnor_icis_chain(fourlines, R3):
    assert milnor_icis(fourlines) == 5
    # 0-dimensional convention: colength minus one
    R2 = GermRing(("x", "y"))
    zero_dim = ICIS((R2.parse("x^2+y^2"), R2.parse("x*y")))
    assert milnor_icis(zero_dim) == 3


def test_chain_step_falls_back_to_the_oracle(monkeypatch):
    # under a degree cap of 3 one chain step of the twin cusps cannot finish
    # its standard basis; the stabilized oracle value stands in, exactly
    monkeypatch.setenv("GERMCALC_DEGREE_CAP", "3")
    original = germcalc.invariants.oracle_colength
    calls = []

    def counted(gens, *args, **kwargs):
        calls.append(gens)
        return original(gens, *args, **kwargs)

    monkeypatch.setattr(germcalc.invariants, "oracle_colength", counted)
    twin = next(p for p in CORPUS if p.endswith("twin_cusps.germ"))
    assert milnor_icis(load_germfile(twin).X) == 9
    assert len(calls) == 1


def test_is_icis(fourlines, R3):
    ok, cert = is_icis(fourlines)
    assert ok and cert["milnor"] == 5
    bad = ICIS((R3.parse("x*y"), R3.parse("x*z")))
    ok, cert = is_icis(bad)
    assert not ok
    assert cert["singular_colength"] is INFINITE


# ---------------------------------------------------------------------------
# Tjurina

def test_tjurina(fourlines, R2):
    assert tjurina(fourlines) == 5
    assert tjurina(ICIS((R2.parse("x^3+y^2"),))) == 2
    # weighted homogeneous: tau = mu
    assert tjurina(ICIS((R2.parse("x^3+x*y^3"),))) == 7


def test_tjurina_below_milnor_when_not_homogeneous(R2):
    X = ICIS((R2.parse("x^5+y^5+x^2*y^2"),))
    assert milnor_icis(X) == 11
    assert tjurina(X) == 10


def coordinate_change(gf, seed):
    """X and f under the first random_linear_images draw of random.Random(seed)."""
    images = random_linear_images(gf.ring, random.Random(seed))
    X = ICIS(tuple(p.substitute(images) for p in gf.X.phi))
    return X, None if gf.f is None else gf.f.substitute(images)


def test_tjurina_of_moved_nonwh_space():
    # without a corner the module basis of this coordinate change reached the
    # degree cap
    X, _ = coordinate_change(load_germfile(os.path.join(CORPUS_DIR, "nonwh_space.germ")), 0)
    assert tjurina(X) == 9


# ---------------------------------------------------------------------------
# vector fields tangent to X

def test_theta_contains_trivial_fields(fourlines):
    theta = standard_basis(theta_x(fourlines))
    for v in theta_x_trivial(fourlines):
        assert theta.contains(v)


def test_theta_fields_are_tangent(fourlines, R3):
    # a derivation is tangent when it maps I_X into I_X
    I = ideal_basis(list(fourlines.phi))
    for v in theta_x(fourlines):
        for phi in fourlines.phi:
            img = sum((v.components[i] * phi.derivative(i)
                       for i in range(3)), R3.zero)
            assert I.contains(Vector.ideal(img))


def test_euler_field_present(fourlines, R3):
    theta = standard_basis(theta_x(fourlines))
    euler = Vector(tuple(R3.var(i) for i in range(3)))
    assert theta.contains(euler)


def test_df_image_double_inclusion(fourlines, R3):
    # df applied to the trivial tangent fields spans J(f,phi) + phi_j * df/dx_i
    f = R3.parse("z^2+x*y")
    from germcalc.invariants import relative_jacobian_ideal
    lhs = [p for p in df_image(f, theta_x_trivial(fourlines)) if not p.is_zero]
    rhs = relative_jacobian_ideal(f, fourlines)
    rhs += [phi * f.derivative(i) for phi in fourlines.phi for i in range(3)]
    rhs = [p for p in rhs if not p.is_zero]
    sb_l, sb_r = ideal_basis(lhs), ideal_basis(rhs)
    assert all(sb_r.contains(Vector.ideal(p)) for p in lhs)
    assert all(sb_l.contains(Vector.ideal(p)) for p in rhs)


# ---------------------------------------------------------------------------
# Bruce-Roberts numbers

def test_br_minus_both_routes(fourlines, R3):
    f = R3.parse("z")
    assert Germ(fourlines, f).br_minus_direct == 3
    assert br_minus_formula(f, fourlines) == 3


def test_relative_identity(fourlines, R3):
    res = Germ(fourlines, R3.parse("z^2+x*y")).relative_identity
    assert res["pass"]
    assert res["lhs"] == 7
    assert res["muX"] == 5 and res["tauX"] == 5


def test_br_all_routes_agree(fourlines, R3):
    germ = Germ(fourlines, R3.parse("z^2+x*y"))
    assert germ.br_direct == 9
    assert germ.br_tor == 9
    assert germ.br_codim2 == 9


def test_br_linear_function(fourlines, R3):
    germ = Germ(fourlines, R3.parse("z"))
    assert germ.br_direct == 3
    assert germ.br_tor == 3
    assert germ.br_codim2 == 3


def test_br_codim2_formula_requires_codimension_two(R2):
    X = ICIS((R2.parse("x^3+y^2"),))
    with pytest.raises(ValueError):
        Germ(X, R2.parse("x")).br_codim2


def test_tor1_hypersurface_case(R2):
    # for a hypersurface, dim Tor1 equals colength(I_X + Jf)
    X = ICIS((R2.parse("x^3+y^2"),))
    f = R2.parse("x+y^2")
    Jf = jacobian_ideal(f)
    tor = tor1_dimension(list(X.phi), Jf)
    assert tor == colength(ideal_basis(list(X.phi) + Jf))


def test_jacobian_basis_is_built_once(fourlines, R3, monkeypatch):
    # mu_f and the Koszul check of tor1 read one standard basis of Jf
    germ = Germ(fourlines, R3.parse("z^2+x*y"))
    jf = [Vector.ideal(p) for p in germ.jf]
    built = []
    original = germcalc.stdbasis.standard_basis

    def counted(gens):
        built.append(list(gens) == jf)
        return original(gens)

    monkeypatch.setattr(germcalc.stdbasis, "standard_basis", counted)
    assert (germ.mu_f, germ.tor1) == (1, 2)
    assert built.count(True) == 1


def test_tau_via_theta_quotients(fourlines, R3):
    first, second = Germ(fourlines, R3.parse("z")).tau_via_theta_quotient()
    assert first == 5 and second == 5


def test_finiteness_equivalence_with_infinite_instance(R3):
    # f with non-isolated critical locus on X: both image ideals infinite
    X = ICIS((R3.parse("x^2+y^2+z^2"),))
    f = R3.parse("x^2")
    theta = theta_x(X)
    trivial = theta_x_trivial(X)
    full = [p for p in df_image(f, theta) if not p.is_zero]
    triv = [p for p in df_image(f, trivial) if not p.is_zero]
    c_full = colength(ideal_basis(full)) if full else INFINITE
    c_triv = colength(ideal_basis(triv)) if triv else INFINITE
    assert (c_full is INFINITE) == (c_triv is INFINITE)
    assert c_full is INFINITE


def test_polar_and_euler(fourlines):
    m, eu = Germ(fourlines).polar_and_euler()
    assert (m, eu) == (8, 4)


# ---------------------------------------------------------------------------
# characteristic ideals

def test_lc_line_in_one_variable():
    R1 = GermRing(("x",))
    bundle = lc_ideals(ICIS((R1.parse("x"),)))
    assert [render(g) for g in bundle.lc] == ["x*p1"]
    assert [render(g) for g in bundle.lc_minus] == ["x"]


def test_lc_worked_example(fourlines):
    bundle = lc_ideals(fourlines)
    rendered = [render(g) for g in bundle.lc_trivial]
    assert "x^2+y^2+z^2" in rendered
    assert "x*y" in rendered
    # plus at least one symbol-linear minor
    assert any("p" in s for s in rendered)


def test_lc_round_trip(fourlines):
    bundle = lc_ideals(fourlines)
    R = bundle.ring2n
    for g in bundle.lc + bundle.lc_minus + bundle.lc_trivial:
        assert R.parse(render(g)) == g


# ---------------------------------------------------------------------------
# randomized scanner

def test_conjecture_scan_codim2_matches():
    scan = conjecture_scan(n=2, k=2, trials=5, maxdeg=2, seed=42)
    assert scan["completed"] == 5
    assert scan["matches"] == 5
    assert scan["euler_all_zero"]


def test_conjecture_scan_codim3_euler():
    scan = conjecture_scan(n=3, k=3, trials=3, maxdeg=2, seed=7)
    assert scan["completed"] == 3
    assert scan["euler_all_zero"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conjecture_scan_maxdeg3_completes(seed):
    # cubic trials used to abort at the degree cap; the certified corner
    # keeps every standard basis below it
    scan = conjecture_scan(3, 2, 10, 3, seed)
    assert scan["completed"] == 10
    assert scan["euler_all_zero"]
    for row in scan["rows"]:
        assert row["tor"][1] == 2 * row["colength_sum"]


def test_scan_deterministic():
    a = conjecture_scan(n=2, k=2, trials=3, maxdeg=2, seed=9)
    b = conjecture_scan(n=2, k=2, trials=3, maxdeg=2, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# coordinate invariance

def test_invariants_under_linear_change(fourlines, R3):
    rng = random.Random(3)
    for _ in range(3):
        images = random_linear_images(R3, rng)
        moved = ICIS(tuple(p.substitute(images) for p in fourlines.phi))
        assert milnor_icis(moved) == 5
        assert tjurina(moved) == 5


def coordinate_values(X, f):
    return milnor_icis(X), tjurina(X), None if f is None else br_minus_formula(f, X)


@functools.cache
def unmoved_values(name):
    gf = load_germfile(os.path.join(CORPUS_DIR, name))
    return coordinate_values(gf.X, gf.f)


# the examples are coordinate changes whose Tjurina module basis reached the
# degree cap before module bases had a corner
@given(st.sampled_from([os.path.basename(p) for p in CORPUS]), st.integers(0, 39))
@example("nonwh_space.germ", 0)
@example("spacecurve_z3.germ", 33)
@example("twin_cusps.germ", 30)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_coordinate_change_leaves_invariants(name, seed):
    X, f = coordinate_change(load_germfile(os.path.join(CORPUS_DIR, name)), seed)
    assert coordinate_values(X, f) == unmoved_values(name)


# ---------------------------------------------------------------------------
# session invariants under generator order and coefficient field

def session_values(germ):
    return germ.mu_X, germ.tau_X, germ.br_minus_formula


@given(st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_generator_permutation_leaves_session_values(data):
    gf = load_germfile(data.draw(st.sampled_from(CORPUS)))
    order = data.draw(st.permutations(range(gf.X.k)))
    permuted = ICIS(tuple(gf.X.phi[i] for i in order))
    assert session_values(Germ(permuted, gf.f)) == \
        session_values(Germ(gf.X, gf.f))


small = st.integers(-3, 3)


@given(st.integers(2, 6), st.integers(2, 6), small, st.integers(1, 3),
       st.integers(1, 3), small, small)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_rationals_and_prime_field_agree(a, b, c, i, j, u, v):
    # the same germfile read over Q and over F_32003
    body = f"X: x^{a}+y^{b}{c:+d}*x^{i}*y^{j}\nf: x*y{u:+d}*x{v:+d}*y\n"
    values = []
    for field in ("Q", "Fp:32003"):
        gf = parse_germfile(f"ring {field} x y\n" + body)
        germ = Germ(gf.X, gf.f)
        ok, certificate = germ.icis
        values.append((certificate, session_values(germ) if ok else None))
    assert values[0] == values[1]


def milnor_or_degenerate(compute):
    try:
        return compute()
    except ChainDegenerate:
        return ChainDegenerate


@given(st.integers(2, 6), st.integers(2, 6), small, st.integers(1, 3),
       st.integers(1, 3), small, small, st.sampled_from(("Q", "Fp:32003")),
       st.permutations(range(2)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_le_greuel_section_matches_the_chain(a, b, c, i, j, u, v, field, order):
    # the germfiles of test_rationals_and_prime_field_agree; the permutation
    # of the two equations decides which one cuts out X and which one is f;
    # fewer than 100 draws reach no X with tau(X) < mu(X)
    gf = parse_germfile(f"ring {field} x y\nX: x^{a}+y^{b}{c:+d}*x^{i}*y^{j}\n"
                        f"f: x*y{u:+d}*x{v:+d}*y\n")
    gens = [gf.X.phi[0], gf.f]
    X, f = ICIS((gens[order[0]],)), gens[order[1]]
    if not Germ(X).icis[0]:
        return
    # the chain through X and f, a route the session no longer takes
    assert milnor_or_degenerate(lambda: Germ(X, f).mu_section) == \
        milnor_or_degenerate(lambda: milnor_chain(list(X.phi) + [f]))
