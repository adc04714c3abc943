import time
from fractions import Fraction

import pytest

from spinoriality.catalog import group_by_name
from spinoriality.errors import SpecificationError
from spinoriality.fundgroup import fundamental_group, p_value
from spinoriality import ratlin as rl
from spinoriality.rootdata import RootDatum, build_root_datum, simple_system
from linalg_reference import combo, unit


@pytest.mark.parametrize("name,factors", [
    ("SL2", ()), ("SL5", ()), ("Sp6", ()), ("Spin8", ()), ("Spin9", ()),
    ("G2", ()), ("F4", ()), ("E8", ()),
    ("PGL2", (2,)), ("PGL3", (3,)), ("PGL5", (5,)),
    ("SL4/mu2", (2,)), ("SL8/mu4", (4,)), ("SL12/mu6", (6,)),
    ("SO4", (2,)), ("SO7", (2,)), ("SO8", (2,)),
    ("PSp4", (2,)), ("PSp8", (2,)),
    ("PSO8", (2, 2)), ("PSO12", (2, 2)), ("PSO6", (4,)), ("PSO10", (4,)),
    ("Gplus8", (2,)), ("Gminus8", (2,)), ("Gplus12", (2,)),
    ("GL2", (0,)), ("GL3", (0,)),
    ("E6adj", (3,)), ("E7adj", (2,)),
])
def test_fundamental_groups(name, factors):
    g = group_by_name(name)
    assert g.fg.invariant_factors == factors
    assert len(g.fg.generators) == len(factors)


def test_order():
    assert group_by_name("PSO8").fg.order == 4
    assert group_by_name("PSO6").fg.order == 4
    assert group_by_name("Spin8").fg.order == 1
    assert group_by_name("GL2").fg.order is None


@pytest.mark.parametrize("name,p", [
    # SL_n/mu_d: (n/d)^2 (n-1)
    ("PGL2", 1), ("PGL3", 2), ("PGL4", 3), ("SL4/mu2", 4 * 3),
    ("SL8/mu4", 4 * 7), ("SL6/mu3", 4 * 5),
    # Sp_2n / +-1: generator half-ones, p = n(n+1)/2
    ("PSp4", 3), ("PSp6", 6), ("PSp8", 10),
    # SO_m: generator e1
    ("SO8", 6), ("SO12", 10), ("SO7", Fraction(5)),
    # PSO_2n: gcd over both generators for n even
    ("PSO8", 6), ("PSO12", 5), ("PSO16", 14),
    # G+-_2n: half-ones generator, p = n(n-1)/2
    ("Gplus8", 6), ("Gminus8", 6), ("Gplus12", 15),
    # PSO_2n with n odd: single order-4 generator
    ("PSO6", 3), ("PSO10", 10),
])
def test_p_values(name, p):
    g = group_by_name(name)
    assert p_value(g.rd, g.fg.generators) == p


def test_p_value_needs_generators():
    g = group_by_name("Spin8")
    with pytest.raises(SpecificationError):
        p_value(g.rd, g.fg.generators)


def test_explicit_generators_validated():
    g = group_by_name("PGL2")
    rd = g.rd
    # a coroot does not generate the quotient
    with pytest.raises(SpecificationError):
        fundamental_group(rd, generators=[rd.simple_coroots[0]])


def test_a_quotiented_direction_in_the_lattice_span_is_trivial():
    # A2 in Z^3 with X_* = {x : sum x even}: (1,1,1) is not in X_*, but
    # 2(1,1,1) is, and is trivial in the group, whose cocharacter lattice
    # is the image of X_* in Q^3 / Q(1,1,1): pi_1 = (2Z)/(6Z), as for PGL3
    roots, coroots, _, central = simple_system("A", 2)
    rd = RootDatum(roots, coroots, coroots + [rl.scale(2, unit(3, 2))],
                   [central])
    assert rd.central_torus_rank == 0
    assert fundamental_group(rd).invariant_factors == (3,)
    assert rd.relations[-1] == rd.assert_cocharacter(rl.scale(2, central))


def test_simply_connected_defaults():
    rd = build_root_datum([("D", 4)])
    fg = fundamental_group(rd)
    assert fg.is_trivial
    assert fg.generators == ()


def test_norms_are_even_integers_on_lattice():
    for name in ["PGL2", "SO8", "PSp6", "PSO8", "Gplus8", "E7adj"]:
        g = group_by_name(name)
        for nu in g.fg.generators:
            n2 = g.rd.cochar_norm_sq(nu)
            assert n2 == int(n2) and int(n2) % 2 == 0


def test_lattice_basis_stays_small_and_pi1_fast():
    # the lattice of B3 x D4 x D4 plus a torus, enlarged by one rational
    # generator: a basis read off the Smith form's v^-1 had entries up to
    # 470, on which the Smith form of the coroots' coordinates ran for
    # minutes; the Hermite basis has entries of at most 2
    rd = build_root_datum([("B", 3), ("D", 4), ("D", 4)], central_rank=1)
    gen = combo([1, 0, -1, 2, 1, 2, -1, 2, -1, 0, -2],
                   rd.fundamental_coweights, dim=rd.dim)
    gen = gen[:-1] + (Fraction(3, 4),)
    basis = rl.row_lattice_basis(rd.cochar_basis + (gen,))
    assert len(basis) == rd.dim
    assert max(abs(x) for row in basis for x in row) <= 2
    for row in rd.cochar_basis + (gen,):
        assert all(x.denominator == 1 for x in rl.lattice_coords(basis, row))
    rd = RootDatum(rd.simple_roots, rd.simple_coroots, basis,
                   rd.central_cochars)
    t0 = time.perf_counter()
    assert fundamental_group(rd).invariant_factors == (0,)
    assert time.perf_counter() - t0 < 2
