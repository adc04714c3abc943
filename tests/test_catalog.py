from fractions import Fraction
from math import comb

import pytest

from spinoriality import ratlin as rl
from spinoriality.catalog import (CATALOG_RANK_LE_4, GroupSpec, group_by_name,
                                  known_aspinorial_witness, make_group,
                                  parse_group_name, summary_check,
                                  summary_suite_specs, sweep_all_spinorial,
                                  type_d_table, type_d_weight)
from spinoriality.errors import SpecificationError
from spinoriality import spinor
from linalg_reference import combo


def test_parse_group_names():
    assert parse_group_name("SL8/mu4") == GroupSpec("SL_quot", (8, 4))
    assert parse_group_name("PGL5") == GroupSpec("SL_quot", (5, 5))
    assert parse_group_name("Sp6") == GroupSpec("Sp", (3,))
    assert parse_group_name("PSp8") == GroupSpec("Sp_quot", (4,))
    assert parse_group_name("G+8") == GroupSpec("Gplus", (8,))
    assert parse_group_name("Gminus12") == GroupSpec("Gminus", (12,))
    assert parse_group_name("E7adj") == GroupSpec("adjoint", (("E", 7),))
    for bad in ("SU3", "Sp3", "PSp5"):
        with pytest.raises(SpecificationError):
            parse_group_name(bad)


def test_invalid_parameters():
    with pytest.raises(SpecificationError):
        make_group(GroupSpec("SL_quot", (6, 4)))     # 4 does not divide 6
    with pytest.raises(SpecificationError):
        make_group(GroupSpec("Gplus", (12 + 2,)))    # n odd
    with pytest.raises(SpecificationError):
        make_group(GroupSpec("PSO", (7,)))
    with pytest.raises(SpecificationError):
        make_group(GroupSpec("bogus", ()))


def test_catalog_constructs():
    for name in CATALOG_RANK_LE_4:
        g = group_by_name(name)
        assert len(g.rd.simple_roots) <= 4
        # declared generators actually live in the cocharacter lattice
        for nu in g.fg.generators:
            g.rd.assert_cocharacter(nu)


def test_summary_predicates():
    assert summary_check(parse_group_name("SL7"))           # d = 1
    assert summary_check(parse_group_name("PGL3"))          # d odd
    assert summary_check(parse_group_name("SL12/mu2"))      # n/d even
    assert not summary_check(parse_group_name("PGL2"))      # n = 2^k, d = n/2
    assert not summary_check(parse_group_name("SL8/mu4"))
    assert not summary_check(parse_group_name("SL6/mu2"))   # n/d odd
    assert summary_check(parse_group_name("PSp8"))
    assert not summary_check(parse_group_name("PSp6"))
    assert summary_check(parse_group_name("PSO16"))
    assert not summary_check(parse_group_name("PSO12"))
    assert summary_check(parse_group_name("Gplus16"))
    assert not summary_check(parse_group_name("Gplus8"))    # n = 4 excluded
    assert summary_check(parse_group_name("E6adj"))
    assert not summary_check(parse_group_name("E7adj"))
    assert summary_check(parse_group_name("F4"))
    assert summary_check(GroupSpec("GL", (2,))) is None


def test_witnesses_are_aspinorial():
    for name in ["PGL2", "SL8/mu4", "SL6/mu2", "SO8", "SO7", "PSp6", "PSp10",
                 "PSO6", "PSO10", "PSO12", "Gplus8", "Gminus8", "E7adj"]:
        g = group_by_name(name)
        w = known_aspinorial_witness(g.spec)
        assert w is not None
        rep = spinor.OrthRep(irreducible=(tuple(rl.vec(w)),))
        assert not spinor.is_spinorial(g.rd, g.fg, rep).spinorial, name


def test_witness_none_when_all_spinorial():
    assert known_aspinorial_witness(parse_group_name("PSp8")) is None


def test_no_witness_where_the_classification_makes_no_claim():
    with pytest.raises(SpecificationError, match=r"no witness known for "
                       r"GL\(3,\)$"):
        known_aspinorial_witness(parse_group_name("GL3"))


def test_sweep_small():
    ok, cex = sweep_all_spinorial(group_by_name("PGL3"), box=2)
    assert ok and cex is None
    ok, cex = sweep_all_spinorial(group_by_name("PGL2"), box=2)
    assert not ok and cex is not None


def test_type_d_weights():
    assert type_d_weight(4, "w2") == (1, 1, 0, 0)
    assert type_d_weight(4, "half_wn") == (Fraction(1, 2),) * 4
    assert type_d_weight(4, "wminus") == (1, 1, 1, -1)
    with pytest.raises(SpecificationError):
        type_d_weight(4, "w9")


@pytest.mark.parametrize("n", [4, 6])
def test_type_d_table_values(n):
    table = type_d_table(n)
    # isogeny p values
    assert table["p"][f"SO{2*n}"] == 2 * n - 2
    expected_pso = (2 * n - 2) if n % 4 == 0 else (n - 1)
    assert table["p"][f"PSO{2*n}"] == expected_pso
    assert table["p"][f"Gplus{2*n}"] == n * (n - 1) // 2
    # exterior powers: dim C(2n, k), Casimir k(2n-k)/(4n-4)
    for k in range(1, n):
        dim, chi = table["weights"][f"w{k}"]
        assert dim == comb(2 * n, k)
        assert chi == Fraction(k * (2 * n - k), 4 * n - 4)
    # half-spin rows
    dim, chi = table["weights"]["half_wn"]
    assert dim == 2 ** (n - 1)
    assert chi == Fraction(n * (2 * n - 1), 16 * (n - 1))
    assert table["weights"]["half_wminus"] == (dim, chi)
    # the k = n exterior power splits in half
    dim_n, chi_n = table["weights"][f"w{n}"]
    dim_m, chi_m = table["weights"]["wminus"]
    assert dim_n == dim_m == comb(2 * n, n) // 2
    assert chi_n == chi_m == Fraction(n * n, 4 * n - 4)


def test_summary_suite_well_formed():
    names = summary_suite_specs()
    assert "SL12/mu2" in names and "PSp16" in names and "Gplus16" in names
    assert "E6adj" in names and "E7adj" in names
    for name in names:
        parse_group_name(name)


def test_gl_weight_basis_is_ambient():
    g = group_by_name("GL3")
    assert g.weight_from_coords([2, 1, 0]) == (2, 1, 0)


@pytest.mark.parametrize("name", ["PGL2", "SL6/mu3", "GL3", "PSp8", "SO7",
                                  "PSO16", "Gplus8", "E7adj"])
def test_weight_from_coords_is_the_exact_combination(name):
    g = group_by_name(name)
    r = len(g.weight_basis)
    for coords in ([0] * r, [1] * r, [Fraction(j - 2, 3) for j in range(r)],
                   [(-1) ** j * j for j in range(r)]):
        lam = g.weight_from_coords(coords)
        assert lam == combo(coords, g.weight_basis, dim=g.rd.dim)
        assert all(type(x) is Fraction for x in lam)
    with pytest.raises(SpecificationError,
                       match=f"expects {r} weight coordinates, got {r + 1}"):
        g.weight_from_coords([0] * (r + 1))
