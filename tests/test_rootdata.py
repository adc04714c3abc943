import gc
import weakref
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

from spinoriality import ratlin as rl, rootdata
from spinoriality.catalog import (CATALOG_RANK_LE_4, group_by_name,
                                  summary_suite_specs)
from spinoriality.errors import SpecificationError
from spinoriality.rootdata import (RootDatum, build_root_datum,
                                   expected_root_count, simple_system)
from spinoriality.spinor import dominant_orthogonal_weights, orth_rep
from test_properties import reference_coroot_span_decomposition

ALL_SIMPLE = [("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 4), ("D", 6),
              ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_root_counts(family, rank):
    rd = build_root_datum([(family, rank)])
    assert rd.num_positive_roots * 2 == expected_root_count(family, rank)


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_classification_roundtrip(family, rank):
    rd = build_root_datum([(family, rank)])
    fams, central = rd.lie_type
    assert central == 0
    assert list(fams) == [(family, rank)]


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("B", 4),
                                         ("C", 4), ("B", 2)])
def test_lie_type_does_not_depend_on_the_node_order(family, rank):
    # B_n has one short simple root and C_n one long one, wherever the
    # short end of the diagram is listed; B2 = C2 keeps the reading of its
    # last-listed root, so both orders are checked against that
    a = build_root_datum([(family, rank)]).cartan_matrix
    for perm in permutations(range(rank)):
        b = [[a[i][j] for j in perm] for i in perm]
        rd = RootDatum(b, rl.identity(rank), rl.identity(rank))
        # in B2, the last-listed root is the short one iff the other one's
        # row has -2 at its column
        want = family if rank > 2 else "CB"[b[0][1] == -2]
        assert rd.lie_type == ([(want, rank)], 0)


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_cartan_matrix_diagonal(family, rank):
    rd = build_root_datum([(family, rank)])
    cm = rd.cartan_matrix
    for i in range(rank):
        assert cm[i][i] == 2
        for j in range(rank):
            if i != j:
                assert cm[i][j] <= 0


@pytest.mark.parametrize("family,rank,h", [
    ("A", 3, 4), ("B", 4, 7), ("C", 4, 5), ("D", 5, 8),
    ("E", 6, 12), ("E", 7, 18), ("E", 8, 30), ("F", 4, 9), ("G", 2, 4),
])
def test_dual_coxeter_numbers(family, rank, h):
    rd = build_root_datum([(family, rank)])
    assert rd.dual_coxeter_number(0) == h


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_two_delta_is_sum_of_positive_roots(family, rank):
    rd = build_root_datum([(family, rank)])
    total = rl.zero(rd.dim)
    for root, _ in rd.positive_roots:
        total = rl.add(total, root)
    assert total == rl.scale(2, rd.delta)


@pytest.mark.parametrize("family,rank", ALL_SIMPLE)
def test_delta_norm_is_dim_g_over_24(family, rank):
    rd = build_root_datum([(family, rank)])
    assert rd.weight_inner(rd.delta, rd.delta) == Fraction(rd.dim_g, 24)


def test_dominant_conjugate_is_dominant_and_idempotent():
    rd = build_root_datum([("B", 3)])
    labels = rd.dynkin_labels((Fraction(-2), Fraction(5), Fraction(-1)))
    dom, sign = rd.dominant_point(labels)
    assert min(dom) >= 0 and dom in rd.label_orbit(labels)
    assert sign in (1, -1)
    assert rd.dominant_point(dom) == (dom, 1)
    # Weyl-invariant norm preserved
    assert rd.label_inner(labels, labels) == rd.label_inner(dom, dom)


def self_dual(rd, mu):
    """-w0 mu = mu, read off the labels by the datum's weight forms."""
    return rd.weight_forms().self_dual(rl.scaled(mu)[0], rd.dynkin_labels(mu))


def test_non_regular_weight_is_refused_before_its_orbit(monkeypatch):
    rd = build_root_datum([("B", 3)])
    w, a = rd.fundamental_weights[0], rd.simple_roots[0]
    assert len(rd.weyl_orbit_signed(rd.delta)) == rd.weyl_order
    assert rd.dominant_point(rd.dynkin_labels(rl.sub(w, a))) == ((1, 0, 0), -1)

    def no_orbit(*args):
        raise AssertionError("the orbit is walked")

    monkeypatch.setattr(RootDatum, "label_orbit", no_orbit)
    # omega_1, its image under s_1, off the chamber, and half that image:
    # all singular
    for mu in (w, rl.sub(w, a), rl.scale(Fraction(1, 2), rl.sub(w, a))):
        with pytest.raises(SpecificationError, match="regular"):
            rd.weyl_orbit_signed(mu)


def test_self_duality():
    # A2: the standard rep is not self-dual, the adjoint is
    rd = build_root_datum([("A", 2)])
    w = rd.fundamental_weights
    assert not self_dual(rd, w[0])
    assert self_dual(rd, rl.add(w[0], w[1]))
    # B and C are always self-dual
    for fam in ("B", "C"):
        rdx = build_root_datum([(fam, 3)])
        for fw in rdx.fundamental_weights:
            assert self_dual(rdx, fw)
    # D4: the half-spin weights swap under -w0? (rank 4 even: self-dual)
    rd4 = build_root_datum([("D", 4)])
    for fw in rd4.fundamental_weights:
        assert self_dual(rd4, fw)
    # D5: half-spin weights are swapped
    rd5 = build_root_datum([("D", 5)])
    w5 = rd5.fundamental_weights
    assert not self_dual(rd5, w5[4])
    assert self_dual(rd5, w5[0])


def test_fundamental_weights_pair_to_identity():
    for rd in (build_root_datum([("F", 4)]),
               build_root_datum([("A", 2), ("B", 3), ("G", 2)], central_rank=1),
               group_by_name("SL6/mu3").rd):
        ident = rl.identity(len(rd.simple_roots))
        for xs, ys in ((rd.fundamental_weights, rd.simple_coroots),
                       (rd.simple_roots, rd.fundamental_coweights)):
            assert tuple(tuple(rl.dot(x, y) for y in ys) for x in xs) == ident


def test_type_a_center_is_quotiented():
    rd = build_root_datum([("A", 3)])
    ones = (Fraction(1),) * 4
    # characters must be orthogonal to the quotiented direction
    assert not rd.is_character(ones)
    assert rd.is_character(rd.simple_roots[0])
    fams, central = rd.lie_type
    assert list(fams) == [("A", 3)] and central == 0


def test_center_directions():
    # GL3's center is the diagonal torus; a quotient of a semisimple
    # group has none, and the all-ones direction of type A is no torus
    (v,) = group_by_name("GL3").rd.center_directions
    assert v[0] != 0 and v == (v[0],) * 3
    for name in ["SL4/mu2", "PGL3", "E6", "SO8"]:
        assert group_by_name(name).rd.center_directions == ()
    rd = build_root_datum([("A", 2)], central_rank=2)
    assert len(rd.center_directions) == 2
    # a lattice that holds a vector along the quotiented direction (1,1,1,0)
    # as well as the torus: the simple roots kill a plane of its span, which
    # leaves one direction modulo (1,1,1,0), off its span
    rd = build_root_datum([("A", 2)], central_rank=1)
    third, half = Fraction(1, 3), Fraction(1, 2)
    rd = RootDatum(rd.simple_roots, rd.simple_coroots, rl.row_lattice_basis(
        rd.cochar_basis + ((third, third, third, half),)), rd.central_cochars)
    (v,) = rd.center_directions
    assert rl.row_span_table(rl.scaled_rows(rd.central_cochars + (v,))[0],
                             rd.dim) is not None
    assert all(rl.dot(a, v) == 0 for a in rd.simple_roots)
    assert rd.central_torus_rank == 1


def test_cochar_norm_sq_values():
    # SL_n/mu_d generator (n/d, 0, ..., 0): |nu|^2 = 2 (n/d)^2 (n-1)
    for n, d in [(4, 2), (6, 3), (8, 4)]:
        rd = build_root_datum([("A", n - 1)])
        nu = rl.scale(n // d, rl.unit(n, 0))
        assert rd.cochar_norm_sq(nu) == 2 * (n // d) ** 2 * (n - 1)


def test_cochar_norm_sq_keeps_a_bounded_memo():
    # |nu|^2 is read off the cocharacter tables: 100 distinct nu leave the
    # datum's other tables as they were and at most 2 rank(X_*) tables
    rd = build_root_datum([("D", 4)])
    rd.cochar_table(rd.simple_coroots[0])
    roots = [root for root, _ in rd.positive_roots]
    before = {k: len(v) if isinstance(v, dict) else None
              for k, v in vars(rd).items() if k != "_cochar_tables"}
    for t in range(100):
        nu = rl.vec([t, 1, -t, Fraction(t, 3)])
        norm = 2 * sum(rl.dot(root, nu) ** 2 for root in roots)
        assert rd.cochar_norm_sq(nu) == rd.cochar_table(nu).norms[0] == norm
    assert len(rd.__dict__) == len(before) + 1
    assert before == {k: len(v) if isinstance(v, dict) else None
                      for k, v in vars(rd).items() if k != "_cochar_tables"}
    assert len(rd._cochar_tables) == 2 * len(rd.cochar_basis) == 8


def test_coroot_span_decomposition():
    # the split lives in the tests now; the verdict reads the pairing with
    # the central part off the label pairing and the forms' adj(a) p
    rd = build_root_datum([("A", 1)])
    e1 = rl.unit(2, 0)
    prime, central = reference_coroot_span_decomposition(rd, e1)
    assert prime == (Fraction(1, 2), Fraction(-1, 2))
    assert central == (Fraction(1, 2), Fraction(1, 2))
    for root, _ in rd.positive_roots:
        assert rl.dot(root, central) == 0
    gamma = (Fraction(3), Fraction(1))
    table = rd.cochar_table(e1)
    _, k, den = table.pairing_form(gamma)
    z, zden, *_ = table.q_form
    assert Fraction(k, den) == rl.dot(gamma, central) == 2
    assert Fraction(sum(map(mul, gamma, z)), zden) == 2


def test_invalid_family_and_rank():
    with pytest.raises(SpecificationError):
        build_root_datum([("E", 9)])
    with pytest.raises(SpecificationError):
        simple_system("H", 4)


def test_quotient_lattice_must_contain_coroots():
    roots, coroots, _, _ = simple_system("C", 2)
    with pytest.raises(SpecificationError,
                       match="^cocharacter lattice does not contain the "
                             "coroot lattice$"):
        RootDatum(roots, coroots, (rl.scale(2, coroots[0]), coroots[1]))
    with pytest.raises(SpecificationError,
                       match="^cocharacter basis is not independent$"):
        RootDatum(roots, coroots, coroots + [rl.unit(2, 0)])


def _tables(rd):
    return (rd.cartan_matrix,
            [(f.indices, f.family, f.rank) for f in rd.factors],
            rd._cartan_adj, rd.fundamental_weights, rd.positive_roots,
            rd.relations, rd.central_torus_rank)


@pytest.mark.parametrize("name", list(dict.fromkeys(
    CATALOG_RANK_LE_4 + summary_suite_specs())))
def test_handed_over_datum_equals_a_fresh_one(name, monkeypatch):
    # the catalog hands over a datum built once, with its lattice, and no
    # table of another datum: one RootDatum per group (the adjoint family
    # reads its coweights off a simply connected one), equal to a datum
    # validated from scratch on its vectors
    built = []
    init = RootDatum.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RootDatum, "__init__", counted)
    rd = group_by_name(name).rd
    assert built[-1] is rd
    assert len(built) == (2 if name.endswith("adj") else 1)
    shared = [k for k, v in vars(built[0]).items() if len(built) == 2
              and isinstance(v, (tuple, list, dict)) and v
              and vars(rd).get(k) is v]
    assert shared == []
    fresh = RootDatum(rd.simple_roots, rd.simple_coroots, rd.cochar_basis,
                      rd.central_cochars, label=rd.label)
    assert _tables(rd) == _tables(fresh)


def test_weyl_orders():
    assert build_root_datum([("A", 2)]).weyl_order == 6
    assert build_root_datum([("B", 3)]).weyl_order == 48
    assert build_root_datum([("D", 4)]).weyl_order == 192
    assert build_root_datum([("G", 2)]).weyl_order == 12
    assert build_root_datum([("F", 4)]).weyl_order == 1152


@pytest.mark.parametrize("name", ["PSO8", "GL3", "SL4/mu2"])
def test_a_datum_with_its_weight_forms_is_freed_at_once(name):
    # the forms the datum keeps must not point back at it: a cycle would
    # hold every cold datum and its tables until the cyclic collector runs
    g = group_by_name(name)
    orth_rep(g.rd, hyperbolic=[rl.scale(2, g.weight_basis[0])])
    orth_rep(g.rd, hyperbolic=[[2] + [0] * (len(g.weight_basis) - 1)],
             basis=g.weight_basis)
    assert list(dominant_orthogonal_weights(g.rd, 1))
    assert len(g.rd.__dict__["_weight_forms"]) == 2
    gc.disable()
    try:
        rd = weakref.ref(g.rd)
        del g
        assert rd() is None
    finally:
        gc.enable()


def test_orbit_values_memo_stays_within_its_bound(monkeypatch):
    # Spin8 at a simple coroot: 24 points per dominant weight; a bound of
    # 3 weights' values keeps 3, the 4th drops the memo whole and is kept
    # alone, and an orbit over the bound alone is never kept
    rd = group_by_name("Spin8").rd
    table = rd.cochar_table(rd.simple_coroots[0])
    assert table.orbit_size == 24
    monkeypatch.setattr(rootdata, "ORBIT_VALUES", 3 * 24)
    mus = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0)]
    for i, mu in enumerate(mus):
        vs, sums, sq = table.orbit_values(mu)
        assert vs == sorted(sum(map(mul, c, mu)) for c, _ in
                            table.signed_orbit)
        assert sums == [sum(vs[:j]) for j in range(len(vs) + 1)]
        assert sq == sum(v * v for v in vs)
        kept = mus[:i + 1] if i < 3 else [mu]
        assert list(vars(table)["_orbit_values"]) == kept
        assert table.orbit_values(mu)[0] is vs
    monkeypatch.setattr(rootdata, "ORBIT_VALUES", 23)
    vs = table.orbit_values(mus[0])[0]
    assert table.orbit_values(mus[0])[0] is not vs
    assert vars(table)["_orbit_values"] == {}
