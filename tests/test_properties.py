"""Algebraic identities checked on randomized inputs."""

import importlib.util
import re
from fractions import Fraction
from itertools import product
from math import factorial, gcd, lcm, prod
from operator import mul
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from spinoriality import cli, ratlin as rl, repcalc, rootdata
from spinoriality.catalog import (CATALOG_RANK_LE_4, group_by_name,
                                  highest_root, summary_suite_specs)
from spinoriality.fundgroup import FundGroupData, fundamental_group
from spinoriality.repcalc import (L_phi, casimir_value, classify,
                                  freudenthal_multiplicities, weyl_dim)
from spinoriality.errors import IntegralityError, SpecificationError
from spinoriality.rootdata import (RootDatum, _from_cartan, build_root_datum,
                                   cartan_checked, cartan_factors,
                                   expected_root_count)
from spinoriality.spinor import (OrthRep, descent_check,
                                 dominant_orthogonal_weights, is_spinorial,
                                 make_regular, oracle_compare, orth_rep,
                                 q_irreducible, q_rep, q_via_weyl_sum)
from linalg_reference import (combo, dot, identity, reference_nullspace,
                              reference_rank, reference_row_coords,
                              reference_solve_columns, sub, unit)
from test_ratlin import assert_smith_contract, mat_mul
from test_realizations import LARGE, NAMES as REALIZATIONS, cartan_document

GROUPS = ["PGL2", "PGL4", "SO8", "PSp6", "PSO8", "Gplus8", "E7adj"]


def lattice_cochar(rd, coeffs):
    return combo(coeffs, rd.cochar_basis)


def orth_weight(g, coeffs):
    """A dominant orthogonal character built from box coordinates, or None."""
    lam = combo(coeffs, g.weight_basis)
    return lam if reference_dominant_orthogonal(g.rd, lam) else None


coeff_lists = st.lists(st.integers(-3, 3), min_size=8, max_size=8)
weight_lists = st.lists(st.integers(0, 3), min_size=8, max_size=8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUPS), weight_lists, coeff_lists, coeff_lists)
def test_parity_homomorphism(name, wc, c1, c2):
    """q(nu1 + nu2) == q(nu1) + q(nu2) mod 2 for lattice cocharacters."""
    g = group_by_name(name)
    r = len(g.weight_basis)
    lam = orth_weight(g, wc[:r])
    if lam is None:
        return
    rep = OrthRep(irreducible=(tuple(lam),))
    n = len(g.rd.cochar_basis)
    nu1 = lattice_cochar(g.rd, c1[:n])
    nu2 = lattice_cochar(g.rd, c2[:n])
    q1 = q_rep(g.rd, rep, nu1)
    q2 = q_rep(g.rd, rep, nu2)
    q12 = q_rep(g.rd, rep, rl.add(nu1, nu2))
    assert (q12 - q1 - q2) % 2 == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GROUPS), weight_lists, coeff_lists, coeff_lists)
def test_coroot_translation_invariance(name, wc, c1, c2):
    """q mod 2 is unchanged when nu moves by a coroot-lattice element."""
    g = group_by_name(name)
    r = len(g.weight_basis)
    lam = orth_weight(g, wc[:r])
    if lam is None:
        return
    rep = OrthRep(irreducible=(tuple(lam),))
    n = len(g.rd.cochar_basis)
    nu = lattice_cochar(g.rd, c1[:n])
    shift = combo(c2, g.rd.simple_coroots)
    q0 = q_rep(g.rd, rep, nu)
    q1 = q_rep(g.rd, rep, rl.add(nu, shift))
    assert (q1 - q0) % 2 == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]),
       st.lists(st.integers(-6, 6), min_size=4, max_size=4))
def test_dominant_conjugate_norm_invariant(lie, coeffs):
    family, rank = lie
    rd = build_root_datum([(family, rank)])
    mu = rl.vec(coeffs[:rd.dim] + [0] * (rd.dim - len(coeffs)))
    dom, sign = euclidean_dominant_conjugate(rd, mu)
    assert rd.is_dominant(dom)
    assert rd.weight_inner(mu, mu) == rd.weight_inner(dom, dom)
    assert rd.dominant_point(rd.dynkin_labels(mu)) == (
        rd.dynkin_labels(dom), sign)
    assert rd.dominant_point(rd.dynkin_labels(dom)) == (
        rd.dynkin_labels(dom), 1)


def euclidean_dominant_conjugate(rd, mu):
    """The dominant Weyl conjugate of mu, with the sign of the chamber map,
    by Euclidean reflections at the first simple coroot pairing negatively:
    the walk ``RootDatum.dominant_point`` makes on labels."""
    cur, sign = tuple(rl.vec(mu)), 1
    while True:
        for alpha, alpha_v in zip(rd.simple_roots, rd.simple_coroots):
            k = dot(cur, alpha_v)
            if k < 0:
                cur, sign = sub(cur, rl.scale(k, alpha)), -sign
                break
        else:
            return cur, sign


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GROUPS), st.lists(st.integers(-4, 4),
                                         min_size=8, max_size=8))
def test_cochar_norms_even(name, coeffs):
    """Killing norms of lattice cocharacters are even integers."""
    g = group_by_name(name)
    n = len(g.rd.cochar_basis)
    nu = lattice_cochar(g.rd, coeffs[:n])
    n2 = g.rd.cochar_norm_sq(nu)
    assert n2.denominator == 1 and int(n2) % 2 == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_weyl_dim_weyl_symmetry_sl4(coeffs):
    """dim V_lam = dim V of the dual highest weight (coordinate reversal)."""
    g = group_by_name("SL4")
    lam = g.weight_from_coords(coeffs)
    dual = g.weight_from_coords(list(reversed(coeffs)))
    assert weyl_dim(g.rd, lam) == weyl_dim(g.rd, dual)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4))
def test_smith_form_properties(rows):
    assert_smith_contract(rows)


# ----------------------------------------------------------------------
# the Dynkin-label tables against the Euclidean definitions

SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
               ("D", 4), ("G", 2)]


def random_datum(draw, simple=False):
    """A product of simple types with at most one central torus, its
    cocharacter lattice enlarged by one rational generator; and whether it
    has the central torus (the last coordinate).  ``simple``: one type and
    no torus."""
    types = draw(st.lists(st.sampled_from(SMALL_TYPES), min_size=1,
                          max_size=1 if simple else 3))
    central = 0 if simple else draw(st.integers(0, 1))
    rd = build_root_datum(types, central_rank=central)
    r = len(rd.simple_roots)
    gen = combo(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)),
                   rd.fundamental_coweights, dim=rd.dim)
    if central:
        gen = gen[:-1] + (Fraction(draw(st.integers(0, 3)), 4),)
    rd = RootDatum(rd.simple_roots, rd.simple_coroots,
                   rl.row_lattice_basis(rd.cochar_basis + (gen,)),
                   rd.central_cochars)
    return rd, central


def least_character_multiple(rd, lam):
    """The least multiple of lam that pairs integrally with the lattice."""
    m = lcm(*(dot(lam, b).denominator for b in rd.cochar_basis))
    return rl.scale(m, lam)


@st.composite
def data_and_weight(draw):
    """A ``random_datum`` and a dominant character of it (possibly nonzero
    on the central torus)."""
    rd, central = random_datum(draw)
    r = len(rd.simple_roots)
    lam = combo(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)),
                   rd.fundamental_weights, dim=rd.dim)
    if central:
        lam = lam[:-1] + (Fraction(draw(st.integers(-2, 2))),)
    return rd, least_character_multiple(rd, lam)


def euclidean_inner(rd, mu1, mu2):
    """(mu1, mu2) from the Killing form sum over all roots of a(x) a(y) on
    the coroot span, inverted there."""
    coroots = rd.simple_coroots
    pairs = [[dot(a, c) for c in coroots] for a, _ in rd.positive_roots]
    gram = [[2 * sum(p[i] * p[j] for p in pairs) for j in range(len(coroots))]
            for i in range(len(coroots))]
    x = reference_solve_columns(
        gram, [[dot(mu1, c) for c in coroots]])[1][0]
    return sum(xi * dot(mu2, c) for xi, c in zip(x, coroots))


@settings(max_examples=40, deadline=None)
@given(data_and_weight())
def test_labels_match_euclidean_definitions(case):
    rd, lam = case
    assert rd.is_character(lam) and rd.is_dominant(lam)
    delta = rd.delta
    dim = Fraction(1)
    for _, co in rd.positive_roots:
        dim *= dot(rl.add(lam, delta), co) / dot(delta, co)
    assert weyl_dim(rd, lam) == dim
    assert casimir_value(rd, lam) == euclidean_inner(
        rd, lam, rl.add(lam, rl.scale(2, delta)))
    self_dual = euclidean_dominant_conjugate(rd, rl.scale(-1, lam))[0] == lam
    cls = classify(rd, lam)
    forms, labels = rd.weight_forms(), rd.dynkin_labels(lam)
    assert cls.self_dual == self_dual == forms.self_dual(
        rl.scaled(lam)[0], labels)
    parity = sum(dot(lam, co) for _, co in rd.positive_roots)
    assert forms.parity(labels) == parity
    assert cls.fs_parity == parity % 2
    assert cls.orthogonal == (self_dual and parity % 2 == 0)
    # -w0 is an involution permuting the simple roots
    m = rd.minus_w0_matrix
    assert mat_mul(m, m) == identity(rd.dim)
    assert [rl.mat_vec(m, a) for a in rd.simple_roots] == [
        rd.simple_roots[s] for s in rd.minus_w0_perm]


def test_gl2_weight_off_the_root_span_is_not_self_dual():
    # (2, 0) has the labels of a self-dual weight, but -w0 (2, 0) = (0, -2)
    g = group_by_name("GL2")
    lam = (Fraction(2), Fraction(0))
    cls = classify(g.rd, lam)
    assert not cls.self_dual and not cls.orthogonal
    assert not reference_fixed_by_minus_w0(g.rd, lam, g.rd.dynkin_labels(lam))
    assert forms_rejection(g.rd, None, lam) == ((2,), "self-dual")


# ----------------------------------------------------------------------
# the weight forms against reference copies of the predicate they replace

def reference_is_character(rd, mu):
    """mu kills the quotiented directions and pairs integrally with the
    cocharacter basis, by Euclidean dot products."""
    return (all(dot(mu, z) == 0 for z in rd.central_cochars)
            and all(dot(mu, b).denominator == 1 for b in rd.cochar_basis))


def reference_fixed_by_minus_w0(rd, mu, labels):
    """-w0 mu = mu for mu with these labels: -w0 permutes the labels by
    sigma, and is -1 on the cocharacters all simple roots kill."""
    return (all(x == labels[s] for x, s in zip(labels, rd.minus_w0_perm))
            and all(dot(mu, z) == 0
                    for z in reference_nullspace(rd.simple_roots, rd.dim)))


def reference_two_delta_pairing(rd, lam):
    """<lam, 2 delta_v>, the pairing with the sum of positive coroots."""
    return sum(map(mul, rd.dynkin_labels(lam), rd.two_delta_coroot_coords))


def reference_rejection(rd, lam):
    """The first test of a dominant orthogonal character that lam fails:
    "character", "dominant", "self-dual" or "parity"; None if it passes."""
    labels = rd.dynkin_labels(lam)
    if not reference_is_character(rd, lam):
        return "character"
    if min(labels, default=0) < 0:
        return "dominant"
    if not reference_fixed_by_minus_w0(rd, lam, labels):
        return "self-dual"
    if reference_two_delta_pairing(rd, lam) % 2:
        return "parity"
    return None


def reference_dominant_orthogonal(rd, lam):
    return reference_rejection(rd, lam) is None


def forms_rejection(rd, basis, coords):
    """(labels, the first test failed) as ``orth_rep`` reads them: the
    datum's weight forms in ``basis``, then ``classify``."""
    forms = rd.weight_forms(basis)
    m, d = forms.lift(*rl.scaled(rl.vec(coords)))
    labels, failed = forms.read(m, d)
    if failed is None:
        cls = classify(rd, tuple(Fraction(x, d) for x in m), labels)
        failed = ("self-dual" if not cls.self_dual else
                  "parity" if not cls.orthogonal else None)
    return labels, failed


@st.composite
def data_basis_and_coords(draw):
    """A ``random_datum``, a basis (None for ambient coordinates, or the
    fundamental weights) and rational coordinates in it: a combination of
    fundamental weights, symmetric under -w0 at times, with negative
    entries at times, plus a multiple of a vector all coroots kill, times
    k / den; so non-characters, non-dominant, non-self-dual, symplectic and
    orthogonal weights all occur."""
    rd, _ = random_datum(draw)
    r = len(rd.simple_roots)
    c = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, -1]), min_size=r,
                      max_size=r))
    if draw(st.booleans()):
        c = [c[min(i, s)] for i, s in enumerate(rd.minus_w0_perm)]
    scale = Fraction(draw(st.integers(1, 2)),
                     draw(st.sampled_from([1, 1, 1, 2, 3])))
    coords = [scale * x for x in c]
    if draw(st.booleans()):
        return rd, rd.fundamental_weights, coords
    lam = combo(coords, rd.fundamental_weights, dim=rd.dim)
    zs = reference_nullspace(rd.simple_coroots, rd.dim)
    if zs and draw(st.booleans()):
        lam = rl.add(lam, rl.scale(Fraction(draw(st.integers(-2, 2)),
                                            draw(st.integers(1, 2))),
                                   draw(st.sampled_from(zs))))
    return rd, None, lam


@settings(max_examples=300, deadline=None)
@given(data_basis_and_coords())
def test_weight_forms_match_the_reference_predicate(case):
    rd, basis, coords = case
    forms = rd.weight_forms(basis)
    m, d = forms.lift(*rl.scaled(rl.vec(coords)))
    lam = tuple(Fraction(x, d) for x in m)
    assert lam == (tuple(rl.vec(coords)) if basis is None
                   else combo(coords, basis, dim=rd.dim))
    labels, failed = forms_rejection(rd, basis, coords)
    assert failed == reference_rejection(rd, lam)
    assert labels == (None if failed == "character" else rd.dynkin_labels(lam))
    # a hyperbolic block stops after dominance
    assert forms.read(m, d) == (
        labels, failed if failed in ("character", "dominant") else None)
    assert rd.is_character(lam) == (failed != "character")
    assert rd.is_dominant(lam) == (min(rd.dynkin_labels(lam), default=0) >= 0)
    if failed not in ("character", "dominant"):
        cls = classify(rd, lam)
        assert cls.self_dual == reference_fixed_by_minus_w0(rd, lam, labels)
        assert cls.fs_parity == reference_two_delta_pairing(rd, lam) % 2
        assert forms.parity(labels) == reference_two_delta_pairing(rd, lam)


def test_weight_forms_reach_every_verdict():
    # one weight per verdict, in fundamental-weight coordinates of C3 x A2
    # with a central torus: a half-integral, a negative, a non-self-dual,
    # a symplectic and an orthogonal label vector
    rd = build_root_datum([("C", 3), ("A", 2)], central_rank=1)
    assert [forms_rejection(rd, rd.fundamental_weights, c)[1] for c in (
        [Fraction(1, 2), 0, 0, 0, 0], [1, -1, 1, 0, 0], [0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0], [0, 1, 0, 1, 1])] == [
        "character", "dominant", "self-dual", "parity", None]


# ----------------------------------------------------------------------
# the multiplicity oracle, exactly, on random root data

@st.composite
def data_orthogonal_weight_and_cochar(draw, simple=False):
    """A ``random_datum`` and whether it has a central torus, an orthogonal
    lam of dim V <= 2000 on it (labels symmetric under -w0, no central
    part, an even multiple when the Frobenius-Schur parity is odd) and a
    lattice cocharacter nu."""
    rd, central = random_datum(draw, simple)
    r = len(rd.simple_roots)
    c = draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=r, max_size=r))
    c = [c[min(i, s)] for i, s in enumerate(rd.minus_w0_perm)]
    lam = least_character_multiple(
        rd, combo(c, rd.fundamental_weights, dim=rd.dim))
    if reference_two_delta_pairing(rd, lam) % 2:
        lam = rl.scale(2, lam)
    assume(weyl_dim(rd, lam) <= 2000)
    n = len(rd.cochar_basis)
    nu = combo(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
                  rd.cochar_basis, dim=rd.dim)
    return rd, central, lam, nu


@settings(max_examples=30, deadline=None)
@given(data_orthogonal_weight_and_cochar())
def test_multiplicities_exactly_on_random_data(case):
    rd, central, lam, nu = case
    assert forms_rejection(rd, None, lam) == (rd.dynkin_labels(lam), None)
    table = freudenthal_multiplicities(rd, lam)
    items = list(table.items())
    assert len(items) == len(table)
    assert sum(m for _, m in items) == table.total_dim == weyl_dim(rd, lam)
    q = q_irreducible(rd, lam, nu)
    # summed per dominant weight over the orbit of nu, L and the second
    # moment are the sums over every weight; the moment is the trace form,
    # 2 q exactly
    pairs = [(dot(mu, nu), m) for mu, m in items]
    assert L_phi(rd, table, nu) == sum(m * p for p, m in pairs if p > 0)
    assert table.pairing_sums(nu)[1] == sum(
        m * p * p for p, m in pairs) == 2 * q
    assert (L_phi(rd, table, nu) - q) % 2 == 0
    for mu, m in items:
        assert table.multiplicity(mu) == m and mu in table
        for a, a_v in zip(rd.simple_roots, rd.simple_coroots):
            image = sub(mu, rl.scale(dot(mu, a_v), a))
            assert table.multiplicity(image) == m
    # points off lam + Q: half a root, or a vector every coroot kills
    half = rl.add(lam, rl.scale(Fraction(1, 2), rd.simple_roots[0]))
    assert table.multiplicity(half) == 0 and half not in table
    for z in reference_nullspace(rd.simple_coroots, rd.dim):
        assert table.multiplicity(rl.add(lam, z)) == 0
    if central:
        # a central part moves every weight and enters <mu, nu>
        shift = rl.scale(4, unit(rd.dim, rd.dim - 1))
        moved = freudenthal_multiplicities(rd, rl.add(lam, shift))
        assert sorted(moved.items()) == sorted(
            (rl.add(mu, shift), m) for mu, m in items)
        pairs = [(dot(mu, nu), m) for mu, m in moved.items()]
        assert L_phi(rd, moved, nu) == sum(m * p for p, m in pairs if p > 0)
    fams, simple_central = rd.lie_type
    if len(fams) == 1 and simple_central == 0:
        reg = make_regular(rd, nu)
        assert q_via_weyl_sum(rd, lam, reg) == q_irreducible(rd, lam, reg)


@settings(max_examples=40, deadline=None)
@given(data_orthogonal_weight_and_cochar(simple=True))
def test_cochar_table_weyl_sum_matches_the_closed_form(case):
    # over the signed orbit of the regular point, read from its table, the
    # alternating sum is the one over the orbit of lam + delta, and the
    # Weyl-sum q is q_irreducible there; the orbit has |W| points, half of
    # them of each sign
    rd, _, lam, nu = case
    reg = make_regular(rd, nu)
    table = rd.cochar_table(reg)
    points, cden = table.signed_orbit, table.omega[1]
    assert table.nu == reg and table.d_nu != 0
    assert len(points) == rd.weyl_order
    assert sum(sign for _, sign in points) == 0
    n2 = rd.num_positive_roots + 2
    shifted = [x + 1 for x in rd.dynkin_labels(lam)]
    s, k, den = table.pairing_form(*rl.scaled(lam))
    c = [s * x for x in table.omega[0]]
    assert den == s * cden and [Fraction(x, den) for x in c] == [
        dot(w, reg) for w in rd.fundamental_weights]
    assert Fraction(k, den) == dot(
        lam, reference_coroot_span_decomposition(rd, reg)[1])
    assert sum(sign * (s * sum(map(mul, y, shifted)) + k) ** n2
               for y, sign in points) == sum(
        sign * (sum(map(mul, c, x)) + k) ** n2 for x, sign in
        rd.weyl_orbit_signed(rl.add(lam, rd.delta)).items())
    assert q_via_weyl_sum(rd, lam, reg) == q_irreducible(rd, lam, reg)
    assert rd.cochar_table(reg) is table


def reference_dominant_multiplicities(rd, lam):
    """The dominant multiplicities of V_lam by Freudenthal's recursion with
    the plain sum over every positive root: the string mu + k alpha is
    walked for each alpha at each dominant mu, with no grouping of the
    roots into W_mu-classes, and the dominant weights are found by
    subtracting every positive root."""
    top = rd.dynkin_labels(lam)
    roots = rd.positive_root_labels
    dominant, seen = [top], {top}
    for mu in dominant:
        for beta in roots:
            nxt = tuple(a - b for a, b in zip(mu, beta))
            if min(nxt) >= 0 and nxt not in seen:
                seen.add(nxt)
                dominant.append(nxt)
    # the heights of the fundamental weights times det^2, and B(x, y) =
    # sum_{beta > 0} <x, beta^v><y, beta^v>, built here rather than read
    # off the datum's tables
    adj, det = rl.row_span_table(rd.cartan_matrix, len(rd.cartan_matrix))[1:3]
    heights = [sum(row) * det for row in adj]
    coroots = rd.positive_coroot_coords
    form = [[sum(k[i] * k[j] for k in coroots) for j in range(len(adj))]
            for i in range(len(adj))]
    form_roots = [[sum(map(mul, row, a)) for row in form] for a in roots]
    dominant.sort(key=lambda mu: -sum(map(mul, heights, mu)))

    def norm(v):
        shifted = [x + 1 for x in v]
        return sum(x * sum(map(mul, row, shifted))
                   for x, row in zip(shifted, form))

    mults = {top: 1}
    for mu in dominant[1:]:
        num = 0
        for alpha, fa in zip(roots, form_roots):
            cur = mu
            while True:
                cur = tuple(a + b for a, b in zip(cur, alpha))
                m = mults.get(rd.dominant_point(cur)[0])
                if m is None:
                    break
                num += m * sum(map(mul, cur, fa))
        m, rem = divmod(2 * num, norm(top) - norm(mu))
        assert rem == 0 and m > 0
        mults[mu] = m
    return mults


def assert_class_sum_matches_the_plain_loop(rd, lam):
    table = freudenthal_multiplicities(rd, lam)
    got = {rd.dynkin_labels(mu): m for mu, m in table.dominant_items()}
    assert got == reference_dominant_multiplicities(rd, lam)


@settings(max_examples=30, deadline=None)
@given(data_orthogonal_weight_and_cochar())
def test_class_sum_matches_the_plain_loop_on_random_data(case):
    assert_class_sum_matches_the_plain_loop(case[0], case[2])


@pytest.mark.parametrize("name", ["SO8", "Spin8", "F4", "G2", "SO7", "Sp6"])
def test_class_sum_matches_the_plain_loop_on_box_2(name):
    g = group_by_name(name)
    rows = [lam for _, lam in dominant_orthogonal_weights(
        g.rd, 2, basis=g.weight_basis) if weyl_dim(g.rd, lam) <= 10 ** 4]
    assert len(rows) > 5
    for lam in rows:
        assert_class_sum_matches_the_plain_loop(g.rd, lam)


def same_roots(rd):
    """A fresh datum with rd's roots and lattice, holding none of its memos."""
    return RootDatum(rd.simple_roots, rd.simple_coroots, rd.cochar_basis,
                     rd.central_cochars)


def dominant_table(rd, lam):
    return {rd.dynkin_labels(mu): m for mu, m in
            freudenthal_multiplicities(rd, lam).dominant_items()}


def assert_shared_strings_match_fresh_data(rd, rows, drop_at, bound):
    """The rows, in this order on one datum whose root strings are held
    to ``bound`` steps and dropped before row ``drop_at``, give the tables
    of the plain loop and of a fresh datum per row."""
    expected = [reference_dominant_multiplicities(rd, lam) for lam in rows]
    assert [dominant_table(same_roots(rd), lam) for lam in rows] == expected
    shared = same_roots(rd)
    with patch.object(repcalc, "ROOT_STRING_STEPS", bound):
        for i, (lam, want) in enumerate(zip(rows, expected)):
            if i == drop_at:
                shared.__dict__.pop("_root_strings", None)
            assert dominant_table(shared, lam) == want
            assert shared._root_strings.steps <= bound


@settings(max_examples=30, deadline=None)
@given(data_orthogonal_weight_and_cochar(), st.data())
def test_shared_root_strings_match_fresh_data_on_random_data(case, data):
    # the rows are lam and the dominant weights of V_lam, which share most
    # of their strings; a small bound drops the memo inside a row
    rd, _, lam, _ = case
    rows = [mu for mu, _ in
            freudenthal_multiplicities(same_roots(rd), lam).dominant_items()]
    rows = data.draw(st.permutations(rows))[:8]
    assert_shared_strings_match_fresh_data(
        rd, rows, data.draw(st.integers(0, len(rows))),
        data.draw(st.integers(1, 64)))


@pytest.mark.parametrize("name", ["SO8", "Spin8", "F4", "G2", "SO7", "Sp6"])
def test_shared_root_strings_match_fresh_data_on_box_2(name):
    g = group_by_name(name)
    rows = [lam for _, lam in dominant_orthogonal_weights(
        g.rd, 2, basis=g.weight_basis) if weyl_dim(g.rd, lam) <= 10 ** 4]
    Random(name).shuffle(rows)
    assert_shared_strings_match_fresh_data(g.rd, rows, len(rows) // 2,
                                           repcalc.ROOT_STRING_STEPS)


def oracle_results(rd, lam, nu):
    """What the oracle reads at the row (lam, nu): the dominant table,
    ``pairing_sums``, ``L_phi``, ``descent_check`` at d = 2 and the
    ``oracle_compare`` report, or the error each raises."""
    out = []
    for f in (lambda: dominant_table(rd, lam),
              lambda: freudenthal_multiplicities(rd, lam).pairing_sums(nu),
              lambda: L_phi(rd, freudenthal_multiplicities(rd, lam), nu),
              lambda: descent_check(rd, lam, nu, 2),
              lambda: oracle_compare(rd, lam, nu)):
        try:
            out.append(f())
        except (SpecificationError, IntegralityError) as exc:
            out.append(repr(exc))
    return out


def assert_shared_datum_matches_fresh_data(rd, rows, nu, drop_at, steps,
                                           values):
    """The rows at nu, in this order on one datum whose root strings are
    held to ``steps`` entries and each cocharacter table's orbit values to
    ``values``, both dropped before row ``drop_at``, give the
    ``oracle_results`` of a fresh datum per row."""
    expected = [oracle_results(same_roots(rd), lam, nu) for lam in rows]
    shared = same_roots(rd)
    with patch.object(repcalc, "ROOT_STRING_STEPS", steps), \
            patch.object(rootdata, "ORBIT_VALUES", values):
        for i, (lam, want) in enumerate(zip(rows, expected)):
            if i == drop_at:
                shared.__dict__.pop("_root_strings", None)
                shared.__dict__.pop("_cochar_tables", None)
            assert oracle_results(shared, lam, nu) == want
            assert shared._root_strings.steps <= steps
            for table in shared._cochar_tables.values():
                assert sum(len(vs) for vs, _, _ in vars(table).get(
                    "_orbit_values", {}).values()) <= values


@settings(max_examples=25, deadline=None)
@given(data_orthogonal_weight_and_cochar(), st.data())
def test_shared_datum_matches_fresh_data_on_random_data(case, data):
    # the rows are lam and the dominant weights of V_lam, which share most
    # of their graph nodes, strings and orbit values; small bounds drop the
    # memos inside a row
    rd, _, lam, nu = case
    rows = [mu for mu, _ in
            freudenthal_multiplicities(same_roots(rd), lam).dominant_items()]
    rows = data.draw(st.permutations(rows))[:6]
    assert_shared_datum_matches_fresh_data(
        rd, rows, nu, data.draw(st.integers(0, len(rows))),
        data.draw(st.integers(1, 64)), data.draw(st.integers(1, 256)))


@pytest.mark.parametrize("name", ["SO8", "Spin8", "F4", "G2", "SO7", "Sp6"])
def test_shared_datum_matches_fresh_data_on_box_2(name):
    g = group_by_name(name)
    rows = [lam for _, lam in dominant_orthogonal_weights(
        g.rd, 2, basis=g.weight_basis) if weyl_dim(g.rd, lam) <= 10 ** 4]
    Random(name).shuffle(rows)
    nu = (g.fg.generators or g.rd.simple_coroots)[0]
    assert_shared_datum_matches_fresh_data(
        g.rd, rows, nu, len(rows) // 2, repcalc.ROOT_STRING_STEPS,
        rootdata.ORBIT_VALUES)


def reference_root_classes(rd, zeros):
    """The classes of the positive roots under alpha -> +-w alpha, w in W_J
    (J = ``zeros``), by a breadth-first closure under the s_j, j in J, on
    simple-root coordinates: s_j lowers c_j by <beta, alpha_j^v>, and a
    negative root is replaced by its negative.  Maps each positive root's
    coordinates to its class, a frozenset."""
    def label(c, j):
        return sum(x * row[j] for x, row in zip(c, rd.cartan_matrix))

    out = {}
    for start in rd.positive_root_coords:
        if start in out:
            continue
        cls, queue = {start}, [start]
        for c in queue:
            for j in zeros:
                nxt = list(c)
                nxt[j] -= label(c, j)
                nxt = tuple(nxt) if max(nxt) > 0 else tuple(-x for x in nxt)
                if nxt not in cls:
                    cls.add(nxt)
                    queue.append(nxt)
        for c in cls:
            out[c] = frozenset(cls)
    return out


@settings(max_examples=40, deadline=None)
@given(st.composite(random_datum)())
def test_parabolic_classes_match_the_closure_on_random_data(case):
    rd = case[0]
    assume(rd.weyl_order <= 5000)
    r = len(rd.simple_roots)
    labels = dict(zip(rd.positive_root_coords, rd.positive_root_labels))
    for bits in product([0, 1], repeat=r):
        zeros = [j for j in range(r) if bits[j]]
        mu = [1 - b for b in bits]
        size, classes, candidates = rd.parabolic_table(mu)
        assert size == len(rd.label_orbit(mu))
        want = reference_root_classes(rd, zeros)
        reps = {a: n for a, _, n in classes}
        assert len(reps) == len(classes) == len(set(want.values()))
        assert sum(reps.values()) == rd.num_positive_roots
        for cls in set(want.values()):
            inside = [labels[c] for c in cls if labels[c] in reps]
            assert len(inside) == 1 and reps[inside[0]] == len(cls)
        assert candidates == [a for a in rd.positive_root_labels
                              if all(a[j] <= 0 for j in zeros)]


# ----------------------------------------------------------------------
# the integer root closure against the Fraction reflection closure

def reference_positive_roots(rd):
    """Positive roots with their coroots by the Euclidean reflection closure
    (Bourbaki, Lie groups and Lie algebras, ch. VI, 1): from the simple
    roots, apply every s_alpha and keep the images with nonnegative
    simple-root coordinates, in the same seed order and last-in first-out
    traversal as the package."""
    def span_coords(v):
        coords = rl.mat_vec(rd.fundamental_coweights, v)
        if combo(coords, rd.simple_roots) == tuple(v):
            return coords
        return None

    found = {}
    queue = list(zip(rd.simple_roots, rd.simple_coroots))
    for root, coroot in queue:
        found[root] = coroot
    while queue:
        beta, beta_v = queue.pop()
        for alpha, alpha_v in zip(rd.simple_roots, rd.simple_coroots):
            gamma = sub(beta, rl.scale(dot(beta, alpha_v), alpha))
            if gamma in found:
                continue
            coords = span_coords(gamma)
            if coords is None or not all(c >= 0 for c in coords):
                continue
            gamma_v = sub(beta_v, rl.scale(dot(alpha, beta_v), alpha_v))
            found[gamma] = gamma_v
            queue.append((gamma, gamma_v))
    return tuple(found.items()), span_coords


def assert_closure_matches_definition(rd):
    want, span_coords = reference_positive_roots(rd)
    assert rd.positive_roots == want
    assert rd.num_positive_roots == len(want)
    for (root, coroot), c, k, labels in zip(
            want, rd.positive_root_coords, rd.positive_coroot_coords,
            rd.positive_root_labels):
        assert combo(c, rd.simple_roots) == root
        assert combo(k, rd.simple_coroots) == coroot
        assert labels == rd.dynkin_labels(root)
    for fi, f in enumerate(rd.factors):
        support = [{i for i, x in enumerate(span_coords(r)) if x}
                   for r, _ in want]
        own = [s for s in support if s <= set(f.indices)]
        assert rd.factor_dim(fi) == f.rank + 2 * len(own)


@settings(max_examples=40, deadline=None)
@given(st.composite(random_datum)())
def test_root_closure_matches_the_definition_on_random_data(case):
    assert_closure_matches_definition(case[0])


def _benchmark_groups():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", Path(__file__).resolve().parent.parent
        / "bench" / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return sorted(set(harness.QUERY_GROUPS + harness.SWEEP_GROUPS
                      + harness.ORACLE_GROUPS))


@pytest.mark.parametrize("name", _benchmark_groups())
def test_root_closure_matches_the_definition_on_the_catalog(name):
    assert_closure_matches_definition(group_by_name(name).rd)


# ----------------------------------------------------------------------
# -w0 read off the diagram, against the chamber walk

def reference_minus_w0_perm(rd):
    """-w0 as a permutation of the labels by the old walk: the reflections
    that take -delta (labels all -1) to the dominant chamber spell w0; they
    are applied to the labels of the omega_i alongside."""
    a = rd.cartan_matrix
    n = len(a)
    vs = [[-1] * n] + [[int(i == j) for i in range(n)] for j in range(n)]
    while min(vs[0], default=0) < 0:
        i = vs[0].index(min(vs[0]))
        vs = [[x - v[i] * y for x, y in zip(v, a[i])] for v in vs]
    return tuple(v.index(-1) for v in vs[1:])


CATALOG_NAMES = sorted(set(CATALOG_RANK_LE_4 + summary_suite_specs()
                           + _benchmark_groups()
                           + ["E6", "E7", "E8", "E6adj", "E7adj", "SL20",
                              "Spin21", "PSO22", "Sp18"]))


def full_weyl_sum_q(rd, lam, nu):
    """q by the alternating Weyl sum over every point of the signed orbit
    of the regular nu, as ``q_via_weyl_sum`` defines it."""
    table, n2 = rd.cochar_table(nu), rd.num_positive_roots + 2
    s, k, den = table.pairing_form(*rl.scaled(lam))
    shifted = [x + 1 for x in rd.dynkin_labels(lam)]
    acc = sum(sign * (s * sum(map(mul, c, shifted)) + k) ** n2
              for c, sign in table.signed_orbit)
    return (Fraction(acc, factorial(n2) * den ** n2) / table.d_nu
            - Fraction(weyl_dim(rd, lam), 48) * sum(table.norms))


def simple_small_weyl(name):
    g = group_by_name(name)
    fams, central = g.rd.lie_type
    return len(fams) == 1 and central == 0 and g.rd.weyl_order <= 10 ** 5


SIMPLE_SMALL_WEYL = [n for n in CATALOG_NAMES if simple_small_weyl(n)]


@pytest.mark.parametrize("name", SIMPLE_SMALL_WEYL)
def test_weyl_sum_over_paired_orbit_matches_the_full_sum(name):
    # at the regular point of the first generator (or simple coroot), and
    # on small Weyl groups also at sum_i (i + 1) omega_i^v, which -w0 does
    # not fix where -1 is not in W: half the orbit, doubled, where it is
    # closed under y -> -y, else all of it; the adjoint representation
    g = group_by_name(name)
    rd = g.rd
    lam = highest_root(rd)
    nus = [make_regular(rd, (g.fg.generators or rd.simple_coroots)[0])]
    if rd.weyl_order <= 2000:
        nus.append(combo(range(1, len(rd.simple_roots) + 1),
                            rd.fundamental_coweights, dim=rd.dim))
    for nu in nus:
        table = rd.cochar_table(nu)
        points = {c for c, _ in table.signed_orbit}
        closed = all(tuple(-x for x in c) in points for c in points)
        half, twice = table.paired_orbit
        assert twice == (2 if closed else 1)
        assert len(half) * twice == len(points) == rd.weyl_order
        assert table.pairing_form(*rl.scaled(lam))[1] == 0
        assert q_via_weyl_sum(rd, lam, nu) == full_weyl_sum_q(rd, lam, nu) \
            == q_irreducible(rd, lam, nu)


def test_both_weyl_sum_branches_run():
    # -1 is in W for B, C, D_even, E7, E8, F4, G2; A_n (n > 1), D5 and E6
    # have regular points whose orbit is not closed under it
    def twice(name, asymmetric=False):
        g = group_by_name(name)
        rd = g.rd
        nu = (combo(range(1, len(rd.simple_roots) + 1),
                       rd.fundamental_coweights, dim=rd.dim) if asymmetric
              else (g.fg.generators or rd.simple_coroots)[0])
        return rd.cochar_table(make_regular(rd, nu)).paired_orbit[1]
    assert twice("PGL3") == twice("E6") == 1
    assert twice("SL4", True) == twice("SO10", True) == 1
    assert twice("Spin8", True) == twice("SO10") == 2
    assert twice("F4") == twice("G2") == twice("Sp6") == 2


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_minus_w0_perm_matches_the_walk_on_the_catalog(name):
    rd = group_by_name(name).rd
    assert rd.minus_w0_perm == reference_minus_w0_perm(rd)


@settings(max_examples=40, deadline=None)
@given(st.composite(random_datum)())
def test_minus_w0_perm_matches_the_walk_on_random_data(case):
    rd = case[0]
    assert rd.minus_w0_perm == reference_minus_w0_perm(rd)


DIAGRAM_TYPES = [("A", 1), ("A", 2), ("A", 5), ("A", 6), ("B", 3), ("C", 4),
                 ("D", 4), ("D", 5), ("D", 6), ("D", 7), ("E", 6), ("E", 7),
                 ("F", 4), ("G", 2)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(DIAGRAM_TYPES), min_size=1, max_size=2),
       st.randoms(use_true_random=False))
def test_minus_w0_perm_matches_the_walk_with_shuffled_nodes(types, rnd):
    a = build_root_datum(types).cartan_matrix
    order = list(range(len(a)))
    rnd.shuffle(order)
    cartan = [[a[i][j] for j in order] for i in order]
    roots, coroots, _, _ = _from_cartan(cartan)
    rd = RootDatum(roots, coroots, coroots)
    perm = rd.minus_w0_perm
    assert perm == reference_minus_w0_perm(rd)
    assert [perm[i] for i in perm] == list(range(len(a)))
    assert [[cartan[perm[i]][perm[j]] for j in order] for i in order] == [
        [cartan[i][j] for j in order] for i in order]


def reference_finite_type(a):
    """The components of a generalized Cartan matrix a, each with its
    determinant, if a is of finite type, else None: its symmetrization
    d_i a_ij, d_j = d_i a_ij / a_ji along a walk, is symmetric and every
    leading principal minor on a component is positive, by Fraction
    elimination without pivoting (the pivots are ratios of those minors)."""
    n = len(a)
    d, comps = [None] * n, []
    for first in range(n):
        if d[first] is not None:
            continue
        d[first], comp, stack = Fraction(1), [], [first]
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if d[j] is None and a[i][j]:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    stack.append(j)
        comps.append(sorted(comp))
    sym = [[d[i] * x for x in row] for i, row in enumerate(a)]
    if sym != [list(col) for col in zip(*sym)]:
        return None
    out = []
    for comp in comps:
        m, det = [[sym[i][j] for j in comp] for i in comp], Fraction(1)
        for k, top in enumerate(m):
            if top[k] <= 0:
                return None
            det *= top[k]
            for row in m[k + 1:]:
                f = row[k] / top[k]
                row[:] = [x - f * y for x, y in zip(row, top)]
        out.append((comp, det / prod(d[i] for i in comp)))
    return out


@st.composite
def generalized_cartan(draw):
    """2 on the diagonal, entries 0, -1, -2, -3 off it, zero where the
    transposed entry is."""
    n = draw(st.integers(1, 6))
    off = draw(st.lists(st.sampled_from([0, 0, 0, -1, -1, -1, -2, -3]),
                        min_size=n * n, max_size=n * n))
    return [[2 if i == j else off[i * n + j] if off[j * n + i] else 0
             for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(generalized_cartan())
def test_cartan_factors_match_the_dense_minors(a):
    want = reference_finite_type(a)
    if want is None:
        with pytest.raises(SpecificationError, match="not of finite type"):
            cartan_factors(cartan_checked(a))
        return
    got = cartan_factors(cartan_checked(a))
    assert [list(f.indices) for f in got] == [comp for comp, _ in want]
    dets = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2,
            "D": lambda r: 4, "E": lambda r: 9 - r, "F": lambda r: 1,
            "G": lambda r: 1}
    assert [dets[f.family](f.rank) for f in got] == [det for _, det in want]
    # the reflection closure finds the classified root count per factor
    roots, coroots, _, _ = _from_cartan(a)
    rd = RootDatum(roots, coroots, coroots)
    assert rd.num_positive_roots == sum(
        expected_root_count(f.family, f.rank) for f in got) // 2
    # the adjugate off each factor's leaf elimination is the eliminated one
    assert rd._cartan_adj == tuple(rl.row_span_table(a, len(a))[1:3])


# ----------------------------------------------------------------------
# the sweep on integer forms, against the Euclidean brute force

def euclidean_orthogonal(rd, lam):
    """lam is a dominant character with -w0 lam = lam and <lam, 2 delta_v>
    even, each read off the Euclidean definition."""
    return (reference_is_character(rd, lam)
            and all(dot(lam, co) >= 0 for co in rd.simple_coroots)
            and euclidean_dominant_conjugate(rd, rl.scale(-1, lam))[0]
            == tuple(lam)
            and sum(dot(lam, co) for _, co in rd.positive_roots) % 2 == 0)


@st.composite
def data_basis_and_box(draw):
    """A ``random_datum``, a basis of weights and a box.  The basis is the
    fundamental weights, their halves or the simple roots (all permuted by
    -w0), shuffled multiples of the fundamental weights (permuted when the
    multiples agree on each sigma orbit), the pairs omega_i + z, omega_s(i)
    -/+ z with z central (permuted for the minus sign), the fundamental
    weights plus multiples of vectors all coroots kill, or independent
    integer combinations of the fundamental weights over 1 or 2, with an
    optional half-integral ambient part (-w0 permutes neither of the last
    two, in general)."""
    rd, _ = random_datum(draw)
    r = len(rd.simple_roots)
    box = draw(st.integers(0, 2))
    assume((box + 1) ** r <= 256)
    w = rd.fundamental_weights
    sigma = rd.minus_w0_perm
    # vectors all coroots kill: -w0 negates them
    zs = [rl.vec(rl.scaled(z)[0])
          for z in reference_nullspace(rd.simple_coroots, rd.dim)]
    kind = draw(st.sampled_from(["fundamental", "half", "roots", "shuffled",
                                 "paired", "central", "mixed"]))
    if kind == "fundamental":
        return rd, w, box
    if kind == "half":
        return rd, [rl.scale(Fraction(1, 2), v) for v in w], box
    if kind == "roots":
        return rd, rd.simple_roots, box
    if kind == "shuffled":
        mult = [draw(st.integers(1, 2)) for _ in w]
        if draw(st.booleans()):
            mult = [mult[min(i, s)] for i, s in enumerate(sigma)]
        order = draw(st.permutations(range(r)))
        return rd, [rl.scale(mult[i], w[i]) for i in order], box
    if kind == "paired":
        assume(zs)
        basis = list(w)
        sign = draw(st.sampled_from([-1, 1]))
        for i, s in rd._sigma_pairs:
            z = rl.scale(Fraction(draw(st.integers(-2, 2)), 2),
                         draw(st.sampled_from(zs)))
            basis[i] = rl.add(w[i], z)
            basis[s] = rl.add(w[s], rl.scale(sign, z))
        return rd, basis, box
    if kind == "central":
        # a character with a part all coroots kill is not self-dual, and
        # one along a quotiented direction no character at all
        assume(zs)
        return rd, [rl.add(v, rl.scale(draw(st.integers(-1, 2)),
                                       draw(st.sampled_from(zs))))
                    for v in w], box
    entries = st.lists(st.integers(-1, 2), min_size=r, max_size=r)
    den = draw(st.sampled_from([1, 2]))
    basis = []
    for _ in range(r):
        v = combo(draw(entries), w, dim=rd.dim)
        if draw(st.booleans()):
            extra = draw(st.lists(st.integers(-1, 1), min_size=rd.dim,
                                  max_size=rd.dim))
            v = rl.add(v, rl.scale(Fraction(1, 2), extra))
        basis.append(rl.scale(Fraction(1, den), v))
    assume(reference_rank(basis) == r)
    return rd, basis, box


@settings(max_examples=100, deadline=None)
@given(data_basis_and_box())
def test_sweep_matches_the_euclidean_brute_force(case):
    rd, basis, box = case
    want = [(c, lam) for c in product(range(box + 1), repeat=len(basis))
            if euclidean_orthogonal(rd, lam := combo(c, basis,
                                                         dim=rd.dim))]
    assert list(dominant_orthogonal_weights(rd, box, basis=basis)) == want
    # the sweep reads -w0 off labels and central pairings
    vecs = [tuple(rl.vec(b)) for b in basis]
    images = [rl.mat_vec(rd.minus_w0_matrix, b) for b in vecs]
    assert rd.weight_forms(basis).coordinate_forms[0] == (
        [vecs.index(im) for im in images]
        if all(im in vecs for im in images) else None)
    assert all(forms_rejection(rd, None, lam)[1] is None for _, lam in want)


# ----------------------------------------------------------------------
# the verdict's integer forms against the term-by-term closed form

def assert_verdict_is_the_term_by_term_q(rd, fg, rep):
    v = is_spinorial(rd, fg, rep)
    assert [nu for nu, _ in v.certificate] == list(fg.generators)
    for nu, q in v.certificate:
        _, nu_z = reference_coroot_span_decomposition(rd, nu)
        want = sum(q_irreducible(rd, lam, nu) for lam in rep.irreducible)
        want += sum(dot(g, nu_z) * weyl_dim(rd, g) for g in rep.hyperbolic)
        assert type(q) is int and q == want == q_rep(rd, rep, nu)
    assert v.spinorial == all(q % 2 == 0 for q in v.q_values())


@st.composite
def data_group_and_rep(draw):
    """A ``random_datum`` with its fundamental group, and a representation
    of one to three orthogonal summands from the box-1 sweep plus, at
    times, a hyperbolic block."""
    rd, central = random_datum(draw)
    points = [lam for _, lam in dominant_orthogonal_weights(rd, 1)]
    irr = draw(st.lists(st.sampled_from(points), min_size=1, max_size=3))
    hyp = []
    if draw(st.booleans()):
        r = len(rd.simple_roots)
        gamma = combo(draw(st.lists(st.integers(0, 2), min_size=r,
                                       max_size=r)),
                         rd.fundamental_weights, dim=rd.dim)
        if central:
            gamma = gamma[:-1] + (Fraction(draw(st.integers(-2, 2))),)
        hyp = [least_character_multiple(rd, gamma)]
    return rd, fundamental_group(rd), OrthRep(tuple(irr), tuple(hyp))


@settings(max_examples=40, deadline=None)
@given(data_group_and_rep())
def test_verdict_q_is_the_sum_of_the_closed_forms(case):
    assert_verdict_is_the_term_by_term_q(*case)


@pytest.mark.parametrize("name", ["PSO8", "PSO12", "PSO16", "SL12/mu6",
                                  "E7adj", "GL3", "PSp8"])
def test_verdict_q_on_every_generator(name):
    # PSO groups have two generators, GL a central one
    g = group_by_name(name)
    points = [lam for _, lam in dominant_orthogonal_weights(
        g.rd, 1, basis=g.weight_basis)]
    for i in range(0, len(points), max(1, len(points) // 12)):
        rep = OrthRep(irreducible=(points[i], points[-1 - i]),
                      hyperbolic=(g.weight_basis[0],))
        assert_verdict_is_the_term_by_term_q(g.rd, g.fg, rep)


def test_verdict_forms_follow_the_fundamental_group_object():
    # the forms are found by the identity of fg: another generating set on
    # the same datum gets its own certificate
    g = group_by_name("PSO8")
    rep = OrthRep(irreducible=(tuple(g.weight_from_coords([1, 0, 1, 1])),))
    first = is_spinorial(g.rd, g.fg, rep)
    other = FundGroupData(g.fg.invariant_factors, tuple(
        rl.scale(3, nu) for nu in g.fg.generators))
    assert is_spinorial(g.rd, other, rep).q_values() == tuple(
        q_rep(g.rd, rep, nu) for nu in other.generators)
    assert is_spinorial(g.rd, g.fg, rep) == first


# ----------------------------------------------------------------------
# the reflection-tree orbit and the integer pairings, against definitions

def reference_label_orbit(rd, labels):
    """The Weyl orbit by a breadth-first walk that reflects each point at
    every nonzero label and keeps the images it has not seen, each with the
    negated sign of the point it was reached from."""
    rows = rd.cartan_matrix
    labels = tuple(labels)
    orbit = {labels: 1}
    queue = [labels]
    for cur in queue:
        sign = -orbit[cur]
        for x, row in zip(cur, rows):
            if x:
                nxt = tuple([a - x * b for a, b in zip(cur, row)])
                if nxt not in orbit:
                    orbit[nxt] = sign
                    queue.append(nxt)
    return orbit


def stabilizer_order(rd, labels):
    """|W_lam|: the Weyl group generated by the nodes with label 0."""
    zero = [i for i, x in enumerate(labels) if x == 0]
    if not zero:
        return 1
    roots, coroots, _, _ = _from_cartan(
        [[rd.cartan_matrix[i][j] for j in zero] for i in zero])
    return RootDatum(roots, coroots, coroots).weyl_order


@st.composite
def data_and_labels(draw):
    """A ``random_datum`` of Weyl order <= 5000, dominant labels with zeros
    among them, and a word in the simple reflections."""
    rd, _ = random_datum(draw)
    assume(rd.weyl_order <= 5000)
    r = len(rd.simple_roots)
    labels = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=r,
                           max_size=r))
    word = draw(st.lists(st.integers(0, r - 1), max_size=6))
    return rd, labels, word


@settings(max_examples=60, deadline=None)
@given(data_and_labels())
def test_label_orbit_matches_the_breadth_first_walk(case):
    rd, labels, word = case
    orbit = rd.label_orbit(labels)
    assert orbit == reference_label_orbit(rd, labels)
    assert len(orbit) == rd.weyl_order // stabilizer_order(rd, labels)
    # each point is expanded once: at most one reflection read per positive
    # label of each point (a point reached twice would be expanded twice)
    reads = []

    class Row(tuple):
        def __iter__(self):
            reads.append(self)
            return super().__iter__()

    probe = object.__new__(RootDatum)
    probe.cartan_matrix = tuple(map(Row, rd.cartan_matrix))
    assert probe.label_orbit(labels) == orbit
    assert len(reads) <= sum(x > 0 for mu in orbit for x in mu)
    # from a regular point off the dominant chamber, det(w) is still the
    # sign of the w that reaches each point from it
    start = [x + 1 for x in labels]
    for i in word:
        x = start[i]
        start = [a - x * b for a, b in zip(start, rd.cartan_matrix[i])]
    assert rd.label_orbit(start) == reference_label_orbit(rd, start)


def reference_pairing_orbit(rd, c):
    """The vectors den <omega_i, y> over the Weyl orbit of y, from those of
    one point by closing under every s_j, which lowers the j-th entry by
    den <alpha_j, y> = sum_i a_ji c_i."""
    orbit = {tuple(c)}
    queue = [tuple(c)]
    for cur in queue:
        for j, row in enumerate(rd.cartan_matrix):
            nxt = list(cur)
            nxt[j] -= sum(map(mul, row, cur))
            if tuple(nxt) not in orbit:
                orbit.add(tuple(nxt))
                queue.append(tuple(nxt))
    return orbit


@settings(max_examples=60, deadline=None)
@given(data_and_labels())
def test_orbit_sizes_and_the_orbit_of_nu(case):
    rd, labels, word = case
    start = list(labels)
    for i in word:
        x = start[i]
        start = [a - x * b for a, b in zip(start, rd.cartan_matrix[i])]
    size = len(rd.label_orbit(labels))
    assert rd.orbit_size(labels) == rd.orbit_size(start) == size
    # nu with labels <alpha_j, nu> = start: often singular, rarely dominant
    lam = combo(labels, rd.fundamental_weights, dim=rd.dim)
    nu = combo(start, rd.fundamental_coweights, dim=rd.dim)
    table = rd.cochar_table(nu)
    s, k, den = table.pairing_form(*rl.scaled(lam))
    c = [s * x for x in table.omega[0]]
    cs = [[s * x for x in y] for y, _ in table.signed_orbit]
    assert [Fraction(x, den) for x in c] == [
        dot(w, nu) for w in rd.fundamental_weights]
    assert Fraction(k, den) == dot(
        lam, reference_coroot_span_decomposition(rd, nu)[1])
    assert sorted(map(tuple, cs)) == sorted(reference_pairing_orbit(rd, c))
    assert table.orbit_size == len(cs)
    # |W nu| |W_nu| = |W|, W_nu from the zero labels of the dominant point
    top = next(y for y in cs if min(sum(map(mul, row, y))
                                    for row in rd.cartan_matrix) >= 0)
    stab = stabilizer_order(rd, [sum(map(mul, row, top))
                                 for row in rd.cartan_matrix])
    assert len(cs) * stab == rd.weyl_order
    assert rd.orbit_size(start, tuple(zip(*rd.cartan_matrix))) == len(cs)
    # the reindexing: the orbit of mu against nu, through the orbit of nu
    values = sorted(sum(map(mul, y, labels)) + k for y in cs)
    direct = sorted(sum(map(mul, c, x)) + k for x in rd.label_orbit(labels))
    assert [v for v in values for _ in range(size)] == [
        v for v in direct for _ in range(len(cs))]
    # -1 maps the orbit of nu into itself iff it maps its dominant point in;
    # at a regular point the half then holds one point of each pair {y, -y}
    points = [y for y, _ in table.signed_orbit]
    half, twice = table.paired_orbit
    assert (twice == 2) == (tuple(-x for x in top) in set(map(tuple, cs)))
    if twice == 1:
        assert half == table.signed_orbit
    elif table.d_nu:
        ys = [y for y, _ in half]
        assert 2 * len(ys) == len(points)
        assert set(ys) | {tuple(-x for x in y) for y in ys} == set(points)


def reference_make_regular(rd, nu):
    """nu + t rho_v for the least t >= 0 where no positive root vanishes,
    each <alpha, nu + t rho_v> a Euclidean Fraction dot product."""
    rho_v = combo((1,) * len(rd.simple_roots), rd.fundamental_coweights,
                     dim=rd.dim)
    for t in range(rd.num_positive_roots + 1):
        cand = rl.add(nu, rl.scale(t, rho_v))
        if all(dot(root, cand) for root, _ in rd.positive_roots):
            return cand


@st.composite
def data_weight_and_cochar(draw):
    """A ``random_datum``, a dominant weight with rational labels and a
    rational part on the central torus, and a rational cocharacter from
    small multiples of the fundamental coweights (often singular) plus an
    ambient part."""
    rd, central = random_datum(draw)
    r = len(rd.simple_roots)
    small = st.fractions(-2, 2, max_denominator=3)
    lam = combo(draw(st.lists(st.sampled_from([0, 1, Fraction(1, 2), 3]),
                                 min_size=r, max_size=r)),
                   rd.fundamental_weights, dim=rd.dim)
    nu = combo(draw(st.lists(st.sampled_from([0, 0, 1, -1, Fraction(1, 3)]),
                                min_size=r, max_size=r)),
                  rd.fundamental_coweights, dim=rd.dim)
    if central:
        lam = lam[:-1] + (draw(small),)
    nu = rl.add(nu, [draw(small) for _ in range(rd.dim)])
    return rd, lam, nu


@settings(max_examples=60, deadline=None)
@given(data_weight_and_cochar())
def test_integer_pairings_match_the_euclidean_definitions(case):
    rd, lam, nu = case
    reg = make_regular(rd, nu)
    assert reg == reference_make_regular(rd, nu)
    assert all(dot(root, reg) for root, _ in rd.positive_roots)
    assert rd.cochar_table(nu).d_nu == prod((dot(root, nu) for root, _ in
                                 rd.positive_roots), start=Fraction(1))
    table = rd.cochar_table(nu)
    assert rd.cochar_norm_sq(nu) == 2 * sum(
        dot(root, nu) ** 2 for root, _ in rd.positive_roots)
    assert len(table.norms) == len(rd.factors)
    for norm, roots in zip(table.norms, rd._roots_by_factor):
        assert norm == 2 * sum(dot(root, nu) ** 2 for root, _ in roots)
    s, k, den = table.pairing_form(*rl.scaled(lam))
    c = [s * x for x in table.omega[0]]
    assert den > 0 and gcd(*c, k, den) == 1
    assert [Fraction(x, den) for x in c] == [
        dot(w, nu) for w in rd.fundamental_weights]
    # every weight lam - sum of simple roots pairs by the integer form
    for steps in ([], [0], list(range(len(c))) * 2):
        mu = sub(lam, combo([steps.count(i) for i in range(len(c))],
                                  rd.simple_roots, dim=rd.dim))
        assert Fraction(sum(map(mul, c, rd.dynkin_labels(mu))) + k,
                        den) == dot(mu, nu)


def reference_inverse_killing(rd):
    """Per factor: its indices and the inverse of its Killing Gram matrix
    on the simple coroots, as Fractions, from the dense sum over every root
    of every pair of labels."""
    roots = rd.positive_root_labels
    out = []
    for f in rd.factors:
        gram = [[2 * sum(l[a] * l[b] for l in roots) for b in f.indices]
                for a in f.indices]
        adj, det = rl.row_span_table(gram, len(gram))[1:3]
        out.append((f.indices, [[Fraction(x, det) for x in row]
                                for row in adj]))
    return out


def assert_inverse_killing_matches_the_dense_inverse(rd, pairs):
    """``label_inner`` on each factor and in all is l1 . K^-1 l2 for each
    pair of labels, K the dense Gram matrix; and the Casimir of each
    factor's highest root (of greatest height) is 1 on that factor."""
    reference = reference_inverse_killing(rd)
    for l1, l2 in pairs:
        want = [sum(l1[a] * x * l2[b] for a, row in zip(idx, inv)
                    for b, x in zip(idx, row)) for idx, inv in reference]
        assert [rd.label_inner(l1, l2, factor=i)
                for i in range(len(want))] == want
        assert rd.label_inner(l1, l2) == sum(want)
    for i, f in enumerate(rd.factors):
        theta = max((c for c in rd.positive_root_coords
                     if any(c[j] for j in f.indices)), key=sum)
        lam = combo(theta, rd.simple_roots, dim=rd.dim)
        assert casimir_value(rd, lam, factor=i) == 1


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sparse_inverse_killing_matches_the_dense_sum_on_the_catalog(name):
    rd = group_by_name(name).rd
    rng, r = Random(name), len(rd.simple_roots)
    assert_inverse_killing_matches_the_dense_inverse(rd, [
        tuple([rng.randint(-4, 4) for _ in range(r)] for _ in range(2))
        for _ in range(5)])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.composite(random_datum)())
def test_sparse_inverse_killing_matches_the_dense_sum_on_random_data(data,
                                                                     case):
    rd = case[0]
    labels = st.lists(st.integers(-4, 4), min_size=len(rd.simple_roots),
                      max_size=len(rd.simple_roots))
    assert_inverse_killing_matches_the_dense_inverse(rd, [
        (data.draw(labels), data.draw(labels)) for _ in range(5)])


# ----------------------------------------------------------------------
# the invariant form B of ``_invariant_form``, read off the Cartan
# adjugate, against its definitions

def assert_invariant_form_identities(rd):
    """B is symmetric, positive on the diagonal and invariant under each
    s_i acting on labels, x -> x - x_i a_i; on each factor it is a positive
    multiple of the coroot sum sum_{beta > 0} k k^T (k: beta^v in the
    simple coroots), and 0 between factors; and B(., beta) = det e_i c_i,
    c beta's simple-root coordinates and e the factors' ``lengths``, which
    symmetrize the Cartan matrix: a_ij e_j = a_ji e_i, e_i > 0."""
    form, s = rd._invariant_form
    a, n = rd.cartan_matrix, len(rd.cartan_matrix)
    det = rl.row_span_table(a, n)[2]
    assert [list(row) for row in zip(*form)] == [list(row) for row in form]
    assert all(form[i][i] > 0 for i in range(n))
    for i in range(n):
        refl = [[int(j == k) - (j == i) * a[i][k] for k in range(n)]
                for j in range(n)]      # row j: the labels of s_i e_j
        assert mat_mul(mat_mul(refl, form), list(zip(*refl))) == tuple(
            map(tuple, form))
    coroot_sum = [[sum(k[i] * k[j] for k in rd.positive_coroot_coords)
                   for j in range(n)] for i in range(n)]
    e = [None] * n
    for f in rd.factors:
        idx, first = f.indices, f.indices[0]
        for i, x in zip(idx, f.lengths):
            e[i] = x
        assert min(f.lengths) > 0
        for i in idx:
            for j in range(n):
                if j not in idx:
                    assert form[i][j] == coroot_sum[i][j] == 0
                else:
                    assert (form[i][j] * coroot_sum[first][first]
                            == coroot_sum[i][j] * form[first][first])
    assert all(a[i][j] * e[j] == a[j][i] * e[i]
               for i in range(n) for j in range(n))
    assert list(s) == [det * x for x in e]
    for c, labels in zip(rd.positive_root_coords, rd.positive_root_labels):
        assert [sum(map(mul, row, labels)) for row in form] == [
            det * x * y for x, y in zip(e, c)]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_invariant_form_identities_on_the_catalog(name):
    assert_invariant_form_identities(group_by_name(name).rd)


@settings(max_examples=40, deadline=None)
@given(st.composite(random_datum)())
def test_invariant_form_identities_on_random_data(case):
    assert_invariant_form_identities(case[0])


# ----------------------------------------------------------------------
# |W|, h^v and the central part of a cocharacter, read off the integer root
# closure, against the per-family formulas, the Euclidean long-root loop and
# the split of nu along the coroot span

REFERENCE_EXCEPTIONAL_WEYL_ORDERS = {"E6": 51840, "E7": 2903040,
                                     "E8": 696729600, "F4": 1152, "G2": 12}


def reference_weyl_order(rd):
    """|W| from the families: (r + 1)! for A_r, 2^r r! for B_r and C_r,
    2^(r - 1) r! for D_r, and a table of the exceptional orders."""
    order = 1
    for f in rd.factors:
        r = f.rank
        if f.family == "A":
            order *= factorial(r + 1)
        elif f.family in ("B", "C"):
            order *= 2 ** r * factorial(r)
        elif f.family == "D":
            order *= 2 ** (r - 1) * factorial(r)
        else:
            order *= REFERENCE_EXCEPTIONAL_WEYL_ORDERS[f.label]
    return order


def reference_dual_coxeter_number(rd, factor):
    """1 / |alpha|^2 for a long root alpha of the factor: the largest
    Euclidean inverse Killing norm over its roots (``euclidean_inner``, with
    the Gram matrix eliminated once for all of them)."""
    coroots = rd.simple_coroots
    pairs = [[dot(a, c) for c in coroots] for a, _ in rd.positive_roots]
    gram = [[2 * sum(p[i] * p[j] for p in pairs) for j in range(len(coroots))]
            for i in range(len(coroots))]
    labels = [[dot(r, c) for c in coroots]
              for r, _ in rd._roots_by_factor[factor]]
    long_sq = max(sum(map(mul, x, ls)) for x, ls in
                  zip(reference_solve_columns(gram, labels)[1], labels))
    h = 1 / long_sq
    assert h.denominator == 1
    return int(h)


def reference_coroot_span_decomposition(rd, nu):
    """nu = nu' + nu^z, nu' = sum_j <alpha_j, nu> omega_j^v in the coroot
    span and nu^z killed by every root, by Euclidean dot products."""
    nu = tuple(rl.vec(nu))
    prime = combo([dot(a, nu) for a in rd.simple_roots],
                     rd.fundamental_coweights, dim=rd.dim)
    return prime, sub(nu, prime)


def assert_closure_reads_match_the_references(rd):
    assert rd.weyl_order == reference_weyl_order(rd)
    for i in range(len(rd.factors)):
        assert rd.dual_coxeter_number(i) == reference_dual_coxeter_number(
            rd, i)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_weyl_order_and_dual_coxeter_number_on_the_catalog(name):
    assert_closure_reads_match_the_references(group_by_name(name).rd)


def test_weyl_order_and_dual_coxeter_number_on_a_product():
    # B3 x G2 x A2 with a central torus: one h^v per factor, |W| multiplies
    rd = build_root_datum([("B", 3), ("G", 2), ("A", 2)], central_rank=1)
    assert [rd.dual_coxeter_number(i) for i in range(3)] == [5, 4, 3]
    assert rd.weyl_order == 48 * 12 * 6
    assert_closure_reads_match_the_references(rd)


@settings(max_examples=40, deadline=None)
@given(st.composite(random_datum)())
def test_weyl_order_and_dual_coxeter_number_on_random_data(case):
    assert_closure_reads_match_the_references(case[0])


@settings(max_examples=60, deadline=None)
@given(data_weight_and_cochar())
def test_central_pairing_matches_the_coroot_span_split(case):
    # the verdict's q form and the pairing form read nu^z off the table
    rd, lam, nu = case
    prime, nu_z = reference_coroot_span_decomposition(rd, nu)
    assert all(dot(a, nu_z) == 0 for a in rd.simple_roots)
    assert rl.lattice_coords(rd.simple_coroots, prime) is not None
    table = rd.cochar_table(nu)
    z, zden, *_ = table.q_form
    assert table.nu == nu
    assert gcd(*z, zden) == 1
    assert tuple(Fraction(x, zden) for x in z) == nu_z
    assert Fraction(sum(map(mul, rl.scaled(lam)[0], z)),
                    rl.scaled(lam)[1] * zden) == dot(lam, nu_z)
    _, k, den = table.pairing_form(*rl.scaled(lam))
    assert Fraction(k, den) == dot(lam, nu_z)


# ----------------------------------------------------------------------
# the lattice table against Fraction solves and a test-side Smith form

def reference_invariant_factors(rows, n):
    """The invariant factors > 1 (0 for each free rank) of Z^n / rowspan
    of integer rows: row and column echelon forms by Euclid's algorithm in
    turn until the matrix is diagonal, then (gcd, lcm) for each pair of
    diagonal entries until each divides the next."""
    def echelon(m):
        m, r = [list(row) for row in m], 0
        for c in range(len(m[0]) if m else 0):
            while nz := [i for i in range(r, len(m)) if m[i][c]]:
                p = min(nz, key=lambda i: abs(m[i][c]))
                m[r], m[p] = m[p], m[r]
                for i in range(r + 1, len(m)):
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                if not any(m[i][c] for i in range(r + 1, len(m))):
                    r += 1
                    break
        return m[:r]

    m = echelon(rows)
    while any(x for i, row in enumerate(m) for j, x in enumerate(row)
              if i != j):
        m = echelon(list(zip(*echelon(list(zip(*m))))))
    diag = [abs(m[i][i]) for i in range(len(m))] + [0] * (n - len(m))
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g if g else 0
    return tuple(x for x in diag if x != 1)


def reference_lattice_coords(rd, v):
    """v's integer coordinates in the cocharacter basis, or None, by a
    Fraction solve."""
    x = reference_row_coords(rd.cochar_basis, v)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


@st.composite
def quotient_lattice_and_cochars(draw):
    """A ``random_datum``, its lattice at times enlarged by m e_j (which
    pairs integrally with every root, and on a type A block spans its
    quotiented direction, as in SL_n/mu_d), and cocharacters of three
    kinds: in the lattice, in its span off it (a basis row over 2 or 3
    added), off its span (a kernel vector added), plus its quotiented
    directions and coroots."""
    rd, _ = random_datum(draw)
    if draw(st.booleans()):
        e = rl.scale(draw(st.integers(1, 3)),
                     unit(rd.dim, draw(st.integers(0, rd.dim - 1))))
        rd = RootDatum(rd.simple_roots, rd.simple_coroots,
                       rl.row_lattice_basis(rd.cochar_basis + (e,)),
                       rd.central_cochars)
    basis, n = rd.cochar_basis, len(rd.cochar_basis)
    kernel = reference_nullspace(basis, rd.dim)
    cochars = list(rd.central_cochars) + list(rd.simple_coroots)
    for _ in range(draw(st.integers(1, 4))):
        v = combo(draw(st.lists(st.integers(-2, 2), min_size=n,
                                   max_size=n)), basis, dim=rd.dim)
        kind = draw(st.sampled_from(["member", "span", "off"]))
        if kind == "span":
            v = rl.add(v, rl.scale(Fraction(1, draw(st.integers(2, 3))),
                                   basis[draw(st.integers(0, n - 1))]))
        elif kind == "off" and kernel:
            v = rl.add(v, draw(st.sampled_from(kernel)))
        cochars.append(v)
    return rd, cochars, draw(st.lists(st.sampled_from(cochars), min_size=1,
                                      max_size=3))


@settings(max_examples=80, deadline=None)
@given(quotient_lattice_and_cochars())
def test_lattice_table_matches_the_fraction_solves(case):
    rd, cochars, gens = case
    for v in cochars:
        x = reference_row_coords(rd.cochar_basis, v)
        assert rl.lattice_coords(rd.cochar_basis, v) == x
        got = rd._lattice_coords(*rl.scaled(v))
        assert (got is None) == (x is None)
        if got is not None:
            assert tuple(Fraction(a, got[1]) for a in got[0]) == x
        want = reference_lattice_coords(rd, v)
        if want is None:
            with pytest.raises(SpecificationError, match=(
                    f"^{re.escape(rl.fmt_vec(v))} is not in the cocharacter "
                    "lattice$")):
                rd.assert_cocharacter(v)
        else:
            assert rd.assert_cocharacter(v) == want
    # pi_1's relations: the coroots, and for each quotiented direction in
    # the span of X_* the least vector of X_* along it
    n = len(rd.cochar_basis)
    rows = [reference_lattice_coords(rd, c) for c in rd.simple_coroots]
    spans = [rl.scaled(x)[0] for z in rd.central_cochars
             if (x := reference_row_coords(rd.cochar_basis, z)) is not None]
    rows += [tuple(a // gcd(*x) for a in x) for x in spans]
    assert rd.relations == tuple(rows)
    assert rd.central_torus_rank == n - len(rd.simple_coroots) - len(spans)
    factors = reference_invariant_factors(rows, n)
    fg = fundamental_group(rd)
    assert fg.invariant_factors == factors
    assert fundamental_group(rd, fg.generators).generators == tuple(
        fg.generators)
    # given generators: refused off the lattice, else iff they do not
    # generate X_*/Q(T) (then they are at least as many as the factors)
    coords = [reference_lattice_coords(rd, g) for g in gens]
    if None in coords:
        bad = gens[coords.index(None)]
        message = (f"^{re.escape(rl.fmt_vec(bad))} is not in the "
                   "cocharacter lattice$")
    elif reference_invariant_factors(rows + coords, n):
        message = r"^provided cocharacters do not generate X_\*/Q\(T\)$"
    else:
        got = fundamental_group(rd, gens)
        assert len(gens) >= len(factors)
        assert got.invariant_factors == factors
        assert got.generators == tuple(map(tuple, gens))
        return
    with pytest.raises(SpecificationError, match=message):
        fundamental_group(rd, gens)


@pytest.mark.parametrize("rows,n,want", [
    ([[2, 0], [0, 3]], 2, (6,)), ([[2, 4], [6, 8]], 2, (2, 4)),
    ([[1, 1, 1]], 3, (0, 0)), ([], 2, (0, 0)), ([[4, 6], [6, 9]], 2, (0,)),
    ([[12]], 1, (12,))])
def test_reference_invariant_factors(rows, n, want):
    assert reference_invariant_factors(rows, n) == want


# ----------------------------------------------------------------------
# a datum's integer rows against the Euclidean views made from them

def recorded_inputs(build):
    """(build(), the vectors given to the last RootDatum it made)."""
    seen, init = [], RootDatum.__init__

    def record(self, roots, coroots, basis, central=(), label=""):
        seen.append((roots, coroots, basis, central))
        init(self, roots, coroots, basis, central, label)
    with patch.object(RootDatum, "__init__", record):
        out = build()
    return out, [[tuple(rl.vec(v)) for v in vs] for vs in seen[-1]]


def euclidean_views(rd, roots, coroots, basis, central):
    """Every Euclidean view of the datum built from these vectors, by its
    definition on Fractions: the vectors given; omega_i = sum_j (A^-1)_ij
    alpha_j and omega_i^v = sum_j (A^-1)_ji alpha_j^v, A_ij = <alpha_i,
    alpha_j^v>; the closure's combinations of the simple roots and
    coroots; the kernel of the roots on the lattice's span, kept while
    independent of the quotiented directions; -w0 = -1 + sum_i (omega_i +
    omega_sigma(i)) alpha_i^v."""
    r, dim = len(roots), rd.dim
    a = [[dot(x, c) for c in coroots] for x in roots]
    cols = reference_solve_columns(a, [[int(i == j) for j in range(r)]
                                       for i in range(r)])[1] if r else []
    omega = [combo([col[i] for col in cols], roots, dim) for i in range(r)]
    coweights = [combo(cols[i], coroots, dim) for i in range(r)]
    positive = tuple((combo(c, roots, dim), combo(k, coroots, dim))
                     for c, k in zip(rd.positive_root_coords,
                                     rd.positive_coroot_coords))
    system = [[dot(x, b) for b in basis] for x in roots]
    kept, center = list(central), []
    for k in reference_nullspace(system, len(basis)) if basis else ():
        v = combo(k, basis)
        if reference_rank(kept + [v]) > len(kept):
            kept.append(v)
            center.append(v)
    sums = [rl.add(omega[i], omega[s]) for i, s in enumerate(rd.minus_w0_perm)]
    minus_w0 = [[sum((s[x] * c[y] for s, c in zip(sums, coroots)),
                     Fraction(0)) - (x == y) for y in range(dim)]
                for x in range(dim)]
    return {"simple_roots": roots, "simple_coroots": coroots,
            "cochar_basis": basis, "central_cochars": central,
            "fundamental_weights": omega, "fundamental_coweights": coweights,
            "center_directions": center, "minus_w0_matrix": minus_w0,
            "positive_roots": positive}


def assert_views_are_their_definitions(rd, inputs):
    for name, want in euclidean_views(rd, *inputs).items():
        got = getattr(rd, name)
        if name == "positive_roots":
            assert got == want
            got = [v for pair in got for v in pair]
        else:
            assert got == tuple(map(tuple, want)), name
        if name != "minus_w0_matrix":
            assert all(type(x) is Fraction for v in got for x in v), name


def assert_weights_read_alike(rd, fg, basis):
    """orth_rep and is_spinorial give one answer for a weight given as a
    vector of Fractions, as ambient integers (if it has integer entries)
    and as integer coordinates in ``basis``: a few box-1 weights."""
    points = list(dominant_orthogonal_weights(rd, 1, basis=basis))
    for coords, lam in points[::max(1, len(points) // 4)]:
        reps = [orth_rep(rd, irreducible=[lam], hyperbolic=[lam]),
                orth_rep(rd, irreducible=[coords], hyperbolic=[coords],
                         basis=basis)]
        if all(x.denominator == 1 for x in lam):
            ints = [int(x) for x in lam]
            reps.append(orth_rep(rd, irreducible=[ints], hyperbolic=[ints]))
        for rep in reps:
            assert rep == reps[0] and rep.labels == reps[0].labels
            assert all(type(x) is Fraction for x in rep.irreducible[0])
        assert len({is_spinorial(rd, fg, rep) for rep in reps}) == 1


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_integer_state_matches_the_euclidean_views_on_the_catalog(name):
    g, inputs = recorded_inputs(lambda: group_by_name(name))
    assert_views_are_their_definitions(g.rd, inputs)
    assert_weights_read_alike(g.rd, g.fg, g.weight_basis)


@pytest.mark.parametrize("name", [n for n in REALIZATIONS if n not in LARGE])
def test_integer_state_matches_the_euclidean_views_on_realizations(name):
    doc = cartan_document(group_by_name(name).rd)
    g, inputs = recorded_inputs(
        lambda: cli._group_from_document(doc, "realization"))
    assert_views_are_their_definitions(g.rd, inputs)
    assert_weights_read_alike(g.rd, g.fg, g.weight_basis)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_integer_state_matches_the_euclidean_views_on_random_data(data):
    (rd, _), inputs = recorded_inputs(lambda: random_datum(data.draw))
    assert_views_are_their_definitions(rd, inputs)
    assert_weights_read_alike(rd, fundamental_group(rd),
                              rd.fundamental_weights)
