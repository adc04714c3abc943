from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from spinoriality import ratlin as rl
from spinoriality.errors import SpecificationError
from spinoriality.rootdata import RootDatum, _from_cartan
from linalg_reference import (det, dot, identity, rank_by_minors,
                              reference_nullspace, reference_row_coords,
                              reference_solve_columns)

# zeros are likely, so singular and rank-deficient matrices are common
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return tuple(tuple(draw(ENTRIES) for _ in range(ncols))
                 for _ in range(nrows))


def mat_mul(a, b):
    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


def test_solve_exact():
    # x . B = v: the system B^T x = v with B^T = ((2, 1), (1, 3))
    basis = ((2, 1), (1, 3))
    assert rl.lattice_coords(basis, (5, 10)) == (Fraction(1), Fraction(3))
    assert rl.span_coords(rl.row_span_table(basis, 2), (5, 10)) == (
        [5, 15], 5)


def test_solve_inconsistent_returns_none():
    table = rl.row_span_table(((1, 2),), 2)
    assert rl.span_coords(table, (1, 3)) is None
    assert rl.span_coords(table, (2, 4)) == ([2], 1)
    assert rl.lattice_coords(((1, 2),), (1, 3)) is None
    assert rl.lattice_coords(((1, 2),), (Fraction(1, 2), 1)) == (
        Fraction(1, 2),)
    with pytest.raises(ValueError, match="not independent"):
        rl.lattice_coords(((1, 1), (2, 2)), (1, 1))


def test_row_span_table_inverts_a_square_matrix():
    m = ((2, 1), (1, 1))
    adj, d = rl.row_span_table(m, 2)[1:3]
    assert d == 1 and mat_mul(m, adj) == identity(2)
    # a row swap is needed, and the sign of det survives it
    assert rl.row_span_table(((0, 1), (1, 0)), 2)[1:3] == (
        ((0, -1), (-1, 0)), -1)


def test_row_span_table_of_a_singular_square_matrix_is_none():
    assert rl.row_span_table(((1, 2), (2, 4)), 2) is None


def test_rank():
    # dependent rows have no table; two independent ones do
    m = ((1, 2, 3), (2, 4, 6), (0, 1, 0))
    assert rank_by_minors(m) == 2
    assert rl.row_span_table(m, 3) is None
    assert rl.row_span_table(m[1:], 3) is not None


def minors(m, k):
    """Every k x k minor of m."""
    return [det([[row[c] for c in cols] for row in rows])
            for rows in combinations(m, k)
            for cols in combinations(range(len(m[0])), k)]


def assert_smith_contract(m):
    """(d, v_inv) = smith_normal_form(m): d a divisibility chain, v_inv
    unimodular, and the row lattice of m spanned by the d[i] v_inv[i]: the
    rows of m have integer coordinates c in those, and the maximal minors of
    c have gcd 1, so c generates Z^r."""
    d, v_inv = rl.smith_normal_form(m)
    assert len(d) == min(len(m), len(m[0]))
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0 if a else b == 0
    assert det(v_inv) in (1, -1)
    basis = [tuple(di * x for x in row) for di, row in zip(d, v_inv) if di]
    assert len(basis) == rank_by_minors(m)
    if not basis:
        return d, v_inv
    coords = [rl.lattice_coords(basis, row) for row in m]
    assert all(x.denominator == 1 for c in coords for x in c)
    assert gcd(*map(int, minors(coords, len(basis)))) == 1
    return d, v_inv


def test_smith_normal_form_transforms():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, v_inv = assert_smith_contract(m)
    assert d == (2, 6, 12)


def test_smith_normal_form_nonsquare():
    m = [[2, 0, 0], [0, 3, 0]]
    d, v_inv = assert_smith_contract(m)
    assert d == (1, 6)
    assert len(v_inv) == 3 and all(len(row) == 3 for row in v_inv)


def in_lattice(basis_rows, v):
    """v is an integer combination of the independent basis rows."""
    x = rl.lattice_coords(basis_rows, v)
    return x is not None and all(c.denominator == 1 for c in x)


def test_lattice_coords_and_membership():
    basis = ((2, 0), (1, 1))
    assert rl.lattice_coords(basis, (3, 1)) == (Fraction(1), Fraction(1))
    assert in_lattice(basis, (3, 1))
    assert not in_lattice(basis, (1, 0))


def test_frac_gcd():
    assert rl.frac_gcd([Fraction(3, 2), Fraction(9, 2)]) == Fraction(3, 2)
    assert rl.frac_gcd([4, 6]) == 2


def test_row_lattice_basis_halves():
    rows = ((1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2)))
    basis = rl.row_lattice_basis(rows)
    assert len(basis) == 2
    for r in rows:
        assert in_lattice(basis, r)
    assert in_lattice(basis, (Fraction(1, 2), Fraction(-1, 2)))
    assert not in_lattice(basis, (Fraction(1, 4), Fraction(1, 4)))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_exact_or_inconsistent(a, data):
    # x . a = b for independent rows a; dependent ones are refused
    b = tuple(data.draw(ENTRIES) for _ in a[0])
    if rank_by_minors(a) < len(a):
        with pytest.raises(ValueError, match="not independent"):
            rl.lattice_coords(a, b)
        return
    x = rl.lattice_coords(a, b)
    assert (x is None) == (rank_by_minors(a + (b,)) > rank_by_minors(a))
    if x is not None:
        assert rl.mat_vec(tuple(zip(*a)), x) == b


INTEGERS = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(INTEGERS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_row_span_table_of_a_square_matrix_is_its_adjugate_or_none(a):
    want = det(a)
    if want == 0:
        assert rl.row_span_table(a, len(a)) is None
        return
    adj, d = rl.row_span_table(a, len(a))[1:3]
    assert d == want
    assert all(type(x) is int for row in adj for x in row)
    assert mat_mul(adj, a) == tuple(
        tuple(d * (i == j) for j in range(len(a))) for i in range(len(a)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.integers(n, 6).flatmap(
    lambda width: st.lists(st.lists(INTEGERS, min_size=width,
                                    max_size=width),
                           min_size=n, max_size=n))), st.data())
def test_row_span_table_solves_in_the_row_span(rows, data):
    table = rl.row_span_table(rows, len(rows[0]))
    if rank_by_minors(rows) < len(rows):
        assert table is None
        return
    pivots, adj, d, kernel = table
    minor = [[row[c] for c in pivots] for row in rows]
    assert d == det(minor) != 0
    assert mat_mul(adj, minor) == tuple(
        tuple(d * (i == j) for j in range(len(rows)))
        for i in range(len(rows)))
    assert len(kernel) == len(rows[0]) - len(rows)
    assert not kernel or rank_by_minors(kernel) == len(kernel)
    for k in kernel:
        assert rl.mat_vec(rows, k) == (0,) * len(rows)
    # a combination of the rows, then maybe pushed off their span
    v = [sum(c * row[j] for c, row in zip(
        data.draw(st.lists(INTEGERS, min_size=len(rows),
                           max_size=len(rows))), rows))
         for j in range(len(rows[0]))]
    v[data.draw(st.integers(0, len(v) - 1))] += data.draw(INTEGERS)
    x = rl.lattice_coords(rows, v)
    assert (x is None) == any(dot(v, k) for k in kernel)
    if x is not None:
        picked = [v[p] for p in pivots]
        assert tuple(Fraction(sum(a * b for a, b in zip(picked, col)), d)
                     for col in zip(*adj)) == x


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_plus_nullity(a):
    # the table of independent rows has a kernel of the rest of the width
    ncols = len(a[0])
    table = rl.row_span_table(rl.scaled_rows(a)[0], ncols)
    assert (table is None) == (rank_by_minors(a) < len(a))
    if table is None:
        return
    kernel = table[3]
    assert len(a) + len(kernel) == ncols
    for x in kernel:
        assert rl.mat_vec(a, x) == (Fraction(0),) * len(a)
    assert not kernel or rank_by_minors(kernel) == len(kernel)


# wider and longer than ``matrices``, with larger entries, so that rows
# swap, columns are skipped and the lazily scaled rows grow
WIDE_ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3, -7, Fraction(1, 2),
                                Fraction(-2, 3), Fraction(5, 6)])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda nrows: st.integers(1, 7).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(WIDE_ENTRIES, min_size=ncols, max_size=ncols),
                 min_size=nrows, max_size=nrows),
        st.lists(st.lists(WIDE_ENTRIES, min_size=nrows, max_size=nrows),
                 max_size=3),
        st.lists(st.lists(WIDE_ENTRIES, min_size=ncols, max_size=ncols),
                 max_size=3)))))
def test_integer_elimination_matches_the_fraction_one(case):
    # the table exists iff the rows are independent; its kernel is the
    # reference one times det, and the coordinates of the row combinations
    # c . a and of the vectors vs are the reference solve's, None off the
    # span
    a, coeffs, vs = case
    ncols = len(a[0])
    rows, aden = rl.scaled_rows(a)
    table = rl.row_span_table(rows, ncols)
    assert (table is None) == (reference_solve_columns(a, [])[0] < len(a))
    if table is None:
        with pytest.raises(ValueError, match="not independent"):
            rl.lattice_coords(a, vs[0] if vs else a[0])
        return
    _, _, d, kernel = table
    assert [tuple(Fraction(x, d) for x in k) for k in kernel] == (
        reference_nullspace(a, ncols))
    for v in vs + [[sum(x * row[j] for x, row in zip(c, a))
                    for j in range(ncols)] for c in coeffs]:
        want = reference_row_coords(a, v)
        assert rl.lattice_coords(a, v) == want
        nums, vden = rl.scaled(v)
        xd = rl.span_coords(table, nums)
        assert (xd is None) == (want is None)
        if xd is not None:
            x, d = xd
            assert [sum(c * row[j] for c, row in zip(x, rows))
                    for j in range(ncols)] == [d * n for n in nums]
            assert [Fraction(c * aden, d * vden) for c in x] == list(want)


def fraction_finite_type(a):
    """The finite-type test RootDatum ran on Fractions before its integer
    form: a Cartan matrix whose symmetrization d_i a_ij, d from the walk
    along each component's edges, is symmetric and has positive pivots in
    elimination without row swaps."""
    a = [[Fraction(x) for x in row] for row in a]
    n = len(a)
    for i in range(n):
        if a[i][i] != 2:
            return False
        for j in range(n):
            if i != j and (a[i][j].denominator != 1 or a[i][j] > 0
                           or (a[i][j] == 0) != (a[j][i] == 0)):
                return False
    d = [None] * n
    for s in range(n):
        if d[s] is None:
            d[s], stack = Fraction(1), [s]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if d[j] is None and a[i][j] != 0:
                        d[j] = d[i] * a[i][j] / a[j][i]
                        stack.append(j)
    sym = [[d[i] * x for x in row] for i, row in enumerate(a)]
    if sym != [list(col) for col in zip(*sym)]:
        return False
    for k, top in enumerate(sym):
        if top[k] <= 0:
            return False
        for row in sym[k + 1:]:
            f = row[k] / top[k]
            row[:] = [x - f * y for x, y in zip(row, top)]
    return True


@st.composite
def cartan_like(draw):
    n = draw(st.integers(1, 5))
    off = st.sampled_from([0, 0, 0, -1, -1, -1, -2, -3, -4, 1])
    return [[draw(st.sampled_from([2, 2, 2, 2, 2, 2, 1, 0])) if i == j
             else draw(off) for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(cartan_like())
@example([[2, -2], [-2, 2]])            # affine A1
@example([[2, -1], [-5, 2]])            # hyperbolic
@example([[2, -1, 0], [-2, 2, -1], [0, -1, 2]])   # C3
@example([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
def test_integer_finite_type_check_matches_the_fraction_one(a):
    roots, coroots, _, _ = _from_cartan(a)
    try:
        RootDatum(roots, coroots, coroots)
        accepted = True
    except SpecificationError:
        accepted = False
    assert accepted == fraction_finite_type(a)
