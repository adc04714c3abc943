from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from spinoriality import ratlin as rl
from spinoriality.errors import SpecificationError
from spinoriality.rootdata import RootDatum, _from_cartan

# zeros are likely, so singular and rank-deficient matrices are common
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return tuple(tuple(draw(ENTRIES) for _ in range(ncols))
                 for _ in range(nrows))


def det(m):
    """Leibniz expansion: a reference independent of row reduction."""
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        inversions = sum(1 for i, j in combinations(perm, 2) if i > j)
        term = Fraction((-1) ** inversions)
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def mat_mul(a, b):
    return tuple(tuple(rl.dot(row, col) for col in zip(*b)) for row in a)


def rank_by_minors(m):
    """The size of the largest nonzero minor."""
    for k in range(min(len(m), len(m[0])), 0, -1):
        for rows in combinations(m, k):
            for cols in combinations(range(len(m[0])), k):
                if det([[row[c] for c in cols] for row in rows]) != 0:
                    return k
    return 0


def test_solve_exact():
    a = ((2, 1), (1, 3))
    assert rl.solve_columns(a, [(5, 10)]) == (2, [(Fraction(1), Fraction(3))])


def test_solve_inconsistent_returns_none():
    a = ((1, 1), (2, 2))
    assert rl.solve_columns(a, [(1, 3), (1, 2)]) == (
        1, [None, (Fraction(1), Fraction(0))])


def test_int_inverse_roundtrip():
    m = ((2, 1), (1, 1))
    adj, d = rl.int_inverse(m)
    assert d == 1 and mat_mul(m, adj) == rl.identity(2)
    # a row swap is needed, and the sign of det survives it
    assert rl.int_inverse(((0, 1), (1, 0))) == (((0, -1), (-1, 0)), -1)


def test_int_inverse_singular():
    with pytest.raises(ZeroDivisionError):
        rl.int_inverse(((1, 2), (2, 4)))


def test_rank():
    assert rl.rank(((1, 2, 3), (2, 4, 6), (0, 1, 0))) == 2


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
    b = tuple(data.draw(ENTRIES) for _ in a)
    x = rl.solve_columns(a, [b])[1][0]
    augmented = tuple(row + (bi,) for row, bi in zip(a, b))
    assert (x is None) == (rank_by_minors(augmented) > rank_by_minors(a))
    if x is not None:
        assert rl.mat_vec(a, x) == b


INTEGERS = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(INTEGERS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_int_inverse_is_the_adjugate_or_raises(a):
    want = det(a)
    if want == 0:
        with pytest.raises(ZeroDivisionError):
            rl.int_inverse(a)
        return
    adj, d = rl.int_inverse(a)
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
    assert not kernel or rl.rank(kernel) == len(kernel)
    for k in kernel:
        assert rl.mat_vec(rows, k) == (0,) * len(rows)
    # a combination of the rows, then maybe pushed off their span
    v = [sum(c * row[j] for c, row in zip(
        data.draw(st.lists(INTEGERS, min_size=len(rows),
                           max_size=len(rows))), rows))
         for j in range(len(rows[0]))]
    v[data.draw(st.integers(0, len(v) - 1))] += data.draw(INTEGERS)
    x = rl.lattice_coords(rows, v)
    assert (x is None) == any(rl.dot(v, k) for k in kernel)
    if x is not None:
        picked = [v[p] for p in pivots]
        assert tuple(Fraction(sum(a * b for a, b in zip(picked, col)), d)
                     for col in zip(*adj)) == x


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_plus_nullity(a):
    ncols = len(a[0])
    kernel = rl.nullspace(a, ncols)
    assert rl.rank(a) == rank_by_minors(a)
    assert rl.rank(a) + len(kernel) == ncols
    for x in kernel:
        assert rl.mat_vec(a, x) == rl.zero(len(a))
    assert rl.rank(kernel) == len(kernel)


def reference_row_reduce(rows, ncols):
    """The Fraction Gauss-Jordan elimination ratlin ran before its integer
    one: the reduced rows and their pivot columns."""
    m = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                m[i] = [x - row[c] * y for x, y in zip(row, m[r])]
        pivots.append(c)
    return m, pivots


def reference_solve_columns(a, rhs):
    ncols = len(a[0])
    m, pivots = reference_row_reduce(
        [list(row) + [b[i] for b in rhs] for i, row in enumerate(a)], ncols)
    sols = []
    for t in range(ncols, ncols + len(rhs)):
        sol = [Fraction(0)] * ncols
        for row, c in zip(m, pivots):
            sol[c] = row[t]
        consistent = all(row[t] == 0 for row in m[len(pivots):])
        sols.append(tuple(sol) if consistent else None)
    return len(pivots), sols


def reference_nullspace(a, ncols):
    m, pivots = reference_row_reduce(a, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, c in zip(m, pivots):
            x[c] = -row[free]
        basis.append(tuple(x))
    return basis


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
                 max_size=3)))))
def test_integer_elimination_matches_the_fraction_one(case):
    a, rhs = case
    ncols = len(a[0])
    assert rl.solve_columns(a, rhs) == reference_solve_columns(a, rhs)
    assert rl.rank(a) == reference_solve_columns(a, [])[0]
    assert rl.nullspace(a, ncols) == reference_nullspace(a, ncols)


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
