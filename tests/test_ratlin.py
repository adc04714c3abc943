from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from spinoriality import ratlin as rl

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
    x = rl.solve(a, (5, 10))
    assert x == (Fraction(1), Fraction(3))


def test_solve_inconsistent_returns_none():
    a = ((1, 1), (2, 2))
    assert rl.solve(a, (1, 3)) is None


def test_mat_inv_roundtrip():
    m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    inv = rl.mat_inv(m)
    assert rl.mat_mul(m, inv) == rl.identity(2)


def test_mat_inv_singular():
    with pytest.raises(ZeroDivisionError):
        rl.mat_inv(((1, 2), (2, 4)))


def test_rank():
    assert rl.rank(((1, 2, 3), (2, 4, 6), (0, 1, 0))) == 2


def test_smith_normal_form_transforms():
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, u, v = rl.smith_normal_form(m)
    assert rl.mat_mul(rl.mat_mul(u, m), v) == d
    diag = [d[i][i] for i in range(3)]
    assert diag == [2, 6, 12]
    for i in range(2):
        if diag[i + 1] != 0:
            assert diag[i + 1] % diag[i] == 0


def test_smith_normal_form_nonsquare():
    m = [[2, 0, 0], [0, 3, 0]]
    d, u, v = rl.smith_normal_form(m)
    assert rl.mat_mul(rl.mat_mul(u, m), v) == d
    assert [d[0][0], d[1][1]] == [1, 6]
    assert all(d[i][j] == 0 for i in range(2) for j in range(3) if i != j)


def test_lattice_coords_and_membership():
    basis = ((2, 0), (1, 1))
    assert rl.lattice_coords(basis, (3, 1)) == (Fraction(1), Fraction(1))
    assert rl.in_lattice(basis, (3, 1))
    assert not rl.in_lattice(basis, (1, 0))


def test_frac_gcd():
    assert rl.frac_gcd([Fraction(3, 2), Fraction(9, 2)]) == Fraction(3, 2)
    assert rl.frac_gcd([4, 6]) == 2


def test_row_lattice_basis_halves():
    rows = ((1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2)))
    basis = rl.row_lattice_basis(rows)
    assert len(basis) == 2
    for r in rows:
        assert rl.in_lattice(basis, r)
    assert rl.in_lattice(basis, (Fraction(1, 2), Fraction(-1, 2)))
    assert not rl.in_lattice(basis, (Fraction(1, 4), Fraction(1, 4)))


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_exact_or_inconsistent(a, data):
    b = tuple(data.draw(ENTRIES) for _ in a)
    x = rl.solve(a, b)
    augmented = tuple(row + (bi,) for row, bi in zip(a, b))
    assert (x is None) == (rank_by_minors(augmented) > rank_by_minors(a))
    if x is not None:
        assert rl.mat_vec(a, x) == b


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_mat_inv_inverts_or_raises(a):
    if det(a) == 0:
        with pytest.raises(ZeroDivisionError):
            rl.mat_inv(a)
    else:
        assert rl.mat_mul(rl.mat_inv(a), a) == rl.identity(len(a))


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
