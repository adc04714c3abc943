"""Reference linear algebra for the tests: a Leibniz determinant, rank by
minors, and the Fraction Gauss-Jordan elimination ratlin ran before its
integer one, with its solve and kernel.  ``ratlin`` answers these questions
from one integer table (``row_span_table``); these copies check it."""

from fractions import Fraction
from itertools import combinations, permutations


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
    """(rank of a, per b in rhs a solution of a x = b with its free
    variables 0, or None when there is none)."""
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


def reference_rank(m):
    return reference_solve_columns(m, [])[0] if m else 0


def reference_nullspace(a, ncols):
    """The basis of {x : a x = 0} with a 1 at each free column."""
    m, pivots = reference_row_reduce(a, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, c in zip(m, pivots):
            x[c] = -row[free]
        basis.append(tuple(x))
    return basis


def reference_row_coords(basis_rows, v):
    """x with x . basis_rows = v for independent rows, or None."""
    if not basis_rows:
        return () if not any(v) else None
    return reference_solve_columns(tuple(zip(*basis_rows)), [v])[1][0]


# Fraction vector helpers for the tests' Euclidean definitions
def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def unit(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def identity(n):
    return tuple(unit(n, i) for i in range(n))


def combo(coeffs, vectors, dim=None):
    """sum_i coeffs[i] * vectors[i] in Fractions, of length ``dim`` when
    ``vectors`` is empty."""
    total = [Fraction(0)] * (len(vectors[0]) if vectors else dim or 0)
    for c, v in zip(coeffs, vectors):
        if c:
            total = [t + c * x for t, x in zip(total, v)]
    return tuple(total)
