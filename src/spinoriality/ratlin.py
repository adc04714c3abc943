"""Exact linear algebra over the rationals and the integers.

Everything here works on tuples of :class:`fractions.Fraction` (vectors) and
tuples of such tuples (row-major matrices).  No floating point is used
anywhere; parity questions about huge integers are the whole point of the
package, so all arithmetic is exact.
"""

from fractions import Fraction
from math import gcd, lcm

Vec = tuple  # tuple of Fraction (or int)
Mat = tuple  # tuple of Vec, row-major


def vec(values):
    return tuple(Fraction(x) for x in values)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def neg(u):
    return tuple(-a for a in u)


def scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def is_zero(u):
    return all(a == 0 for a in u)


def zero(n):
    return (Fraction(0),) * n


def unit(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def identity(n):
    return tuple(unit(n, i) for i in range(n))


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    return tuple(zip(*m))


def combo(coeffs, vectors, dim=None):
    """The exact linear combination sum_i coeffs[i] * vectors[i].

    Entries are Fractions; ``dim`` gives the length of the (zero) result
    when ``vectors`` is empty.
    """
    total = [Fraction(0)] * (len(vectors[0]) if vectors else dim or 0)
    for c, v in zip(coeffs, vectors):
        if c:
            total = [t + c * x for t, x in zip(total, v)]
    return tuple(total)


def int_combos(coeffs, vectors, den=1):
    """The exact combinations sum_j c_j * vectors[j] / den for every integer
    row c of ``coeffs``, generated one at a time: integer sums over the
    vectors' common denominator, each distinct value made a Fraction once."""
    rows, vden = scaled_rows(vectors)
    den *= vden
    width = len(rows[0]) if rows else 0
    support = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    frac = {}
    for c in coeffs:
        total = [0] * width
        for cj, row in zip(c, support):
            if cj:
                for j, x in row:
                    total[j] += cj * x
        yield tuple([frac[t] if t in frac
                     else frac.setdefault(t, Fraction(t, den))
                     for t in total])


def fmt_q(x):
    """A rational as ``a`` or ``a/b``."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fmt_vec(v):
    """A vector as ``(a,b/c,...)``."""
    return "(" + ",".join(fmt_q(x) for x in v) + ")"


def scaled(v):
    """(numerators, d): a rational vector over its least common denominator."""
    den = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v), den


def scaled_rows(rows):
    """(numerator rows, d): a rational matrix over one common denominator."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                 for row in rows), den


def _row_reduce(rows, ncols):
    """Gauss-Jordan elimination on the first ``ncols`` columns of ``rows``.

    Extra columns ride along (an augmented right-hand side).  Returns the
    reduced rows, as lists of Fractions, and the pivot columns; pivot row i
    has a 1 in column ``pivots[i]`` and zeros there in every other row, and
    the rows past the last pivot are zero in the first ``ncols`` columns.
    """
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
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        # only the pivot row's nonzero entries change the other rows
        support = [(j, y) for j, y in enumerate(m[r]) if y]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for j, y in support:
                    row[j] -= f * y
        pivots.append(c)
    return m, pivots


def solve_columns(a_rows, rhs):
    """Solve ``A x = b`` exactly for every right-hand side b in ``rhs`` by
    one elimination.

    Returns the rank of ``A`` and, per b, a solution vector or None when
    the system is inconsistent.  ``a_rows`` need not be square; when the
    system is underdetermined one particular solution is returned (free
    variables set to 0).
    """
    ncols = len(a_rows[0]) if a_rows else 0
    m, pivots = _row_reduce([list(row) + [b[i] for b in rhs]
                             for i, row in enumerate(a_rows)], ncols)
    sols = []
    for t in range(ncols, ncols + len(rhs)):
        if any(row[t] != 0 for row in m[len(pivots):]):
            sols.append(None)
            continue
        sol = [Fraction(0)] * ncols
        for row, c in zip(m, pivots):
            sol[c] = row[t]
        sols.append(tuple(sol))
    return len(pivots), sols


def solve(a_rows, b):
    """Solve ``A x = b`` exactly; return the solution vector or None (see
    :func:`solve_columns`)."""
    return solve_columns(a_rows, [b])[1][0]


def int_inverse(m):
    """(adj, det) for a square integer matrix: adj . m = det . I, by fraction
    free Gauss-Jordan elimination on [m | I] (Bareiss, Math. Comp. 22, 1968):
    step k maps row i to (p r_i - r_i[k] r_k) / prev, exactly, p the pivot
    and prev the one before, and the last pivot is det up to the sign of
    the row swaps.  Raises ZeroDivisionError when m is singular."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(m)]
    base = [1] * n      # row i is a[i] * prev / base[i], scaled lazily
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            base[k], base[piv] = base[piv], base[k]
            sign = -sign
        if base[k] != prev:
            a[k] = [x * prev // base[k] for x in a[k]]
        p, top = a[k][k], a[k][k + 1:]
        for i, row in enumerate(a):
            f = row[k]      # columns up to k are settled: left alone
            if f and i != k:
                row[k + 1:] = [(p * x - f * y) // base[i]
                               for x, y in zip(row[k + 1:], top)]
                base[i] = p
        base[k] = prev = p
    return tuple(tuple(sign * x * prev // b for x in row[n:])
                 for row, b in zip(a, base)), sign * prev


def leading_minors(m):
    """The leading principal minors of a square integer matrix, in order, as
    the pivots of Bareiss elimination without row swaps; it stops after the
    first zero, past which that elimination has no pivot."""
    a = [list(row) for row in m]
    prev = 1
    for k, top in enumerate(a):
        p = top[k]
        yield p
        if not p:
            return
        for row in a[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = p


def rank(m):
    return len(_row_reduce(m, len(m[0]))[1]) if m else 0


def nullspace(m, ncols):
    """Basis of the kernel {x : m x = 0}, x of length ``ncols``."""
    red, pivots = _row_reduce(m, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for row, c in zip(red, pivots):
            x[c] = -row[free]
        basis.append(tuple(x))
    return basis


def lattice_coords(basis_rows, v):
    """Coordinates of ``v`` in the row span of ``basis_rows``, or None.

    The basis rows must be linearly independent.  Returns the (rational)
    coefficient vector x with ``x . basis = v``.
    """
    if not basis_rows:
        return () if is_zero(v) else None
    at = transpose(basis_rows)  # columns are basis vectors
    return solve(at, v)


def in_lattice(basis_rows, v):
    """True iff ``v`` is an integer combination of the basis rows."""
    x = lattice_coords(basis_rows, v)
    return x is not None and all(c.denominator == 1 for c in x)


def frac_gcd(values):
    """gcd of rationals: gcd(a/c, b/c) = gcd(a, b)/c after clearing denominators."""
    nums, den = scaled([Fraction(v) for v in values])
    return Fraction(gcd(*nums), den)


def row_lattice_basis(rows):
    """A basis (independent rows) of the lattice generated by rational rows.

    Scales to an integer matrix, uses the Smith decomposition u m v = d to
    read off the row lattice as {d_ii * row_i(v^-1)}, and scales back.
    """
    rows = [vec(r) for r in rows if not is_zero(r)]
    if not rows:
        return ()
    a, den = scaled_rows(rows)
    d, _, v = smith_normal_form(a)
    v_inv, det = int_inverse(v)         # v is unimodular: det = +-1
    basis = []
    for i in range(min(len(d), len(d[0]))):
        if d[i][i] != 0:
            basis.append(tuple(Fraction(det * d[i][i] * x, den)
                               for x in v_inv[i]))
    return tuple(basis)


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns ``(d, u, v)`` with ``u m v = d``, ``u`` and ``v`` unimodular and
    ``d`` diagonal with d[i][i] | d[i+1][i+1].  Rows/entries are plain ints.
    """
    a = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(nr, nc):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # make pivot divide the rest of the block
        redo = False
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    add_row(i, t, 1)
                    redo = True
                    break
            if redo:
                break
        if redo:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    return (tuple(map(tuple, d)), tuple(map(tuple, u)), tuple(map(tuple, v)))
