"""Exact linear algebra over the rationals and the integers.

Everything here works on tuples of :class:`fractions.Fraction` (vectors) and
tuples of such tuples (row-major matrices).  No floating point is used
anywhere; parity questions about huge integers are the whole point of the
package, so all arithmetic is exact.  Row reduction is one fraction-free
elimination on integers, ``row_span_table``; independence, kernels and
coordinates in a row span (``span_coords``) are all read off its table.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import GuardExceededError


def vec(values):
    """values as Fractions; Fraction entries are kept as they are."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x)
                 for x in values)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def zero(n):
    return (Fraction(0),) * n


def unit(n, i):
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def identity(n):
    return tuple(unit(n, i) for i in range(n))


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
    """A rational as ``a`` or ``a/b``; GuardExceededError if a part has more
    digits than Python writes out (``sys.get_int_max_str_digits()``)."""
    x = Fraction(x)
    try:
        return (str(x.numerator) if x.denominator == 1
                else f"{x.numerator}/{x.denominator}")
    except ValueError:
        big = fmt_int(max(abs(x.numerator), x.denominator))
        raise GuardExceededError(f"a result of {big} is too long to print")


def fmt_int(n):
    """n in decimal, or ``about 10^k`` past the digits Python writes out."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{n.bit_length() * 30103 // 100000}"


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


def _bareiss(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) on the first ``ncols`` columns of rational ``rows``, each scaled
    to integers on entry; the columns past them ride along.  A step with
    pivot p in column c of row r maps each other row i to (p r_i - r_i[c]
    r_r) / prev, exactly, prev the pivot before; rows are rescaled lazily,
    row i standing for a[i] * prev / base[i].  A column with no pivot is
    skipped.  A step updates the columns from the first skipped one on, or
    past c when none was skipped, so settled pivot columns are left alone.

    Returns (a, base, pivots, det).  Off the pivot columns, a[j] / base[j]
    is row j of the reduced echelon form for j < len(pivots), and the rows
    past those are zero in the first ``ncols`` columns; det is the minor on
    the pivot rows and columns, with the sign of the row swaps."""
    a = [list(scaled(row)[0]) for row in rows]
    base = [1] * len(a)
    pivots, prev, sign, free = [], 1, 1, None
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            free = c if free is None else free
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            base[r], base[piv] = base[piv], base[r]
            sign = -sign
        if base[r] != prev:
            a[r] = [x * prev // base[r] for x in a[r]]
        lo = c + 1 if free is None else free
        p, top = a[r][c], a[r][lo:]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                row[lo:] = [(p * x - f * y) // base[i]
                            for x, y in zip(row[lo:], top)]
                base[i] = p
        base[r] = prev = p
        pivots.append(c)
    return a, base, pivots, sign * prev


def int_inverse(m):
    """(adj, det) for a square integer matrix: adj . m = det . I, by
    ``row_span_table``.  Raises ZeroDivisionError when m is singular."""
    table = row_span_table(m, len(m))
    if table is None:
        raise ZeroDivisionError("matrix is singular")
    return table[1], table[2]


def row_span_table(rows, width):
    """Coordinates in the row span of independent integer rows B of length
    ``width``, from one elimination of [B | 1]: (pivots, adj, det, kernel),
    the columns P of a nonsingular minor M = B[:, P] with adj . M = det . I,
    and a basis of {k : B k = 0}.  v is in the row span iff v . k = 0 for
    every k, and then x . B = det v for x = v[P] . adj.  None when the rows
    are dependent."""
    n = len(rows)
    a, base, pivots, det = _bareiss(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)], width)
    if len(pivots) < n:
        return None
    kernel = []
    for free in (c for c in range(width) if c not in pivots):
        k = [0] * width
        k[free] = det
        for row, b, c in zip(a, base, pivots):
            k[c] = -det * row[free] // b
        kernel.append(k)
    return (pivots, tuple(tuple(det * x // b for x in row[width:])
                          for row, b in zip(a, base)), det, kernel)


def span_coords(table, nums):
    """(x, d), d = |det| > 0 and x integers with x . B = d v, for v = nums in
    the row span of the rows B of a ``row_span_table``, or None off it."""
    pivots, adj, det, kernel = table
    if any(sum(map(mul, nums, k)) for k in kernel):
        return None
    picked = [nums[p] if det > 0 else -nums[p] for p in pivots]
    return [sum(map(mul, picked, col)) for col in zip(*adj)], abs(det)


def lattice_coords(basis_rows, v):
    """The rational x with x . basis_rows = v, or None off their span, by
    ``span_coords``; ValueError if the rows are dependent."""
    rows, bden = scaled_rows(basis_rows)
    nums, den = scaled(v)
    table = row_span_table(rows, len(nums))
    if table is None:
        raise ValueError("the basis rows are not independent")
    xd = span_coords(table, nums)
    return None if xd is None else tuple(
        Fraction(a * bden, xd[1] * den) for a in xd[0])


def frac_gcd(values):
    """gcd of rationals: gcd(a/c, b/c) = gcd(a, b)/c after clearing denominators."""
    nums, den = scaled([Fraction(v) for v in values])
    return Fraction(gcd(*nums), den)


def row_lattice_basis(rows):
    """A basis of the lattice generated by rational rows, its Hermite normal
    form (small entries, where a Smith form's v^-1 can reach thousands of
    digits): per column, Euclid's algorithm on the rows not yet taken leaves
    one, made positive there, which reduces the basis rows before it."""
    a, den = scaled_rows([vec(r) for r in rows if any(r)])
    a, basis = [list(r) for r in a], []
    for c in range(len(a[0]) if a else 0):
        while len(live := [r for r in a if r[c]]) > 1:
            p = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [x - q * y for x, y in zip(r, p)]
        for p in live:
            p[:] = [-x for x in p] if p[c] < 0 else p
            for r in basis:     # each entry above the pivot into [0, p[c])
                q = r[c] // p[c]
                r[:] = [x - q * y for x, y in zip(r, p)]
            basis.append(p)
            a.remove(p)
    return tuple(tuple(Fraction(x, den) for x in r) for r in basis)


def smith_normal_form(m):
    """Smith normal form of an integer matrix: (d, v_inv), d the diagonal
    of u m v = D, d[i] >= 0 and d[i] | d[i+1], for some unimodular u and v,
    and v_inv = v^-1.  Each column operation applies its inverse to the
    rows of v_inv, so the row lattice of m is spanned by the d[i] v_inv[i].
    """
    a = [[int(x) for x in row] for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    v_inv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, f):
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        v_inv[src] = [x - f * y for x, y in zip(v_inv[src], v_inv[dst])]

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
        a[t], a[piv[0]] = a[piv[0]], a[t]
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
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
        t += 1
    return (tuple(a[i][i] for i in range(min(nr, nc))),
            tuple(map(tuple, v_inv)))
