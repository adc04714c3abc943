"""Exact linear algebra over the integers, with rationals at the edges.

A rational vector or matrix is held as integer rows over one common
denominator, ``(rows, den)``: ``scaled``/``scaled_rows`` make that form
from rationals and ``unscaled`` turns it back into a tuple of
:class:`fractions.Fraction`.  The few helpers on Fraction tuples (``vec``,
``add``, ``scale``, ``mat_vec``) serve the Euclidean vectors read or
printed at the API.  No floating point is used anywhere; parity questions
about huge integers are the whole point of the package, so all arithmetic
is exact.  Row reduction is one fraction-free elimination on integers,
``row_span_table``; independence, kernels and coordinates in a row span
(``span_coords``) are all read off its table.
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


def scale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def combos(coeffs, rows):
    """The integer rows c . rows for every integer row c of ``coeffs``,
    generated one at a time, each row of ``rows`` read on its nonzero
    entries."""
    width = len(rows[0]) if rows else 0
    support = [[(j, x) for j, x in enumerate(row) if x] for row in rows]
    for c in coeffs:
        total = [0] * width
        for cj, row in zip(c, support):
            if cj:
                for j, x in row:
                    total[j] += cj * x
        yield total


def fmt_q(x):
    """A rational (int or Fraction) as ``a`` or ``a/b``; GuardExceededError
    if a part has more digits than Python writes out
    (``sys.get_int_max_str_digits()``)."""
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
    """(numerators, d): a rational vector over its least common denominator
    (ints or Fractions)."""
    den = lcm(*[x.denominator for x in v])
    if den == 1:
        return tuple(map(int, v)), 1
    return tuple([x.numerator * (den // x.denominator) for x in v]), den


def unscaled(nums, den):
    """The rational vector nums / den (``scaled``'s inverse)."""
    return tuple(Fraction(x, den) for x in nums)


def unscaled_rows(rows, den):
    """The rational rows of integer ``rows`` over den (``scaled_rows``'
    inverse), generated one at a time, each distinct value made a Fraction
    once."""
    frac = _Fractions(den)
    return (tuple(map(frac.__getitem__, row)) for row in rows)


class _Fractions(dict):
    """x -> Fraction(x, den), each made when first asked for."""

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, x):
        self[x] = Fraction(x, self.den)
        return self[x]


def scaled_rows(rows):
    """(numerator rows, d): a rational matrix over one common denominator."""
    den = lcm(*[x.denominator for row in rows for x in row])
    if den == 1:
        return tuple(tuple(map(int, row)) for row in rows), 1
    return tuple(tuple([x.numerator * (den // x.denominator) for x in row])
                 for row in rows), den


def _bareiss(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) on the first ``ncols`` columns of integer ``rows``; the columns
    past them ride along.  A step with
    pivot p in column c of row r maps each other row i to (p r_i - r_i[c]
    r_r) / prev, exactly, prev the pivot before; rows are rescaled lazily,
    row i standing for a[i] * prev / base[i].  A column with no pivot is
    skipped.  A step updates the columns from the first skipped one on, or
    past c when none was skipped, so settled pivot columns are left alone.

    Returns (a, base, pivots, det).  Off the pivot columns, a[j] / base[j]
    is row j of the reduced echelon form for j < len(pivots), and the rows
    past those are zero in the first ``ncols`` columns; det is the minor on
    the pivot rows and columns, with the sign of the row swaps."""
    a = [list(row) for row in rows]
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

    def add_col(src, dst, f):
        for row in a:
            row[dst] += f * row[src]
        v_inv[src] = [x - f * y for x, y in zip(v_inv[src], v_inv[dst])]

    t = 0
    while t < min(nr, nc):
        # the pivot: the first entry of least absolute value, none under 1
        piv, least = None, 0
        for i in range(t, nr):
            for j, x in enumerate(a[i][t:], t):
                if x and (piv is None or abs(x) < least):
                    piv, least = (i, j), abs(x)
            if least == 1:
                break
        if piv is None:
            break
        a[t], a[piv[0]] = a[piv[0]], a[t]
        swap_cols(t, piv[1])
        done = False
        while not done:     # clear column t, then row t
            done = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
            for j in range(t + 1, nc):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
        # the pivot must divide the rest of the block: else add a row
        # holding an entry it does not divide, and start again
        p = a[t][t]
        bad = next((i for i in range(t + 1, nr) if abs(p) != 1 and any(
            a[i][j] % p for j in range(t + 1, nc))), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        if p < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return (tuple(a[i][i] for i in range(min(nr, nc))),
            tuple(map(tuple, v_inv)))
