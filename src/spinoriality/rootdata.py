"""Root data for reductive groups in exact rational coordinates.

Characters and cocharacters live in dual copies of Q^m with the standard dot
pairing.  Classical families use their Euclidean realizations (so lattice
generators like (1,0,...,0) or 1/2(1,...,1) are literal vectors); exceptional
types use the basis of simple coroots, so character coordinates there are
fundamental-weight coordinates.

Central quotients are realized by enlarging the cocharacter lattice with
rational generators, never by changing basis; each group's datum is built
once, with its lattice.  For type A the ambient space keeps the direction
(1,...,1); it is recorded in ``central_cochars`` and all characters are
required to be orthogonal to it, which makes the pairing with any
representative of a quotient cocharacter well defined.  One integer
elimination of the lattice basis, made with the datum, answers each lattice
question: independence, pi_1's relations (the coroots, and the least vector
of X_* along each quotiented direction in its span), any cocharacter's
coordinates.

Hot paths read a weight as its Dynkin labels <mu, alpha_i^v> and use lazy
integer tables: the labels of the simple and positive roots, the positive
coroots in simple-coroot coordinates, -w0 as a permutation of the labels, and
one form B = adj_ij e_j = det (omega_i, omega_j), |alpha_i|^2 = 2 e_i, on a
simple factor the inverse Killing form times B(theta, theta + 2 delta), theta
its highest root, as the adjoint Casimir is 1.  ``WeightForms`` decides on
labels, in integers, whether a weight is a dominant orthogonal character, in
any basis.  No table per family: |W| and |W_K| come from Macdonald's product,
h^v from the highest root, Killing norms from the pairings with the simple
roots, all on the integer root closure.  Weyl orbits are walked on labels, s_i
subtracting v_i times the labels of alpha_i, and that of a cocharacter on its
pairings with the simple roots and the fundamental weights.
"""

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul
from weakref import proxy

from .errors import SpecificationError, GuardExceededError
from . import ratlin as rl
from .ratlin import vec, add, sub, scale, dot

_CHAIN_CARTAN = {
    # exceptional types as adjacency lists (Bourbaki numbering, 0-based)
    "E6": [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
    "E7": [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
    "E8": [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)],
}

_F4_CARTAN = [
    [2, -1, 0, 0],
    [-1, 2, -2, 0],
    [0, -1, 2, -1],
    [0, 0, -1, 2],
]

_G2_CARTAN = [
    [2, -1],
    [-3, 2],
]

class Factor:
    """One simple factor: its simple roots' indices and lengths, its type."""

    def __init__(self, indices, family, rank, lengths):
        self.indices = tuple(indices)
        self.family = family
        self.rank = rank
        self.lengths = tuple(lengths)

    @property
    def label(self):
        return f"{self.family}{self.rank}"


class RootDatum:
    """A root datum (X^*, R, X_*, R_v) with an explicit cocharacter lattice.

    Parameters
    ----------
    simple_roots : sequence of vectors (character coordinates)
    simple_coroots : sequence of vectors (cocharacter coordinates)
    cochar_basis : rows spanning X_*(T); rational entries allowed
    central_cochars : ambient directions modded out of the cocharacter side
        (type A realizations); characters must annihilate them
    """

    def __init__(self, simple_roots, simple_coroots, cochar_basis,
                 central_cochars=(), label=""):
        self.simple_roots = tuple(vec(r) for r in simple_roots)
        self.simple_coroots = tuple(vec(c) for c in simple_coroots)
        self.central_cochars = tuple(vec(z) for z in central_cochars)
        self.label = label
        if len(self.simple_roots) != len(self.simple_coroots):
            raise SpecificationError("roots and coroots must come in pairs")
        self.dim = len(self.simple_roots[0]) if self.simple_roots else (
            len(cochar_basis[0]) if cochar_basis else 0)
        for v in (*self.simple_roots, *self.simple_coroots,
                  *self.central_cochars):
            if len(v) != self.dim:
                raise SpecificationError("inconsistent ambient dimensions")
        roots, rden = self._root_rows = rl.scaled_rows(self.simple_roots)
        coroots, cden = self._coroot_rows = rl.scaled_rows(self.simple_coroots)
        self.cartan_matrix = cartan_checked(
            [[sum(map(mul, r, c)) for c in coroots] for r in roots], rden * cden)
        self.factors = cartan_factors(self.cartan_matrix)
        check_root_guard([(f.family, f.rank) for f in self.factors])
        self._set_lattice(cochar_basis)

    def _set_lattice(self, cochar_basis):
        """Take X_* spanned by these rows, checked to pair integrally with
        the simple roots, to be independent and to contain the coroot
        lattice, by one elimination of the scaled rows (``row_span_table``),
        kept for ``_lattice_coords``.  Sets ``relations``, pi_1's relation
        matrix in basis coordinates, and ``central_torus_rank``: a
        quotiented direction in the span of X_* is no torus of the group,
        but trivial in it, and so is the least vector of X_* along it."""
        self.cochar_basis = tuple(vec(b) for b in cochar_basis)
        if any(len(b) != self.dim for b in self.cochar_basis):
            raise SpecificationError("inconsistent ambient dimensions")
        self._cochar_rows = rows, bden = rl.scaled_rows(self.cochar_basis)
        roots, rden = self._root_rows
        supports = [[(k, x) for k, x in enumerate(b) if x] for b in rows
                    if rden * bden > 1]     # else every pairing is integral
        for i, r in enumerate(roots):
            if any(sum(r[k] * x for k, x in s) % (rden * bden)
                   for s in supports):
                raise SpecificationError(
                    f"simple root {i + 1} pairs non-integrally with the "
                    "cocharacter lattice: not a root datum")
        self._lattice = rl.row_span_table(rows, self.dim)
        if self._lattice is None:
            raise SpecificationError("cocharacter basis is not independent")
        coroots, cden = self._coroot_rows
        coords = [self._lattice_coords(c, cden) for c in coroots]
        if any(xd is None or any(a % xd[1] for a in xd[0]) for xd in coords):
            raise SpecificationError(
                "cocharacter lattice does not contain the coroot lattice")
        central = [xd[0] for z in self.central_cochars
                   if (xd := self._lattice_coords(*rl.scaled(z)))]
        self.relations = tuple(tuple(a // d for a in x) for x, d in coords)
        self.relations += tuple(tuple(a // gcd(*x) for a in x)
                                for x in central)
        self.central_torus_rank = len(rows) - len(coroots) - len(central)

    def _lattice_coords(self, nums, den):
        """(x, d), x integers, d > 0, x / d the coordinates of nums / den in
        the cocharacter basis, or None off its span (``rl.span_coords`` on
        the lattice table)."""
        xd = len(nums) == self.dim and rl.span_coords(self._lattice, nums)
        if not xd:
            return None
        return [a * self._cochar_rows[1] for a in xd[0]], den * xd[1]

    @cached_property
    def lie_type(self):
        """List of (family, rank) simple factors plus the central torus rank."""
        fams = [(f.family, f.rank) for f in self.factors]
        return fams, self.central_torus_rank

    @cached_property
    def _root_closure(self):
        """Each positive root beta as (c, k, labels, step): c its coordinates
        in the simple roots, k those of beta^v in the simple coroots, its
        Dynkin labels, by reflection closure from the simple roots (Bourbaki,
        Lie groups and Lie algebras, ch. VI, 1).  With a the Cartan matrix
        (row i: the labels of alpha_i) and x = <beta, alpha_i^v>, s_i
        subtracts x from c_i, x times a_i from the labels and
        <alpha_i, beta^v> = sum_j k_j a_ij from k_i; the image is a positive
        root iff c_i stays >= 0.  Its step (p, i, d) says k = k' + d e_i, k'
        that of the root at position p - 1 (0 if p = 0).  Each simple
        factor's count is checked against the classification."""
        a = self.cartan_matrix
        n = len(a)
        found = {}
        for i in range(n):
            e = tuple(int(j == i) for j in range(n))
            found[e] = (e, a[i], (None, i, 1))
        queue = list(found)
        while queue:
            c = queue.pop()
            k, labels, _ = found[c]
            for i, x in enumerate(labels):
                if not x or c[i] < x:
                    continue
                g = c[:i] + (c[i] - x,) + c[i + 1:]
                if g in found:
                    continue
                y = sum(map(mul, k, a[i]))
                found[g] = (k[:i] + (k[i] - y,) + k[i + 1:],
                            tuple([l - x * b for l, b in zip(labels, a[i])]),
                            (c, i, -y))
                queue.append(g)
        counts = [0] * len(self.factors)
        for c in found:
            counts[self._factor_of_root(c)] += 1
        for f, count in zip(self.factors, counts):
            want = expected_root_count(f.family, f.rank) // 2
            if count != want:
                raise SpecificationError(
                    f"the reflection closure found {count} positive roots "
                    f"for the factor {f.label} on simple roots {f.indices}, "
                    f"expected {want}")
        pos = {c: t + 1 for t, c in enumerate(found)}   # parents come first
        return tuple((c, k, labels, (pos.get(p, 0), i, d))
                     for c, (k, labels, (p, i, d)) in found.items())

    @cached_property
    def _factor_index(self):
        """The index of the simple factor of each simple root."""
        out = [None] * len(self.simple_roots)
        for fi, f in enumerate(self.factors):
            for i in f.indices:
                out[i] = fi
        return tuple(out)

    def _factor_of_root(self, c):
        """The simple factor of the root with simple-root coordinates c: that
        of any simple root in its support, such as one of largest c_i."""
        return self._factor_index[c.index(max(c))]

    @cached_property
    def positive_root_coords(self):
        """Each positive root (in ``positive_roots`` order) in simple-root
        coordinates."""
        return tuple(t[0] for t in self._root_closure)

    @cached_property
    def positive_roots(self):
        """Positive roots paired with their coroots, as vectors: the integer
        combinations of the simple roots and coroots given by the closure."""
        return tuple(zip(
            rl.int_combos(self.positive_root_coords, self.simple_roots),
            rl.int_combos(self.positive_coroot_coords, self.simple_coroots)))

    @cached_property
    def num_positive_roots(self):
        return len(self._root_closure)

    @cached_property
    def delta(self):
        """Half-sum of the positive roots."""
        two_delta = map(sum, zip(*self.positive_root_coords))
        return rl.combo([Fraction(x, 2) for x in two_delta],
                        self.simple_roots, dim=self.dim)

    @cached_property
    def _roots_by_factor(self):
        """Per simple factor, its positive roots with their coroots, those
        whose coordinates are supported on its simple roots."""
        buckets = [[] for _ in self.factors]
        for pair, c in zip(self.positive_roots, self.positive_root_coords):
            buckets[self._factor_of_root(c)].append(pair)
        return tuple(map(tuple, buckets))

    def factor_dim(self, fi):
        """dim of the simple factor: rank + number of its roots."""
        return self.factors[fi].rank + 2 * len(self._roots_by_factor[fi])

    @cached_property
    def dim_g(self):
        return (2 * self.num_positive_roots + len(self.simple_roots)
                + self.central_torus_rank)

    # ------------------------------------------------------------------
    # Dynkin labels and their integer tables

    def dynkin_labels(self, mu):
        """The labels <mu, alpha_i^v> (``WeightForms.labels``)."""
        return self.weight_forms().labels(*rl.scaled(mu))

    @cached_property
    def positive_coroot_coords(self):
        """Each positive coroot beta^v (in ``positive_roots`` order) in
        simple-coroot coordinates."""
        return tuple(t[1] for t in self._root_closure)

    @cached_property
    def positive_root_labels(self):
        """The labels of each positive root, in ``positive_roots`` order."""
        return tuple(t[2] for t in self._root_closure)

    @cached_property
    def two_delta_coroot_coords(self):
        """2 delta^v, the sum of the positive coroots, in those coordinates."""
        return tuple(map(sum, zip(*self.positive_coroot_coords)))

    @cached_property
    def weyl_denominator(self):
        """prod over positive coroots of <delta, beta^v> = sum_i k_i."""
        return prod(map(sum, self.positive_coroot_coords))

    @cached_property
    def _invariant_form(self):
        """(B, s): B = adj_ij e_j on labels, det (omega_i, omega_j) if
        |alpha_i|^2 = 2 e_i (``Factor`` lengths): W-invariant, a e the Gram
        matrix of the simple roots (Humphreys, Introduction to Lie algebras,
        13.1); s_i = det e_i, B(x, sum c_i alpha_i) = sum_i s_i c_i x_i."""
        adj, det = self._cartan_adj
        e = dict(x for f in self.factors for x in zip(f.indices, f.lengths))
        e = [e[i] for i in range(len(adj))]
        return [list(map(mul, row, e)) for row in adj], [det * x for x in e]

    @cached_property
    def minus_w0_perm(self):
        """-w0 as the involution sigma of the labels, -w0 omega_i =
        omega_sigma(i): per simple factor, the diagram automorphism that
        reverses an A_n chain, swaps the two short arms at the branch node
        of D_n for odd n and the two long arms of E6, and fixes every other
        type (Bourbaki, Lie groups and Lie algebras, ch. VI, plates); the
        diagram is read off the Cartan matrix, in any node order."""
        a = self.cartan_matrix
        sigma = list(range(len(a)))
        for f in self.factors:
            nbrs = {i: [j for j in f.indices if j != i and a[i][j]]
                    for i in f.indices}

            def arm(i, prev):   # from i away from prev to an end or a branch
                out = [i]
                while len(nxt := [j for j in nbrs[i] if j != prev]) == 1:
                    prev, i = i, nxt[0]
                    out.append(i)
                return out

            if f.family == "A":
                p = arm(next(i for i in f.indices if len(nbrs[i]) < 2), None)
                q = p[::-1]
            elif (f.family == "D" and f.rank % 2) or f.label == "E6":
                b = next(i for i in f.indices if len(nbrs[i]) == 3)
                arms = sorted((arm(j, b) for j in nbrs[b]), key=len)
                p, q = arms[:2] if f.family == "D" else arms[1:]
            else:
                continue
            for x, y in zip(p, q):
                sigma[x], sigma[y] = y, x
        return tuple(sigma)

    @cached_property
    def _sigma_pairs(self):
        """The pairs (i, sigma(i)) with i < sigma(i)."""
        return tuple((i, s) for i, s in enumerate(self.minus_w0_perm) if i < s)

    @cached_property
    def _root_kernel(self):
        """Primitive integer vectors all simple roots kill: their table's."""
        kernel = rl.row_span_table(self._root_rows[0], self.dim)[3]
        return tuple(tuple(x // gcd(*k) for x in k) for k in kernel)

    # ------------------------------------------------------------------
    # pairings and forms

    @cached_property
    def _highest_roots(self):
        """Per simple factor, the position of its root of greatest height
        theta in the closure."""
        top = [(0, 0)] * len(self.factors)
        for p, c in enumerate(self.positive_root_coords):
            fi = self._factor_of_root(c)
            top[fi] = max(top[fi], (sum(c), p))
        return [p for _, p in top]

    @cached_property
    def _inverse_killing(self):
        """Per factor: its indices, the rows of B at them and den = B(theta,
        theta + 2 delta) = sum_i s_i c_i (x_i + 2), ``_invariant_form``.
        B / den is the inverse Killing form there, a multiple of B giving
        the adjoint Casimir 1 (Humphreys, 6.2)."""
        form, s = self._invariant_form
        coords, labels = self.positive_root_coords, self.positive_root_labels
        return tuple((f.indices, [form[a] for a in f.indices],
                      sum(w * c * (x + 2) for w, c, x in zip(
                          s, coords[p], labels[p])))
                     for f, p in zip(self.factors, self._highest_roots))

    def factor_inner_nums(self, labels1, labels2, factors=slice(None)):
        """``label_inner`` on each simple factor of the slice ``factors``,
        times its den in ``_inverse_killing``: integers for integer labels."""
        return [sum(labels1[i] * sum(map(mul, row, labels2))
                    for i, row in zip(idx, rows))
                for idx, rows, _ in self._inverse_killing[factors]]

    def label_inner(self, labels1, labels2, factor=None):
        """``weight_inner`` of weights given by labels, or on one factor."""
        factors = slice(None) if factor is None else slice(factor, factor + 1)
        nums = self.factor_inner_nums(labels1, labels2, factors)
        dens = [den for *_, den in self._inverse_killing[factors]]
        return sum(map(Fraction, nums, dens), Fraction(0))

    def weight_inner(self, mu1, mu2):
        """Inverse Killing form on characters; central parts do not count."""
        return self.label_inner(self.dynkin_labels(mu1),
                                self.dynkin_labels(mu2))

    def cochar_norm_sq(self, nu):
        """|nu|^2 = sum over roots of <beta, nu>^2, read off
        ``cochar_table(nu).norms``."""
        return sum(self.cochar_table(nu).norms, Fraction(0))

    def cochar_table(self, nu):
        """The ``CocharTable`` of nu, kept by value for the last 2 rank(X_*)
        read: room for each pi_1 generator and its regular point."""
        key = rl.scaled(nu)
        memo = self.__dict__.setdefault("_cochar_tables", {})
        table = memo.pop(key, None) or CocharTable(self, nu, key)
        memo[key] = table       # the most recently read last
        if len(memo) > 2 * len(self.cochar_basis):
            del memo[next(iter(memo))]
        return table

    def dual_coxeter_number(self, factor):
        """h^v = 1 + ht(theta^v), theta the factor's positive root of greatest
        height (Kac, Infinite dimensional Lie algebras, 6.1)."""
        return 1 + sum(self.positive_coroot_coords[
            self._highest_roots[factor]])

    # ------------------------------------------------------------------
    # dominance and the Weyl group

    def is_dominant(self, mu):
        return min(self.dynkin_labels(mu), default=0) >= 0

    @cached_property
    def minus_w0_matrix(self):
        """The involution -w0 as a matrix on character coordinates:
        mu -> -mu + sum_i <mu, alpha_i^v> (omega_i + omega_sigma(i)), since
        -w0 omega_i = omega_sigma(i) and -w0 is -1 where all coroots vanish.
        """
        w = self.fundamental_weights
        sums = [add(w[i], w[s]) for i, s in enumerate(self.minus_w0_perm)]
        return tuple(tuple(sum(s[r] * co[c] for s, co in
                               zip(sums, self.simple_coroots)) - (r == c)
                           for c in range(self.dim))
                     for r in range(self.dim))

    @cached_property
    def weyl_order(self):
        """|W|, ``_parabolic_order`` with every node in K."""
        return self._parabolic_order([0] * len(self.cartan_matrix))

    def label_orbit(self, labels):
        """``_orbit`` of the weight with these labels."""
        return self._orbit(labels, self.cartan_matrix)

    def _orbit(self, labels, rows):
        """The Weyl orbit of the point with these labels, as a dict from
        label tuples to det(w) for the w that reaches each (well defined for
        a regular point), where s_i subtracts x_i ``rows[i]``: the rows of
        the Cartan matrix, or of its transpose for a cocharacter's labels
        <alpha_i, y>, as a^T is the dual root system's.  Each point is built
        once, on the tree rooted at the dominant point where a point's
        parent is its reflection at its first negative label: a point made
        by s_f (the root: f = r) has the child s_i(cur), cur_i > 0, for
        i < f, and for i > f when rows[i][f] != 0 and s_i(cur) has no
        negative label before i.  The sign is the parity of the depth."""
        r = len(rows)
        top, sign = self.dominant_point(labels, rows)
        orbit = {top: sign}
        stack = [(top, r, -sign)]
        while stack:
            cur, f, sign = stack.pop()
            for i, x in enumerate(cur):
                if x > 0 and (i < f or rows[i][f]):
                    nxt = tuple([a - x * b for a, b in zip(cur, rows[i])])
                    if i < f or min(nxt[f:i]) >= 0:
                        orbit[nxt] = sign
                        stack.append((nxt, i, -sign))
        return orbit

    def dominant_point(self, labels, rows=None):
        """The dominant point of the Weyl orbit of the weight with these
        labels, as labels, and det(w) for the w that reaches it: reflect at
        the first negative label until none is left (``rows`` as in
        ``_orbit``, by default the Cartan matrix)."""
        rows = self.cartan_matrix if rows is None else rows
        top, sign, r = list(labels), 1, len(rows)
        while (i := next((j for j, x in enumerate(top) if x < 0), r)) < r:
            top, sign = [a - top[i] * b for a, b in zip(top, rows[i])], -sign
        return tuple(top), sign

    def _parabolic_order(self, x):
        """|W_K|, K = {i : x_i = 0}: prod (ht beta^v + 1) / ht beta^v over the
        positive coroots supported on K (Macdonald, Math. Ann. 1972, t = 1)."""
        hs = [sum(k) for k in self.positive_coroot_coords
              if not any(map(mul, k, x))]
        return prod(h + 1 for h in hs) // prod(hs)

    def orbit_size(self, labels, rows=None):
        """|W x| = |W| / |W_x| for the point with these labels (``rows`` as
        in ``_orbit``); W_x is W_K, K the zero labels of its dominant point."""
        top = self.dominant_point(labels, rows)[0]
        return self.weyl_order // self._parabolic_order(top)

    def parabolic_table(self, mu):
        """(|W mu|, classes, candidates) for dominant labels mu, memoized per
        J = {j : mu_j = 0}, W_mu = W_J: per class of positive roots under
        alpha -> +-w alpha, w in W_J, its J-dominant root (labels >= 0 on J)
        with B(., alpha) and the class size (see ``repcalc``); and the beta
        with beta_j <= 0 on J, as only for those can mu - beta be dominant."""
        key = tuple([i for i, x in enumerate(mu) if not x])
        tables = self.__dict__.setdefault("_parabolic_tables", {})
        if key not in tables:
            order, roots = self._parabolic_order(mu), self.positive_root_labels
            s = self._invariant_form[1]
            classes = [(a, tuple(map(mul, s, c)),
                        order // self._parabolic_order(
                            [1 if x else y for x, y in zip(mu, a)])
                        // (2 if not any(map(mul, c, mu)) else 1))
                for a, c in zip(roots, self.positive_root_coords)
                if all(a[j] >= 0 for j in key)]
            tables[key] = (self.weyl_order // order, classes,
                           [a for a in roots if all(a[j] <= 0 for j in key)])
        return tables[key]

    def weyl_orbit_signed(self, v, guard=None):
        """The Weyl orbit of a regular v as a dict from the Dynkin labels of
        each point w(v) to det(w).

        The points differ from v by root-span vectors, on which the labels
        are faithful, so the label tuples tell them apart.  Only regular v
        (no zero label anywhere in the orbit, so trivial stabilizer) is
        accepted, which is all the alternating Weyl-sum oracle needs; v is
        regular iff its dominant point has no zero label.
        """
        if guard is not None and self.weyl_order > guard:
            raise GuardExceededError(
                f"Weyl group order {self.weyl_order} exceeds guard {guard}")
        labels = self.dynkin_labels(v)
        if 0 in self.dominant_point(labels)[0]:
            raise SpecificationError("weyl_orbit_signed needs regular input")
        return self.label_orbit(labels)

    # ------------------------------------------------------------------
    # lattices

    def assert_cocharacter(self, nu):
        """nu's integer coordinates in the cocharacter basis, or a refusal
        if nu is not in the lattice."""
        xd = self._lattice_coords(*rl.scaled(vec(nu)))
        if xd is None or any(a % xd[1] for a in xd[0]):
            raise SpecificationError(
                f"{rl.fmt_vec(nu)} is not in the cocharacter lattice")
        return tuple(a // xd[1] for a in xd[0])

    def is_character(self, mu):
        """mu kills the quotiented directions, pairs integrally with X_*."""
        return self.weight_forms().read(*rl.scaled(mu))[1] != "character"

    def weight_forms(self, basis=None):
        """The ``WeightForms`` of ``basis`` (None: ambient coordinates), kept
        for ambient coordinates and the last basis, found by identity."""
        memo = self.__dict__.setdefault("_weight_forms", {})
        forms = memo.get(basis is None)
        if forms is None or forms.basis is not basis:
            forms = memo[basis is None] = WeightForms(self, basis)
        return forms

    @cached_property
    def _cartan_adj(self):
        """(adj, det) of the Cartan matrix, in integers: adj . A = det . I."""
        return rl.int_inverse(self.cartan_matrix)

    @cached_property
    def fundamental_weights(self):
        """Fundamental weights (in the derived group's span), per simple root."""
        adj, det = self._cartan_adj
        return tuple(rl.int_combos(adj, self.simple_roots, det))

    @cached_property
    def fundamental_coweights(self):
        """The basis of the coroot span dual to the simple roots.

        <v, omega_i^v> is the i-th simple-root coordinate of any v in the
        root span.
        """
        adj, det = self._cartan_adj
        return tuple(rl.int_combos(rl.transpose(adj), self.simple_coroots,
                                    det))

    @cached_property
    def center_directions(self):
        """Basis of the Lie-algebra center inside the span of X_*(T).

        These are the directions a genuine central torus of the group points
        in; characters of irreducible orthogonal representations must vanish
        on them; a basis modulo the quotiented-out ambient directions.
        """
        # combinations of the cochar basis that every simple root kills
        system = rl.scaled_rows([[dot(a, b) for b in self.cochar_basis]
                                 for a in self.simple_roots])[0]
        _, _, det, kernel = rl.row_span_table(system, len(self.cochar_basis))
        kept = self.central_cochars
        for v in rl.int_combos(kernel, self.cochar_basis, det):
            if rl.row_span_table(rl.scaled_rows(kept + (v,))[0], self.dim):
                kept += (v,)
        return kept[len(self.central_cochars):]


class WeightForms:
    """The one dominant orthogonal character predicate, as integer forms
    on coordinates in one basis; the sweep reads ``coordinate_forms``.

    Coordinates nums / den in the basis rows B_j / bden (ambient: B = 1)
    give mu = m / d, m = nums B, d = den bden.  mu is a character iff m . z
    = 0 for each quotiented direction z and m . x = 0 mod d xden for each
    row x / xden of the cocharacter basis; then its labels m . a_i / (d
    aden), a_i / aden the simple coroots, are integers.  It is fixed by -w0
    iff its labels agree on each pair (i, sigma(i)) and m . z = 0 for each
    z all simple roots kill (-w0 is -1 there), and orthogonal iff also
    <mu, 2 delta_v> = sum_i k_i labels_i is even, k = 2 delta_v in the
    simple coroots."""

    def __init__(self, rd, basis=None):
        # the datum keeps its forms: a proxy, so that no cycle outlives it
        self._rd, self.basis = proxy(rd), basis
        if basis is None:
            self._xrows, self._xden = rd._cochar_rows
            self._arows, self._aden = rd._coroot_rows
            self._central = [rl.scaled(z)[0] for z in rd.central_cochars]
        else:   # the ambient tables, shared
            vars(self).update(vars(rd.weight_forms()), basis=basis)
            self._rows, self._bden = rl.scaled_rows(basis)
            self._cols = tuple(zip(*self._rows))

    def lift(self, nums, den):
        """(m, d): the weight with coordinates nums / den is m / d."""
        width = self._rd.dim if self.basis is None else len(self.basis)
        if len(nums) != width:
            raise SpecificationError(
                f"a weight needs {width} coordinates here, got {len(nums)}")
        if self.basis is None:
            return nums, den
        return ([sum(map(mul, nums, col)) for col in self._cols],
                den * self._bden)

    def labels(self, m, d):
        """The labels of m / d: ints if all are integral, else Fractions."""
        d *= self._aden
        labels = [sum(map(mul, m, a)) for a in self._arows]
        if any(x % d for x in labels):
            return tuple(Fraction(x, d) for x in labels)
        return tuple(x // d for x in labels)

    def self_dual(self, mu, labels):
        """-w0 mu = mu for mu with these labels."""
        rd = self._rd
        nums = rl.scaled(mu)[0] if rd._root_kernel else ()
        return (all(labels[i] == labels[s] for i, s in rd._sigma_pairs)
                and not any(sum(map(mul, nums, z)) for z in rd._root_kernel))

    def parity(self, labels):
        """<mu, 2 delta_v> for mu with these labels."""
        return sum(map(mul, labels, self._rd.two_delta_coroot_coords))

    def read(self, m, d):
        """(labels, failed) for mu = m / d in ambient integers (``lift``):
        failed is None or "character" (labels None) or "dominant"."""
        if (any(sum(map(mul, m, z)) for z in self._central)
                or any(sum(map(mul, m, x)) % (d * self._xden)
                       for x in self._xrows)):
            return None, "character"
        labels = self.labels(m, d)
        return labels, "dominant" if min(labels, default=0) < 0 else None

    @cached_property
    def coordinate_forms(self):
        """On integer coordinates c of an independent basis: (perm, forms,
        labels), forms (n, q) with n . c = 0 mod q (n . c = 0 for q = 0),
        the rows n . c = bden aden labels(c), and p with -w0 b_i = b_p(i),
        or None: b' = -w0 b iff labels(b') = sigma labels(b) and <b', z> =
        -<b, z> for each z all roots kill."""
        rd, rows, d = self._rd, self._rows, self._bden
        if rl.row_span_table(rows, rd.dim) is None:
            raise SpecificationError("the sweep basis is not independent")

        def pull(f):
            return [sum(map(mul, b, f)) for b in rows]

        labels = [pull(a) for a in self._arows]
        kernel = [pull(z) for z in rd._root_kernel]
        two_delta = [sum(map(mul, col, rd.two_delta_coroot_coords))
                     for col in zip(*labels)]
        forms = ([(pull(x), d * self._xden) for x in self._xrows]
                 + [(two_delta, 2 * d * self._aden)]
                 + [(pull(z), 0) for z in self._central]
                 + [(n, 0) for n in kernel]
                 + [(rl.sub(labels[i], labels[s]), 0)
                    for i, s in rd._sigma_pairs])
        keys = [(tuple([n[j] for n in labels]), tuple([n[j] for n in kernel]))
                for j in range(len(rows))]
        index = {key: j for j, key in enumerate(keys)}
        perm = [index.get((tuple([ls[i] for i in rd.minus_w0_perm]),
                           tuple([-x for x in k]))) for ls, k in keys]
        return None if None in perm else perm, forms, labels


# values a ``CocharTable.orbit_values`` memo holds, about 80 bytes each: one
# benchmark oracle pass stores 888, 5 544 and 504 (SO8, Spin8, F4).
ORBIT_VALUES = 2 ** 14


class CocharTable:
    """Every form of one cocharacter nu: ``pairings`` p / den = <alpha_j,
    nu>, ``omega`` c / cden = <omega_i, nu> in least terms, ``norms``, each
    factor's |nu^i|^2, and ``d_nu``, from one pass over the closure;
    ``central``, ``q_form``, ``regular``, ``orbit_size``, ``signed_orbit``
    and ``paired_orbit`` when first read; ``pairing_form`` per weight, and
    ``orbit_values`` per dominant weight, kept as it holds no lam."""

    def __init__(self, rd, nu, scaled):
        # the datum keeps its tables: a proxy, so that no cycle outlives it
        self._rd, self.nu, (nums, nden) = proxy(rd), vec(nu), scaled
        (rows, rden), (adj, det) = rd._root_rows, rd._cartan_adj
        self.pairings = p, den = ([sum(map(mul, row, nums)) for row in rows],
                                  nden * rden)
        o = [sum(map(mul, row, p)) for row in adj]
        g = gcd(*o, det * den)
        self.omega = [x // g for x in o], det * den // g
        # den <beta, nu> = c_beta . p for each positive root beta
        self._values = [sum(map(mul, c, p)) for c in rd.positive_root_coords]
        norms = [0] * len(rd.factors)
        for c, x in zip(rd.positive_root_coords, self._values):
            norms[rd._factor_of_root(c)] += x * x
        self.norms = tuple(Fraction(2 * n, den * den) for n in norms)
        # the product of <beta, nu> over the positive roots
        self.d_nu = Fraction(prod(self._values), den ** len(self._values))

    @cached_property
    def central(self):
        """nu^z = nu - sum_i <omega_i, nu> alpha_i^v, the part of nu that
        every root kills, as (z, zden) in least terms, z integers."""
        (nums, nden), (rows, aden) = rl.scaled(self.nu), self._rd._coroot_rows
        c, cden = self.omega
        z = [x * cden * aden - nden * sum(map(mul, c, col))
             for x, col in zip(nums, zip(*rows))]
        g = gcd(*z, nden * cden * aden)
        return tuple(x // g for x in z), nden * cden * aden // g

    @cached_property
    def regular(self):
        """nu if regular, else nu + t rho_v for the least regular one, t >=
        1: den <beta, nu + t rho_v> = c_beta . p + t den ht(beta) vanishes
        at one t at most, so some t <= N is regular, found on integers."""
        rd, den = self._rd, self.pairings[1]
        lines = [(x, den * sum(c))
                 for x, c in zip(self._values, rd.positive_root_coords)]
        t = next(t for t in range(len(lines) + 1)
                 if all(a + t * h for a, h in lines))
        return self.nu if t == 0 else add(self.nu, scale(t, rl.combo(
            (1,) * len(rd.simple_roots), rd.fundamental_coweights)))

    @cached_property
    def orbit_size(self):
        rd = self._rd
        return rd.orbit_size(self.pairings[0], tuple(zip(*rd.cartan_matrix)))

    @cached_property
    def signed_orbit(self):
        """The Weyl orbit of nu, walked once by ``_orbit`` on p (a^T is the
        dual root system's Cartan matrix), the point y = w nu as (c, det(w)),
        c / cden = <omega_i, y>, cden that of ``omega``: s_j lowers cden
        <omega_j, y> by cden <alpha_j, y>, an integer combination of them."""
        rd, (p, den) = self._rd, self.pairings
        adj, det = rd._cartan_adj
        g, orbit = det * den // self.omega[1], rd._orbit(
            p, tuple(zip(*rd.cartan_matrix)))
        return [(tuple([sum(map(mul, row, y)) // g for row in adj]), sign)
                for y, sign in orbit.items()]

    @cached_property
    def paired_orbit(self):
        """(one point of each pair {y, -y}, 2) if -1, which commutes with W,
        maps one point into the signed orbit, else (``signed_orbit``, 1).  It
        does if -1 is in W (B, C, D_even, E7, E8, F4, G2) or -w0 fixes nu^+;
        then -y = w w0 nu^+ for y = w nu^+, of sign (-1)^N times y's."""
        orbit = self.signed_orbit
        if tuple([-x for x in orbit[0][0]]) in {c for c, _ in orbit}:
            return [(c, sign) for c, sign in orbit
                    if c > tuple([-x for x in c])], 2
        return orbit, 1

    def orbit_values(self, mu):
        """(vs, sums, sq) for dominant labels mu: v_y = c . mu over the points
        (c, sign) of ``signed_orbit``, <mu, y> = (s v_y + k) / den, sorted,
        with prefix sums from 0 and sum v_y^2; kept up to ``ORBIT_VALUES``,
        the entry past them dropping the memo whole (or alone, not kept)."""
        memo = self.__dict__.setdefault("_orbit_values", {})
        if (entry := memo.get(mu)) is None:
            vs = sorted(sum(map(mul, c, mu)) for c, _ in self.signed_orbit)
            entry = vs, list(accumulate(vs, initial=0)), sum(v * v for v in vs)
            if (len(memo) + 1) * len(vs) > ORBIT_VALUES:
                memo.clear()
            if len(vs) <= ORBIT_VALUES:
                memo[mu] = entry
        return entry

    @cached_property
    def q_form(self):
        """(z, zden, w, D): z / zden = nu^z (``central``), and w_i / D =
        |nu^i|^2 / (2 dim g_i den_i), den_i that of ``_inverse_killing``; q
        of an irreducible with labels l is then dim V sum_i w_i Q_i(l) / D,
        Q_i = ``factor_inner_nums(l, l + 2)``, B on the factor."""
        rd = self._rd
        return (*self.central, *rl.scaled(
            [nsq / (2 * rd.factor_dim(i) * den) for i, (nsq, (*_, den)) in
             enumerate(zip(self.norms, rd._inverse_killing))]))

    def pairing_form(self, lam):
        """(s, k, den) in least terms: <mu, y> = (s c . mu + k) / den for
        every mu with lam's central part (mu - lam in the root span) and y =
        w nu, c / cden = <omega_i, y> (``omega``, ``signed_orbit``); k / den
        = <lam, nu^z>, nu^z the W-fixed central part of nu (``central``)."""
        (z, zden), cden = self.central, self.omega[1]
        m, d = rl.scaled(lam)
        k, d = sum(map(mul, m, z)), d * zden    # <lam, nu^z> = k / d
        den = lcm(cden, d // gcd(k, d))
        return den // cden, k * den // d, den


# ----------------------------------------------------------------------
# construction

# positive roots a type list may ask for: SL120 has 7 140, E8 x A30 585
ROOT_GUARD = 20_000

_ROOT_COUNTS = {"A": lambda r: r * (r + 1), "B": lambda r: 2 * r * r,
                "C": lambda r: 2 * r * r, "D": lambda r: 2 * r * (r - 1),
                "E6": lambda r: 72, "E7": lambda r: 126, "E8": lambda r: 240,
                "F4": lambda r: 48, "G2": lambda r: 12}


def simple_system(family, rank):
    """Simple roots/coroots of one simple type in its standard realization.

    Returns (roots, coroots, width, central) where width is the ambient
    dimension used and central is the quotiented direction for type A.
    """
    family = family.upper()
    if family in ("A", "B", "C", "D"):
        least = 2 if family == "D" else 1
        if rank < least:
            raise SpecificationError(f"{family} requires rank >= {least}")
        w = rank + 1 if family == "A" else rank
        e = [rl.unit(w, i) for i in range(w)]
        roots = [sub(e[i], e[i + 1]) for i in range(w - 1)]
        if family == "A":
            return roots, list(roots), w, (Fraction(1),) * w
        if family == "D":
            end = add(e[-2], e[-1])
            return roots + [end], roots + [end], w, None
        short, long = e[-1], scale(2, e[-1])
        if family == "B":
            return roots + [short], roots + [long], w, None
        return roots + [long], roots + [short], w, None
    if family == "E":
        if rank not in (6, 7, 8):
            raise SpecificationError("E requires rank 6, 7 or 8")
        cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for (i, j) in _CHAIN_CARTAN[f"E{rank}"]:
            cartan[i][j] = cartan[j][i] = -1
        return _from_cartan(cartan)
    if family in ("F", "G"):
        cartan = _F4_CARTAN if family == "F" else _G2_CARTAN
        if rank != len(cartan):
            raise SpecificationError(f"{family} requires rank {len(cartan)}")
        return _from_cartan(cartan)
    raise SpecificationError(f"unknown family {family!r}")


def cartan_checked(a, den=1):
    """a / den as an integer Cartan matrix, checked to be one: integer
    entries, 2 on the diagonal, a_ij <= 0 off it with a_ij = 0 iff
    a_ji = 0."""
    for i in range(len(a)):
        if a[i][i] != 2 * den:
            raise SpecificationError("diagonal Cartan entry != 2")
        for j in range(len(a)):
            if i != j and (a[i][j] % den or a[i][j] > 0
                           or (a[i][j] == 0) != (a[j][i] == 0)):
                raise SpecificationError(
                    f"not a Cartan matrix: a[{i}][{j}] = "
                    f"{Fraction(a[i][j], den)}, "
                    f"a[{j}][{i}] = {Fraction(a[j][i], den)}")
    return tuple(tuple(x // den for x in row) for row in a)


def cartan_factors(a):
    """The simple factors of a ``cartan_checked`` a, the components of its
    Dynkin diagram, each with its root lengths e (a e symmetric), checked to
    be of finite type (Kac, Infinite dimensional Lie algebras, ch. 4) so that
    every chamber walk ends: a tree whose leaf-first pivots q_i = 2 - sum_j
    a_ij a_ji / q_j (over e, those of a e) are > 0, their product its det."""
    factors, e = [], {}
    for first in range(len(a)):
        if first in e:
            continue
        # a walk of the component, each vertex with its parent; the root
        # lengths e_j = e_i a_ji / a_ij ~ |alpha_j|^2, integers from e = 6
        walk, edges, e[first] = [(first, None)], 0, 6
        for i, _ in walk:
            for j, x in enumerate(a[i]):
                if x and j != i:
                    edges += 1
                    if j not in e:
                        e[j] = e[i] * a[j][i] // x
                        walk.append((j, i))
        comp = sorted(i for i, _ in walk)
        q = dict.fromkeys(comp, Fraction(2))
        for i, p in reversed(walk):
            if q[i] > 0 and p is not None:
                q[p] -= a[p][i] * a[i][p] / q[i]
        if edges != 2 * len(walk) - 2 or min(q.values()) <= 0:
            raise SpecificationError("the Cartan matrix is not of finite type")
        bond = max((a[i][p] * a[p][i] for i, p in walk[1:]), default=0)
        factors.append(Factor(comp, _family(comp, bond, prod(q.values()), e),
                              len(comp), [e[i] for i in comp]))
    return tuple(factors)


def _family(comp, bond, det, e):
    """The family of a component, by its largest bond a_ij a_ji and its
    determinant |P/Q|: n + 1 for A_n, 2 for B_n and C_n, 4 for D_n, 9 - n
    for E_n, 1 for F4 and G2; B_n (n >= 3) has one short simple root (least
    e), C_n one long one; B2 = C2 is B if its last-listed root is short."""
    if bond == 3:
        return "G"
    if bond == 2 and det == 1:
        return "F"
    if bond == 2:
        short = [i for i in comp if e[i] == min(e[j] for j in comp)]
        return "B" if len(short) == 1 and (
            len(comp) > 2 or short == [comp[-1]]) else "C"
    return "A" if det == len(comp) + 1 else "D" if det == 4 else "E"


def _from_cartan(cartan):
    r = len(cartan)
    coroots = [rl.unit(r, i) for i in range(r)]
    roots = [vec(row) for row in cartan]
    return roots, coroots, r, None


def build_root_datum(lie_type, central_rank=0, label=""):
    """Construct the simply connected datum for a list of simple factors.

    ``lie_type`` is a list of (family, rank) pairs; ``central_rank`` adds a
    split central torus.  The cocharacter lattice is the coroot lattice plus
    the unit vectors of the central torus block.  A datum with another
    lattice is built once with it: ``RootDatum(roots, coroots, basis,
    central)`` on the same vectors (see ``catalog``).
    """
    check_root_guard(lie_type)
    systems = [simple_system(family, rank) for family, rank in lie_type]
    total = sum(w for _, _, w, _ in systems) + central_rank
    roots, coroots, centrals, offset = [], [], [], 0
    for rts, crts, w, central in systems:
        head, tail = rl.zero(offset), rl.zero(total - offset - w)
        roots += [head + v + tail for v in rts]
        coroots += [head + v + tail for v in crts]
        if central is not None:
            centrals.append(head + central + tail)
        offset += w
    basis = coroots + [rl.unit(total, offset + k) for k in range(central_rank)]
    return RootDatum(roots, coroots, basis, centrals, label=label)


def expected_root_count(family, rank):
    """The number of roots of a simple type, 0 for one that does not exist."""
    key = family if family in ("A", "B", "C", "D") else f"{family}{rank}"
    return _ROOT_COUNTS[key](rank) if key in _ROOT_COUNTS and rank > 0 else 0


def check_root_guard(lie_type):
    """Refuse, before any vector is built, (family, rank) factors with more
    than ROOT_GUARD positive roots in all; ``simple_system`` refuses a
    factor that is no type, which counts 0 here."""
    count = sum(expected_root_count(f.upper(), r) for f, r in lie_type) // 2
    if count > ROOT_GUARD:
        raise GuardExceededError(
            f"the group would have {rl.fmt_int(count)} positive roots, over "
            f"the root-count guard {ROOT_GUARD}")
