"""Per-irreducible numerics: dimension, Casimir eigenvalue, self-dual and
orthogonal classification, weight multiplicities, and the combinatorial
quantity L_phi.

The closed forms read a highest weight once, as its Dynkin labels, and then
work in integers on the root datum's label tables (see ``rootdata``).

The multiplicity table is the package's brute-force oracle: everything it
feeds (L_phi, descent checks) is computed straight from the definition
with no closed forms, so it can cross-check the closed-form engine.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul

from . import ratlin as rl
from .errors import SpecificationError, IntegralityError, GuardExceededError

FREUDENTHAL_GUARD_DEFAULT = 10 ** 6


def dominant_labels(rd, lam):
    """The Dynkin labels of lam, after checking that it is dominant."""
    labels = rd.dynkin_labels(lam)
    if min(labels, default=0) < 0:
        raise SpecificationError(f"weight {lam} is not dominant")
    return labels


def weyl_dim(rd, lam):
    """dim V_lam = prod over positive coroots beta^v = sum_i k_i alpha_i^v of
    <lam+delta, beta^v>/<delta, beta^v>, with <lam+delta, beta^v> =
    sum_i k_i (lam_i + 1)."""
    shifted = [x + 1 for x in dominant_labels(rd, lam)]
    num = prod(sum(map(mul, k, shifted)) for k in rd.positive_coroot_coords)
    dim, rem = divmod(num, rd.weyl_denominator)
    if rem:
        raise IntegralityError(f"Weyl dimension of {lam} is not integral")
    return dim


def two_delta_pairing(rd, lam):
    """<lam, 2 delta_v>, the pairing with the sum of positive coroots."""
    return sum(map(mul, rd.dynkin_labels(lam), rd.two_delta_coroot_coords))


def casimir_value(rd, lam, factor=None):
    """Casimir eigenvalue (lam, lam + 2 delta) under the inverse Killing form,
    restricted to one simple factor when requested; 2 delta has labels 2."""
    labels = dominant_labels(rd, lam)
    return rd.label_inner(labels, [x + 2 for x in labels], factor)


@dataclass(frozen=True)
class RepClassification:
    self_dual: bool
    orthogonal: bool
    fs_parity: int  # parity of <lam, 2 delta_v>


def classify(rd, lam):
    """Self-dual iff -w0 lam = lam; orthogonal iff additionally
    <lam, 2 delta_v> is even."""
    labels = dominant_labels(rd, lam)
    sd = rd.fixed_by_minus_w0(lam, labels)
    par = sum(map(mul, labels, rd.two_delta_coroot_coords))
    if par % 1:
        raise IntegralityError(f"<lam, 2 delta_v> non-integral for {lam}")
    par = int(par) % 2
    return RepClassification(self_dual=sd, orthogonal=sd and par == 0,
                             fs_parity=par)


class _IntWeightEngine:
    """Exact weight combinatorics on integer-scaled vectors.

    All weights of V_lam lie in lam + (root lattice); scaling by the common
    denominator of lam and delta turns every reflection, dominance walk, and
    invariant-form evaluation into plain integer arithmetic, which is what
    makes the brute-force oracle usable at dimensions near 10^5.
    """

    def __init__(self, rd, lam):
        self.rd = rd
        denoms = [x.denominator for x in lam] + [x.denominator for x in rd.delta]
        self.scale = lcm(*denoms)
        s = self.scale
        self.lam = tuple(int(x * s) for x in lam)
        self.delta = tuple(int(x * s) for x in rd.delta)
        cd = lcm(*(x.denominator for co in rd.simple_coroots for x in co)) \
            if rd.simple_coroots else 1
        self.codenom = cd * s
        self.simple_coroots = tuple(tuple(int(x * cd) for x in co)
                                    for co in rd.simple_coroots)
        self.simple_roots = tuple(tuple(int(x) for x in a)
                                  for a in rd.simple_roots)
        self.pos_roots = tuple(tuple(int(x * s) for x in a)
                               for a, _ in rd.positive_roots)
        pos_coroots = tuple(tuple(int(x * cd) for x in co)
                            for _, co in rd.positive_roots)
        # W-invariant integer form B(x, y) = sum over positive coroots of
        # <x, b><y, b>; Freudenthal only needs it up to per-factor scaling
        dim = rd.dim
        self._form = [[sum(co[i] * co[j] for co in pos_coroots)
                       for j in range(dim)] for i in range(dim)]
        self._dom_memo = {}

    def pairing(self, mu, i):
        """s * <mu/s, alpha_i^v>, an integer multiple of s for lattice mu."""
        p = sum(a * b for a, b in zip(mu, self.simple_coroots[i]))
        q, r = divmod(p * self.scale, self.codenom)
        if r:
            raise IntegralityError("non-integral coroot pairing in weight walk")
        return q

    def is_dominant(self, mu):
        return all(sum(a * b for a, b in zip(mu, co)) >= 0
                   for co in self.simple_coroots)

    def dominant(self, mu):
        memo = self._dom_memo
        found = memo.get(mu)
        if found is not None:
            return found
        cur = mu
        trail = []
        while True:
            hit = memo.get(cur)
            if hit is not None:
                break
            for i, co in enumerate(self.simple_coroots):
                p = sum(a * b for a, b in zip(cur, co))
                if p < 0:
                    trail.append(cur)
                    k = self.pairing(cur, i) // self.scale
                    root = self.simple_roots[i]
                    step = k * self.scale
                    cur = tuple(x - step * a for x, a in zip(cur, root))
                    break
            else:
                hit = cur
                break
        for seen in trail:
            memo[seen] = hit
        memo[mu] = hit
        return hit

    def form(self, x, y):
        f = self._form
        n = len(x)
        return sum(x[i] * sum(f[i][j] * y[j] for j in range(n))
                   for i in range(n))

    def weight_set(self):
        """Saturated weight set below lam by simple-root subtraction, pruned
        to the dominance polytope lam - (nonnegative root combinations)."""
        solver = self.rd.fundamental_coweights
        sq = lcm(*(x.denominator for row in solver for x in row)) \
            if solver else 1
        int_solver = [tuple(int(x * sq) for x in row) for row in solver]
        unit = sq * self.scale
        lam = self.lam
        steps = [tuple(self.scale * a for a in root) for root in self.simple_roots]

        def inside(mu):
            dom = self.dominant(mu)
            v = tuple(a - b for a, b in zip(lam, dom))
            for row in int_solver:
                c = sum(a * b for a, b in zip(row, v))
                if c < 0 or c % unit:
                    return False
            return True

        seen = {lam}
        queue = [lam]
        while queue:
            mu = queue.pop()
            for step in steps:
                nxt = tuple(a - b for a, b in zip(mu, step))
                if nxt in seen or not inside(nxt):
                    continue
                seen.add(nxt)
                queue.append(nxt)
        return seen

    def unscale(self, mu):
        s = self.scale
        return tuple(Fraction(x, s) for x in mu)


class WeightMultiplicityTable:
    """All weights of V_lam with multiplicities, from Freudenthal's recursion.

    Multiplicities are stored on dominant representatives only and expanded
    through Weyl invariance on access; weights are kept as integer-scaled
    tuples internally (see :class:`_IntWeightEngine`).
    """

    def __init__(self, engine, dominant_mults, all_weights):
        self._engine = engine
        self._dom = dominant_mults      # scaled dominant weight -> multiplicity
        self._weights = all_weights     # frozenset of every scaled weight

    def _scaled(self, mu):
        s = self._engine.scale
        mu = rl.vec(mu)
        out = []
        for x in mu:
            y = x * s
            if y.denominator != 1:
                return None
            out.append(int(y))
        return tuple(out)

    def multiplicity(self, mu):
        key = self._scaled(mu)
        if key is None or key not in self._weights:
            return 0
        return self._dom[self._engine.dominant(key)]

    @cached_property
    def _full(self):
        dom = self._engine.dominant
        mults = self._dom
        return {w: mults[dom(w)] for w in self._weights}

    def items(self):
        """Pairs (weight, multiplicity) with weights as exact rationals."""
        unscale = self._engine.unscale
        for w, m in self._full.items():
            yield unscale(w), m

    def int_items(self):
        """Pairs (scale * weight, multiplicity) over integer tuples."""
        return self._full.items()

    @property
    def scale(self):
        return self._engine.scale

    def dominant_items(self):
        unscale = self._engine.unscale
        for w, m in self._dom.items():
            yield unscale(w), m

    @cached_property
    def total_dim(self):
        return sum(self._full.values())

    def __contains__(self, mu):
        key = self._scaled(mu)
        return key is not None and key in self._weights

    def __len__(self):
        return len(self._weights)


def freudenthal_multiplicities(rd, lam, guard=FREUDENTHAL_GUARD_DEFAULT):
    """Weight multiplicity table of V_lam via Freudenthal's recursion.

    Refuses representations with dim > ``guard`` (this is the oracle path;
    the closed-form engine has no such limit).
    """
    dim = weyl_dim(rd, lam)
    lam = tuple(rl.vec(lam))
    if guard is not None and dim > guard:
        raise GuardExceededError(
            f"dim V = {dim} exceeds the multiplicity guard {guard}")

    eng = _IntWeightEngine(rd, lam)
    weights = frozenset(eng.weight_set())
    dominant = [w for w in weights if eng.is_dominant(w)]

    # recurse downward from lam ordered by the height of lam - mu in the
    # simple-root basis (every positive root has positive height)
    solver = rd.fundamental_coweights
    height_fn = tuple(sum(col) for col in zip(*solver)) if solver else ()

    def height(mu):
        return sum(h * (a - b) for h, a, b in zip(height_fn, eng.lam, mu))

    dominant.sort(key=height)

    form = eng._form
    n = rd.dim
    form_alpha = [tuple(sum(form[i][j] * a[j] for j in range(n))
                        for i in range(n)) for a in eng.pos_roots]
    lam_delta = tuple(a + b for a, b in zip(eng.lam, eng.delta))
    lam_delta_sq = eng.form(lam_delta, lam_delta)
    mults = {}
    for mu in dominant:
        if mu == eng.lam:
            mults[mu] = 1
            continue
        num = 0
        for alpha, fa in zip(eng.pos_roots, form_alpha):
            cur = mu
            while True:
                cur = tuple(a + b for a, b in zip(cur, alpha))
                if cur not in weights:
                    break
                num += mults[eng.dominant(cur)] * sum(
                    a * b for a, b in zip(cur, fa))
        mu_delta = tuple(a + b for a, b in zip(mu, eng.delta))
        den = lam_delta_sq - eng.form(mu_delta, mu_delta)
        m, r = divmod(2 * num, den)
        if r != 0 or m <= 0:
            raise IntegralityError(
                f"Freudenthal multiplicity 2*{num}/{den} at {eng.unscale(mu)} "
                "is not a positive integer")
        mults[mu] = m
    table = WeightMultiplicityTable(eng, mults, weights)
    if table.total_dim != dim:
        raise IntegralityError(
            f"multiplicity total {table.total_dim} != Weyl dimension {dim}")
    return table


def _as_tables(mults):
    if isinstance(mults, WeightMultiplicityTable):
        return (mults,)
    return tuple(mults)


def _table_pair_sum(table, nu):
    """Sum of m<mu,nu> over the weights with <mu,nu> > 0, exactly."""
    nu_int, q = rl.scaled(rl.vec(nu))
    pos = 0
    for mu, m in table.int_items():
        p = sum(a * b for a, b in zip(mu, nu_int))
        if p > 0:
            pos += m * p
    return Fraction(pos, table.scale * q)


def L_phi(rd, mults, nu):
    """L(nu) = sum over weights with <mu,nu> > 0 of m(mu) <mu,nu>."""
    total = Fraction(0)
    for table in _as_tables(mults):
        total += _table_pair_sum(table, nu)
    if total.denominator != 1:
        raise IntegralityError(
            f"L(nu) = {total} is not an integer; nu is not a cocharacter "
            "of the group this representation lives on")
    return int(total)


def dynkin_index(rd, lam):
    """dyn = 2 hv dim V chi(C) / dim g, for simple g."""
    fams, central = rd.lie_type
    if len(fams) != 1 or central != 0:
        raise SpecificationError("the Dynkin index needs a simple algebra")
    hv = rd.dual_coxeter_number(0)
    return 2 * hv * weyl_dim(rd, lam) * casimir_value(rd, lam) / rd.dim_g


def dynkin_index_orth(rd, lam):
    """Half the Dynkin index, defined for orthogonal reps with simple so(V)."""
    dim = weyl_dim(rd, lam)
    if dim in (1, 2, 4):
        raise SpecificationError(
            "orthogonal Dynkin index undefined for dim V in {1, 2, 4}")
    return dynkin_index(rd, lam) / 2
