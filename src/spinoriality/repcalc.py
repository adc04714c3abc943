"""Per-irreducible numerics: dimension, Casimir eigenvalue, self-dual and
orthogonal classification, weight multiplicities, and the combinatorial
quantity L_phi.

The closed forms read a highest weight once, as its Dynkin labels, and then
work in integers on the root datum's label tables (see ``rootdata``).

The multiplicity table is the package's brute-force oracle: everything it
feeds (L_phi, descent checks) is computed straight from the definition
with no closed forms, so it can cross-check the closed-form engine.  It
also runs on labels: Freudenthal's recursion over the dominant weights,
and <mu, nu> as one integer linear form in the labels of mu
(``CocharTable.pairing_form``).  At a dominant mu, W_mu = W_J, J = {j :
mu_j = 0}, and the recursion's term for alpha > 0, sum_k m(mu + k alpha)
B(mu + k alpha, alpha), is that for +-w alpha, w in W_J (if w alpha < 0,
alpha is in Phi_J and the alpha-string through mu is symmetric); so it is
summed once per class, times the class size (``RootDatum.parabolic_table``):
each class holds one J-dominant root (Chevalley's lemma for W_J) and
|W_J| / |W_{J_alpha}| roots, J_alpha = {j in J : alpha_j = 0}, half that
if alpha is in Phi_J, each |W_K| by Macdonald's formula.

Per dominant mu, its norm |mu + delta|^2 under B, its table, the dominant
weights just below it and its strings hold no lam; the datum keeps them
(``RootStrings``).  A sum over all weights, such as L_phi, runs per
dominant weight mu over the orbit of nu when that is fewer points, by
sum_{x in W mu} f(<x, nu>) = |W mu| / |W nu| sum_{y in W nu} f(<mu, y>),
as <w mu, nu> = <mu, w^-1 nu>; |W mu| = |W| / |W_J|.  There <mu, y> = (s
v_y + k) / den, lam giving (s, k, den) alone (``pairing_form``), and nu's
table keeps the sorted v_y per mu (``CocharTable.orbit_values``).
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from . import ratlin as rl
from .ratlin import fmt_vec
from .errors import SpecificationError, IntegralityError, GuardExceededError

FREUDENTHAL_GUARD_DEFAULT = 10 ** 6


def dominant_labels(rd, lam):
    """The Dynkin labels of lam, after checking that it is dominant."""
    labels = rd.dynkin_labels(lam)
    if min(labels, default=0) < 0:
        raise SpecificationError(f"weight {fmt_vec(lam)} is not dominant")
    return labels


def weyl_dim(rd, lam, labels=None):
    """dim V_lam = prod over positive coroots beta^v of <lam+delta, beta^v>
    / <delta, beta^v>, each pairing one add from an earlier one by the
    closure's steps; ``labels``: lam's, if the caller has checked them."""
    shifted = [x + 1 for x in (dominant_labels(rd, lam) if labels is None
                               else labels)]
    vals = [0]
    for _, _, _, (p, i, d) in rd._root_closure:
        vals.append(vals[p] + d * shifted[i])
    dim, rem = divmod(prod(vals[1:]), rd.weyl_denominator)
    if rem:
        raise IntegralityError(
            f"Weyl dimension of {fmt_vec(lam)} is not integral")
    return dim


def casimir_value(rd, lam, factor=None, labels=None):
    """Casimir eigenvalue (lam, lam + 2 delta) under the inverse Killing form,
    restricted to one simple factor when requested; 2 delta has labels 2;
    ``labels``: lam's, if the caller has checked them."""
    labels = dominant_labels(rd, lam) if labels is None else labels
    return rd.label_inner(labels, [x + 2 for x in labels], factor)


@dataclass(frozen=True)
class RepClassification:
    self_dual: bool
    orthogonal: bool
    fs_parity: int  # parity of <lam, 2 delta_v>


def classify(rd, lam, labels=None):
    """Self-dual iff -w0 lam = lam; orthogonal iff additionally
    <lam, 2 delta_v> is even (``RootDatum.weight_forms``); ``labels``:
    lam's, if the caller has checked them."""
    labels = dominant_labels(rd, lam) if labels is None else labels
    forms = rd.weight_forms()
    sd = forms.self_dual(lam, labels)
    par = forms.parity(labels)
    if par % 1:
        raise IntegralityError(
            f"<lam, 2 delta_v> non-integral for {fmt_vec(lam)}")
    return RepClassification(self_dual=sd, orthogonal=sd and par % 2 == 0,
                             fs_parity=int(par) % 2)


class WeightMultiplicityTable:
    """The weights of V_lam with their multiplicities, from Freudenthal's
    recursion, held as the dominant ones, each with its orbit size; the full
    list of weights is built only for ``items`` and ``pairings``.

    Weights are kept as their Dynkin labels: all of them lie in lam + Q, on
    which the labels are faithful.  Euclidean vectors are made only at the
    API, as mu = lam - sum_j c_j alpha_j with c = C^-T (labels(lam) -
    labels(mu)), C the Cartan matrix; that sum is sum_i (lam_i - mu_i)
    omega_i, since omega_i = sum_j (C^-1)_ij alpha_j.
    """

    def __init__(self, rd, lam, top, orbits):
        self._rd = rd
        self._lam = lam
        self._scaled = rl.scaled(lam)
        self._top = top                 # the labels of lam
        self._orbits = orbits           # (dominant labels, mult., |W mu|)
        self._dom = {mu: m for mu, m, _ in orbits}

    @cached_property
    def _weights(self):
        return {w: m for mu, m in self._dom.items()
                for w in self._rd.label_orbit(mu)}

    def weight(self, labels):
        """The weight of lam + Q with these labels, as exact rationals."""
        diff = [a - b for a, b in zip(self._top, labels)]
        omega = self._rd.fundamental_weights
        return tuple(x - sum(c * w[k] for c, w in zip(diff, omega))
                     for k, x in enumerate(self._lam))

    def multiplicity(self, mu):
        mu = tuple(rl.vec(mu))
        labels = self._rd.dynkin_labels(mu)
        m = self._dom.get(self._rd.dominant_point(labels)[0], 0)
        # equal labels, but mu may lie off lam + Q by a central vector
        return m if m and self.weight(labels) == mu else 0

    def items(self):
        """Pairs (weight, multiplicity) with weights as exact rationals."""
        return ((self.weight(w), m) for w, m in self._weights.items())

    def dominant_items(self):
        return ((self.weight(w), m) for w, m in self._dom.items())

    def pairings(self, nu):
        """<mu, nu> over every weight mu, as integers over one denominator:
        (den, [(p, m, labels)]) with <mu, nu> = p / den and m = mult(mu)."""
        nu_table = self._rd.cochar_table(nu)
        s, k, den = nu_table.pairing_form(*self._scaled)
        return den, [(s * sum(map(mul, nu_table.omega[0], w)) + k, m, w)
                     for w, m in self._weights.items()]

    def orbit_values(self, nu):
        """(s, k, den, n, rows), s > 0: sum_x f(den <x, nu>) over the weights
        x with multiplicity is sum w f(s v + k) over the rows (w, (vs, sums,
        sq)) and v in vs, / n.  Per dominant mu, w = m |W mu|, its values on
        nu's table, n = |W nu| and (s, k, den) lam's ``pairing_form``; or, if
        that is more points, per x, w = m, vs = (den <x, nu>,), s = n = 1."""
        nu_table = self._rd.cochar_table(nu)
        n = nu_table.orbit_size
        if n * len(self._orbits) > len(self):
            den, pairs = self.pairings(nu)
            return 1, 0, den, 1, [(m, ((p,), (0, p), p * p))
                                  for p, m, _ in pairs]
        return (*nu_table.pairing_form(*self._scaled), n, [
            (m * size, nu_table.orbit_values(mu))
            for mu, m, size in self._orbits])

    def pairing_sums(self, nu, values=None):
        """Over all weights x with multiplicity, the sums of the positive
        <x, nu> and of <x, nu>^2 as Fractions; values: orbit_values(nu).
        p = s v + k > 0 iff v > floor(-k / s), found by bisection in the
        sorted vs, and the sum of p^2 is s^2 sq + 2 s k sum(vs) + |vs| k^2."""
        s, k, den, n, rows = values or self.orbit_values(nu)
        cut, pos, sq = -k // s, 0, 0
        for w, (vs, sums, vsq) in rows:
            i, total = bisect_right(vs, cut), sums[-1]
            pos += w * (s * (total - sums[i]) + k * (len(vs) - i))
            sq += w * (s * s * vsq + 2 * s * k * total + len(vs) * k * k)
        return Fraction(pos, den * n), Fraction(sq, den * den * n)

    @cached_property
    def total_dim(self):
        return sum(m * size for _, m, size in self._orbits)

    def __contains__(self, mu):
        return self.multiplicity(mu) > 0

    def __len__(self):
        return sum(size for *_, size in self._orbits)


# entries a datum's ``RootStrings`` may hold, under 2 MB whatever the rows:
# a string step (45-60 bytes) counts 1, a node 1 + its successors.  One
# benchmark oracle pass (every row of SO8, Spin8 and F4) stores 2 132, 4 564
# and 427 (111, 231 and 21 nodes).
ROOT_STRING_STEPS = 2 ** 15


class RootStrings:
    """What Freudenthal's recursion reads that holds no lam, kept on the
    datum as ``_root_strings``.  ``graph``: per dominant mu, (|mu + delta|^2
    under B, ``parabolic_table(mu)``, the dominant mu - beta, beta over its
    candidates).  ``lists``: per dominant mu and class (alpha, B(., alpha),
    size) of its table, a flat list nu_1, c_1, nu_2, c_2, ... of nu_k = (mu
    + k alpha)^+ and c_k = size B(mu + k alpha, alpha), grown one step when
    a row walks past its end.  ``steps`` counts the entries made since the
    last drop, kept or not; the one past ``ROOT_STRING_STEPS`` first drops
    the memo whole, and a node over it alone is not kept."""

    def __init__(self):
        self.graph, self.lists, self.interned, self.steps = {}, {}, {}, 0

    def _spend(self, cost):
        """Count an entry of this cost; False if it alone passes the bound."""
        if self.steps + cost > ROOT_STRING_STEPS:
            self.__init__()     # the drop
        kept = cost <= ROOT_STRING_STEPS
        self.steps += cost * kept
        return kept

    def node(self, rd, mu):
        """The graph's entry of the dominant labels mu."""
        if (entry := self.graph.get(mu)) is None:
            table, intern = rd.parabolic_table(mu), self.interned.setdefault
            succ = [intern(nu, nu) for nu in (
                tuple([a - b for a, b in zip(mu, beta)]) for beta in table[2])
                if min(nu) >= 0]
            shifted = [x + 1 for x in mu]
            entry = (sum(x * sum(map(mul, row, shifted)) for x, row in
                         zip(shifted, rd._invariant_form[0])), table, succ)
            if self._spend(1 + len(succ)):
                self.graph[mu] = entry
        return entry

    def step(self, rd, mu, cls, flat):
        """Append the next step of the string of ``cls`` through mu to
        ``flat``; return its nu_k."""
        self._spend(1)
        alpha, fa, size = cls
        k = len(flat) // 2 + 1
        nu = rd.dominant_point([a + k * b for a, b in zip(mu, alpha)])[0]
        nu = self.interned.setdefault(nu, nu)
        flat += (nu, size * (sum(map(mul, mu, fa))
                             + k * sum(map(mul, alpha, fa))))
        return nu


def freudenthal_multiplicities(rd, lam, guard=FREUDENTHAL_GUARD_DEFAULT,
                               top=None):
    """Weight multiplicity table of V_lam via Freudenthal's recursion, run
    on Dynkin labels.

    The dominant weights of V_lam are the dominant mu reachable from lam by
    subtracting positive roots while staying dominant (Stembridge, "The
    partial order of dominant weights", Adv. Math. 1998), and the recursion
    needs only those, and one root per W_mu-class as above (Moody-Patera,
    "Fast recursion formula for weight multiplicities", Bull. AMS 1982):
    m(mu + k alpha) is read at the dominant conjugate.  The form is the
    datum's W-invariant B (``RootDatum._invariant_form``), integers on
    labels; Freudenthal's formula holds for it as for any invariant form.
    delta has labels all 1, and each |mu + delta|^2 gives both mu's place
    in the order and its denominator; both walks read ``RootStrings``.

    Refuses representations with dim > ``guard`` (this is the oracle path;
    the closed-form engine has no such limit).  ``top``: the labels of lam,
    if the caller has checked them.
    """
    lam = tuple(rl.vec(lam))
    top = dominant_labels(rd, lam) if top is None else top
    dim = weyl_dim(rd, lam, top)
    if guard is not None and dim > guard:
        raise GuardExceededError(
            f"dim V = {dim} exceeds the multiplicity guard {guard}")
    strings = rd.__dict__.setdefault("_root_strings", RootStrings())
    dominant, seen = [(top, strings.node(rd, top))], {top}
    for _, (_, _, succ) in dominant:
        for nu in succ:
            if nu not in seen:
                seen.add(nu)
                dominant.append((nu, strings.node(rd, nu)))
    # downward by the norm, which grows by B(nu - mu, nu + mu + 2 delta) > 0
    # from mu to a dominant nu > mu, such as (mu + k alpha)^+: known first
    dominant.sort(key=lambda t: t[1][0], reverse=True)
    mults, top_norm = {top: 1}, dominant[0][1][0]
    for mu, (n, (_, classes, _), _) in dominant[1:]:
        flats = strings.lists.get(mu)
        if flats is None:
            flats = strings.lists[mu] = [[] for _ in range(len(classes))]
        num = 0
        for cls, flat in zip(classes, flats):
            # the string is unbroken: it ends at the first nu_k that is not
            # a weight, whether stored or not
            steps = iter(flat)
            for nu in steps:
                m = mults.get(nu)
                if m is None:
                    break
                num += m * next(steps)
            else:
                while m := mults.get(strings.step(rd, mu, cls, flat)):
                    num += m * flat[-1]
        den = top_norm - n
        m, rem = divmod(2 * num, den)
        if rem != 0 or m <= 0:
            raise IntegralityError(
                f"Freudenthal multiplicity 2*{num}/{den} at the weight with "
                f"labels {fmt_vec(mu)} is not a positive integer")
        mults[mu] = m
    table = WeightMultiplicityTable(rd, lam, top, [
        (mu, mults[mu], size) for mu, (_, (size, _, _), _) in dominant])
    if table.total_dim != dim:
        raise IntegralityError(
            f"multiplicity total {table.total_dim} != Weyl dimension {dim}")
    return table


def L_phi(rd, mults, nu, values=None):
    """L(nu) = sum over weights with <mu,nu> > 0 of m(mu) <mu,nu>, from the
    multiplicity table ``mults``; ``values``: its ``orbit_values(nu)``."""
    return integral_L(mults.pairing_sums(nu, values)[0])


def integral_L(total):
    """L(nu), from its Fraction, checked to be an integer."""
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
