"""The spinoriality decision engine.

An orthogonal representation of a connected reductive group lifts to the spin
group iff a certain integer q(nu) is even for every generator nu of the
fundamental group.  This module computes q in closed form (per irreducible
summand, per simple factor), plus two independent oracles — the multiplicity
sum L(nu) and an alternating Weyl sum — and the descent and periodicity
utilities built on top.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, tee
from math import factorial
from operator import mul

from . import ratlin as rl
from .ratlin import fmt_vec
from . import repcalc
from .errors import SpecificationError, IntegralityError, GuardExceededError
from .repcalc import (weyl_dim, casimir_value, classify,
                      freudenthal_multiplicities, L_phi, integral_L,
                      FREUDENTHAL_GUARD_DEFAULT)

WEYL_GUARD_DEFAULT = 10 ** 5


# ----------------------------------------------------------------------
# representations in normal form

@dataclass(frozen=True)
class OrthRep:
    """An orthogonal representation as a sum of irreducible orthogonal
    summands and hyperbolic blocks sigma + sigma-dual.

    Irreducible orthogonal summands must kill the connected center of the
    group; hyperbolic highest weights are unconstrained beyond dominance.
    ``labels``: those of each summand, or () to have the verdict read them.
    """

    irreducible: tuple = ()
    hyperbolic: tuple = ()
    labels: tuple = field(default=(), compare=False, repr=False)


def orth_rep(rd, irreducible=(), hyperbolic=(), basis=None):
    """Validate and build an :class:`OrthRep`: weights, ambient or in
    ``basis``, read by ``rd.weight_forms(basis)``, irreducible ones first."""
    forms = rd.weight_forms(basis)
    irr, hyp, labels = [], [], []
    for lams, out in ((irreducible, irr), (hyperbolic, hyp)):
        for lam in lams:
            m, d = forms.lift(*rl.scaled(lam))
            ls, failed = forms.read(m, d)
            lam = rl.unscaled(m, d)
            if failed == "character":
                raise SpecificationError(
                    f"{fmt_vec(lam)} is not a character of this group")
            if failed == "dominant":
                raise SpecificationError(
                    f"weight {fmt_vec(lam)} is not dominant")
            if out is irr and not (cls := classify(rd, lam, ls)).orthogonal:
                raise SpecificationError(
                    f"summand {fmt_vec(lam)} is not orthogonal "
                    f"(self-dual: {cls.self_dual}, parity: {cls.fs_parity})")
            out.append(lam)
            labels.append(ls)
    return OrthRep(tuple(irr), tuple(hyp), tuple(labels))


# ----------------------------------------------------------------------
# closed-form q

def q_irreducible(rd, lam, nu, labels=None):
    """q for one irreducible: (dim V / 2) sum_i |nu^i|^2 chi_i(C) / dim g_i.

    Exact rational; integrality for orthogonal lam and lattice nu is a
    theorem and is asserted by the callers that need an integer.
    ``labels``: lam's, if the caller has checked them.
    """
    labels = repcalc.dominant_labels(rd, lam) if labels is None else labels
    return weyl_dim(rd, lam, labels) * sum(
        (nsq / 2 * casimir_value(rd, lam, factor=i, labels=labels)
         / rd.factor_dim(i)
         for i, nsq in enumerate(rd.cochar_table(nu).norms) if nsq),
        Fraction(0))


def q_tensor(dim1, q1, dim2, q2):
    """q of a tensor product from the factors' dimensions and q values."""
    return dim1 * q2 + dim2 * q1


# ----------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    spinorial: bool
    certificate: tuple  # pairs (generator, q value)
    method: str

    def q_values(self):
        return tuple(q for _, q in self.certificate)


def _require_int(num, den, what, v):
    """num / den as an int; the message naming v is formatted only on
    failure."""
    if num % den:
        raise IntegralityError(
            f"{what} {fmt_vec(v)} = {Fraction(num, den)} is not an integer")
    return num // den


def _q_values(rd, forms, rep):
    """q of rep at each ``CocharTable.q_form`` of ``forms``; every summand's
    contribution is an integer, or IntegralityError."""
    labels = rep.labels or [repcalc.dominant_labels(rd, lam) for lam in
                            rep.irreducible + rep.hyperbolic]
    n = len(rep.irreducible)
    hyp = [(gamma, *rl.scaled(gamma), weyl_dim(rd, gamma, ls))
           for gamma, ls in zip(rep.hyperbolic, labels[n:])]
    irr = [(lam, weyl_dim(rd, lam, ls),
            rd.factor_inner_nums(ls, [x + 2 for x in ls]))
           for lam, ls in zip(rep.irreducible, labels)]
    qs = []
    for z, zden, w, den in forms:
        q = sum(_require_int(dim * sum(map(mul, m, z)), d * zden,
                             "hyperbolic term at", gamma)
                for gamma, m, d, dim in hyp)
        for lam, dim, casimirs in irr:
            q += _require_int(dim * sum(map(mul, w, casimirs)), den,
                              "q at irreducible summand", lam)
        qs.append(q)
    return qs


def q_rep(rd, rep, nu):
    """q of an :class:`OrthRep` at nu, as an exact integer: each hyperbolic
    block contributes <gamma, nu^z> dim V_gamma, nu^z the central part of
    nu, each irreducible summand the closed form of ``q_irreducible``."""
    return _q_values(rd, [rd.cochar_table(rl.vec(nu)).q_form], rep)[0]


def is_spinorial(rd, fg, rep):
    """Decide spinoriality: q(nu) even for every fundamental-group generator.

    The generators' forms are kept on the datum for the last fg, found by
    identity.  A trivial fundamental group yields a spinorial verdict with
    an empty certificate."""
    memo = rd.__dict__.get("_q_forms")
    if memo is None or memo[0] is not fg:
        memo = rd.__dict__["_q_forms"] = (fg, tuple(
            rd.cochar_table(nu).q_form for nu in fg.generators))
    qs = _q_values(rd, memo[1], rep) if memo[1] else []
    return Verdict(spinorial=all(q % 2 == 0 for q in qs),
                   certificate=tuple(zip(fg.generators, qs)),
                   method="closed-form")


def adjoint_spinorial(rd):
    """The adjoint representation is spinorial iff delta is a character."""
    return rd.is_character(rd.delta)


# ----------------------------------------------------------------------
# oracles

def make_regular(rd, nu):
    """nu itself if regular, else nu + t rho_v for the least regular one
    with t >= 1 (``CocharTable.regular``)."""
    return rd.cochar_table(nu).regular


def q_via_weyl_sum(rd, lam, nu, guard=WEYL_GUARD_DEFAULT, labels=None):
    """Independent q formula for simple g by an alternating Weyl sum.

    q = sum_w sgn(w) <w(lam+delta), nu>^(N+2) / ((N+2)! d_nu)
        - dim V |nu|^2 / 48,
    valid for regular nu (d_nu != 0); N is the number of positive roots.
    As <w(lam+delta), nu> = <lam+delta, w^-1 nu>, the sum runs over the
    signed orbit of nu in its ``CocharTable``, walked once per cocharacter,
    each point one integer form in the labels of lam+delta (``pairing_form``);
    the guard on |W| is checked on every call, before the orbit is read.
    Its k = <lam, nu^z> is 0, g being simple with no torus and lam killing
    the quotiented directions; then the terms at y and -y are equal, as
    sgn(-y) = (-1)^N sgn(y), so a ``paired_orbit`` is summed once, twice.
    ``labels``: lam's, if the caller has checked them.
    """
    fams, central = rd.lie_type
    if len(fams) != 1 or central != 0:
        raise SpecificationError("the Weyl-sum formula needs simple g")
    labels = repcalc.dominant_labels(rd, lam) if labels is None else labels
    table = rd.cochar_table(nu)
    if table.d_nu == 0:
        raise SpecificationError("nu must be regular for the Weyl-sum formula")
    if guard is not None and rd.weyl_order > guard:
        raise GuardExceededError(
            f"Weyl group order {rd.weyl_order} exceeds guard {guard}")
    n2 = rd.num_positive_roots + 2
    s, k, den = table.pairing_form(*rl.scaled(lam))
    points, twice = table.paired_orbit if k == 0 else (table.signed_orbit, 1)
    shifted = [x + 1 for x in labels]
    acc = twice * sum(sign * (s * sum(map(mul, c, shifted)) + k) ** n2
                      for c, sign in points)
    main = Fraction(acc, factorial(n2) * den ** n2) / table.d_nu
    return main - Fraction(weyl_dim(rd, lam, labels), 48) * sum(table.norms)


def oracle_compare(rd, lam, nu, freudenthal_guard=FREUDENTHAL_GUARD_DEFAULT,
                   weyl_guard=WEYL_GUARD_DEFAULT, include_weyl=True):
    """Cross-check L (multiplicity oracle) and the Weyl-sum q against the q
    that verdicts print (``q_rep``).

    Returns a dict with the three values (Weyl sum only for simple g at a
    regular point) and the pairwise agreement flags: L == q mod 2, and
    Weyl-sum q == q exactly (``q_irreducible`` at a regular point other
    than nu).  ``ok`` also asks that sum_x m(x) <x, nu>^2, the trace form
    at nu, be 2q exactly.
    What depends on nu alone (|nu^i|^2, the regular point, d_nu, the orbits
    of nu and of the regular point) is read from their ``CocharTable``s, so
    a second row at the same nu walks no orbit.  lam's labels are read
    once, and passed on.
    """
    nu = tuple(rl.vec(nu))
    labels = repcalc.dominant_labels(rd, lam)
    table = freudenthal_multiplicities(rd, lam, guard=freudenthal_guard,
                                       top=labels)
    pos, moment = table.pairing_sums(nu)    # both sums in one pass
    l_val = integral_L(pos)
    q_val = q_rep(rd, OrthRep((lam,), labels=(labels,)), nu)
    report = {
        "L": l_val,
        "q": q_val,
        "parity_agrees": (l_val - q_val) % 2 == 0,
        "weyl_sum": None,
        "weyl_agrees": None,
    }
    fams, central = rd.lie_type
    if include_weyl and len(fams) == 1 and central == 0:
        reg = make_regular(rd, nu)
        qw = q_via_weyl_sum(rd, lam, reg, guard=weyl_guard, labels=labels)
        report["weyl_sum"] = qw
        report["weyl_agrees"] = qw == (
            q_val if reg == nu else q_irreducible(rd, lam, reg, labels))
        report["regular_point"] = reg
    report["ok"] = (bool(report["parity_agrees"]) and moment == 2 * q_val
                    and report["weyl_agrees"] in (None, True))
    return report


# ----------------------------------------------------------------------
# descent

def descent_check(rd, lam, nu, d, guard=FREUDENTHAL_GUARD_DEFAULT):
    """Spinoriality of a representation descended through a cyclic central
    subgroup generated by nu evaluated at a primitive d-th root of unity.

    Requires d even.  The representation descends iff every weight pairs
    with nu divisibly by d (checked on ``orbit_values``, which has the same
    pairings; the weights are listed only to name the least failing one);
    the descended representation is then spinorial iff 2d divides L(nu),
    which is computed exactly from the same values.
    """
    if d % 2 != 0:
        raise SpecificationError("descent criterion requires even order d")
    nu = tuple(rl.vec(nu))
    table = freudenthal_multiplicities(rd, lam, guard=guard)
    values = s, k, den, _, rows = table.orbit_values(nu)
    if any((s * v + k) % (d * den) for _, (vs, _, _) in rows for v in vs):
        p, _, labels = min((t for t in table.pairings(nu)[1]
                            if t[0] % (d * den)),
                           key=lambda t: t[2])   # by labels
        raise SpecificationError(
            f"weight {fmt_vec(table.weight(labels))} pairs to "
            f"{Fraction(p, den)} with nu; the representation does not "
            f"descend through the order-{d} subgroup")
    return L_phi(rd, table, nu, values) % (2 * d) == 0


# ----------------------------------------------------------------------
# sweeps

# points a sweep may visit after the reduction by -w0 (E8 box 4: 390 625)
SWEEP_GUARD = 10 ** 7


def dominant_orthogonal_weights(rd, box, basis=None):
    """All dominant orthogonal characters with coordinates in [0, box], in
    lexicographic order, generated one at a time.

    Coordinates refer to ``basis``, independent weights (default: the
    fundamental weights).  When -w0 permutes the basis, only the coordinate
    tuples it fixes are visited, since orthogonal weights are self-dual;
    otherwise the whole box is scanned, unless it has more than
    ``SWEEP_GUARD`` points.  A point c passes the datum's
    ``WeightForms.coordinate_forms``, folded to the visited coordinates,
    less those every point meets; only then is its weight built.
    """
    if box < 0:
        raise SpecificationError(f"the sweep box must be >= 0, got {box}")
    weights = rd.weight_forms(rd.fundamental_weights if basis is None
                              else basis)
    perm, forms, labels = weights.coordinate_forms
    size = len(weights.basis)
    # -w0 is an involution; the first index of each orbit carries its
    # value, so the orbit values come in the points' lexicographic order
    perm = range(size) if perm is None else perm
    reps = [i for i, j in enumerate(perm) if i <= j]
    slot = [reps.index(min(i, j)) for i, j in enumerate(perm)]
    width = len(reps)
    if (box + 1) ** width > SWEEP_GUARD:
        raise GuardExceededError(
            f"the box-{box} sweep would visit {rl.fmt_int((box + 1) ** width)}"
            f" points, over the sweep guard {SWEEP_GUARD}")

    def fold(form):     # a form in c as one in the visited coordinates
        return [sum(x for k, x in zip(slot, form) if k == r)
                for r in range(width)]

    # each form once, folded, its entries mod m; m = 0 marks n . c = 0, a
    # congruence mod 1 + the largest |n . c| there
    congruences = [(n, m) for n, m in dict.fromkeys(
        (tuple([x % m for x in n]), m) for n, m in (
            (n, m or 1 + box * sum(map(abs, n)))
            for n, m in ((fold(n), m) for n, m in forms))) if any(n)]
    signs = [n for n in map(fold, labels) if min(n, default=0) < 0]

    def passes(v):
        return not (any(sum(map(mul, v, n)) % m for n, m in congruences)
                    or any(sum(map(mul, v, n)) < 0 for n in signs))

    hits = product(range(box + 1), repeat=width)
    if congruences or signs:
        hits = filter(passes, hits)
    if width < size:
        hits = (tuple([v[k] for k in slot]) for v in hits)
    hits, again = tee(hits)
    yield from zip(hits, weights.vectors(again))


def scan_periodicity(rd, fg, box, k, basis=None):
    """Search for violations of period-2^k invariance of the verdict.

    For every dominant orthogonal lam0 with coordinates in the box, compares
    the verdict at lam0 with that at lam0 + 2^k e, if dominant orthogonal,
    along each axis e: e_i + e_p(i) per orbit of -w0 on the basis if it
    permutes it (so self-dual points shift to self-dual points), else e_i;
    a violation names an axis by its first index.  Also reports the
    verdicts, the number of comparisons, the smallest exponent in [0, k]
    with no violations in the box, and the density of spinorial points.
    """
    if k < 0:
        raise SpecificationError(f"the exponent k must be >= 0, got {k}")
    basis = rd.fundamental_weights if basis is None else basis
    # every dominant orthogonal point of the box; the rest read None
    verdict = {c: is_spinorial(rd, fg, OrthRep(irreducible=(lam,))).spinorial
               for c, lam in dominant_orthogonal_weights(rd, box, basis=basis)}
    spin_count = sum(verdict.values())
    perm = rd.weight_forms(basis).coordinate_forms[0] or range(len(basis))
    axes = [{i, j} for i, j in enumerate(perm) if i <= j]

    def violations(kk):
        """(violations, comparisons) at period 2^kk."""
        if kk >= box.bit_length():
            return [], 0    # 2^kk > box: every shift leaves the box
        shifted = [(c, min(axis), verdict.get(tuple(
            [x + 2 ** kk * (i in axis) for i, x in enumerate(c)])))
            for c in verdict for axis in axes]
        return ([(c, axis) for c, axis, v in shifted
                 if v is not None and v != verdict[c]],
                sum(v is not None for *_, v in shifted))

    viols, compared = violations(k)
    minimal = next((kk for kk in range(min(k, box.bit_length()) + 1)
                    if (vc := violations(kk))[1] and not vc[0]), None)
    return {
        "k": k,
        "box": box,
        "violations": viols,
        "verdicts": verdict,
        "points": len(verdict),
        "spinorial_points": spin_count,
        "density": Fraction(spin_count, len(verdict) or 1),
        "compared": compared,
        "vacuous": compared == 0,
        "minimal_k": minimal,
    }
