"""The spinoriality decision engine.

An orthogonal representation of a connected reductive group lifts to the spin
group iff a certain integer q(nu) is even for every generator nu of the
fundamental group.  This module computes q in closed form (per irreducible
summand, per simple factor), plus two independent oracles — the multiplicity
sum L(nu) and an alternating Weyl sum — and the descent and periodicity
utilities built on top.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod
from operator import mul

from . import ratlin as rl
from .ratlin import add, dot, scale, fmt_vec
from . import repcalc
from .errors import SpecificationError, IntegralityError
from .repcalc import (weyl_dim, casimir_value, classify,
                      freudenthal_multiplicities, L_phi,
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
    """

    irreducible: tuple = ()
    hyperbolic: tuple = ()


def orth_rep(rd, irreducible=(), hyperbolic=()):
    """Validate and build an :class:`OrthRep` over the given datum."""
    irr, hyp = [], []
    for lam in irreducible:
        lam = tuple(rl.vec(lam))
        _check_weight(rd, lam)
        cls = classify(rd, lam)
        # self-duality already makes lam kill the connected center
        if not cls.orthogonal:
            raise SpecificationError(
                f"summand {fmt_vec(lam)} is not orthogonal "
                f"(self-dual: {cls.self_dual}, parity: {cls.fs_parity})")
        irr.append(lam)
    for lam in hyperbolic:
        lam = tuple(rl.vec(lam))
        _check_weight(rd, lam)
        hyp.append(lam)
    return OrthRep(tuple(irr), tuple(hyp))


def _check_weight(rd, lam):
    if not rd.is_character(lam):
        raise SpecificationError(
            f"{fmt_vec(lam)} is not a character of this group")
    repcalc.dominant_labels(rd, lam)


# ----------------------------------------------------------------------
# closed-form q

def q_irreducible(rd, lam, nu):
    """q for one irreducible: (dim V / 2) sum_i |nu^i|^2 chi_i(C) / dim g_i.

    Exact rational; integrality for orthogonal lam and lattice nu is a
    theorem and is asserted by the callers that need an integer.
    """
    dim = weyl_dim(rd, lam)
    total = Fraction(0)
    for i in range(len(rd.factors)):
        nsq = rd.cochar_norm_sq(nu, factor=i)
        if nsq == 0:
            continue
        total += Fraction(nsq, 2) * casimir_value(rd, lam, factor=i) / rd.factor_dim(i)
    return dim * total


def _require_int(x, what):
    if x.denominator != 1:
        raise IntegralityError(f"{what} = {x} is not an integer")
    return int(x)


def q_rep(rd, rep, nu):
    """q of an :class:`OrthRep` at nu, as an exact integer.

    Hyperbolic blocks contribute <gamma, nu^z> dim V_gamma through the
    central component of nu; irreducible summands contribute their closed
    forms.  Every summand's contribution is individually an integer.
    """
    nu = tuple(rl.vec(nu))
    total = 0
    for gamma in rep.hyperbolic:
        _, nu_z = rd.coroot_span_decomposition(nu)
        term = dot(gamma, nu_z) * weyl_dim(rd, gamma)
        total += _require_int(term, f"hyperbolic term at {fmt_vec(gamma)}")
    for lam in rep.irreducible:
        total += _require_int(q_irreducible(rd, lam, nu),
                              f"q at irreducible summand {fmt_vec(lam)}")
    return total


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


def is_spinorial(rd, fg, rep):
    """Decide spinoriality: q(nu) even for every fundamental-group generator.

    A trivial fundamental group yields a spinorial verdict with an empty
    certificate.
    """
    cert = []
    for nu in fg.generators:
        cert.append((nu, q_rep(rd, rep, nu)))
    ok = all(q % 2 == 0 for _, q in cert)
    return Verdict(spinorial=ok, certificate=tuple(cert), method="closed-form")


def adjoint_spinorial(rd):
    """The adjoint representation is spinorial iff delta is a character."""
    return rd.is_character(rd.delta)


# ----------------------------------------------------------------------
# oracles

def d_nu(rd, nu):
    """Product of <alpha, nu> over the positive roots, each sum_j c_j
    <alpha_j, nu> over one denominator."""
    pairs, den = rl.scaled([dot(a, nu) for a in rd.simple_roots])
    return Fraction(prod(sum(map(mul, c, pairs))
                         for c in rd.positive_root_coords),
                    den ** rd.num_positive_roots)


def make_regular(rd, nu):
    """nu itself if regular, else nu + t rho_v for the least regular one
    with t >= 1.  d_nu(nu + t rho_v) is a product of N linear factors in t,
    each with slope the height of its root, so one of t = 0, ..., N is
    regular; the search stops with an error past t = N + 1."""
    nu = tuple(rl.vec(nu))
    if d_nu(rd, nu) != 0:
        return nu
    # rho_v: <alpha_i, rho_v> = 1 for every simple root
    rho_v = rl.combo((1,) * len(rd.simple_roots), rd.fundamental_coweights)
    for t in range(1, rd.num_positive_roots + 2):
        cand = add(nu, scale(t, rho_v))
        if d_nu(rd, cand) != 0:
            return cand
    raise SpecificationError(
        f"no regular point nu + t rho_v for {fmt_vec(nu)}")


def q_via_weyl_sum(rd, lam, nu, guard=WEYL_GUARD_DEFAULT):
    """Independent q formula for simple g by an alternating Weyl sum.

    q = sum_w sgn(w) <w(lam+delta), nu>^(N+2) / ((N+2)! d_nu)
        - dim V |nu|^2 / 48,
    valid for regular nu (d_nu != 0); N is the number of positive roots.
    The orbit is taken on labels, where <mu, nu> is one integer linear form
    over a common denominator (``RootDatum.label_pairing``).
    """
    fams, central = rd.lie_type
    if len(fams) != 1 or central != 0:
        raise SpecificationError("the Weyl-sum formula needs simple g")
    repcalc.dominant_labels(rd, lam)
    nu = tuple(rl.vec(nu))
    den = d_nu(rd, nu)
    if den == 0:
        raise SpecificationError("nu must be regular for the Weyl-sum formula")
    n2 = rd.num_positive_roots + 2
    orbit = rd.weyl_orbit_signed(add(rl.vec(lam), rd.delta), guard=guard)
    c, k, pden = rd.label_pairing(lam, nu)
    acc = sum(sign * (sum(map(mul, c, w)) + k) ** n2
              for w, sign in orbit.items())
    main = Fraction(acc, factorial(n2) * pden ** n2) / den
    return main - Fraction(weyl_dim(rd, lam), 48) * rd.cochar_norm_sq(nu)


def oracle_compare(rd, lam, nu, freudenthal_guard=FREUDENTHAL_GUARD_DEFAULT,
                   weyl_guard=WEYL_GUARD_DEFAULT, include_weyl=True):
    """Cross-check L (multiplicity oracle), closed-form q, and the Weyl-sum q.

    Returns a dict with the three values (Weyl sum only for simple g at a
    regular point) and the pairwise agreement flags:
    L == q mod 2, and Weyl-sum q == closed-form q exactly.
    """
    nu = tuple(rl.vec(nu))
    table = freudenthal_multiplicities(rd, lam, guard=freudenthal_guard)
    l_val = L_phi(rd, table, nu)
    q_val = q_irreducible(rd, lam, nu)
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
        qw = q_via_weyl_sum(rd, lam, reg, guard=weyl_guard)
        report["weyl_sum"] = qw
        report["weyl_agrees"] = qw == (
            q_val if reg == nu else q_irreducible(rd, lam, reg))
        report["regular_point"] = reg
    report["ok"] = bool(report["parity_agrees"]) and report["weyl_agrees"] in (None, True)
    return report


# ----------------------------------------------------------------------
# descent

def descent_check(rd, lam, nu, d, guard=FREUDENTHAL_GUARD_DEFAULT):
    """Spinoriality of a representation descended through a cyclic central
    subgroup generated by nu evaluated at a primitive d-th root of unity.

    Requires d even.  The representation descends iff every weight pairs
    with nu divisibly by d (checked); the descended representation is then
    spinorial iff 2d divides L(nu), which is computed exactly from the
    multiplicity table.
    """
    if d % 2 != 0:
        raise SpecificationError("descent criterion requires even order d")
    nu = tuple(rl.vec(nu))
    table = freudenthal_multiplicities(rd, lam, guard=guard)
    den, pairs = table.pairings(nu)
    for p, _, labels in pairs:
        if p % (d * den):
            raise SpecificationError(
                f"weight {fmt_vec(table.weight(labels))} pairs to "
                f"{Fraction(p, den)} "
                f"with nu; the representation does not descend through the "
                f"order-{d} subgroup")
    return L_phi(rd, table, nu) % (2 * d) == 0


# ----------------------------------------------------------------------
# sweeps

def is_dominant_orthogonal(rd, lam):
    """Is lam the highest weight of an irreducible orthogonal representation:
    a dominant character, killing the connected center, with orthogonal
    Frobenius-Schur type?"""
    return (rd.is_character(lam) and rd.is_dominant(lam)
            and all(dot(lam, z) == 0 for z in rd.center_directions)
            and classify(rd, lam).orthogonal)


def dominant_orthogonal_weights(rd, box, basis=None):
    """All dominant orthogonal characters with coordinates in [0, box], in
    lexicographic order, generated one at a time.

    Coordinates refer to ``basis``, a basis of weights (default: the
    fundamental weights).  When -w0 permutes the basis, only the coordinate
    tuples it fixes are visited, since orthogonal weights are self-dual;
    otherwise the whole box is scanned.
    """
    basis = tuple(map(rl.vec, rd.fundamental_weights if basis is None
                      else basis))
    rows, den = rl.scaled_rows(basis)
    cols = list(zip(*rows)) or [()] * rd.dim
    values = range(box + 1)
    images = [rl.mat_vec(rd.minus_w0_matrix, b) for b in basis]
    if any(im not in basis for im in images):
        points = product(values, repeat=len(basis))
    else:
        # -w0 is an involution; the first index of each orbit carries its
        # value, so the orbit values come in the points' lexicographic order
        perm = [basis.index(im) for im in images]
        reps = [i for i, j in enumerate(perm) if i <= j]
        slot = [reps.index(min(i, j)) for i, j in enumerate(perm)]
        points = (tuple(v[k] for k in slot)
                  for v in product(values, repeat=len(reps)))
    for c in points:
        lam = tuple(Fraction(sum(map(mul, c, col)), den) for col in cols)
        if is_dominant_orthogonal(rd, lam):
            yield c, lam


def scan_periodicity(rd, fg, box, k, basis=None):
    """Search for violations of period-2^k invariance of the verdict.

    For every dominant orthogonal lam0 with coordinates in the box, compares
    the verdict at lam0 with the verdict at lam0 + 2^k e_i along each
    coordinate axis (skipping shifted points that fall outside the dominant
    orthogonal set).  Also reports the smallest exponent in [0, k] with no
    violations in the box, and the density of spinorial points in the box.
    """
    basis = rd.fundamental_weights if basis is None else basis

    @lru_cache(maxsize=None)
    def verdict(coords):
        lam = rl.combo(coords, basis, dim=rd.dim)
        if not is_dominant_orthogonal(rd, lam):
            return None
        rep = OrthRep(irreducible=(tuple(lam),))
        return all(q_rep(rd, rep, nu) % 2 == 0 for nu in fg.generators)

    points = [c for c, _ in dominant_orthogonal_weights(rd, box, basis=basis)]
    spin_count = sum(1 for c in points if verdict(c))

    def violations(kk):
        step = 2 ** kk
        out, compared = [], 0
        for c0 in points:
            v0 = verdict(c0)
            for axis in range(len(basis)):
                shifted = tuple(a + (step if i == axis else 0)
                                for i, a in enumerate(c0))
                if any(x > box for x in shifted):
                    continue
                v1 = verdict(shifted)
                if v1 is None:
                    continue
                compared += 1
                if v1 != v0:
                    out.append((c0, axis))
        return out, compared

    viols, compared = violations(k)
    report = {
        "k": k,
        "box": box,
        "violations": viols,
        "points": len(points),
        "spinorial_points": spin_count,
        "density": Fraction(spin_count, len(points)) if points else Fraction(0),
        "vacuous": compared == 0,
    }
    minimal = None
    for kk in range(k + 1):
        v, c = violations(kk)
        if c and not v:
            minimal = kk
            break
    report["minimal_k"] = minimal
    return report
