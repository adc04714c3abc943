"""Fundamental groups pi_1(G) = X_*(T)/Q(T) and the invariant p of a generating set.

The coroot lattice Q(T) is expressed in the declared cocharacter basis as an
integer matrix; its Smith normal form gives the invariant factors of the
quotient and lifts of a generating set.  Named catalog groups override the
generator lifts with their traditional representatives (which are validated to
generate), so certificates are reported against the familiar cocharacters.
"""

from dataclasses import dataclass

from . import ratlin as rl
from .errors import SpecificationError


@dataclass(frozen=True)
class FundGroupData:
    """Invariant factors of X_*/Q(T) with cocharacter lifts of generators.

    ``invariant_factors`` lists the nontrivial diagonal entries of the Smith
    form: integers > 1 for torsion, 0 for each free rank (central torus).
    ``generators`` holds one cocharacter lift per listed factor.
    """

    invariant_factors: tuple = ()
    generators: tuple = ()

    @property
    def is_trivial(self):
        return not self.invariant_factors

    @property
    def order(self):
        """Order of pi_1, or None when it is infinite."""
        n = 1
        for d in self.invariant_factors:
            if d == 0:
                return None
            n *= d
        return n


def _coroot_matrix(rd):
    """Generators of the trivial-direction sublattice in basis coordinates.

    These are the simple coroots (integral, as the datum checked) plus any
    quotiented ambient central direction that happens to lie in the
    cocharacter lattice (type A realizations carry the all-ones direction
    this way).
    """
    return [[int(v) for v in x] for x in rd.coroot_lattice_coords
            if x is not None and all(v.denominator == 1 for v in x)]


def fundamental_group(rd, generators=None):
    """Compute pi_1(G) for the datum's cocharacter lattice.

    With ``generators`` given (cocharacter vectors), their images are checked
    to generate the quotient and they are used verbatim as the lifts; the
    invariant factors always come from the Smith normal form.
    """
    n = len(rd.cochar_basis)
    rows = _coroot_matrix(rd)
    d, v_inv = rl.smith_normal_form(rows) if rows else ((), rl.identity(n))
    factors, gens = [], []
    for di, row in zip(list(d) + [0] * (n - len(d)), v_inv):
        if di != 1:
            factors.append(di)
            gens.append(rl.combo(row, rd.cochar_basis))

    if generators is not None:
        gens = tuple(rl.vec(g) for g in generators)
        for g in gens:
            rd.assert_cocharacter(g)
        if not _generate_quotient(rd, rows, gens, n):
            raise SpecificationError(
                "provided cocharacters do not generate X_*/Q(T)")
        if len(gens) < len(factors):
            raise SpecificationError("too few generators for the quotient")

    return FundGroupData(tuple(factors), tuple(gens))


def _generate_quotient(rd, coroot_rows, gens, n):
    """Do the images of ``gens`` generate X_*(T)/Q(T)?"""
    stacked = coroot_rows + [[int(v) for v in rl.lattice_coords(
        rd.cochar_basis, g)] for g in gens]
    d, _ = rl.smith_normal_form(stacked)
    return len(d) == n and all(x == 1 for x in d)


def p_value(rd, generators):
    """p = half the gcd of the Killing norms of the generators.

    The gcd of rationals a/c and b/c is gcd(a, b)/c; this reproduces the
    traditional half-integral lattice values exactly.
    """
    if not generators:
        raise SpecificationError("p is undefined for an empty generating set")
    norms = [rd.cochar_norm_sq(g) for g in generators]
    return rl.frac_gcd(norms) / 2
