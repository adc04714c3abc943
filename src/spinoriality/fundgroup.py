"""Fundamental groups pi_1(G) = X_*(T)/Q(T) and the invariant p of a generating set.

The datum holds the relations of pi_1 in its cocharacter basis, from the
lattice table made when it was built: the coroots, and the least lattice
vector along each quotiented ambient direction in the lattice's span (type
A realizations carry the all-ones direction).  Their Smith normal form
gives the invariant factors of the quotient and lifts of a generating set.
Named catalog groups override the lifts with their traditional
representatives, checked to generate from their coordinates on the same
table, so certificates are reported against the familiar cocharacters.
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


def fundamental_group(rd, generators=None):
    """Compute pi_1(G) for the datum's cocharacter lattice.

    With ``generators`` given (cocharacter vectors), their images are checked
    to generate the quotient and they are used verbatim as the lifts; the
    invariant factors always come from the Smith normal form.
    """
    basis, bden = rd._cochar_rows
    n, rows = len(basis), list(rd.relations)
    d, v_inv = rl.smith_normal_form(rows) if rows else (
        (), [[int(i == j) for j in range(n)] for i in range(n)])
    factors, lifts = [], []
    for di, row in zip(list(d) + [0] * (n - len(d)), v_inv):
        if di != 1:
            factors.append(di)
            lifts.append(row)

    if generators is None:
        gens = tuple(rl.unscaled_rows(rl.combos(lifts, basis), bden))
    else:
        gens = tuple(rl.vec(g) for g in generators)
        # each generator's basis coordinates, read off the datum's table
        d, _ = rl.smith_normal_form(rows + [rd.assert_cocharacter(g)
                                            for g in gens])
        if len(d) != n or any(x != 1 for x in d):
            raise SpecificationError(
                "provided cocharacters do not generate X_*/Q(T)")

    return FundGroupData(tuple(factors), tuple(gens))


def p_value(rd, generators):
    """p = half the gcd of the Killing norms of the generators.

    The gcd of rationals a/c and b/c is gcd(a, b)/c; this reproduces the
    traditional half-integral lattice values exactly.
    """
    if not generators:
        raise SpecificationError("p is undefined for an empty generating set")
    norms = [rd.cochar_norm_sq(g) for g in generators]
    return rl.frac_gcd(norms) / 2
