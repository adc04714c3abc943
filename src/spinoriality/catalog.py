"""Named group constructors with their traditional cocharacter lattices and
fundamental-group generators, plus the families' all-spinorial predicates and
known aspinorial witnesses.

Realizations (all exact, in ambient rational coordinates):

* ``SL_quot(n, d)`` — type A_{n-1} in Z^n with the all-ones direction
  quotiented; cocharacter lattice {x : sum x_i = 0 mod n/d} (plus that
  direction), generator (n/d, 0, ..., 0).
* ``GL(n)`` — type A_{n-1} with the full lattice Z^n and a genuine
  one-dimensional center; generator (1, 0, ..., 0).
* ``Sp_quot(n)`` — C_n with lattice Z^n + Z.(1/2)(1,...,1).
* ``SO(m)`` / ``Spin(m)`` / ``PSO(2n)`` — types B/D with lattices Z^n,
  the coroot lattice, and Z^n + Z.(1/2)(1,...,1) respectively.
* ``Gplus(2n)`` / ``Gminus(2n)`` — D_n (n even) with the coroot lattice
  extended by (1/2)(1,...,1) or (1/2)(1,...,-1).
* ``simplyConnected`` / ``adjoint`` — any type list, with the coroot or
  the coweight lattice.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from . import ratlin as rl
from .errors import SpecificationError
from .rootdata import (RootDatum, build_root_datum, check_root_guard,
                       simple_system)
from .fundgroup import fundamental_group, p_value
from . import repcalc
from . import spinor


@dataclass(frozen=True)
class GroupSpec:
    family: str
    params: tuple

    def __str__(self):
        return f"{self.family}{self.params}"


@dataclass
class Group:
    """A catalog group: root datum, fundamental group, and the coordinate
    basis in which command-line weights are expressed."""
    name: str
    spec: GroupSpec
    rd: object
    fg: object
    weight_basis: tuple

    def check_coords(self, coords):
        """coords, checked to hold one coordinate per basis weight."""
        if len(coords) != len(self.weight_basis):
            raise SpecificationError(
                f"{self.name} expects {len(self.weight_basis)} weight "
                f"coordinates, got {len(coords)}")
        return coords

    def weight_from_coords(self, coords):
        forms = self.rd.weight_forms(self.weight_basis)
        m, d = forms.lift(*rl.scaled(self.check_coords(coords)))
        return tuple(Fraction(x, d) for x in m)


def _e(n, i):
    return rl.unit(n, i)


def _half_ones(n, last_sign=1):
    v = [Fraction(1, 2)] * n
    v[-1] *= last_sign
    return tuple(v)


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


# integer parameter counts; simplyConnected and adjoint take (family, rank)
_ARITY = {"SL_quot": 2, "GL": 1, "Sp": 1, "Sp_quot": 1, "SO": 1, "Spin": 1,
          "PSO": 1, "Gplus": 1, "Gminus": 1}


def _params_ok(fam, p):
    if fam in ("simplyConnected", "adjoint"):
        return isinstance(p, tuple) and all(
            isinstance(f, tuple) and len(f) == 2 and isinstance(f[0], str)
            and type(f[1]) is int for f in p)
    return fam not in _ARITY or (isinstance(p, tuple) and all(
        type(x) is int for x in p) and len(p) == _ARITY[fam])


def _system(family, rank):
    """(roots, coroots, central) of one simple type in its standard
    realization (``simple_system``), after the root-count guard; central
    holds type A's quotiented direction."""
    check_root_guard([(family, rank)])
    roots, coroots, _, central = simple_system(family, rank)
    return roots, coroots, () if central is None else (central,)


def _half_lattice(n):
    """A basis of Z^n + Z (1/2)(1,...,1)."""
    return rl.row_lattice_basis(rl.identity(n) + (_half_ones(n),))


def make_group(spec):
    """Build the root datum, once and with its cocharacter lattice, and the
    fundamental group for a catalog spec."""
    fam, p = spec.family, spec.params
    if not _params_ok(fam, p):
        raise SpecificationError(f"bad parameters for {fam}: {p!r}")
    gens = None     # traditional lifts of pi_1's generators, if any
    if fam == "SL_quot":
        n, d = p
        if n < 2 or d < 1 or n % d != 0:
            raise SpecificationError(f"SL_quot needs d | n, n >= 2; got {p}")
        name, m = _sl_name(n, d), n // d
        roots, coroots, central = _system("A", n - 1)
        basis = coroots + [rl.scale(m, _e(n, n - 1))] if d > 1 else coroots
        rd = RootDatum(roots, coroots, basis, central, label=name)
        if d > 1:
            gens = [rl.scale(m, _e(n, 0))]
    elif fam == "GL":
        (n,) = p
        name, gens = f"GL{n}", [_e(n, 0)]
        roots, coroots, _ = _system("A", n - 1)
        rd = RootDatum(roots, coroots, rl.identity(n), label=name)
    elif fam in ("Sp", "Sp_quot"):
        (n,) = p
        roots, coroots, _ = _system("C", n)
        name, basis = f"Sp{2*n}", coroots
        if fam == "Sp_quot":
            name, basis, gens = f"PSp{2*n}", _half_lattice(n), [_half_ones(n)]
        rd = RootDatum(roots, coroots, basis, label=name)
    elif fam in ("SO", "Spin"):
        (m,) = p
        if m < 3:
            raise SpecificationError("orthogonal groups need m >= 3")
        n, name = m // 2, f"{fam}{m}"
        roots, coroots, _ = _system("D" if m % 2 == 0 else "B", n)
        basis = coroots
        if fam == "SO":
            basis, gens = rl.identity(n), [_e(n, 0)]
        rd = RootDatum(roots, coroots, basis, label=name)
    elif fam == "PSO":
        (m,) = p
        if m % 2 != 0 or m < 4:
            raise SpecificationError("PSO needs even m >= 4")
        n, name = m // 2, f"PSO{m}"
        roots, coroots, _ = _system("D", n)
        rd = RootDatum(roots, coroots, _half_lattice(n), label=name)
        gens = [_e(n, 0), _half_ones(n)] if n % 2 == 0 else [_half_ones(n)]
    elif fam in ("Gplus", "Gminus"):
        (m,) = p
        n, name = m // 2, f"{fam}{m}"
        if m % 2 != 0 or n % 2 != 0 or n <= 2:
            raise SpecificationError(
                "the plus/minus type D quotients need m = 2n with n even, n > 2")
        roots, coroots, _ = _system("D", n)
        gens = [_half_ones(n, last_sign=1 if fam == "Gplus" else -1)]
        rd = RootDatum(roots, coroots, rl.row_lattice_basis(coroots + gens),
                       label=name)
    elif fam in ("simplyConnected", "adjoint"):
        name = "x".join(f"{f}{r}" for f, r in p)
        rd = build_root_datum(p, label=name)
        if fam == "adjoint":
            # the lattice of the fundamental coweights, read off the simply
            # connected datum; the adjoint one is built anew
            name += "adj"
            rd = RootDatum(rd.simple_roots, rd.simple_coroots,
                           rd.fundamental_coweights, rd.central_cochars,
                           label=name)
    else:
        raise SpecificationError(f"unknown catalog family {fam!r}")
    fg = fundamental_group(rd, generators=gens)
    wb = (rl.identity(n) if fam == "GL"
          else (rd.simple_roots[0],) if name == "PGL2"
          else rd.fundamental_weights)
    return Group(name, spec, rd, fg, wb)


def _sl_name(n, d):
    if d == 1:
        return f"SL{n}"
    if d == n:
        return f"PGL{n}"
    return f"SL{n}/mu{d}"


def highest_root(rd):
    """The highest root (as a character vector); the adjoint highest weight:
    the positive root of greatest height, the sum of its coordinates."""
    return rl.combo(max(rd.positive_root_coords, key=sum), rd.simple_roots)


# ----------------------------------------------------------------------
# name parsing

_NAME_PATTERNS = [
    (re.compile(r"^SL(\d+)/mu(\d+)$"), lambda n, d: GroupSpec("SL_quot", (n, d))),
    (re.compile(r"^SL(\d+)$"), lambda n: GroupSpec("SL_quot", (n, 1))),
    (re.compile(r"^PGL(\d+)$"), lambda n: GroupSpec("SL_quot", (n, n))),
    (re.compile(r"^GL(\d+)$"), lambda n: GroupSpec("GL", (n,))),
    (re.compile(r"^Sp(\d+)$"),
     lambda m: GroupSpec("Sp", (_symplectic_rank(m),))),
    (re.compile(r"^PSp(\d+)$"),
     lambda m: GroupSpec("Sp_quot", (_symplectic_rank(m),))),
    (re.compile(r"^SO(\d+)$"), lambda m: GroupSpec("SO", (m,))),
    (re.compile(r"^Spin(\d+)$"), lambda m: GroupSpec("Spin", (m,))),
    (re.compile(r"^PSO(\d+)$"), lambda m: GroupSpec("PSO", (m,))),
    (re.compile(r"^G(?:plus|\+)(\d+)$"), lambda m: GroupSpec("Gplus", (m,))),
    (re.compile(r"^G(?:minus|-)(\d+)$"), lambda m: GroupSpec("Gminus", (m,))),
    (re.compile(r"^E6adj$"), lambda: GroupSpec("adjoint", (("E", 6),))),
    (re.compile(r"^E7adj$"), lambda: GroupSpec("adjoint", (("E", 7),))),
    (re.compile(r"^E(\d)$"), lambda r: GroupSpec("simplyConnected", (("E", r),))),
    (re.compile(r"^F4$"), lambda: GroupSpec("simplyConnected", (("F", 4),))),
    (re.compile(r"^G2$"), lambda: GroupSpec("simplyConnected", (("G", 2),))),
]


def _symplectic_rank(m):
    if m % 2:
        raise SpecificationError(f"the symplectic dimension must be even, got {m}")
    return m // 2


def parse_group_name(name):
    for pat, make in _NAME_PATTERNS:
        m = pat.match(name)
        if m:
            try:
                args = [int(g) for g in m.groups()]
            except ValueError:      # past the digits Python converts
                raise SpecificationError(
                    f"a number in the group name {name[:12]}... is too long")
            return make(*args)
    raise SpecificationError(f"unknown group name {name!r}")


def group_by_name(name):
    return make_group(parse_group_name(name))


# ----------------------------------------------------------------------
# all-spinorial predicates and witnesses

def summary_check(spec):
    """Whether every orthogonal representation of the group is spinorial,
    per the classification of simple types; None when the classification
    makes no claim for the family (GL)."""
    fam, p = spec.family, spec.params
    if fam == "SL_quot":
        n, d = p
        if d % 2 == 1:
            return True
        return (n // d) % 2 == 0 and not (_is_pow2(n) and 2 * d == n)
    if fam == "GL":
        return None
    if fam in ("Sp", "Spin", "simplyConnected"):
        return True
    if fam == "SO":
        return False
    if fam == "Sp_quot":
        return p[0] % 4 == 0
    if fam == "PSO":
        return (p[0] // 2) % 4 == 0
    if fam in ("Gplus", "Gminus"):
        n = p[0] // 2
        return n > 4 and n % 4 == 0
    if fam == "adjoint":
        if len(p) != 1:
            raise SpecificationError("summary_check wants a single factor")
        f, r = p[0]
        if f == "A":
            return summary_check(GroupSpec("SL_quot", (r + 1, r + 1)))
        if f == "B":
            return False
        if f == "C":
            return summary_check(GroupSpec("Sp_quot", (r,)))
        if f == "D":
            return summary_check(GroupSpec("PSO", (2 * r,)))
        if f == "E" and r == 7:
            return False
        return True  # E6 (odd pi_1), E8, F4, G2 (trivial pi_1)
    raise SpecificationError(f"unknown catalog family {fam!r}")


def known_aspinorial_witness(spec):
    """A concrete aspinorial highest weight when summary_check is False."""
    fam, p = spec.family, spec.params
    if summary_check(spec):
        return None
    if fam == "SL_quot":
        n, d = p
        if _is_pow2(n) and 2 * d == n:
            # projection of the middle fundamental weight, orthogonal to the
            # quotiented all-ones direction
            h = n // 2
            return tuple(Fraction(1, 2) if i < h else Fraction(-1, 2)
                         for i in range(n))
        # n even, n/d odd: the adjoint representation
        v = [Fraction(0)] * n
        v[0], v[-1] = Fraction(1), Fraction(-1)
        return tuple(v)
    if fam == "SO":
        (m,) = p
        n = m // 2 if m % 2 == 0 else (m - 1) // 2
        return _e(n, 0)
    if fam == "Sp_quot":
        (n,) = p
        if n % 4 == 3:
            return rl.add(_e(n, 0), _e(n, 1))     # second fundamental rep
        return rl.scale(2, _e(n, 0))              # adjoint
    if fam == "PSO":
        n = p[0] // 2
        if n % 4 == 1:
            # the adjoint is spinorial here (its L value n(n-1)/2 is even);
            # the traceless symmetric square has odd L value n(n+1)/2
            return rl.scale(2, _e(n, 0))
        return rl.add(_e(n, 0), _e(n, 1))         # adjoint / exterior square
    if fam in ("Gplus", "Gminus"):
        n = p[0] // 2
        if n == 4:
            return _half_ones(n, last_sign=1 if fam == "Gplus" else -1)
        return rl.add(_e(n, 0), _e(n, 1))         # exterior square
    if fam == "adjoint":
        f, r = p[0]
        if (f, r) == ("E", 7):
            return highest_root(make_group(spec).rd)
        raise SpecificationError(
            f"no stored witness for adjoint type {f}{r}; use the matching "
            "classical family spec instead")
    raise SpecificationError(f"no witness known for {spec}")


def sweep_all_spinorial(group, box=2):
    """Closed-form sweep over the dominant orthogonal box; returns
    (all_spinorial, first_counterexample_or_None)."""
    for coords, lam in spinor.dominant_orthogonal_weights(group.rd, box):
        # coordinates in the fundamental weights are the labels
        rep = spinor.OrthRep(irreducible=(lam,), labels=(coords,))
        v = spinor.is_spinorial(group.rd, group.fg, rep)
        if not v.spinorial:
            return False, (coords, lam)
    return True, None


# ----------------------------------------------------------------------
# type D tables

def type_d_weight(n, name):
    """Named weights of the type D_n torus in Euclidean coordinates.

    ``wk`` (k ones then zeros) for name "w<k>", plus "half_wn",
    "half_wminus", and "wminus" (1,...,1,-1).
    """
    if name == "half_wn":
        return _half_ones(n)
    if name == "half_wminus":
        return _half_ones(n, last_sign=-1)
    if name == "wminus":
        v = [Fraction(1)] * n
        v[-1] = Fraction(-1)
        return tuple(v)
    m = re.match(r"^w(\d+)$", name)
    if m and 1 <= int(m.group(1)) <= n:
        k = int(m.group(1))
        return tuple(Fraction(1 if i < k else 0) for i in range(n))
    raise SpecificationError(f"unknown type D weight name {name!r}")


def type_d_table(n):
    """p values per isogeny class and (dim, Casimir) rows for the named
    weights of D_n, computed by the engine."""
    rows = {}
    groups = [f"SO{2*n}", f"PSO{2*n}"]
    if n % 2 == 0 and n > 2:
        groups += [f"Gplus{2*n}", f"Gminus{2*n}"]
    for name in groups:
        g = group_by_name(name)
        rows[name] = p_value(g.rd, g.fg.generators)
    rd = build_root_datum([("D", n)])
    weights = {}
    names = [f"w{k}" for k in range(1, n + 1)] + ["half_wn", "half_wminus", "wminus"]
    for wname in names:
        lam = type_d_weight(n, wname)
        weights[wname] = (repcalc.weyl_dim(rd, lam), repcalc.casimir_value(rd, lam))
    return {"p": rows, "weights": weights}


# ----------------------------------------------------------------------
# standard test fleets

CATALOG_RANK_LE_4 = [
    "SL2", "SL3", "SL4", "SL5",
    "PGL2", "PGL3", "PGL4", "PGL5",
    "SL4/mu2",
    "GL2", "GL3",
    "Sp4", "Sp6", "Sp8",
    "PSp4", "PSp6", "PSp8",
    "SO3", "SO4", "SO5", "SO6", "SO7", "SO8", "SO9",
    "Spin5", "Spin7", "Spin8", "Spin9",
    "PSO6", "PSO8",
    "Gplus8", "Gminus8",
    "G2", "F4",
]


def summary_suite_specs():
    """The concrete parameter list of the family classification suite."""
    names = []
    for n in range(2, 13):
        for d in range(1, n + 1):
            if n % d == 0:
                names.append(_sl_name(n, d))
    names += [f"PSp{2*n}" for n in range(2, 9)]
    for m in range(4, 17, 2):
        names += [f"SO{m}", f"Spin{m}", f"PSO{m}"]
        n = m // 2
        if n % 2 == 0 and n > 2:
            names += [f"Gplus{m}", f"Gminus{m}"]
    names += [f"SO{m}" for m in range(3, 17, 2)]
    names += ["E6adj", "E7adj"]
    return names
