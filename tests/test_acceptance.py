"""Acceptance gate: nine end-to-end criteria, one printed line per criterion.

Lines are written to the real stdout so they remain visible under pytest's
output capture.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from spinoriality import ratlin as rl
from spinoriality.catalog import (CATALOG_RANK_LE_4, group_by_name,
                                  known_aspinorial_witness, summary_check,
                                  summary_suite_specs, sweep_all_spinorial,
                                  type_d_table)
from spinoriality.repcalc import L_phi, freudenthal_multiplicities, weyl_dim
from spinoriality.spinor import (OrthRep, adjoint_spinorial, descent_check,
                                 dominant_orthogonal_weights, is_spinorial,
                                 oracle_compare, orth_rep, q_rep,
                                 scan_periodicity)
from linalg_reference import combo
from test_properties import reference_dominant_orthogonal


@contextmanager
def criterion(num, label):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num} — {label}: FAIL", file=sys.__stdout__)
        raise
    dt = time.time() - t0
    print(f"criterion {num} — {label}: PASS ({dt:.1f}s)", file=sys.__stdout__)


def test_criterion_1_pgl2_pattern():
    with criterion(1, "PGL2 pattern, j <= 100"):
        g = group_by_name("PGL2")
        for j in range(0, 101):
            lam = g.weight_from_coords([j])
            v = is_spinorial(g.rd, g.fg, orth_rep(g.rd, irreducible=[lam]))
            assert v.q_values() == (j * (j + 1) * (2 * j + 1) // 6,)
            assert v.spinorial == (j % 4 in (0, 3)), j


def test_criterion_2_so4_pattern():
    with criterion(2, "SO4 pattern, a, b <= 20"):
        g = group_by_name("SO4")
        checked = 0
        for a in range(0, 21):
            for b in range(0, a + 1):
                if (a - b) % 2:
                    continue
                lam = g.weight_from_coords([a, b])
                v = is_spinorial(g.rd, g.fg, orth_rep(g.rd, irreducible=[lam]))
                f = (b + 1) * comb(a + 2, 3) + (a + 1) * comb(b + 2, 3)
                assert v.spinorial == (f % 8 == 0), (a, b)
                checked += 1
        assert checked == 121


def test_criterion_3_gl2_hyperbolic():
    with criterion(3, "GL2 hyperbolic summands, 0 <= n <= m <= 15"):
        g = group_by_name("GL2")
        for m in range(0, 16):
            for n in range(0, m + 1):
                rep = orth_rep(g.rd, hyperbolic=[(Fraction(m), Fraction(n))])
                v = is_spinorial(g.rd, g.fg, rep)
                half = (m + n) * (m - n + 1) // 2
                assert v.spinorial == (half % 2 == 0), (m, n)


def test_criterion_4_type_d_tables():
    with criterion(4, "type D isogeny/weight tables, n in {4, 6, 8, 10}"):
        for n in (4, 6, 8, 10):
            table = type_d_table(n)
            assert table["p"][f"SO{2*n}"] == 2 * n - 2
            if n % 4 == 0:
                pso = 2 * n - 2
            elif n % 2 == 0:
                pso = n - 1
            else:
                pso = n * (n - 1) // 2
            assert table["p"][f"PSO{2*n}"] == pso
            if n % 2 == 0:
                assert table["p"][f"Gplus{2*n}"] == n * (n - 1) // 2
                assert table["p"][f"Gminus{2*n}"] == n * (n - 1) // 2
            for k in range(1, n):
                dim, chi = table["weights"][f"w{k}"]
                assert dim == comb(2 * n, k)
                assert chi == Fraction(k * (2 * n - k), 4 * n - 4)
            dim, chi = table["weights"]["half_wn"]
            assert dim == 2 ** (n - 1)
            assert chi == Fraction(n * (2 * n - 1), 16 * (n - 1))
            assert table["weights"]["half_wminus"] == (dim, chi)
            split = (comb(2 * n, n) // 2, Fraction(n * n, 4 * n - 4))
            assert table["weights"][f"w{n}"] == split
            assert table["weights"]["wminus"] == split


def test_criterion_5_three_way_oracle():
    with criterion(5, "three-way oracle agreement, rank <= 4 catalog"):
        total = 0
        for name in CATALOG_RANK_LE_4:
            g = group_by_name(name)
            nus = g.fg.generators or tuple(g.rd.simple_coroots[:1])
            for coords, lam in dominant_orthogonal_weights(
                    g.rd, 3, basis=g.weight_basis):
                if weyl_dim(g.rd, lam) > 10 ** 5:
                    continue
                for nu in nus:
                    rep = oracle_compare(g.rd, lam, nu)
                    assert rep["ok"], (name, coords, nu, rep)
                    total += 1
        assert total >= 900, total


def test_criterion_6_family_summary_suite():
    with criterion(6, "family classification suite, box-2 sweeps"):
        for name in summary_suite_specs():
            g = group_by_name(name)
            predicted = summary_check(g.spec)
            assert predicted is not None, name
            if predicted:
                ok, cex = sweep_all_spinorial(g, box=2)
                assert ok, (name, cex)
            else:
                w = known_aspinorial_witness(g.spec)
                assert w is not None, name
                rep = orth_rep(g.rd, irreducible=[rl.vec(w)])
                assert not is_spinorial(g.rd, g.fg, rep).spinorial, name


def test_criterion_7_descent():
    with criterion(7, "descent through central subgroups"):
        for n in range(2, 13):
            g = group_by_name(f"SL{n}")
            if n == 2:
                lam = g.weight_from_coords([2])
            else:
                lam = g.weight_from_coords([1] + [0] * (n - 3) + [1])
            nu0 = tuple(Fraction(1) for _ in range(n - 1)) + (Fraction(1 - n),)
            table = freudenthal_multiplicities(g.rd, lam)
            assert L_phi(g.rd, table, nu0) == n * (n - 1), n
        # middle exterior power descended through the order-n/2 subgroup:
        # aspinorial exactly when n is a power of two
        cases = [(4, 2, False), (8, 4, False), (16, 8, False),
                 (8, 2, True), (12, 6, True)]
        for n, d, expect_spinorial in cases:
            g = group_by_name(f"SL{n}")
            coords = [0] * (n - 1)
            coords[n // 2 - 1] = 1
            lam = g.weight_from_coords(coords)
            nu0 = tuple(Fraction(1) for _ in range(n - 1)) + (Fraction(1 - n),)
            assert descent_check(g.rd, lam, nu0, d) == expect_spinorial, (n, d)


def test_criterion_8_periodicity():
    with criterion(8, "verdict periodicity with minimality"):
        g = group_by_name("PGL2")
        rep = scan_periodicity(g.rd, g.fg, box=64, k=2, basis=g.weight_basis)
        assert rep["violations"] == [] and not rep["vacuous"]
        rep1 = scan_periodicity(g.rd, g.fg, box=64, k=1, basis=g.weight_basis)
        assert rep1["violations"] != []

        g = group_by_name("SO4")
        # factor labels (a, b): axis steps of 8 preserve the verdict, axis
        # steps of 4 do not
        rep = scan_periodicity(g.rd, g.fg, box=16, k=3, basis=g.weight_basis)
        assert rep["violations"] == [] and not rep["vacuous"]
        assert rep["minimal_k"] == 3
        rep2 = scan_periodicity(g.rd, g.fg, box=16, k=2, basis=g.weight_basis)
        assert rep2["violations"] != []


def _adjoint_rep(rd):
    """The semisimple adjoint representation: one highest root per factor."""
    summands = []
    for f in rd.factors:
        idx = set(f.indices)
        best, best_h = None, None
        for (r, _), co in zip(rd.positive_roots, rd.positive_root_coords):
            if {i for i, c in enumerate(co) if c} <= idx:
                h = sum(co)
                if best_h is None or h > best_h:
                    best, best_h = r, h
        summands.append(tuple(best))
    return OrthRep(irreducible=tuple(summands))


def _random_orth_weight(g, rng):
    while True:
        coords = [rng.randint(0, 3) for _ in g.weight_basis]
        lam = combo(coords, g.weight_basis)
        if reference_dominant_orthogonal(g.rd, lam):
            return lam


def _random_cochar(rd, rng):
    return combo([rng.randint(-4, 4) for _ in rd.cochar_basis],
                    rd.cochar_basis)


def test_criterion_9_structural():
    with criterion(9, "structural invariants and randomized identities"):
        for name in CATALOG_RANK_LE_4:
            g = group_by_name(name)
            lam = rl.scale(8, g.rd.delta)
            rep = orth_rep(g.rd, irreducible=[lam])
            assert is_spinorial(g.rd, g.fg, rep).spinorial, name
            verdict = is_spinorial(g.rd, g.fg, _adjoint_rep(g.rd))
            assert verdict.spinorial == adjoint_spinorial(g.rd), name

        rng = random.Random(20250825)
        groups = [group_by_name(n) for n in
                  ["PGL2", "PGL4", "SO8", "PSp6", "PSO8", "Gplus8"]]
        for _ in range(200):
            g = rng.choice(groups)
            rep = OrthRep(irreducible=(tuple(_random_orth_weight(g, rng)),))
            n1 = _random_cochar(g.rd, rng)
            n2 = _random_cochar(g.rd, rng)
            q1 = q_rep(g.rd, rep, n1)
            q2 = q_rep(g.rd, rep, n2)
            assert (q_rep(g.rd, rep, rl.add(n1, n2)) - q1 - q2) % 2 == 0
        for _ in range(200):
            g = rng.choice(groups)
            rep = OrthRep(irreducible=(tuple(_random_orth_weight(g, rng)),))
            nu = _random_cochar(g.rd, rng)
            shift = combo([rng.randint(-2, 2) for _ in g.rd.simple_coroots],
                             g.rd.simple_coroots)
            q0 = q_rep(g.rd, rep, nu)
            assert (q_rep(g.rd, rep, rl.add(nu, shift)) - q0) % 2 == 0
