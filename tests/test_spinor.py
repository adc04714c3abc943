import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from click.testing import CliRunner

from spinoriality import catalog, cli, spinor
from spinoriality import ratlin as rl
from spinoriality.catalog import group_by_name, highest_root
from spinoriality.errors import GuardExceededError, SpecificationError
from spinoriality.repcalc import L_phi, freudenthal_multiplicities, weyl_dim
from spinoriality.rootdata import (CocharTable, RootDatum, WeightForms,
                                   build_root_datum)
from spinoriality.spinor import (OrthRep, adjoint_spinorial, descent_check,
                                 dominant_orthogonal_weights, is_spinorial,
                                 make_regular, oracle_compare, orth_rep,
                                 q_irreducible, q_rep, q_tensor,
                                 q_via_weyl_sum, scan_periodicity)
from linalg_reference import combo, dot
from test_properties import reference_dominant_orthogonal


def test_pgl2_q_values():
    g = group_by_name("PGL2")
    for j in range(0, 30):
        lam = g.weight_from_coords([j])
        v = is_spinorial(g.rd, g.fg, orth_rep(g.rd, irreducible=[lam]))
        expected_q = j * (j + 1) * (2 * j + 1) // 6
        assert v.q_values() == (expected_q,)
        assert v.spinorial == (j % 4 in (0, 3))


def test_so4_pattern():
    g = group_by_name("SO4")
    for a in range(0, 10):
        for b in range(0, 10):
            if (a - b) % 2:
                continue
            lam = g.weight_from_coords([a, b])
            if not g.rd.is_dominant(lam):
                continue
            v = is_spinorial(g.rd, g.fg, orth_rep(g.rd, irreducible=[lam]))
            f = (b + 1) * comb(a + 2, 3) + (a + 1) * comb(b + 2, 3)
            assert v.spinorial == (f % 8 == 0), (a, b)


def test_gl2_hyperbolic():
    g = group_by_name("GL2")
    for m in range(0, 8):
        for n in range(0, m + 1):
            lam = (Fraction(m), Fraction(n))
            rep = orth_rep(g.rd, hyperbolic=[lam])
            v = is_spinorial(g.rd, g.fg, rep)
            half = Fraction((m + n) * (m - n + 1), 2)
            assert half.denominator == 1
            assert v.spinorial == (int(half) % 2 == 0), (m, n)


def test_trivial_pi1_always_spinorial():
    g = group_by_name("Spin8")
    lam = g.weight_from_coords([1, 0, 1, 1])
    v = is_spinorial(g.rd, g.fg, orth_rep(g.rd, irreducible=[lam]))
    assert v.spinorial and v.certificate == ()


def test_orth_rep_validation():
    g = group_by_name("PGL2")
    with pytest.raises(SpecificationError):
        orth_rep(g.rd, irreducible=[g.weight_from_coords([Fraction(1, 2)])])
    g2 = group_by_name("SL2")
    w = g2.weight_from_coords([1])
    with pytest.raises(SpecificationError):    # symplectic, not orthogonal
        orth_rep(g2.rd, irreducible=[w])
    # a self-dual weight automatically kills the connected center, so the
    # GL2 adjoint weight is a valid irreducible orthogonal summand
    g3 = group_by_name("GL2")
    rep = orth_rep(g3.rd, irreducible=[(Fraction(1), Fraction(-1))])
    assert len(rep.irreducible) == 1
    # the determinant is not self-dual, which is why it is refused
    with pytest.raises(SpecificationError,
                       match=r"not orthogonal \(self-dual: False"):
        orth_rep(g3.rd, irreducible=[(Fraction(1), Fraction(1))])


@pytest.mark.parametrize("coords", [[2], [2, 0, 0, 0, 0]])
def test_orth_rep_refuses_weights_of_the_wrong_length(coords):
    # SO8 weights have 4 ambient and 4 basis coordinates; a shorter or
    # longer one is refused, not read on its first entries
    g = group_by_name("SO8")
    good = orth_rep(g.rd, irreducible=[(2, 0, 0, 0)])
    assert good.labels == ((2, 0, 0, 0),)
    assert orth_rep(g.rd, irreducible=[[2, 0, 0, 0]],
                    basis=g.weight_basis).labels == ((2, 0, 0, 0),)
    for basis in (None, g.weight_basis):
        with pytest.raises(SpecificationError, match=(
                f"needs 4 coordinates here, got {len(coords)}")):
            orth_rep(g.rd, irreducible=[coords], basis=basis)
        with pytest.raises(SpecificationError, match="needs 4 coordinates"):
            orth_rep(g.rd, hyperbolic=[coords], basis=basis)


def test_q_rep_additivity():
    g = group_by_name("PGL2")
    nu = g.fg.generators[0]
    l2 = g.weight_from_coords([2])
    l3 = g.weight_from_coords([3])
    q2 = q_rep(g.rd, OrthRep(irreducible=(tuple(l2),)), nu)
    q3 = q_rep(g.rd, OrthRep(irreducible=(tuple(l3),)), nu)
    q23 = q_rep(g.rd, OrthRep(irreducible=(tuple(l2), tuple(l3))), nu)
    assert q23 == q2 + q3


def test_q_tensor():
    assert q_tensor(3, 1, 5, 2) == 3 * 2 + 5 * 1
    # tensor with a trivial factor changes nothing
    assert q_tensor(1, 0, 7, 5) == 5


def test_weyl_sum_matches_closed_form():
    for name, coords in [("PGL2", [4]), ("SO5", [2, 0]), ("G2", [1, 0])]:
        g = group_by_name(name)
        lam = g.weight_from_coords(coords)
        nu = (g.fg.generators or g.rd.simple_coroots)[0]
        reg = make_regular(g.rd, nu)
        assert q_via_weyl_sum(g.rd, lam, reg) == q_irreducible(g.rd, lam, reg)


def test_weyl_sum_rejects_irregular():
    g = group_by_name("SO5")
    # (1, 1) kills the root e1 - e2, so it is not a regular point
    with pytest.raises(SpecificationError):
        q_via_weyl_sum(g.rd, g.weight_from_coords([2, 0]),
                       (Fraction(1), Fraction(1)))


def test_oracle_compare_agrees():
    g = group_by_name("PGL3")
    lam = g.weight_from_coords([1, 1])    # adjoint
    nu = g.fg.generators[0]
    rep = oracle_compare(g.rd, lam, nu)
    assert rep["ok"] and rep["parity_agrees"] and rep["weyl_agrees"]


ORACLE_ROWS = [("SO8", [1, 0, 1, 1]), ("Spin8", [1, 0, 1, 1]),
               ("F4", [0, 0, 1, 0])]


def counting_orbits(monkeypatch):
    """Record the rows of every ``RootDatum.label_orbit`` walk: None for a
    weight's orbit, walked on the Cartan matrix."""
    walks = []
    walk = RootDatum.label_orbit
    monkeypatch.setattr(
        RootDatum, "label_orbit", lambda rd, labels, rows=None: (
            walks.append(rows) or walk(rd, labels, rows)))
    return walks


def cochar_rows(rd):
    """The rows of a cocharacter's walk: row j of the transposed Cartan
    matrix, then e_j, on which its omega-coordinates ride along."""
    r = len(rd.cartan_matrix)
    return [(*col, *(int(i == j) for i in range(r)))
            for j, col in enumerate(zip(*rd.cartan_matrix))]


@pytest.mark.parametrize("name, coords", ORACLE_ROWS)
def test_oracle_sums_over_the_orbit_of_nu_only(monkeypatch, name, coords):
    # L, the second moment and the Weyl sum come from the orbits of nu and
    # of its regular point, walked on the transposed Cartan matrix once per
    # cocharacter; no weight's orbit is walked and the table never lists its
    # weights; a second row at the same nu walks no orbit at all
    g = group_by_name(name)
    nu = (g.fg.generators or g.rd.simple_coroots)[0]
    walks, tables = counting_orbits(monkeypatch), []
    monkeypatch.setattr(spinor, "freudenthal_multiplicities",
                        lambda *a, **kw: tables.append(
                            freudenthal_multiplicities(*a, **kw)) or tables[-1])
    rep = oracle_compare(g.rd, g.weight_from_coords(coords), nu)
    reg = rep["regular_point"]
    assert rep["ok"] and rep["weyl_agrees"] and len(tables) == 1
    assert "_weights" not in vars(tables[0])
    assert 1 <= len(walks) <= 2
    assert all(rows == cochar_rows(g.rd) for rows in walks)
    assert len(g.rd.cochar_table(reg).signed_orbit) == g.rd.weyl_order
    walks.clear()
    again = oracle_compare(g.rd, g.weight_from_coords(coords), nu)
    assert again == rep and walks == []
    # another weight may list its weights, and walk their orbits, but not
    # the orbits of nu or of its regular point
    monkeypatch.undo()
    walks = counting_orbits(monkeypatch)
    other = oracle_compare(g.rd, g.weight_from_coords([0, 1, 0, 0]), nu)
    assert other["ok"] and other["regular_point"] == reg
    assert all(rows is None for rows in walks)


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_regular_nu_on_a_large_weyl_group_sums_over_the_weights(
        monkeypatch, name):
    # at 2 delta_v the orbit of nu is all of W, millions of points, while
    # the adjoint representation has |Phi| + 1 distinct weights: L, the
    # second moment and the descent check are summed over those, and the
    # cocharacter table never walks the orbit of nu
    g = group_by_name(name)
    rd, lam = g.rd, highest_root(g.rd)
    nu = combo(rd.two_delta_coroot_coords, rd.simple_coroots, dim=rd.dim)
    monkeypatch.setattr(CocharTable, "signed_orbit", property(
        lambda self: pytest.fail("walked the orbit of nu")))
    table = freudenthal_multiplicities(rd, lam)
    pairs = [(dot(mu, nu), m) for mu, m in table.items()]
    L = sum(m * p for p, m in pairs if p > 0)
    assert L_phi(rd, table, nu) == L
    assert table.pairing_sums(nu)[1] == sum(m * p * p for p, m in pairs)
    assert oracle_compare(rd, lam, nu, include_weyl=False)["ok"]
    assert descent_check(rd, lam, nu, 2) == (L % 4 == 0)
    assert rd.cochar_table(nu).orbit_size == rd.weyl_order


def test_weyl_guard_is_checked_on_every_call():
    # the regular point's table and orbit exist after the first row; a
    # smaller guard still refuses, with the message the walk gave before
    g = group_by_name("F4")
    lam, nu = g.weight_from_coords([0, 0, 1, 0]), g.rd.simple_coroots[0]
    reg = make_regular(g.rd, nu)
    assert oracle_compare(g.rd, lam, nu)["weyl_agrees"]
    assert "signed_orbit" in vars(g.rd.cochar_table(reg))
    for call in (lambda: q_via_weyl_sum(g.rd, lam, reg, guard=1151),
                 lambda: oracle_compare(g.rd, lam, nu, weyl_guard=1000)):
        with pytest.raises(GuardExceededError,
                           match="Weyl group order 1152 exceeds guard"):
            call()


def test_cochar_tables_stay_within_the_cap():
    # the datum keeps the last 2 rank(X_*) cocharacters read, by value; a
    # table dropped and read again is built again, with the same values
    g = group_by_name("PSO8")
    rd, cap = g.rd, 2 * len(g.rd.cochar_basis)
    first = rd.cochar_table(g.fg.generators[0])
    for t in range(3 * cap):
        nu = rl.vec([t, 1, -t, Fraction(t, 3)])
        assert rd.cochar_table(nu) is rd.cochar_table(list(nu))
        assert make_regular(rd, nu) == rd.cochar_table(nu).regular
        assert len(vars(rd)["_cochar_tables"]) <= cap
    again = rd.cochar_table(g.fg.generators[0])
    assert again is not first and again.norms == first.norms


def test_oracle_builds_each_generators_table_once(monkeypatch):
    # spinor oracle runs lam outer and nu inner: with 2 generators and
    # their regular points, no table is dropped before it is read again
    built = Counter()
    init = CocharTable.__init__
    monkeypatch.setattr(CocharTable, "__init__", lambda self, rd, scaled: (
        built.update([rl.unscaled(*scaled)]), init(self, rd, scaled))[1])
    g = group_by_name("PSO8")
    monkeypatch.setattr(catalog, "group_by_name", lambda name: g)
    res = CliRunner().invoke(cli.main, ["oracle", "--group", "PSO8", "--box",
                                        "2", "--format", "json"])
    doc = json.loads(res.output)
    assert res.exit_code == 0 and doc["agree"] == doc["total"]
    assert int(doc["total"]) > 2
    assert len(g.fg.generators) == 2
    assert {tuple(rl.vec(nu)) for nu in g.fg.generators} <= set(built)
    assert set(built.values()) == {1}


def shifted_q_values(shift):
    """``spinor._q_values``, the verdict's q, with every q moved by shift."""
    q_values = spinor._q_values
    return lambda *a: [q + shift for q in q_values(*a)]


def test_oracle_ok_asks_for_the_exact_second_moment(monkeypatch):
    # the verdict's q off by 2 keeps the parity of L but not the second
    # moment 2q
    g = group_by_name("SO8")
    lam = g.weight_from_coords([0, 1, 0, 0])
    nu = g.fg.generators[0]
    assert oracle_compare(g.rd, lam, nu, include_weyl=False)["ok"]
    monkeypatch.setattr(spinor, "_q_values", shifted_q_values(2))
    rep = oracle_compare(g.rd, lam, nu, include_weyl=False)
    assert rep["parity_agrees"] and not rep["ok"]


@pytest.mark.parametrize("name,rows", [("F4", 34), ("PGL3", 4)])
def test_oracle_checks_the_verdict_q(monkeypatch, name, rows):
    # the oracle reads q off the verdict path: moved by 1, no row agrees
    argv = ["oracle", "--group", name, "--box", "3", "--format", "json"]
    doc = json.loads(CliRunner().invoke(cli.main, argv).output)
    assert doc["agree"] == doc["total"] == str(rows)
    monkeypatch.setattr(spinor, "_q_values", shifted_q_values(1))
    doc = json.loads(CliRunner().invoke(cli.main, argv).output)
    assert doc["total"] == str(rows) and doc["agree"] == "0"
    assert [row["parity_agrees"] for row in doc["rows"]
            if "skipped" not in row] == [False] * rows


def test_adjoint_spinorial_criterion():
    # delta integral: SL2 yes (delta = w1), PGL2 no (delta = alpha/2)
    assert adjoint_spinorial(group_by_name("SL2").rd)
    assert not adjoint_spinorial(group_by_name("PGL2").rd)
    assert adjoint_spinorial(group_by_name("SO8").rd)
    assert not adjoint_spinorial(group_by_name("SO7").rd)
    assert adjoint_spinorial(group_by_name("PSO8").rd)


def test_descent_adjoint_sln():
    # descended adjoint of SL_n through mu_d: spinorial iff n/d even
    for n, d in [(4, 2), (6, 2), (8, 2), (8, 4), (6, 3)]:
        if d % 2:
            continue
        g = group_by_name(f"SL{n}")
        lam = g.weight_from_coords([1] + [0] * (n - 3) + [1])
        nu0 = tuple(Fraction(1) for _ in range(n - 1)) + (Fraction(1 - n),)
        ok = descent_check(g.rd, lam, nu0, d)
        assert ok == ((n // d) % 2 == 0), (n, d)


def test_descent_requires_even_order():
    g = group_by_name("SL3")
    with pytest.raises(SpecificationError):
        descent_check(g.rd, g.weight_from_coords([1, 1]),
                      g.rd.simple_coroots[0], 3)


def test_descent_names_the_least_failing_weight():
    # the adjoint of SL4 pairs oddly with the first simple coroot at some
    # roots: the error names the one with the least labels.  Its 13
    # weights are fewer than 12 points of the orbit of nu per dominant
    # weight; the 147 weights of (3, 0, 3) are more, and the check lists
    # them only to name the failing one
    g = group_by_name("SL4")
    nu = g.rd.simple_coroots[0]
    for coords in ([1, 0, 1], [3, 0, 3]):
        lam = g.weight_from_coords(coords)
        table = freudenthal_multiplicities(g.rd, lam)
        bad = min((g.rd.dynkin_labels(mu), mu) for mu, _ in table.items()
                  if dot(mu, nu) % 2)
        with pytest.raises(SpecificationError) as err:
            descent_check(g.rd, lam, nu, 2)
        assert str(err.value).startswith(
            f"weight {rl.fmt_vec(bad[1])} pairs to "
            f"{rl.fmt_q(dot(bad[1], nu))} with nu")


def test_descent_walks_the_orbit_of_nu_once(monkeypatch):
    # the divisibility test and L(nu) share one walk of the orbit of nu,
    # kept in its table: a second check at the same nu walks none
    walks = counting_orbits(monkeypatch)
    g = group_by_name("SL4")
    nu = rl.scale(2, g.rd.simple_coroots[0])
    for _ in range(2):
        assert descent_check(g.rd, g.weight_from_coords([3, 0, 3]), nu, 2)
    assert walks == [cochar_rows(g.rd)]


def test_dependent_sweep_basis_is_refused():
    # two zero vectors: the -w0 permutation of the basis is ambiguous, and
    # the box had 2 of its 4 points dropped
    g = group_by_name("SL3")
    zero = (Fraction(0),) * g.rd.dim
    for basis in ([zero, zero], [g.rd.fundamental_weights[0]] * 2):
        with pytest.raises(SpecificationError, match="not independent"):
            list(dominant_orthogonal_weights(g.rd, 1, basis=basis))


def test_dominant_orthogonal_weights_pgl2():
    g = group_by_name("PGL2")
    pts = list(dominant_orthogonal_weights(g.rd, 5, basis=g.weight_basis))
    assert [c for c, _ in pts] == [(j,) for j in range(6)]


def test_scan_periodicity_pgl2():
    g = group_by_name("PGL2")
    report = scan_periodicity(g.rd, g.fg, box=16, k=2, basis=g.weight_basis)
    assert report["violations"] == []
    assert report["minimal_k"] == 2
    assert not report["vacuous"]
    report1 = scan_periodicity(g.rd, g.fg, box=16, k=1, basis=g.weight_basis)
    assert report1["violations"] != []


def test_highest_root_is_adjoint_weight():
    g = group_by_name("E7adj")
    theta = highest_root(g.rd)
    assert weyl_dim(g.rd, theta) == 133


def brute_force_sweep(rd, box, basis):
    for c in product(range(box + 1), repeat=len(basis)):
        lam = combo(c, basis, dim=rd.dim)
        if reference_dominant_orthogonal(rd, lam):
            yield c, lam


@pytest.mark.parametrize("name,box", [
    ("PGL2", 7), ("GL2", 4), ("GL3", 3), ("SL6/mu3", 2), ("SO8", 2),
    ("PSO8", 2), ("E6", 2), ("A2xB3xT1", 2)])
def test_sweep_matches_brute_force(name, box):
    # PGL2 counts in simple roots, GL2 and GL3 in the identity basis (-w0
    # maps it to minus itself, so the whole box is scanned, and the
    # central direction is a form that must vanish), the rest in
    # fundamental weights
    if name == "A2xB3xT1":
        rd = build_root_datum([("A", 2), ("B", 3)], central_rank=1)
        basis = rd.fundamental_weights
    else:
        g = group_by_name(name)
        rd, basis = g.rd, g.weight_basis
    got = list(dominant_orthogonal_weights(rd, box, basis=basis))
    assert got == list(brute_force_sweep(rd, box, basis))
    assert got


def test_sweep_streams_its_points():
    rd = build_root_datum([("E", 8)])
    tracemalloc.start()
    try:
        coords, _ = next(dominant_orthogonal_weights(rd, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coords == (0,) * 8
    assert peak < 5 * 2 ** 20


# ----------------------------------------------------------------------
# the sweep's verdicts run on the labels it has, and -w0 on labels

def count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", ["PSO16", "SL12/mu6"])
def test_summary_builds_no_minus_w0_matrix(monkeypatch, name):
    def refuse(self):
        raise AssertionError("minus_w0_matrix built")
    monkeypatch.setattr(RootDatum, "minus_w0_matrix", property(refuse))
    for fmt, want in [
            ("json", '{"agrees":true,"all_spinorial_predicted":true,'
                     f'"all_spinorial_swept":true,"box":"2","group":"{name}"}}'
                     '\n'),
            ("text", f"{name}: every orthogonal rep spinorial?\n"
                     "  classification says: True\n"
                     "  box-2 sweep says: True\n  PASS\n")]:
        res = CliRunner().invoke(cli.main, ["summary", "--group", name,
                                            "--box", "2", "--format", fmt])
        assert (res.exit_code, res.output) == (0, want)


def test_sweep_reads_only_the_basis_labels(monkeypatch):
    # the basis labels are pulled back once, as forms in the coordinates;
    # no point's labels are computed.  The forms of the basis are built
    # once, on the ambient tables, built once too
    g = group_by_name("PSO16")
    calls = count_calls(monkeypatch, RootDatum, "dynkin_labels")
    reads = count_calls(monkeypatch, WeightForms, "labels")
    builds = count_calls(monkeypatch, WeightForms, "__init__")
    assert catalog.sweep_all_spinorial(g, 2) == (True, None)
    assert calls == reads == []
    assert [args[2] for args in builds] == [g.rd.fundamental_weights, None]
    assert len(g.rd.weight_forms(g.weight_basis).coordinate_forms[2]) == len(
        g.rd.simple_roots)


@pytest.mark.parametrize("name", ["PSO16", "PSp16", "SL12/mu6", "E7adj",
                                  "GL3"])
def test_sweep_verdicts_match_the_validated_rep(monkeypatch, name):
    g = group_by_name(name)
    seen = []
    verdict_of = spinor.is_spinorial

    def record(rd, fg, rep):
        seen.append((rep, verdict_of(rd, fg, rep)))
        return seen[-1][1]
    monkeypatch.setattr(spinor, "is_spinorial", record)
    catalog.sweep_all_spinorial(g, 1)
    assert seen
    for rep, verdict in seen:
        (lam,) = rep.irreducible
        checked = orth_rep(g.rd, irreducible=[lam])
        assert rep.labels == checked.labels == (g.rd.dynkin_labels(lam),)
        assert verdict == verdict_of(g.rd, g.fg, checked)


def test_check_reads_each_summand_label_once(monkeypatch):
    g = group_by_name("SO8")
    calls = count_calls(monkeypatch, RootDatum, "dynkin_labels")
    reads = count_calls(monkeypatch, WeightForms, "labels")
    rep = cli.parse_weight_option(g, "1,0,0,0+1,1,0,0+S:2,1,0,0")
    verdict = is_spinorial(g.rd, g.fg, rep)
    assert calls == [] and len(reads) == 3
    assert len(verdict.certificate) == 1
    assert verdict == is_spinorial(g.rd, g.fg, OrthRep(rep.irreducible,
                                                       rep.hyperbolic))


def test_atlas_shifts_paired_coordinates_together():
    # a sigma-paired point shifted in one coordinate is not self-dual, so
    # PGL3 (c, c) compares only along (1, 1)
    g = group_by_name("PGL3")
    report = scan_periodicity(g.rd, g.fg, box=16, k=1, basis=g.weight_basis)
    assert not report["vacuous"] and report["compared"] == 15
    assert report["violations"] == [] and report["minimal_k"] == 0
    for name, box, k, pair in [("SL4/mu2", 6, 1, {0, 2}),
                               ("PSO10", 4, 1, {3, 4})]:
        g = group_by_name(name)
        report = scan_periodicity(g.rd, g.fg, box, k, basis=g.weight_basis)
        verdict = report["verdicts"]
        axes = [{i} for i in range(len(g.weight_basis)) if i not in pair]

        def shift(c, axis):
            return tuple(x + 2 ** k * (i in axis) for i, x in enumerate(c))
        assert report["compared"] == sum(
            shift(c, axis) in verdict for c in verdict for axis, in
            [[a] for a in axes + [pair]])
        paired = [c for c, axis in report["violations"] if axis == min(pair)]
        assert paired and all(verdict[c] != verdict[shift(c, pair)]
                              for c in paired)


@pytest.mark.parametrize("name,box,k,minimal", [
    ("SO5", 16, 3, 3), ("SO5", 8, 2, None), ("SO7", 12, 3, 3),
    ("SO7", 8, 2, None)])
def test_atlas_minimal_k_on_odd_orthogonal_groups(name, box, k, minimal):
    g = group_by_name(name)
    report = scan_periodicity(g.rd, g.fg, box, k, basis=g.weight_basis)
    assert report["minimal_k"] == minimal and not report["vacuous"]
