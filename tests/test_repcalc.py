from fractions import Fraction

import pytest

from spinoriality import ratlin as rl
from spinoriality.catalog import group_by_name
from spinoriality.errors import (GuardExceededError, IntegralityError,
                                 SpecificationError)
from spinoriality.repcalc import (FREUDENTHAL_GUARD_DEFAULT,
                                  ROOT_STRING_STEPS, L_phi, classify,
                                  casimir_value, dynkin_index,
                                  dynkin_index_orth,
                                  freudenthal_multiplicities, weyl_dim)
from spinoriality.rootdata import RootDatum, build_root_datum
from spinoriality.spinor import dominant_orthogonal_weights


def fw(rd, coeffs):
    return rl.combo(coeffs, rd.fundamental_weights)


def test_weyl_dim_type_a():
    rd = build_root_datum([("A", 2)])
    assert weyl_dim(rd, fw(rd, [1, 0])) == 3
    assert weyl_dim(rd, fw(rd, [1, 1])) == 8
    assert weyl_dim(rd, fw(rd, [3, 0])) == 10
    assert weyl_dim(rd, rl.zero(rd.dim)) == 1


def test_weyl_dim_exceptional():
    g2 = build_root_datum([("G", 2)])
    dims = sorted(weyl_dim(g2, w) for w in g2.fundamental_weights)
    assert dims == [7, 14]
    f4 = build_root_datum([("F", 4)])
    assert sorted(weyl_dim(f4, w) for w in f4.fundamental_weights) == \
        [26, 52, 273, 1274]
    e8 = build_root_datum([("E", 8)])
    assert min(weyl_dim(e8, w) for w in e8.fundamental_weights) == 248


def test_weyl_dim_spin_reps():
    # B_n spin rep: 2^n; D_n half-spin: 2^(n-1)
    b4 = build_root_datum([("B", 4)])
    assert weyl_dim(b4, fw(b4, [0, 0, 0, 1])) == 16
    d5 = build_root_datum([("D", 5)])
    assert weyl_dim(d5, fw(d5, [0, 0, 0, 0, 1])) == 16


def test_weyl_dim_rejects_non_dominant():
    rd = build_root_datum([("A", 1)])
    with pytest.raises(SpecificationError):
        weyl_dim(rd, rl.scale(-1, rd.fundamental_weights[0]))


def test_casimir_values_type_d():
    # D_n, weight w_k = e1+...+ek: chi = k(2n-k)/(4n-4)
    for n in (4, 6):
        rd = build_root_datum([("D", n)])
        for k in range(1, n - 1):
            lam = tuple(Fraction(1 if i < k else 0) for i in range(n))
            assert casimir_value(rd, lam) == Fraction(k * (2 * n - k),
                                                      4 * n - 4)


def test_classify_fs_parity():
    # A1: weight j alpha/2... use fundamental weight multiples
    rd = build_root_datum([("A", 1)])
    w = rd.fundamental_weights[0]
    # 2-dim rep: self-dual, symplectic (odd parity)
    c1 = classify(rd, w)
    assert c1.self_dual and not c1.orthogonal and c1.fs_parity == 1
    # adjoint: orthogonal
    c2 = classify(rd, rl.scale(2, w))
    assert c2.orthogonal
    # A2 standard: not self-dual
    rd2 = build_root_datum([("A", 2)])
    c3 = classify(rd2, rd2.fundamental_weights[0])
    assert not c3.self_dual and not c3.orthogonal


def test_freudenthal_sl3_adjoint():
    rd = build_root_datum([("A", 2)])
    table = freudenthal_multiplicities(rd, fw(rd, [1, 1]))
    assert table.total_dim == 8
    assert table.multiplicity(rl.zero(rd.dim)) == 2
    for root, _ in rd.positive_roots:
        assert table.multiplicity(root) == 1
        assert table.multiplicity(rl.scale(-1, root)) == 1


def test_freudenthal_so5_14dim():
    rd = build_root_datum([("B", 2)])
    table = freudenthal_multiplicities(rd, fw(rd, [2, 0]))
    assert table.total_dim == 14
    assert table.multiplicity((0, 0)) == 2
    assert table.multiplicity((1, 1)) == 1
    assert table.multiplicity((2, 0)) == 1
    assert (3, 0) not in table


def test_freudenthal_g2_adjoint():
    rd = build_root_datum([("G", 2)])
    lam = fw(rd, [0, 1]) if weyl_dim(rd, fw(rd, [0, 1])) == 14 \
        else fw(rd, [1, 0])
    table = freudenthal_multiplicities(rd, lam)
    assert table.total_dim == 14
    assert table.multiplicity(rl.zero(rd.dim)) == 2


def test_freudenthal_zero_weight_multiplicities():
    # the zero weight of an adjoint representation has multiplicity the rank
    so8 = group_by_name("SO8")
    table = freudenthal_multiplicities(so8.rd,
                                       so8.weight_from_coords([0, 1, 0, 0]))
    assert table.total_dim == 28
    assert table.multiplicity(rl.zero(so8.rd.dim)) == 4
    # the 26-dimensional F4 representation: 24 short roots and 0 twice
    f4 = build_root_datum([("F", 4)])
    lam = next(w for w in f4.fundamental_weights if weyl_dim(f4, w) == 26)
    table = freudenthal_multiplicities(f4, lam)
    assert table.multiplicity(rl.zero(f4.dim)) == 2
    assert len(table) == 25


def test_freudenthal_guard():
    rd = build_root_datum([("A", 3)])
    with pytest.raises(GuardExceededError):
        freudenthal_multiplicities(rd, fw(rd, [3, 3, 3]), guard=100)


# oracle rows of SO8, Spin8 and F4, as coordinates in the group's basis
ORACLE_ROWS = [("SO8", [0, 2, 0, 2]), ("Spin8", [0, 1, 0, 1]),
               ("F4", [0, 0, 2, 0])]


def test_freudenthal_reads_orbit_sizes_from_the_parabolic_tables(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("orbit_size called")

    monkeypatch.setattr(RootDatum, "orbit_size", refuse)
    for name, coords in ORACLE_ROWS:
        g = group_by_name(name)
        lam = g.weight_from_coords(coords)
        table = freudenthal_multiplicities(g.rd, lam)
        assert table.total_dim == weyl_dim(g.rd, lam)


def test_freudenthal_walks_one_string_per_root_class(monkeypatch):
    # each dominant weight but lam walks one string per class of its
    # parabolic table, fewer than one per positive root
    walks = []

    class Counted(list):
        def __iter__(self):
            for item in super().__iter__():
                walks.append(item)
                yield item

    real = RootDatum.parabolic_table

    def counted(self, mu):
        size, classes, candidates = real(self, mu)
        return size, Counted(classes), candidates

    monkeypatch.setattr(RootDatum, "parabolic_table", counted)
    g = group_by_name("F4")
    lam = g.weight_from_coords([0, 0, 2, 0])
    table = freudenthal_multiplicities(g.rd, lam)
    dominant = sum(1 for _ in table.dominant_items())
    assert dominant == 14
    assert 0 < len(walks) < (dominant - 1) * g.rd.num_positive_roots
    # exactly one per class, on a fresh datum and again once its strings
    # are stored
    classes = sum(len(real(g.rd, g.rd.dynkin_labels(mu))[1])
                  for mu, _ in list(table.dominant_items())[1:])
    assert len(walks) == classes == 95
    freudenthal_multiplicities(g.rd, lam)
    assert len(walks) == 2 * classes


def stored_steps(strings):
    """The entries the memo holds: a graph node counts 1 + its successors,
    a string step 1."""
    return (sum(1 + len(succ) for *_, succ in strings.graph.values())
            + sum(len(flat) // 2 for flats in strings.lists.values()
                  for flat in flats))


def test_root_strings_stay_within_their_bound():
    # SL4's rows up to box 16 make more than ROOT_STRING_STEPS entries,
    # graph nodes and string steps: the memo is dropped whole inside a row
    # (first at row 101 of 186), never holds more than the bound, and the
    # two rows after the first drop give the tables of a fresh datum
    g = group_by_name("SL4")
    rd, drops, after = g.rd, 0, []
    for _, lam in dominant_orthogonal_weights(rd, 16, basis=g.weight_basis):
        if weyl_dim(rd, lam) > FREUDENTHAL_GUARD_DEFAULT:
            continue
        strings = rd.__dict__.get("_root_strings")
        steps = strings.steps if strings else 0
        table = freudenthal_multiplicities(rd, lam)
        strings = rd._root_strings
        assert stored_steps(strings) <= strings.steps <= ROOT_STRING_STEPS
        if drops:
            after.append((lam, list(table.dominant_items())))
            if len(after) == 2:
                break
        drops += strings.steps < steps
    assert drops >= 1 and len(after) == 2
    fresh = RootDatum(rd.simple_roots, rd.simple_coroots, rd.cochar_basis,
                      rd.central_cochars)
    for lam, items in after:
        assert list(freudenthal_multiplicities(
            fresh, lam).dominant_items()) == items


def test_parabolic_memo_holds_one_table_per_zero_pattern():
    rd = build_root_datum([("F", 4)])
    table = freudenthal_multiplicities(rd, fw(rd, [0, 1, 0, 1]))
    patterns = {tuple(i for i, x in enumerate(rd.dynkin_labels(mu)) if not x)
                for mu, _ in table.dominant_items()}
    assert set(rd._parabolic_tables) == patterns
    # the tables depend only on the roots: a datum built with the same
    # roots and its own lattice builds the same ones
    other = RootDatum(rd.simple_roots, rd.simple_coroots,
                      rd.fundamental_coweights)
    freudenthal_multiplicities(other, fw(other, [0, 1, 0, 1]))
    assert other._parabolic_tables == rd._parabolic_tables


def test_L_values():
    # SL2 adjoint at coroot alpha_v = (1,-1): weights alpha, 0, -alpha
    rd = build_root_datum([("A", 1)])
    table = freudenthal_multiplicities(rd, fw(rd, [2]))
    nu = rd.simple_coroots[0]
    assert L_phi(rd, table, nu) == 2


def test_L_non_integer_rejected():
    rd = build_root_datum([("A", 1)])
    table = freudenthal_multiplicities(rd, fw(rd, [1]))
    bad_nu = (Fraction(1, 3), Fraction(-1, 3))
    with pytest.raises(IntegralityError):
        L_phi(rd, table, bad_nu)


def test_two_delta_pairing_parity_matches_dim_count():
    # <lam, 2 delta_v> parity is the Frobenius-Schur discriminator
    rd = build_root_datum([("C", 3)])
    w, forms = rd.fundamental_weights, rd.weight_forms()
    assert forms.parity(rd.dynkin_labels(w[0])) % 2 == 1   # symplectic
    assert forms.parity(rd.dynkin_labels(w[1])) % 2 == 0   # wedge-square
    assert forms.read(*rl.scaled(w[0])) == ((1, 0, 0), None)
    assert not classify(rd, w[0], (1, 0, 0)).orthogonal


def test_dynkin_index():
    # SL2: dyn of (j+1)-dim rep is binom(j+2, 3) * ... classic: j(j+1)(j+2)/6
    rd = build_root_datum([("A", 1)])
    w = rd.fundamental_weights[0]
    for j in range(1, 8):
        lam = rl.scale(j, w)
        assert dynkin_index(rd, lam) == Fraction(j * (j + 1) * (j + 2), 6)
    # standard reps have index 1 in types A and C
    for fam, rank in [("A", 3), ("C", 3)]:
        rdx = build_root_datum([(fam, rank)])
        assert dynkin_index(rdx, rdx.fundamental_weights[0]) == 1
    # SO_m standard rep has index 2
    rdb = build_root_datum([("B", 3)])
    assert dynkin_index(rdb, rdb.fundamental_weights[0]) == 2
    assert dynkin_index_orth(rdb, rdb.fundamental_weights[0]) == 1


def test_dynkin_index_orth_rejects_small_dims():
    rd = build_root_datum([("A", 1)])
    with pytest.raises(SpecificationError):
        dynkin_index_orth(rd, rl.scale(1, rd.fundamental_weights[0]))


def test_table_dominant_items_cover_orbit_sum():
    rd = build_root_datum([("B", 2)])
    g = group_by_name("SO5")
    table = freudenthal_multiplicities(g.rd, g.weight_from_coords([1, 1]))
    total = 0
    for mu, m in table.items():
        total += m
    assert total == table.total_dim == 16
