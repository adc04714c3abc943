import json
import time

import pytest
from click.testing import CliRunner

from spinoriality import cli, rootdata, spinor
from spinoriality.cli import main


class ReadableRunner(CliRunner):
    """Every run's error messages print vectors as (a,b/c), never as
    Fraction reprs."""

    def invoke(self, *args, **kwargs):
        res = super().invoke(*args, **kwargs)
        assert "Fraction(" not in res.stderr
        return res


@pytest.fixture
def runner():
    return ReadableRunner()


def test_check_pgl2(runner):
    res = runner.invoke(main, ["check", "--group", "PGL2", "--weight", "3"])
    assert res.exit_code == 0
    assert "spinorial" in res.output and "aspinorial" not in res.output
    assert "14" in res.output


def test_check_so4_aspinorial(runner):
    res = runner.invoke(main, ["check", "--group", "SO4", "--weight", "1,1"])
    assert res.exit_code == 0
    assert "aspinorial" in res.output


def test_check_trivial_weight(runner):
    res = runner.invoke(main, ["check", "--group", "Spin8",
                               "--weight", "0,0,0,0"])
    assert res.exit_code == 0
    assert "spinorial" in res.output


def test_check_multiple_weights_ordered(runner):
    res = runner.invoke(main, ["check", "--group", "PGL2",
                               "--weight", "1", "--weight", "4"])
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if "weight" in l]
    assert "weight 1" in lines[0] and "weight 4" in lines[1]


def test_check_hyperbolic_and_sum(runner):
    res = runner.invoke(main, ["check", "--group", "GL2",
                               "--weight", "S:2,1"])
    assert res.exit_code == 0
    res2 = runner.invoke(main, ["check", "--group", "PGL2",
                                "--weight", "2+4"])
    assert res2.exit_code == 0


def test_json_round_trip(runner):
    res = runner.invoke(main, ["check", "--group", "PGL2", "--weight", "25",
                               "--format", "json"])
    assert res.exit_code == 0
    text = res.output.strip()
    parsed = json.loads(text)
    again = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
    assert again == text
    # big integers as exact decimal strings
    q = parsed["results"][0]["certificate"][0]["q"]
    assert isinstance(q, str) and q == str(25 * 26 * 51 // 6)


def test_spec_error_exit_code(runner):
    res = runner.invoke(main, ["check", "--group", "NoSuchGroup",
                               "--weight", "1"])
    assert res.exit_code == 2
    res2 = runner.invoke(main, ["check", "--group", "PGL2",
                                "--weight", "1,2,3"])
    assert res2.exit_code == 2
    res3 = runner.invoke(main, ["check", "--group", "PGL2"])
    assert res3.exit_code == 2  # no weight given


def test_guard_exit_code(runner):
    # rows over the guard are skipped; a run that skipped every row checked
    # nothing and exits 4
    res = runner.invoke(main, ["oracle", "--group", "Sp4", "--box", "2",
                               "--guard", "3"])
    assert res.exit_code == 0
    assert "  skip lambda(0, 1) nu (1,-1)  dim V = 5 exceeds the " \
        "multiplicity guard 3" in res.output
    assert "Sp4: 1/1 agree, 5 skipped" in res.output
    res2 = runner.invoke(main, ["oracle", "--group", "Sp4", "--box", "2",
                                "--guard", "0"])
    assert res2.exit_code == 4
    assert "Sp4: 0/0 agree, 6 skipped" in res2.output


def test_guard_env_override(runner, monkeypatch):
    monkeypatch.setenv("SPINOR_GUARD", "3")
    res = runner.invoke(main, ["oracle", "--group", "Sp4", "--box", "2"])
    assert res.exit_code == 0 and "5 skipped" in res.output
    monkeypatch.setenv("SPINOR_GUARD", "0")
    res = runner.invoke(main, ["oracle", "--group", "Sp4", "--box", "2"])
    assert res.exit_code == 4
    monkeypatch.setenv("SPINOR_GUARD", "1000000")
    res2 = runner.invoke(main, ["oracle", "--group", "Sp4", "--box", "1"])
    assert res2.exit_code == 0


def test_negative_guard_is_a_spec_error(runner, monkeypatch):
    # below 0 the guard is malformed, from the flag or the environment;
    # 0 skips every row (test_guard_exit_code)
    res = runner.invoke(main, ["oracle", "--group", "GL3", "--box", "1",
                               "--guard", "-5"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "spec error: --guard must be >= 0, got -5\n"
    monkeypatch.setenv("SPINOR_GUARD", "-5")
    res = runner.invoke(main, ["oracle", "--group", "GL3", "--box", "1"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "spec error: SPINOR_GUARD must be >= 0, got -5\n"
    # the flag is read first
    res = runner.invoke(main, ["oracle", "--group", "GL3", "--box", "1",
                               "--guard", "1000"])
    assert res.exit_code == 0


def test_oracle_agreement(runner):
    res = runner.invoke(main, ["oracle", "--group", "PGL2", "--box", "6"])
    assert res.exit_code == 0
    assert "7/7 agree" in res.output
    assert "skip" not in res.output
    res = runner.invoke(main, ["oracle", "--group", "PGL2", "--box", "6",
                               "--format", "json"])
    assert "skipped" not in json.loads(res.output)


def test_oracle_lists_rows_over_the_guard(runner):
    res = runner.invoke(main, ["oracle", "--group", "F4", "--box", "1",
                               "--format", "json"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert (out["agree"], out["total"], out["skipped"]) == ("13", "13", "3")
    skipped = [row for row in out["rows"] if "skipped" in row]
    assert skipped[0] == {
        "coords": ["0", "1", "1", "1"], "generator": ["1", "0", "0", "0"],
        "skipped": "dim V = 1118208 exceeds the multiplicity guard 1000000"}
    assert [row["coords"] for row in skipped[1:]] == [
        ["1", "1", "1", "0"], ["1", "1", "1", "1"]]
    assert len(out["rows"]) == 16
    text = runner.invoke(main, ["oracle", "--group", "F4", "--box", "1"])
    assert text.exit_code == 0
    assert "  skip lambda(0, 1, 1, 1) nu (1,0,0,0)  dim V = 1118208" \
        in text.output
    assert text.output.endswith("F4: 13/13 agree, 3 skipped\n")


def test_table_type_d(runner):
    res = runner.invoke(main, ["table", "--group", "PSO12"])
    assert res.exit_code == 0
    assert "p = 5" in res.output
    assert "dim = 462" in res.output


def test_table_json(runner):
    res = runner.invoke(main, ["table", "--group", "SO8", "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["weights"]["w1"]["dim"] == "8"


def test_atlas(runner):
    res = runner.invoke(main, ["atlas", "--group", "PGL2",
                               "--box", "16", "--k", "2"])
    assert res.exit_code == 0
    assert "violations at k=2: 0" in res.output


def test_atlas_vacuous_flag(runner):
    res = runner.invoke(main, ["atlas", "--group", "PGL2",
                               "--box", "4", "--k", "4"])
    assert res.exit_code == 0
    assert "vacuous" in res.output


def test_atlas_states_why_nothing_was_compared(runner):
    res = runner.invoke(main, ["atlas", "--group", "PGL2",
                               "--box", "4", "--k", "4"])
    assert "note: 2^k exceeds the box; the scan is vacuous" in res.output
    # GL3's one orthogonal point at box 4 has no shifted partner
    res = runner.invoke(main, ["atlas", "--group", "GL3",
                               "--box", "4", "--k", "1"])
    assert res.exit_code == 0 and (
        "note: no shifted point is a dominant orthogonal point of the box; "
        "the scan is vacuous") in res.output
    # PGL3 shifts its sigma-paired coordinates together
    res = runner.invoke(main, ["atlas", "--group", "PGL3",
                               "--box", "16", "--k", "1"])
    assert res.exit_code == 0 and "vacuous" not in res.output
    assert "smallest violation-free exponent in box: 0" in res.output


def test_atlas_grid_file(runner, tmp_path):
    out = tmp_path / "grid.csv"
    res = runner.invoke(main, ["atlas", "--group", "PGL2", "--box", "8",
                               "--k", "2", "--grid-file", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c1,spinorial"
    assert len(lines) == 10          # header + 9 points
    bits = [int(l.split(",")[1]) for l in lines[1:]]
    # j = 0..8: spinorial iff j mod 4 in {0, 3}
    assert bits == [1 if j % 4 in (0, 3) else 0 for j in range(9)]


def test_atlas_lists_violations_in_json(runner):
    # a violation is (coordinates, axis); JSON used to fail on the axis
    res = runner.invoke(main, ["atlas", "--group", "SO8", "--box", "3",
                               "--k", "1", "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert len(doc["violations"]) == 42
    assert doc["violations"][0] == [["0", "0", "1", "1"], "0"]


def test_large_rank_check_stays_fast(runner):
    # SL120/mu2 has 7 140 positive roots: the datum's invariant form costs
    # n^2 entries of the Cartan adjugate, not a sum over them
    weight = ",".join(["1"] + ["0"] * 117 + ["1"])
    t0 = time.perf_counter()
    res = runner.invoke(main, ["check", "--group", "SL120/mu2",
                               "--weight", weight])
    assert time.perf_counter() - t0 < 6
    assert res.exit_code == 0
    assert res.output.splitlines()[0].endswith(": spinorial")
    assert res.output.endswith(") = 428400\n")


def test_atlas_exponent_past_the_box_ends_at_once(runner):
    t0 = time.perf_counter()
    res = runner.invoke(main, ["atlas", "--group", "PGL2", "--box", "2",
                               "--k", "1000000000"])
    assert time.perf_counter() - t0 < 2
    assert res.exit_code == 0 and "vacuous" in res.output


@pytest.mark.parametrize("argv,message", [
    (["summary", "--group", "PGL2", "--box", "-1"],
     "the sweep box must be >= 0, got -1"),
    (["oracle", "--group", "SO8", "--box", "-2"],
     "the sweep box must be >= 0, got -2"),
    (["atlas", "--group", "PGL2", "--box", "-1"],
     "the sweep box must be >= 0, got -1"),
    (["atlas", "--group", "PGL2", "--box", "4", "--k", "-1"],
     "the exponent k must be >= 0, got -1"),
])
def test_bad_sweep_options_exit_2(runner, argv, message):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert res.stderr == f"spec error: {message}\n"
    assert "PASS" not in res.output


def test_sweep_point_guard(runner):
    # 101^8 points to visit: refused before the first, with the count
    t0 = time.perf_counter()
    res = runner.invoke(main, ["summary", "--group", "E8", "--box", "100"])
    assert time.perf_counter() - t0 < 1
    assert res.exit_code == 4
    assert res.stderr == (
        f"guard exceeded: the box-100 sweep would visit {101 ** 8} points, "
        f"over the sweep guard {spinor.SWEEP_GUARD}\n")
    # E8 at box 4 visits 390 625 points, far below the bound
    assert 5 ** 8 * 25 < spinor.SWEEP_GUARD < 101 ** 8


def test_summary(runner):
    res = runner.invoke(main, ["summary", "--group", "PSp6"])
    assert res.exit_code == 0
    assert "PASS" in res.output
    res2 = runner.invoke(main, ["summary", "--group", "PSp8",
                                "--format", "json"])
    assert res2.exit_code == 0
    doc = json.loads(res2.output)
    assert doc["all_spinorial_swept"] is True and doc["agrees"] is True


def test_root_count_guard(runner, tmp_path, monkeypatch):
    # names whose root system would take minutes to build end at once with
    # the guard's exit code, naming the count and the bound
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"catalog": {"family": "simplyConnected",
                                         "params": [["A", 300], ["A", 300]]}}))
    for group, count in [("SL100000", 4999950000), ("GL100000", 4999950000),
                         (str(f), 90300)]:
        t0 = time.perf_counter()
        res = runner.invoke(main, ["table", "--group", group])
        assert time.perf_counter() - t0 < 0.5, group
        assert res.exit_code == 4, group
        assert res.stderr == (
            f"guard exceeded: the group would have {count} positive roots, "
            f"over the root-count guard {rootdata.ROOT_GUARD}\n")
    # a rootDatum file is bounded too, from its integer Cartan matrix before
    # any vector is built: A_200 has 20 100 positive roots
    n = 200
    f.write_text(json.dumps({"rootDatum": {"cartan": [
        [2 if i == j else -(abs(i - j) == 1) for j in range(n)]
        for i in range(n)]}}))

    def no_lattice(*args):
        raise AssertionError("the lattice is built before the guard")

    def no_vectors(*args):
        raise AssertionError("vectors are built before the guard")

    with monkeypatch.context() as m:
        m.setattr(rootdata.RootDatum, "_set_lattice", no_lattice)
        m.setattr(cli, "_from_cartan", no_vectors)
        res = runner.invoke(main, ["table", "--group", str(f)])
    assert res.exit_code == 4
    assert res.stderr == (
        f"guard exceeded: the group would have 20100 positive roots, "
        f"over the root-count guard {rootdata.ROOT_GUARD}\n")
    # the bound admits SL120 (7140 positive roots); a malformed factor is
    # still a specification error
    assert rootdata.ROOT_GUARD >= 7140
    f.write_text(json.dumps({"catalog": {"family": "simplyConnected",
                                         "params": [["E", 9], ["A", 3]]}}))
    res = runner.invoke(main, ["table", "--group", str(f)])
    assert res.exit_code == 2
    assert "E requires rank 6, 7 or 8" in res.stderr


def test_group_file_catalog(runner, tmp_path):
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"catalog": {"family": "SL_quot",
                                         "params": [4, 2]}}))
    res = runner.invoke(main, ["table", "--group", str(f)])
    assert res.exit_code == 0
    assert "[2]" in res.output


def test_group_file_root_datum(runner, tmp_path):
    # A1 with the coweight lattice: the adjoint group PGL2
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"rootDatum": {
        "cartan": [[2]],
        "cocharGenerators": [[1]],
        "denominator": 2}}))
    res = runner.invoke(main, ["check", "--group", str(f), "--weight", "2"])
    assert res.exit_code == 0
    assert "aspinorial" in res.output
    # the 2-dim weight is not a character of the quotient
    res2 = runner.invoke(main, ["check", "--group", str(f), "--weight", "1"])
    assert res2.exit_code == 2


def test_group_file_lattice_must_pair_integrally_with_the_roots(
        runner, tmp_path):
    # B2 x G2 with alpha_1^v / 2 in X_*: <alpha_2, alpha_1^v / 2> = -1/2,
    # so this is no root datum, and it is refused as the file is read
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"rootDatum": {
        "cartan": [[2, -2, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1],
                   [0, 0, -3, 2]],
        "cocharGenerators": [[1, 0, 0, 0]], "denominator": 2}}))
    for argv in (["table"], ["check", "--weight", "2,2,0,0"]):
        res = runner.invoke(main, [argv[0], "--group", str(f), *argv[1:]])
        assert res.exit_code == 2
        assert res.output == ("spec error: simple root 2 pairs "
                              "non-integrally with the cocharacter lattice: "
                              "not a root datum\n")
    # on B2 alone alpha_1^v / 2 pairs to -1/2 with the short root too;
    # alpha_2^v / 2 pairs integrally with both, and the datum loads
    for gen, code in (([1, 0], 2), ([0, 1], 0)):
        f.write_text(json.dumps({"rootDatum": {
            "cartan": [[2, -2], [-1, 2]], "cocharGenerators": [gen],
            "denominator": 2}}))
        res = runner.invoke(main, ["table", "--group", str(f)])
        assert res.exit_code == code


def test_group_file_malformed(runner, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    res = runner.invoke(main, ["check", "--group", str(f), "--weight", "1"])
    assert res.exit_code == 2
    f2 = tmp_path / "bad2.json"
    f2.write_text(json.dumps({"neither": {}}))
    res2 = runner.invoke(main, ["check", "--group", str(f2), "--weight", "1"])
    assert res2.exit_code == 2
    # an A2 Cartan needs generators of length 2
    for gen in ([1, 2, 3], [1]):
        f3 = tmp_path / "bad3.json"
        f3.write_text(json.dumps({"rootDatum": {
            "cartan": [[2, -1], [-1, 2]], "cocharGenerators": [gen],
            "denominator": 3}}))
        res3 = runner.invoke(main, ["check", "--group", str(f3),
                                    "--weight", "1,1"])
        assert res3.exit_code == 2
        assert "cocharGenerators[0]" in res3.output
    # affine, hyperbolic (its Weyl group is infinite), asymmetric zero
    # pattern, non-numeric
    for cartan in ([[2, -2], [-2, 2]], [[2, -1], [-5, 2]], [[2, -1], [0, 2]],
                   [[2, "a"], [-1, 2]]):
        f4 = tmp_path / "bad4.json"
        f4.write_text(json.dumps({"rootDatum": {"cartan": cartan}}))
        res4 = runner.invoke(main, ["check", "--group", str(f4),
                                    "--weight", "2,2"])
        assert res4.exit_code == 2, cartan
        assert "Cartan" in res4.output or "cartan" in res4.output
    for den in ("x", 1.5, 0, True):
        f5 = tmp_path / "bad5.json"
        f5.write_text(json.dumps({"rootDatum": {
            "cartan": [[2]], "cocharGenerators": [[1]], "denominator": den}}))
        res5 = runner.invoke(main, ["table", "--group", str(f5)])
        assert res5.exit_code == 2, den
        assert "denominator" in res5.output
    for params in ([8], [8, "x"], 8):
        f6 = tmp_path / "bad6.json"
        f6.write_text(json.dumps({"catalog": {"family": "SL_quot",
                                              "params": params}}))
        res6 = runner.invoke(main, ["table", "--group", str(f6)])
        assert res6.exit_code == 2, params
        assert "SL_quot" in res6.output


def test_root_count_cross_check(runner, monkeypatch):
    # a closure that disagrees with the classification's root count is a
    # specification error naming the factor, not a wrong answer (PGL3: a
    # check reads the closure for its generator's q)
    monkeypatch.setitem(rootdata._ROOT_COUNTS, "A", lambda r: r * (r + 1) + 2)
    res = runner.invoke(main, ["check", "--group", "PGL3", "--weight", "1,1"])
    assert res.exit_code == 2
    assert ("the reflection closure found 3 positive roots for the factor "
            "A2 on simple roots (0, 1), expected 4") in res.stderr


# weights that are no characters, not dominant or not orthogonal: their
# messages print the vector.  Coordinates are parsed and counted for every
# summand in text order first; then the orthogonal summands are checked, in
# order, and then the hyperbolic blocks
MALFORMED = [
    (["check", "--group", "SL3", "--weight", "1,0"],
     "summand (2/3,-1/3,-1/3) is not orthogonal (self-dual: False, "
     "parity: 0)"),
    (["check", "--group", "SO8", "--weight", "-1,0,0,0"],
     "weight (-1,0,0,0) is not dominant"),
    (["check", "--group", "SO8", "--weight", "1/2,0,0,0"],
     "(1/2,0,0,0) is not a character of this group"),
    (["check", "--group", "PGL2", "--weight", "1/2"],
     "(1/2,-1/2) is not a character of this group"),
    (["check", "--group", "GL2", "--weight", "S:1,2+1/3,0"],
     "(1/3,0) is not a character of this group"),
    (["check", "--group", "Sp4", "--weight", "1,0"],
     "summand (1,0) is not orthogonal (self-dual: True, parity: 1)"),
    (["check", "--group", "PGL2", "--weight", "1/2+1,2"],
     "PGL2 expects 1 weight coordinates, got 2"),
    (["check", "--group", "SL3", "--weight", "S:1,2,3+1,0"],
     "SL3 expects 2 weight coordinates, got 3"),
    (["check", "--group", "SO8", "--weight", "2,0,0,0+S:-1,0,0,0"],
     "weight (-1,0,0,0) is not dominant"),
    (["check", "--group", "SO8", "--weight", "S:-1,0,0,0+1/2,0,0,0"],
     "(1/2,0,0,0) is not a character of this group"),
]


@pytest.mark.parametrize("argv,message", MALFORMED,
                         ids=[" ".join(argv) for argv, _ in MALFORMED])
def test_error_messages_print_readable_vectors(runner, argv, message):
    res = runner.invoke(main, argv)
    assert res.exit_code == 2
    assert res.stderr == f"spec error: {message}\n"
    assert res.stdout == ""


def test_error_messages_name_the_vector(runner):
    res = runner.invoke(main, ["check", "--group", "SL3", "--weight", "1,0"])
    assert res.stderr == ("spec error: summand (2/3,-1/3,-1/3) is not "
                          "orthogonal (self-dual: False, parity: 0)\n")
    res = runner.invoke(main, ["check", "--group", "SO8",
                               "--weight", "-1,0,0,0"])
    assert res.stderr == "spec error: weight (-1,0,0,0) is not dominant\n"



def test_group_file_builds_one_datum(tmp_path, monkeypatch):
    # the rootDatum reader builds its datum once, with the file's lattice
    built = []
    init = rootdata.RootDatum.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(rootdata.RootDatum, "__init__", counted)
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"rootDatum": {
        "cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
        "cocharGenerators": [[1, 2, 3]], "denominator": 4}}))
    g = cli.load_group(str(f))
    assert built == [g.rd]
    assert g.fg.invariant_factors == (4,)
