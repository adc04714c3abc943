"""The CLI on random input: every run ends with a documented exit code
(0 computed, 2 malformed, 3 integrality, 4 guard) and never a traceback."""

import json
import os
import tempfile
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from spinoriality.cli import COORDINATE_DIGITS, _coordinate, main
from spinoriality.errors import GuardExceededError

# catalog names with the number of coordinates their weights take
VALID = {"SL2": 1, "SL3": 2, "PGL3": 2, "SL4/mu2": 3, "GL2": 2, "Sp4": 2,
         "PSp4": 2, "SO5": 2, "SO6": 3, "Spin7": 3, "SO8": 4, "PSO8": 4,
         "G2": 2}
MALFORMED = ["SL1", "SL4/mu3", "Sp5", "PSp3", "PSO7", "SO2", "Spin2", "GL0",
             "GL1", "E9", "F5", "G+6", "Gminus10", "sl3", "SL3/mu", "", " ",
             "SL2 ", "PGL0"]
CARTANS = [[[2]], [[2, -1], [-1, 2]], [[2, -2], [-1, 2]], [[2, -1], [-3, 2]],
           [[2, 0], [0, 2]],
           # not of finite type, not a matrix, not integers
           [[2, -2], [-2, 2]], [[2, -1], [0, 2]], [[2, -1]], [[1]], [],
           [[2, "a"], [-1, 2]], [[2.0]]]

# past the 4300 digits Python converts between int and str: as a coordinate,
# and, written in place of HUGE, as a JSON integer that json.dump refuses
BIG = "1" * 5001
HUGE = object()

small = st.integers(0, 4).map(str)
coordinate = st.one_of(
    small, small, small, small, small, small, st.integers(-3, 400).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-3, 3)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", " ", "x", "1.5", "-0", " 2 ", "1e2", "nan", "inf",
                     "--1", "+", ",", "S:", "1/0", "0x1", "1e5000", BIG,
                     "1e+2", "2E+1", "e+1", "1.e+1"]))


@st.composite
def weight(draw, size):
    """A --weight text: one or two summands, each mostly of ``size``
    coordinates, some marked as hyperbolic."""
    summands = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.sampled_from([size] * 6 + [0, 1, 5]))
        prefix = draw(st.sampled_from(["", "", "", "S:", "s:"]))
        coords = draw(st.lists(coordinate, min_size=n, max_size=n))
        summands.append(prefix + ",".join(coords))
    return "+".join(summands)


@st.composite
def root_datum(draw):
    """A rootDatum document, mostly well formed: generators of the Cartan
    matrix's size."""
    cartan = draw(st.sampled_from(CARTANS))
    size = draw(st.sampled_from([len(cartan), len(cartan), 1, 3]))
    gens = st.lists(st.integers(-3, 3), min_size=size, max_size=size)
    return {"rootDatum": {
        "cartan": cartan,
        "cocharGenerators": draw(st.lists(gens, max_size=2)),
        "denominator": draw(st.sampled_from([1, 2, 2, 3, 4, 0, "x", 1.5,
                                             HUGE]))}}


catalog_document = st.builds(
    lambda fam, p: {"catalog": {"family": fam, "params": p}},
    st.sampled_from(["SL_quot", "Sp", "SO", "PSO", "adjoint", "Nope"]),
    st.lists(st.one_of(st.integers(-2, 8), st.integers(-2, 8), st.just(HUGE)),
             max_size=3))


@st.composite
def cli_case(draw):
    """(group, argv without the group, environment): a catalog name or a
    group document, and a check with weights sized for it, a table, or an
    oracle, summary or atlas with a small box, some of them negative, as
    are some atlas exponents and oracle guards, given by flag or by
    SPINOR_GUARD."""
    group = draw(st.one_of(st.sampled_from(sorted(VALID)),
                           st.sampled_from(sorted(VALID)),
                           st.sampled_from(MALFORMED), root_datum(),
                           catalog_document))
    if isinstance(group, str):
        size = VALID.get(group, 2)
    else:
        size = len(group.get("rootDatum", {}).get("cartan", [0, 0])) or 1
    name = draw(st.sampled_from(["check", "check", "check", "table",
                                 "oracle", "summary", "atlas"]))
    argv = [name]
    if name == "check":
        for w in draw(st.lists(weight(size), min_size=1, max_size=2)
                      | st.just([])):
            argv += ["--weight", w]
    if name in ("oracle", "summary", "atlas"):
        argv += ["--box", str(draw(st.sampled_from([1, 1, 0, -1, -3])))]
    if name == "atlas":
        argv += ["--k", str(draw(st.sampled_from([0, 1, 2, -1])))]
    env = {}
    if name == "oracle":
        guard = draw(st.sampled_from([None, None, -5, -1, 0, 3, 10 ** 6]))
        where = draw(st.sampled_from(["flag", "env"]))
        if guard is not None and where == "flag":
            argv += ["--guard", str(guard)]
        elif guard is not None:
            env["SPINOR_GUARD"] = str(guard)
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return group, argv, env


def write_document(path, doc):
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, default=lambda x: "HUGE").replace(
            '"HUGE"', BIG))


@settings(max_examples=200, deadline=None)
@given(cli_case())
@example(("SL2", ["oracle", "--box", "1", "--guard", "-5"], {}))
@example(("SL2", ["oracle", "--box", "1"], {"SPINOR_GUARD": "-5"}))
def test_cli_exit_codes_on_random_input(case):
    group, argv, env = case
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(group, dict):
            path = os.path.join(tmp, "group.json")
            write_document(path, group)
            group = path
        argv = argv[:1] + ["--group", group] + argv[1:]
        res = CliRunner().invoke(main, argv, env=env)
    assert res.exit_code in (0, 2, 3, 4), (argv, res.exception)
    if argv[0] != "check" and any(a[:1] == "-" and a[1:].isdigit()
                                  for a in argv + list(env.values())):
        # a negative box, exponent or guard, by flag or environment
        assert res.exit_code == 2, (argv, env)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output


# each: (argv after the format, a group document or None, exit code, the
# start of the one-line message)
OVERSIZED = [
    # q of 1e1000 has about 8 000 digits: computed, then too long to print
    (["check", "--group", "SO8", "--weight", "1e1000,0,0,0"], None, 4,
     "guard exceeded: a result of about 10^"),
    # refused as text, before 10^1000000 is built
    (["check", "--group", "SO8", "--weight", "1e1000000,0,0,0"], None, 4,
     "guard exceeded: a weight coordinate has more than 4300 digits"),
    (["check", "--group", "SO8", "--weight", "1e3000000,0,0,0"], None, 4,
     "guard exceeded: a weight coordinate has more than 4300 digits"),
    (["check", "--group", "SO8", "--weight", "1e1_000_000,0,0,0"], None, 4,
     "guard exceeded: a weight coordinate has more than 4300 digits"),
    (["check", "--group", "SO8", "--weight", BIG + ",0,0,0"], None, 4,
     "guard exceeded: a weight coordinate has more than 4300 digits"),
    (["check", "--weight", "1"], {"rootDatum": {
        "cartan": [[2]], "denominator": HUGE}}, 2,
     "spec error: cannot read group file: "),
    (["table"], {"catalog": {"family": "SL_quot", "params": [HUGE, 1]}}, 2,
     "spec error: cannot read group file: "),
    # numbers under the limit whose results are not
    (["table", "--group", "SL1" + "0" * 4000], None, 4,
     "guard exceeded: the group would have about 10^7999 positive roots"),
    (["table", "--group", "SL1" + "0" * 5000], None, 2,
     "spec error: a number in the group name SL1000000000... is too long"),
    (["summary", "--group", "SO8", "--box", "1" + "0" * 4000], None, 4,
     "guard exceeded: the box-1"),
    (["check", "--weight", "1e1000,1e1000"], {"rootDatum": {
        "cartan": [[2, -1], [-1, 2]], "cocharGenerators": [[1, 2]],
        "denominator": 3}}, 4, "guard exceeded: a result of about 10^"),
    # a generator with a 4 000-digit denominator pairs non-integrally with
    # a root: no root datum, refused as the file is read
    (["table"], {"rootDatum": {"cartan": [[2, -1], [-1, 2]],
                               "cocharGenerators": [[1, 2]],
                               "denominator": int("3" + "0" * 4000)}}, 2,
     "spec error: simple root 2 pairs non-integrally"),
]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,doc,code,message", OVERSIZED)
def test_oversized_numbers_end_at_once(argv, doc, code, message, fmt,
                                       tmp_path):
    if doc is not None:
        write_document(tmp_path / "group.json", doc)
        argv = argv[:1] + ["--group", str(tmp_path / "group.json")] + argv[1:]
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, argv + ["--format", fmt])
    assert time.perf_counter() - t0 < 5
    assert res.exit_code == code, res.exception
    assert res.stderr.startswith(message) and res.stderr.count("\n") == 1
    assert res.stdout == ""


# a weight with an empty coordinate is refused whole, never read as a
# shorter one: (argv, stderr)
EMPTY_COORDINATES = [
    (["check", "--group", "SO5", "--weight", w],
     f"spec error: empty coordinate in the weight {w!r}\n")
    for w in ["1,,0", "1,0,", ",1,0", "1, ,0", "0,2+S:1,,0", "S:,1,0"]]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv,stderr", EMPTY_COORDINATES)
def test_an_empty_coordinate_is_refused(argv, stderr, fmt):
    res = CliRunner().invoke(main, argv + ["--format", fmt])
    assert (res.exit_code, res.stdout, res.stderr) == (2, "", stderr)


EDGE_TOKENS = ["1_0", "\u0663", " 7 ", "+3", "-0", "007", "1e3", "1/2",
               "0x1", "inf", "nan", "\u00bd", "1e+5", "\xa07\xa0", "0_7",
               "1__0", "_1", "1_", "1e", "e", "1e1_0", "2.", ".5", "1/-2"]


def reference_coordinate(tok):
    """A coordinate read as Fraction(tok) after the digit guard on its
    text, the reading the integer path must reproduce."""
    head, _, exp = tok.lower().partition("e")
    if sum(map(str.isdigit, head)) + abs(int(exp or 0)) > COORDINATE_DIGITS:
        raise GuardExceededError("digit guard")
    return Fraction(tok)


def outcome(read, tok):
    try:
        return read(tok)
    except Exception as exc:    # the class of the refusal is compared
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(coordinate, st.sampled_from(EDGE_TOKENS)))
def test_a_coordinate_reads_as_its_fraction(tok):
    # the same value as Fraction(tok), or the same refusal, guard included;
    # an int wherever int() reads the token
    got, want = outcome(_coordinate, tok), outcome(reference_coordinate, tok)
    assert got == want and type(got) is type(want) or (
        type(got) is int and type(want) is Fraction and got == want)
    if type(outcome(int, tok)) is int and want is not GuardExceededError:
        assert type(got) is int


@pytest.mark.parametrize("plus,bare", [
    ("1e+5,0,0,0", "1e5,0,0,0"), ("1E+2,0,0,0", "100,0,0,0"),
    ("2.e+1,0,0,0+S:1e+0,0,0,0", "20,0,0,0+S:1,0,0,0"),
    ("1e2+1e+0,0,0,0", None)])
def test_a_plus_after_an_exponent_mark_is_no_summand_plus(plus, bare):
    # "+" joins summands except where it signs an exponent: 1e+5 is
    # 1e5, and 1e2+1 is two summands, the first of one coordinate
    def run(text):
        res = CliRunner().invoke(main, ["check", "--group", "SO8", "--weight",
                                        text, "--format", "json"])
        return res.exit_code, res.stdout, res.stderr
    code, out, err = run(plus)
    if bare is None:
        assert (code, out) == (2, "")
        assert err == "spec error: SO8 expects 4 weight coordinates, got 1\n"
        return
    assert code == 0 and err == ""
    want = run(bare)
    assert json.loads(out)["results"][0]["certificate"] == json.loads(
        want[1])["results"][0]["certificate"]


@pytest.mark.parametrize("where", ["missing/grid.csv", "."])
def test_unwritable_grid_file_exits_2(where, tmp_path):
    # a path under a directory that does not exist, and a directory
    path = tmp_path / where
    res = CliRunner().invoke(main, ["atlas", "--group", "PGL2", "--box", "8",
                                    "--grid-file", str(path)])
    assert res.exit_code == 2, res.exception
    assert res.stderr.startswith("spec error: cannot write grid file: ")
    assert res.stderr.count("\n") == 1
    assert res.stdout == ""


@pytest.mark.parametrize("content", [b"[" * 100000 + b"]" * 100000,
                                     b'{"catalog": "\xff\xfe"}'])
def test_unreadable_group_file_exits_2(content, tmp_path):
    # nesting past the recursion limit, bytes that are not UTF-8
    path = tmp_path / "group.json"
    path.write_bytes(content)
    res = CliRunner().invoke(main, ["table", "--group", str(path)])
    assert res.exit_code == 2, res.exception
    assert res.stderr.startswith("spec error: cannot read group file: ")
    assert res.stderr.count("\n") == 1
