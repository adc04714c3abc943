"""The CLI on random input: every run ends with a documented exit code
(0 computed, 2 malformed, 3 integrality, 4 guard) and never a traceback."""

import json
import os
import tempfile

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from spinoriality.cli import main

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

small = st.integers(0, 4).map(str)
coordinate = st.one_of(
    small, small, small, small, small, small, st.integers(-3, 400).map(str),
    st.tuples(st.integers(-9, 9), st.integers(-3, 3)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["", " ", "x", "1.5", "-0", " 2 ", "1e2", "nan", "inf",
                     "--1", "+", ",", "S:", "1/0", "0x1"]))


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
        "denominator": draw(st.sampled_from([1, 2, 2, 3, 4, 0, "x", 1.5]))}}


catalog_document = st.builds(
    lambda fam, p: {"catalog": {"family": fam, "params": p}},
    st.sampled_from(["SL_quot", "Sp", "SO", "PSO", "adjoint", "Nope"]),
    st.lists(st.integers(-2, 8), max_size=3))


@st.composite
def cli_case(draw):
    """(group, argv without the group): a catalog name or a group document,
    and a check with weights sized for it, a table, or an oracle, summary
    or atlas with a small box, some of them negative, as are some atlas
    exponents."""
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
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return group, argv


@settings(max_examples=200, deadline=None)
@given(cli_case())
def test_cli_exit_codes_on_random_input(case):
    group, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(group, dict):
            path = os.path.join(tmp, "group.json")
            with open(path, "w") as fh:
                json.dump(group, fh)
            group = path
        argv = argv[:1] + ["--group", group] + argv[1:]
        res = CliRunner().invoke(main, argv)
    assert res.exit_code in (0, 2, 3, 4), (argv, res.exception)
    if argv[0] != "check" and any(a[:1] == "-" and a[1:].isdigit()
                                  for a in argv):
        assert res.exit_code == 2, argv     # a negative box or exponent
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
