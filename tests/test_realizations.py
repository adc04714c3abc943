"""Realization independence: every semisimple catalog group, re-expressed
as a rootDatum file in the basis of simple coroots, has the same
fundamental group and the same spinorial verdicts.

The catalog realizes classical groups in Euclidean coordinates; the file
form carries only the Cartan matrix and the cocharacter lattice in
simple-coroot coordinates, so the two run the root closure, the lattice
checks and the closed form on different vectors.  Weights are matched by
their Dynkin labels, which are the coordinates of the file form.
"""

import json
from math import lcm

import pytest
from click.testing import CliRunner

from spinoriality import ratlin as rl
from spinoriality.catalog import (CATALOG_RANK_LE_4, group_by_name,
                                  parse_group_name, summary_suite_specs)
from spinoriality.cli import load_group, main
from spinoriality.spinor import dominant_orthogonal_weights
from linalg_reference import dot


# semisimple names of rank 13 to 20 run the lattice path of the file form
# at large rank; their verdicts are compared on 64 or so of their box-1
# weights, spread over the sweep's order
LARGE = ["SL14/mu7", "SO27", "SL16/mu4", "Spin33", "PSp32", "PSO32",
         "SL20/mu2", "SL21/mu3"]
NAMES = [name for name in dict.fromkeys(
    CATALOG_RANK_LE_4 + summary_suite_specs()
    + ["E6", "E7", "E8", "E6adj", "E7adj"] + LARGE)
    if parse_group_name(name).family != "GL"]


def cartan_document(rd):
    """The rootDatum form of a semisimple datum: each cocharacter basis
    vector b as its coordinates <omega_i, b> in the simple coroots, over
    one denominator."""
    coords = [[dot(w, b) for w in rd.fundamental_weights]
              for b in rd.cochar_basis]
    den = lcm(*(x.denominator for row in coords for x in row))
    return {"rootDatum": {
        "cartan": [[int(x) for x in row] for row in rd.cartan_matrix],
        "cocharGenerators": [[int(x * den) for x in row] for row in coords],
        "denominator": den}}


def run_json(argv):
    res = CliRunner().invoke(main, argv + ["--format", "json"])
    assert res.exit_code == 0, (argv, res.output)
    return json.loads(res.output)


@pytest.mark.parametrize("name", NAMES)
def test_cartan_basis_realization_agrees(name, tmp_path):
    g = group_by_name(name)
    assert g.rd.lie_type[1] == 0
    path = tmp_path / "group.json"
    path.write_text(json.dumps(cartan_document(g.rd)))
    custom = str(path)

    assert (run_json(["table", "--group", name])["fundamental_group"]
            == run_json(["table", "--group", custom])["fundamental_group"])

    # the box-1 dominant orthogonal weights by labels, on both forms
    points = list(dominant_orthogonal_weights(g.rd, 1))
    assert [c for c, _ in dominant_orthogonal_weights(
        load_group(custom).rd, 1)] == [c for c, _ in points]

    if name in LARGE:
        points = points[::max(1, len(points) // 64)]
    weights = [",".join(map(rl.fmt_q, rl.lattice_coords(g.weight_basis, lam)))
               for _, lam in points]
    labels = [",".join(map(str, c)) for c, _ in points]
    argv = [arg for w in weights for arg in ("--weight", w)]
    mine = run_json(["check", "--group", name] + argv)["results"]
    argv = [arg for w in labels for arg in ("--weight", w)]
    theirs = run_json(["check", "--group", custom] + argv)["results"]
    assert [r["spinorial"] for r in mine] == [r["spinorial"] for r in theirs]
