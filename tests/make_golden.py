"""Write ``tests/golden.json``, the command-line output contract.

Each entry holds a command, its exit code and the sha256 of its stdout and
stderr, with the full text of an output up to ``TEXT_LIMIT`` characters.
``tests/test_golden.py`` runs every entry in process and compares.

    PYTHONPATH=src python tests/make_golden.py            # add new entries
    PYTHONPATH=src python tests/make_golden.py --accept   # also rewrite changed ones

Without ``--accept`` a changed or dropped entry is refused: the script
prints the changed commands and writes nothing.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from spinoriality.catalog import CATALOG_RANK_LE_4
from spinoriality.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden.json")
TEXT_LIMIT = 400

# rootDatum group files, written to a scratch directory for each run
FILES = {
    "d4_half.json": {"rootDatum": {
        "cartan": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0],
                   [0, -1, 0, 2]],
        "cocharGenerators": [[1, 0, 1, 0]], "denominator": 2}},
    "a1xa1.json": {"rootDatum": {
        "cartan": [[2, 0], [0, 2]],
        "cocharGenerators": [[1, 1]], "denominator": 2}},
    "b3xg2.json": {"rootDatum": {
        "cartan": [[2, -1, 0, 0, 0], [-1, 2, -2, 0, 0], [0, -1, 2, 0, 0],
                   [0, 0, 0, 2, -1], [0, 0, 0, -3, 2]],
        "cocharGenerators": [[0, 0, 1, 0, 0]], "denominator": 2}},
    # only checked, with weights whose results are too long to print
    "a2_third.json": {"rootDatum": {
        "cartan": [[2, -1], [-1, 2]], "cocharGenerators": [[1, 2]],
        "denominator": 3}},
}
GROUP_FILES = ["d4_half.json", "a1xa1.json", "b3xg2.json"]

NAMES = CATALOG_RANK_LE_4 + ["E6", "E6adj", "E7", "E7adj", "E8", "GL5",
                             "SO16", "PSO16"]
# per group, weights in its weight basis: (a, b, a hyperbolic block, an
# aspinorial weight or None), a and b dominant orthogonal; a check decides
# a, 123 a + 45 b (coordinates in the hundreds), a + b, the block and the
# aspinorial weight
CHECKS = {
    "SL2": ("2", "2", "S:1", None),
    "SL3": ("1,1", "2,2", "S:0,1", None),
    "SL4": ("0,1,0", "2,2,2", "S:0,0,1", None),
    "SL5": ("0,1,1,0", "2,2,2,2", "S:0,0,0,1", None),
    "PGL2": ("1", "2", "S:1", "1"),
    "PGL3": ("1,1", "2,2", "S:1,1", None),
    "PGL4": ("0,2,0", "2,2,2", "S:0,1,2", "1,0,1"),
    "PGL5": ("0,1,1,0", "2,2,2,2", "S:0,0,2,1", None),
    "SL4/mu2": ("0,1,0", "2,2,2", "S:0,0,2", "0,1,0"),
    "GL2": ("1,-1", "2,-2", "S:2,1", "1,-1"),
    "GL3": ("1,0,-1", "2,0,-2", "S:2,1,0", None),
    "Sp4": ("0,1", "2,2", "S:0,1", None),
    "Sp6": ("0,0,2", "2,2,2", "S:0,0,1", None),
    "Sp8": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", None),
    "PSp4": ("0,1", "2,2", "S:0,1", "0,1"),
    "PSp6": ("0,0,2", "2,2,2", "S:0,0,2", "0,1,0"),
    "PSp8": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", None),
    "SO3": ("2", "2", "S:2", "2"),
    "SO4": ("0,2", "2,2", "S:0,2", "0,2"),
    "SO5": ("0,2", "2,2", "S:0,2", "0,2"),
    "SO6": ("0,1,1", "2,2,2", "S:0,0,2", "1,0,0"),
    "SO7": ("0,0,2", "2,2,2", "S:0,0,2", "0,1,0"),
    "SO8": ("0,0,0,2", "2,2,2,2", "S:0,0,0,2", "0,0,1,1"),
    "SO9": ("0,0,0,2", "2,2,2,2", "S:0,0,0,2", "0,0,0,2"),
    "Spin5": ("0,2", "2,2", "S:0,1", None),
    "Spin7": ("0,0,1", "2,2,2", "S:0,0,1", None),
    "Spin8": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", None),
    "Spin9": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", None),
    "PSO6": ("0,1,1", "2,2,2", "S:0,1,1", "0,1,1"),
    "PSO8": ("0,0,0,2", "2,2,2,2", "S:0,0,0,2", None),
    "Gplus8": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", "0,0,0,1"),
    "Gminus8": ("0,0,0,2", "2,2,2,2", "S:0,0,0,2", "0,0,1,0"),
    "G2": ("0,1", "2,2", "S:0,1", None),
    "F4": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", None),
    "E6": ("0,0,0,1,0,0", "2,2,2,2,2,2", "S:0,0,0,0,0,1", None),
    "E6adj": ("0,0,0,1,0,0", "2,2,2,2,2,2", "S:0,0,0,0,1,1", None),
    "E7": ("0,0,0,0,0,0,2", "2,2,2,2,2,2,2", "S:0,0,0,0,0,0,1", None),
    "E7adj": ("0,0,0,0,0,0,2", "2,2,2,2,2,2,2", "S:0,0,0,0,0,0,2",
              "0,0,0,0,0,0,2"),
    "E8": ("0,0,0,0,0,0,0,1", "2,2,2,2,2,2,2,2", "S:0,0,0,0,0,0,0,1", None),
    "GL5": ("2,1,0,-1,-2", "1,1,0,-1,-1", "S:3,2,2,1,0", None),
    "SO16": ("0,0,0,0,0,0,0,2", "2,2,2,2,2,2,2,2", "S:0,0,0,0,0,0,0,2",
             "0,0,0,0,0,0,1,1"),
    "PSO16": ("0,0,0,0,0,0,0,2", "2,2,2,2,2,2,2,2", "S:0,0,0,0,0,0,0,2",
              None),
    "d4_half.json": ("0,0,0,1", "2,2,2,2", "S:0,0,0,1", "0,0,0,1"),
    "a1xa1.json": ("0,2", "2,2", "S:0,2", "0,2"),
    "b3xg2.json": ("0,0,0,0,1", "2,2,2,2,2", "S:0,0,0,0,1", "0,1,0,0,0"),
}
# past the 4300 digits Python converts between int and str
BIG = "1" * 5001
# (group, weights): coordinates written as other tokens, and refusals
CHECK_EDGES = [
    ("SO8", ["00, 0 ,-0,4/2", "0.0,0e5,-0,1_0", "0,0,0,\u0662",
             "0,0,0,2.e+0", "1e+5,0,0,0", "2.e+1,0,0,0+S:1e+0,0,0,0"]),
    ("SO8", ["1e2+1e+0,0,0,0"]), ("SO8", ["+0,0,0,2"]), ("SO8", ["0,0,0"]), ("SO8", ["0,0,0,1/2"]),
    ("SO8", ["0,0,0,x"]), ("SO8", ["0,0,0,1/0"]), ("SO8", ["-1,0,0,0"]),
    ("SO8", ["0,0,1,0"]), ("SO8", ["S:"]), ("SO8", [","]), ("SO8", []),
    ("SL3", ["1,0"]), ("PGL2", ["1/2"]), ("GL3", ["1/2,0,-1/2"]),
    ("SO8", ["1e1000,0,0,0"]), ("SO8", ["1e1000000,0,0,0"]),
    ("SO8", ["1e3000000,0,0,0"]), ("SO8", ["1e1_000_000,0,0,0"]),
    ("SO8", [BIG + ",0,0,0"]), ("a2_third.json", ["1e1000,1e1000"]),
]
ORACLE_BOXES = [("SO8", 3), ("Spin8", 3), ("F4", 3), ("PGL3", 3), ("GL3", 2),
                ("SL6/mu3", 2), ("SO4", 2), ("Sp6", 2)]
# past rank 4: Weyl groups without -1 (E6, D5, A5) and the 51 840-point
# orbit of a regular point of E6
ORACLE_LARGE = ["E6", "SO10", "PSO10", "SL6/mu2"]


def commands():
    """The corpus: argument lists, in a fixed order."""
    out = []
    for group in NAMES + GROUP_FILES:
        out += [["table", "--group", group],
                ["summary", "--group", group, "--box", "1"],
                ["atlas", "--group", group, "--box", "2", "--k", "1"]]
    for group in CATALOG_RANK_LE_4 + GROUP_FILES:
        out.append(["oracle", "--group", group, "--box", "1"])
    # larger boxes, where rows share Freudenthal's graph and orbit values
    for group, box in ORACLE_BOXES:
        out.append(["oracle", "--group", group, "--box", str(box)])
    out += [["oracle", "--group", group, "--box", "1"]
            for group in ORACLE_LARGE]
    for group, (a, b, block, aspinorial) in CHECKS.items():
        large = ",".join(str(123 * int(x) + 45 * int(y))
                         for x, y in zip(a.split(","), b.split(",")))
        weights = [a, large, f"{a}+{b}", block] + [aspinorial] * bool(
            aspinorial)
        out.append(check_argv(group, weights))
    out += [check_argv(group, weights) for group, weights in CHECK_EDGES]
    return [argv + ["--format", fmt] for fmt in ("json", "text")
            for argv in out]


def check_argv(group, weights):
    argv = ["check", "--group", group]
    for w in weights:
        argv += ["--weight", w]
    return argv


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv):
    """One entry: the command's exit code and its outputs' digests."""
    res = CliRunner().invoke(main, argv)
    entry = {"args": argv, "exit_code": res.exit_code}
    for name, text in (("stdout", res.stdout), ("stderr", res.stderr)):
        entry[f"{name}_sha256"] = digest(text)
        if len(text) <= TEXT_LIMIT:
            entry[name] = text
    return entry


def in_file_dir(fn):
    """Run fn() with the group files written to the working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in FILES.items():
            Path(tmp, name).write_text(json.dumps(doc))
        os.chdir(tmp)
        try:
            return fn()
        finally:
            os.chdir(cwd)


def main_(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--accept", action="store_true",
                    help="rewrite entries whose output changed")
    args = ap.parse_args(argv)
    old = {}
    if GOLDEN.exists():
        old = {tuple(e["args"]): e
               for e in json.loads(GOLDEN.read_text())["entries"]}
    entries = in_file_dir(lambda: [record(a) for a in commands()])
    keys = {tuple(e["args"]) for e in entries}
    changed = [e["args"] for e in entries
               if tuple(e["args"]) in old and old[tuple(e["args"])] != e]
    changed += [list(k) for k in old if k not in keys]
    for argv in changed:
        print("changed: spinor " + " ".join(argv))
    if changed and not args.accept:
        print(f"{len(changed)} entries changed; nothing written "
              "(--accept rewrites them)", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps({"files": FILES, "entries": entries},
                                 indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} entries written to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_())
