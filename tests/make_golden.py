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
}

NAMES = CATALOG_RANK_LE_4 + ["E6", "E6adj", "E7", "E7adj", "E8", "GL5",
                             "SO16", "PSO16"]


def commands():
    """The corpus: argument lists, in a fixed order."""
    out = []
    for group in NAMES + list(FILES):
        out += [["table", "--group", group],
                ["summary", "--group", group, "--box", "1"],
                ["atlas", "--group", group, "--box", "2", "--k", "1"]]
    for group in CATALOG_RANK_LE_4 + list(FILES):
        out.append(["oracle", "--group", group, "--box", "1"])
    return [argv + ["--format", fmt] for fmt in ("json", "text")
            for argv in out]


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
