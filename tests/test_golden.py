"""The command-line output contract: every command of ``golden.json`` exits
with its recorded code and prints the recorded bytes on stdout and stderr
(``make_golden.py`` writes the file and says how to regenerate it)."""

import json

import pytest

from make_golden import GOLDEN, record

DOC = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    """A directory holding the corpus's group files."""
    path = tmp_path_factory.mktemp("golden")
    for name, doc in DOC["files"].items():
        (path / name).write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("entry", DOC["entries"],
                         ids=lambda e: " ".join(e["args"]))
def test_output_matches_the_golden_entry(entry, file_dir, monkeypatch):
    monkeypatch.chdir(file_dir)
    assert record(entry["args"]) == entry


def test_the_corpus_covers_every_command_and_format():
    seen = {(e["args"][0], e["args"][-1]) for e in DOC["entries"]}
    assert seen == {(cmd, fmt) for cmd in ("check", "table", "summary",
                                            "atlas", "oracle")
                    for fmt in ("json", "text")}
