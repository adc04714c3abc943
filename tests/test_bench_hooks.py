"""The benchmark's tracing patches names of the package by name; a refactor
that renames or removes one of them must fail here, not only in the
benchmark's own suite (python3 -m pytest bench/)."""

import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from spinoriality import cli, repcalc, rootdata, spinor
from spinoriality.catalog import group_by_name

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))   # tracing imports harness
    spec = importlib.util.spec_from_file_location("tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_instruments_and_restores_the_package(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = (cli.run_check, repcalc.classify, spinor.classify,
              spinor.dominant_orthogonal_weights,
              rootdata.RootDatum.__dict__["minus_w0_matrix"])
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        g = group_by_name("PSO8")
        points = list(spinor.dominant_orthogonal_weights(g.rd, 1))
        for _, lam in points:
            spinor.is_spinorial(g.rd, g.fg, spinor.orth_rep(
                g.rd, irreducible=[lam]))
    assert points
    assert tracer.stats["spinor.dominant_orthogonal_weights"][0] > 0
    assert tracer.stats["repcalc.weyl_dim.warm"][0] > 0
    assert (cli.run_check, repcalc.classify, spinor.classify,
            spinor.dominant_orthogonal_weights,
            rootdata.RootDatum.__dict__["minus_w0_matrix"]) == before


def test_traced_oracle_row_matches_the_reference_counts(monkeypatch):
    # the traced oracle run reads len(table) and dominant_items(); their
    # values must stay those bench/reference.json holds, on a row of each
    # oracle group.  The Weyl sum no longer walks the orbit of lam + delta
    # by weyl_orbit_signed but reads that of the regular point from its
    # cocharacter table, which must have the recorded orbit size
    tracing = load_tracing(monkeypatch)
    reference = json.loads((BENCH / "reference.json").read_text())
    for name, coords in [("SO8", [1, 0, 0, 0]), ("Spin8", [0, 1, 0, 0]),
                         ("F4", [0, 0, 1, 0])]:
        g = group_by_name(name)
        lam = g.weight_from_coords(coords)
        nu = (g.fg.generators or g.rd.simple_coroots)[0]
        key = f"{name} {','.join(map(str, coords))} nu0"
        tracer = tracing.Tracer()
        tracer.op = key
        tracer.group = name
        with tracing.instrument(tracer):
            report = spinor.oracle_compare(g.rd, lam, nu)
        assert report["ok"] and report["weyl_agrees"]
        assert "rootdata.weyl_orbit_signed" not in tracer.stats
        assert tracer.stats["repcalc.freudenthal_multiplicities"][0] == 1
        assert f"freudenthal {key}" in tracer.observed
        assert key in reference["oracle"]
        orbit = g.rd.cochar_table(report["regular_point"]).signed_orbit
        assert len(orbit) == reference["oracle"][key]["orbit_size"]
        assert tracing.check_counts(tracer, reference) == []


def test_traced_summary_matches_the_reference_counts(monkeypatch):
    # the traced sweep op counts the points the sweep scans and yields; they
    # must stay those bench/reference.json holds, and the verdicts must
    # still go through spinor.is_spinorial
    tracing = load_tracing(monkeypatch)
    reference = json.loads((BENCH / "reference.json").read_text())
    tracer = tracing.Tracer()
    tracer.op = tracer.group = "SL12/mu6"
    with tracing.instrument(tracer):
        res = CliRunner().invoke(cli.main, ["summary", "--group", "SL12/mu6",
                                            "--box", "2", "--format", "json"])
    assert res.exit_code == 0 and json.loads(res.output)["agrees"] is True
    assert tracer.stats["spinor.dominant_orthogonal_weights"][0] > 0
    assert sum(count for name, (count, _) in tracer.stats.items()
               if name.startswith("spinor.is_spinorial")) == 729
    assert "sweep SL12/mu6" in tracer.observed
    assert tracing.check_counts(tracer, reference) == []


def load_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness
    return harness


def test_every_oracle_row_matches_its_reference_digest(monkeypatch):
    # the benchmark digests oracle_compare's whole report: a change to its
    # keys or values must fail here, not only in the benchmark's runs
    harness = load_harness(monkeypatch)
    reference = harness.load_reference()
    wl = harness.setup("oracle", harness.DEFAULT_SEED, reference)
    assert wl.ops and not wl.missing
    runner = harness.Runner("oracle")
    failed = [(op.key, out.reason) for op in wl.ops
              if not (out := runner.run(op)).ok]
    assert failed == []


def test_sweep_op_matches_its_reference_digest(monkeypatch):
    harness = load_harness(monkeypatch)
    reference = harness.load_reference()
    wl = harness.setup("sweep", harness.DEFAULT_SEED, reference)
    op, = [op for op in wl.ops if op.key == "SL12/mu6"]
    out = harness.Runner("sweep").run(op)
    assert out.ok, out.reason
