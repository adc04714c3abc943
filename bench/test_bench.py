"""Tests of the benchmark itself:  python3 -m pytest bench/"""

import copy
import json

import pytest

import harness
import run
import tracing

harness.use_checkout_source()

REFERENCE = harness.load_reference()
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
CHEAP = ("SL2", "SO5", "GL3")    # groups whose cold checks take milliseconds


def small_reference():
    ref = copy.deepcopy(REFERENCE)
    ref["query"] = {g: ref["query"][g] for g in CHEAP}
    return ref


def keys(workload, seed, passes=2, reference=REFERENCE):
    wl = harness.setup(workload, seed, reference)
    return [[op.key for op in wl.next_pass()] for _ in range(passes)]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert keys(workload, 7) == keys(workload, 7)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_other_seed_other_draw_or_order(workload):
    assert keys(workload, 7) != keys(workload, 8)


def test_pass_holds_the_whole_op_set():
    wl = harness.setup("oracle", 3, REFERENCE)
    assert sorted(op.key for op in wl.next_pass()) == sorted(REFERENCE["oracle"])
    assert not wl.missing
    first, second = keys("query", 3)
    assert sorted(first) == sorted(second)
    assert sorted(k.split(" ")[0] for k in first) == sorted(harness.QUERY_GROUPS)
    assert sorted(REFERENCE["query"]) == sorted(harness.QUERY_GROUPS)


def test_reference_counts_the_roots_of_every_group_run():
    groups = (harness.QUERY_GROUPS + harness.SWEEP_GROUPS
              + harness.ORACLE_GROUPS)
    assert set(groups) <= set(REFERENCE["positive_roots"])


def test_latency_counts_every_execution():
    result = harness.RunResult()
    op = harness.Op("a", (), verdicts=2)
    for seconds in (0.3, 0.1, 0.2):
        result.add(op, harness.Outcome(seconds, True))
    result.add(harness.Op("b", ()), harness.Outcome(0.4, True))
    result.add(harness.Op("c", ()), harness.Outcome(9.0, False))
    metrics = harness.end_to_end_metrics(result, 1.0)
    assert metrics["ops_per_s"][0] == pytest.approx(4 / 1.0)
    assert metrics["verdicts_per_s"][0] == pytest.approx(7 / 1.0)
    assert metrics["latency_p50_ms"][0] == pytest.approx(250)


def test_setup_samples_are_spread_over_the_run():
    timer = harness.SetupTimer("sweep", 1, REFERENCE)
    timer.samples.append(0.1)
    due = timer.schedule(4)
    assert sum(due.values()) == harness.SETUP_SAMPLES - 1
    assert set(due) == {1, 2, 3}


def test_every_default_seed_query_exits_0():
    wl = harness.setup("query", harness.DEFAULT_SEED, REFERENCE)
    runner = harness.Runner("query")
    bad = [(op.key, out.reason) for op in wl.next_pass()
           for out in [runner.run(op)] if not out.ok]
    assert bad == []


def test_planted_digest_mismatch_is_counted():
    ref = small_reference()
    for entries in ref["query"]["SO5"].values():
        for entry in entries:
            entry["digest"] = "0" * 64
    result = run.run("query", 5, 0, 0, ref)     # 0 s: exactly one pass
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert result["correct"] is False


def test_clean_run_reports_every_end_to_end_metric():
    result = run.run("query", 5, 0, 0, small_reference())
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric_and_repeats_counts():
    ref = small_reference()
    first = run.run("query", 5, 0, 1, ref)
    second = run.run("query", 6, 0, 1, ref)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, unit in (("rootdata.positive_roots.cold_ms", "ms"),
                       ("spinor.is_spinorial.cold_ms", "ms"),
                       ("spinor.is_spinorial.warm_us", "us"),
                       ("repcalc.classify.us", "us"),
                       ("cli.emit_json.us", "us")):
        assert first["metrics"][name]["unit"] == unit
        assert first["metrics"][name]["value"] > 0


def test_count_mismatch_fails_the_run():
    ref = small_reference()
    ref["positive_roots"]["SO5"] += 1
    result = run.run("query", 5, 0, 1, ref)
    assert result["correct"] is False


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.call("bench.op", lambda: tracer.call("cli.emit_json", sum, ([1],)),
                ())
    outer = tracer.stats["bench.op"][1]
    inner = tracer.stats["cli.emit_json"][1]
    assert tracer.self_seconds["cli"] == pytest.approx(inner)
    assert tracer.self_seconds["bench"] == pytest.approx(outer - inner)
    assert [s[1] for s in tracer.spans] == ["cli.emit_json", "bench.op"]
    assert tracer.spans[0][4] == tracer.spans[1][0]


def test_cold_calls_are_those_that_fill_a_lazy_table():
    from spinoriality import catalog, repcalc
    rd = catalog.group_by_name("SO8").rd
    lam = rd.fundamental_weights[0]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for _ in range(3):
            repcalc.casimir_value(rd, lam)
    assert tracer.stats["repcalc.casimir_value.cold"][0] == 1
    assert tracer.stats["repcalc.casimir_value.warm"][0] == 2


def test_instrument_restores_the_program():
    from spinoriality import rootdata, spinor
    before = (spinor.is_spinorial, rootdata.RootDatum.__dict__["positive_roots"])
    with tracing.instrument(tracing.Tracer()):
        assert spinor.is_spinorial is not before[0]
    assert (spinor.is_spinorial,
            rootdata.RootDatum.__dict__["positive_roots"]) == before
