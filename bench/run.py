"""Benchmark of the spinoriality engine: one command, three workloads.

    python3 bench/run.py --workload {query,sweep,oracle} --seed N \\
        --seconds S --trace {0,1} [--print-digests]

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs every op twice through the same entry point, once
plain and once with a span at every layer boundary, alternating which goes
first, and reports the per-layer metrics, the tracing overhead and a check
of the exact counts; the spans go to
``.bench_out/trace-<workload>-seed<N>.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 whenever the run completed, whether or not
every op was correct, and 2 when there is nothing to benchmark.
"""

import argparse
import json
import sys

import harness


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-digests", action="store_true",
                    help="print every op's output digest, so two commits "
                         "can be compared on any seed")
    return ap.parse_args(argv)


def run(workload, seed, seconds, trace, reference, print_digests=False):
    """One benchmark run; returns the result object printed last."""
    on_digest = None
    if print_digests:
        def on_digest(key, digest):
            print(f"digest {digest} {key}")
    if trace:
        import tracing
        wl = harness.setup(workload, seed, reference)
        tracer = tracing.Tracer()
        runner = tracing.PairedRunner(workload, tracer,
                                      harness.setup(workload, seed, reference))
        measured = harness.measure(wl, seconds, runner, on_digest=on_digest)
        results = [runner.untraced, measured]
        tracer.write(harness.ROOT / ".bench_out"
                     / f"trace-{workload}-seed{seed}.json")
        problems = [f"exact count: {m}"
                    for m in tracing.check_counts(tracer, reference)]
        metrics = tracing.per_layer_metrics(tracer, runner.untraced, measured)
    else:
        timer = harness.SetupTimer(workload, seed, reference)
        wl = timer.sample()
        measured = harness.measure(wl, seconds, harness.Runner(workload),
                                   on_digest=on_digest, setup_timer=timer)
        results = [measured]
        problems = []
        metrics = harness.end_to_end_metrics(measured, timer.seconds)
    problems += [f"reference row missing from the run: {k}"
                 for k in wl.missing]
    failures = [f for r in results for f in r.failures]
    problems += [f"{key}: {why}" for key, why in failures]
    attempted = sum(r.attempted for r in results)
    for p in problems:
        print(f"FAIL {p}")
    print(f"{workload}: seed {seed}, {measured.passes} pass(es), "
          f"{measured.attempted} ops in {measured.busy_seconds:.2f} s busy, "
          f"{sum(measured.verdicts.values())} verdicts a pass, slowest op "
          f"{max(o.seconds for o in measured.outcomes) * 1e3:.1f} ms, "
          f"failed_ratio {len(failures) / attempted:.4f} "
          f"({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        harness.use_checkout_source()
    except harness.SourceMissing as exc:
        print(f"nothing to benchmark: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace,
                 harness.load_reference(), print_digests=args.print_digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
