"""Workload inputs, op runners and end-to-end metrics for the benchmark.

Three workloads, each a closed loop with one client in one thread:

* ``query``  -- cold ``spinor check --format json`` calls, one per group of
  ``QUERY_GROUPS``, each building its group from scratch and deciding one
  weight of each kind in ``QUERY_KINDS``;
* ``sweep``  -- ``spinor summary --box 2 --format json`` on the four
  all-spinorial family groups;
* ``oracle`` -- one ``oracle_compare`` row per op over SO8, Spin8 and F4
  (acceptance criterion 5's library path, box 3, dim V <= 10^5).

The op set of a run is drawn from the seed in set-up.  A run makes a fixed
number of passes over it, ``--seconds`` divided by the workload's nominal
pass length (at least one), each pass in an order drawn from the seed.
Every execution of an op is one latency sample, so the percentiles rest on
passes x ops samples and no single op near the median sets them.  Every
run measures the same mix of groups and input kinds; only the seed-drawn
weights and the order change.

Every op's output is hashed (SHA-256 of its canonical JSON) and compared
with ``reference.json``, which holds the digest of every input a seed can
draw, recorded at the commit that defined the benchmark.  A ``check`` call
decides several weights independently, so its output is compared result by
result.
"""

import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

WORKLOADS = ("query", "sweep", "oracle")
# every query op decides one weight of each kind: a single irreducible, one
# with coordinates in the hundreds, a '+' sum, an 'S:' hyperbolic block
QUERY_KINDS = ("small", "large", "sum", "hyperbolic")
DEFAULT_SEED = 1
# nominal seconds of one pass over a workload's op set on a 2-vCPU x86-64
# machine; a run makes max(1, seconds // PASS_SECONDS) passes
PASS_SECONDS = {"query": 5, "sweep": 40, "oracle": 25}
# set-ups timed per untraced run: one before the first op, the rest spread
# evenly between ops, so their median is not one moment's machine speed
SETUP_SAMPLES = 7

# the family groups of the classification suite whose box-2 sweeps run the
# whole box (all four are predicted all-spinorial)
SWEEP_GROUPS = ("PSp16", "PSO16", "Spin16", "SL12/mu6")
SWEEP_BOX = 2

# acceptance criterion 5 restricted to these groups
ORACLE_GROUPS = ("SO8", "Spin8", "F4")
ORACLE_BOX = 3
ORACLE_DIM_LIMIT = 10 ** 5


# every catalog family, classical types at ranks spread up to 11: about
# 5 s for one pass of cold checks, short enough to repeat several times in
# a run (a pass over all 130 catalog groups of rank <= 11 takes 40-50 s)
QUERY_GROUPS = (
    "SL2", "SL6/mu3", "PGL6", "SL7", "PGL7", "SL8", "SL9/mu3", "SL12",
    "GL3", "GL5", "GL7",
    "Sp4", "Sp10", "Sp12", "Sp14", "Sp16", "Sp22",
    "PSp6", "PSp10", "PSp12",
    "SO5", "SO8", "SO10", "SO11", "SO13",
    "Spin7", "Spin12", "Spin13", "Spin17", "Spin23",
    "PSO8", "PSO10", "PSO12",
    "Gplus8", "Gminus8", "Gminus12",
    "G2", "F4", "E6", "E7", "E8", "E6adj", "E7adj")


class SourceMissing(Exception):
    """The checkout holds no spinoriality sources to benchmark."""


def use_checkout_source():
    """Import spinoriality from this checkout's ``src``, never elsewhere."""
    init = SRC / "spinoriality" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no spinoriality package at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spinoriality
    if Path(spinoriality.__file__).resolve() != init.resolve():
        raise SourceMissing(
            f"spinoriality imported from {spinoriality.__file__}, not {init}")


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def canonical(payload):
    """The CLI's canonical JSON form: exact values, sorted keys."""
    from spinoriality.cli import jsonable
    return json.dumps(jsonable(payload), sort_keys=True, separators=(",", ":"))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# ops

@dataclass
class Op:
    """One unit of client work: ``key`` names its input stably, ``expect``
    is the reference digest of its output, one per result for ``check``
    (None when the reference has none, which fails the op)."""
    key: str
    args: tuple
    expect: object = None
    verdicts: int = 1


@dataclass
class Outcome:
    seconds: float
    ok: bool
    digest: str = None
    reason: str = ""


def cli_runner():
    from click.testing import CliRunner
    return CliRunner()


def invoke_cli(runner, argv):
    """One in-process ``spinor`` call; returns (exit code, stdout)."""
    from spinoriality.cli import main
    res = runner.invoke(main, argv, prog_name="spinor")
    return res.exit_code, res.stdout


def result_digests(text):
    """Digest of each result of a ``check`` output, with its group."""
    doc = json.loads(text)
    return [sha256(json.dumps({"group": doc["group"], "result": r},
                              sort_keys=True, separators=(",", ":")))
            for r in doc["results"]]


def _problem(workload, op, text):
    if workload == "query":
        if result_digests(text) != list(op.expect):
            return "digest mismatch"
        return None
    if json.loads(text).get("agrees") is not True:
        return "summary does not agree"
    if sha256(text) != op.expect:
        return "digest mismatch"
    return None


def _judge_cli(workload, op, seconds, code, out):
    if code != 0:
        return Outcome(seconds, False, None, f"exit {code}")
    text = out.rstrip("\n")
    try:
        problem = _problem(workload, op, text)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"malformed output: {exc!r}"
    return Outcome(seconds, problem is None, sha256(text), problem or "")


def query_argv(op):
    group, weights = op.args
    argv = ["check", "--group", group]
    for w in weights:
        argv += ["--weight", w]
    return argv + ["--format", "json"]


def sweep_argv(op):
    return ["summary", "--group", op.args[0], "--box", str(SWEEP_BOX),
            "--format", "json"]


def oracle_row(op, report):
    name, coords, nu, _ = op.args
    return {"group": name, "coords": list(coords), "generator": list(nu),
            **report}


def _judge_oracle(op, seconds, report):
    digest = sha256(canonical(oracle_row(op, report)))
    if not report["ok"]:
        return Outcome(seconds, False, digest, "oracles disagree")
    if digest != op.expect:
        return Outcome(seconds, False, digest, "digest mismatch")
    return Outcome(seconds, True, digest)


class Runner:
    """Runs one op untraced; only the call into the program is timed."""

    def __init__(self, workload):
        self.workload = workload
        self.cli = cli_runner()

    def run(self, op):
        perf = time.perf_counter
        if self.workload == "oracle":
            from spinoriality.spinor import oracle_compare
            _, _, nu, (rd, lam) = op.args
            t0 = perf()
            try:
                report = oracle_compare(rd, lam, nu)
            except Exception as exc:  # the op fails; the run goes on
                return Outcome(perf() - t0, False, None, repr(exc))
            return _judge_oracle(op, perf() - t0, report)
        argv = query_argv(op) if self.workload == "query" else sweep_argv(op)
        t0 = perf()
        code, out = invoke_cli(self.cli, argv)
        return _judge_cli(self.workload, op, perf() - t0, code, out)


# ----------------------------------------------------------------------
# set-up: inputs drawn from the seed

@dataclass
class Workload:
    name: str
    rng: random.Random
    ops: list = field(default_factory=list)
    missing: list = field(default_factory=list)

    def next_pass(self):
        """The op set in the next order drawn from the seed."""
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops


def query_ops(reference, rng):
    """One op per group, its weights drawn from the recorded pool."""
    ops = []
    for g, pools in reference["query"].items():
        picks = [rng.choice(pools[k]) for k in QUERY_KINDS]
        weights = tuple(e["weight"] for e in picks)
        ops.append(Op(f"{g} {' '.join(weights)}", (g, weights),
                      tuple(e["digest"] for e in picks), verdicts=len(picks)))
    return ops


def oracle_rows(reference):
    """The oracle ops: every dominant orthogonal weight of SO8, Spin8 and F4
    in box 3 with dim V <= 10^5, at each pi_1 generator (the first simple
    coroot when pi_1 is trivial), exactly as acceptance criterion 5 walks
    them."""
    from spinoriality.catalog import group_by_name
    from spinoriality.repcalc import weyl_dim
    from spinoriality.spinor import dominant_orthogonal_weights
    ref = reference["oracle"]
    ops = []
    for name in ORACLE_GROUPS:
        g = group_by_name(name)
        nus = g.fg.generators or tuple(g.rd.simple_coroots[:1])
        for coords, lam in dominant_orthogonal_weights(
                g.rd, ORACLE_BOX, basis=g.weight_basis):
            if weyl_dim(g.rd, lam) > ORACLE_DIM_LIMIT:
                continue
            for i, nu in enumerate(nus):
                key = oracle_key(name, coords, i)
                expect = ref.get(key, {}).get("digest")
                ops.append(Op(key, (name, coords, nu, (g.rd, lam)), expect))
    return ops


def oracle_key(name, coords, nu_index):
    return f"{name} {','.join(str(c) for c in coords)} nu{nu_index}"


def setup(workload, seed, reference):
    """Everything a run needs before its first op.  Inputs are drawn here,
    never inside the timed region."""
    wl = Workload(workload, random.Random(f"{workload}:{seed}"))
    if workload == "query":
        wl.ops = query_ops(reference, wl.rng)
    elif workload == "sweep":
        wl.ops = [Op(g, (g,), reference["sweep"][g]["digest"],
                     verdicts=reference["sweep"][g]["yielded"])
                  for g in SWEEP_GROUPS]
    elif workload == "oracle":
        wl.ops = oracle_rows(reference)
        seen = {op.key for op in wl.ops}
        wl.missing = sorted(set(reference["oracle"]) - seen)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return wl


def cold_import_seconds():
    """A fresh interpreter importing the CLI, as every ``spinor`` process
    does; work moved to import time shows here."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls the child with sleeps of up to
    # 50 ms, which would quantise the measurement
    subprocess.run([sys.executable, "-c", "import spinoriality.cli"],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class SetupTimer:
    """Times the set-up of a run: a fresh interpreter importing the CLI plus
    the workload's own preparation (oracle: group builds and the box
    enumeration).  ``seconds`` is the median of all samples taken."""

    def __init__(self, workload, seed, reference):
        self.args = (workload, seed, reference)
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        cold_import_seconds()
        wl = setup(*self.args)
        self.samples.append(time.perf_counter() - t0)
        return wl

    def schedule(self, total):
        """Op indices before which the remaining samples are taken."""
        n = SETUP_SAMPLES - len(self.samples)
        return Counter(min(round(k * total / (n + 1)), total - 1)
                       for k in range(1, n + 1))

    @property
    def seconds(self):
        return statistics.median(self.samples)


# ----------------------------------------------------------------------
# the measured loop

@dataclass
class RunResult:
    passes: int = 0
    outcomes: list = field(default_factory=list)  # every execution
    failures: list = field(default_factory=list)  # (op key, reason)
    latencies: list = field(default_factory=list)  # seconds of every ok op
    decided: int = 0                                # verdicts of ok ops
    verdicts: dict = field(default_factory=dict)  # op key -> verdicts per op

    def add(self, op, out):
        self.outcomes.append(out)
        if out.ok:
            self.latencies.append(out.seconds)
            self.decided += op.verdicts
            self.verdicts[op.key] = op.verdicts
        else:
            self.failures.append((op.key, out.reason))

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def busy_seconds(self):
        return sum(o.seconds for o in self.outcomes)


def pass_count(workload, seconds):
    return max(1, int(seconds // PASS_SECONDS[workload]))


def measure(wl, seconds, runner, on_digest=None, setup_timer=None):
    """Run the passes a run of ``seconds`` makes over the op set, taking the
    remaining set-up samples between ops."""
    result = RunResult()
    passes = pass_count(wl.name, seconds)
    due = setup_timer.schedule(passes * len(wl.ops)) if setup_timer else {}
    i = 0
    for _ in range(passes):
        for op in wl.next_pass():
            for _ in range(due.get(i, 0)):
                setup_timer.sample()
            out = runner.run(op)
            result.add(op, out)
            if on_digest is not None:
                on_digest(op.key, out.digest)
            i += 1
        result.passes += 1
    return result


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(result, setup_s):
    """Latency and throughput over every successful execution."""
    lat_ms = [t * 1e3 for t in result.latencies]
    busy = sum(result.latencies)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "ops_per_s": (len(lat_ms) / busy, "1/s"),
        "verdicts_per_s": (result.decided / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
