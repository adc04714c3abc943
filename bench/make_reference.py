"""Record ``reference.json``: the query input pool and the digest and exact
counts of every op any seed can draw.

    python3 bench/make_reference.py [--out bench/reference.json]

Run it only at a commit whose outputs are known to be right (it took about
five minutes on a 2-core x86-64 machine).  A later change that alters a
digest must say why the old output was wrong before re-recording.
"""

import argparse
import json
import random
import sys

import harness


# seed-drawable weights per group and kind
CANDIDATES = 3


def _text(coords):
    from spinoriality.cli import fmt_q
    return ",".join(fmt_q(c) for c in coords)


def _duality_permutation(group):
    """-w0 as a permutation of the weight-basis coordinates, or None."""
    from spinoriality import ratlin as rl
    basis = group.weight_basis
    perm = []
    for b in basis:
        image = rl.mat_vec(group.rd.minus_w0_matrix, b)
        if image not in basis:
            return None
        perm.append(basis.index(image))
    return perm


def _sampler(group, rng, large):
    r = len(group.weight_basis)
    gl = group.spec.family == "GL"

    def sample():
        c = [rng.randint(0, 3) for _ in range(r)]
        if large:
            for i in rng.sample(range(r), min(2, r)):
                c[i] = rng.randint(100, 400)
        if gl:  # dominant for GL means non-increasing coordinates
            c.sort(reverse=True)
        return c
    return sample


def _orthogonal(group, sample, perm, least=0, tries=400):
    """Coordinates of a valid irreducible orthogonal summand with some
    coordinate at least ``least``, or None.

    Each sample is tried as drawn, with its coordinates made -w0-symmetric,
    and as lam + (-w0)lam; each of those also doubled, which fixes the
    Frobenius-Schur parity.
    """
    from spinoriality import ratlin as rl, spinor
    from spinoriality.errors import SpinorError
    rd = group.rd
    for _ in range(tries):
        c = sample()
        lam = group.weight_from_coords(c)
        candidates = [lam, rl.add(lam, rl.mat_vec(rd.minus_w0_matrix, lam))]
        if perm is not None:
            candidates.insert(1, group.weight_from_coords(
                [c[min(i, perm[i])] for i in range(len(c))]))
        for cand in candidates:
            for k in (1, 2):
                mu = rl.scale(k, cand)
                try:
                    spinor.orth_rep(rd, irreducible=[mu])
                except SpinorError:
                    continue
                coords = rl.lattice_coords(group.weight_basis, mu)
                if coords is not None and max(coords) >= least:
                    return coords
    return None


def _hyperbolic(group, sample, tries=400):
    from spinoriality import spinor
    from spinoriality.errors import SpinorError
    for _ in range(tries):
        c = sample()
        try:
            spinor.orth_rep(group.rd,
                            hyperbolic=[group.weight_from_coords(c)])
        except SpinorError:
            continue
        return c
    return None


def query_inputs(name):
    """CANDIDATES weight texts per kind for the group (the zero weight, the
    trivial representation, stands in where a search finds nothing)."""
    from spinoriality.catalog import group_by_name
    g = group_by_name(name)
    # a generator per group, so a group's pool does not depend on the others
    rng = random.Random(f"query-pool:{name}")
    perm = _duality_permutation(g)
    zero = [0] * len(g.weight_basis)
    small = _sampler(g, rng, large=False)
    large = _sampler(g, rng, large=True)
    out = {kind: [] for kind in harness.QUERY_KINDS}
    for _ in range(CANDIDATES):
        a = _orthogonal(g, small, perm) or zero
        b = _orthogonal(g, small, perm) or zero
        out["small"].append(_text(a))
        out["large"].append(_text(_orthogonal(g, large, perm, least=100) or zero))
        out["sum"].append(f"{_text(a)}+{_text(b)}")
        out["hyperbolic"].append("S:" + _text(_hyperbolic(g, small) or zero))
    return g, out


def record_query(reference, runner):
    pool, roots = {}, {}
    for name in harness.QUERY_GROUPS:
        g, inputs = query_inputs(name)
        roots[name] = len(g.rd.positive_roots)
        weights = [w for kind in harness.QUERY_KINDS for w in inputs[kind]]
        op = harness.Op(name, (name, weights))
        code, out = harness.invoke_cli(runner, harness.query_argv(op))
        if code != 0:
            raise SystemExit(f"query {name} {weights}: exit {code}")
        digests = iter(harness.result_digests(out))
        pool[name] = {kind: [{"weight": w, "digest": next(digests)}
                             for w in inputs[kind]]
                      for kind in harness.QUERY_KINDS}
        print(f"query {name}: {weights}", file=sys.stderr, flush=True)
    reference["query"] = pool
    reference["positive_roots"] = roots


def record_sweep(reference, runner):
    from spinoriality.catalog import group_by_name
    from spinoriality.spinor import dominant_orthogonal_weights
    out = {}
    for name in harness.SWEEP_GROUPS:
        op = harness.Op(name, (name,))
        code, text = harness.invoke_cli(runner, harness.sweep_argv(op))
        if code != 0 or json.loads(text)["agrees"] is not True:
            raise SystemExit(f"sweep {name}: exit {code} {text}")
        rd = group_by_name(name).rd
        reference["positive_roots"][name] = len(rd.positive_roots)
        yielded = sum(1 for _ in dominant_orthogonal_weights(rd, harness.SWEEP_BOX))
        out[name] = {"digest": harness.sha256(text.rstrip("\n")),
                     "scanned": (harness.SWEEP_BOX + 1) ** len(rd.fundamental_weights),
                     "yielded": yielded}
        print(f"sweep {name}: {out[name]}", file=sys.stderr, flush=True)
    reference["sweep"] = out


def record_oracle(reference):
    from spinoriality import ratlin as rl
    from spinoriality.repcalc import freudenthal_multiplicities
    from spinoriality.spinor import oracle_compare
    reference["oracle"] = {}
    out = {}
    for op in harness.oracle_rows(reference):
        name, coords, nu, (rd, lam) = op.args
        reference["positive_roots"][name] = len(rd.positive_roots)
        report = oracle_compare(rd, lam, nu)
        if not report["ok"]:
            raise SystemExit(f"oracle {op.key}: {report}")
        table = freudenthal_multiplicities(rd, lam)
        orbit = rd.weyl_orbit_signed(rl.add(rl.vec(lam), rd.delta))
        out[op.key] = {
            "digest": harness.sha256(harness.canonical(harness.oracle_row(op, report))),
            "weights": len(table),
            "dominant_weights": sum(1 for _ in table.dominant_items()),
            "orbit_size": len(orbit)}
    print(f"oracle: {len(out)} rows", file=sys.stderr, flush=True)
    reference["oracle"] = out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(harness.REFERENCE_PATH))
    args = ap.parse_args()
    harness.use_checkout_source()
    runner = harness.cli_runner()
    reference = {}
    record_query(reference, runner)
    record_sweep(reference, runner)
    record_oracle(reference)
    with open(args.out, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
