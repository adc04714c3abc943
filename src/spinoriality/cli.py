"""Command-line frontend: spinoriality verdicts, isogeny tables, oracle
cross-checks, periodicity atlases, and family summary suites.

Groups are named catalog entries (``PGL2``, ``SO8``, ``SL8/mu4``, ...) or JSON
files describing either a catalog spec or an inline root datum.  All output is
exact: certificates are arbitrary-precision integers printed in decimal, and
rationals are printed as ``a/b``.

Exit codes: 0 computed (whatever the verdict), 2 malformed spec, 3 integrality
violation, 4 dimension guard exceeded.
"""

import json
import os
import re
import sys
from fractions import Fraction

import click

from . import ratlin as rl
from .ratlin import fmt_q, fmt_vec
from . import catalog, spinor
from .errors import (SpecificationError, IntegralityError, GuardExceededError)
from .fundgroup import fundamental_group, p_value
from .rootdata import (RootDatum, _from_cartan, cartan_checked,
                       cartan_factors, check_root_guard)
from .repcalc import FREUDENTHAL_GUARD_DEFAULT

EXIT_SPEC = 2
EXIT_INTEGRALITY = 3
EXIT_GUARD = 4

COORDINATE_DIGITS = 4300     # Python's default limit on int <-> str


# ----------------------------------------------------------------------
# group and weight parsing

def load_group(spec_arg):
    """A catalog name, or a path to a JSON group file.

    File format: ``{"catalog": {"family": ..., "params": [...]}}`` or
    ``{"rootDatum": {"cartan": [[...]], "cocharGenerators": [[...]],
    "denominator": d}}``.
    """
    if os.path.exists(spec_arg):
        try:
            with open(spec_arg) as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise SpecificationError(f"cannot read group file: {exc}")
        return _group_from_document(doc, spec_arg)
    return catalog.group_by_name(spec_arg)


def _group_from_document(doc, origin):
    if not isinstance(doc, dict):
        raise SpecificationError(f"{origin}: group file must be a JSON object")
    if "catalog" in doc:
        entry = doc["catalog"]
        if not (isinstance(entry, dict)
                and isinstance(entry.get("family"), str)):
            raise SpecificationError(f"{origin}: catalog entry needs a family")
        params = _tuplify(entry.get("params", ()))
        return catalog.make_group(catalog.GroupSpec(entry["family"], params))
    if "rootDatum" in doc:
        return _group_from_root_datum(doc["rootDatum"], origin)
    raise SpecificationError(
        f"{origin}: expected a 'catalog' or 'rootDatum' key")


def _tuplify(x):
    if isinstance(x, list):
        return tuple(_tuplify(v) for v in x)
    return x


def _group_from_root_datum(entry, origin):
    try:
        cartan = entry["cartan"]
    except (TypeError, KeyError):
        raise SpecificationError(f"{origin}: rootDatum needs a cartan matrix")
    if not (isinstance(cartan, list) and all(
            isinstance(row, list) and len(row) == len(cartan)
            and all(type(x) is int for x in row) for row in cartan)):
        raise SpecificationError(
            f"{origin}: cartan must be a square matrix of integers")
    den = entry.get("denominator", 1)
    if type(den) is not int or den < 1:
        raise SpecificationError(
            f"{origin}: denominator must be an integer >= 1, got {den!r}")
    # the root-count guard, from the integer matrix before any vector
    check_root_guard([(f.family, f.rank)
                      for f in cartan_factors(cartan_checked(cartan))])
    roots, coroots, width, _ = _from_cartan(cartan)
    gens = entry.get("cocharGenerators", [])
    if not isinstance(gens, list):
        raise SpecificationError(f"{origin}: cocharGenerators must be a list")
    rows = list(coroots)
    for i, g in enumerate(gens):
        if not (isinstance(g, list) and len(g) == width
                and all(type(x) is int for x in g)):
            raise SpecificationError(
                f"{origin}: cocharGenerators[{i}] = {g!r} must be a list of "
                f"{width} integers, one per simple coroot")
        rows.append(rl.unscaled(g, den))
    rd = RootDatum(roots, coroots, rl.row_lattice_basis(rows), label="custom")
    fg = fundamental_group(rd)
    return catalog.Group("custom", catalog.GroupSpec("rootDatum", ()),
                         rd, fg, rd.fundamental_weights)


def parse_weight_option(group, text):
    """One ``--weight`` value: summands joined by ``+``, each a comma list of
    coordinates in the group's weight basis, with an ``S:`` prefix marking a
    hyperbolic block."""
    irreducible, hyperbolic = [], []
    # a "+" joins summands, unless it signs the exponent of a mantissa: 1e+5
    for part in re.split(r"(?<![0-9.][eE])\+", text):
        part = part.strip()
        kind = "orth"
        if part.upper().startswith("S:"):
            kind = "S"
            part = part[2:]
        tokens = part.split(",")
        blank = [tok.strip() == "" for tok in tokens]
        if all(blank):
            raise SpecificationError(f"empty weight in {text!r}")
        if any(blank):
            raise SpecificationError(
                f"empty coordinate in the weight {text!r}")
        try:
            coords = [_coordinate(tok) for tok in tokens]
        except (ValueError, ZeroDivisionError):
            raise SpecificationError(f"cannot parse weight coordinates {part!r}")
        (hyperbolic if kind == "S" else irreducible).append(
            group.check_coords(coords))
    return spinor.orth_rep(group.rd, irreducible=irreducible,
                           hyperbolic=hyperbolic, basis=group.weight_basis)


def _coordinate(tok):
    """One weight coordinate: the rational its token writes, an int where
    int() reads the token; refused while still text if it has over
    COORDINATE_DIGITS digits written out (1e<exp> builds 10^exp), and
    ValueError for a token that writes no rational."""
    head, _, exp = tok.lower().partition("e")
    if sum(map(str.isdigit, head)) + abs(int(exp or 0)) > COORDINATE_DIGITS:
        raise GuardExceededError(
            f"a weight coordinate has more than {COORDINATE_DIGITS} digits")
    try:
        return int(tok)
    except ValueError:
        return Fraction(tok)


# ----------------------------------------------------------------------
# exact serialization

def jsonable(x):
    """Exact JSON form: integers as decimal strings, rationals as 'a/b'."""
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, (int, Fraction)):
        return fmt_q(x)
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    return str(x)


def emit_json(payload):
    click.echo(json.dumps(jsonable(payload), sort_keys=True,
                          separators=(",", ":")))


# ----------------------------------------------------------------------
# command implementations

def run_check(group, weights, fmt):
    if not weights:
        raise SpecificationError("check needs at least one --weight")
    results = []
    for text in weights:
        rep = parse_weight_option(group, text)
        verdict = spinor.is_spinorial(group.rd, group.fg, rep)
        results.append((text, verdict))
    if fmt == "json":
        emit_json({
            "group": group.name,
            "results": [{
                "weight": text,
                "spinorial": v.spinorial,
                "method": v.method,
                "certificate": [{"generator": list(nu), "q": q}
                                for nu, q in v.certificate],
            } for text, v in results],
        })
        return
    lines = []      # all formatted first: a too-long q prints nothing
    for text, v in results:
        word = "spinorial" if v.spinorial else "aspinorial"
        lines.append(f"{group.name} weight {text}: {word}")
        lines += [f"  q{fmt_vec(nu)} = {fmt_q(q)}" for nu, q in v.certificate]
        if not v.certificate:
            lines += ["  fundamental group trivial: spinorial by convention"]
    click.echo("\n".join(lines))


def run_table(group, fmt):
    report = {"group": group.name,
              "fundamental_group": list(group.fg.invariant_factors)}
    if group.fg.generators:
        report["p"] = p_value(group.rd, group.fg.generators)
        report["generators"] = [list(nu) for nu in group.fg.generators]
    fams, _ = group.rd.lie_type
    n = fams[0][1] if len(fams) == 1 and fams[0][0] == "D" else None
    dtable = catalog.type_d_table(n) if n is not None else None
    if dtable is not None:
        report["isogeny_p"] = dtable["p"]
        report["weights"] = {
            name: {"dim": dim, "casimir": chi}
            for name, (dim, chi) in dtable["weights"].items()}
    if fmt == "json":
        emit_json(report)
        return
    factors = ", ".join(str(d) if d else "Z" for d in group.fg.invariant_factors)
    lines = [f"group {group.name}",     # all formatted first, as in check
             f"  pi_1 invariant factors: [{factors or 'trivial'}]"]
    if group.fg.generators:
        lines.append(f"  p = {fmt_q(report['p'])}")
        lines += [f"  generator {fmt_vec(nu)}" for nu in group.fg.generators]
    if dtable is not None:
        lines.append(f"  type D_{n} isogeny classes:")
        lines += [f"    {gname:10s} p = {fmt_q(pv)}"
                  for gname, pv in dtable["p"].items()]
        lines.append("  named weights (dim, Casimir):")
        lines += [f"    {wname:12s} dim = {dim}  chi = {fmt_q(chi)}"
                  for wname, (dim, chi) in dtable["weights"].items()]
    click.echo("\n".join(lines))


def run_oracle(group, box, guard, fmt):
    """One oracle row per weight and generator.  A row over a guard is
    listed as skipped with the guard's message and counts in neither
    ``agree`` nor ``total``; a run whose every row was skipped checked
    nothing, so it ends with the guard's exit code after its output."""
    nus = group.fg.generators or tuple(group.rd.simple_coroots[:1])
    rows, agree, total, skipped = [], 0, 0, 0
    for coords, lam in spinor.dominant_orthogonal_weights(
            group.rd, box, basis=group.weight_basis):
        for nu in nus:
            try:
                rep = spinor.oracle_compare(group.rd, lam, nu,
                                            freudenthal_guard=guard)
            except GuardExceededError as exc:
                skipped += 1
                rows.append({"coords": list(coords), "generator": list(nu),
                             "skipped": str(exc)})
                continue
            total += 1
            agree += bool(rep["ok"])
            rows.append({"coords": list(coords), "generator": list(nu), **{
                key: rep[key] for key in ("L", "q", "parity_agrees",
                                          "weyl_sum", "weyl_agrees", "ok")}})
    if fmt == "json":
        payload = {"group": group.name, "box": box, "agree": agree,
                   "total": total, "rows": rows}
        if skipped:
            payload["skipped"] = skipped
        emit_json(payload)
    else:
        for row in rows:
            where = f"lambda{tuple(row['coords'])} nu {fmt_vec(row['generator'])}"
            if "skipped" in row:
                click.echo(f"  skip {where}  {row['skipped']}")
                continue
            mark = "ok " if row["ok"] else "FAIL"
            ws = "" if row["weyl_sum"] is None else f"  weyl = {fmt_q(row['weyl_sum'])}"
            click.echo(f"  {mark} {where}"
                       f"  L = {fmt_q(row['L'])}  q = {fmt_q(row['q'])}{ws}")
        click.echo(f"{group.name}: {agree}/{total} agree"
                   + (f", {skipped} skipped" if skipped else ""))
    if skipped and not total:
        raise GuardExceededError(f"all {skipped} rows exceeded a guard")


def run_atlas(group, box, k, fmt, grid_file):
    report = spinor.scan_periodicity(group.rd, group.fg, box, k,
                                     basis=group.weight_basis)
    if grid_file:
        _write_grid(group, report["verdicts"], grid_file)
    payload = {
        "group": group.name,
        "box": report["box"],
        "k": report["k"],
        "violations": [[list(c), axis] for c, axis in report["violations"]],
        "points": report["points"],
        "spinorial_points": report["spinorial_points"],
        "density": report["density"],
        "minimal_k": report["minimal_k"],
        "vacuous": report["vacuous"],
    }
    if fmt == "json":
        emit_json(payload)
        return
    click.echo(f"{group.name}: box {box}, period 2^{k}")
    click.echo(f"  orthogonal points: {report['points']}"
               f"  spinorial: {report['spinorial_points']}"
               f"  density: {fmt_q(report['density'])}")
    click.echo(f"  violations at k={k}: {len(report['violations'])}")
    if report["vacuous"]:
        why = ("2^k exceeds the box" if k >= box.bit_length() else
               "no shifted point is a dominant orthogonal point of the box")
        click.echo(f"  note: {why}; the scan is vacuous")
    if report["minimal_k"] is not None:
        click.echo(f"  smallest violation-free exponent in box: {report['minimal_k']}")
    if grid_file:
        click.echo(f"  verdict grid written to {grid_file}")


def _write_grid(group, verdicts, path):
    """Plain CSV of weight coordinates and the verdict bit, for plotting."""
    try:
        with open(path, "w") as fh:
            r = len(group.weight_basis)
            fh.write(",".join(f"c{i+1}" for i in range(r)) + ",spinorial\n")
            for coords, spinorial in verdicts.items():
                fh.write(",".join(map(str, coords)) + f",{int(spinorial)}\n")
    except OSError as exc:
        raise SpecificationError(f"cannot write grid file: {exc}")


def run_summary(group, box, fmt):
    predicted = catalog.summary_check(group.spec)
    swept, counterexample = catalog.sweep_all_spinorial(group, box=box)
    payload = {
        "group": group.name,
        "box": box,
        "all_spinorial_predicted": predicted,
        "all_spinorial_swept": swept,
        "agrees": None if predicted is None else predicted == swept,
    }
    if counterexample is not None:
        coords, lam = counterexample
        payload["counterexample"] = {"coords": list(coords),
                                     "weight": list(lam)}
    if predicted is False:
        witness = catalog.known_aspinorial_witness(group.spec)
        if witness is not None:
            v = spinor.is_spinorial(
                group.rd, group.fg,
                spinor.OrthRep(irreducible=(tuple(rl.vec(witness)),)))
            payload["witness"] = {"weight": list(rl.vec(witness)),
                                  "aspinorial": not v.spinorial}
    if fmt == "json":
        emit_json(payload)
        return
    click.echo(f"{group.name}: every orthogonal rep spinorial?")
    click.echo(f"  classification says: {predicted}")
    click.echo(f"  box-{box} sweep says: {swept}")
    if "counterexample" in payload:
        c = payload["counterexample"]
        click.echo(f"  counterexample at coordinates {tuple(c['coords'])}")
    if "witness" in payload:
        w = payload["witness"]
        state = "aspinorial (as classified)" if w["aspinorial"] else "SPINORIAL (mismatch!)"
        click.echo(f"  stored witness {fmt_vec(w['weight'])}: {state}")
    status = "PASS" if payload["agrees"] in (None, True) else "FAIL"
    click.echo(f"  {status}")


# ----------------------------------------------------------------------
# click wiring

def _guard_value(guard):
    """The multiplicity guard: ``--guard``, else SPINOR_GUARD, else the
    built-in default; a negative one is malformed."""
    source = "--guard"
    if guard is None:
        env = os.environ.get("SPINOR_GUARD")
        if env is None:
            return FREUDENTHAL_GUARD_DEFAULT
        try:
            guard, source = int(env), "SPINOR_GUARD"
        except ValueError:
            raise SpecificationError(
                f"SPINOR_GUARD must be an integer, got {env!r}")
    if guard < 0:
        raise SpecificationError(f"{source} must be >= 0, got {guard}")
    return guard


def _common(fn):
    fn = click.option("--group", "group_arg", required=True,
                      help="Catalog name or JSON group file.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                      default="text", help="Output format.")(fn)
    return fn


def _run(body):
    try:
        body()
    except SpecificationError as exc:
        click.echo(f"spec error: {exc}", err=True)
        sys.exit(EXIT_SPEC)
    except IntegralityError as exc:
        click.echo(f"integrality violation: {exc}", err=True)
        sys.exit(EXIT_INTEGRALITY)
    except GuardExceededError as exc:
        click.echo(f"guard exceeded: {exc}", err=True)
        sys.exit(EXIT_GUARD)


@click.group()
def main():
    """Decide whether orthogonal representations lift to the spin group."""


@main.command()
@_common
@click.option("--weight", "weights", multiple=True,
              help="Weight coordinates a,b,...; summands joined by '+', "
                   "prefix S: for a hyperbolic block.  Repeatable.")
def check(group_arg, weights, fmt):
    """Spinoriality verdict with an exact certificate per generator."""
    _run(lambda: run_check(load_group(group_arg), weights, fmt))


@main.command()
@_common
def table(group_arg, fmt):
    """Fundamental group, p value, and type D isogeny/weight tables."""
    _run(lambda: run_table(load_group(group_arg), fmt))


@main.command()
@_common
@click.option("--box", default=2, show_default=True,
              help="Coordinate box for the weight sweep.")
@click.option("--guard", default=None, type=int,
              help="Dimension guard for the multiplicity oracle "
                   "(default from SPINOR_GUARD or built-in).")
def oracle(group_arg, box, guard, fmt):
    """Cross-check the closed form against the brute-force oracles."""
    def body():
        g = _guard_value(guard)
        run_oracle(load_group(group_arg), box, g, fmt)
    _run(body)


@main.command()
@_common
@click.option("--box", default=8, show_default=True,
              help="Coordinate box for the periodicity scan.")
@click.option("--k", default=2, show_default=True,
              help="Test invariance of the verdict under shifts by 2^k.")
@click.option("--grid-file", default=None,
              help="Also write a CSV grid of verdict bits for plotting.")
def atlas(group_arg, box, k, fmt, grid_file):
    """Scan for violations of 2^k-periodicity of the verdict."""
    _run(lambda: run_atlas(load_group(group_arg), box, k, fmt, grid_file))


@main.command()
@_common
@click.option("--box", default=2, show_default=True,
              help="Coordinate box for the verification sweep.")
def summary(group_arg, box, fmt):
    """Check the family classification of all-spinorial groups by sweep."""
    _run(lambda: run_summary(load_group(group_arg), box, fmt))


if __name__ == "__main__":
    main()
