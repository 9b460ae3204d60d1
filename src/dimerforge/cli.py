"""Command-line front end.

Exit codes: 0 for success/PASS, 1 for verification failure or invalid input
data, 2 for usage and configuration errors and for files that cannot be
opened.
"""

from __future__ import annotations

import math
import sys
from itertools import islice

import click

from . import aztec as aztec_mod
from . import bijections, generators, refine, report, trees
from ._geom import frac_str, parse_frac
from .errors import (
    ConfigError,
    ConstraintPathMismatch,
    DimerforgeError,
    NotAMatching,
    NumberTooLong,
    ParseError,
)
from .matchings import (
    Matching,
    count_matchings,
    enumerate_matchings,
    kasteleyn_grid_count,
    squarish,
)
from .planar import check_reflection_symmetry, dump_graph, parse_graph, read_text


class _Fail(click.ClickException):
    exit_code = 1


class _ConfigFail(click.ClickException):
    exit_code = 2


def _load(path: str, lenient: bool = False):
    return parse_graph(read_text(path), require_connected=not lenient)


def _ids(text: str) -> list[int]:
    return [int(t) for t in text.replace(",", " ").split()]


def _peaks(text: str) -> list[tuple[int, int]]:
    """Trimmed-square peaks written 'i,j;i,j;...'."""
    peaks = []
    for part in text.split(";") if text else ():
        i, j = part.split(",")
        peaks.append((int(i), int(j)))
    return peaks


def _site_path(text: str) -> tuple[int, list[int]]:
    """A constrained path written 'INDEX=v1-v2-...'."""
    idx, sep, seq = text.partition("=")
    if not sep:
        raise ValueError("expected INDEX=v1-v2-...")
    return int(idx), [int(t) for t in seq.split("-")]


class _Parsed(click.ParamType):
    """An option value read by ``parse``; a malformed value is a usage error
    naming the option."""

    def __init__(self, name: str, parse):
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(f"{value!r}: {exc}", param, ctx)


_IDS = _Parsed("ids", _ids)
_POSITIVE = click.IntRange(min=1)


def _read_id_lines(path: str):
    """(line number, ids) for each non-blank line of an id-list file, where
    ``#`` starts a comment; a malformed id raises ParseError naming the line."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ids = _ids(line)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        yield lineno, ids


def _read_matchings(path: str, host) -> list[Matching]:
    out = []
    for lineno, ids in _read_id_lines(path):
        mu = Matching(host.graph_id, frozenset(ids))
        try:
            mu.cover_map(host)
        except NotAMatching as exc:
            raise NotAMatching(f"{path}:{lineno}: {exc}") from exc
        out.append(mu)
    return out


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


def main():
    try:
        cli(standalone_mode=False)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        click.echo(exc.format_message(), err=True)
        sys.exit(exc.exit_code)
    except OSError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    except DimerforgeError as exc:
        click.echo(f"error: {exc.__class__.__name__}: {exc}", err=True)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(130)


@click.group()
def cli():
    """Exact matching/forest combinatorics on embedded plane graphs."""


@cli.command()
@click.argument("file", type=click.Path())
def validate(file):
    """Validate a graph file (embedding, simplicity, Euler check)."""
    g = _load(file)
    faces = g.trace_faces()
    click.echo(f"OK: V={len(g.vertices)} E={len(g.edges)} F={len(faces.faces)} "
               f"id={g.graph_id}")


@cli.command()
@click.argument("file", type=click.Path())
def faces(file):
    """List the faces of a graph file."""
    g = _load(file)
    for f in g.trace_faces().faces:
        kind = "infinite" if f.infinite else "bounded"
        click.echo(f"face {f.index} {kind}: " + " ".join(map(str, f.vertex_seq)))


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--lenient", "-L", is_flag=True,
              help="admit disconnected graphs (derived graphs may be)")
def count(file, lenient):
    """Weighted perfect matching count of a graph file."""
    click.echo(frac_str(count_matchings(_load(file, lenient))))


@cli.command("enumerate")
@click.argument("file", type=click.Path())
@click.option("--limit", type=click.IntRange(min=0), help="stop after this many")
@click.option("--lenient", "-L", is_flag=True,
              help="admit disconnected graphs (derived graphs may be)")
def enumerate_cmd(file, limit, lenient):
    """List perfect matchings as sorted edge-id lines."""
    for mu in islice(enumerate_matchings(_load(file, lenient)), limit):
        click.echo(" ".join(map(str, mu.sorted_edges())))


def _log10_grid_count(m: int, n: int) -> float:
    """log10 of ``kasteleyn_grid_count(m, n)``, summed in floating point
    over its factors a_j + b_k.

    a_j = 4cos^2(pi j/(2m+1)) is written 4sin^2(pi (2m+1-2j)/(4m+2)), so
    the small factors keep their relative precision: each log10 is off by
    under 1e-14, and the ``fsum`` of the mn < 3.33 * limit terms that pass
    the 2^(mn) bound by under 1e-13 * limit digits."""
    def factors(k):
        return [4 * math.sin(math.pi * (2 * k + 1 - 2 * j) / (4 * k + 2)) ** 2
                for j in range(1, k + 1)]

    return math.fsum(math.log10(a + b) for a in factors(m) for b in factors(n))


@cli.command("grid-count")
@click.argument("m", type=_POSITIVE)
@click.argument("n", type=_POSITIVE)
def grid_count(m, n):
    """Closed-form count for the 2m x 2n grid graph."""
    # each of the mn 2x2 blocks tiles two ways, so the count is at least
    # 2^(mn), which has more than 0.301 mn digits.  Past this O(1) bound,
    # the count's own log10 decides; it is refused only above the limit
    # plus a margin far wider than that sum's rounding error
    limit = sys.get_int_max_str_digits()
    if limit and (100 * m * n > 333 * limit
                  or _log10_grid_count(m, n) >= limit * (1 + 1e-9)):
        raise NumberTooLong(f"the {2 * m} x {2 * n} grid count has more than {limit} "
                            "digits and cannot be written")
    click.echo(frac_str(kasteleyn_grid_count(m, n)))


@cli.command("squarish")
@click.argument("value", type=int)
def squarish_cmd(value):
    """Classify an integer as square, twice a square, or neither."""
    verdict = squarish(value)
    click.echo(str(verdict))
    if not verdict:
        raise _Fail(f"{value} is not squarish")


@cli.command()
@click.argument("kind", type=click.Choice(["hg", "plus", "minus", "bar", "smash", "trimmed"]))
@click.argument("file", type=click.Path(), required=False)
@click.option("--path", "path_", type=_IDS, help="comma-separated boundary path vertex ids")
@click.option("--targets", type=_IDS, help="comma-separated vertices to smash")
@click.option("--n", "order", type=_POSITIVE, help="half side for trimmed squares")
@click.option("--removals", type=_Parsed("peaks", _peaks), default="",
              help="peaks as 'i,j;i,j;...'")
@click.option("-o", "--out", type=click.Path(), help="output file (default stdout)")
def build(kind, file, path_, targets, order, removals, out):
    """Build a derived graph and write it in the graph-file format."""
    if kind == "trimmed":
        if order is None:
            raise click.UsageError("trimmed needs --n")
        _emit(dump_graph(refine.trimmed_square(order, removals)), out)
        return
    if file is None:
        raise click.UsageError(f"{kind} needs a graph file")
    g = _load(file)
    if kind == "smash":
        if not targets:
            raise click.UsageError("smash needs --targets")
        ref = refine.dual_refinement(g)
        smashed = refine.smash_in(ref, targets)
        _emit(dump_graph(smashed.graph), out)
        return
    if kind == "hg":
        _emit(dump_graph(refine.dual_refinement(g).graph), out)
        return
    if not path_:
        raise click.UsageError(f"{kind} needs --path")
    inst = refine.section_instance(g, path_)
    if kind == "plus":
        _emit(dump_graph(inst.plus), out)
    elif kind == "minus":
        _emit(dump_graph(inst.minus), out)
    else:
        _emit(dump_graph(refine.symmetrize(inst)), out)


@cli.command()
@click.argument("file", type=click.Path())
@click.argument("matchings_file", type=click.Path())
@click.option("--path", "path_", type=_IDS, required=True, help="boundary path vertex ids")
@click.option("--inverse", is_flag=True, help="map from the minus side instead")
def phi(file, matchings_file, path_, inverse):
    """Map matchings between the plus and minus graphs (one per line)."""
    inst = refine.section_instance(_load(file), path_)
    host = inst.minus if inverse else inst.plus
    for mu in _read_matchings(matchings_file, host):
        img = bijections.psi(inst, mu) if inverse else bijections.phi(inst, mu)
        click.echo(" ".join(map(str, img.sorted_edges())))


@cli.command()
@click.argument("direction", type=click.Choice(["t2m", "m2t"]))
@click.argument("file", type=click.Path())
@click.argument("input_file", type=click.Path())
@click.option("--root", type=int, required=True)
def temperley(direction, file, input_file, root):
    """Convert spanning trees to matchings of the refinement (or back)."""
    g = _load(file)
    inst = bijections.temperley_instance(refine.dual_refinement(g), root)
    if direction == "t2m":
        for _, ids in _read_id_lines(input_file):
            tree = trees.orient_edge_set(g, ids, (root,))
            mu = bijections.temperley_tree_to_matching(inst, tree)
            click.echo(" ".join(map(str, mu.sorted_edges())))
    else:
        for mu in _read_matchings(input_file, inst.host):
            tree = bijections.temperley_matching_to_tree(inst, mu)
            click.echo(" ".join(map(str, sorted(tree.edge_set))))


@cli.command("tea-transport")
@click.argument("file", type=click.Path())
@click.argument("matchings_file", type=click.Path())
@click.option("--plain", type=_IDS, required=True, help="marked run v1,v2,...")
@click.option("--prime", type=_IDS, required=True, help="marked run v'1,v'2,...")
@click.option("--I", "subset", type=_IDS, default="", help="constrained indices, e.g. 1,3")
@click.option("--constraint", type=_Parsed("site-path", _site_path), multiple=True,
              help="path as INDEX=v1-v2-...; repeatable")
def tea_transport_cmd(file, matchings_file, plain, prime, subset, constraint):
    """Transport matchings between the two marked-run hosts."""
    inst = bijections.transport_instance(_load(file), plain, prime)
    paths = {idx: bijections.site_path_to_refinement(inst.smashed.refinement, sites)
             for idx, sites in constraint}
    for host in (inst.host_prime, inst.host_plain):
        try:
            mus = _read_matchings(matchings_file, host)
            break
        except NotAMatching:
            continue
    else:
        raise _Fail("matchings fit neither host")
    constraints = {i: paths[i] for i in subset if i in paths}
    if mus and constraints.keys() != set(subset):
        raise ConstraintPathMismatch("missing constraint path")
    for mu in mus:
        out = bijections.tea_transport(inst, mu, constraints)
        click.echo(" ".join(map(str, out.sorted_edges())))


@cli.command("verify-bijection")
@click.argument("kind", type=click.Choice(["phi", "temperley", "tea"]))
@click.argument("file", type=click.Path())
@click.option("--path", "path_", type=_IDS, help="boundary path (phi)")
@click.option("--root", type=int, help="root vertex (temperley)")
@click.option("--plain", type=_IDS, help="marked run (tea)")
@click.option("--prime", type=_IDS, help="marked run (tea)")
def verify_bijection(kind, file, path_, root, plain, prime):
    """Exhaustively verify a bijection on one instance with the suite's
    per-instance check; exit 0/1."""
    g = _load(file)
    if kind == "phi":
        if not path_:
            raise click.UsageError("phi needs --path")
        checked, fault = report.phi_fault(refine.section_instance(g, path_))
    elif kind == "temperley":
        if root is None:
            raise click.UsageError("temperley needs --root")
        checked, fault = report.temperley_fault(
            bijections.temperley_instance(refine.dual_refinement(g), root))
    else:
        if not plain or not prime:
            raise click.UsageError("tea needs --plain and --prime")
        checked, fault = report.transport_fault(bijections.transport_instance(g, plain, prime), {})
    noun = "trees" if kind == "temperley" else "matchings"
    click.echo(f"{'PASS' if fault is None else 'FAIL'}: {checked} {noun}")
    if fault:
        raise _Fail(f"bijection check failed: {fault[0]} at {fault[1]}")


@cli.group("trees")
def trees_group():
    """Spanning tree operations."""


@trees_group.command("count")
@click.argument("file", type=click.Path())
def trees_count(file):
    click.echo(frac_str(trees.count_spanning_trees(_load(file))))


@trees_group.command("enumerate")
@click.argument("file", type=click.Path())
@click.option("--root", type=int, required=True)
def trees_enumerate(file, root):
    for tree in trees.enumerate_spanning_trees(_load(file), root):
        click.echo(" ".join(map(str, sorted(tree.edge_set))))


@cli.command()
@click.argument("direction", type=click.Choice(["f2m", "m2f"]))
@click.argument("file", type=click.Path())
@click.argument("input_file", type=click.Path())
@click.option("--plain", type=_IDS, required=True)
@click.option("--prime", type=_IDS, required=True)
def tec(direction, file, input_file, plain, prime):
    """Convert between banded forests and matchings of the smashed host."""
    g = _load(file)
    inst = bijections.transport_instance(g, plain, prime, require_plain_path=False)
    if direction == "m2f":
        for mu in _read_matchings(input_file, inst.host_prime):
            forest = trees.tec_matching_to_forest(inst, mu)
            click.echo(" ".join(map(str, sorted(forest.edge_set))))
    else:
        for _, ids in _read_id_lines(input_file):
            forest = trees.orient_edge_set(inst.forest_graph, ids, inst.prime_odd)
            mu = trees.tec_forest_to_matching(inst, forest)
            click.echo(" ".join(map(str, mu.sorted_edges())))


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--root", type=int, required=True)
@click.option("--kind", type=click.Choice(["exit", "hv"]), default="exit")
@click.option("--samples", type=click.IntRange(min=0), default=0)
@click.option("--seed", type=int, default=0)
@click.option("--axis", type=_Parsed("fraction", parse_frac), default="0",
              help="axis height y=c")
def independence(file, root, kind, samples, seed, axis):
    """Joint exit-indicator distribution for the uniform spanning tree."""
    g = _load(file)
    cert = check_reflection_symmetry(g, axis)
    rep = trees.independence_report(g, cert, root,
                                    "exit-side" if kind == "exit" else "hv",
                                    samples=samples, seed=seed)
    click.echo(rep.render())
    if not rep.passed:
        raise _Fail("distribution check failed")


@cli.command()
@click.argument("file", type=click.Path())
@click.option("--cycle", type=_IDS, required=True, help="comma-separated cycle vertices")
def parity(file, cycle):
    """Interior vertex/edge/face count of a simple cycle."""
    from .parity import interior_vertex_count

    ic = interior_vertex_count(_load(file), cycle)
    click.echo(f"vertices={ic.vertices} edges={ic.edges} faces={ic.faces} "
               f"total={ic.total} ({ic.parity})")


@cli.group()
def aztec():
    """Triangular Aztec regions."""


@aztec.command("formula")
@click.argument("n", type=_POSITIVE)
def aztec_formula_cmd(n):
    click.echo(frac_str(aztec_mod.aztec_formula(n)))


@aztec.command("count")
@click.argument("n", type=_POSITIVE)
@click.argument("variant", type=click.Choice(["T", "Tp", "both"]), default="both")
def aztec_count(n, variant):
    for name in (("T", "Tp") if variant == "both" else (variant,)):
        inst = aztec_mod.aztec_graph(n, name)
        click.echo(f"{name}: {frac_str(count_matchings(inst.graph))}")


@aztec.command("graph")
@click.argument("n", type=_POSITIVE)
@click.argument("variant", type=click.Choice(["T", "Tp"]))
@click.option("-o", "--out", type=click.Path())
def aztec_graph_cmd(n, variant, out):
    inst = aztec_mod.aztec_graph(n, variant)
    _emit(dump_graph(inst.graph), out)


@aztec.command("biject")
@click.argument("n", type=_POSITIVE)
@click.argument("matchings_file", type=click.Path())
@click.option("--variant", type=click.Choice(["T", "Tp"]), default="T")
@click.option("--svg", type=click.Path(), help="render the first image as SVG")
def aztec_biject(n, matchings_file, variant, svg):
    inst = aztec_mod.aztec_graph(n, variant)
    other = aztec_mod.aztec_graph(n, "Tp" if variant == "T" else "T")
    images = []
    for mu in _read_matchings(matchings_file, inst.graph):
        img = aztec_mod.aztec_bijection(n, mu)
        images.append(img)
        click.echo(" ".join(map(str, img.sorted_edges())))
    if svg and images:
        with open(svg, "w", encoding="utf-8") as fh:
            fh.write(aztec_mod.tiling_svg(other, images[0]))


@cli.command()
@click.argument("config", type=click.Path())
@click.option("--jobs", type=_POSITIVE, default=1)
@click.option("--seed", type=int, default=None)
@click.option("--timings", is_flag=True, help="print per-check times to stderr")
def suite(config, jobs, seed, timings):
    """Run a verification suite config; exit 0 iff every check passes."""
    try:
        rep = report.run_suite(read_text(config), jobs=jobs, seed=seed)
    except (OSError, ParseError, ConfigError) as exc:
        raise _ConfigFail(str(exc)) from exc
    click.echo(rep.render(), nl=False)
    if timings:
        for r in rep.results:
            click.echo(f"# {r.name}: {r.wall_time:.3f}s", err=True)
    if not rep.passed:
        raise _Fail("suite failed")


@cli.command()
@click.argument("kind", type=click.Choice(["section2", "symmetric", "tea", "tec", "trimmed"]))
@click.option("--seed", type=int, required=True)
@click.option("-o", "--out", type=click.Path())
def gen(kind, seed, out):
    """Generate a random valid instance file for the given construction."""
    if kind == "section2":
        inst = generators.random_section2(seed)
        text = dump_graph(inst.base)
        text += "#! path " + ",".join(map(str, inst.boundary.inner)) + "\n"
    elif kind == "symmetric":
        g, cert = generators.random_symmetric(seed)
        text = dump_graph(g)
        text += "#! axis 0\n"
    elif kind in ("tea", "tec"):
        inst, paths = generators.random_transport(seed, require_plain_path=(kind == "tea"))
        text = dump_graph(inst.smashed.refinement.source)
        text += "#! plain " + ",".join(map(str, inst.plain)) + "\n"
        text += "#! prime " + ",".join(map(str, inst.prime)) + "\n"
    else:
        g, n, removals = generators.random_trimmed(seed, require_connected=True)
        text = dump_graph(g)
        text += f"#! trimmed n={n} removals=" + \
            ";".join(f"{i},{j}" for i, j in removals) + "\n"
    _emit(text, out)


if __name__ == "__main__":
    main()
