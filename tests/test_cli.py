"""Command-line surface and the suite runner."""

import os
import subprocess
import sys
import time
from itertools import islice

import pytest
from click.testing import CliRunner

import dimerforge
from dimerforge import matchings
from dimerforge.bijections import transport_instance
from dimerforge.cli import cli, main
from dimerforge.errors import ConfigError, NumberTooLong
from dimerforge.generators import (grid_graph, hexagon_graph, random_exit_side,
                                   random_plane_graph, random_symmetric)
from dimerforge.matchings import enumerate_matchings
from dimerforge.planar import dump_graph, parse_graph
from dimerforge.refine import dual_refinement, smash_in
from dimerforge.report import parse_suite_config, run_suite


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(dump_graph(grid_graph(2, 2)))
    return str(path)


def invoke(runner, args):
    return runner.invoke(cli, args, standalone_mode=False, catch_exceptions=False)


def test_validate_and_faces(runner, square_file):
    res = invoke(runner, ["validate", square_file])
    assert "V=4 E=4 F=2" in res.output
    res = invoke(runner, ["faces", square_file])
    assert res.output.count("face") == 2


def test_count_and_enumerate(runner, square_file):
    assert invoke(runner, ["count", square_file]).output.strip() == "2"
    out = invoke(runner, ["enumerate", square_file]).output.strip().splitlines()
    assert len(out) == 2
    assert out == sorted(out)


def test_enumerate_limit(runner, square_file):
    assert invoke(runner, ["enumerate", square_file, "--limit", "0"]).output == ""
    assert len(invoke(runner, ["enumerate", square_file, "--limit", "1"]).output
               .splitlines()) == 1


def test_grid_count_and_squarish(runner):
    assert invoke(runner, ["grid-count", "2", "2"]).output.strip() == "36"
    assert invoke(runner, ["grid-count", "3", "12"]).output.strip() == "29242880940226381"
    assert invoke(runner, ["squarish", "72"]).output.strip() == "2*6^2"


def test_build_pipeline(runner, square_file, tmp_path):
    from builders import fan_square

    hg = tmp_path / "hg.txt"
    invoke(runner, ["build", "hg", square_file, "-o", str(hg)])
    g = parse_graph(hg.read_text())
    assert len(g.vertices) == 9
    plus = tmp_path / "plus.txt"
    invoke(runner, ["build", "plus", square_file, "--path", "0,1,3", "-o", str(plus)])
    assert invoke(runner, ["count", str(plus)]).output.strip() == "3"
    fan = tmp_path / "fan.txt"
    fan.write_text(dump_graph(fan_square()))
    bar = tmp_path / "bar.txt"
    invoke(runner, ["build", "bar", str(fan), "--path", "0,1,3", "-o", str(bar)])
    assert invoke(runner, ["count", str(bar)]).output.strip() == "36"


def test_build_smash_writes_a_graph_that_count_reads(runner, tmp_path):
    g = grid_graph(3, 3)
    gfile = tmp_path / "grid.txt"
    gfile.write_text(dump_graph(g))
    out = tmp_path / "smash.txt"
    invoke(runner, ["build", "smash", str(gfile), "--targets", "0", "-o", str(out)])
    smashed = smash_in(dual_refinement(g), [0]).graph
    assert out.read_text() == dump_graph(smashed)
    # 22 vertices and no perfect matching until the marks are deleted
    assert len(smashed.vertices) == 22
    assert invoke(runner, ["count", str(out)]).output.strip() == "0"


def test_lenient_reload_of_disconnected_halves(runner, tmp_path):
    # a tree-shaped base: trimming the even path vertices disconnects the
    # halves, which only a lenient reload admits
    from dimerforge.generators import grid_graph

    base = tmp_path / "tree.txt"
    base.write_text(dump_graph(grid_graph(5, 1)))
    plus = tmp_path / "plus.txt"
    invoke(runner, ["build", "plus", str(base), "--path", "0,1,2,3,4", "-o", str(plus)])
    res = runner.invoke(cli, ["count", str(plus)])
    assert res.exit_code == 1  # strict load rejects the disconnected dump
    assert invoke(runner, ["count", "-L", str(plus)]).output.strip() == "1"


def test_build_trimmed(runner, tmp_path):
    from dimerforge.matchings import count_matchings
    from dimerforge.refine import trimmed_square

    out = tmp_path / "t.txt"
    invoke(runner, ["build", "trimmed", "--n", "3", "--removals", "0,5", "-o", str(out)])
    expected = count_matchings(trimmed_square(3, [(0, 5)]))
    assert invoke(runner, ["count", str(out)]).output.strip() == str(expected)


def test_phi_pipeline(runner, square_file, tmp_path):
    plus = tmp_path / "plus.txt"
    invoke(runner, ["build", "plus", square_file, "--path", "0,1,3", "-o", str(plus)])
    mfile = tmp_path / "mus.txt"
    mfile.write_text(invoke(runner, ["enumerate", str(plus)]).output)
    out = invoke(runner, ["phi", square_file, str(mfile), "--path", "0,1,3"])
    lines = [l for l in out.output.splitlines() if l.strip()]
    assert len(lines) == 3
    # mapping back recovers the originals
    back_file = tmp_path / "back.txt"
    back_file.write_text(out.output)
    back = invoke(runner, ["phi", square_file, str(back_file), "--path", "0,1,3",
                           "--inverse"])
    assert back.output == mfile.read_text()


def test_temperley_pipeline(runner, square_file, tmp_path):
    trees_out = invoke(runner, ["trees", "enumerate", square_file, "--root", "0"])
    tfile = tmp_path / "trees.txt"
    tfile.write_text(trees_out.output)
    mus = invoke(runner, ["temperley", "t2m", square_file, str(tfile), "--root", "0"])
    mfile = tmp_path / "mus.txt"
    mfile.write_text(mus.output)
    back = invoke(runner, ["temperley", "m2t", square_file, str(mfile), "--root", "0"])
    assert back.output == trees_out.output


def test_verify_bijection_commands(runner, square_file, tmp_path):
    res = invoke(runner, ["verify-bijection", "phi", square_file, "--path", "0,1,3"])
    assert res.output.startswith("PASS")
    res = invoke(runner, ["verify-bijection", "temperley", square_file, "--root", "0"])
    assert res.output.startswith("PASS")
    g, plain, prime = hexagon_graph(1)
    hexfile = tmp_path / "hex.txt"
    hexfile.write_text(dump_graph(g))
    res = invoke(runner, ["verify-bijection", "tea", str(hexfile),
                          "--plain", ",".join(map(str, plain)),
                          "--prime", ",".join(map(str, prime))])
    assert res.output.startswith("PASS")


def test_verify_bijection_temperley_compares_weights(runner, tmp_path):
    # the weighted matching sum equals the weighted tree sum, not the tree count
    g = random_plane_graph(0, weighted=True)
    gfile = tmp_path / "weighted.txt"
    gfile.write_text(dump_graph(g))
    res = runner.invoke(cli, ["verify-bijection", "temperley", str(gfile),
                              "--root", str(min(g.infinite_face_vertices()))])
    assert res.exit_code == 0
    assert res.output == "PASS: 15 trees\n"


def test_verify_bijection_fails_on_a_broken_map(runner, square_file, monkeypatch):
    from dimerforge import bijections

    real, first = bijections.psi, []

    def stuck_psi(inst, mu):
        # every minus matching goes back to the first plus matching
        if not first:
            first.append(real(inst, mu))
        return first[0]

    monkeypatch.setattr(bijections, "psi", stuck_psi)
    res = runner.invoke(cli, ["verify-bijection", "phi", square_file, "--path", "0,1,3"])
    assert res.exit_code == 1
    assert res.output.startswith("FAIL: 3 matchings\n")
    assert "round trip failed at [" in res.output


def test_tea_transport_reads_plain_host_matchings(runner, tmp_path):
    # every matching of the plain host uses an edge id the primed host lacks
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime)
    hexfile = tmp_path / "hex.txt"
    hexfile.write_text(dump_graph(g))
    mfile = tmp_path / "plain.txt"
    mfile.write_text("".join(" ".join(map(str, mu.sorted_edges())) + "\n"
                             for mu in enumerate_matchings(inst.host_plain)))
    res = invoke(runner, ["tea-transport", str(hexfile), str(mfile),
                          "--plain", ",".join(map(str, plain)),
                          "--prime", ",".join(map(str, prime))])
    lines = res.output.splitlines()
    assert len(lines) == 4
    assert sorted(lines) == sorted(" ".join(map(str, mu.sorted_edges()))
                                   for mu in enumerate_matchings(inst.host_prime))


def test_tec_round_trip_on_a_generated_instance(runner, tmp_path):
    # the marks come from the directives that gen writes; m2f reads matchings
    # of the primed-deleted host, and f2m roots the forests at the primed
    # odd marks
    gfile = tmp_path / "tec.txt"
    invoke(runner, ["gen", "tec", "--seed", "1", "-o", str(gfile)])
    marks = dict(line.split()[1:] for line in gfile.read_text().splitlines()
                 if line.startswith("#! "))
    inst = transport_instance(parse_graph(gfile.read_text()),
                              *(map(int, marks[k].split(",")) for k in ("plain", "prime")),
                              require_plain_path=False)
    assert len(inst.prime_odd) == 2
    mfile = tmp_path / "matchings.txt"
    mfile.write_text("".join(" ".join(map(str, mu.sorted_edges())) + "\n"
                             for mu in islice(enumerate_matchings(inst.host_prime), 40)))
    options = ["--plain", marks["plain"], "--prime", marks["prime"]]
    forests = invoke(runner, ["tec", "m2f", str(gfile), str(mfile), *options]).output
    assert len(set(forests.splitlines())) == 40
    ffile = tmp_path / "forests.txt"
    ffile.write_text(forests)
    back = invoke(runner, ["tec", "f2m", str(gfile), str(ffile), *options]).output
    assert back == mfile.read_text()


def _main(*args):
    """Run the command-line entry point in a fresh interpreter, so an
    uncaught exception shows up as a traceback on stderr."""
    src = os.path.dirname(os.path.dirname(dimerforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "dimerforge.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("command, lines, error", [
    (["aztec", "biject", "2", "IDS"], "0 99\n", "NotAMatching"),
    (["aztec", "biject", "2", "IDS"], "0 1\n", "NotAMatching"),
    (["aztec", "biject", "2", "IDS"], "0\n", "NotAMatching"),
    (["aztec", "biject", "2", "IDS"], "x y\n", "ParseError"),
    (["temperley", "m2t", "SQUARE", "IDS", "--root", "0"], "0 1 2\n", "NotAMatching"),
    (["temperley", "t2m", "SQUARE", "IDS", "--root", "0"], "# trees\n\n1,z\n", "ParseError"),
    (["temperley", "t2m", "SQUARE", "IDS", "--root", "0"], "0 1 99\n",
     "PreconditionViolated"),
    (["temperley", "t2m", "SQUARE", "IDS", "--root", "0"], "0 1 2 3\n",
     "PreconditionViolated"),
    (["temperley", "t2m", "SQUARE", "IDS", "--root", "9"], "0 1 2\n",
     "PreconditionViolated"),
    (["tec", "f2m", "HEX", "IDS", "--plain", "2", "--prime", "4"], "1 x\n", "ParseError"),
    (["tec", "f2m", "HEX", "IDS", "--plain", "2", "--prime", "4"], "0 1 2 3 4\n",
     "PreconditionViolated"),
], ids=["unknown-edge", "covered-twice", "uncovered", "not-an-int", "tree-as-matching",
        "tree-not-an-int", "tree-unknown-edge", "tree-with-cycle", "tree-unknown-root",
        "forest-not-an-int",
        "forest-with-cycle"])
def test_malformed_id_files_exit_1_without_traceback(tmp_path, square_file,
                                                     command, lines, error):
    ids = tmp_path / "ids.txt"
    ids.write_text(lines)
    hexfile = tmp_path / "hex.txt"
    hexfile.write_text(dump_graph(hexagon_graph(1)[0]))
    files = {"IDS": str(ids), "SQUARE": square_file, "HEX": str(hexfile)}
    res = _main(*(files.get(a, a) for a in command))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith(f"error: {error}: "), res.stderr
    assert "Traceback" not in res.stderr


def test_counts_wider_than_the_limit_exit_1_without_traceback(monkeypatch, capsys,
                                                             square_file):
    # in this process, so that the limit can be lowered: the 2 x 2 grid
    # needs 2 frontier slots and the order-2 Aztec regions 3
    monkeypatch.setattr(matchings, "MAX_COUNT_WIDTH", 1)
    for args, width in ((["count", square_file], 2), (["aztec", "count", "2"], 3)):
        monkeypatch.setattr(sys, "argv", ["dimerforge", *args])
        with pytest.raises(SystemExit) as stop:
            main()
        assert stop.value.code == 1
        assert capsys.readouterr() == ("", f"error: FrontierTooWide: counting needs {width} "
                                           "frontier slots, more than the limit of 1\n")


def test_tea_transport_needs_a_path_for_each_constrained_index(tmp_path):
    # the rule is checked once the matchings are read, before any is moved,
    # so an empty matchings file passes it
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime)
    hexfile = tmp_path / "hex.txt"
    hexfile.write_text(dump_graph(g))
    mfile = tmp_path / "prime.txt"
    mfile.write_text("".join(" ".join(map(str, mu.sorted_edges())) + "\n"
                             for mu in enumerate_matchings(inst.host_prime)))
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    options = ["--plain", ",".join(map(str, plain)), "--prime", ",".join(map(str, prime)),
               "--I", "1"]
    res = _main("tea-transport", str(hexfile), str(mfile), *options)
    assert res.returncode == 1, res.stderr
    assert res.stderr == "error: ConstraintPathMismatch: missing constraint path\n"
    assert res.stdout == ""
    res = _main("tea-transport", str(hexfile), str(empty), *options)
    assert res.returncode == 0 and res.stdout == "", res.stderr


@pytest.mark.parametrize("constraint, message", [
    ("9=0-1", "constraint index 9 is not in 1..1"),
    ("1=0-1", "constraint path 1 does not run between marks 1"),
])
def test_tea_transport_refuses_a_constraint_off_its_marks(tmp_path, constraint, message):
    # hexagon_graph(1) has one mark a side: index 9 names no mark, and the
    # path 0-1 does not run from the plain mark 2 to the primed mark 4
    g, plain, prime = hexagon_graph(1)
    inst = transport_instance(g, plain, prime)
    hexfile = tmp_path / "hex.txt"
    hexfile.write_text(dump_graph(g))
    mfile = tmp_path / "prime.txt"
    mfile.write_text("".join(" ".join(map(str, mu.sorted_edges())) + "\n"
                             for mu in enumerate_matchings(inst.host_prime)))
    index = constraint.split("=")[0]
    assert (plain, prime) == ((2,), (4,))
    res = _main("tea-transport", str(hexfile), str(mfile), "--plain", "2", "--prime", "4",
                "--I", index, "--constraint", constraint)
    assert res.returncode == 1, res.stdout
    assert res.stderr == f"error: ConstraintPathMismatch: {message}\n"
    assert res.stdout == ""


@pytest.mark.parametrize("command, option", [
    (["build", "plus", "SQUARE", "--path", "0,x"], "--path"),
    (["build", "smash", "SQUARE", "--targets", "1;2"], "--targets"),
    (["build", "trimmed", "--n", "2", "--removals", "1"], "--removals"),
    (["tea-transport", "HEX", "IDS", "--plain", "2,a", "--prime", "4"], "--plain"),
    (["tec", "m2f", "HEX", "IDS", "--plain", "2", "--prime", "4.5"], "--prime"),
    (["tea-transport", "HEX", "IDS", "--plain", "2", "--prime", "4", "--I", "1,?"], "--I"),
    (["tea-transport", "HEX", "IDS", "--plain", "2", "--prime", "4",
      "--constraint", "1=2-x"], "--constraint"),
    (["parity", "SQUARE", "--cycle", "0,1,3,two"], "--cycle"),
    (["independence", "SQUARE", "--root", "0", "--axis", "1/0"], "--axis"),
    (["independence", "SQUARE", "--root", "0", "--axis", "0.5"], "--axis"),
    (["independence", "SQUARE", "--root", "0", "--axis", "1e3"], "--axis"),
    (["grid-count", "0", "1"], "M"),
    (["aztec", "formula", "0"], "N"),
    (["aztec", "count", "0"], "N"),
    (["aztec", "graph", "0", "T"], "N"),
    (["aztec", "biject", "0", "IDS"], "N"),
    (["build", "trimmed", "--n", "0"], "--n"),
    (["enumerate", "SQUARE", "--limit", "-1"], "--limit"),
    (["independence", "SQUARE", "--root", "0", "--samples", "-5"], "--samples"),
    (["suite", "IDS", "--jobs", "0"], "--jobs"),
], ids=["path", "targets", "removals", "plain", "prime", "I", "constraint", "cycle", "axis",
        "axis-decimal", "axis-exponent", "grid-count", "aztec-formula", "aztec-count",
        "aztec-graph", "aztec-biject", "trimmed-n", "limit", "samples", "jobs"])
def test_malformed_option_values_exit_2_without_traceback(tmp_path, square_file,
                                                          command, option):
    ids = tmp_path / "ids.txt"
    ids.write_text("")
    hexfile = tmp_path / "hex.txt"
    hexfile.write_text(dump_graph(hexagon_graph(1)[0]))
    files = {"IDS": str(ids), "SQUARE": square_file, "HEX": str(hexfile)}
    res = _main(*(files.get(a, a) for a in command))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"usage error: Invalid value for '{option}': "), res.stderr
    assert "Traceback" not in res.stderr


_BIG_EXPONENT = b"v 0 0 0\nv 1 1e5000 0\ne 0 0 1\n"
_DECIMAL_WEIGHT = b"v 0 0 0\nv 1 1 0\ne 0 0 1 0.5\n"


@pytest.mark.parametrize("command, content, code, error", [
    (["validate", "FILE"], _BIG_EXPONENT, 1, "error: ParseError: line 2: bad rational"),
    (["count", "FILE"], _BIG_EXPONENT, 1, "error: ParseError: line 2: bad rational"),
    (["validate", "FILE"], _DECIMAL_WEIGHT, 1, "error: ParseError: line 3: bad rational"),
    (["count", "FILE"], _DECIMAL_WEIGHT, 1, "error: ParseError: line 3: bad rational"),
    (["validate", "FILE"], b"0 1\xff\n", 1, "error: ParseError: FILE: not UTF-8 text"),
    (["temperley", "m2t", "SQUARE", "FILE", "--root", "0"], b"0 1\xff\n", 1,
     "error: ParseError: FILE: not UTF-8 text"),
    (["temperley", "m2t", "SQUARE", "MISSING", "--root", "0"], b"", 2, "[Errno 2]"),
], ids=["exponent-validate", "exponent-count", "decimal-validate", "decimal-count",
        "graph-not-utf8", "ids-not-utf8", "ids-missing"])
def test_bad_input_files_exit_without_traceback(tmp_path, square_file,
                                                command, content, code, error):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    files = {"FILE": str(path), "SQUARE": square_file, "MISSING": str(tmp_path / "none.txt")}
    res = _main(*(files.get(a, a) for a in command))
    assert res.returncode == code, res.stderr
    assert res.stderr.startswith(error.replace("FILE", str(path))), res.stderr
    assert "Traceback" not in res.stderr


# two x-coordinates whose denominators are each near the 4300-digit limit
# on writing an int: the file loads, but the midpoint of the edge joining
# them has a denominator twice as long
_HUGE_DENOMINATORS = (f"v 0 1/{10 ** 4201 + 1} 0\nv 1 1/{10 ** 4201 + 3} 1\nv 2 0 2\n"
                      "e 0 0 1\ne 1 1 2\n").encode()


def test_unwritable_output_file_exits_2(tmp_path, square_file):
    res = _main("build", "hg", square_file, "-o", str(tmp_path / "none" / "hg.txt"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("[Errno 2]"), res.stderr
    assert "Traceback" not in res.stderr


def test_derived_number_too_long_to_write_exits_1(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_bytes(_HUGE_DENOMINATORS)
    assert _main("validate", str(path)).returncode == 0
    res = _main("build", "hg", str(path))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: NumberTooLong: "), res.stderr
    assert "Traceback" not in res.stderr


# a path whose one perfect matching and one spanning tree both weigh
# 10^5000: each weight can be read, their product cannot be written
_HEAVY_PATH = (f"v 0 0 0\nv 1 1 0\nv 2 2 0\nv 3 3 0\ne 0 0 1 {10 ** 2500}\n"
               f"e 1 1 2\ne 2 2 3 {10 ** 2500}\n").encode()


@pytest.mark.parametrize("command", [
    ["count", "FILE"],
    ["trees", "count", "FILE"],
    ["grid-count", "1", "11000"],
    # refused before counting: at least 2^(10^10), which no machine builds
    ["grid-count", "100000", "100000"],
    ["aztec", "formula", "200"],
], ids=["count", "trees-count", "grid-count", "grid-count-refused", "aztec-formula"])
def test_printed_number_too_long_to_write_exits_1(tmp_path, command):
    path = tmp_path / "heavy.txt"
    path.write_bytes(_HEAVY_PATH)
    res = _main(*(str(path) if a == "FILE" else a for a in command))
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: NumberTooLong: "), res.stderr
    assert "Traceback" not in res.stderr


def test_grid_count_refuses_what_the_ladder_bound_proves_too_long(runner, monkeypatch):
    # 119 x 120 passes the 2^(mn) bound, and counting it takes minutes; the
    # 2 x 20580 ladder's count F(20581) has 4301 digits.  The count's log10
    # refuses both before counting; the process call comes last, so that a
    # lost bound fails the in-process calls at once instead of counting
    def uncounted(m, n):
        raise AssertionError(f"counted the {2 * m} x {2 * n} grid")

    monkeypatch.setattr("dimerforge.cli.kasteleyn_grid_count", uncounted)
    start = time.process_time()
    with pytest.raises(NumberTooLong, match="238 x 240 grid count"):
        invoke(runner, ["grid-count", "119", "120"])
    assert time.process_time() - start < 0.2
    with pytest.raises(NumberTooLong, match="2 x 20580 grid count"):
        invoke(runner, ["grid-count", "1", "10290"])
    # a fresh interpreter, which the patch does not reach
    res = _main("grid-count", "119", "120")
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: NumberTooLong: "), res.stderr


def test_grid_count_refuses_a_square_past_the_limit_before_counting(runner, monkeypatch):
    # 186 x 186 passes the O(1) bound and would take about 20 s to count;
    # its count has 4357 digits, and 184 x 184, of 4264 digits, still prints
    def uncounted(m, n):
        raise AssertionError(f"counted the {2 * m} x {2 * n} grid")

    monkeypatch.setattr("dimerforge.cli.kasteleyn_grid_count", uncounted)
    start = time.process_time()
    with pytest.raises(NumberTooLong, match="186 x 186 grid count has more than 4300"):
        invoke(runner, ["grid-count", "93", "93"])
    assert time.process_time() - start < 0.2


@pytest.mark.parametrize("content, expected, code, stream, message", [
    (b"v 0 0 0\nv 1 1 0\ne 0 0 1\n", "abc", 2, "stderr",
     "line 1: bad argument 'abc': bad rational 'abc'"),
    (b"v 0 0 0\nv 1 1 0\ne 0 0 1\n", "1/0", 2, "stderr",
     "line 1: bad argument '1/0': bad rational '1/0'"),
    (b"v 0 0 0\nv 1 1\xff 0\n", "1", 1, "stdout",
     "FAIL matchings-file: error: FILE: not UTF-8 text"),
], ids=["expected-not-a-rational", "expected-zero-denominator", "graph-not-utf8"])
def test_matchings_file_input_errors_without_traceback(tmp_path, content, expected, code,
                                                       stream, message):
    graph = tmp_path / "g.txt"
    graph.write_bytes(content)
    cfg = tmp_path / "suite.txt"
    cfg.write_text(f"check matchings-file {graph} {expected}\n")
    res = _main("suite", str(cfg))
    assert res.returncode == code, res.stderr
    assert message.replace("FILE", str(graph)) in getattr(res, stream), res
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("samples", ["0", "50"])
def test_sampled_independence_without_variables_exits_1(tmp_path, samples):
    path = tmp_path / "sym.txt"
    path.write_text(dump_graph(random_symmetric(0)[0]))
    res = _main("independence", str(path), "--root", "0", "--samples", samples)
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("error: HypothesisViolated: no exit-side variables"), \
        res.stderr
    assert res.stdout == ""


def test_sampled_exit_side_independence_passes(tmp_path):
    g, _, root = random_exit_side(3, 1)
    path = tmp_path / "exit.txt"
    path.write_text(dump_graph(g))
    res = _main("independence", str(path), "--root", str(root), "--kind", "exit",
                "--samples", "200", "--seed", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout == ("variables: 1 4 7\n  000  29\n  001  34\n  010  22\n  011  22\n"
                          "  100  19\n  101  33\n  110  21\n  111  20\nsamples: 200\n"
                          "chi-square: 10.240000  p=1.754e-01\nPASS\n")


def test_parity_command(runner, square_file):
    res = invoke(runner, ["parity", square_file, "--cycle", "0,1,3,2"])
    assert "total=1 (odd)" in res.output


def test_aztec_commands(runner, tmp_path):
    assert invoke(runner, ["aztec", "formula", "3"]).output.strip() == "60"
    out = invoke(runner, ["aztec", "count", "2"]).output
    assert "T: 4" in out and "Tp: 4" in out
    gfile = tmp_path / "t2.txt"
    invoke(runner, ["aztec", "graph", "2", "T", "-o", str(gfile)])
    assert invoke(runner, ["count", str(gfile)]).output.strip() == "4"
    mfile = tmp_path / "mus.txt"
    mfile.write_text(invoke(runner, ["enumerate", str(gfile)]).output)
    svg = tmp_path / "out.svg"
    res = invoke(runner, ["aztec", "biject", "2", str(mfile), "--svg", str(svg)])
    assert len(res.output.strip().splitlines()) == 4
    assert svg.read_text().startswith("<svg")


def test_gen_commands(runner, tmp_path):
    for kind in ("section2", "symmetric", "tea", "trimmed"):
        out = tmp_path / f"{kind}.txt"
        invoke(runner, ["gen", kind, "--seed", "4", "-o", str(out)])
        body = out.read_text()
        parse_graph(body)  # directives live in comments, so plain loading works
        again = tmp_path / f"{kind}2.txt"
        invoke(runner, ["gen", kind, "--seed", "4", "-o", str(again)])
        assert body == again.read_text()


# -- suite ---------------------------------------------------------------------


def test_suite_pass_and_determinism(tmp_path):
    config = """
seed 5
check grid-kasteleyn 2 2
check section2 4
check trimmed-squarish 4
"""
    rep1 = run_suite(config)
    rep2 = run_suite(config)
    assert rep1.passed
    assert rep1.render() == rep2.render()
    assert "seed 5" in rep1.render()


def test_suite_jobs_preserve_order():
    config = "check section2 3\ncheck trimmed-squarish 3\ncheck cycle-parity 3\n"
    serial = run_suite(config, jobs=1, seed=9)
    parallel = run_suite(config, jobs=3, seed=9)
    assert serial.render() == parallel.render()


def test_suite_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse_suite_config("check nonsense 3\n")
    with pytest.raises(ConfigError):
        parse_suite_config("check matchings-file /nonexistent/file.txt\n")
    with pytest.raises(ConfigError):
        parse_suite_config("seed zebra\n")
    with pytest.raises(ConfigError):
        parse_suite_config("frobnicate 1\n")
    # counts are at least 1, and there are five closed-form aztec values
    for line in ("grid-kasteleyn 0 0", "independence-sampled 0", "section2 -1",
                 "transport 0", "aztec 0", "aztec 6"):
        with pytest.raises(ConfigError):
            parse_suite_config(f"check {line}\n")
    items, _ = parse_suite_config("check aztec 5\ncheck grid-kasteleyn 1 1\n")
    assert [item.args for item in items] == [(5,), (1, 1)]


@pytest.mark.parametrize("config", ["", "seed 3\n", "# nothing\n\n"],
                         ids=["empty", "seed-only", "comment-only"])
def test_suite_without_checks_is_a_config_error(tmp_path, config):
    # a report of zero checks would print PASS with nothing verified
    with pytest.raises(ConfigError, match="no checks"):
        parse_suite_config(config)
    cfg = tmp_path / "suite.txt"
    cfg.write_text(config)
    res = _main("suite", str(cfg))
    assert res.returncode == 2, res
    assert "no checks" in res.stderr
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


def test_suite_file_checks(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text(dump_graph(grid_graph(2, 2)))
    config = f"check matchings-file {gpath} 2\n"
    rep = run_suite(config)
    assert rep.passed
    # loading a file already checks Euler's formula, so there is no euler-file check
    with pytest.raises(ConfigError, match="unknown check"):
        parse_suite_config(f"check euler-file {gpath}\n")
    config_bad = f"check matchings-file {gpath} 3\n"
    assert not run_suite(config_bad).passed


def test_suite_cli_exit_codes(runner, tmp_path):
    cfg = tmp_path / "suite.txt"
    cfg.write_text("check grid-kasteleyn 1 1\n")
    res = runner.invoke(cli, ["suite", str(cfg)])
    assert res.exit_code == 0
    cfg.write_text("check unknown-check 1\n")
    res = runner.invoke(cli, ["suite", str(cfg)])
    assert res.exit_code == 2
    cfg.write_bytes(b"check grid-kasteleyn 1\xff 1\n")
    res = runner.invoke(cli, ["suite", str(cfg)])
    assert res.exit_code == 2
    assert f"{cfg}: not UTF-8 text" in res.output
