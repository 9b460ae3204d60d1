"""Self-test of the benchmark harness on tiny workloads.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY = run.Workload(2, (run.suite_config(("cycle-parity 1", 3), ("trimmed-squarish 1", 2),
                                         ("section2 1", 1)),), 2)


@pytest.fixture(scope="module")
def report():
    return run.load_report()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload name runs the tiny workload, and digests go to a
    scratch store instead of the checkout's."""
    for name in run.WORKLOADS:
        monkeypatch.setitem(run.WORKLOADS, name, TINY)
    monkeypatch.setattr(run, "DIGEST_STORE", str(tmp_path / "digests.json"))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _result(capsys, *args):
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_named_metric_is_emitted_with_its_unit(tiny, capsys):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        lines, res = _result(capsys, "--workload", "sampler", "--seed", "3",
                             "--seconds", "0", "--trace", str(trace))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        for name, unit in want.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in lines)
        for name, unit in run.REPORTED.items():
            assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                       for line in lines)
        assert any(line.startswith("context ") for line in lines)


def test_seed_reproduces_digests_and_another_seed_changes_them(report):
    first = run.run_rounds(report, "tiny", TINY, 5, rounds=2)
    again = run.run_rounds(report, "tiny", TINY, 5, rounds=2)
    other = run.run_rounds(report, "tiny", TINY, 6, rounds=2)
    digests = [r.digest for r in first.rounds]
    assert digests == [r.digest for r in again.rounds]
    assert set(digests).isdisjoint(r.digest for r in other.rounds)


def test_traced_and_untraced_digests_match(report, tmp_path):
    metrics, passes, _info, problems = run.per_layer(report, "tiny", TINY, 7)
    assert problems == []
    assert len(passes) == 3
    for p in passes[1:]:
        assert [r.digest for r in p.rounds] == [r.digest for r in passes[0].rounds]
    assert run.check_digests("tiny", 7, passes, str(tmp_path / "d.json")) == []
    # the next run of the same seed is checked against the stored digests
    changed = run.Rounds([run.Round(0.0, [], 0, "0" * 64)])
    assert run.check_digests("tiny", 7, [changed], str(tmp_path / "d.json"))
    assert metrics["report.residual_s"] >= 0  # self times never exceed wall time


def test_tracer_times_generators_and_patches_by_name_imports(report):
    from dimerforge import generators, matchings, planar

    originals = (report.enumerate_matchings, planar.PlanarGraph.__dict__["build"])
    tracer = Tracer()
    tracer.install()
    try:
        assert report.enumerate_matchings is not originals[0]
        g = generators.grid_graph(2, 2)
        gen = matchings.enumerate_matchings(g)
        assert tracer.totals()["yielded"]["matchings.enumerate_matchings"] == 0
        assert len(list(gen)) == 2
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["calls"]["matchings.enumerate_matchings"] == 1
    assert totals["yielded"]["matchings.enumerate_matchings"] == 2
    assert totals["calls"]["planar.build"] == 1
    assert totals["scalars"]["instances"] == 1
    assert (report.enumerate_matchings, planar.PlanarGraph.__dict__["build"]) == originals


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "squarish",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert "correct" not in out.stdout
