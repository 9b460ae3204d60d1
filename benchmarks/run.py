#!/usr/bin/env python3
"""dimerforge benchmark: time to verdict of ``report.run_suite`` (the
function behind ``dimerforge suite``) on seeded verification workloads, and
a traced per-layer breakdown of the same work.

Run from the repository root:

    python3 benchmarks/run.py --workload squarish --seed 1 --seconds 30 --trace 0

A run calls ``run_suite`` on the workload's configs round after round, each
round with its own suite seed derived from ``--seed``, until ``--seconds``
have passed.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
replays a fixed number of rounds untraced and then twice traced, and prints
the per-layer metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``benchmarks/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGEST_STORE = os.path.join(ROOT, ".bench_state", "digests.json")
SETUP_REPEATS = 7
# On a small shared host the CPU speed can change by a third within seconds
# (measured on a 2-vCPU VM under co-tenant load), so each timed step is
# bracketed by a fixed pure-Python loop and end-to-end times are scaled to
# the speed at which that loop takes CALIBRATION_REF_S.
CALIBRATION_LOOPS = 250_000
CALIBRATION_REF_S = 0.02


@dataclass(frozen=True)
class Workload:
    jobs: int
    configs: tuple[str, ...]  # suite configs, taken in turn by successive rounds
    trace_rounds: int  # rounds replayed by a traced run


def suite_config(*groups: tuple[str, int]) -> str:
    """A config of one-instance check lines; ``run_suite`` gives each line
    its own child seed, so every line is a distinct verified instance."""
    return "".join(f"check {check}\n" for check, n in groups for _ in range(n))


# Per-check costs spread over two decades, so each composition below puts
# many cheap checks, or fixed-cost ones, where the per-check median and 90th
# percentile fall; that keeps those figures from depending on the seed.
_SECTION = (("phi-roundtrip 1", 30), ("section2 1", 10))

WORKLOADS = {
    "squarish": Workload(1, (suite_config(("grid-kasteleyn 3 3", 1), ("bar-squarish 1", 4),
                                          ("trimmed-squarish 1", 100),
                                          ("cycle-parity 1", 40)),), 3),
    # one transport or banded instance every fourth round: about one in five
    # is a hexagon instance that takes seconds, so most rounds stay light and
    # the mean of the middle rounds does not depend on how many a seed draws
    "transport": Workload(1, (suite_config(("transport 1", 1), *_SECTION),
                              *[suite_config(*_SECTION)] * 3,
                              suite_config(("banded 1", 1), *_SECTION),
                              *[suite_config(*_SECTION)] * 3), 8),
    "sampler": Workload(2, (suite_config(("class-weights 1", 1), ("tree-swap 1", 1),
                                         ("independence 1", 1), ("temperley 1", 1),
                                         ("independence-sampled 500", 12)),), 2),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "check_p50_ms": "ms", "check_p90_ms": "ms"}
# Printed but not gated: a correct program has fail_ratio 0, and on transport
# peak RSS is set by which hexagon instances a seed draws (29, 38 or 45 MB).
REPORTED = {"fail_ratio": "ratio", "peak_rss_mb": "MB"}

PER_LAYER = {
    "planar.build.calls": "count",
    "planar.build.self_s": "s",
    "planar.trace_faces.self_s": "s",
    "refine.symmetrize.calls": "count",
    "refine.symmetrize.total_s": "s",
    "refine.symmetrize.builds_per_call": "count/call",
    "refine.self_s": "s",
    "matchings.enumerate_matchings.self_s": "s",
    "matchings.enumerate_matchings.yielded": "count",
    "matchings.count_matchings.calls": "count",
    "matchings.count_matchings.self_s": "s",
    "matchings.kasteleyn_grid_count.self_s": "s",
    "bijections.self_s": "s",
    "bijections.tea_transport.calls": "count",
    "bijections.forced_path_matching.calls": "count",
    "gliding.self_s": "s",
    "gliding.glide.calls": "count",
    "trees.banded.self_s": "s",
    "trees.ust_sample.calls": "count",
    "trees.ust_sample.self_s": "s",
    "trees.make_forest.self_s": "s",
    "trees.enumerate_spanning_trees.self_s": "s",
    "trees.enumerate_spanning_trees.yielded": "count",
    "trees.independence_report.variables": "count",
    "generators.instances": "count",
    "generators.self_s": "s",
    "generators.builds_per_instance": "count/instance",
    "parity.self_s": "s",
    "report.residual_s": "s",
    "report.cores_used": "cores",
    "trace.overhead_s": "s",
}

COUNTS = [name for name, unit in PER_LAYER.items() if unit.startswith("count")]

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dimerforge.report
dimerforge.report.parse_suite_config(sys.argv[2])
print(time.perf_counter() - start)
"""


def round_seed(workload: str, seed: int, rnd: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{rnd}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def calibration_s() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


def load_report():
    """Import ``dimerforge.report`` from this checkout's ``src``, never from
    an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "dimerforge", "report.py")):
        raise SystemExit(f"no dimerforge sources under {SRC}")
    sys.path.insert(0, SRC)
    import dimerforge.report as report
    if not os.path.abspath(report.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dimerforge was imported from {report.__file__}, not {SRC}")
    return report


# ---------------------------------------------------------------------------
# Running rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    wall: float
    check_walls: list[float]
    failed: int
    digest: str
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration around the round


@dataclass
class Rounds:
    rounds: list[Round] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(r.check_walls) for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.rounds)

    @property
    def calibrated_wall(self) -> float:
        return sum(r.wall * r.scale for r in self.rounds)


def run_rounds(report, name: str, wl: Workload, seed: int, *,
               seconds: float | None = None, rounds: int | None = None) -> Rounds:
    """Run the workload's config round after round: exactly ``rounds``
    rounds, or else until ``seconds`` have passed (at least one round)."""
    out = Rounds()
    start = time.perf_counter()
    calib = calibration_s()
    while (len(out.rounds) < rounds if rounds is not None
           else not out.rounds or time.perf_counter() - start < seconds):
        config = wl.configs[len(out.rounds) % len(wl.configs)]
        t = time.perf_counter()
        try:
            rep = report.run_suite(config, jobs=wl.jobs,
                                   seed=round_seed(name, seed, len(out.rounds)))
        except Exception:  # a crash fails every check of the round
            traceback.print_exc()
            lines = config.count("\n")
            out.rounds.append(Round(time.perf_counter() - t, [0.0] * lines, lines, "crashed"))
            continue
        wall = time.perf_counter() - t
        digest = hashlib.sha256(rep.render().encode()).hexdigest()
        before, calib = calib, calibration_s()
        out.rounds.append(Round(wall, [r.wall_time for r in rep.results],
                                sum(not r.passed for r in rep.results), digest,
                                2 * CALIBRATION_REF_S / (before + calib)))
    return out


def check_digests(name: str, seed: int, passes: list[Rounds], store: str | None) -> list[str]:
    """Report digests must agree between passes over the same rounds and
    with every earlier run of this workload and seed recorded in ``store``."""
    problems = []
    known = {}
    if store and os.path.exists(store):
        with open(store, encoding="utf-8") as fh:
            known = json.load(fh)
    for p in passes:
        for i, r in enumerate(p.rounds):
            key = f"{name}:{seed}:{i}"
            if known.setdefault(key, r.digest) != r.digest:
                problems.append(f"round {i}: report digest {r.digest[:12]} differs "
                                f"from {known[key][:12]} of an earlier run")
    if store:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        tmp = store + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, sort_keys=True)
        os.replace(tmp, store)
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def measure_setup(config: str) -> float:
    """Median calibrated time for a fresh interpreter to import dimerforge
    and parse the config."""
    times = []
    calib = calibration_s()
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, config],
                             capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        before, calib = calib, calibration_s()
        times.append(float(out.stdout.split()[-1]) * 2 * CALIBRATION_REF_S / (before + calib))
    return statistics.median(times)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: averages over the host's speed changes
    while ignoring the rare round that draws a seconds-long instance."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.mean(v[cut:len(v) - cut])


def end_to_end(report, name: str, wl: Workload, seed: int, seconds: float):
    setup = measure_setup(wl.configs[0])
    run = run_rounds(report, name, wl, seed, seconds=seconds)
    checks_ms = [w * r.scale * 1000 for r in run.rounds for w in r.check_walls]
    deciles = statistics.quantiles(checks_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": setup,
        "wall_s": interquartile_mean([r.wall * r.scale for r in run.rounds]),
        "check_p50_ms": statistics.median(checks_ms),
        "check_p90_ms": deciles[8],
    }
    info = {"rounds": len(run.rounds), "checks": len(checks_ms),
            "raw_wall_s_median": statistics.median(r.wall for r in run.rounds),
            "host_scale_median": statistics.median(r.scale for r in run.rounds)}
    return metrics, [run], info


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def per_layer(report, name: str, wl: Workload, seed: int):
    from tracing import Tracer, layer_metrics, layer_modules

    layer_modules()  # import outside the timed passes
    cpu, start = _cpu(), time.perf_counter()
    plain = run_rounds(report, name, wl, seed, rounds=wl.trace_rounds)
    cores = (_cpu() - cpu) / (time.perf_counter() - start)
    traced, layers = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run = run_rounds(report, name, wl, seed, rounds=wl.trace_rounds)
        finally:
            tracer.uninstall()
        traced.append(run)
        layers.append(layer_metrics(tracer.totals(), run.wall))
    problems = [f"count {k} differs between traced runs: {layers[0][k]} vs {layers[1][k]}"
                for k in COUNTS if layers[0][k] != layers[1][k]]
    metrics = {k: statistics.mean(m[k] for m in layers) for k in layers[0]}
    metrics.update({k: layers[0][k] for k in COUNTS})
    metrics["report.cores_used"] = cores
    metrics["trace.overhead_s"] = (statistics.mean(r.calibrated_wall for r in traced)
                                   - plain.calibrated_wall)
    info = {"rounds": wl.trace_rounds, "untraced_wall_s": plain.wall,
            "traced_wall_s": [r.wall for r in traced]}
    return metrics, [plain] + traced, info, problems


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def context(seed: int) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "dimerforge")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, fn), "rb") as fh:
                src.update(fn.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "git_sha": sha, "src_sha256": src.hexdigest(), "seed": seed}


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    report = load_report()
    wl = WORKLOADS[args.workload]
    ctx = context(args.seed)
    ctx["loadavg_before"] = loadavg()
    problems = []
    if args.trace:
        metrics, passes, info, problems = per_layer(report, args.workload, wl, args.seed)
        units = PER_LAYER
    else:
        metrics, passes, info = end_to_end(report, args.workload, wl, args.seed,
                                           args.seconds)
        units = END_TO_END
    problems += check_digests(args.workload, args.seed, passes, DIGEST_STORE)
    ctx["loadavg_after"] = loadavg()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if failed:
        problems.append(f"{failed} of {attempted} checks failed or errored")
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)
    print("context " + json.dumps(ctx, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    reported = {"fail_ratio": failed / attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for k, unit in [*units.items(), *REPORTED.items()]:
        print(f"{k} {(metrics | reported)[k]:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
