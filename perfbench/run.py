#!/usr/bin/env python3
"""hpid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Repeats whole rounds of the
workload's operations in this one process for about S seconds, checks
every output against the independent computations in oracle.py, and
prints one JSON object as the last line of standard output:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

import os

# one thread of numeric work: cap the BLAS pools before numpy loads, and
# leave hpid's worker setting out of the environment
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HPID_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7  # cold set-ups timed per run; the median is reported


@dataclass
class Round:
    index: int
    wall: float
    latencies: list  # seconds per operation
    results: list  # (exit code, payload) per operation
    prints: list  # fingerprint of each operation's outputs


def measure_setup(configs) -> float:
    """Median over fresh interpreters of importing hpid and parsing the configs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for k in range(SETUP_REPEATS + 1):  # the first one fills the bytecode cache and is dropped
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *map(str, configs)],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if k:
            samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_rounds(ops, rundir: Path, budget: float, first: int) -> list:
    """Whole rounds until another one would overrun the budget (at least one).

    Outputs are fingerprinted between rounds, outside the timed span.
    Round 0's directory is kept for the independent checks; later ones
    are deleted once fingerprinted.
    """
    from workloads import fingerprint

    rounds = []
    start = time.perf_counter()
    while True:
        k = first + len(rounds)
        out = rundir / f"round{k}"
        out.mkdir()
        latencies, results = [], []
        t_round = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                result = op.run(out)
            except Exception as exc:  # an operation that raises counts as failed, the run goes on
                result = (-1, f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            results.append(result)
        wall = time.perf_counter() - t_round
        rounds.append(Round(k, wall, latencies, results, [fingerprint(op, out, res) for op, res in zip(ops, results)]))
        if k:
            shutil.rmtree(out)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in rounds) > budget:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hpid" / "__init__.py").is_file():
        print(f"error: no hpid sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import hpid.cli  # noqa: F401  (the program under test, loaded before timing)
    from tracer import Tracer
    from workloads import WORKLOADS

    if not Path(hpid.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported hpid from {hpid.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    rundir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "configs").mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed & 0xFFFFFFFF, rundir / "configs")
        ops = workload.ops()
        if args.trace:
            untraced = run_rounds(ops, rundir, args.seconds / 3.0, 0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(ops, rundir, args.seconds - sum(r.wall for r in untraced), len(untraced))
            finally:
                tracer.uninstall()
            rounds = untraced + traced
        else:
            setup_s = measure_setup(workload.configs)
            rounds = run_rounds(ops, rundir, args.seconds, 0)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # an operation fails in round 0 on a non-zero exit or a failed check, and
        # in a later round also when its outputs differ from round 0's
        first = rounds[0]
        problems = workload.check(rundir / "round0", first.results)
        for op, found, (code, payload) in zip(ops, problems, first.results):
            for line in found + ([f"exit code {code}: {payload}"] if code else []):
                print(f"FAIL {op.name}: {line}", file=sys.stderr)
        good = [not found and code == 0 for found, (code, _) in zip(problems, first.results)]
        failed = 0
        for rnd in rounds:
            for i, op in enumerate(ops):
                same = rnd.prints[i] == first.prints[i]
                failed += not (good[i] and same)
                if not same:
                    print(f"FAIL {op.name} round {rnd.index}: output differs from round 0", file=sys.stderr)
        attempted = len(rounds) * len(ops)

        if args.trace:
            per_round = {k: v / len(traced) for k, v in tracer.layer_metrics().items()}
            per_round["trace.overhead_s"] = mean_wall(traced) - mean_wall(untraced)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in per_round.items()}
        else:
            wall = mean_wall(rounds)
            commands = [t for rnd in rounds for t, op in zip(rnd.latencies, ops) if op.command]
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall, "unit": "s"},
                "channel_steps_per_s": {"value": workload.channel_steps / wall, "unit": "1/s"},
                "command_p50_s": {"value": statistics.median(commands), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(ops)} operations")
    print("  round wall times (s): " + " ".join(f"{r.wall:.3f}" for r in rounds))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def mean_wall(rounds) -> float:
    """The timed span of the rounds per round.

    On a shared host whose speed drifts, the mean spreads less from run to
    run than the median of a run's few rounds does.
    """
    return sum(r.wall for r in rounds) / len(rounds)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


if __name__ == "__main__":
    sys.exit(main())
