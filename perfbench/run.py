"""Run one workload of the pragref benchmark and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the program is imported from
`src/`. With `--trace 0` the last line of standard output holds the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run. Earlier lines report the metrics under the names of each
workload's stages and a run manifest. Every result and, for traced runs, the
spans are also written under `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: each workload is one caller in one process, and a single
# thread keeps run-to-run spread low on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = BLAS_THREADS

# Set-up is timed this many times per run, each time in a fresh process;
# setup_s is the median.
SETUP_REPEATS = 5
# Seconds the two probe loops take on the reference machine of the README
# (pure Python, small numpy arrays). Timings are scaled by the probe's
# slowdown against these, so that values stay in the reference machine's units.
PROBE_REFERENCE = (0.0150, 0.0215)


def python_loop() -> float:
    """Seconds of a fixed pure-Python loop."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(150_000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


def numpy_loop() -> float:
    """Seconds of a fixed loop of small numpy operations."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random((32, 100))
    w = rng.random((100, 400)) * 0.1
    start = time.perf_counter()
    for _ in range(250):
        g = x @ w
        x = np.tanh(g[:, :100]) * (1.0 / (1.0 + np.exp(-g[:, 100:200])))
    return time.perf_counter() - start


def probe() -> tuple[float, float]:
    """Seconds of both probe loops, which never call the program.

    They are timed around every timed stage, and their slowdown against
    PROBE_REFERENCE measures how fast the shared host runs at that moment.
    """
    return python_loop(), numpy_loop()


def host_factor(probes, numpy_share: float) -> float:
    """How much slower than the reference the host ran over some probes.

    The weighted geometric mean of the two loops' mean slowdowns:
    `numpy_share` weighs the small-array loop, the rest the pure-Python loop.
    """
    py, arr = (statistics.fmean(p[i] for p in probes) / PROBE_REFERENCE[i] for i in (0, 1))
    return py ** (1.0 - numpy_share) * arr ** numpy_share


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def manifest(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "pragref").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS), "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "started": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                                time.gmtime()),
    }


class StageClock:
    """Times one round's stages, with the host probe taken around each stage."""

    def __init__(self):
        self.seconds: list[float] = []
        self.probes = [probe()]

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds.append(time.perf_counter() - start)
        self.probes.append(probe())
        return result


class Runner:
    """Set-up, timed rounds and checks for one workload in this process."""

    def __init__(self, workload, args):
        self.w = workload
        self.args = args
        # (stage seconds, stage items, host factor) per round, in order
        self.rounds = []
        self.attempted = 0
        self.failed = 0
        # Peak RSS in MB after set-up and round 0, whose inputs do not depend
        # on the seed: a figure of the code, not of the seed or the timing.
        self.rss_mb = None
        self.probes = []        # probe times around each round's stages

    def setup_samples(self) -> list[tuple[float, float]]:
        """(seconds, scaled seconds) of each set-up, each in a fresh process.

        A sample covers importing numpy and every pragref module and the
        workload's set-up, first calls included.
        """
        a = self.args
        command = [sys.executable, str(HERE / "run.py"), "--workload", a.workload,
                   "--seed", str(a.seed), "--seconds", "0", "--size", a.size,
                   "--setup-only"]
        samples = []
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(command, capture_output=True, text=True, timeout=150,
                                  check=True)
            sample = json.loads(done.stdout.strip().splitlines()[-1])
            factor = host_factor(sample["probes"], self.w.PROBE_NUMPY_SHARE)
            samples.append((sample["seconds"], sample["seconds"] / factor))
        return samples

    def one_round(self, index: int, tracer=None) -> None:
        inputs = self.w.prepare(index)
        gc.collect()
        clock = StageClock()
        if tracer is not None:
            tracer.install()
        try:
            result = self.w.run(inputs, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.failed += self.w.check(inputs, result.outputs, full=index == 0)
        self.attempted += sum(result.items) + self.w.EXTRA_OPS
        factor = host_factor(clock.probes, self.w.PROBE_NUMPY_SHARE)
        self.rounds.append((clock.seconds, result.items, factor))
        self.probes.append(clock.probes)
        if index == 0:
            self.rss_mb = peak_rss_mb()

    def loop(self, seconds: float) -> int:
        """Closed loop: whole rounds until `seconds` have passed; returns the count."""
        start = time.perf_counter()
        count = 0
        while count == 0 or time.perf_counter() - start < seconds:
            self.one_round(count)
            count += 1
        return count


def end_to_end(runner: Runner, setup: list) -> tuple[dict, list[str]]:
    """Medians over the run's rounds of the scaled stage rates, and report lines."""
    w = runner.w
    values = {"setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
              "peak_rss_mb": (runner.rss_mb, "MB")}
    lines = []
    for k, (name, unit) in enumerate(w.STAGES):
        rate = statistics.median(items[k] / seconds[k] * factor
                                 for seconds, items, factor in runner.rounds)
        raw = statistics.median(items[k] / seconds[k] for seconds, items, _ in runner.rounds)
        values[f"stage{k + 1}_per_s"] = (rate, "1/s")
        lines.append(f"{w.name} stage{k + 1}_per_s = {name} {rate:.6g} {unit} "
                     f"(unscaled {raw:.6g})")
    raw = statistics.median(seconds for seconds, _ in setup)
    lines.append(f"{w.name} setup_s = {values['setup_s'][0]:.4g} s (unscaled {raw:.4g})")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    return metrics, lines


def _round_seconds(rounds) -> float:
    """Median over rounds of the round's stage seconds, scaled by the probe."""
    return statistics.median(sum(seconds) / factor for seconds, _, factor in rounds)


def traced(runner: Runner, seconds: float, results: Path, tag: str) -> dict:
    """Untraced rounds for half the time, then the same rounds traced."""
    from tracing import PER_LAYER, Tracer, layer_metrics

    count = runner.loop(seconds / 2)
    untraced = _round_seconds(runner.rounds)
    tracer = Tracer()
    for index in range(count):
        runner.one_round(index, tracer)
    traced_s = _round_seconds(runner.rounds[count:])
    tracer.write_spans(results / f"spans-{tag}.jsonl")
    values = layer_metrics(tracer, count, untraced, traced_s)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def setup_only(args, workdir: Path) -> int:
    """Time one cold set-up in this fresh process; print it with its probes.

    The probes run here and not in the parent, since the two processes may
    run on different CPUs, whose speeds vary apart. The small-array loop
    needs numpy, which the set-up is timed importing, so before the set-up
    only the pure-Python loop runs.
    """
    before = python_loop()
    start = time.perf_counter()
    from workloads import SIZES, WORKLOADS

    WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir).setup()
    seconds = time.perf_counter() - start
    after = probe()
    print(json.dumps({"seconds": seconds, "probes": [(before, after[1]), after]}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used by set-up timing)")
    args = parser.parse_args(argv)

    if not (SRC / "pragref" / "__init__.py").is_file():
        print(f"error: no pragref sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    results = HERE / "results"
    workdir = results / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        return setup_only(args, workdir)

    from references import CheckFailed
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    runner = Runner(WORKLOADS[args.workload](args.seed, SIZES[args.size], workdir), args)
    correct = True
    error = None
    setup, lines = [], []
    try:
        if not args.trace:
            setup = runner.setup_samples()
        runner.w.setup()
        runner.w.check_setup()
        if args.trace:
            metrics = traced(runner, args.seconds, results, tag)
        else:
            runner.loop(args.seconds)
            metrics, lines = end_to_end(runner, setup)
    except CheckFailed as exc:
        correct, error, metrics, lines = False, str(exc), {}, []
    for path in workdir.iterdir():
        path.unlink()

    info = manifest(args)
    result = {"correct": correct, "attempted": max(runner.attempted, 1),
              "failed": runner.failed, "metrics": metrics}
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": info, "rounds": len(runner.rounds), "setup": setup,
                   "round0_rss_mb": runner.rss_mb, "final_rss_mb": peak_rss_mb(),
                   "error": error, "result": result,
                   "round_seconds": [seconds for seconds, _, _ in runner.rounds],
                   "round_items": [items for _, items, _ in runner.rounds],
                   "round_factors": [factor for _, _, factor in runner.rounds],
                   "round_probes": runner.probes},
                  fh, indent=1)
    for line in lines:
        print(line)
    if error:
        print(f"check failed: {error}")
    print(f"{args.workload} rounds = {len(runner.rounds)}, attempted = {runner.attempted}, "
          f"failed = {runner.failed}, peak RSS at the end = {peak_rss_mb():.1f} MB")
    print("manifest " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
