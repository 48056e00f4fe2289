"""Benchmark of the bqaoa pipeline: one workload, one seed, one process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 30 --trace 0

The workloads (``sweep-n5``, ``noisy-n8``, ``qpt-edge``) are described in
``workloads.py``.  A run generates the workload's inputs from ``--seed``,
sets up several times, then repeats identical passes over those inputs
for ``--seconds`` seconds, checking every output row of every pass.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
set-up: fresh-interpreter import of the package, ``load_device``, input
generation and parsing, one warm-up call), ``pass_cpu_p75_s`` (upper
quartile of the passes) and ``peak_rss_mb``.  Times are CPU seconds of
this single-threaded process.  On the small shared virtual machines this
was built on, the host takes the CPU away for stretches (which moves wall
time by 20 % from run to run) and, in bursts of seconds, lets it run up to
40 % faster; a pass's CPU time excludes the first, and the upper quartile
of the passes is the machine's usual speed rather than a burst.  The
median pass wall time is printed as ``wall_s`` beside them.

With ``--trace 1`` every pass is traced, and it reports the per-layer
metrics of ``tracer.layer_metrics`` (span times are wall times) plus
``trace.overhead_s``: the spans of a pass times what one tracing wrapper
adds to a call, timed on a no-op.  The spans are written to
``perfbench/out/``.  Each metric carries the unit BENCHMARK.json declares
for it.  The last line of standard output is the result JSON;
``failed / attempted`` is the fraction of output rows that raised or
failed a check.  The run record printed before it counts the matrices
checked and the rows compared with golden values.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# One BLAS thread: the benchmark is a single caller with jobs=1, and on a
# small shared machine a second BLAS thread made n=8 passes slower and less
# steady.  Set before numpy loads; an explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402  (loads numpy)
import inputs  # noqa: E402
from tracer import Tracer, layer_metrics, patched, wrapper_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 3
#: Every pass is compared with the first, so a run makes at least two.
MIN_PASSES = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import bqaoa.optimize, bqaoa.sim, bqaoa.device; print(time.process_time() - t)"
)


def import_seconds() -> float:
    """CPU time a fresh interpreter spends importing the package."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.strip())


def git_commit() -> str | None:
    """HEAD of the checkout, or None if it is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_record(workload: str, seed: int, digest: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "inputs_sha256": digest,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": sum(
            len(path.read_text().splitlines()) for path in SRC.rglob("*.py")
        ),
    }


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2]


class Passes:
    """Timed passes of one workload, each checked against the first."""

    def __init__(self, wl, state, capture, oracles, golden):
        self.wl, self.state, self.capture = wl, state, capture
        self.oracles, self.golden = oracles, golden
        #: when set, run_pass (and not the checks) runs under this tracer
        self.tracer = None
        self.reference: str | None = None
        self.attempted = 0
        self.golden_compared = 0
        self.failures: list[str] = []

    def measure(self, seconds: float) -> tuple[list[float], list[float]]:
        """Passes for about ``seconds`` of wall time: the wall and CPU time of each."""
        walls: list[float] = []
        cpus: list[float] = []
        deadline = time.perf_counter() + seconds
        while True:
            wall, cpu = self.one()
            walls.append(wall)
            cpus.append(cpu)
            if len(walls) >= MIN_PASSES and time.perf_counter() + statistics.median(
                walls
            ) > deadline:
                return walls, cpus

    def one(self) -> tuple[float, float]:
        self.capture.clear()
        traced = self.tracer.instrument() if self.tracer else contextlib.nullcontext()
        with traced:
            start, start_cpu = time.perf_counter(), time.process_time()
            try:
                rows, text = self.wl.run_pass(self.state)
            except Exception:
                rows = None
            times = time.perf_counter() - start, time.process_time() - start_cpu
        if rows is None:
            self.attempted += 1
            self.failures.append("pass raised: " + traceback.format_exc(limit=3))
            return times
        problems, compared = self.wl.check(
            self.state, rows, self.capture, self.oracles, self.golden
        )
        self.golden_compared += compared
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems = [p or "output differs from the first pass" for p in problems]
        self.attempted += len(rows)
        self.failures.extend(p for p in problems if p)
        return times


def load_golden(path: Path | None, workload: str, seed: int, digest: str):
    """The golden record of (workload, seed) in ``path``, or None, with a status."""
    if path is None or not path.is_file():
        return None, "no golden file"
    entry = json.loads(path.read_text()).get(workload, {}).get(str(seed))
    if entry is None:
        return None, "seed not recorded"
    if entry["inputs_sha256"] != digest:
        raise SystemExit(
            f"golden inputs for {workload} seed {seed} differ from the generated ones"
        )
    return entry, "checked"


def run(wl, seed: int, seconds: float, trace: int, golden_path: Path | None = GOLDEN):
    """Set up ``wl`` and measure it; returns (result, run record).

    The result holds ``correct``, ``attempted``, ``failed`` and ``metrics``
    (name -> (value, unit)).
    """
    units = declared_units()
    oracles = checks.load_oracles(ROOT)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.process_time()
        docs = wl.generate(seed)
        state = wl.setup(docs)
        setup_samples.append(imported + time.process_time() - start)
    digest = inputs.digest(docs)
    golden, golden_status = load_golden(golden_path, wl.name, seed, digest)

    capture = checks.Capture()
    with patched(capture.replacements()):
        passes = Passes(wl, state, capture, oracles, golden)
        if trace == 0:
            walls, cpus = passes.measure(seconds)
            values = {
                "setup_s": statistics.median(setup_samples),
                "pass_cpu_p75_s": upper_quartile(cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            tracer = Tracer(f"{wl.name}-seed{seed}")
            with tracer.instrument():
                wl.setup(docs)
            load_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "device.load_device")
            tracer.clear()
            passes.tracer = tracer
            walls, cpus = passes.measure(seconds)
            tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
            values = layer_metrics(tracer, len(walls), sum(walls))
            values["device.load_s"] = load_s
            values["trace.overhead_s"] = len(tracer.spans) / len(walls) * wrapper_cost()
    metrics = {name: (value, units[name]) for name, value in values.items()}

    result = {
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": metrics,
    }
    record = run_record(wl.name, seed, digest) | {
        "golden": golden_status,
        "matrices_checked": capture.checked,
        "golden_rows_compared": passes.golden_compared,
        "setup_cpu_s": setup_samples,
        "pass_cpu_s": cpus,
        "pass_wall_s": walls,
        "failures": passes.failures[:20],
    }
    return result, record


def report(result: dict, record: dict) -> None:
    """Print the run record, each metric with its unit, and the result JSON last."""
    print("record " + json.dumps(record))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(f"wall_s {statistics.median(record['pass_wall_s'])!r} s")
    print(f"fail_frac {result['failed'] / result['attempted']!r} 1")
    print(f"golden_rows_compared {record['golden_rows_compared']} of {result['attempted']}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result | {"metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bqaoa" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        print(f"no bqaoa source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2
    use_source_tree()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    report(*run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace))
    return 0


def use_source_tree() -> None:
    """Import bqaoa from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    # several shipped qubits have T2 > 2*T1; the clamp warning is not news here
    warnings.filterwarnings("ignore", message=r"qubit \d+: T2=.*")


if __name__ == "__main__":
    sys.exit(main())
