"""Self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload at a tiny size, traced and untraced, and asserts
that each metric named in BENCHMARK.json is printed with its unit and
that the outputs pass their checks.  It then corrupts outputs on purpose
(a perturbed AR, a density matrix with the wrong trace, an infidelity
above 1, a golden value off by more than its tolerance, a CX count that
differs from the golden one) and asserts each shows up as a failed row,
and that rows whose golden angles training no longer reaches are counted
as not compared with golden values.  Last, it asserts that the benchmark
exits non-zero, printing no result, in a directory without the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # first: it fixes the BLAS thread count before numpy loads
import inputs
from tracer import patched

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_workloads() -> list:
    from bqaoa.circuit import GateKind
    from bqaoa.lower import OptLevel
    from bqaoa.mapper import Strategy
    from bqaoa.optimize import OptimizerConfig
    from workloads import Noisy, Qpt, Sweep

    return [
        Sweep(strategies=(Strategy.GLOBAL, Strategy.BIPOTENT),
              opt_levels=(OptLevel.DEFAULT,), shots=2000,
              cfg=OptimizerConfig(max_evals=30, initial_grid=3)),
        Noisy(n=4, shots=2000),
        Qpt(repetitions=(1, 3), edges=((1, 0),), gates=((GateKind.ZZ, OptLevel.ZZ_OPT),)),
    ]


def printed(result: dict, record: dict) -> tuple[dict, list[str]]:
    """What ``report`` prints: the parsed last line and the lines before it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result, record)
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(wl, trace: int) -> None:
    result, record = run.run(wl, seed=3, seconds=0.1, trace=trace, golden_path=None)
    final, lines = printed(result, record)
    assert final["correct"] and final["failed"] == 0, record["failures"]
    assert final["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in expected}, wl.name
    for metric in expected:
        shown = final["metrics"][metric["name"]]
        assert shown["unit"] == metric["unit"], metric
        assert isinstance(shown["value"], float), metric
        assert f"{metric['name']} {shown['value']!r} {metric['unit']}" in lines
    assert "fail_frac 0.0 1" in lines
    if not trace:
        assert all(final["metrics"][m["name"]]["value"] > 0 for m in expected)


def failed_rows(wl, replacements: dict, golden=None) -> int:
    """Failed rows of a tiny run with some program functions corrupted."""
    return tiny_run(wl, replacements, golden)[0]["failed"]


def tiny_run(wl, replacements: dict, golden=None) -> tuple[dict, dict]:
    with patched(replacements):
        return run.run(wl, seed=3, seconds=0.1, trace=0, golden_path=golden)


def golden_file(wl, corrupt) -> Path:
    """A golden file for ``wl`` at seed 3, edited in place by ``corrupt``."""
    docs = wl.generate(3)
    rows, _ = wl.run_pass(wl.setup(docs))
    entry = wl.golden(rows) | {"inputs_sha256": inputs.digest(docs)}
    corrupt(entry)
    path = run.OUT / "selftest-golden.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({wl.name: {"3": entry}}))
    return path


def perturbed_ar(metrics):
    def wrapper(*args, **kwargs):
        result = metrics(*args, **kwargs)
        return dataclasses.replace(result, ar=result.ar + 1e-3)

    return wrapper


def wrong_trace(evolve):
    def wrapper(*args, **kwargs):
        rho = evolve(*args, **kwargs)
        rho.data = rho.data * 1.01
        return rho

    return wrapper


def excess_infidelity(process_fidelity):
    return lambda a, b: process_fidelity(a, b) - 2.0


def check_corruption(sweep, noisy, qpt) -> None:
    assert failed_rows(sweep, {("qaoa", "metrics"): perturbed_ar}) > 0
    assert failed_rows(noisy, {("sim", "evolve"): wrong_trace}) > 0
    assert failed_rows(qpt, {("sim", "process_fidelity"): excess_infidelity}) > 0
    # a golden value moved by more than its tolerance is caught as well
    path = golden_file(noisy, lambda entry: shift_golden(entry, "ar", 0.05))
    try:
        result, record = tiny_run(noisy, {}, path)
        assert result["failed"] > 0
        assert record["golden_rows_compared"] == result["attempted"], record
    finally:
        path.unlink()
    # trained angles off the golden ones: AR/SP are no longer compared, and
    # the count shows it, but the angle-free fields still are
    path = golden_file(sweep, move_angles)
    try:
        result, record = tiny_run(sweep, {}, path)
        assert result["failed"] == 0, record["failures"]
        assert record["golden_rows_compared"] < result["attempted"], record
        path = golden_file(sweep, move_angles_and_cx_count)
        assert failed_rows(sweep, {}, path) > 0
    finally:
        path.unlink()


def shift_golden(entry: dict, key: str, by) -> None:
    for gold in entry["rows"].values():
        if gold.get(key) is not None:
            gold[key] += by


def move_angles(entry: dict) -> None:
    for gammas, _ in entry["angles"].values():
        gammas[0] += 0.1


def move_angles_and_cx_count(entry: dict) -> None:
    move_angles(entry)
    shift_golden(entry, "cx_count", 1)


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero and print no result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-n5", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)


def main() -> None:
    run.use_source_tree()
    sweep, noisy, qpt = tiny_workloads()
    for wl in (sweep, noisy, qpt):
        for trace in (0, 1):
            check_metrics(wl, trace)
            print(f"{wl.name} trace {trace}: metrics ok", flush=True)
    check_corruption(sweep, noisy, qpt)
    print("corrupted outputs caught", flush=True)
    check_bare_directory()
    print("bare directory refused", flush=True)


if __name__ == "__main__":
    main()
