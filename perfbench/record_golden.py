"""Record golden outputs of every workload for a range of seeds.

Run from the root of a checkout whose outputs are trusted::

    python3 perfbench/record_golden.py 0 15

One checked pass per workload and seed; the entries for those seeds in
``perfbench/golden.json`` are replaced.  ``run.py`` compares every pass of
a recorded seed with them.
"""

from __future__ import annotations

import json
import sys

import run  # first: it fixes the BLAS thread count before numpy loads
import checks
import inputs
from tracer import patched


def main(first: int, last: int) -> None:
    run.use_source_tree()
    from workloads import WORKLOADS

    golden = json.loads(run.GOLDEN.read_text()) if run.GOLDEN.is_file() else {}
    oracles = checks.load_oracles(run.ROOT)
    for wl in WORKLOADS.values():
        for seed in range(first, last + 1):
            docs = wl.generate(seed)
            state = wl.setup(docs)
            capture = checks.Capture()
            with patched(capture.replacements()):
                rows, _ = wl.run_pass(state)
            messages, _ = wl.check(state, rows, capture, oracles, None)
            problems = [p for p in messages if p]
            if problems:
                raise SystemExit(f"{wl.name} seed {seed}: {problems[0]}")
            entry = {"inputs_sha256": inputs.digest(docs)} | wl.golden(rows)
            golden.setdefault(wl.name, {})[str(seed)] = entry
            print(f"{wl.name} seed {seed}: {len(rows)} rows", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
