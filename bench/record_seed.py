"""Record the program's seed outcome for every op variant.

    python3 bench/record_seed.py

Runs every variant of every op once against the census and writes
seed_outputs.json:

- expected: the level census of each known-defect op (KNOWN_DEFECTS), so a
  run can tell a recorded defect from a new one;
- golden: sha256 of each CLI op's stdout and written files, so byte changes
  in the CSV are counted (cli.outputs_changed) without failing the op.

Every op outside KNOWN_DEFECTS must pass its census, or nothing is written.
Rerun only on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import census as cs
import harness
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def main():
    harness.import_package(ROOT)
    census = cs.load()
    expected, golden, failures = {}, {}, []
    scratch = ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for workload in wl.WORKLOADS:
            ops = wl.all_ops(workload)
            _, times, _, outputs = harness.run_pass(harness.prepare(ops, tmp))
            for op, dt, out in zip(ops, times, outputs):
                chk = harness.check(op, out, census[op.key])
                print(f"{op.key:34s} {dt:6.2f}s  {harness.describe(chk)}", flush=True)
                if op.kind == "cli":
                    golden[op.key] = out.digest()
                if op.name in wl.KNOWN_DEFECTS:
                    expected[op.key] = {"missing": chk.missing, "spurious": chk.spurious}
                    if chk.problems:
                        failures.append(op.key)
                elif not chk.ok:
                    failures.append(op.key)
    if failures:
        sys.exit(f"ops failing outside the known defects: {failures}")
    with open(harness.SEED_OUTPUTS_PATH, "w") as fh:
        json.dump({"about": "seed outcomes per op variant; rerun with "
                            "python3 bench/record_seed.py",
                   "expected": expected, "golden": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
