"""Benchmark: time to a census-checked spectrum, end to end and per layer.

    python3 bench/run.py --workload deep-grid --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

One closed-loop client in one process runs the workload's ops one at a time,
pass after pass, for --seconds. Every pass builds its Problems afresh outside
its timing (set-up cost is measured on its own, as setup_s), and must
reproduce the first pass bit for bit. The first pass's output is checked
against the stored reference census (census.json). Each op's wall time is
also taken in units of a fixed calibration loop run just before and after it
(pass_cal), which cancels most of a shared machine's speed drift; pass_cal is
the gated time and pass_s, in wall seconds, is reported beside it.

With --trace 0 the end-to-end metrics are reported; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are reported. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

The package is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import census as cs
import harness
import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 7
# fewest measured passes a median is taken over (rounds in a traced run)
MIN_PASSES = {0: 3, 1: 2}

# the gated metrics; pass_s and levels_per_s are reported beside them
END_TO_END = {
    "pass_cal": "cal",
    "levels_found_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def setup_time(workload, seed):
    """Import the package and build every op's inputs, in calibration units.

    numpy is imported first: its import cost is the same for every version
    of this program, and it would bury the package's own set-up in its noise.
    """
    import numpy  # noqa: F401

    before = harness.calibration_loop()
    t0 = perf_counter()
    harness.import_package(ROOT)
    harness.prepare(wl.generate(workload, seed), str(BUILD))
    elapsed = perf_counter() - t0
    return elapsed / (0.5 * (before + harness.calibration_loop()))


def setup_samples(workload, seed):
    """Set-up times in reference seconds, one fresh interpreter each."""
    # a fresh interpreter per sample, so the import is never cached
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) * harness.CALIBRATION_SECONDS)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result dict, report lines)."""
    ops = wl.generate(workload, seed)
    setup = setup_samples(workload, seed)
    census = cs.load()
    seed_outputs = harness.load_seed_outputs()
    BUILD.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    tracer = tr.Tracer() if trace else None
    plain, calibrated, traced, layer_passes, op_times = [], [], [], [], []
    reference = checks = unexpected = None
    failed = census_failed = changed = bytes_out = 0

    def tally(outs):
        # every pass must reproduce the first one bit for bit
        nonlocal failed, census_failed
        for out, ref, chk, bad in zip(outs, reference, checks, unexpected):
            same = out == ref
            failed += bad or not same
            census_failed += not chk.ok or not same

    try:
        start = round_start = perf_counter()
        rounds = []
        while True:
            # fresh Problems every pass, so nothing cached on one carries over
            preps = harness.prepare(ops, tmp)
            wall, times, cal, outs = harness.run_pass(preps)
            plain.append(wall)
            calibrated.append(sum(cal))
            op_times.append(times)
            if reference is None:
                reference = outs
                checks = [harness.check(p.op, out, census[p.op.key])
                          for p, out in zip(preps, outs)]
                unexpected = [not c.as_expected(seed_outputs["expected"].get(p.op.key))
                              for p, c in zip(preps, checks)]
                cli_outs = [(p.op.key, out) for p, out in zip(preps, outs) if p.op.kind == "cli"]
                changed = sum(out.digest() != seed_outputs["golden"].get(key)
                              for key, out in cli_outs)
                bytes_out = sum(out.bytes_out() for _, out in cli_outs)
            tally(outs)
            if tracer is not None:
                preps = harness.prepare(ops, tmp)
                problems = [None if p.problem is None else tracer.wrap_problem(p.problem)
                            for p in preps]
                tracer.reset()
                # the rebinding lasts for the traced pass only
                tracer.install()
                try:
                    wall, _, _, outs = harness.run_pass(preps, tracer, problems)
                finally:
                    tracer.uninstall()
                traced.append(wall)
                tally(outs)
                layer_passes.append(tracer.pass_metrics(bytes_out, changed))
            # stop before a round as slow as the slowest so far would overrun
            now = perf_counter()
            rounds.append(now - round_start)
            round_start = now
            if len(rounds) >= MIN_PASSES[trace] and now - start + max(rounds) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(ops) * (len(plain) + len(traced))
    pass_s = statistics.median(plain)
    q1, q3 = _quartiles(plain)
    ref_levels = sum(c.ref for c in checks)
    matched = sum(c.matched for c in checks)
    errs = [c.max_err for c in checks if c.max_err is not None]
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_s,
        "pass_cal": statistics.median(calibrated),
        "levels_per_s": matched / pass_s,
        "levels_found_frac": matched / ref_levels if ref_levels else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    c_q1, c_q3 = _quartiles(calibrated)
    lines = [f"workload {workload}  seed {seed}  {len(ops)} ops per pass, one closed-loop "
             f"client; {len(plain)} timed passes"
             + (f", {len(traced)} traced" if traced else "")]
    lines.append("  op                              median_s  census")
    for i, op in enumerate(ops):
        t = statistics.median(times[i] for times in op_times)
        mark = "" if checks[i].ok else ("  [recorded defect]" if not unexpected[i] else "  [FAILED]")
        lines.append(f"  {op.name + '/' + str(op.variant):31s} {t:8.4f}  "
                     f"{harness.describe(checks[i])}{mark}")
    s_q1, s_q3 = _quartiles(setup)
    lines += [
        "  end-to-end:",
        f"    setup_s            {values['setup_s']:.6f} s      median of {len(setup)}, "
        f"q1 {s_q1:.6f}, q3 {s_q3:.6f}",
        f"    pass_s             {pass_s:.6f} s      median of {len(plain)}, "
        f"q1 {q1:.6f}, q3 {q3:.6f}",
        f"    pass_cal           {values['pass_cal']:.3f} cal    median of {len(plain)}, "
        f"q1 {c_q1:.3f}, q3 {c_q3:.3f}",
        f"    levels_per_s       {values['levels_per_s']:.6f} 1/s    "
        f"{matched} census-correct levels per pass",
        f"    levels_found_frac  {values['levels_found_frac']:.6f}        "
        f"{matched} of {ref_levels} reference levels",
        f"    fail_frac          {census_failed / attempted:.6f}        "
        f"{census_failed} of {attempted} op runs off their census",
        f"    levels_missing     {sum(c.missing for c in checks)} count  per pass",
        f"    levels_spurious    {sum(c.spurious for c in checks)} count  per pass",
        f"    max_err            " + (f"{max(errs):.3e}" if errs else "n/a")
        + f"        over {len(errs)} ops with a closed-form spectrum",
        f"    peak_rss_mb        {values['peak_rss_mb']:.3f} MB",
    ]
    if trace:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = tr.summarize(layer_passes, overhead, tracer.missing)
        lines.append("  per-layer (median of traced passes):")
        lines += [f"    {name:30s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        for layer, name in tracer.missing:
            lines.append(f"    missing layer {layer}: {name} not found; its metrics are left out")
        _write_spans(workload, seed, tracer)
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def _write_spans(workload, seed, tracer):
    # spans of the last traced pass, times relative to its first span
    t0 = min((s[1] for s in tracer.spans), default=0.0)
    path = BUILD / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"spans": [[n, a - t0, b - t0, p] for n, a, b, p in tracer.spans]}, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_time(args.workload, args.seed)))
        return 0
    try:
        harness.import_package(ROOT)
    except ImportError as exc:
        print(f"bench: cannot import boundstates from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, lines = measure(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
