"""Running ops and scoring their output against the census.

Solve ops call ``boundstates.find_eigenvalues`` on a prepared Problem. CLI
ops call ``boundstates.cli.main`` in-process with stdout and stderr captured;
their CSV is parsed and checked against the census, never compared byte for
byte (byte differences from the seed's outputs are only counted).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import census as cs
import workloads as wl

SEED_OUTPUTS_PATH = Path(__file__).with_name("seed_outputs.json")


@dataclass(frozen=True)
class Prepared:
    """An op with its inputs built: a Problem, or an argv."""

    op: wl.Op
    problem: object = None
    argv: tuple = ()
    dump: str | None = None


@dataclass(frozen=True)
class Output:
    """What one op returned; equal outputs are bit-identical."""

    raised: str | None = None
    energies: tuple = ()
    code: int | None = None
    stdout: str = ""
    files: tuple = ()  # (name, bytes) pairs

    def digest(self):
        """sha256 of the stdout and of every written file."""
        out = {"stdout": hashlib.sha256(self.stdout.encode()).hexdigest()}
        for name, data in self.files:
            out[name] = hashlib.sha256(data).hexdigest()
        return out

    def bytes_out(self):
        return len(self.stdout.encode()) + sum(len(data) for _, data in self.files)


@dataclass(frozen=True)
class Check:
    """An op's output scored against its census entry."""

    ref: int
    matched: int
    missing: int
    spurious: int
    max_err: float | None  # against a closed-form spectrum only
    problems: tuple = ()  # failed checks other than the level census

    @property
    def ok(self):
        return not self.problems and self.missing == 0 and self.spurious == 0

    def as_expected(self, expected):
        """True when the op is no worse than its recorded seed outcome."""
        if self.ok:
            return True
        return (expected is not None and not self.problems
                and self.missing <= expected["missing"]
                and self.spurious <= expected["spurious"])


def import_package(root):
    """Import boundstates from root/src and nowhere else."""
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    import boundstates
    import boundstates.cli  # noqa: F401  (the CLI ops' entry point)

    where = Path(boundstates.__file__).resolve().parent.parent
    if where != src:
        raise ImportError(f"boundstates was imported from {where}, not from {src}")
    return boundstates


def load_seed_outputs():
    with open(SEED_OUTPUTS_PATH) as fh:
        return json.load(fh)


def prepare(ops, tmpdir):
    """Build every op's Problem or argv; CLI files go under tmpdir."""
    out = []
    for op in ops:
        if op.kind == "solve":
            out.append(Prepared(op, problem=wl.build_problem(op)))
        else:
            dump = (os.path.join(tmpdir, f"{op.name}-{op.variant}.csv")
                    if wl.DUMP in op.param("argv") else None)
            out.append(Prepared(op, argv=tuple(wl.cli_argv(op, dump)), dump=dump))
    return out


def run_op(prep, problem=None, tracer=None):
    """Execute one op; exceptions become an Output with `raised` set."""
    op = prep.op
    if op.kind == "solve":
        import boundstates as bs

        kwargs = dict(method=op.param("method"), energy_range=op.param("window"),
                      n_probe=op.param("n_probe"))
        problem = prep.problem if problem is None else problem
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                if tracer is None:
                    results = bs.find_eigenvalues(problem, **kwargs)
                else:
                    results = tracer.solve(bs.find_eigenvalues, problem, **kwargs)
            except Exception as exc:  # an op failure is a measured outcome
                return Output(raised=f"{type(exc).__name__}: {exc}")
        return Output(energies=tuple(r.energy for r in results))

    from boundstates import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                code = cli.main(list(prep.argv))
            else:
                with tracer.span("cli"):
                    code = cli.main(list(prep.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            return Output(raised=f"{type(exc).__name__}: {exc}")
    return Output(code=0 if code is None else code, stdout=stdout.getvalue())


def _collect_files(prep, output):
    if prep.dump is None or output.raised is not None:
        return output
    try:
        with open(prep.dump, "rb") as fh:
            data = fh.read()
        os.remove(prep.dump)
    except FileNotFoundError:
        data = b""
    return Output(code=output.code, stdout=output.stdout, files=(("dump", data),))


# typical duration of calibration_loop() on the machine the baseline was
# taken on; it turns calibration units back into reference seconds
CALIBRATION_SECONDS = 0.0017


def calibration_loop(steps=4000):
    """Seconds one fixed pure-Python march takes right now.

    It stands in for the machine's momentary speed: a first-order sweep of a
    cosh^-2 well with one function call per step, the same kind of work as
    the solver's inner loop but none of its code.
    """
    def v(x):
        return -1.0 / math.cosh(x) ** 2

    y, p, h = 1.0, 0.0, 0.001
    ys = [0.0] * steps
    t0 = perf_counter()
    for j in range(steps):
        g = 2.0 * v(j * h) + 1.0
        y, p = y + h * p, p + h * g * y
        ys[j] = y
    return perf_counter() - t0


def run_pass(preps, tracer=None, problems=None):
    """One pass over the ops.

    Returns (wall seconds, per-op seconds, per-op calibrated time, outputs).
    Each op's calibrated time is its wall time over the mean of the
    calibration loops run just before and just after it, so a machine that
    slows down for a while slows both alike.
    """
    outputs = []
    op_times = []
    cal = [calibration_loop()]
    wall = 0.0
    for i, prep in enumerate(preps):
        t0 = perf_counter()
        outputs.append(run_op(prep, None if problems is None else problems[i], tracer))
        op_times.append(perf_counter() - t0)
        wall += op_times[-1]
        cal.append(calibration_loop())
    calibrated = [t / (0.5 * (cal[i] + cal[i + 1])) for i, t in enumerate(op_times)]
    return wall, op_times, calibrated, [_collect_files(p, o) for p, o in zip(preps, outputs)]


# --- checking --------------------------------------------------------------

def _csv(text):
    lines = text.splitlines()
    meta = {}
    for line in lines:
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            meta[key.strip()] = value.strip()
    table = [line.split(",") for line in lines if line and not line.startswith("#")]
    if not table:
        return meta, [], []
    return meta, table[0], table[1:]


def _sign_cells(energies, values):
    # consecutive non-empty cells whose values change sign
    pts = [(e, float(v)) for e, v in zip(energies, values) if v != ""]
    return [(a, b) for (a, fa), (b, fb) in zip(pts, pts[1:])
            if fa != 0.0 and (fa < 0) != (fb < 0)]


def _scan_census(rows, header, levels):
    energies = [float(r[0]) for r in rows]
    cells = []
    for col in ("F_wm_even", "F_wm_odd"):
        j = header.index(col)
        cells += _sign_cells(energies, [r[j] for r in rows])
    unused = list(cells)
    matched = 0
    for level in levels:
        hit = next((c for c in unused if c[0] < level <= c[1]), None)
        if hit is not None:
            unused.remove(hit)
            matched += 1
    return cs.Match(matched, len(levels) - matched, len(unused), 0.0)


def _dump_problems(data, n_levels, rows_expected):
    import numpy as np

    _, header, rows = _csv(data.decode())
    problems = []
    if header != ["x"] + [f"psi_{i}" for i in range(n_levels)]:
        problems.append(f"dump header {header[:6]}")
        return problems
    if len(rows) != rows_expected:
        problems.append(f"dump has {len(rows)} rows, expected {rows_expected}")
    table = np.array(rows, dtype=float)
    x = table[:, 0]
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    for i in range(n_levels):
        norm = trapezoid(table[:, i + 1] ** 2, x)
        if abs(norm - 1.0) > cs.NORM_TOL:
            problems.append(f"psi_{i} norm {norm!r}")
    return problems


def check(op, output, entry):
    """Score one op's output against its census entry."""
    levels = entry["levels"]
    if output.raised is not None:
        return Check(len(levels), 0, len(levels), 0, None, (f"raised {output.raised}",))
    exact = entry["source"] == "exact"
    if op.kind == "solve":
        m = cs.match_levels(levels, output.energies, entry["tol"], entry["disputed"])
        return Check(len(levels), m.matched, m.missing, m.spurious,
                     m.max_err if exact and m.matched else None)
    try:
        return _check_cli(op, output, entry, exact)
    except (ValueError, IndexError) as exc:
        return Check(len(levels), 0, len(levels), 0, None, (f"unparseable output: {exc}",))


def _check_cli(op, output, entry, exact):
    levels = entry["levels"]
    problems = []
    if output.code != 0:
        problems.append(f"exit code {output.code}")
    meta, header, rows = _csv(output.stdout)
    command = op.param("argv")[0]
    returned = []
    if command == "scan":
        if len(rows) != entry["rows"]:
            problems.append(f"scan has {len(rows)} rows, expected {entry['rows']}")
        if rows and {"F_wm_even", "F_wm_odd"} <= set(header):
            match = _scan_census(rows, header, levels)
        else:
            problems.append(f"scan header {header}")
            match = cs.Match(0, len(levels), 0, 0.0)
    elif command == "saturate":
        if len(rows) != entry["rows"]:
            problems.append(f"saturate has {len(rows)} rows, expected {entry['rows']}")
        for footer, key in (("limit_ratio_wm", "limit_wm"), ("limit_ratio_cfm", "limit_cfm")):
            got = float(meta.get(footer, "nan"))
            ref = entry[key]
            if not abs(got - ref) <= entry["rtol"] * max(1.0, abs(ref)):
                problems.append(f"{key} {got!r} against {ref!r}")
        match = cs.Match(0, 0, 0, 0.0)
    else:
        column = "energy" if command == "solve" else "engine"
        if column in header:
            j = header.index(column)
            returned = [float(r[j]) for r in rows if r[j] != ""]
        else:
            problems.append(f"no {column} column")
        match = cs.match_levels(levels, returned, entry["tol"], entry["disputed"])
    for _, data in output.files:
        problems += _dump_problems(data, len(returned), entry["rows"])
    max_err = match.max_err if exact and returned and match.matched else None
    return Check(len(levels), match.matched, match.missing, match.spurious, max_err,
                 tuple(problems))


def describe(check):
    parts = [f"{check.matched}/{check.ref} levels"]
    if check.missing:
        parts.append(f"{check.missing} missing")
    if check.spurious:
        parts.append(f"{check.spurious} spurious")
    if check.max_err is not None:
        parts.append(f"max_err {check.max_err:.3g}")
    parts += list(check.problems)
    return ", ".join(parts)

