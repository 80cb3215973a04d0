"""Reference census per op, and the matcher that scores output against it.

The census is stored in census.json next to this file. Regenerate it with

    python3 bench/census.py

which needs scipy. Sources, in order of preference:

- the closed-form spectrum (Poschl-Teller, unit box);
- otherwise a finite-difference tridiagonal (scipy's eigh_tridiagonal),
  Richardson-extrapolated over three grids, which shares nothing with the
  RK4 path. The level count comes from hard walls at the ends of the op's
  own grid span; energies come from the same operator with the grid span
  padded by v = 0 where the Problem's boundary model is an exponential
  decay, which is the problem those models pose;
- the package's shooting_reference, which has its own integrator, is run as
  a second opinion and recorded next to each FD census.

A level that the padded operator holds but the walled one does not is
recorded as disputed: returning it is neither missing nor spurious.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

CENSUS_PATH = Path(__file__).with_name("census.json")

# |E - E_ref| allowed per op template: a few decades above the method's
# truncation error at the op's step, and far below half the closest level
# spacing (the double-well doublet is 0.017 apart). RK4 at h = 0.01 is off
# by 3e-4 near E = 100 on the quartic. The radial Problem starts
# its regular solution as r at r_min = 10 h instead of at r = 0, which moves
# its levels by up to 2.5e-3 from the half-line reference; its tolerance
# covers that model error.
TOLERANCE = {
    "pt-wm": 1e-6, "pt-wm-even": 1e-6, "pt-wm-odd": 1e-6, "pt-cfm": 1e-6,
    "box-dirichlet": 1e-6,
    "quartic-wm": 5e-3, "quartic-cfm": 5e-3,
    "dw-wm": 1e-5, "dw-cfm": 1e-5,
    "radial-wm": 1e-2, "radial-cfm": 1e-2,
    "solve-pt10": 1e-6, "solve-pt10-dump": 1e-6, "solve-inline": 1e-5,
    "oracle-box": 1e-3, "oracle-pt2.5": 1e-5,
}
# relative tolerance on the saturation limits and on dump normalization
SATURATE_RTOL = 1e-6
NORM_TOL = 1e-6


@dataclass(frozen=True)
class Match:
    """How a returned level list compares with the reference levels."""

    matched: int
    missing: int
    spurious: int
    max_err: float  # over matched pairs; 0.0 when nothing matched


def match_levels(reference, returned, tol, disputed=()):
    """One-to-one match of returned levels to reference levels within tol.

    Both lists are walked in energy order, pairing each reference level with
    the lowest unpaired returned level inside its tolerance band. With equal
    bands on sorted points this greedy walk gives a maximum matching, so a
    doublet closer than tol needs two returned levels to count as found.
    Unpaired returned levels that sit within tol of a disputed level are not
    counted as spurious.
    """
    ref = sorted(reference)
    got = sorted(returned)
    i = j = 0
    matched = 0
    max_err = 0.0
    extra = []
    while i < len(ref) and j < len(got):
        d = got[j] - ref[i]
        if abs(d) <= tol:
            matched += 1
            max_err = max(max_err, abs(d))
            i += 1
            j += 1
        elif d < 0:
            extra.append(got[j])
            j += 1
        else:
            i += 1
    extra.extend(got[j:])
    spurious = sum(1 for e in extra if not any(abs(e - d) <= tol for d in disputed))
    return Match(matched, len(ref) - matched, spurious, max_err)


def load():
    """The stored census: {op key: entry}."""
    with open(CENSUS_PATH) as fh:
        return json.load(fh)["ops"]


# --- regeneration --------------------------------------------------------

def fd_levels(v, a, b, window, h, pad=(0.0, 0.0)):
    """Levels of -1/2 d2/dx2 + v on [a - pad0, b + pad1] with hard walls.

    v is taken as 0 inside the padding. Three grids (h, h/2, h/4) give two
    Richardson estimates; the finer one is returned with the gap between
    them as its error estimate.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    lo, hi = window
    margin = 0.02 * (hi - lo) + 1e-3
    x_lo, x_hi = a - pad[0], b + pad[1]

    def solve(step):
        n = int(round((x_hi - x_lo) / step))
        x = x_lo + step * np.arange(1, n)
        vx = np.array([v(xi) if a <= xi <= b else 0.0 for xi in x])
        d = 1.0 / step ** 2 + vx
        e = np.full(n - 2, -0.5 / step ** 2)
        return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                                select_range=(lo - margin, hi + margin))

    e1, e2, e4 = (solve(h / k) for k in (1, 2, 4))
    if not len(e1) == len(e2) == len(e4):
        raise RuntimeError(f"FD level count changed with the step on [{x_lo}, {x_hi}]")
    r1 = (4.0 * e2 - e1) / 3.0
    r2 = (4.0 * e4 - e2) / 3.0
    keep = [(float(r), float(abs(r - s))) for r, s in zip(r2, r1) if lo <= r <= hi]
    return [r for r, _ in keep], max((err for _, err in keep), default=0.0)


def _shooting(problem, window):
    import warnings

    from boundstates import shooting_reference

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [float(e) for e in shooting_reference(problem, energy_range=window)]


def _fd_entry(name, problem, problem_id, v, span, window, pads, h_fd, cache):
    """Census entry for an op without a closed-form spectrum.

    Variants of one problem differ only in their window, so the references
    are computed once per problem over a window reaching below every
    variant's and then cut to each variant's window.
    """
    tol = TOLERANCE[name]
    if problem_id not in cache:
        wide = (window[0] - 2.0, window[1])
        walled, err_w = fd_levels(v, *span, wide, h_fd)
        padded, err_p = fd_levels(v, *span, wide, h_fd, pads)
        shoot = _shooting(problem, wide)
        cache[problem_id] = (walled, padded, max(err_w, err_p), shoot)
    walled, padded, fd_err, shoot = cache[problem_id]
    lo, hi = window
    walled = [e for e in walled if lo <= e <= hi]
    padded = [e for e in padded if lo <= e <= hi]
    shoot = [e for e in shoot if lo <= e <= hi]
    if fd_err > 0.1 * tol:
        raise RuntimeError(f"{name}: FD error estimate {fd_err:g} is not well below tol {tol:g}")
    if len(padded) < len(walled):
        raise RuntimeError(f"{name}: padding lost levels")
    # walls only push levels up, so the walled count maps onto the lowest
    # padded levels; anything above is held only by the decaying tails
    levels = padded[:len(walled)]
    disputed = padded[len(walled):]
    agree = match_levels(levels, shoot, tol, disputed)
    entry = dict(levels=levels, tol=tol, source="fd", fd_err=fd_err,
                 disputed=disputed, shooting=shoot)
    if agree.missing or agree.spurious:
        entry["note"] = (
            f"shooting_reference returns {len(shoot)} levels against {len(levels)}; "
            "the census keeps the walled FD count")
    if disputed:
        entry["note"] = (
            f"levels {['%.6g' % e for e in disputed]} exist only with decaying tails "
            "beyond the grid span (shooting_reference, padded FD) and vanish with a "
            "wall at its end: their decay length exceeds the span, so the census "
            "counts them as disputed, neither required nor spurious")
    return entry


def _exact_entry(name, levels):
    return dict(levels=sorted(levels), tol=TOLERANCE.get(name), source="exact",
                disputed=[])


def _saturation_reference(v0, h, nr, energy):
    """Endpoint ratios of the canonical pair by an adaptive DOP853 solve."""
    import numpy as np
    from scipy.integrate import solve_ivp

    x_r = nr * h

    def rhs(x, y):
        g = 2.0 * (-v0 / math.cosh(x) ** 2 - energy)
        return [y[1], g * y[0], y[3], g * y[2]]

    sol = solve_ivp(rhs, (0.0, x_r), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-13, atol=1e-13)
    c, dc, s, ds = np.asarray(sol.y)[:, -1]
    k = math.sqrt(-2.0 * energy)
    # right convergent member at its anchor: value 1, slope -k
    w_c = -k * c - dc
    w_s = -k * s - ds
    return dict(limit_wm=float(w_c / w_s), limit_cfm=float(c / s),
                rows=nr + 1, rtol=SATURATE_RTOL, source="dop853", levels=[])


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _solve_op_entry(op, cache):
    import workloads as wl

    problem = wl.build_problem(op)
    window = wl.solve_window(op, problem)
    if problem.exact_spectrum is not None:
        levels = sorted(problem.exact_spectrum(*window))
        # a parity-split method owns every other level of a symmetric well
        parity = {"wm-even": slice(0, None, 2), "wm-odd": slice(1, None, 2)}
        return _exact_entry(op.name, levels[parity.get(op.param("method"), slice(None))])
    if op.param("factory") == "anharmonic":
        # quartic tails: hard walls at the grid ends are already exact
        xr = problem.grid.x_right
        return _fd_entry(op.name, problem, ("anharmonic", op.param("v2")),
                         problem.potential.evaluate, (-xr, xr), window,
                         (0.0, 0.0), 0.002, cache)
    # radial: a wall at r = 0, decaying tail beyond r_max
    return _fd_entry(op.name, problem, ("radial", op.param("depth")),
                     problem.potential.evaluate, (0.0, problem.grid.x_right),
                     window, (0.0, 150.0), 0.004, cache)


def _cli_op_entry(op, cache):
    import boundstates as bs
    from boundstates import cli

    name = op.name
    argv = list(op.param("argv"))
    if name == "oracle-box":
        lo, hi = map(float, _flag(argv, "--range").split(":"))
        return _exact_entry(name, bs.infinite_well(energy_max=hi).exact_spectrum(lo, hi))
    if name == "saturate-pt2.5":
        return _saturation_reference(
            float(_flag(argv, "--v0")), float(_flag(argv, "--h")),
            int(_flag(argv, "--nr")), float(_flag(argv, "--energy")))
    if name == "solve-inline":
        expr = _flag(argv, "--expr")
        args = cli.build_parser().parse_args(
            ["solve", "--potential", "inline", "--expr=" + expr, "--parity"])
        problem = cli.build_problem(args, "solve")
        xr = problem.grid.x_right
        return _fd_entry(name, problem, ("inline", expr), problem.potential.evaluate,
                         (-xr, xr), problem.energy_range, (30.0, 30.0), 0.004, cache)
    # the Poschl-Teller commands
    v0 = float(_flag(argv, "--v0"))
    lo, hi = (-2.5, 0.0) if name == "scan-pt2.5" else (-v0, 0.0)
    entry = _exact_entry(name, [e for e in bs.poschl_teller_exact_energies(v0)
                                if lo <= e <= hi])
    if name == "scan-pt2.5":
        entry["rows"] = int(_flag(argv, "--probes"))
    if name == "solve-pt10-dump":
        entry["rows"] = 2 * int(_flag(argv, "--nr")) + 1
    return entry


def regenerate():
    """Compute the census of every variant of every op."""
    import workloads as wl

    ops = {}
    cache = {}
    for workload in wl.WORKLOADS:
        for op in wl.all_ops(workload):
            entry = (_solve_op_entry(op, cache) if op.kind == "solve"
                     else _cli_op_entry(op, cache))
            ops[op.key] = entry
            print(f"{op.key}: {len(entry['levels'])} levels ({entry['source']})"
                  + (f" disputed {entry['disputed']}" if entry.get("disputed") else ""),
                  flush=True)
    return ops


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    ops = regenerate()
    with open(CENSUS_PATH, "w") as fh:
        json.dump({"about": "reference census per op variant; regenerate with "
                            "python3 bench/census.py", "ops": ops},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
