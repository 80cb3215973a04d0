"""Independent cross-checks for the characteristic-function engines.

Two families: finite-difference routes for the box (a closed-form dispersion
and a direct shooting solve of the same recurrence, which must agree to
rounding), and a shooting reference for any catalog problem. The shooting
code deliberately duplicates its integrator instead of importing the
production one, so the two never share a bug; only the Wronskian primitive is
reused. Both families close their sign-change brackets with one root finder,
Illinois regula falsi.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import wronskian
from .potentials import infinite_well
from .roots import dirichlet_determinant, refine_root, scan_brackets


def fd_box_dispersion(n, h):
    """Closed-form level of the second-difference box operator.

    eps_n = (1 - cos(2 n pi h)) / (4 h^2), valid while the mode fits the
    lattice (n h < 1). Approaches n^2 pi^2 / 2 from below as h -> 0 with
    leading error -n^4 pi^4 h^2 / 6.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"mode index must be a positive integer, got {n!r}")
    if not 0.0 < h:
        raise ValueError(f"lattice step must be positive, got {h!r}")
    if n * h >= 1.0:
        raise ValueError(f"mode {n} does not fit a lattice of step {h} (need n h < 1)")
    return (1.0 - math.cos(2.0 * math.pi * n * h)) / (4.0 * h * h)


def _recurrence_sweep(N, energy):
    # stride-2 recurrence phi_{j+2} = (2 - 8 h^2 eps) phi_j - phi_{j-2} on the
    # even sublattice, started phi_0 = 0, phi_2 = 1
    h = 1.0 / N
    a = 2.0 - 8.0 * h * h * energy
    prev, cur = 0.0, 1.0
    samples = [prev, cur]
    for _ in range(N // 2 - 1):
        prev, cur = cur, a * cur - prev
        samples.append(cur)
    return samples


def _recurrence_ends(N, energies):
    # the last sample of _recurrence_sweep at each energy, marched as one
    # array: the same operations elementwise, so the same bits
    h = 1.0 / N
    a = 2.0 - 8.0 * h * h * energies
    prev, cur = np.zeros_like(a), np.ones_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N // 2 - 1):
            prev, cur = cur, a * cur - prev
    return cur


def fd_box_recurrence_vector(N, energy):
    """Even-sublattice samples (j = 0, 2, ..., N) of the recurrence at one energy."""
    return np.array(_recurrence_sweep(N, energy))


def _illinois(f, lo, hi, flo, fhi, tol):
    # Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on a sign change
    # of f over [lo, hi], with f(lo) = flo and f(hi) = fhi. Each step takes
    # the false position, or the midpoint where rounding puts that on or
    # outside the bracket. When the same end is kept twice in a row, its
    # stored value is halved, so the false position crosses the root and the
    # bracket closes from both sides. Stops when the bracket is narrower than
    # tol, on an exact zero, or after 200 steps.
    kept = None
    for _ in range(200):
        if hi - lo < tol:
            break
        x = hi - fhi * (hi - lo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0) == (flo < 0):
            lo, flo = x, fx
            if kept == "hi":
                fhi *= 0.5
            kept = "hi"
        else:
            hi, fhi = x, fx
            if kept == "lo":
                flo *= 0.5
            kept = "lo"
    return 0.5 * (lo + hi)


def fd_box_recurrence_eigenvalues(N, n_max):
    """First n_max Dirichlet eigenvalues of the stride-2 recurrence by shooting.

    The recurrence decouples into two sublattices; the Dirichlet conditions
    phi_0 = phi_N = 0 live on the even one, whose modes fold at n = N/2
    (eps_n and eps_{N-n} are exactly degenerate), so only n <= N/2 - 1 are
    resolvable. No dispersion formula enters: brackets come from scanning
    phi_N(eps) over the lattice band, every probe in one array sweep, and
    closing its sign changes by Illinois regula falsi, one energy at a time.
    """
    if N % 2 or N < 4:
        raise ValueError(f"need an even lattice with N >= 4, got {N!r}")
    if n_max != int(n_max) or not 1 <= n_max <= N // 2 - 1:
        raise ValueError(f"resolvable modes are 1 <= n <= N/2 - 1 = {N // 2 - 1}, got {n_max!r}")

    def phi_end(energy):
        return _recurrence_sweep(N, energy)[-1]

    band = 0.5 * N * N  # 1 / (2 h^2), the top of the lattice dispersion
    # level gaps bottom out near 1.5 pi^2 at the fold; keep probes finer
    n_probe = max(400, math.ceil(N * N / 25))
    probes = np.linspace(0.0, band, n_probe + 1)
    vals = _recurrence_ends(N, probes).tolist()
    roots = []
    for i in range(len(probes) - 1):
        if len(roots) >= n_max:
            break
        fa, fb = vals[i], vals[i + 1]
        if (fa < 0) == (fb < 0):
            continue
        roots.append(_illinois(phi_end, probes[i], probes[i + 1], fa, fb, 1e-11))
    if len(roots) < n_max:
        raise RuntimeError(f"found only {len(roots)} of {n_max} recurrence eigenvalues")
    return roots


def _rk4(y, p, e2, nodes, halves, h):
    # Classical RK4 on phi'' = (2 v - 2 eps) phi from (y, p), where nodes[j]
    # and halves[j] hold 2 v at the j-th point and the midpoint of step j.
    # y, p and e2 are floats for one energy or equal-length arrays for a
    # batch; each operation acts elementwise in the same order either way, so
    # an energy's result has the same bits in both.
    h2 = h * 0.5
    h6 = h / 6.0
    g2 = nodes[0] - e2
    for j in range(len(halves)):
        g0 = g2
        g1 = halves[j] - e2
        g2 = nodes[j + 1] - e2
        k1p = g0 * y
        k2y = p + h2 * k1p
        k2p = g1 * (y + h2 * p)
        k3y = p + h2 * k2p
        k3p = g1 * (y + h2 * k2y)
        k4y = p + h * k3p
        k4p = g2 * (y + h * k3y)
        y = y + h6 * (p + 2.0 * (k2y + k3y) + k4y)
        p = p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
    return y, p


def shooting_reference(problem, energy_range=None, n_probe=None, dense_factor=4,
                       tol=1e-10):
    """Bound-state energies by shooting on a denser grid.

    Integrates rightward from the left boundary with the convergent-member
    start and finds the sign changes of W(R_c, phi) at the right end. Runs at
    grid.h / dense_factor. Symmetric half-grid problems are shot across the
    full reflected span. v is sampled once per call, at the 2 n + 1 points
    the march reads; the probe energies are marched together as one array.
    Each probe cell with a sign change is closed to a width below tol by
    Illinois regula falsi, whose iterates are marched alone: the mismatch is
    smooth in the energy, so false position converges superlinearly, and the
    Illinois halving keeps one stale end from stalling it, at about 8 marches
    per root against about 31 for bisection. A reversed range or fewer than
    one probe cell raises ValueError.
    """
    grid = problem.grid
    h = grid.h / dense_factor
    if problem.symmetric:
        x_start = -grid.x_right
        n = 2 * dense_factor * grid.n_right
    else:
        x_start = grid.x_left
        n = dense_factor * (grid.n_left + grid.n_right)
    x_end = x_start + n * h
    v = problem.potential.evaluate
    asym = problem.asymptotics
    # 2 v at the march's points, in the float expressions a per-step call
    # would use: the point x_start + j*h and the midpoint (x_start + j*h) + h/2
    nodes = [2.0 * v(x_start)] + [2.0 * v(x_start + j * h) for j in range(1, n + 1)]
    halves = [2.0 * v((x_start + j * h) + h * 0.5) for j in range(n)]

    def closing(energy, y, p):
        rcv, rcd = asym.right_convergent(energy, x_end)
        return wronskian(rcv, rcd, y, p)

    def mismatch(energy):
        y, p = asym.left_convergent(energy, x_start)
        return closing(energy, *_rk4(y, p, 2.0 * energy, nodes, halves, h))

    lo, hi = energy_range if energy_range is not None else problem.energy_range
    if lo > hi:
        raise ValueError(f"energy range is reversed: {(lo, hi)!r}")
    if n_probe is None:
        n_probe = max(40, math.ceil(8.0 * (hi - lo)))
    elif n_probe < 1:
        raise ValueError(f"need at least one probe cell, got n_probe={n_probe!r}")
    probes = np.linspace(lo, hi, n_probe + 1).tolist()
    y0, p0 = np.array([asym.left_convergent(e, x_start) for e in probes]).T
    with np.errstate(over="ignore", invalid="ignore"):
        ys, ps = _rk4(y0, p0, 2.0 * np.array(probes), nodes, halves, h)
    vals = [closing(e, y, p) for e, y, p in zip(probes, ys.tolist(), ps.tolist())]
    lost = sum(not math.isfinite(f) for f in vals)
    if lost:
        # a level in a cell with a non-finite end cannot be bracketed
        warnings.warn(f"shooting_reference: {lost} of {len(vals)} probe marches "
                      "ended non-finite; levels next to them are lost",
                      UserWarning, stacklevel=2)
    roots = []
    for i in range(len(probes) - 1):
        fa, fb = vals[i], vals[i + 1]
        if not (math.isfinite(fa) and math.isfinite(fb)):
            continue
        if fa == 0.0:
            roots.append(probes[i])
            continue
        if (fa < 0) == (fb < 0):
            continue
        roots.append(_illinois(mismatch, probes[i], probes[i + 1], fa, fb, tol))
    return roots


def convergence_orders(h_values=(0.02, 0.01, 0.005)):
    """Measured convergence orders of the two box routes.

    Returns {"fd": slope, "rk4": slope}: the log-log slope of the ground-state
    error against h for the second-difference dispersion (expected 2) and for
    the RK4 two-wall determinant (expected 4).
    """
    continuum = 0.5 * math.pi ** 2
    fd_err = [abs(fd_box_dispersion(1, h) - continuum) for h in h_values]
    rk_err = []
    for h in h_values:
        prob = infinite_well(x0=0.5, h=h, energy_max=10.0)
        fn = dirichlet_determinant(prob)
        brackets = [b for b in scan_brackets(fn, (1.0, 10.0), 90) if not b.pole_suspect]
        root = refine_root(fn, brackets[0], tol_e=1e-13)
        rk_err.append(abs(root - continuum))

    def slope(errors):
        return float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])

    return {"fd": slope(fd_err), "rk4": slope(rk_err)}
