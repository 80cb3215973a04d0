"""Independent cross-checks for the characteristic-function engines.

Two families: finite-difference routes for the box (a closed-form dispersion
and a direct shooting solve of the same recurrence, which must agree to
rounding), and a shooting reference for any catalog problem. The shooting
code deliberately duplicates its integrator instead of importing the
production one, so the two never share a bug; only the Wronskian primitive is
reused. Its march multiplies out blocks of RK4 step matrices, each its own RK4
stages run on the unit states, with none of the production kernel's pair
tables or polynomials in the energy. Both families are CharacteristicFunctions
of their own marches, scanned by the solver's scan_brackets and closed by its
lockstep roots(): a root finder has no integrator to share a bug with, so one
serves all.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CharacteristicFunction, Evaluation, on_array, sampled, whole, wronskian
from .potentials import infinite_well
from .roots import _window, dirichlet_determinant, roots, scan_brackets


def fd_box_dispersion(n, h):
    """Closed-form level of the second-difference box operator.

    eps_n = (1 - cos(2 n pi h)) / (4 h^2), valid while the mode fits the
    lattice (n h < 1). Approaches n^2 pi^2 / 2 from below as h -> 0 with
    leading error -n^4 pi^4 h^2 / 6.
    """
    n = whole("mode index n", n, 1)
    if not 0.0 < h:
        raise ValueError(f"lattice step must be positive, got {h!r}")
    if n * h >= 1.0:
        raise ValueError(f"mode {n} does not fit a lattice of step {h} (need n h < 1)")
    return (1.0 - math.cos(2.0 * math.pi * n * h)) / (4.0 * h * h)


def _recurrence_ends(N, energies):
    # phi_N at each energy of the stride-2 recurrence
    # phi_{j+2} = (2 - 8 h^2 eps) phi_j - phi_{j-2} on the even sublattice,
    # started phi_0 = 0, phi_2 = 1, marched as one array: the operations are
    # elementwise, so an energy ends on the same bits in any batch
    h = 1.0 / N
    a = 2.0 - 8.0 * h * h * energies
    prev, cur = np.zeros_like(a), np.ones_like(a)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(N // 2 - 1):
            prev, cur = cur, a * cur - prev
    return cur


def fd_box_recurrence_eigenvalues(N, n_max):
    """First n_max Dirichlet eigenvalues of the stride-2 recurrence by shooting.

    The recurrence decouples into two sublattices; the Dirichlet conditions
    phi_0 = phi_N = 0 live on the even one, whose modes fold at n = N/2
    (eps_n and eps_{N-n} are exactly degenerate), so only n <= N/2 - 1 are
    resolvable. No dispersion formula enters: phi_N(eps) is scanned over the
    lattice band by scan_brackets, every probe in one array sweep, and the
    first n_max sign changes are closed by roots(), every iterate of an
    iteration in one sweep.
    """
    N, n_max = whole("lattice size N", N, 4), whole("n_max", n_max, 1)
    if N % 2:
        raise ValueError(f"need an even lattice with N >= 4, got {N!r}")
    if n_max > N // 2 - 1:
        raise ValueError(f"resolvable modes are 1 <= n <= N/2 - 1 = {N // 2 - 1}, got {n_max!r}")

    def many(energies):
        return Evaluation(_recurrence_ends(N, energies))

    phi_end = CharacteristicFunction(many, label="fd")
    band = 0.5 * N * N  # 1 / (2 h^2), the top of the lattice dispersion
    # level gaps bottom out near 1.5 pi^2 at the fold; keep probes finer
    n_probe = max(400, math.ceil(N * N / 25))
    brackets = scan_brackets(phi_end, (0.0, band), n_probe)
    found = roots(phi_end, brackets[:n_max], tol_e=1e-11)
    if len(found) < n_max:
        raise RuntimeError(f"found only {len(found)} of {n_max} recurrence eigenvalues")
    return found


# steps per block product: a power of two, so the pairwise tree halves evenly
_BLOCK = 1024
# energies marched together, so a block's arrays stay at 64 KB (8 x 1024 floats)
_CHUNK = 8


def _unit_steps(m, g0, g1, g2, h):
    # Each step's RK4 matrix of phi'' = g phi into m [row, column, energy,
    # step]: the classical stages (tests/test_oracle.py keeps them general)
    # run on the unit states (1, 0) and (0, 1), g0, g1 and g2 holding g at
    # the step's start, midpoint and end. Only what changes no bit of an
    # entry for finite g is dropped: products by 1, 0 + x where x is never
    # -0, and the zero k1p = g0 * 0 of (0, 1), which reaches only 1 + h/2 k1p
    # and an entry 1 + h/6 (...). Every 0.0 + that turns -0 into +0 stays.
    h2 = h * 0.5
    h6 = h / 6.0
    # from (1, 0): k1p = g0, k2p = g1, and k2y + k3y is never -0
    k2y = 0.0 + h2 * g0
    k3y = 0.0 + h2 * g1
    k3p = g1 * (1.0 + h2 * k2y)
    k4y = 0.0 + h * k3p
    k4p = g2 * (1.0 + h * k3y)
    np.add(1.0, h6 * (2.0 * (k2y + k3y) + k4y), out=m[0, 0])
    np.add(0.0, h6 * (g0 + 2.0 * (g1 + k3p) + k4p), out=m[1, 0])
    # from (0, 1): k2y = 1, k3p = k2p, 2 (k2p + k3p) = 4 k2p exactly, and
    # neither 1 + x nor h k3y (0 or at least h 2**-53 in size) is -0
    k2p = g1 * h2
    k3y = 1.0 + h2 * k2p
    k4y = 1.0 + h * k2p
    k4p = g2 * (h * k3y)
    np.multiply(h6, 1.0 + 2.0 * (1.0 + k3y) + k4y, out=m[0, 1])
    np.add(1.0, h6 * (4.0 * k2p + k4p), out=m[1, 1])


def _rk4(y, p, e2, nodes, halves, h):
    # Classical RK4 on phi'' = (2 v - 2 eps) phi from (y, p), equal-length
    # sequences, for the energies e2 = 2 eps, where the arrays nodes[j] and
    # halves[j] hold 2 v at the j-th point and the midpoint of step j. Each
    # block of _BLOCK steps' matrices (_unit_steps) is written into one
    # buffer, the tail of the last block filled with identity steps,
    # multiplied out by a tree of neighbour products, the later step on the
    # left, and applied to (y, p), for _CHUNK energies at a time. Every
    # association follows from the step index alone, so an energy ends on
    # the same bits in any batch.
    y = np.array(y, dtype=float)
    p = np.array(p, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = len(halves)
    buffer = np.empty((2, 2, min(_CHUNK, len(e2)), _BLOCK))
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(e2), _CHUNK):
            rows = slice(first, first + _CHUNK)
            e2c = e2[rows, None]
            m = buffer[:, :, :len(e2c)]
            for start in range(0, n, _BLOCK):
                stop = min(start + _BLOCK, n)
                g = nodes[start:stop + 1] - e2c
                g1 = halves[start:stop] - e2c
                _unit_steps(m[..., :stop - start], g[:, :-1], g1, g[:, 1:], h)
                if stop - start < _BLOCK:
                    m[..., stop - start:] = np.eye(2)[:, :, None, None]
                # einsum sums each entry's two products from +0, which differs
                # from their plain sum only where both are -0
                q = m
                while q.shape[-1] > 1:
                    q = np.einsum("ik...,kj...->ij...", q[..., 1::2], q[..., ::2])
                (a, b), (c, d) = q[..., 0]
                y[rows], p[rows] = a * y[rows] + b * p[rows], c * y[rows] + d * p[rows]
    return y, p


def shooting_reference(problem, energy_range=None, n_probe=None, dense_factor=4,
                       tol=1e-10):
    """Bound-state energies by shooting on a denser grid.

    Integrates rightward from the left boundary with the convergent-member
    start and finds the sign changes of W(R_c, phi) at the right end, at
    grid.h / dense_factor (a positive integer) across the solver's span,
    [-x_right, x_right] on a symmetric problem. v is sampled once per call,
    by the solver's rule (core.sampled), at the 2 n + 1 points the march
    reads. The march takes RK4 steps 1024 at a time: each step's 2x2 matrix
    is the RK4 stages run on the unit states, less the operations that
    cannot change a bit of it, and a block's matrices are multiplied out
    pairwise, one einsum per level of the tree, and applied to the state,
    so only the state can overflow, never an RK4 stage. Energies are
    marched 8 at a time, each on the same bits as when marched alone. The
    boundary members are called on each batch's energy array and the batch
    is closed by one wronskian call on arrays, so a march that overflows is
    a flagged value and raises no numpy warning. The mismatch goes through the solver's scan_brackets
    (n_probe cells, by default 8 per unit of energy) and roots(), which
    closes every bracket to tol in lockstep: each refinement iteration
    marches all open brackets' iterates as one batch.
    Flagged probe runs and dropped brackets are RefinementWarnings. A
    non-finite or reversed range, or an n_probe or dense_factor that is not a
    whole number of at least one, raises ValueError.
    """
    dense_factor = whole("dense_factor", dense_factor, 1)
    grid = problem.grid
    h = grid.h / dense_factor
    n_left = grid.n_right if problem.symmetric else grid.n_left
    x_start = grid.x0 - n_left * grid.h
    n = dense_factor * (n_left + grid.n_right)
    x_end = x_start + n * h
    asym = problem.asymptotics
    # 2 v at the march's points, in the float expressions a per-step call
    # would use: the point x_start + j*h and the midpoint (x_start + j*h) + h/2
    points = x_start + np.arange(n + 1) * h
    nodes = 2.0 * sampled(problem.potential.evaluate, points)
    halves = 2.0 * sampled(problem.potential.evaluate, points[:-1] + h * 0.5)

    def many(energies):
        y0, p0 = on_array(lambda e: asym.left_convergent(e, x_start), energies, 2)
        ys, ps = _rk4(y0, p0, 2.0 * energies, nodes, halves, h)
        rc = on_array(lambda e: asym.right_convergent(e, x_end), energies, 2)
        with np.errstate(all="ignore"):
            return Evaluation(wronskian(*rc, ys, ps))

    mismatch = CharacteristicFunction(many, label="shooting")
    lo, hi = _window(energy_range if energy_range is not None else problem.energy_range)
    if n_probe is None:
        n_probe = max(40, math.ceil(8.0 * (hi - lo)))
    return roots(mismatch, scan_brackets(mismatch, (lo, hi), n_probe), tol_e=tol)


ORDER_STEPS = (0.02, 0.01, 0.005)  # the steps convergence_orders fits its slopes over


def convergence_orders():
    """Measured convergence orders of the two box routes.

    Returns {"fd": slope, "rk4": slope}: the log-log slope of the ground-state
    error against h over ORDER_STEPS for the second-difference dispersion
    (expected 2) and for the RK4 two-wall determinant (expected 4).
    """
    continuum = 0.5 * math.pi ** 2
    fd_err = [abs(fd_box_dispersion(1, h) - continuum) for h in ORDER_STEPS]
    rk_err = []
    for h in ORDER_STEPS:
        prob = infinite_well(x0=0.5, h=h, energy_max=10.0)
        fn = dirichlet_determinant(prob)
        root = roots(fn, scan_brackets(fn, (1.0, 10.0), 90), tol_e=1e-13)[0]
        rk_err.append(abs(root - continuum))

    def slope(errors):
        return float(np.polyfit(np.log(ORDER_STEPS), np.log(errors), 1)[0])

    return {"fd": slope(fd_err), "rk4": slope(rk_err)}
