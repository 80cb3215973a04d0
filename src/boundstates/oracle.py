"""Independent cross-checks for the characteristic-function engines.

Two families: finite-difference routes for the box (a closed-form dispersion
and a direct shooting solve of the same recurrence, which must agree to
rounding), and a shooting reference for any catalog problem. The shooting
code deliberately duplicates its integrator instead of importing the
production one, so the two never share a bug; only the Wronskian primitive is
reused. Its march multiplies out blocks of RK4 step matrices built by its own
RK4 step, with none of the production kernel's pair tables or polynomials in
the energy. Both families are CharacteristicFunctions of their own marches,
scanned by the solver's scan_brackets and closed by its lockstep roots(): a
root finder has no integrator to share a bug with, so one serves all.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CharacteristicFunction, Evaluation, wronskian
from .potentials import infinite_well
from .roots import _window, dirichlet_determinant, roots, scan_brackets


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
    if N % 2 or N < 4:
        raise ValueError(f"need an even lattice with N >= 4, got {N!r}")
    if n_max != int(n_max) or not 1 <= n_max <= N // 2 - 1:
        raise ValueError(f"resolvable modes are 1 <= n <= N/2 - 1 = {N // 2 - 1}, got {n_max!r}")

    def many(energies):
        return [Evaluation(v) for v in _recurrence_ends(N, energies).tolist()]

    phi_end = CharacteristicFunction(lambda e: many(np.array([e]))[0], label="fd", many=many)
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


def _rk4_step(y, p, g0, g1, g2, h):
    # one classical RK4 step of phi'' = g phi from (y, p), where g0, g1 and
    # g2 hold g at the step's start, midpoint and end
    h2 = h * 0.5
    h6 = h / 6.0
    k1p = g0 * y
    k2y = p + h2 * k1p
    k2p = g1 * (y + h2 * p)
    k3y = p + h2 * k2p
    k3p = g1 * (y + h2 * k2y)
    k4y = p + h * k3p
    k4p = g2 * (y + h * k3y)
    return (y + h6 * (p + 2.0 * (k2y + k3y) + k4y),
            p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p))


def _block_product(a, b, c, d):
    # the ordered product of the 2x2 matrices [[a, b], [c, d]] along the last
    # axis, later steps on the left, by multiplying neighbours pairwise
    while a.shape[-1] > 1:
        a0, a1 = a[..., 0::2], a[..., 1::2]
        b0, b1 = b[..., 0::2], b[..., 1::2]
        c0, c1 = c[..., 0::2], c[..., 1::2]
        d0, d1 = d[..., 0::2], d[..., 1::2]
        a, b, c, d = (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                      c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)
    return a[..., 0], b[..., 0], c[..., 0], d[..., 0]


def _rk4(y, p, e2, nodes, halves, h):
    # Classical RK4 on phi'' = (2 v - 2 eps) phi from (y, p), equal-length
    # sequences, for the energies e2 = 2 eps, where the arrays nodes[j] and
    # halves[j] hold 2 v at the j-th point and the midpoint of step j. Each
    # step's matrix is _rk4_step on the unit states; each block of _BLOCK
    # steps, the last padded by identity steps, is multiplied out and applied
    # to (y, p), for _CHUNK energies at a time. Every association follows
    # from the step index alone, so an energy ends on the same bits in any
    # batch.
    y = np.array(y, dtype=float)
    p = np.array(p, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    n = len(halves)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, len(e2), _CHUNK):
            rows = slice(first, first + _CHUNK)
            e2c = e2[rows, None]
            for start in range(0, n, _BLOCK):
                stop = min(start + _BLOCK, n)
                g0 = nodes[start:stop] - e2c
                g1 = halves[start:stop] - e2c
                g2 = nodes[start + 1:stop + 1] - e2c
                a, c = _rk4_step(1.0, 0.0, g0, g1, g2, h)
                b, d = _rk4_step(0.0, 1.0, g0, g1, g2, h)
                if stop - start < _BLOCK:
                    # one buffer: np.pad took longer than the block itself
                    full = np.zeros((4, len(e2c), _BLOCK))
                    full[[0, 3], :, stop - start:] = 1.0
                    full[:, :, :stop - start] = a, b, c, d
                    a, b, c, d = full
                a, b, c, d = _block_product(a, b, c, d)
                y[rows], p[rows] = a * y[rows] + b * p[rows], c * y[rows] + d * p[rows]
    return y, p


def shooting_reference(problem, energy_range=None, n_probe=None, dense_factor=4,
                       tol=1e-10):
    """Bound-state energies by shooting on a denser grid.

    Integrates rightward from the left boundary with the convergent-member
    start and finds the sign changes of W(R_c, phi) at the right end. Runs at
    grid.h / dense_factor, a positive integer. Symmetric half-grid problems
    are shot across the full reflected span. v is sampled once per call, at
    the 2 n + 1 points the march reads. The march takes RK4 steps 1024 at a
    time: each step's 2x2 matrix is the RK4 step applied to the unit states,
    and a block's matrices are multiplied out pairwise and applied to the
    state, so only the state can overflow, never an RK4 stage. Energies are
    marched 8 at a time, each on the same bits as when marched alone, and
    the closings are taken in Python floats, so a march that overflows is a
    flagged value and raises no numpy warning. The mismatch goes through the
    solver's scan_brackets (n_probe cells, by default 8 per unit of energy)
    and roots(), which closes every bracket to tol in lockstep: each
    refinement iteration marches all open brackets' iterates as one batch.
    Flagged probe runs and dropped brackets are RefinementWarnings. A
    non-finite or reversed range, fewer than one probe cell or a dense_factor
    that is not a positive integer raises ValueError.
    """
    if dense_factor != int(dense_factor) or dense_factor < 1:
        raise ValueError(f"dense_factor must be a positive integer, got {dense_factor!r}")
    dense_factor = int(dense_factor)
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
    nodes = np.array([2.0 * v(x_start)] + [2.0 * v(x_start + j * h) for j in range(1, n + 1)])
    halves = np.array([2.0 * v((x_start + j * h) + h * 0.5) for j in range(n)])

    def many(energies):
        es = energies.tolist()
        y0, p0 = np.array([asym.left_convergent(e, x_start) for e in es]).T
        ys, ps = _rk4(y0, p0, 2.0 * energies, nodes, halves, h)
        return [Evaluation(wronskian(*asym.right_convergent(e, x_end), y, p))
                for e, y, p in zip(es, ys.tolist(), ps.tolist())]

    mismatch = CharacteristicFunction(lambda e: many(np.array([e]))[0], label="shooting",
                                      many=many)
    lo, hi = _window(energy_range if energy_range is not None else problem.energy_range)
    if n_probe is None:
        n_probe = max(40, math.ceil(8.0 * (hi - lo)))
    return roots(mismatch, scan_brackets(mismatch, (lo, hi), n_probe), tol_e=tol)


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
        root = roots(fn, scan_brackets(fn, (1.0, 10.0), 90), tol_e=1e-13)[0]
        rk_err.append(abs(root - continuum))

    def slope(errors):
        return float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])

    return {"fd": slope(fd_err), "rk4": slope(rk_err)}
