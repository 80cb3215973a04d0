"""Canonical-pair integration.

Classical fixed-step RK4 on the first-order form of phi'' = 2(v - eps) phi.
v does not depend on the energy, so it is sampled once per solve, on the grid
points and the half-step points of each side, and every march reads those
samples. The two canonical solutions C (start 1, 0) and S (start 0, 1) are
marched in one sweep. `canonical_pair` keeps every sample over the full
logical line, for eigenfunction assembly and saturation profiles.
`canonical_ends` keeps only the end points of one energy, for refinement, and
`canonical_endpoints` those of a vector of energies marched in lockstep, for
scans. All three give each energy's end points as one `Endpoints` record,
which every characteristic value function reads. Every march runs to the
grid end: growth past the double range goes on as inf or NaN, and the value
functions flag a value that is not finite as overflow.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

import numpy as np


class PotentialSamples(NamedTuple):
    """v(x) on one grid, sampled once per solve.

    right and left each hold (nodes, halves) in march order, as lists of
    Python floats: nodes[j] is v at x0 + j*h and halves[j] at the midpoint of
    step j, with h negative on the left side. The float expressions are the
    ones the march steps through, so a sample is bit for bit the v(x) call it
    replaces. Lists, not arrays: indexing an array yields numpy scalars, whose
    arithmetic is slower than plain floats and warns on overflow. line is v
    at grid.points() as an array, which pairs slice for node counting.
    """

    right: tuple
    left: tuple
    line: np.ndarray


def sample_potential(potential, grid):
    """Sample potential.evaluate on both sides of the grid."""
    v = potential.evaluate
    x0 = grid.x0

    def side(h, n):
        nodes = [float(v(x0))] + [float(v(x0 + j * h)) for j in range(1, n + 1)]
        halves = [float(v((x0 + j * h) + h * 0.5)) for j in range(n)]
        return nodes, halves

    right, left = side(grid.h, grid.n_right), side(-grid.h, grid.n_left)
    return PotentialSamples(right, left, np.array(left[0][:0:-1] + right[0]))


def _march(nodes, halves, energy, h, n_steps, keep):
    # C from (1, 0) and S from (0, 1); h carries the direction sign. Both RK4
    # updates are written out in plain floats, the hot path of every
    # single-energy evaluation; float * and + run on into inf and NaN instead
    # of raising. Returns the columns [(C, C'), (S, S')]: arrays of every
    # state with keep, else the last state as floats. The stored-sample count
    # and the False after it are read by bench/tracer.py, which counts
    # column-steps from the second item.
    c, dc, s, ds = 1.0, 0.0, 0.0, 1.0
    if keep:
        cols = [array("d", (v,)) for v in (c, dc, s, ds)]
        put_c, put_dc, put_s, put_ds = (a.append for a in cols)
    e2 = 2.0 * float(energy)
    h2 = h * 0.5
    h6 = h / 6.0
    g2 = 2.0 * nodes[0] - e2
    for j in range(n_steps):
        g0 = g2
        g1 = 2.0 * halves[j] - e2
        g2 = 2.0 * nodes[j + 1] - e2
        k1p = g0 * c
        k2y = dc + h2 * k1p
        k2p = g1 * (c + h2 * dc)
        k3y = dc + h2 * k2p
        k3p = g1 * (c + h2 * k2y)
        k4y = dc + h * k3p
        k4p = g2 * (c + h * k3y)
        c, dc = (c + h6 * (dc + 2.0 * (k2y + k3y) + k4y),
                 dc + h6 * (k1p + 2.0 * (k2p + k3p) + k4p))
        k1p = g0 * s
        k2y = ds + h2 * k1p
        k2p = g1 * (s + h2 * ds)
        k3y = ds + h2 * k2p
        k3p = g1 * (s + h2 * k2y)
        k4y = ds + h * k3p
        k4p = g2 * (s + h * k3y)
        s, ds = (s + h6 * (ds + 2.0 * (k2y + k3y) + k4y),
                 ds + h6 * (k1p + 2.0 * (k2p + k3p) + k4p))
        if keep:
            put_c(c)
            put_dc(dc)
            put_s(s)
            put_ds(ds)
    if keep:
        c, dc, s, ds = (np.frombuffer(a) for a in cols)
    return [(c, dc), (s, ds)], n_steps + 1, False


def _march_endpoints(nodes, halves, energies, h, n_steps):
    # _march at every energy in lockstep, keeping only each energy's last
    # state. Every numpy operation is one of the scalar loop's, on the same
    # operands in the same order, so the results match it bit for bit, inf
    # and NaN included. a stacks (C, S) over (C', S'), so one in-place
    # operation serves both columns and both components. Returns lists
    # (C, C', S, S').
    m = len(energies)
    e2 = 2.0 * energies
    a = np.eye(2)[:, :, None].repeat(m, axis=2)
    h2 = h * 0.5
    h6 = h / 6.0
    g0, g1, g2 = np.empty(m), np.empty(m), 2.0 * nodes[0] - e2
    k1, k2, k3, k4, t = (np.empty_like(a) for _ in range(5))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            g0, g2 = g2, g0
            np.subtract(2.0 * halves[j], e2, out=g1)
            np.subtract(2.0 * nodes[j + 1], e2, out=g2)
            # stage k holds the scalar loop's (ky, kp): k1 = (p, g0 y), and a
            # later stage reads t = a + step * previous as (g t[0], t[1])
            k1[0] = a[1]
            np.multiply(g0, a[0], out=k1[1])
            for k_in, k_out, step, g in ((k1, k2, h2, g1), (k2, k3, h2, g1),
                                         (k3, k4, h, g2)):
                np.multiply(step, k_in, out=t)
                np.add(a, t, out=t)
                k_out[0] = t[1]
                np.multiply(g, t[0], out=k_out[1])
            # a + h6 (k1 + 2 (k2 + k3) + k4)
            np.add(k2, k3, out=t)
            np.multiply(2.0, t, out=t)
            np.add(k1, t, out=t)
            np.add(t, k4, out=t)
            np.multiply(h6, t, out=t)
            np.add(a, t, out=t)
            a, t = t, a
    (c, s), (dc, ds) = a.tolist()
    return c, dc, s, ds


def _mirrored(values):
    # the left end of a reflected pair: C(-x) = C(x), S(-x) = -S(x)
    x, c, dc, s, ds = values
    return -x, c, -dc, -s, ds


class Endpoints(NamedTuple):
    """One energy's canonical pair at the two ends of its grid.

    left and right are (x, C, C', S, S') as Python floats, at grid.x_left
    (-x_right for a reflected pair) and grid.x_right. A march that outgrows
    the double range ends in inf or NaN, which the value functions flag.
    """

    energy: float
    left: tuple
    right: tuple


class CanonicalPair(NamedTuple):
    """The canonical solutions C and S at every point of one grid.

    The arrays are grid ordered over the full logical line: a reflected pair
    (see canonical_pair) holds its mirrored left half too. v holds the
    potential samples at x, and ends the energy's Endpoints.
    """

    x: np.ndarray
    c: np.ndarray
    dc: np.ndarray
    s: np.ndarray
    ds: np.ndarray
    v: np.ndarray
    ends: Endpoints


def _reflected(potential, grid):
    return grid.n_left == 0 and potential.parity_invariant and grid.x0 == 0.0


def canonical_pair(potential, energy, grid, samples=None):
    """Build the canonical pair for one energy, keeping every sample.

    When the potential is parity invariant and the grid is the right half
    line from x0 = 0, only the rightward sweep runs and the pair is
    reflected: its left half is the mirror image of the right, with C, S'
    and v even and x, C' and S odd. samples are the solve's PotentialSamples
    of this potential on this grid; without them v is sampled here.
    """
    if samples is None:
        samples = sample_potential(potential, grid)
    (c, dc), (s, ds) = _march(*samples.right, energy, grid.h, grid.n_right, True)[0]
    v = samples.line
    reflected = _reflected(potential, grid)
    if reflected:
        c, ds, v = (np.concatenate([a[:0:-1], a]) for a in (c, ds, v))
        dc, s = (np.concatenate([-a[:0:-1], a]) for a in (dc, s))
    elif grid.n_left:
        left = _march(*samples.left, energy, -grid.h, grid.n_left, True)[0]
        c, dc, s, ds = (np.concatenate([la[:0:-1], ra])
                        for la, ra in zip((a for col in left for a in col), (c, dc, s, ds)))
    # the len(c) grid points ending at x_right; ends at x_left/x_right as in _ends
    x = grid.x0 + grid.h * np.arange(grid.n_right + 1 - len(c), grid.n_right + 1)
    ends = [(xe, *(float(a[i]) for a in (c, dc, s, ds)))
            for xe, i in ((grid.x_left, 0), (grid.x_right, -1))]
    if reflected:
        # as canonical_ends builds it, signed zeros included
        ends[0] = _mirrored(ends[1])
    return CanonicalPair(x, c, dc, s, ds, v, Endpoints(float(energy), *ends))


def _ends(potential, energies, grid, samples, side):
    # one Endpoints per energy; side(nodes_halves, h, n) marches one side and
    # gives (C, C', S, S') at its end for each energy
    right = side(samples.right, grid.h, grid.n_right)
    xl, xr = grid.x_left, grid.x_right
    if _reflected(potential, grid):
        for energy, r in zip(energies, right):
            r = (xr, *r)
            yield Endpoints(energy, _mirrored(r), r)
        return
    # without a left sweep the left end is the origin: a march of no steps
    left = side(samples.left, -grid.h, grid.n_left)
    for energy, lv, r in zip(energies, left, right):
        yield Endpoints(energy, (xl, *lv), (xr, *r))


def canonical_ends(potential, energy, grid, samples):
    """Endpoints of the canonical pair at one energy, keeping no per-step arrays.

    Equal bit for bit to canonical_pair(...).ends at that energy. samples
    are sample_potential(potential, grid).
    """
    energy = float(energy)

    def side(nodes_halves, h, n):
        (c, s), _, _ = _march(*nodes_halves, energy, h, n, False)
        return [(*c, *s)]

    return next(_ends(potential, [energy], grid, samples, side))


def canonical_endpoints(potential, energies, grid, samples):
    """Endpoint data of the canonical pair at many energies, marched in lockstep.

    Yields one Endpoints per energy, in order, equal bit for bit to
    canonical_ends at that energy. samples are sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)

    def side(nodes_halves, h, n):
        return zip(*_march_endpoints(*nodes_halves, energies, h, n))

    return _ends(potential, energies.tolist(), grid, samples, side)
