"""Canonical-pair integration.

Classical fixed-step RK4 on the first-order form of phi'' = 2(v - eps) phi.
v does not depend on the energy, so it is sampled once per solve, on the grid
points and the half-step points of each side, and every march reads those
samples. The two canonical solutions C (start 1, 0) and S (start 0, 1) are
marched in one sweep. `canonical_pair` keeps every sample, for eigenfunction
assembly and saturation profiles. `canonical_ends` keeps only the end points
of one energy, for refinement, and `canonical_endpoints` those of a vector of
energies marched in lockstep, for scans. Growth beyond DEFAULT_CAP truncates
the sweep and flags the result instead of raising.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Grid

DEFAULT_CAP = 1e280


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


def _march(nodes, halves, energy, h, n_steps, cap, keep):
    # C from (1, 0) and S from (0, 1); h carries the direction sign. Both RK4
    # updates are written out in plain floats, the hot path of every
    # single-energy evaluation. Returns the columns [(C, C'), (S, S')]: arrays
    # of every state with keep, else the last state inside the cap as floats.
    c, dc, s, ds = 1.0, 0.0, 0.0, 1.0
    if keep:
        cols = [array("d", (v,)) for v in (c, dc, s, ds)]
        put_c, put_dc, put_s, put_ds = (a.append for a in cols)
    e2 = 2.0 * float(energy)
    h2 = h * 0.5
    h6 = h / 6.0
    g2 = 2.0 * nodes[0] - e2
    stored = n_steps + 1
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
        c1 = c + h6 * (dc + 2.0 * (k2y + k3y) + k4y)
        dc1 = dc + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        k1p = g0 * s
        k2y = ds + h2 * k1p
        k2p = g1 * (s + h2 * ds)
        k3y = ds + h2 * k2p
        k3p = g1 * (s + h2 * k2y)
        k4y = ds + h * k3p
        k4p = g2 * (s + h * k3y)
        s1 = s + h6 * (ds + 2.0 * (k2y + k3y) + k4y)
        ds1 = ds + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        if not (abs(c1) <= cap and abs(dc1) <= cap and abs(s1) <= cap and abs(ds1) <= cap):
            stored = j + 1
            break
        c, dc, s, ds = c1, dc1, s1, ds1
        if keep:
            put_c(c)
            put_dc(dc)
            put_s(s)
            put_ds(ds)
    if keep:
        c, dc, s, ds = (np.frombuffer(a) for a in cols)
    return [(c, dc), (s, ds)], stored, stored <= n_steps


def _march_endpoints(nodes, halves, energies, x0, h, n_steps, cap):
    # _march at every energy in lockstep, keeping only each energy's last
    # state inside the cap. Every numpy operation is one of the scalar loop's,
    # on the same operands in the same order, so the results match it bit for
    # bit. a stacks (C, S) over (C', S'), so one in-place operation serves both
    # columns and both components. An energy that leaves the cap drops out of
    # the live set at that step. Returns lists (x, C, C', S, S', truncated).
    m = len(energies)
    e2 = 2.0 * energies
    a = np.eye(2)[:, :, None].repeat(m, axis=2)
    a_end = a.copy()
    steps = np.full(m, n_steps)
    live = np.arange(m)
    h2 = h * 0.5
    h6 = h / 6.0
    g0, g1, g2 = np.empty(m), np.empty(m), 2.0 * nodes[0] - e2
    k1, k2, k3, k4, t = (np.empty_like(a) for _ in range(5))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps):
            if not live.size:
                break
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
            # one cheap test per step; NaN fails it like an excess does
            if not np.abs(t, out=k1).max() <= cap:
                ok = (k1 <= cap).all(axis=(0, 1))
                out = live[~ok]
                a_end[:, :, out] = a[:, :, ~ok]
                steps[out] = j
                live = live[ok]
                t, e2, g2 = t[:, :, ok], e2[ok], g2[ok]
                g0, g1 = np.empty_like(g2), np.empty_like(g2)
                a, k1, k2, k3, k4 = (np.empty_like(t) for _ in range(5))
            a, t = t, a
    a_end[:, :, live] = a
    (c, s), (dc, ds) = a_end.tolist()
    return (x0 + h * steps).tolist(), c, dc, s, ds, (steps < n_steps).tolist()


def _mirrored(values):
    # the left end of a reflected pair: C(-x) = C(x), S(-x) = -S(x)
    x, c, dc, s, ds = values
    return -x, c, -dc, -s, ds


class Endpoints(NamedTuple):
    """(x, C, C', S, S') at both reached ends of one energy's pair.

    Offers the endpoint accessors of CanonicalPair, so every value function
    takes either; all entries are Python floats.
    """

    energy: float
    left: tuple
    right: tuple
    truncated_left: bool
    truncated_right: bool

    def left_values(self):
        return self.left

    def right_values(self):
        return self.right


@dataclass
class CanonicalPair:
    """The canonical solutions C and S sampled over one grid.

    Arrays are grid ordered over the points actually reached; v holds the
    potential samples at x. For a parity invariant potential on a right-half
    grid (x0 = 0, n_left = 0) the pair is built rightward only and `reflected`
    is set; the left-end accessors then apply C(-x) = C(x), S(-x) = -S(x).
    """

    grid: Grid
    energy: float
    x: np.ndarray
    c: np.ndarray
    dc: np.ndarray
    s: np.ndarray
    ds: np.ndarray
    truncated_left: bool
    truncated_right: bool
    reflected: bool
    v: np.ndarray

    def _at(self, i):
        return tuple(float(a[i]) for a in (self.x, self.c, self.dc, self.s, self.ds))

    def right_values(self):
        """(x, C, C', S, S') at the rightmost reached point, as Python floats."""
        return self._at(-1)

    def left_values(self):
        """(x, C, C', S, S') at the leftmost reached logical point, as Python floats."""
        return _mirrored(self._at(-1)) if self.reflected else self._at(0)

    def _line(self, a, odd=False):
        if not self.reflected:
            return a
        return np.concatenate([-a[:0:-1] if odd else a[:0:-1], a])

    def full_line(self):
        """Grid-ordered (x, C, C', S, S') over the full logical domain."""
        return (self._line(self.x, odd=True), self._line(self.c),
                self._line(self.dc, odd=True), self._line(self.s, odd=True),
                self._line(self.ds))

    def full_line_potential(self):
        """The potential samples at the points of full_line()."""
        return self._line(self.v)


def _reflected(potential, grid):
    return grid.n_left == 0 and potential.parity_invariant and grid.x0 == 0.0


def canonical_pair(potential, energy, grid, samples=None):
    """Build the canonical pair for one energy, keeping every sample.

    When the potential is parity invariant and the grid is the right half
    line from x0 = 0, only the rightward sweep runs and the pair is marked
    reflected. samples are the solve's PotentialSamples of this potential on
    this grid; without them v is sampled here.
    """
    if samples is None:
        samples = sample_potential(potential, grid)
    right, nr, trunc_r = _march(*samples.right, energy, grid.h, grid.n_right, DEFAULT_CAP, True)
    reflected = _reflected(potential, grid)
    cols = [a for col in right for a in col]
    nl, trunc_l = 1, trunc_r and reflected
    if grid.n_left:
        left, nl, trunc_l = _march(*samples.left, energy, -grid.h, grid.n_left, DEFAULT_CAP, True)
        cols = [np.concatenate([lc[:0:-1], rc])
                for lc, rc in zip((a for col in left for a in col), cols)]
    return CanonicalPair(grid, float(energy), grid.x0 + grid.h * np.arange(1 - nl, nr), *cols,
                         truncated_left=trunc_l, truncated_right=trunc_r, reflected=reflected,
                         v=samples.line[grid.n_left + 1 - nl:grid.n_left + nr])


def _ends(potential, energies, grid, samples, side):
    # one Endpoints per energy; side(nodes_halves, h, n) marches one side and
    # gives (x, C, C', S, S', truncated) at the sweep's end for each energy
    right = side(samples.right, grid.h, grid.n_right)
    if _reflected(potential, grid):
        for energy, (*r, trunc) in zip(energies, right):
            yield Endpoints(energy, _mirrored(r), tuple(r), trunc, trunc)
        return
    # without a left sweep the left end is the origin: a right sweep of no steps
    left = (side(samples.left, -grid.h, grid.n_left) if grid.n_left
            else side(samples.right, grid.h, 0))
    for energy, (*lv, trunc_l), (*r, trunc_r) in zip(energies, left, right):
        yield Endpoints(energy, tuple(lv), tuple(r), trunc_l, trunc_r)


def canonical_ends(potential, energy, grid, samples):
    """Endpoints of the canonical pair at one energy, keeping no per-step arrays.

    Equal bit for bit to canonical_pair's endpoint accessors and truncation
    flags at that energy. samples are sample_potential(potential, grid).
    """
    energy = float(energy)

    def side(nodes_halves, h, n):
        (c, s), stored, trunc = _march(*nodes_halves, energy, h, n, DEFAULT_CAP, False)
        return [(grid.x0 + h * (stored - 1), *c, *s, trunc)]

    return next(_ends(potential, [energy], grid, samples, side))


def canonical_endpoints(potential, energies, grid, samples):
    """Endpoint data of the canonical pair at many energies, marched in lockstep.

    Yields one Endpoints per energy, in order, equal bit for bit to
    canonical_ends at that energy. samples are sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)

    def side(nodes_halves, h, n):
        return zip(*_march_endpoints(*nodes_halves, energies, grid.x0, h, n, DEFAULT_CAP))

    return _ends(potential, energies.tolist(), grid, samples, side)
