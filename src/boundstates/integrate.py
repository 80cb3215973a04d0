"""Canonical-pair integration.

Classical fixed-step RK4 on the first-order form of phi'' = 2(v - eps) phi.
v does not depend on the energy, so it is sampled once per solve, on the grid
points and the half-step points of each side, and every march reads those
samples. The two canonical solutions C (start 1, 0) and S (start 0, 1) are
marched in one sweep. One energy at a time (`canonical_pair`) keeps every
sample, for refinement and eigenfunction assembly; a vector of energies
(`canonical_endpoints`) marches in lockstep and keeps the end points only, for
scans. Growth beyond DEFAULT_CAP truncates the sweep and flags the result
instead of raising.
"""

from __future__ import annotations

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


def _march(nodes, halves, energy, h, n_steps, starts, cap):
    # h carries the direction sign; starts is a list of (y, p) tuples.
    # Plain-float inner loop: this is the hot path for every single-energy
    # evaluation, so everything stays out of numpy until storage.
    ncol = len(starts)
    ys = [np.empty(n_steps + 1) for _ in range(ncol)]
    ps = [np.empty(n_steps + 1) for _ in range(ncol)]
    state = []
    for i, (y0, p0) in enumerate(starts):
        ys[i][0] = y0
        ps[i][0] = p0
        state.append((float(y0), float(p0)))
    e2 = 2.0 * float(energy)
    h2 = h * 0.5
    h6 = h / 6.0
    g2 = 2.0 * nodes[0] - e2
    stored = 1
    truncated = False
    for j in range(n_steps):
        g0 = g2
        g1 = 2.0 * halves[j] - e2
        g2 = 2.0 * nodes[j + 1] - e2
        new = []
        ok = True
        for y, p in state:
            k1p = g0 * y
            k2y = p + h2 * k1p
            k2p = g1 * (y + h2 * p)
            k3y = p + h2 * k2p
            k3p = g1 * (y + h2 * k2y)
            k4y = p + h * k3p
            k4p = g2 * (y + h * k3y)
            y = y + h6 * (p + 2.0 * (k2y + k3y) + k4y)
            p = p + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
            new.append((y, p))
            if not (abs(y) <= cap and abs(p) <= cap):
                ok = False
        if not ok:
            truncated = True
            break
        state = new
        for i, (y, p) in enumerate(new):
            ys[i][stored] = y
            ps[i][stored] = p
        stored += 1
    cols = [(ys[i][:stored], ps[i][:stored]) for i in range(ncol)]
    return cols, stored, truncated


def _march_endpoints(nodes, halves, energies, x0, h, n_steps, cap):
    # _march for both canonical columns at every energy in lockstep, keeping
    # only each energy's last state inside the cap. Every numpy operation is
    # one of the scalar loop's, on the same operands in the same order, so
    # the results match it bit for bit. The state a stacks (C, S) over
    # (C', S'), so one operation serves both columns and both components,
    # and each runs in place in a buffer. An energy that leaves the cap is
    # dropped from the live set at that step. Returns lists
    # (x, C, C', S, S', truncated) over the energies.
    m = len(energies)
    e2 = 2.0 * energies
    a = np.zeros((2, 2, m))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
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
    """Build the canonical pair for one energy.

    Both solutions share each sweep. When the potential is parity invariant
    and the grid is the right half line from x0 = 0, only the rightward sweep
    runs and the pair is marked reflected. samples are the solve's
    PotentialSamples of this potential on this grid; without them v is
    sampled here.
    """
    if samples is None:
        samples = sample_potential(potential, grid)
    starts = [(1.0, 0.0), (0.0, 1.0)]
    right_cols, nr, trunc_r = _march(
        *samples.right, energy, grid.h, grid.n_right, starts, DEFAULT_CAP)
    (cr, dcr), (sr, dsr) = right_cols
    if grid.n_left == 0:
        reflected = _reflected(potential, grid)
        x = grid.x0 + grid.h * np.arange(nr)
        return CanonicalPair(grid, float(energy), x, cr, dcr, sr, dsr,
                             truncated_left=trunc_r if reflected else False,
                             truncated_right=trunc_r, reflected=reflected,
                             v=samples.line[:nr])
    left_cols, nl, trunc_l = _march(
        *samples.left, energy, -grid.h, grid.n_left, starts, DEFAULT_CAP)
    (cl, dcl), (sl, dsl) = left_cols
    x = np.concatenate([(grid.x0 - grid.h * np.arange(nl))[:0:-1],
                        grid.x0 + grid.h * np.arange(nr)])

    def stitch(left, right):
        return np.concatenate([left[:0:-1], right])

    return CanonicalPair(grid, float(energy), x,
                         stitch(cl, cr), stitch(dcl, dcr),
                         stitch(sl, sr), stitch(dsl, dsr),
                         truncated_left=trunc_l, truncated_right=trunc_r,
                         reflected=False,
                         v=samples.line[grid.n_left + 1 - nl:grid.n_left + nr])


def canonical_endpoints(potential, energies, grid, samples):
    """Endpoint data of the canonical pair at many energies, marched in lockstep.

    Yields one Endpoints per energy, in order, equal bit for bit to the
    endpoint accessors and truncation flags of canonical_pair at that energy;
    no per-step arrays are kept. samples are sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)

    def side(nodes_halves, h, n):
        return zip(*_march_endpoints(*nodes_halves, energies, grid.x0, h, n,
                                     DEFAULT_CAP))

    right = side(samples.right, grid.h, grid.n_right)
    if _reflected(potential, grid):
        for energy, (*r, trunc) in zip(energies.tolist(), right):
            yield Endpoints(energy, _mirrored(r), tuple(r), trunc, trunc)
        return
    # without a left sweep the left end is the origin: a right sweep of no steps
    left = (side(samples.left, -grid.h, grid.n_left) if grid.n_left
            else side(samples.right, grid.h, 0))
    for energy, (*lv, trunc_l), (*r, trunc_r) in zip(energies.tolist(), left, right):
        yield Endpoints(energy, tuple(lv), tuple(r), trunc_l, trunc_r)

