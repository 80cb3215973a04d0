"""Canonical-pair integration.

Classical fixed-step RK4 on the first-order form of phi'' = 2(v - eps) phi.
v does not depend on the energy, so it is sampled once per solve, on the grid
points and the half-step points of each side, and every march reads those
samples. An RK4 step is linear in the state, so one kernel marches the
canonical solutions C (start 1, 0) and S (start 0, 1) at many energies as an
ordered product of 2x2 step matrices. `canonical_pair` keeps every sample over
the full logical line, for eigenfunction assembly and saturation profiles;
`canonical_endpoints` keeps only the end points, for a batch of energies: a
scan's probes, or refinement's single energy as a batch of one. Both give an
energy's end points as the same `Endpoints` record, bit for bit, which every
characteristic value function reads. Every march runs to the grid end: growth
past the double range goes on as inf or NaN, which the value functions flag as
overflow.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class PotentialSamples(NamedTuple):
    """v(x) on one grid, sampled once per solve.

    right and left each hold (nodes, halves) in march order, as arrays:
    nodes[j] is v at x0 + j*h and halves[j] at the midpoint of step j, with h
    negative on the left side. line is v at grid.points(), which pairs slice
    for node counting.
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
        return np.array(nodes), np.array(halves)

    right, left = side(grid.h, grid.n_right), side(-grid.h, grid.n_left)
    return PotentialSamples(right, left, np.concatenate([left[0][:0:-1], right[0]]))


# Steps per block, a power of two, in the bit-reversed order that makes each
# level of a block's tree pair the second half of the block with the first;
# and the bound on step x energy elements per array of one chunk.
_BITS = 7
_BLOCK = 1 << _BITS
_BITREV = np.array([int(f"{k:0{_BITS}b}"[::-1], 2) for k in range(_BLOCK)])
_CHUNK = 1 << 13


def _mul(m, n):
    # m @ n for 2x2 matrices indexed [row, column, ...], broadcast over the rest
    return m[:, :1] * n[:1] + m[:, 1:] * n[1:]


def _step_matrices(g0, g1, g2, e2, h, out):
    # One RK4 step of (y, y') on y'' = g y, g = g0 - e2, g1 - e2, g2 - e2 at
    # the step's start, midpoint and end: the stages applied to the columns
    # (1, 0) and (0, 1), multiplied out into out, each entry as soon as its
    # inputs exist, which keeps a chunk's working set small.
    r = h * h / 6.0
    g1 = g1 - e2
    t = (0.25 * h * h) * g1
    np.add(h, (h * r) * g1, out=out[0, 1])
    g1 *= 2.0
    g0 = g0 - e2
    np.add(1.0, r * (g0 + g1 + g0 * t), out=out[0, 0])
    g2 = g2 - e2
    np.add(1.0, r * (g2 + g1 + g2 * t), out=out[1, 1])
    g0 += g2
    np.multiply(h / 6.0, g0 + 2.0 * g1 + 2.0 * t * g0, out=out[1, 0])


def _propagate(nodes, halves, energies, h, n_steps, keep):
    # The fundamental matrix Phi = [[C, S], [C', S']] of each energy (I at
    # the start; h carries the direction sign) as the ordered product of its
    # RK4 step matrices, padded at the start with identity steps to whole
    # blocks. A block is reduced by a balanced pairwise tree, or with keep by
    # a Hillis-Steele inclusive scan, whose last element is that tree; block
    # products act on the running state in order, so the association depends
    # on the step index alone, not on the chunking over steps and energies.
    # Returns rows (C, C', S, S') over energies, with keep over samples first.
    pad = -n_steps % _BLOCK
    steps = np.arange(pad + n_steps).reshape(-1, _BLOCK)
    steps = (steps if keep else steps[:, _BITREV]).ravel() - pad
    i = np.maximum(steps, 0)
    g0, g1, g2 = 2.0 * nodes[i, None], 2.0 * halves[i, None], 2.0 * nodes[i + 1, None]
    width = max(1, min(len(energies), _CHUNK // _BLOCK))
    span = max(1, _CHUNK // (width * _BLOCK)) * _BLOCK
    # every chunk builds its step matrices in one buffer: fresh arrays of this
    # size would be given back to the system and faulted in again each chunk
    buf = np.empty((2, 2, min(span, pad + n_steps) * width))
    out = np.empty((2, 2, n_steps + 1, len(energies)) if keep else (2, 2, len(energies)))
    with np.errstate(over="ignore", invalid="ignore"):
        for e0 in range(0, len(energies), width):
            e2 = 2.0 * energies[e0:e0 + width]
            phi = np.eye(2)[:, :, None].repeat(len(e2), axis=2)
            samples = [phi[:, :, None]]
            for k0 in range(0, pad + n_steps, span):
                k = slice(k0, k0 + span)
                x = buf[:, :, :len(steps[k]) * len(e2)].reshape(2, 2, -1, len(e2))
                _step_matrices(g0[k], g1[k], g2[k], e2, h, x)
                x[:, :, steps[k] < 0] = np.eye(2)[:, :, None, None]
                x = x.reshape(2, 2, -1, _BLOCK, len(e2))
                if keep:
                    for d in 1 << np.arange(_BITS):
                        x[:, :, :, d:] = _mul(x[:, :, :, d:], x[:, :, :, :-d])
                    q = x[:, :, :, -1]
                else:
                    for half in _BLOCK >> np.arange(1, _BITS + 1):
                        x = _mul(x[:, :, :, half:], x[:, :, :, :half])
                    q = x[:, :, :, 0]
                starts = []
                for b in range(q.shape[2]):
                    starts.append(phi)
                    phi = _mul(q[:, :, b], phi)
                if keep:
                    states = _mul(x, np.stack(starts, axis=2)[:, :, :, None])
                    samples.append(states.reshape(2, 2, -1, len(e2)))
            # with keep, the states after the identity steps are I again
            out[..., e0:e0 + width] = (np.concatenate(samples, axis=2)[:, :, -n_steps - 1:]
                                       if keep else phi)
    return out.swapaxes(0, 1).reshape(4, *out.shape[2:])


def _march(nodes, halves, energy, h, n_steps):
    # _propagate at one energy, every state kept: the columns [(C, C'),
    # (S, S')]; bench/tracer.py unpacks all three items and counts
    # column-steps from the second.
    c, dc, s, ds = _propagate(nodes, halves, np.array([float(energy)]), h, n_steps, True)[..., 0]
    return [(c, dc), (s, ds)], n_steps + 1, False


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


def _endpoints(energy, grid, reflected, left, right):
    # one energy's Endpoints from (C, C', S, S') at the end of each sweep; a
    # reflected pair's left end mirrors its right: C(-x) = C(x), S(-x) = -S(x)
    xr, (c, dc, s, ds) = grid.x_right, right
    left = (-xr, c, -dc, -s, ds) if reflected else (grid.x_left, *left)
    return Endpoints(energy, left, (xr, c, dc, s, ds))


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
    (c, dc), (s, ds) = _march(*samples.right, energy, grid.h, grid.n_right)[0]
    v = samples.line
    reflected = _reflected(potential, grid)
    if reflected:
        c, ds, v = (np.concatenate([a[:0:-1], a]) for a in (c, ds, v))
        dc, s = (np.concatenate([-a[:0:-1], a]) for a in (dc, s))
    elif grid.n_left:
        left = _march(*samples.left, energy, -grid.h, grid.n_left)[0]
        c, dc, s, ds = (np.concatenate([la[:0:-1], ra])
                        for la, ra in zip((a for col in left for a in col), (c, dc, s, ds)))
    # the len(c) grid points ending at x_right
    x = grid.x0 + grid.h * np.arange(grid.n_right + 1 - len(c), grid.n_right + 1)
    left, right = ([float(a[i]) for a in (c, dc, s, ds)] for i in (0, -1))
    return CanonicalPair(x, c, dc, s, ds, v, _endpoints(float(energy), grid, reflected, left, right))


def canonical_endpoints(potential, energies, grid, samples):
    """Endpoints of the canonical pair at each of many energies, marched together.

    Returns one Endpoints per energy, in order, each equal bit for bit to
    canonical_pair(...).ends at that energy whatever else the batch holds.
    samples are sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)
    reflected = _reflected(potential, grid)
    right = _propagate(*samples.right, energies, grid.h, grid.n_right, False).T.tolist()
    # a reflected pair mirrors its right end; otherwise, without a left sweep
    # the left end is the origin, a march of no steps
    left = right if reflected else (
        _propagate(*samples.left, energies, -grid.h, grid.n_left, False).T.tolist())
    return [_endpoints(e, grid, reflected, lv, rv)
            for e, lv, rv in zip(energies.tolist(), left, right)]
