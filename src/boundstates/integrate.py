"""Canonical-pair integration.

Classical fixed-step RK4 on the first-order form of phi'' = 2(v - eps) phi.
v does not depend on the energy, so it is sampled once per solve, on the grid
points and the half-step points of each side. An RK4 step is linear in the
state, so a march of the canonical solutions C (start 1, 0) and S (start 0, 1)
is an ordered product of 2x2 step matrices, and each step matrix is a
quadratic polynomial in s = 2*eps whose coefficients depend on v alone.
sample_potential multiplies the steps in pairs once per solve, into one
PairTable of quartic polynomials per side, stored in march order. Every march
then evaluates each pair's matrix at its energies by Horner's rule and
multiplies half as many matrices as there are steps, with no arithmetic on v:
neighbours first, in a tree over each block of pairs, then block after block.

`canonical_pairs` keeps every sample over the full logical line for a batch
of energies, every level of a solve (`canonical_pair` is a batch of one);
`canonical_endpoints` keeps only the end points, for a scan's probes or one
candidate per open bracket in a refinement step. Both give an energy's end
points as the same `Endpoints` record, bit for bit, whatever the batch: a
pair's matrix is evaluated elementwise, and the products are associated by
pair index alone; the scan that keeps every state ends each block in the
same tree.
Bits are given up against a march that steps one point after the next, which
multiplies in another order, and against the RK4 stages, which round
otherwise than their polynomial form: both differ in the last digits.
Every march runs to the grid end: growth past the double range goes on as
inf or NaN, which the value functions flag as overflow.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class PairTable(NamedTuple):
    """One side's RK4 steps as polynomials in s = 2*eps, built once per solve.

    A step's matrix, which maps (phi, phi') at its start to its end, is a
    polynomial of degree 2 in s whose coefficients depend on v alone. Steps
    are stored in march order after identity steps: one when the count is
    odd, and pairs of them until the pairs fill whole blocks. Pair j is
    steps 2j and 2j + 1; pairs[d] holds the coefficient of s**d of each
    pair's matrix, d = 0..4, indexed [row, column, pair], and firsts[d],
    d = 0..2, step 2j of each pair, for the states inside pairs.
    """

    pairs: np.ndarray
    firsts: np.ndarray
    n_steps: int


class PotentialSamples(NamedTuple):
    """v(x) on one grid, sampled once per solve.

    line is v at grid.points(), which pairs slice for node counting. tables
    holds the right and left sides' PairTables.
    """

    line: np.ndarray
    tables: tuple


# Pairs per block, a power of two, and the bound on pair x energy elements
# per array of one chunk.
_BITS = 7
_BLOCK = 1 << _BITS
_CHUNK = 1 << 14


def _mul(m, n):
    # m @ n for 2x2 matrices indexed [row, column, ...], broadcast over the rest
    out = m[:, :1] * n[:1]
    out += m[:, 1:] * n[1:]
    return out


def _steps(nodes, halves, h, pad):
    # every RK4 step of (y, y') on y'' = (G - s) y multiplied out, after pad
    # identity steps, with G = 2v at the step's start, midpoint and end (ga,
    # gm, gb), r = h^2/6 and t = h^2/4: the coefficients of s^0, s^1, s^2,
    # indexed [power, row, column, step]
    ga, gm, gb = 2.0 * nodes[:-1], 2.0 * halves, 2.0 * nodes[1:]
    r, t = h * h / 6.0, h * h / 4.0
    out = np.zeros((3, 2, 2, pad + len(halves)))
    out[0, 0, 0, :pad] = out[0, 1, 1, :pad] = 1.0
    step = out[..., pad:]
    step[0, 0, 0] = 1.0 + r * (ga + 2.0 * gm + t * ga * gm)
    step[0, 0, 1] = h + (h * r) * gm
    step[0, 1, 0] = h / 6.0 * (ga + gb + 4.0 * gm + 2.0 * t * gm * (ga + gb))
    step[0, 1, 1] = 1.0 + r * (gb + 2.0 * gm + t * gb * gm)
    step[1, 0, 0] = -r * (3.0 + t * (ga + gm))
    step[1, 0, 1] = -h * r
    step[1, 1, 0] = -h / 6.0 * (6.0 + 2.0 * t * (ga + gb + 2.0 * gm))
    step[1, 1, 1] = -r * (3.0 + t * (gb + gm))
    step[2, 0, 0] = step[2, 1, 1] = r * t
    step[2, 1, 0] = 2.0 / 3.0 * h * t
    return out


def _table(nodes, halves, h):
    # identity steps first, one for an odd count and pairs of them to whole
    # blocks; the table keeps a copy of the first steps alone
    n = len(halves)
    steps = _steps(nodes, halves, h, 2 * (-n // 2 % _BLOCK) + n % 2)
    firsts, second = steps[..., 0::2].copy(), steps[..., 1::2]
    # the product of two polynomials in s convolves their coefficients
    pairs = np.zeros((5, 2, 2, firsts.shape[-1]))
    term, part = np.empty((2, 2, 2, firsts.shape[-1]))
    for a in range(3):
        for b in range(3):
            np.multiply(second[b][:, :1], firsts[a][:1], out=term)
            term += np.multiply(second[b][:, 1:], firsts[a][1:], out=part)
            pairs[a + b] += term
    return PairTable(pairs, firsts, n)


def sample_potential(potential, grid):
    """Sample potential.evaluate on both sides of the grid and build their PairTables."""
    v = potential.evaluate
    x0 = grid.x0

    def side(h, n):
        # the float operations of a per-point loop, x0 + j*h and
        # (x0 + j*h) + h*0.5, with v called on Python floats in the same order
        points = x0 + np.arange(n + 1) * h
        nodes = np.fromiter(map(v, points.tolist()), float, n + 1)
        halves = np.fromiter(map(v, (points[:-1] + h * 0.5).tolist()), float, n)
        return nodes, _table(nodes, halves, h)

    (right, rtable), (left, ltable) = side(grid.h, grid.n_right), side(-grid.h, grid.n_left)
    return PotentialSamples(np.concatenate([left[:0:-1], right]), (rtable, ltable))


def _horner(coefs, s):
    # sum over d of coefs[d] * s**d, coefs [degree, row, column, pair], s over
    # energies: entries [row, column, energy, pair]
    out = coefs[-1][:, :, None] * s[:, None]
    out += coefs[-2][:, :, None]
    for c in coefs[-3::-1]:
        out *= s[:, None]
        out += c[:, :, None]
    return out


def _propagate(table, energies, keep):
    # The fundamental matrix Phi = [[C, S], [C', S']] of each energy (I at
    # the start) as the ordered product of its pair matrices, each evaluated
    # from the table, in march order. A block is reduced by a tree that
    # multiplies neighbours, or with keep by a Hillis-Steele inclusive scan,
    # whose last element is that tree; block products act on the running
    # state in order, so the association depends on the pair index alone,
    # not on the chunking over pairs and energies. Returns Phi indexed
    # [row, column, energy]; with keep, [row, column, energy, state] over the
    # start and the states after each step, the identity ones included: pair
    # j ends at state 2j + 2, and its first step, applied to the state
    # before, gives state 2j + 1.
    n_pairs = table.pairs.shape[-1]
    # energies split into equal groups, pairs into blocks of a chunk
    groups = max(1, -(-len(energies) * _BLOCK // _CHUNK))
    width = max(1, -(-len(energies) // groups))
    span = max(1, _CHUNK // (width * _BLOCK)) * _BLOCK
    # kept states are stored [energy, column, row, state], each energy's together
    out = (np.empty((len(energies), 2, 2, 2 * n_pairs + 1)).transpose(2, 1, 0, 3) if keep
           else np.empty((2, 2, len(energies))))
    with np.errstate(over="ignore", invalid="ignore"):
        for e0 in range(0, len(energies), width):
            e = slice(e0, e0 + width)
            s = 2.0 * energies[e]
            phi = np.eye(2)[:, :, None].repeat(len(s), axis=2)
            if keep:
                out[:, :, e, 0] = phi
            for k0 in range(0, n_pairs, span):
                k = slice(k0, k0 + span)
                x = _horner(table.pairs[..., k], s).reshape(2, 2, len(s), -1, _BLOCK)
                if keep:
                    for d in 1 << np.arange(_BITS):
                        x[..., d:] = _mul(x[..., d:], x[..., :-d])
                    q = x[..., -1]
                else:
                    for _ in range(_BITS):
                        x = _mul(x[..., 1::2], x[..., ::2])
                    q = x[..., 0]
                starts = []
                for b in range(q.shape[3]):
                    starts.append(phi)
                    phi = _mul(q[..., b], phi)
                if keep:
                    starts = np.stack(starts, axis=3)[..., None]
                    states = out[:, :, e, 2 * k0 + 1:2 * (k0 + x.shape[3] * _BLOCK) + 1]
                    states = states.reshape(*x.shape, 2)
                    states[..., 1] = _mul(x, starts)
                    before = np.concatenate([starts, states[..., :-1, 1]], axis=4)
                    firsts = _horner(table.firsts[..., k], s).reshape(x.shape)
                    states[..., 0] = _mul(firsts, before)
            if not keep:
                out[..., e] = phi
    return out


def _march(table, energies):
    # _propagate with every state kept: the columns (C, C') and (S, S') of
    # each energy in turn, [column, value or derivative, state] over the last
    # n_steps + 1 states, those of the grid (the states before them are I).
    # bench/tracer.py unpacks all three items and counts column-steps.
    phi = _propagate(table, energies, True)[..., -table.n_steps - 1:]
    return phi.transpose(2, 1, 0, 3).reshape(-1, 2, table.n_steps + 1), table.n_steps + 1, False


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


def canonical_pairs(potential, energies, grid, samples):
    """The canonical pair of each of many energies, every sample kept, marched together.

    Yields one CanonicalPair per energy, in order, each equal bit for bit to
    canonical_pair at that energy whatever else the batch holds. samples are
    sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)
    reflected = _reflected(potential, grid)

    def side(table):
        # [energy, column, value or derivative, state] from the origin out
        return _march(table, energies)[0].reshape(len(energies), 2, 2, -1)

    right = side(samples.tables[0])
    left = right if reflected else side(samples.tables[1])
    v = np.concatenate([samples.line[:0:-1], samples.line]) if reflected else samples.line
    x = grid.x0 + grid.h * np.arange(grid.n_right + 1 - len(v), grid.n_right + 1)
    for energy, lk, rk in zip(energies.tolist(), left, right):
        ends = _endpoints(energy, grid, reflected, *(a[..., -1].ravel().tolist() for a in (lk, rk)))
        # the left side from x_left in, without the origin; mirrored, C and
        # S' are even and C' and S odd
        lk = lk[..., :0:-1]
        if reflected:
            lk = lk.copy()
            np.negative(lk[0, 1], out=lk[0, 1])
            np.negative(lk[1, 0], out=lk[1, 0])
        (c, dc), (s, ds) = np.concatenate([lk, rk], axis=-1)
        yield CanonicalPair(x, c, dc, s, ds, v, ends)


def canonical_pair(potential, energy, grid, samples=None):
    """Build the canonical pair for one energy, keeping every sample.

    When the potential is parity invariant and the grid is the right half
    line from x0 = 0, only the rightward sweep runs and the pair is
    reflected: its left half is the mirror image of the right, with C, S'
    and v even and x, C' and S odd. samples are the solve's PotentialSamples
    of this potential on this grid; without them v is sampled here. This is
    canonical_pairs of a batch of one.
    """
    if samples is None:
        samples = sample_potential(potential, grid)
    return next(canonical_pairs(potential, [energy], grid, samples))


def canonical_endpoints(potential, energies, grid, samples):
    """Endpoints of the canonical pair at each of many energies, marched together.

    Returns one Endpoints per energy, in order, each equal bit for bit to
    canonical_pair(...).ends at that energy whatever else the batch holds.
    samples are sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)
    reflected = _reflected(potential, grid)

    def side(table):
        # (C, C', S, S') of each energy, as Python floats
        return _propagate(table, energies, False).swapaxes(0, 1).reshape(4, -1).T.tolist()

    # a reflected pair mirrors its right end; otherwise, without a left sweep
    # the left end is the origin, a march of no steps
    right = side(samples.tables[0])
    left = right if reflected else side(samples.tables[1])
    return [_endpoints(e, grid, reflected, lv, rv)
            for e, lv, rv in zip(energies.tolist(), left, right)]
