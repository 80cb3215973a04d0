"""Canonical-pair integration.

Classical fixed-step RK4 on the first-order form of phi'' = 2(v - eps) phi.
v does not depend on the energy, so it is sampled once per solve: one call on
each marched side's grid points and one on its half-step points (core.on_array,
with its per-point fallback for a v that cannot take an array). A symmetric
problem (core.is_symmetric) marches its right side only, its left the mirror
image. An RK4 step is linear in the state, so a march of the canonical
solutions C (start 1, 0) and S (start 0, 1) is an ordered product of 2x2 step
matrices, and each step matrix is a quadratic polynomial in s = 2*eps whose
coefficients depend on v alone.
sample_potential multiplies the steps in pairs once per solve, into one
PairTable of quartic polynomials per marched side, stored in march order. A march
evaluates each pair's matrix at its energies by one BLAS product per entry,
the Vandermonde rows [s^4, ..., s, 1] of the energies times the coefficients,
highest degree first to add the terms in Horner's order, and multiplies half
as many matrices as there are steps, with no arithmetic on v: neighbours
first, in a tree over each block of pairs, then block after block.

`canonical_pairs` keeps every sample over the full logical line for a batch
of energies, every level of a solve (`canonical_pair` is a batch of one);
`canonical_endpoints` keeps only the end points, for a scan's probes or one
candidate per open bracket in a refinement step, as one `Endpoints` of arrays
over the batch. Both give an energy the same end points, bit for bit, whatever
the batch: products are associated by pair index alone, the scan that keeps
every state ends each block in the same tree, and BLAS is assumed to give a
product's rows the same arithmetic for any row count from two up; numpy sends
one row to gemv, which rounds otherwise, so one energy is evaluated as two.
Bits are given up against a march that steps one point after the next, which
multiplies in another order, and against the RK4 stages, which round
otherwise than their polynomial form: both differ in the last digits.
Every march runs to the grid end: growth past the double range goes on as
inf or NaN, which the value functions flag as overflow.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import is_symmetric, sampled

class PairTable(NamedTuple):
    """One side's RK4 steps as polynomials in s = 2*eps, built once per solve.

    A step's matrix, which maps (phi, phi') at its start to its end, is a
    polynomial of degree 2 in s whose coefficients depend on v alone. Steps
    are stored in march order after identity steps: one when the count is
    odd, and pairs of them until the pairs fill whole blocks. Pair j is
    steps 2j and 2j + 1; pairs holds their coefficients [row, column, degree,
    pair] from s**4 down, as the product that evaluates them reads them, and
    firsts those of step 2j, from s**2 down, for the states inside pairs.
    """

    pairs: np.ndarray
    firsts: np.ndarray
    n_steps: int


class PotentialSamples(NamedTuple):
    """v(x) on one grid, sampled once per solve.

    line is v at the pairs' x over the full logical line, for node counting.
    tables holds the right side's PairTable, then the left's unless the
    problem is symmetric, whose left side mirrors the right.
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
    # gm, gb), r = h^2/6 and t = h^2/4: the coefficients of s^2, s^1, s^0,
    # indexed [row, column, degree, step]
    ga, gm, gb = 2.0 * nodes[:-1], 2.0 * halves, 2.0 * nodes[1:]
    r, t = h * h / 6.0, h * h / 4.0
    out = np.zeros((2, 2, 3, pad + len(halves)))
    out[0, 0, 2, :pad] = out[1, 1, 2, :pad] = 1.0
    step = out[..., pad:]
    step[0, 0, 2] = 1.0 + r * (ga + 2.0 * gm + t * ga * gm)
    step[0, 1, 2] = h + (h * r) * gm
    step[1, 0, 2] = h / 6.0 * (ga + gb + 4.0 * gm + 2.0 * t * gm * (ga + gb))
    step[1, 1, 2] = 1.0 + r * (gb + 2.0 * gm + t * gb * gm)
    step[0, 0, 1] = -r * (3.0 + t * (ga + gm))
    step[0, 1, 1] = -h * r
    step[1, 0, 1] = -h / 6.0 * (6.0 + 2.0 * t * (ga + gb + 2.0 * gm))
    step[1, 1, 1] = -r * (3.0 + t * (gb + gm))
    step[0, 0, 0] = step[1, 1, 0] = r * t
    step[1, 0, 0] = 2.0 / 3.0 * h * t
    return out


def _table(nodes, halves, h):
    # identity steps first, one for an odd count and pairs of them to whole
    # blocks; the table keeps a copy of the first steps alone
    n = len(halves)
    steps = _steps(nodes, halves, h, 2 * (-n // 2 % _BLOCK) + n % 2)
    firsts, second = steps[..., 0::2].copy(), steps[..., 1::2]
    # a product of polynomials convolves their coefficients, summed from s^0 up
    pairs = np.zeros((2, 2, 5, firsts.shape[-1]))
    term, part = np.empty((2, 2, 2, firsts.shape[-1]))
    for a in range(2, -1, -1):
        for b in range(3):
            np.multiply(second[:, :1, b], firsts[:1, :, a], out=term)
            term += np.multiply(second[:, 1:, b], firsts[1:, :, a], out=part)
            pairs[:, :, a + b] += term
    return PairTable(pairs, firsts, n)


def sample_potential(potential, grid):
    """Sample potential.evaluate on each marched side of the grid and build its PairTable.

    v is called on each marched side's points and its step midpoints, right
    side first (core.sampled, which raises ValueError where v is not finite):
    on two arrays on a symmetric problem, else four.
    """
    v = potential.evaluate
    x0 = grid.x0

    def side(h, n):
        # the float operations of a per-point loop, x0 + j*h and (x0 + j*h) + h*0.5
        points = np.arange(n + 1.0) * h
        points += x0
        nodes = sampled(v, points)
        return nodes, _table(nodes, sampled(v, points[:-1] + h * 0.5), h)

    right, table = side(grid.h, grid.n_right)
    if is_symmetric(potential, grid):
        return PotentialSamples(np.concatenate([right[:0:-1], right]), (table,))
    left, ltable = side(-grid.h, grid.n_left)
    return PotentialSamples(np.concatenate([left[:0:-1], right]), (table, ltable))


def _evaluate(coefs, s):
    # coefs [row, column, degree, pair] at the energies s = 2*eps by the
    # Vandermonde product of the module docstring: [row, column, energy, block, pair]
    powers = np.vander(s if len(s) > 1 else s.repeat(2), coefs.shape[2])
    out = np.empty((2, 2, len(powers), coefs.shape[-1]))
    np.matmul(powers, coefs, out=out)
    return out[:, :, :len(s)].reshape(2, 2, len(s), -1, _BLOCK)


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
    # energies in equal groups, pairs in blocks of a chunk (a lone energy is two rows)
    groups = max(1, -(-len(energies) * _BLOCK // _CHUNK))
    width = max(1, -(-len(energies) // groups))
    span = max(1, _CHUNK // (max(2, width) * _BLOCK)) * _BLOCK
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
                x = _evaluate(table.pairs[..., k], s)
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
                    firsts = _evaluate(table.firsts[..., k], s)
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
    """A batch of energies' canonical pairs at the two ends of their grid.

    energy is the batch's array of energies. left and right are (x, C, C', S,
    S'): x a float, grid.x_left (-x_right on a symmetric problem, whose left
    end mirrors the right) or grid.x_right, and the rest arrays with one entry
    per energy. A march that outgrows the double range ends in inf or NaN,
    which the value functions flag.
    """

    energy: np.ndarray
    left: tuple
    right: tuple


class CanonicalPair(NamedTuple):
    """The canonical solutions C and S at every point of one grid.

    The arrays are grid ordered over the full logical line: a reflected pair
    (see canonical_pair) holds its mirrored left half too. v holds the
    potential samples at x, and ends the Endpoints of the energy alone, a batch of one.
    """

    x: np.ndarray
    c: np.ndarray
    dc: np.ndarray
    s: np.ndarray
    ds: np.ndarray
    v: np.ndarray
    ends: Endpoints


def _endpoints(energies, grid, reflected, left, right):
    # Endpoints from the arrays (C, C', S, S') at the end of each sweep; a
    # symmetric problem's left end mirrors its right: C(-x) = C(x), S(-x) = -S(x)
    xr, (c, dc, s, ds) = grid.x_right, right
    left = (-xr, c, -dc, -s, ds) if reflected else (grid.x_left, *left)
    return Endpoints(energies, left, (xr, c, dc, s, ds))


def canonical_pairs(potential, energies, grid, samples):
    """The canonical pair of each of many energies, every sample kept, marched together.

    Yields one CanonicalPair per energy, in order, each equal bit for bit to
    canonical_pair at that energy whatever else the batch holds. samples are
    sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)
    reflected = is_symmetric(potential, grid)

    def side(table):
        # [energy, column, value or derivative, state] from the origin out
        return _march(table, energies)[0].reshape(len(energies), 2, 2, -1)

    right = side(samples.tables[0])
    left = right if reflected else side(samples.tables[1])
    x = grid.x0 + grid.h * np.arange(grid.n_right + 1 - len(samples.line), grid.n_right + 1)
    for i, (lk, rk) in enumerate(zip(left, right)):
        ends = _endpoints(energies[i:i + 1], grid, reflected,
                          *(a[..., -1].reshape(4, 1) for a in (lk, rk)))
        # the left side from x_left in, without the origin, then the right;
        # mirrored, C and S' are even and C' and S odd, negated in place
        (c, dc), (s, ds) = pair = np.concatenate([lk[..., :0:-1], rk], axis=-1)
        if reflected:
            n = lk.shape[-1] - 1
            np.negative(pair[0, 1, :n], out=pair[0, 1, :n])
            np.negative(pair[1, 0, :n], out=pair[1, 0, :n])
        yield CanonicalPair(x, c, dc, s, ds, samples.line, ends)


def canonical_pair(potential, energy, grid, samples=None):
    """Build the canonical pair for one energy, keeping every sample.

    On a symmetric problem (core.is_symmetric), a half grid or a mirrored
    one, only the rightward sweep runs and the pair is reflected: its left
    half is the mirror image of the right, with C, S' and v even and x, C'
    and S odd. samples are the solve's PotentialSamples of this potential on
    this grid; without them v is sampled here. This is canonical_pairs of a
    batch of one.
    """
    if samples is None:
        samples = sample_potential(potential, grid)
    return next(canonical_pairs(potential, [energy], grid, samples))


def canonical_endpoints(potential, energies, grid, samples):
    """The Endpoints of the canonical pair at many energies, marched together.

    Each energy's entries equal bit for bit those of canonical_pair(...).ends
    at that energy whatever else the batch holds. samples are
    sample_potential(potential, grid).
    """
    energies = np.asarray(energies, dtype=float)
    reflected = is_symmetric(potential, grid)

    def side(table):
        # the arrays (C, C', S, S') over the energies
        return _propagate(table, energies, False).swapaxes(0, 1).reshape(4, -1)

    # a symmetric problem mirrors its right end; otherwise, without a left
    # sweep the left end is the origin, a march of no steps
    right = side(samples.tables[0])
    return _endpoints(energies, grid, reflected, right if reflected else side(samples.tables[1]),
                      right)
