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
first, in a tree over each block of pairs, then block after block. A side
shorter than one block fills only the least power of two of pairs that holds
it, with the bits of a whole block (_block).

A march is two passes over the same trees. `block_starts` multiplies each
block's tree up to its product and applies the products in order, keeping
Phi = [[C, S], [C', S']] at every block start and at the grid end, the
`Endpoints` of a scan's probes (`canonical_endpoints`). `kept_march` keeps
every state: it sweeps each block's tree back down from a given start,
matrix times state, Phi there for `canonical_pair`, whose last state is
then its end point bit for bit, or Phi there times a level's (a, b) for
eigenfunction assembly, which marches psi = a C + b S itself. Each block's
start then has the error of a C + b S there, and a decaying tail stays
exact: psi carried from block to block would grow its roundoff admixture of
the growing solution over the whole march. An energy's end points and
states have the same bits in any batch: products are associated by pair
index alone, and BLAS is assumed to give a product's rows the same
arithmetic for any row count from two up; numpy sends one row to gemv,
which rounds otherwise, so one energy is evaluated as two.
Bits are given up against a march that steps one point after the next, which
multiplies in another order, and against the RK4 stages, which round
otherwise than their polynomial form: both differ in the last digits.
Every march runs to the grid end: growth past the double range goes on as
inf or NaN, which the value functions flag as overflow.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .core import is_symmetric, sampled

class PairTable(NamedTuple):
    """One side's RK4 steps as polynomials in s = 2*eps, built once per solve.

    A step's matrix, which maps (phi, phi') at its start to its end, is a
    polynomial of degree 2 in s whose coefficients depend on v alone. Steps
    are stored in march order after identity steps: one when the count is
    odd, and pairs of them until the pairs fill whole blocks (_block). Pair
    j is steps 2j and 2j + 1; pairs holds their coefficients [row, column,
    degree, pair] from s**4 down, as the product that evaluates them reads
    them, and firsts those of step 2j, from s**2 down, for the states inside
    pairs.
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
_BLOCK = 128
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


def _block(n_pairs):
    # pairs per block of a side of n_pairs pairs: _BLOCK, or on a shorter side
    # the least power of two that holds it, two at least, since numpy sends a
    # product with one column of pairs to gemv, which rounds otherwise. The
    # pad is congruent modulo that power to a whole block's, and identity
    # pairs multiply finite matrices exactly, so the pairs associate and
    # round as in a block of _BLOCK; only an entry that overflowed may read
    # inf where the whole block read NaN (inf * 0 in an identity product).
    return min(_BLOCK, 1 << max(n_pairs - 1, 1).bit_length())


def _table(nodes, halves, h):
    # identity steps first, one for an odd count and pairs of them to whole
    # blocks; the table keeps a copy of the first steps alone
    n = len(halves)
    n_pairs = -(-n // 2)
    steps = _steps(nodes, halves, h, 2 * (-n_pairs % _block(n_pairs)) + n % 2)
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
    # Vandermonde product of the module docstring: [row, column, energy, pair]
    powers = np.vander(s if len(s) > 1 else s.repeat(2), coefs.shape[2])
    out = np.empty((2, 2, len(powers), coefs.shape[-1]))
    np.matmul(powers, coefs, out=out)
    return out[:, :, :len(s)]


def _chunks(table, energies):
    # (energy slice, s = 2*eps, pair slice): the energies in equal groups (a
    # lone energy is two rows), each across the pairs in spans of whole
    # blocks, a span holding at most a chunk of pair x energy elements
    n_pairs = table.pairs.shape[-1]
    block = _block(n_pairs)
    groups = max(1, -(-len(energies) * block // _CHUNK))
    width = max(1, -(-len(energies) // groups))
    span = max(1, _CHUNK // (max(2, width) * block)) * block
    for e0 in range(0, len(energies), width):
        e = slice(e0, e0 + width)
        for k0 in range(0, n_pairs, span):
            yield e, 2.0 * energies[e], slice(k0, min(k0 + span, n_pairs))


def _tree(x, block):
    # the levels of the tree over each block of pair matrices x, [row,
    # column, energy, pair] in blocks of block pairs, as [row, column,
    # energy, block, pair] from the pairs up to the block product: each
    # level multiplies neighbours of the one below, the later on the left
    x = x.reshape(*x.shape[:3], -1, block)
    yield x
    while x.shape[-1] > 1:
        x = _mul(x[..., 1::2], x[..., ::2])
        yield x


def _propagate(table, energies):
    # Phi = [[C, S], [C', S']] of each energy at the start of each block of
    # pairs and after the last, [row, column, energy, block]: I, then each
    # block's tree product applied to the state before it, in march order.
    # A kept march starts each block from Phi here, never from where its
    # sweep of the block before ends, which keeps a decaying tail exact.
    block = _block(table.pairs.shape[-1])
    out = np.empty((2, 2, len(energies), table.pairs.shape[-1] // block + 1))
    out[..., 0] = np.eye(2)[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for e, s, k in _chunks(table, energies):
            for q in _tree(_evaluate(table.pairs[..., k], s), block):
                pass  # up to the block products, each level freed in turn
            for b in range(q.shape[3]):
                j = k.start // block + b
                out[:, :, e, j + 1] = _mul(q[..., b, 0], out[:, :, e, j])
    return out


def _march(table, energies, starts):
    # Every state from starts [row, column, energy, block] at each block
    # boundary: down each block's tree, a node's left child applied to the
    # state before the node gives the state halfway through it, and pair j's
    # first step applied to state 2j gives 2j + 1. Returns the grid's last
    # n_steps + 1 states as columns [value or derivative, state], each
    # column's energies in turn, their count and False (bench/tracer.py).
    block = _block(table.pairs.shape[-1])
    out = np.empty((2, *starts.shape[1:3], 2 * table.pairs.shape[-1] + 1))
    out[..., ::2 * block] = starts
    with np.errstate(over="ignore", invalid="ignore"):
        for e, s, k in _chunks(table, energies):
            levels = list(itertools.islice(_tree(_evaluate(table.pairs[..., k], s), block),
                                           block.bit_length() - 1))
            span = out[:, :, e, 2 * k.start:2 * k.stop]
            blocks = span.reshape(*span.shape[:3], -1, 2 * block)
            # from the level below the block product down, each freed once swept
            while levels:
                d = 1 << len(levels)
                blocks[..., d::2 * d] = _mul(levels.pop()[..., ::2], blocks[..., ::2 * d])
            span[..., 1::2] = _mul(_evaluate(table.firsts[..., k], s), span[..., ::2])
    columns = np.moveaxis(out[..., -table.n_steps - 1:], 0, 2).reshape(-1, 2, table.n_steps + 1)
    return columns, table.n_steps + 1, False


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


def block_starts(energies, grid, samples):
    """Phi at the start of every block of pairs of each marched side, and the Endpoints.

    Returns (starts, ends): the right side's [row, column, energy, block]
    array, then the left's unless the problem is symmetric, each ending with
    Phi at its grid end, and those ends as the batch's Endpoints. samples
    are sample_potential's, one table in them on a symmetric problem.
    """
    energies = np.asarray(energies, dtype=float)
    starts = tuple(_propagate(table, energies) for table in samples.tables)
    # (C, C', S, S') at each end; a symmetric problem's left end mirrors the
    # right, and with no left sweep it is the origin, a march of no steps
    (c, dc, s, ds), left = (phi[..., -1].swapaxes(0, 1).reshape(4, -1)
                            for phi in (starts[0], starts[-1]))
    xr = grid.x_right
    left = (-xr, c, -dc, -s, ds) if len(samples.tables) == 1 else (grid.x_left, *left)
    return starts, Endpoints(energies, left, (xr, c, dc, s, ds))


def kept_march(energies, grid, samples, starts, parity):
    """Every state of the marches from given block starts, over the full logical line.

    starts are block_starts' arrays, Phi (whose columns march C and S) or
    Phi (a, b) per energy (which marches a C + b S). Returns (x, states),
    states [column, energy, value or derivative, point], the origin the
    right side's. On a symmetric problem the left half mirrors the right,
    its value times parity [column, energy], +1 or -1, its derivative
    times -parity, each negation 0.0 - x, which leaves a zero +0.0.
    """
    x = grid.x0 + grid.h * np.arange(grid.n_right + 1 - len(samples.line), grid.n_right + 1)
    shape = starts[0].shape[1:3]
    sides = [_march(table, energies, start)[0].reshape(*shape, 2, table.n_steps + 1)
             for table, start in zip(samples.tables, starts)]
    out = np.empty((*shape, 2, len(x)))
    i0 = len(x) - 1 - grid.n_right
    if len(samples.tables) == 1:
        out[..., :i0] = sides[0][..., :0:-1]
        for row, odd in ((0, parity < 0), (1, parity > 0)):
            np.subtract(0.0, out[:, :, row, :i0], out=out[:, :, row, :i0], where=odd[..., None])
    else:
        out[..., i0::-1] = sides[1]
    out[..., i0:] = sides[0]
    return x, out


def canonical_pair(potential, energy, grid, samples=None):
    """Build the canonical pair for one energy, keeping every sample.

    On a symmetric problem (core.is_symmetric), a half grid or a mirrored
    one, only the rightward sweep runs and the pair is reflected: its left
    half is the mirror image of the right, with C, S' and v even and x, C'
    and S odd. Each block starts from block_starts' Phi itself, so the pair
    ends on its Endpoints' bits. samples are sample_potential(potential,
    grid), sampled here without them.
    """
    if samples is None:
        samples = sample_potential(potential, grid)
    energies = np.array([float(energy)])
    starts, ends = block_starts(energies, grid, samples)
    x, states = kept_march(energies, grid, samples, starts, np.array([[1.0], [-1.0]]))
    (c, dc), (s, ds) = states[:, 0]
    return CanonicalPair(x, c, dc, s, ds, samples.line, ends)


def canonical_endpoints(energies, grid, samples):
    """block_starts' Endpoints alone: each energy's equal canonical_pair(...).ends bit for bit."""
    return block_starts(energies, grid, samples)[1]
