"""Wronskian-method quantization, and the boundary-row rule every method shares.

A bound state psi = a2 C + b2 S meets each boundary condition through a row,
row(ref, end) = (W(ref, C), W(ref, S)) of a reference solution at that grid
end, so the levels are the energies where the two rows are parallel. WM's
references are the asymptotic convergent members L_c at x_left and R_c at
x_right, read by references; their rows r_L and r_R are wm_rows. CFM's
(cfm.py) are wall solutions, whose rows WM's equal on hard walls.

F divides each row by its larger entry and takes det(r_L, r_R) / (|r_L| |r_R|),
the sine of the angle between them: no poles, no overflow while the rows are
finite, and every bit kept when one side's pair is scaled by a power of two.
On a symmetric problem F against the origin row of psi'(0) = 0, (0, -1), or
of psi(0) = 0, (1, 0), is W(R_c, C) or W(R_c, S) over |r_R|, the even or the
odd factor. A level is assembled from its method's rows, each side of x0
from its own, with the parity of the factor that vanishes.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DegenerateAsymptoticsError,
    DegenerateRootError,
    EigenResult,
    Evaluation,
    on_array,
    wronskian,
)
from .integrate import canonical_pair

# off a symmetric problem, a level is signed by psi'(x0) where psi(x0) is at
# most this fraction of it, else by psi(x0)
PARITY_RATIO = 1e-6

NODE_FLOOR = 1e-7


def row(ref, end):
    """(W(ref, C), W(ref, S)) of a reference (value, slope) at a pair end (x, C, C', S, S').

    Elementwise: end is an Endpoints side or a CanonicalPair's first five arrays.
    """
    v, d = ref
    _, c, dc, s, ds = end
    return wronskian(v, d, c, dc), wronskian(v, d, s, ds)


def references(problem, ends):
    """(L_c, W(L_c, L_d)) and (R_c, W(R_c, R_d)) over a batch: each member at its grid end.

    Each member is called once, on the batch's energy array (core.on_array).
    """
    asym, e = problem.asymptotics, ends.energy
    out = []
    for (x, *_), conv, div in ((ends.left, asym.left_convergent, asym.left_divergent),
                               (ends.right, asym.right_convergent, asym.right_divergent)):
        ref = on_array(lambda e: conv(e, x), e, 2)
        out.append((ref, wronskian(*ref, *on_array(lambda e: div(e, x), e, 2))))
    return out


def _sound(w):
    # where a boundary pair's own Wronskian is finite and nonzero
    return np.isfinite(w) & (w != 0.0)


def wm_rows(problem, ends, refs=None):
    """WM's rows, the rows of the references L_c and R_c (refs, else references).

    Both are zero at an energy where either pair's Wronskian vanishes or is
    not finite, which F flags degenerate.
    """
    (lc, w_l), (rc, w_r) = references(problem, ends) if refs is None else refs
    sound = _sound(w_l) & _sound(w_r)
    return tuple(tuple(np.where(sound, a, 0.0) for a in row(ref, end))
                 for ref, end in ((lc, ends.left), (rc, ends.right)))


def _unit(a, b):
    # (a, b) over its larger entry, and the squared length of that
    m = np.maximum(np.abs(a), np.abs(b))
    a, b = a / m, b / m
    return a, b, a * a + b * b


def boundary_value(rows, problem, ends, factors=None):
    """F over a batch's Endpoints from a method's rows(problem, ends), as an Evaluation of arrays.

    With factors, a tuple of 0 (even) and 1 (odd), each energy's value is
    instead the row of those parity factors: F against the origin row of each
    in place of r_L, which is that entry of r_R / |r_R|.
    """
    with np.errstate(all="ignore"):
        return _sine(*rows(problem, ends), factors)


def _sine(row_l, row_r, factors=None):
    """boundary_value of rows in hand, one entry per energy, under np.errstate.

    An energy is flagged by its first row, left first (with factors, r_R
    alone, whose entries they read), that is not finite, "overflow", or is
    zero, "degenerate"; its value is NaN.
    """
    rows = (row_r,) if factors is not None else (row_l, row_r)
    flag = np.full(np.shape(row_r[0]), None, dtype=object)
    for a, b in reversed(rows):
        flag[(a == 0.0) & (b == 0.0)] = "degenerate"
        flag[~(np.isfinite(a) & np.isfinite(b))] = "overflow"
    ar, br, nr = _unit(*row_r)
    if factors is not None:
        value = np.stack([(ar, br)[f] for f in factors], axis=-1) / np.sqrt(nr)[..., None]
    else:
        al, bl, nl = _unit(*row_l)
        value = (al * br - ar * bl) / np.sqrt(nl * nr)
    value[np.not_equal(flag, None)] = np.nan
    return Evaluation(value, flag)


def wm_value(problem, ends):
    """WM characteristic value over a batch's Endpoints."""
    return boundary_value(wm_rows, problem, ends)


def wm_value_symmetric(problem, ends, parity):
    """WM parity factor, W(R_c, C) or W(R_c, S) over |r_R|, over a batch's Endpoints."""
    ev = boundary_value(wm_rows, problem, ends, (("even", "odd").index(parity),))
    return Evaluation(ev.value[:, 0], ev.flag)


def wm_eigenfunction(problem, root, pair=None):
    """Assemble the normalized eigenfunction at an accepted root from WM's rows.

    pair is the canonical pair at root, else one is marched. The index is the
    node count; callers re-index by spectral position.
    """
    if pair is None:
        pair = canonical_pair(problem.potential, root, problem.grid)
    return assemble_eigenresult(problem, wm_rows, pair)


def assemble_eigenresult(problem, rows, pair):
    """Build a normalized EigenResult from a method's boundary rows, evaluated once.

    pair.ends is a batch of one, whose references are read once and shared
    with the rows. Each side of x0 is the null direction of its own row, the
    left one scaled to meet the right at x0 (see EigenResult). On a symmetric
    problem the level's parity is the factor that vanishes, the smaller entry
    of r_R / |r_R|. Samples are L2 normalized by the trapezoid rule.

    Raises:
        DegenerateAsymptoticsError: where a boundary pair's own Wronskian
            vanishes or is not finite, naming the side.
        DegenerateRootError: where the rows or the samples cannot make a level.
    """
    x, c, dc, s, ds, v, ends = pair
    energy = float(ends.energy[0])
    with np.errstate(all="ignore"):
        refs = (lc, w_l), (rc, w_r) = references(problem, ends)
        for side, w in (("left", w_l), ("right", w_r)):
            if not _sound(w[0]):
                raise DegenerateAsymptoticsError(
                    f"asymptotic pair degenerate at the {side} endpoint "
                    f"(pair Wronskian {float(w[0])!r} at energy {energy!r})")
        row_l, row_r = rows(problem, ends, refs)
        f = _sine(row_l, row_r).at(0)
        # each side's WM row, which reads the admixture b1 or b3, and each
        # method row over its larger entry
        (lc_c, lc_s), (rc_c, rc_s), (al, bl, _), (ar, br, _) = (
            [float(a[0]) for a in r] for r in (row(lc, ends.left), row(rc, ends.right),
                                               _unit(*row_l), _unit(*row_r)))
    if not f.ok:
        raise DegenerateRootError(f"boundary rows {f.flag} at energy {energy!r}")
    # each row's null direction (b, -a), the left one scaled to meet the right
    # at x0, and both signed so that psi(x0) > 0, or psi'(x0) > 0 for an odd level
    odd = abs(br) < abs(ar)
    if (bl, al)[odd] == 0.0:
        raise DegenerateRootError(f"the two sides cannot meet at x0 at energy {energy!r}")
    k = odd if problem.symmetric else abs(br) <= PARITY_RATIO * abs(ar)
    sign = math.copysign(1.0, (br, -ar)[k])
    t = sign * (br, ar)[odd] / (bl, al)[odd]
    left, right = (t * bl, -t * al), (sign * br, -sign * ar)
    # each side in place on its own slice of the pair, x0 the sample n_right
    # from the end; a pair grown past the double range turns psi into inf or NaN
    i0 = len(x) - 1 - problem.grid.n_right
    psi, dpsi = np.empty_like(c), np.empty_like(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for side, (a, b) in ((slice(None, i0), left), (slice(i0, None), right)):
            for out, y, dy in ((psi, c, s), (dpsi, dc, ds)):
                np.multiply(y[side], a, out=out[side])
                out[side] += dy[side] * b
    if not (np.isfinite(psi).all() and np.isfinite(dpsi).all()):
        raise DegenerateRootError(
            f"canonical pair or coefficients not finite at energy {energy!r}")
    # divided by the largest antinode first, which keeps a member grown far
    # out on the grid from overflowing the norm
    top = max(float(psi.max()), -float(psi.min()))
    if top == 0.0:
        raise DegenerateRootError(f"eigenfunction norm degenerate at energy {energy!r}")
    psi /= top
    # L2 norm by the trapezoid rule on the uniform grid
    norm = math.sqrt(problem.grid.h * (np.sum(psi * psi) - 0.5 * (psi[0] ** 2 + psi[-1] ** 2)))
    psi /= norm
    dpsi /= top * norm
    (la, lb), (a2, b2) = ((a / (top * norm), b / (top * norm)) for a, b in (left, right))

    node_count = _count_nodes(psi, v, energy)
    return EigenResult(
        energy=energy, index=node_count,
        parity=("even", "odd")[odd] if problem.symmetric else "none",
        residual=abs(f.value), node_count=node_count,
        x=x, psi=psi, dpsi=dpsi, a2=a2, b2=b2,
        b1=(la * lc_c + lb * lc_s) / float(w_l[0]), b3=(a2 * rc_c + b2 * rc_s) / float(w_r[0]))


def _count_nodes(psi, v, energy):
    # Nodes of a bound state sit between the outermost classical turning
    # points; past them the true solution is monotone, but the residual
    # divergent admixture grows there and can fake a crossing, so restrict
    # the count to the allowed span. v holds the potential at psi's samples.
    allowed = v <= energy
    if allowed.any():
        i0 = int(allowed.argmax())
        i1 = len(psi) - 1 - int(allowed[::-1].argmax())
        psi = psi[i0:i1 + 1]
    # drop samples that are numerically zero so wall values and the exact
    # S(0) = 0 sample cannot fake or hide a crossing
    amp = max(psi.max(), -psi.min())
    live = psi[np.abs(psi) > NODE_FLOOR * amp]
    if live.size < 2:
        return 0
    signs = np.sign(live)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))
