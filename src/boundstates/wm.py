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
from its own, with the parity of the factor that vanishes, and psi is
marched as that combination; a solve assembles all its levels in one batch.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DegenerateAsymptoticsError,
    DegenerateRootError,
    EigenResult,
    Evaluation,
    on_array,
    wronskian,
)
# canonical_pair is not called here, but bench/tracer.py counts pairs by
# rebinding it in this module
from .integrate import block_starts, canonical_pair, kept_march, sample_potential

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


def wm_eigenfunction(problem, energies, samples=None):
    """assemble_eigenresult of WM's rows at a batch of accepted roots: an item per energy."""
    return assemble_eigenresult(problem, wm_rows, energies, samples)


def assemble_eigenresult(problem, rows, energies, samples=None):
    """Normalized EigenResults at many roots from a method's boundary rows, in one batch.

    integrate.block_starts gives the Endpoints, whose references are shared
    with the rows. Each side of x0 is the null direction (a, b) of its own
    row, the left scaled to meet the right at x0 (see EigenResult), and psi
    = a C + b S is marched itself, each block from Phi there times (a, b).
    On a symmetric problem the parity, the factor that vanishes (the smaller
    entry of r_R / |r_R|), signs the mirrored left half. psi is L2 normalized
    by the trapezoid rule. samples are sample_potential's, else sampled here.
    Returns per energy its EigenResult, indexed by node count, or the
    SolverError that stopped it: DegenerateAsymptoticsError, naming the side
    whose pair's own Wronskian vanishes or is not finite, or DegenerateRootError.
    """
    pot, grid = problem.potential, problem.grid
    samples = sample_potential(pot, grid) if samples is None else samples
    energies = np.asarray(energies, dtype=float)
    starts, ends = block_starts(energies, grid, samples)
    with np.errstate(all="ignore"):
        refs = (lc, w_l), (rc, w_r) = references(problem, ends)
        row_l, row_r = rows(problem, ends, refs)
        f = _sine(row_l, row_r)
        (al, bl, _), (ar, br, _) = _unit(*row_l), _unit(*row_r)
        # each row's null direction (b, -a), the left one scaled to meet the
        # right at x0, and both signed so that psi(x0) > 0, or psi'(x0) > 0
        # for an odd level
        odd = np.abs(br) < np.abs(ar)
        k = odd if problem.symmetric else np.abs(br) <= PARITY_RATIO * np.abs(ar)
        sign = np.copysign(1.0, np.where(k, -ar, br))
        t = sign * np.where(odd, ar, br) / np.where(odd, al, bl)
        sides = (sign * br, -sign * ar), (t * bl, -t * al)
        x, line = kept_march(energies, grid, samples,
                             [phi[:, :1] * a[:, None] + phi[:, 1:] * b[:, None]
                              for phi, (a, b) in zip(starts, sides)],
                             np.where(odd, -1.0, 1.0)[None])
        psi, dpsi = line[0].swapaxes(0, 1)
        finite = np.isfinite(line).all(axis=(0, 2, 3))
        # divided by the largest antinode first, which keeps a member grown
        # far out on the grid from overflowing the norm
        top = np.maximum(psi.max(axis=1), -psi.min(axis=1))
        psi /= top[:, None]
        norm = np.sqrt(grid.h * (np.sum(psi * psi, axis=1)
                                 - 0.5 * (psi[:, 0] ** 2 + psi[:, -1] ** 2)))
        psi /= norm[:, None]
        dpsi /= (top * norm)[:, None]
        (la, lb), (a2, b2) = ((a / (top * norm), b / (top * norm)) for a, b in sides[::-1])
        (lc_c, lc_s), (rc_c, rc_s) = row(lc, ends.left), row(rc, ends.right)
        b1, b3 = (la * lc_c + lb * lc_s) / w_l, (a2 * rc_c + b2 * rc_s) / w_r
        nodes = _count_nodes(psi, samples.line, energies)
    # each level owns a copy of its samples, so the batch's buffer goes with
    # the solve's other temporaries (0.5 MB less peak RSS on the README dump)
    out = []
    for i, energy in enumerate(energies.tolist()):
        if not (_sound(w_l[i]) and _sound(w_r[i])):
            side, w = ("left", w_l[i]) if not _sound(w_l[i]) else ("right", w_r[i])
            out.append(DegenerateAsymptoticsError(
                f"asymptotic pair degenerate at the {side} endpoint "
                f"(pair Wronskian {float(w)!r} at energy {energy!r})"))
        elif not np.isfinite(f.value[i]):
            out.append(DegenerateRootError(f"boundary rows {f.flag[i]} at energy {energy!r}"))
        elif (al[i] if odd[i] else bl[i]) == 0.0:
            out.append(DegenerateRootError(
                f"the two sides cannot meet at x0 at energy {energy!r}"))
        elif not finite[i]:
            out.append(DegenerateRootError(f"psi not finite at energy {energy!r}"))
        elif top[i] == 0.0:
            out.append(DegenerateRootError(f"eigenfunction norm degenerate at energy {energy!r}"))
        else:
            out.append(EigenResult(
                energy=energy, index=int(nodes[i]), residual=float(abs(f.value[i])),
                parity=("odd" if odd[i] else "even") if problem.symmetric else "none",
                node_count=int(nodes[i]), x=x, psi=psi[i].copy(), dpsi=dpsi[i].copy(),
                a2=float(a2[i]), b2=float(b2[i]), b1=float(b1[i]), b3=float(b3[i])))
    return out


def _count_nodes(psi, v, energy):
    # Nodes of each bound state psi [level, point] at its energy sit between
    # the outermost classical turning points; past them the residual
    # divergent admixture grows and can fake a crossing, so the count keeps
    # to the allowed span of v, at psi's points, if any.
    allowed = v <= np.reshape(energy, (-1, 1))
    j = np.arange(psi.shape[1])
    amp = np.abs(psi)
    amp[(j < allowed.argmax(axis=1)[:, None])
        | (j >= len(j) - allowed[:, ::-1].argmax(axis=1)[:, None])] = 0.0
    # samples numerically zero (walls, S(0) = 0) neither fake nor hide a
    # crossing: a node is a sign change between neighbours among one level's
    # live samples, which follow the level before's in up
    live = amp > NODE_FLOOR * amp.max(axis=1, keepdims=True)
    up = (psi > 0.0)[live]
    firsts = np.cumsum(np.count_nonzero(live, axis=1))[:-1]
    flips = np.flatnonzero(up[1:] != up[:-1]) + 1
    flips = flips[~np.isin(flips, firsts)]
    return np.bincount(np.searchsorted(firsts, flips, side="right"), minlength=len(psi))
