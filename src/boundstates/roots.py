"""The method table, bracket scanning and root refinement.

One table maps each method name to its two boundary rows (wm.py, cfm.py),
the parity factors it reads on a symmetric problem, and the check that a
problem admits it. characteristic_for builds every characteristic function
from it, each the scale-free F of wm.boundary_value, and find_eigenvalues
assembles the levels of a solve from one kept march over its roots.

On a symmetric problem a method's value is its parity factors (see
characteristic_for). Their product, the determinant, changes sign twice at an
even and an odd level inside one probe cell, where each factor changes sign
once; so the scan brackets each factor, and each Bracket carries its factor.

No built-in F has poles, but a caller's function may: an endpoint ratio
changes sign at poles as well as at roots. A simple zero shrinks |F| as the
probes close in; a pole grows it. Sign changes whose flanks grow toward the
crossing are subdivided tenfold and judged by that zoom trend, and
refinement aborts a bracket whose |F| runs past 1e3 times its entry scale.

Refinement is Anderson-Bjorck false position (refine_root), closing a
bracket of smooth F in a few steps. roots() runs every bracket of a solve, of
either factor, in lockstep: each iteration evaluates all open brackets'
candidates in one batch, so a solve marches once per iteration. Each bracket
keeps the iterates it would have alone, and a batch gives every energy the
same bits as a batch of one, so the roots do not depend on what else is
refined. The solver and the oracles all close their brackets through roots().
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cfm import cfm_rows
from .core import HARD_DIRICHLET, CharacteristicFunction, RefinementError, SolverError, whole
# canonical_pair is not called here, but bench/tracer.py counts pairs by
# rebinding it in this module
from .integrate import canonical_endpoints, canonical_pair, canonical_pairs, sample_potential
from .wm import assemble_eigenresult, boundary_value, wm_eigenfunction, wm_rows


def _symmetric(problem):
    if not problem.symmetric:
        raise ValueError("even/odd splitting needs a parity invariant potential on a half or "
                         f"mirrored grid about x0 = 0, got {problem.grid}")


def _hard_walls(problem):
    asym = problem.asymptotics
    if asym.left_kind != HARD_DIRICHLET or asym.right_kind != HARD_DIRICHLET:
        raise ValueError("the two-wall determinant needs hard walls on both sides")


# method -> (rows of a batch's Endpoints, the parity factors it reads on a
# symmetric problem, 0 even and 1 odd, check that raises ValueError on a problem it does not fit)
_METHODS = {
    "wm": (wm_rows, (0, 1), None),
    "wm-even": (wm_rows, (0,), _symmetric),
    "wm-odd": (wm_rows, (1,), _symmetric),
    "cfm": (cfm_rows, (0, 1), None),
    "dirichlet": (cfm_rows, (0, 1), _hard_walls),
}
METHODS = tuple(_METHODS)

# flank growth that makes a sign change worth a closer look
SUSPECT_GROWTH = 2.0
# |F| exceeding this multiple of its bracket-entry scale means the bracket
# straddles a pole, not a root
RUNAWAY_FACTOR = 1e3


class RefinementWarning(UserWarning):
    """A bracket was dropped after refinement failed."""


@dataclass(frozen=True)
class Bracket:
    """A sign change of the characteristic function.

    pole_suspect marks sign changes the zoom test attributed to a pole; no
    built-in method has poles, so find_eigenvalues refines every bracket.
    factor indexes the value's factor tuple (0 where it does not factor);
    f_lo and f_hi are that factor's values at lo and hi.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    pole_suspect: bool = False
    factor: int = 0


def _default_probes(lo, hi):
    # 200 probes per 10 units of energy, clamped to something usable
    return int(min(20000, max(40, math.ceil(20.0 * (hi - lo)))))


def _window(energy_range):
    # the (lo, hi) of a scan window, which must be finite and in order
    lo, hi = float(energy_range[0]), float(energy_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"energy window must be finite, got {energy_range!r}")
    if lo > hi:
        raise ValueError(f"energy range is reversed: {energy_range!r}")
    return lo, hi


def scan_brackets(char_fn, energy_range, n_probe=None):
    """Probe uniformly and collect sign-change brackets, factor by factor.

    n_probe cells of equal width are probed at their n_probe + 1 edges.
    Flagged probes (poles, overflow, degenerate asymptotics) are skipped; a
    sign change spanning skipped probes is subdivided before acceptance, and
    a run of two or more flagged probes, which covers a whole cell, gives one
    RefinementWarning naming its span. An exact zero on a probe is bracketed
    by its nearest unflagged neighbours on each side, or is a zero-width
    bracket when one side has none (a zero on a window edge). Returns every
    factor's brackets in energy order, pole-suspect ones included but marked.
    A non-finite or reversed range, or an n_probe that is not a whole number
    of at least one cell, raises ValueError.
    """
    lo, hi = _window(energy_range)
    n_probe = _default_probes(lo, hi) if n_probe is None else whole("n_probe", n_probe, 1)
    if lo == hi:
        return []
    eps = np.linspace(lo, hi, n_probe + 1)
    rows = char_fn.evaluate_many(eps)
    # a run of flagged probes that spans a whole cell hides any level in it
    start = 0
    for good, run in itertools.groupby(~np.isnan(rows[:, 0])):
        n = len(list(run))
        if not good and n > 1:
            warnings.warn(f"every probe from {eps[start]:.9g} to {eps[start + n - 1]:.9g} "
                          "was flagged; levels in that span are not bracketed",
                          RefinementWarning)
        start += n
    brackets = []
    for factor, values in enumerate(rows.T):
        ok = np.flatnonzero(~np.isnan(values))
        for p, q in _sign_changes(values[ok]):
            a, b = ok[p], ok[q]
            fa, fb = float(values[a]), float(values[b])
            f_prev = values[ok[p - 1]] if p > 0 else None
            f_next = values[ok[q + 1]] if q + 1 < len(ok) else None
            growing = (f_prev is not None and abs(fa) > SUSPECT_GROWTH * abs(f_prev)
                       and f_next is not None and abs(fb) > SUSPECT_GROWTH * abs(f_next))
            # an exact hit (q > p + 1) is bracketed as found, by its neighbours or itself
            if q == p + 1 and (b - a > 1 or growing):
                brackets.extend(_subdivide(char_fn, float(eps[a]), float(eps[b]), fa, fb, factor))
            else:
                brackets.append(Bracket(float(eps[a]), float(eps[b]), fa, fb, factor=factor))
    return sorted(brackets, key=lambda br: br.lo)  # stable: factors keep their order


def _sign_changes(values):
    # (p, q) positions in values, none NaN, of each sign change, in order. A
    # zero has no sign: it is bracketed by its neighbours when they straddle
    # it, and by itself (p == q) at either end
    neg, zero, last = values < 0.0, values == 0.0, len(values) - 1
    p = np.flatnonzero(~zero[:-1] & ~zero[1:] & (neg[:-1] != neg[1:]))
    z = np.flatnonzero(zero)
    inner = z[(z > 0) & (z < last)]
    inner = inner[neg[inner - 1] != neg[inner + 1]]
    edge = z[(z == 0) | (z == last)]
    at = np.concatenate([p, inner, edge])
    pairs = np.concatenate([np.stack([p, p + 1]), np.stack([inner - 1, inner + 1]),
                            np.stack([edge, edge])], axis=1)
    return pairs[:, np.argsort(at, kind="stable")].T.tolist()


def _subdivide(char_fn, e_lo, e_hi, f_lo, f_hi, factor):
    # zoom in tenfold on one factor and judge each inner sign change by
    # whether the crossing-adjacent magnitudes grew (pole) or shrank (root)
    sub = np.linspace(e_lo, e_hi, 11)
    vals = np.concatenate([[f_lo], char_fn.evaluate_many(sub[1:-1])[:, factor], [f_hi]])
    outer_floor = min(abs(f_lo), abs(f_hi))
    idx = np.flatnonzero(~np.isnan(vals))
    out = []
    for p, q in _sign_changes(vals[idx]):
        i, j = idx[p], idx[q]
        fi, fj = float(vals[i]), float(vals[j])
        suspect = min(abs(fi), abs(fj)) > outer_floor
        out.append(Bracket(float(sub[i]), float(sub[j]), fi, fj, suspect, factor))
    return out


def refine_root(char_fn, bracket, tol_e=1e-10, max_iter=200):
    """Shrink a bracket to a root by Anderson-Bjorck false position.

    The lockstep refinement of roots() run on one bracket (see _Refinement):
    the false position of the stored end values, or the midpoint where it
    falls outside the bracket or is flagged, scaling the stored value at an
    end kept twice in a row (Anderson & Bjorck, BIT 13, 1973). Converges when
    the bracket is narrower than tol_e, on an exact zero, or at an iterate
    where |F| is below 1e-12 of its entry scale and F changes sign within
    tol_e of it (Brent's tolerance step). Where F keeps its sign there, F is
    flat: the bracket moves to that point, bisects once and resumes. tol_e is
    floored at Brent's 2 eps |x| over the bracket, so one below the float
    spacing still converges. F is the bracket's factor of char_fn, checked
    first to have the signs of f_lo and f_hi.

    Raises:
        ValueError: when it has not, as for a bracket of another factor, for
            a tol_e that is not finite, or a max_iter not a whole number >= 1.
        RefinementError: on iteration runoff, on flagged evaluations at the
            midpoint, or when |F| runs away (bracketed pole).
    """
    if bracket.hi != bracket.lo:
        rows = char_fn.evaluate_many([bracket.lo, bracket.hi])
        ends = (rows[:, bracket.factor].tolist() if bracket.factor in range(rows.shape[1])
                else [math.nan] * 2)
        if not all(f == s or f * s > 0 for f, s in zip(ends, (bracket.f_lo, bracket.f_hi))):
            raise ValueError(f"{bracket} does not hold the signs of factor {bracket.factor} "
                             f"of {char_fn.label!r} at its ends, {ends}")
    (out,) = _refine_lockstep(char_fn, [bracket], tol_e, max_iter)
    if isinstance(out, RefinementError):
        raise out
    return out


class _Refinement:
    """One bracket's state inside the lockstep loop.

    flo and fhi are the stored end values that the false position reads;
    Anderson-Bjorck scaling shrinks the one at an end that is kept twice in a
    row. The true F decides every stopping and dropping test. settled is the
    end where |F| fell below the stop, while the point tol_e past it is
    checked; bisect makes the next candidate the midpoint.
    """

    def __init__(self, bracket, tol_e):
        self.lo, self.hi = bracket.lo, bracket.hi
        self.flo, self.fhi = bracket.f_lo, bracket.f_hi
        self.fscale = max(abs(self.flo), abs(self.fhi))
        self._tol_e = tol_e
        self.kept = None
        self.settled = None
        self.bisect = False

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    @property
    def tol_e(self):
        # floored at Brent's 2 eps |x| (eps = ulp(1)): the width test holds
        # between adjacent floats, and the point tol_e past an end is another
        return max(self._tol_e, 2.0 * math.ulp(1.0) * max(abs(self.lo), abs(self.hi)))

    def candidate(self):
        if self.settled is not None:
            return self.settled + (self.tol_e if self.settled == self.lo else -self.tol_e)
        if self.fhi != self.flo and not self.bisect:
            x = self.hi - self.fhi * (self.hi - self.lo) / (self.fhi - self.flo)
            if self.lo < x < self.hi:
                return x
        return self.mid

    def update(self, cand, f):
        """Take F(cand) into the bracket.

        Returns the root once converged, the RefinementError that drops the
        bracket, or None while it stays open.
        """
        if self.settled is not None:
            return self._check(cand, f)
        self.bisect = False
        if math.isnan(f):
            return RefinementError(
                f"flagged evaluation at {cand!r} inside bracket", self.lo, self.hi)
        if abs(f) > RUNAWAY_FACTOR * self.fscale:
            return RefinementError(
                f"|F| ran away at {cand!r}; bracket straddles a pole", self.lo, self.hi)
        if f == 0.0:
            return cand
        if (f < 0) == (self.flo < 0):
            if self.kept == "hi":
                self.fhi *= _ab_factor(f, self.flo)
            self.lo, self.flo, self.kept = cand, f, "hi"
        else:
            if self.kept == "lo":
                self.flo *= _ab_factor(f, self.fhi)
            self.hi, self.fhi, self.kept = cand, f, "lo"
        if abs(f) < 1e-12 * self.fscale:
            # cand is an end now, so the bracket is its open side
            if self.hi - self.lo < self.tol_e:
                return cand
            self.settled = cand
        return None

    def _check(self, cand, f):
        # F at the point tol_e past the settled end: a sign change, a zero or
        # a flag there ends at that end; the same sign means F is flat and
        # the root lies further in, so the bracket moves there and bisects
        settled, self.settled = self.settled, None
        at_lo = settled == self.lo
        if math.isnan(f) or f == 0.0 or (f < 0) != ((self.flo if at_lo else self.fhi) < 0):
            return settled
        if at_lo:
            self.lo, self.flo = cand, f
        else:
            self.hi, self.fhi = cand, f
        self.kept, self.bisect = None, True
        return None


def _ab_factor(f, f_replaced):
    # Anderson & Bjorck (BIT 13, 1973): the kept end's stored value is scaled
    # by 1 - F(c)/F(replaced end), or halved where that is not positive
    m = 1.0 - f / f_replaced
    return m if m > 0.0 else 0.5


def _refine_lockstep(char_fn, brackets, tol_e, max_iter):
    # refine_root on every bracket at once: each iteration evaluates every
    # open bracket's candidate, whatever its factor, in one batch, then
    # retries flagged false positions (not the checks past a settled end) at
    # their midpoints in a second. Each bracket keeps its own iterates and
    # reads its own factor, and a batch gives each energy the bits it gets alone.
    # Returns each bracket's root, or the RefinementError that dropped it.
    if not math.isfinite(tol_e):  # no width is below it, and no root passes roots()' dedupe
        raise ValueError(f"tol_e must be finite, got {tol_e!r}")
    max_iter = whole("max_iter", max_iter, 1)
    out = [br.lo for br in brackets]  # a zero-width bracket is its own root
    live = {k: _Refinement(br, tol_e) for k, br in enumerate(brackets) if br.hi != br.lo}
    for _ in range(max_iter):
        for k, r in list(live.items()):
            if r.hi - r.lo < r.tol_e:
                out[k] = r.mid
                del live[k]
        if not live:
            break
        cands = {k: r.candidate() for k, r in live.items()}
        rows = char_fn.evaluate_many(list(cands.values()))
        fs = {k: float(row[brackets[k].factor]) for k, row in zip(cands, rows)}
        retry = [k for k in cands if math.isnan(fs[k]) and cands[k] != live[k].mid
                 and live[k].settled is None]
        if retry:
            for k, row in zip(retry, char_fn.evaluate_many([live[k].mid for k in retry])):
                cands[k], fs[k] = live[k].mid, float(row[brackets[k].factor])
        for k in cands:
            done = live[k].update(cands[k], fs[k])
            if done is not None:
                out[k] = done
                del live[k]
    for k, r in live.items():
        out[k] = RefinementError(f"no convergence in {max_iter} iterations", r.lo, r.hi)
    return out


def roots(char_fn, brackets, tol_e=1e-10, max_iter=200):
    """The roots of char_fn that brackets hold, refined in lockstep and sorted.

    A bracket that fails to refine is dropped with a RefinementWarning naming
    it. A root within 10 tol_e of the last one kept of its factor is the same
    level bracketed twice and is dropped; an even and an odd level may be closer.
    """
    found, last = [], {}
    for br, root in zip(brackets, _refine_lockstep(char_fn, brackets, tol_e, max_iter)):
        if isinstance(root, RefinementError):
            warnings.warn(
                f"bracket [{br.lo:.9g}, {br.hi:.9g}] dropped: {root}", RefinementWarning)
        elif abs(root - last.get(br.factor, math.inf)) > 10.0 * tol_e:
            found.append(root)
            last[br.factor] = root
    return sorted(found)


def characteristic_for(problem, method):
    """CharacteristicFunction of a method in the table, labelled by its name.

    v is sampled once and kept as .samples. evaluate_many() marches a batch
    endpoint-only through them and takes F of the method's rows over it as
    arrays; evaluate() is a batch of one. On a symmetric
    problem the value is instead the tuple of its parity factors, F against the
    origin row of psi'(0) = 0 or psi(0) = 0, read from r_R (wm.boundary_value):
    (even, odd) for wm, cfm and dirichlet, (even,) for wm-even, (odd,) for wm-odd.

    Raises:
        ValueError: for an unknown method, or a problem it does not apply to.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    rows, factors, check = _METHODS[method]
    if check is not None:
        check(problem)
    factors = factors if problem.symmetric else None
    pot, grid = problem.potential, problem.grid
    samples = sample_potential(pot, grid)

    def many(energies):
        return boundary_value(rows, problem, canonical_endpoints(pot, energies, grid, samples),
                              factors)

    return CharacteristicFunction(many, label=method, samples=samples)


def dirichlet_determinant(problem):
    """Characteristic function of the wall rows (C_L, S_L) and (C_R, S_R) for boxed problems."""
    return characteristic_for(problem, "dirichlet")


def _assemble_cfm(problem, root, pair):
    # wm_eigenfunction with CFM's rows, from the pair at root
    return assemble_eigenresult(problem, cfm_rows, pair)


def find_eigenvalues(problem, method="wm", energy_range=None, n_probe=None,
                     tol_e=1e-10, max_iter=200):
    """Scan, refine, and assemble the bound states in a window.

    Args:
        problem: the assembled Problem.
        method: one of wm, wm-even, wm-odd, cfm, dirichlet.
        energy_range: scan window; defaults to problem.energy_range.
        n_probe: probe cells; defaults to 200 per 10 units of energy.
        tol_e: refinement width tolerance.

    On a symmetric problem wm's levels are wm-even's and wm-odd's together, bit for bit.

    Returns:
        EigenResults sorted by energy and indexed by position. Brackets that
        fail to refine and levels that fail to assemble are reported as
        RefinementWarnings, not errors.
    """
    char_fn = characteristic_for(problem, method)
    window = energy_range if energy_range is not None else problem.energy_range
    energies = roots(char_fn, scan_brackets(char_fn, window, n_probe), tol_e, max_iter)
    assemble = _assemble_cfm if _METHODS[method][0] is cfm_rows else wm_eigenfunction
    # every level's pair from one march through the samples the scan read
    pairs = canonical_pairs(problem.potential, energies, problem.grid, char_fn.samples)
    results = []
    for root, pair in zip(energies, pairs):
        try:
            res = assemble(problem, root, pair)
        except SolverError as exc:
            warnings.warn(f"level at {root:.9g} dropped: {exc}", RefinementWarning)
            continue
        results.append(replace(res, index=len(results)))
    return results
