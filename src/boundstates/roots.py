"""The method table, bracket scanning and root refinement.

One table maps each method name to its two boundary rows (wm.py, cfm.py),
the entry of the right row a parity method reads, and the check that a
problem admits it. characteristic_for builds every characteristic function
from it, each the scale-free F of wm.boundary_value, and find_eigenvalues
assembles the levels of a solve from one kept march over its roots.

No built-in F has poles, but a caller's function may: an endpoint ratio
changes sign at poles as well as at roots. A simple zero shrinks |F| as the
probes close in; a pole grows it. Sign changes whose flanks grow toward the
crossing are subdivided tenfold and judged by that zoom trend, and
refinement aborts a bracket whose |F| runs past 1e3 times its entry scale.

Refinement is Anderson-Bjorck false position: between its poles F is smooth,
so the false position closes a bracket in a few steps, and scaling the value
at an end kept twice in a row keeps both ends moving. A small |F| ends it
only where F changes sign within tol_e, so a flat F does not stop it short.
roots() runs every bracket of a solve in lockstep: each iteration evaluates
all open brackets' candidates in one batch, so a solve marches once per
iteration rather than once per bracket per iteration. Each bracket keeps the
iterates it would have alone, and a batch gives every energy the same bits
as a batch of one, so the roots do not depend on what else is refined. The
solver and the oracles all close their brackets through roots().
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .cfm import cfm_rows
from .core import HARD_DIRICHLET, CharacteristicFunction, RefinementError, SolverError
# canonical_pair is not called here, but bench/tracer.py counts pairs by
# rebinding it in this module
from .integrate import canonical_endpoints, canonical_pair, canonical_pairs, sample_potential
from .wm import assemble_eigenresult, boundary_value, wm_eigenfunction, wm_rows


def _symmetric(problem):
    if not problem.symmetric:
        raise ValueError("even/odd splitting needs a parity invariant potential with x0 = 0")


def _hard_walls(problem):
    asym = problem.asymptotics
    if asym.left_kind != HARD_DIRICHLET or asym.right_kind != HARD_DIRICHLET:
        raise ValueError("the two-wall determinant needs hard walls on both sides")


# method -> (rows of one energy's Endpoints, the entry of r_R a parity method
# reads or None, check that raises ValueError on a problem it does not fit)
_METHODS = {
    "wm": (wm_rows, None, None),
    "wm-even": (wm_rows, 0, _symmetric),
    "wm-odd": (wm_rows, 1, _symmetric),
    "cfm": (cfm_rows, None, None),
    "dirichlet": (cfm_rows, None, _hard_walls),
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
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    pole_suspect: bool = False


def _values(char_fn, energies):
    # F at each energy in one batch, flagged evaluations as NaN
    return [ev.value if ev.ok else math.nan for ev in char_fn.evaluate_many(energies)]


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
    """Probe uniformly and collect sign-change brackets.

    n_probe cells of equal width are probed at their n_probe + 1 edges.
    Flagged probes (poles, overflow, degenerate asymptotics) are skipped; a
    sign change spanning skipped probes is subdivided before acceptance, and
    a run of two or more flagged probes, which covers a whole cell, gives a
    RefinementWarning naming its span. An exact zero on a probe is bracketed
    by its nearest unflagged neighbours on each side, or is a zero-width
    bracket when one side has none (a zero on a window edge).
    Returns brackets in energy order, pole-suspect ones included but marked.
    A non-finite or reversed range, or fewer than one probe cell, raises
    ValueError.
    """
    lo, hi = _window(energy_range)
    if n_probe is None:
        n_probe = _default_probes(lo, hi)
    elif n_probe < 1:
        raise ValueError(f"need at least one probe cell, got n_probe={n_probe!r}")
    if lo == hi:
        return []
    eps = np.linspace(lo, hi, int(n_probe) + 1)
    values = _values(char_fn, eps)
    # a run of flagged probes that spans a whole cell hides any level in it
    start = 0
    for good, run in itertools.groupby(not math.isnan(v) for v in values):
        n = len(list(run))
        if not good and n > 1:
            warnings.warn(f"every probe from {eps[start]:.9g} to {eps[start + n - 1]:.9g} "
                          "was flagged; levels in that span are not bracketed",
                          RefinementWarning)
        start += n
    ok = [i for i, v in enumerate(values) if not math.isnan(v)]
    brackets = []
    for p, q in _sign_changes(values, ok):
        a, b = ok[p], ok[q]
        fa, fb = values[a], values[b]
        if q != p + 1:
            # an exact hit, bracketed by its neighbours or by itself
            brackets.append(Bracket(float(eps[a]), float(eps[b]), fa, fb))
            continue
        gap = b - a > 1
        f_prev = values[ok[p - 1]] if p > 0 else None
        f_next = values[ok[q + 1]] if q + 1 < len(ok) else None
        growing = (f_prev is not None and abs(fa) > SUSPECT_GROWTH * abs(f_prev)
                   and f_next is not None and abs(fb) > SUSPECT_GROWTH * abs(f_next))
        if gap or growing:
            brackets.extend(_subdivide(char_fn, float(eps[a]), float(eps[b]), fa, fb))
        else:
            brackets.append(Bracket(float(eps[a]), float(eps[b]), fa, fb))
    return brackets


def _sign_changes(values, ok):
    # (p, q) positions in ok of each sign change of values, in energy order.
    # A zero has no sign: it is bracketed by its nearest unflagged neighbours
    # when they straddle it, and by itself (p == q) when it lacks one
    for p, i in enumerate(ok):
        if values[i] == 0.0:
            if p == 0 or p == len(ok) - 1:
                yield p, p
            elif (values[ok[p - 1]] < 0) != (values[ok[p + 1]] < 0):
                yield p - 1, p + 1
        elif p + 1 < len(ok):
            fj = values[ok[p + 1]]
            if fj != 0.0 and (values[i] < 0) != (fj < 0):
                yield p, p + 1


def _subdivide(char_fn, e_lo, e_hi, f_lo, f_hi):
    # zoom in tenfold and judge each inner sign change by whether the
    # crossing-adjacent magnitudes grew (pole) or shrank (root)
    sub = np.linspace(e_lo, e_hi, 11)
    vals = [f_lo] + _values(char_fn, sub[1:-1]) + [f_hi]
    outer_floor = min(abs(f_lo), abs(f_hi))
    idx = [i for i, v in enumerate(vals) if not math.isnan(v)]
    out = []
    for p, q in _sign_changes(vals, idx):
        i, j = idx[p], idx[q]
        fi, fj = vals[i], vals[j]
        suspect = min(abs(fi), abs(fj)) > outer_floor
        out.append(Bracket(float(sub[i]), float(sub[j]), fi, fj, pole_suspect=suspect))
    return out


def refine_root(char_fn, bracket, tol_e=1e-10, max_iter=200):
    """Shrink a bracket to a root by Anderson-Bjorck false position.

    Each iteration takes the false position of the stored end values when it
    lands strictly inside the current bracket, and the midpoint otherwise; a
    flagged false position is retried at the midpoint. When an end is kept
    twice in a row, its stored value is scaled down (Anderson & Bjorck, BIT
    13, 1973). Converges when the bracket is narrower than tol_e, on an exact
    zero, or at an iterate where |F| is below 1e-12 of its entry scale and F
    changes sign within tol_e of it (Brent's tolerance step): the next
    iteration evaluates the point tol_e past it on its open side. A sign
    change, a zero or a flagged value there, or an open side narrower than
    tol_e, returns the iterate. The same sign there means F is flat and the
    root lies further in: the bracket moves to that point, bisects once and
    resumes false position.
    This is the lockstep refinement of roots() run on one bracket.

    Raises:
        RefinementError: on iteration runoff, on flagged evaluations at the
            midpoint, or when |F| runs away (bracketed pole).
    """
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
        self.tol_e = tol_e
        self.kept = None
        self.settled = None
        self.bisect = False

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

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
    # open bracket's candidate in one batch, then retries flagged false
    # positions (not the checks past a settled end) at their midpoints in a
    # second. Each bracket keeps its own iterates, and a batch gives each
    # energy the bits it gets alone.
    # Returns each bracket's root, or the RefinementError that dropped it.
    out = [br.lo for br in brackets]  # a zero-width bracket is its own root
    live = {k: _Refinement(br, tol_e) for k, br in enumerate(brackets) if br.hi != br.lo}
    for _ in range(max_iter):
        for k, r in list(live.items()):
            if r.hi - r.lo < tol_e:
                out[k] = r.mid
                del live[k]
        if not live:
            break
        cands = {k: r.candidate() for k, r in live.items()}
        fs = dict(zip(cands, _values(char_fn, list(cands.values()))))
        retry = [k for k in cands if math.isnan(fs[k]) and cands[k] != live[k].mid
                 and live[k].settled is None]
        if retry:
            for k, f in zip(retry, _values(char_fn, [live[k].mid for k in retry])):
                cands[k], fs[k] = live[k].mid, f
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
    it. A root within 10 tol_e of the one kept before it, in bracket order,
    is the same level bracketed twice and is dropped.
    """
    found = []
    for br, root in zip(brackets, _refine_lockstep(char_fn, brackets, tol_e, max_iter)):
        if isinstance(root, RefinementError):
            warnings.warn(
                f"bracket [{br.lo:.9g}, {br.hi:.9g}] dropped: {root}", RefinementWarning)
            continue
        if found and abs(root - found[-1]) <= 10.0 * tol_e:
            continue
        found.append(root)
    return sorted(found)


def characteristic_for(problem, method):
    """CharacteristicFunction of a method in the table, labelled by its name.

    v is sampled once and kept as .samples. evaluate_many() marches a batch
    endpoint-only through them and takes F of the method's rows at each
    energy; evaluate() is evaluate_many() of one energy.

    Raises:
        ValueError: for an unknown method, or a problem it does not apply to.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    rows, entry, check = _METHODS[method]
    if check is not None:
        check(problem)
    pot, grid = problem.potential, problem.grid
    samples = sample_potential(pot, grid)

    def many(energies):
        return [boundary_value(rows, problem, ends, entry)
                for ends in canonical_endpoints(pot, energies, grid, samples)]

    return CharacteristicFunction(lambda e: many(np.array([e]))[0], label=method,
                                  many=many, samples=samples)


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
