"""Real-interval counting of eigenvalues, map zeros and map poles.

Everything here is sign-change based: the operators are self-adjoint, so
eigenvalues are zeros of a real-valued Evans function on the real axis and
the counting identity

    N_full = sum over pieces of N_piece + delta_N

holds with delta_N = (zeros - poles) of the two-sided map on the interval.
Zeros where the function dips without changing sign are probed and counted
with multiplicity two.  A higher one is miscounted silently: an odd one
(3, 5, ...) is one sign change and counts once, an even one a dip that
counts twice, as on a Kirchhoff star of n equal wires (multiplicity n - 1).
verify_counting may then FAIL, or hold on a wrong count (ROADMAP item 1).

The scans evaluate a whole grid in one call of a function of an array of
lambda, then refine all its sign-change brackets with one call per step;
dip probes call it with one-element arrays.  verify_counting scans the full
graph and every piece as one such function, one kernel evaluation a step
for all, each bracket carrying its function's row; a single count is the
one-function case.  Its terms (maps.SplitTerms) split the graph and plan
the legs of every Evans problem and of the two-sided map once; the
endpoint probe, the grids and every refinement step evaluate those plans,
and count_report keeps one SplitTerms for all the intervals of a scenario.
verify_counting alone scans the map, with the pieces' zeros as its poles;
two closer than POLE_MERGE_TOL (1 + lambda) merge, losing any map zero
between them (ROADMAP 1a, 2).  count_zeros scans any real function of lambda.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import maps
from .evans import _evans_values

REFINE_TOL = 1e-10
GRID_PER_UNIT = 512       # grid points per unit of sqrt(lambda) span
MIN_GRID = 64
DIP_PREFILTER = 1e-4      # |f| below this times scale: candidate tangency
DIP_ACCEPT = 1e-9         # refined |f| minimum below this times scale: double zero
POLE_MERGE_TOL = 1e-7     # poles of different denominators closer than this merge


class GridTooCoarse(UserWarning):
    pass


class EndpointNudged(UserWarning):
    pass


class EndpointOnSpectrum(ValueError):
    pass


class RefineFailure(ArithmeticError):
    """A root bracket met a non-finite value or did not converge."""


@dataclass(frozen=True)
class CountReport:
    interval: tuple
    zeros: tuple       # sorted ((location, multiplicity), ...)
    poles: tuple       # sorted ((location, order), ...)
    count: int         # sum of zero multiplicities
    delta_N: object    # zeros - poles for map reports, None otherwise


def lambda_grid(interval, grid=None):
    """Scan abscissae: uniform in sqrt(lambda) when the interval allows it.

    Zeros of trig-type secular functions are ~pi-spaced in sqrt(lambda), so
    equal spacing there keeps a fixed number of points per oscillation.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (hi > lo and np.isfinite((lo, hi)).all()):
        raise ValueError(f"interval [{lo}, {hi}] is empty or not finite")
    if grid is None:
        span = math.sqrt(hi) - math.sqrt(lo) if lo >= 0 else math.sqrt(hi - lo)
        grid = math.ceil(GRID_PER_UNIT * span)
    if int(grid) < 1:
        raise ValueError(f"scan grid must be at least 1, got {grid}")
    grid = max(MIN_GRID, int(grid))
    if lo >= 0:
        xs = np.linspace(math.sqrt(lo), math.sqrt(hi), grid + 1) ** 2
        xs[0], xs[-1] = lo, hi  # squaring may round the ends off the interval
        return xs
    return np.linspace(lo, hi, grid + 1)


def minimize_scalar(*args, **kwargs):
    """scipy.optimize.minimize_scalar, imported at the first dip probe: a
    count whose scan sees no dip never loads scipy.optimize."""
    from scipy.optimize import minimize_scalar
    return minimize_scalar(*args, **kwargs)


def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on first call.  Nothing here calls it
    (_refine refines every bracket in lock step); it stays a name of this
    module only because perfbench's tracer wraps it."""
    from scipy.optimize import brentq
    return brentq(*args, **kwargs)


def _refine_dip(f, a, b):
    res = minimize_scalar(lambda x: abs(f(x)), bounds=(a, b), method="bounded",
                          options={"xatol": REFINE_TOL})
    return float(res.x), float(res.fun)


def _refine(fs, a, b, fa, fb, rows=None):
    """Roots of fs in the brackets [a, b] with end values fa, fb, all at once:
    Chandrupatla's inverse quadratic / bisection hybrid (Adv. Eng. Softw. 28
    (1997) 145-149), one call of fs per step on the brackets still wider than
    0.5 * REFINE_TOL + 4 eps |x|; a root is the secant point of its last bracket.
    Where fs gives a row of values per function, bracket i refines row rows[i].
    """
    r = np.zeros(len(a), dtype=int) if rows is None else np.asarray(rows)
    roots, live, t, steps = np.empty(len(a)), np.arange(len(a)), 0.5, 0
    x1, x2, f1, f2 = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    with np.errstate(all="ignore"):
        while live.size:
            if steps == 100:  # brentq's default maxiter
                raise RefineFailure(f"{live.size} root bracket(s) not converged in 100 steps")
            steps += 1
            x = x1 + t * (x2 - x1)
            f = np.atleast_2d(np.asarray(fs(x), dtype=float))[r, np.arange(x.size)]
            if not np.isfinite(f).all():
                raise RefineFailure(f"non-finite value at lambda={x[~np.isfinite(f)][0]}")
            same = np.sign(f) == np.sign(f1)
            x3, f3, x2, f2 = np.where(same, [x1, f1, x2, f2], [x2, f2, x1, f1])
            x1, f1 = x, f
            tol = 0.5 * REFINE_TOL + 4 * np.finfo(float).eps * np.abs(x1)
            dx = np.abs(x2 - x1)
            done = (dx < tol) | (f1 == 0.0)
            roots[live[done]] = (x1 - f1 * (x2 - x1) / (f2 - f1))[done]
            # inverse quadratic step where the three points admit it, else bisect
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (phi ** 2 < xi) & ((1 - phi) ** 2 < 1 - xi)
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2) - (x3 - x1) / (x2 - x1)
                         * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)
            live, r, x1, x2, f1, f2, t = (v[~done] for v in (live, r, x1, x2, f1, f2, t))
    return roots


def _scan_zeros(fs, grids):
    """Sign-change zeros plus tangency (multiplicity 2) probing, one sorted list
    per sub-grid.  fs maps an array of lambda to real values, or to one row
    of them per function of several, which gives a list per function and
    sub-grid, function-major.  It is called once on all sub-grids together,
    then once per refinement step of all brackets, each bracket carrying its
    row: coincident functions have brackets at the same lambda.  Non-finite
    values (poles screened out by the caller) are skipped: sign changes,
    scale and dips are read per sub-grid, between finite samples.
    """
    with np.errstate(all="ignore"):
        vs = np.atleast_2d(np.asarray(fs(np.concatenate(grids)), dtype=float))

    cuts = np.cumsum([g.size for g in grids])[:-1]
    scans = [(row, xs[np.isfinite(v)], v[np.isfinite(v)])
             for row, vrow in enumerate(vs) for xs, v in zip(grids, np.split(vrow, cuts))]
    cells = [np.flatnonzero(fvs[:-1] * fvs[1:] < 0.0) for _, _, fvs in scans]
    ends = [(fxs[i], fxs[i + 1], fvs[i], fvs[i + 1]) for (_, fxs, fvs), i in zip(scans, cells)]
    a, b, fa, fb = (np.concatenate(col) for col in zip(*ends))
    rows = np.repeat([row for row, _, _ in scans], [i.size for i in cells])
    roots = np.split(_refine(fs, a, b, fa, fb, rows), np.cumsum([i.size for i in cells])[:-1])
    found = []
    for (row, fxs, fvs), refined in zip(scans, roots):
        if fxs.size < 2:
            found.append([])
            continue

        def f(x, row=row):
            return float(np.atleast_2d(fs(np.array([x])))[row, 0])

        scale = float(np.median(np.abs(fvs)))
        if scale == 0.0:
            scale = float(np.max(np.abs(fvs))) or 1.0
        # a grid point exactly on a zero shows no sign change to its neighbors
        zeros = [(float(x), 1) for x in fxs[fvs == 0.0]] + [(float(z), 1) for z in refined]
        # dips: local minima of |f| with no sign change can hide a double zero
        a, b, c = np.abs(fvs[:-2]), np.abs(fvs[1:-1]), np.abs(fvs[2:])
        dip = ((b <= a) & (b <= c) & (fvs[:-2] * fvs[1:-1] > 0) & (fvs[1:-1] * fvs[2:] > 0)
               & (b <= DIP_PREFILTER * scale))
        if zeros:
            taken = np.array([z for z, _ in zeros])
            gap = np.abs(taken[:, None] - fxs[1:-1]).min(axis=0)
            dip &= gap >= 2 * (fxs[2:] - fxs[:-2])
        for i in np.flatnonzero(dip) + 1:
            loc, fmin = _refine_dip(f, fxs[i - 1], fxs[i + 1])
            if fmin >= DIP_ACCEPT * scale:
                continue
            h = 0.125 * (fxs[i + 1] - fxs[i - 1])
            fm, fp = f(loc - h), f(loc + h)
            if fm * fp <= 0 or (f(loc) - fm) * (fp - f(loc)) >= 0:
                warnings.warn(f"tangency near lambda={loc:.6g} has an unexpected "
                              "derivative pattern; counting it as multiplicity 2",
                              GridTooCoarse)
            zeros.append((loc, 2))
        found.append(sorted(zeros))
    return found


def _warn_if_coarse(zeros, xs):
    locs = [z for z, _ in zeros]
    for a, b in zip(locs[:-1], locs[1:]):
        i = np.clip(np.searchsorted(xs, a) - 1, 0, xs.size - 2)
        if b - a < 2 * (xs[i + 1] - xs[i]):
            warnings.warn(f"zeros at {a:.9g} and {b:.9g} closer than two grid "
                          "cells; consider a finer grid", GridTooCoarse)


def _count(fs, interval, grid):
    """CountReports of the zeros of fs on one scan grid of the interval, one
    per function (see _scan_zeros)."""
    xs = lambda_grid(interval, grid)
    reports = []
    for zeros in _scan_zeros(fs, [xs]):
        zeros = [(z, m) for z, m in zeros if interval[0] < z < interval[1]]
        _warn_if_coarse(zeros, xs)
        reports.append(CountReport(interval=(float(interval[0]), float(interval[1])),
                                   zeros=tuple(zeros), poles=(),
                                   count=sum(m for _, m in zeros), delta_N=None))
    return reports


def count_zeros(f, interval, grid=None) -> CountReport:
    """Zeros of a real-valued function of one lambda on [lo, hi], endpoints excluded."""
    return _count(lambda xs: np.array([f(x) for x in xs], dtype=float), interval, grid)[0]


def count_eigenvalues(g, bc, interval, grid=None) -> CountReport:
    """Eigenvalue count as zeros of the canonical Evans function."""
    if not bc.is_real():
        raise ValueError("sign-change counting needs real boundary data")
    return _count(_evans_values([(g, bc)]), interval, grid)[0]


def _probe_step(x):
    """max(REFINE_TOL, 4 eps |x|), a step that moves x at any magnitude."""
    return max(REFINE_TOL, 4 * float(np.finfo(float).eps) * abs(x))


def _merge_poles(reports):
    events = sorted((z, m) for r in reports for z, m in r.zeros)
    merged = []
    for loc, order in events:
        if merged and loc - merged[-1][0] <= POLE_MERGE_TOL * (1 + abs(loc)):
            prev_loc, prev_order = merged[-1]
            merged[-1] = (prev_loc, prev_order + order)
        else:
            merged.append((loc, order))
    return merged


def _map_delta(fs, denominator_reports, interval, grid) -> CountReport:
    """Zeros minus poles of the two-sided map on an interval.

    Poles are not probed on the map itself: they are the zeros of the
    denominator Evans functions (the pieces' count reports), merged when
    coincident with orders summed.  A zero whose piece eigenfunction has no
    flux at the cut is a removable pole, an eigenvalue of the full graph
    too, and is counted all the same.  The map's own zeros are then counted
    by sign change on the pole-free subintervals, skipping samples where
    evaluation blew up.  fs maps an array of lambda to map values.
    """
    lo, hi = float(interval[0]), float(interval[1])
    poles = _merge_poles(denominator_reports)
    for p, _ in poles:
        if abs(p - lo) <= _probe_step(lo) or abs(p - hi) <= _probe_step(hi):
            raise EndpointOnSpectrum(f"map pole at lambda={p} sits on the interval boundary")

    total = lambda_grid(interval, grid).size - 1
    span = (math.sqrt(hi) - math.sqrt(lo)) if lo >= 0 else (hi - lo)
    subs = []
    bounds = [(lo, False)] + [(p, True) for p, _ in poles] + [(hi, False)]
    for (a, pole_a), (b, pole_b) in zip(bounds[:-1], bounds[1:]):
        # stay just clear of each refined pole: a sample landing on its far
        # side would fake a sign change.  The margin only needs to beat the
        # bisection uncertainty; zeros interlace arbitrarily close to poles,
        # so anything larger risks swallowing one.
        trim_a = 10 * REFINE_TOL * (1 + abs(a))
        trim_b = 10 * REFINE_TOL * (1 + abs(b))
        a_eff = a + trim_a if pole_a else a
        b_eff = b - trim_b if pole_b else b
        if b_eff - a_eff <= 4 * REFINE_TOL:
            continue
        share = ((math.sqrt(b) - math.sqrt(a)) / span) if lo >= 0 else ((b - a) / span)
        subs.append(lambda_grid((a_eff, b_eff), max(MIN_GRID, math.ceil(total * share))))
    found = _scan_zeros(fs, subs) if subs else []
    zeros = sorted((z, m) for sub, zs in zip(subs, found) for z, m in zs if sub[0] < z < sub[-1])
    n_zeros = sum(m for _, m in zeros)
    n_poles = sum(o for _, o in poles)
    return CountReport(interval=(lo, hi), zeros=tuple(zeros), poles=tuple(poles),
                       count=n_zeros, delta_N=n_zeros - n_poles)


@dataclass(frozen=True)
class CountingIdentityReport:
    interval: tuple
    full: CountReport
    pieces: dict           # piece key -> CountReport, factor order
    map_report: CountReport
    holds: bool

    @property
    def pieces_total(self):
        return sum(r.count for r in self.pieces.values())

    @property
    def delta_N(self):
        return self.map_report.delta_N

    def summary(self):
        terms = " + ".join(str(r.count) for r in self.pieces.values())
        verdict = "PASS" if self.holds else "FAIL"
        return f"{self.full.count} = {terms} + {self.delta_N} {verdict}"


def verify_counting(g, bc, spec, interval, grid=None, terms=None) -> CountingIdentityReport:
    """Check N_full = sum of piece counts + delta_N, all terms independent.

    Endpoints sitting on any involved spectrum (a sign change between
    x - h and x + h, h = max(REFINE_TOL, 4 eps |x|)) are nudged inward by
    10 h, with a warning; if that does not clear them the interval is
    rejected.  Pass terms=maps.SplitTerms(g, bc, spec) to reuse one split
    and its planned legs over several intervals.
    """
    if not bc.is_real():
        raise ValueError("sign-change counting needs real boundary data")
    terms = maps.SplitTerms(g, bc, spec) if terms is None else terms

    def on_spectrum(xs):
        pairs = np.array([(x - _probe_step(x), x + _probe_step(x)) for x in xs])
        vs = np.array(terms.evans(pairs.ravel())).reshape(-1, *pairs.shape)
        return np.any(vs[..., 0] * vs[..., 1] <= 0, axis=0)

    ends = lambda_grid(interval, grid)[[0, -1]].tolist()  # a bad interval fails before the probe
    for end in np.flatnonzero(on_spectrum(ends)):
        x = ends[end]
        moved = x + 10 * _probe_step(x) if end == 0 else x - 10 * _probe_step(x)
        warnings.warn(f"interval endpoint {x} sits on a spectrum; nudged to {moved}",
                      EndpointNudged)
        if on_spectrum([moved])[0]:
            raise EndpointOnSpectrum(f"endpoint {x} still on a spectrum after nudging")
        ends[end] = moved
    nudged = tuple(ends)
    full, *reports = _count(terms.evans, nudged, grid)
    piece_reports = dict(zip(terms.keys, reports))
    with np.errstate(all="ignore"):
        map_report = _map_delta(terms.value, list(piece_reports.values()), nudged, grid)
    holds = full.count == sum(r.count for r in piece_reports.values()) + map_report.delta_N
    return CountingIdentityReport(interval=nudged, full=full, pieces=piece_reports,
                                  map_report=map_report, holds=holds)
