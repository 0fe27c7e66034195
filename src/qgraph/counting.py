"""Real-interval counting of eigenvalues, map zeros and map poles.

Eigenvalue counts are sign-change based: the operators are self-adjoint,
so eigenvalues are zeros of a real-valued Evans function on the real axis.
Zeros where the function dips without changing sign are probed and counted
with multiplicity two.  A higher one is miscounted silently: an odd one
(3, 5, ...) is one sign change and counts once, an even one a dip that
counts twice, as on a Kirchhoff star of n equal wires (multiplicity n - 1).

verify_counting checks the scan's full count by two routes with no
multiplicity to read, the split N_full = sum of N_piece + delta_N and the
vertex cut, each wire cut at the vertex with a Dirichlet end there, whose
zeros are simple (Sturm-Liouville).  Both take the rest of the count as
the change of n_-, the number of negative eigenvalues, of a sum of outward
Dirichlet-to-Neumann maps, which decrease in lambda (Friedlander, Arch.
Ration. Mech. Anal. 116 (1991) 153-160).  The scans evaluate a whole grid
in one call of a function of an array of lambda, then refine all its
sign-change brackets with one call per step; dip probes call it with
one-element arrays.  verify_counting scans the full graph, every piece and
every wire's z_j(0) as one such function, each bracket carrying its row,
from one plan (maps.SplitTerms) that count_report keeps for every
interval.  count_zeros scans any real function of lambda.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import maps
from .evans import _evans_values, chunked, z_values
from .graphs import RANK_TOL, as_index

REFINE_TOL = 1e-10
GRID_PER_UNIT = 512       # grid points per unit of sqrt(lambda) span
MIN_GRID = 64
DIP_PREFILTER = 1e-4      # |f| below this times scale: candidate tangency
DIP_ACCEPT = 1e-9         # refined |f| minimum below this times scale: double zero


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
    delta_N: object    # the split's delta_N (inertia) for map reports, None otherwise


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
    if as_index(grid, "scan grid") < 1:
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


def _stop_width(x):
    """_refine's stopping width at x: a root bracket narrower than this is done."""
    return 0.5 * REFINE_TOL + 4 * np.finfo(float).eps * np.abs(x)


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
            tol = _stop_width(x1)
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


def _scan_zeros(fs, xs):
    """Sign-change zeros plus tangency (multiplicity 2) probing on the grid
    xs, one sorted list per function.  fs maps an array of lambda to real
    values, or to one row of them per function of several; it is called on
    the grid, then once per refinement step of all brackets, each carrying
    its row.  Sign changes, scale and dips are read between finite samples.
    """
    with np.errstate(all="ignore"):
        vs = np.atleast_2d(np.asarray(fs(xs), dtype=float))

    scans = [(row, xs[np.isfinite(v)], v[np.isfinite(v)]) for row, v in enumerate(vs)]
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
    for zeros in _scan_zeros(fs, xs):
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


def _vertex_inertia(bc, t):
    """n_-(A_v), A_v = Q^H M Q + L~ (r x r), M = diag(-z'/z) the outward maps
    of the wires cut at the vertex (maps._dtn_block) from the transfers t
    (L, n, 2, 2) of the graph's z legs.  With alpha2 = U S V^H of rank r
    (graphs.RANK_TOL), the vertex condition reads u(0) = Q c for Q = V[:, :r]
    and Q^H u'(0) = L~ c for L~ = -S_r^-1 U_r^H alpha1 Q."""
    u, s, vh = np.linalg.svd(bc.alpha2)
    r = np.count_nonzero(s > RANK_TOL * s[0])
    q = vh[:r].conj().T
    lt = -(u[:, :r].conj().T @ bc.alpha1 @ q) / s[:r, None]
    return maps.negatives(q.conj().T @ (maps._dtn_block(maps.OUTER, bc, t, []) * q) + lt)


def _map_orders(full, pieces):
    """The two-sided map's (zeros, poles) as sorted (location, order)
    tuples: E = prod E_piece det(MM1 + MM2), so the order at a location is
    the full graph's multiplicity less the pieces'.  Zeros closer than
    twice _stop_width are one location, the lowest."""
    events = sorted([*full.zeros, *((z, -m) for r in pieces for z, m in r.zeros)])
    merged = []
    for x, m in events:
        if merged and x - merged[-1][0] < 2 * _stop_width(x):
            merged[-1][1] += m
        else:
            merged.append([x, m])
    return (tuple((x, m) for x, m in merged if m > 0),
            tuple((x, -m) for x, m in merged if m < 0))


@dataclass(frozen=True)
class CountingIdentityReport:
    interval: tuple
    full: CountReport
    pieces: dict           # piece key -> CountReport, factor order
    map_report: CountReport
    vertex_count: int      # sum of wire counts + delta n_-(A_v), every wire cut at the vertex

    @property
    def pieces_total(self):
        return sum(r.count for r in self.pieces.values())

    @property
    def delta_N(self):
        return self.map_report.delta_N

    @property
    def holds(self):
        return self.full.count == self.pieces_total + self.delta_N == self.vertex_count

    def summary(self):
        terms = " + ".join(str(r.count) for r in self.pieces.values())
        off = [name for name, count in (("the Evans scan", self.full.count),
                                        ("the split", self.pieces_total + self.delta_N))
               if count != self.vertex_count]  # empty exactly when the identity holds
        verdict = f"FAIL (the vertex cut counts {self.vertex_count}, not {' or '.join(off)})"
        return f"{self.full.count} = {terms} + {self.delta_N} {verdict if off else 'PASS'}"


def verify_counting(g, bc, spec, interval, grid=None, terms=None) -> CountingIdentityReport:
    """Check N_full = sum of piece counts + delta_N = the vertex cut's count.

    delta_N = n_-(A(hi)) - n_-(A(lo)), A = MM1 + MM2 (SplitTerms.inertia);
    the vertex cut counts the sign changes of each wire's z_j(0), plus
    n_-(A_v(hi)) - n_-(A_v(lo)) (_vertex_inertia).  Endpoints sitting on any
    involved spectrum (a sign change of an Evans value or a z_j(0) between
    x - h and x + h, h = max(REFINE_TOL, 4 eps |x|)) are nudged inward by
    10 h, with a warning; if that does not clear them the interval is
    rejected.  Pass terms=maps.SplitTerms(g, bc, spec) to reuse one split
    and its planned legs over several intervals.
    """
    if not bc.is_real():
        raise ValueError("sign-change counting needs real boundary data")
    terms = maps.SplitTerms(g, bc, spec) if terms is None else terms

    def rows(lams):  # every problem's Evans values, then each wire's z_j(0)
        def batch(ls):
            t = terms.evans.plan.stack(ls)
            return terms.evans.values(t, ls) + list(z_values(bc, terms.evans.legs(t, 0))[0].T)
        return chunked(batch, lams, terms.evans.size)

    def on_spectrum(xs):
        pairs = np.array([(x - _probe_step(x), x + _probe_step(x)) for x in xs])
        vs = np.array(rows(pairs.ravel())).reshape(-1, *pairs.shape)
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
    full, *reports = _count(rows, nudged, grid)
    pieces, wires = dict(zip(terms.keys, reports)), reports[len(terms.keys):]
    t = terms.evans.plan.stack(np.array(nudged))
    (lo, hi), (v_lo, v_hi) = terms.inertia(nudged, t), _vertex_inertia(bc, terms.evans.legs(t, 0))
    zeros, poles = _map_orders(full, pieces.values())
    map_report = CountReport(interval=nudged, zeros=zeros, poles=poles,
                             count=sum(m for _, m in zeros), delta_N=int(hi - lo))
    return CountingIdentityReport(interval=nudged, full=full, pieces=pieces, map_report=map_report,
                                  vertex_count=sum(r.count for r in wires) + int(v_hi - v_lo))
