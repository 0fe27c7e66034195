"""Per-edge initial value problems for -u'' + V u = lam u.

Every potential is a table of linear segments (a, b, V(a), V(b)): a
piecewise-constant one has flat segments, a sampled one interpolates
linearly between its samples.  A flat segment propagates through the exact
constant-coefficient transfer matrix.  On a sloped one the equation is
Airy's, so the transfer is exact too, F(b) F(a)^-1 with F built from
exponentially scaled Airy functions; where the slope is so small that the
Airy argument is large (its phase loses digits), a constant step at the
mean potential with the first-order linear-perturbation correction (CPM/LPM:
Ixaru 1984; Ledoux et al., Comput. Phys. Commun. 175 (2006) 424) is the more
accurate of the two.  LegPlan, the one kernel behind every solution the
package evaluates, carries (u, u') to one position or an array of them for
a whole array of lambda.  It works in two steps: the lambda-free plan of
its legs' segment steps, made once for as long as a command keeps the
legs, and its evaluation, once per batch or refinement step: one
segment_transfer call steps the chains of all its legs.  stack gives the
2 x 2 transfers of legs that end at one position each; solutions carries
launch data to arrays of positions entry by entry, with no 2 x 2 matrix
per position.  EdgeSolution builds one solution per (edge, lam, initial
data) from the same segment steps, node by node: the kernel's per-lambda
test reference.  The independent adaptive Runge-Kutta oracle lives with
the tests (tests/oracle.py); nothing here integrates an ODE.  scipy.special
is imported at the first Airy step, so piecewise-constant potentials never
load scipy.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import EdgeSpec


class OutOfDomain(ValueError):
    pass


@dataclass(frozen=True)
class StateVector:
    value: complex
    deriv: complex
    x: float
    lam: complex


_SERIES_CUT = 1e-8  # on |omega d|^2; below this sin(omega d)/omega needs the series


def transfer_matrix(d, lam, nu=0.0):
    """Map (u, u') at x to (u, u') at x + d for constant potential nu.

    d may be negative; the formulas are parity-consistent so the result is
    the exact inverse of the forward step.  Entries stay real for real
    inputs (hyperbolic regime included), complex otherwise.  Array
    arguments broadcast: the result has shape broadcast(d, lam, nu) + (2, 2).
    """
    c, s, ws = _flat_step(d, lam, nu)
    m = np.empty(c.shape + (2, 2), dtype=np.result_type(c, s, ws))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = c, s, ws, c
    return m


def _flat_step(d, lam, nu):
    """The entries of transfer_matrix [[c, s], [-w s, c]], w = lam - nu: (c, s, -w s)."""
    d = np.asarray(d, dtype=float)
    w = np.asarray(lam) - np.asarray(nu, dtype=float)
    if np.iscomplexobj(w) and not w.imag.any():
        w = w.real
    z = w * d * d
    small = np.abs(z) < _SERIES_CUT
    if np.iscomplexobj(w):
        om = np.sqrt(w)
        c, s = np.cos(om * d), np.sin(om * d)
    else:
        om = np.sqrt(np.abs(w))
        x = om * d
        pos = w > 0
        if pos.all():
            c, s = np.cos(x), np.sin(x)
        elif not pos.any():
            c, s = np.cosh(x), np.sinh(x)
        else:
            pos = np.broadcast_to(pos, x.shape)
            c, s = np.empty_like(x), np.empty_like(x)
            c[pos], s[pos] = np.cos(x[pos]), np.sin(x[pos])
            c[~pos], s[~pos] = np.cosh(x[~pos]), np.sinh(x[~pos])
    c = np.asarray(c)
    s = np.asarray(s / np.where(small, 1.0, om))  # om = 0 only where the series takes over
    if small.any():
        zs, ds = z[small], np.broadcast_to(d, z.shape)[small]
        c[small] = 1.0 - zs / 2.0 + zs * zs / 24.0
        s[small] = ds * (1.0 - zs / 6.0 + zs * zs / 120.0)
    return c, s, -w * s


_EPS = np.finfo(float).eps
_LPM_BIAS = 10.0   # LPM is kept unless its error estimate exceeds this many Airy estimates
_AIRY_MAX = 1e5    # |xi| beyond which airye gives no values


def segment_transfer(d, lam, v0, slope=0.0):
    """Map (u, u') at x to x + d for the linear potential v0 + slope (t - x).

    Flat steps are transfer_matrix steps; an array without slope is one
    transfer_matrix call.  A sloped step is the exact Airy transfer, or,
    where its error estimate is the smaller, the constant step at the mean
    potential plus the first-order linear-perturbation correction.  d may
    be negative (the result is then the inverse of the forward step), real
    arguments give real matrices, and the arguments broadcast like those of
    transfer_matrix.
    """
    slope = np.asarray(slope, dtype=float)
    if not slope.any():
        return transfer_matrix(d, lam, v0)
    lam = np.asarray(lam)
    if np.iscomplexobj(lam) and not lam.imag.any():
        lam = lam.real
    d, v0 = np.asarray(d, dtype=float), np.asarray(v0, dtype=float)
    m = transfer_matrix(d, lam, v0 + 0.5 * slope * d)
    flat = m.reshape(-1, 2, 2)
    d, lam, v0, s = (np.broadcast_to(a, m.shape[:-2]).ravel() for a in (d, lam, v0, slope))
    i = np.flatnonzero(s)
    d, lam, v0, s = d[i], lam[i], v0[i], s[i]
    k = np.cbrt(s)
    with np.errstate(all="ignore"):  # tiny slopes give huge xi; they take the LPM branch
        xa = (v0 - lam) / (k * k)
        dxi = np.abs(k * d)
        big = np.maximum(np.abs(xa), np.abs(xa + k * d))
        # Error estimates: LPM dxi^6 / (1 + sqrt|xi| dxi)^3, second order in
        # the slope; Airy eps (|xi|^1.5 + (1 + |xi|) / dxi), the phase digits
        # lost at large |xi| and the rounding of xi on short steps.  Both
        # sides below are multiplied by dxi.
        use_airy = (dxi ** 7 > _LPM_BIAS * _EPS * (big ** 1.5 * dxi + 1.0 + big)
                    * (1.0 + np.sqrt(big) * dxi) ** 3) & (big < _AIRY_MAX)
    lpm = ~use_airy
    if lpm.any():
        dl, sl, rows = d[lpm], s[lpm], i[lpm]
        w = lam[lpm] - (v0[lpm] + 0.5 * sl * dl)
        c, sn = flat[rows, 0, 0], flat[rows, 0, 1]
        z = w * dl * dl
        with np.errstate(all="ignore"):  # (sn - d c) / w is replaced where z is tiny
            j = np.where(np.abs(z) < 1e-2,
                         dl ** 3 * (1 / 3 - z / 30 + z * z / 840 - z ** 3 / 45360),
                         (sn - dl * c) / w)
        e = -0.25 * sl * j  # T1 = s J diag(1, -1), J = -(S - d c) / (4 w)
        flat[rows, 0, 0] += e
        flat[rows, 1, 1] -= e
    if use_airy.any():
        flat[i[use_airy]] = _airy_transfer(d[use_airy], k[use_airy], xa[use_airy])
    return m


def _airy_basis(xi):
    """Scaled Airy pair at xi: (a, a', b, b', za, zb, W) with the solutions
    A = a exp(-za), B = b exp(-zb), derivatives alike, and W = W{A, B}.

    Real xi: A = Ai, B = Bi, scaled by airye where xi >= 0.  Complex xi:
    B = Ai(xi exp(-+2 pi i / 3)) for Im xi >= 0 (< 0), because off the real
    axis Ai and Bi can grow alike, and a step through them would cancel
    digits; the pair (A, B) keeps one decaying solution on that half-plane.
    """
    from scipy.special import airy, airye

    if np.iscomplexobj(xi):
        up = xi.imag >= 0
        rot = np.where(up, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3))
        a, ap, _, _ = airye(xi)
        b, bp, _, _ = airye(rot * xi)
        return (a, ap, b, rot * bp, 2 / 3 * xi * np.sqrt(xi),
                2 / 3 * rot * xi * np.sqrt(rot * xi),
                np.where(up, np.exp(1j * np.pi / 6), np.exp(-1j * np.pi / 6)) / (2 * np.pi))
    vals, neg = np.empty((4,) + xi.shape), xi < 0
    vals[:, neg] = airy(xi[neg])  # oscillatory: no scaling needed, and airye has none
    vals[:, ~neg] = airye(xi[~neg])
    za = 2 / 3 * np.where(neg, 0.0, xi) ** 1.5
    return (*vals, za, -za, 1 / np.pi)


def _airy_transfer(d, k, xa):
    """F(xb) F(xa)^-1 with F = [[A, B], [k A', k B']] and xb = xa + k d: the
    exact step for V - lam = k^3 (t + xa / k^2) on [0, d]."""
    a0, ap0, b0, bp0, za0, zb0, w = _airy_basis(xa)
    a1, ap1, b1, bp1, za1, zb1, _ = _airy_basis(xa + k * d)
    e1, e2 = np.exp(-za1 - zb0) / w, np.exp(-zb1 - za0) / w
    m = np.empty(xa.shape + (2, 2), dtype=np.result_type(a0, e1))
    m[:, 0, 0] = a1 * bp0 * e1 - b1 * ap0 * e2
    m[:, 0, 1] = (b1 * a0 * e2 - a1 * b0 * e1) / k
    m[:, 1, 0] = k * (ap1 * bp0 * e1 - bp1 * ap0 * e2)
    m[:, 1, 1] = bp1 * a0 * e2 - ap1 * b0 * e1
    return m


def _domain_x(edge, x):
    slack = 1e-12 * (1.0 + edge.length)
    if isinstance(x, np.ndarray):
        if x.size and (x.min() < -slack or x.max() > edge.length + slack):
            raise OutOfDomain("evaluation points outside the edge")
        return np.clip(x, 0.0, edge.length)
    if not -slack <= x <= edge.length + slack:
        raise OutOfDomain(f"x={x} outside [0, {edge.length}]")
    return min(max(x, 0.0), edge.length)


class _PiecewiseEngine:
    """Breakpoint cache: exact states at every node, one segment step per query."""

    def __init__(self, edge, lam, value, deriv, anchor):
        segs = edge.potential.segments
        nodes = [segs[0][0]] + [b for _, b, _, _ in segs]
        # per segment: V at its left and right node, and its slope
        vl, vr = [va for _, _, va, _ in segs], [vb for _, _, _, vb in segs]
        slope = [(vb - va) / (b - a) for a, b, va, vb in segs]
        if anchor in nodes:
            ia = nodes.index(anchor)
        else:
            ia = int(np.searchsorted(nodes, anchor))
            v = vl[ia - 1] + slope[ia - 1] * (anchor - nodes[ia - 1])
            nodes.insert(ia, anchor)
            vl.insert(ia, v)
            vr.insert(ia - 1, v)
            slope.insert(ia, slope[ia - 1])
        self.nodes = np.array(nodes)
        self.vl, self.vr, self.slope = np.array(vl), np.array(vr), np.array(slope)
        self.lam = lam
        states = [None] * len(nodes)
        states[ia] = np.array([value, deriv])
        for k in range(ia + 1, len(nodes)):
            m = segment_transfer(nodes[k] - nodes[k - 1], lam, vl[k - 1], slope[k - 1])
            states[k] = m @ states[k - 1]
        for k in range(ia - 1, -1, -1):
            m = segment_transfer(nodes[k] - nodes[k + 1], lam, vr[k], slope[k])
            states[k] = m @ states[k + 1]
        self.states = np.array(states)
        self.anchor = anchor

    def on(self, xs):
        """(values, derivatives) at the positions xs, each stepped from the
        node on its anchor side so growing modes do not cancel."""
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.searchsorted(self.nodes, xs, side="right") - 1,
                    0, len(self.slope) - 1)
        fwd = xs >= self.anchor
        base = np.where(fwd, k, k + 1)
        m = segment_transfer(xs - self.nodes[base], self.lam,
                             np.where(fwd, self.vl[k], self.vr[k]), self.slope[k])
        u0, up0 = self.states[base, 0], self.states[base, 1]
        return m[..., 0, 0] * u0 + m[..., 0, 1] * up0, m[..., 1, 0] * u0 + m[..., 1, 1] * up0


class LegPlan:
    """The lambda-free half of the transfer kernel: the segment steps of
    legs (edge, x0, x), planned and checked once, in one (S, 3) table of
    (d, V at start, slope).

    A plan's legs end each at one position or each at an array of them.  A
    scalar leg's chain runs from x0 through its end step at x; an array
    leg's stops at the last breakpoint short of its farthest position, and
    its partial steps to the positions are kept apart.  Legs whose chains
    have equal steps share one chain.  The table is laid
    out by depth, longest chains first: layer d holds step d of every chain
    longer than d, so a layer's products are one matmul over a slice.  An
    evaluation on L lambdas makes one segment_transfer call for the table,
    then the products m @ a outward from x0, so every transfer has the bits
    of its leg alone, however many lambdas or legs share the call.
    """

    def __init__(self, legs):
        chains, self.legs, index = {}, [], []  # distinct chains by their steps; (steps, end)
        for edge, x0, x in legs:
            x = _domain_x(edge, x)
            chain, end = _segment_steps(edge.potential, _domain_x(edge, x0), x)
            if not isinstance(x, np.ndarray):
                chain, end = [*chain, end], None
            self.legs.append((len(chain), end))
            index.append(chains.setdefault(tuple(chain), (len(chains), chain))[0])
        if len({end is None for _, end in self.legs}) > 1:
            raise ValueError("a plan's legs end each at one position or each at an array")
        self.points = all(end is None for _, end in self.legs)  # else each at an array
        chains = [c for _, c in chains.values()]
        # the chain of each leg, where a chain repeats; stack gathers by it
        self.index = None if len(chains) == len(index) else np.array(index, dtype=int)
        lengths = [len(c) for c in chains]
        order = sorted(range(len(chains)), key=lengths.__getitem__, reverse=True)
        rank = sorted(range(len(chains)), key=order.__getitem__)
        self.rank = [rank[i] for i in index]  # leg k's row in its layers
        self.order = np.array(order, dtype=int)  # the chain of each rank
        self.layers, self.ends, rows = [], [], []  # (first row, chains); (layer, ranks ending)
        longer = [-lengths[k] for k in order]  # ascending
        for d, layer in enumerate(itertools.zip_longest(*(chains[k] for k in order))):
            k = bisect.bisect_left(longer, -d)  # the chains longer than d
            self.layers.append((len(rows), k))
            rows += layer[:k]
            done = bisect.bisect_left(longer, -d - 1)
            if done < k:
                self.ends.append((d, done, k))
        self.steps = np.array(rows, dtype=float).reshape(-1, 3)

    def _products(self, lams):
        """The chain products of each layer on an array of lambda: row r of
        layer d is the product of the first d + 1 steps of the leg of rank r."""
        s = self.steps
        mats = segment_transfer(s[:, :1], lams, s[:, 1:2], s[:, 2:])
        prods = [mats[:self.layers[0][1]]] if self.layers else []
        for first, k in self.layers[1:]:
            prods.append(mats[first:first + k] @ prods[-1][:k])
        return prods

    def stack(self, lams):
        """Transfers of legs that each end at one position: (L, N, 2, 2)
        for N legs, leg k at [:, k]."""
        if not self.points:
            raise ValueError("a stack needs legs that end at one position")
        lams = np.asarray(lams)
        prods = self._products(lams)
        out = np.empty((lams.size, self.order.size, 2, 2), dtype=prods[0].dtype)
        for d, done, k in self.ends:
            out[:, self.order[done:k]] = prods[d][done:].swapaxes(0, 1)
        return out if self.index is None else out[:, self.index]

    def solutions(self, lams, data):
        """Solutions along legs that each end at P positions, (L, 2, m, P)
        per leg, values then derivatives, from data[k], (..., 2, m): m
        columns of (u, u') at x0 of leg k, with an optional lambda axis.
        Entrywise, T_rq = m_r0 b_0q + m_r1 b_1q for the partial step m after
        the chain product b (flat steps as (L, P) planes of _flat_step),
        then T_r0 u + T_r1 u'.  Lazy: each leg is made when it is reached."""
        if self.points:
            raise ValueError("solutions need legs that end at arrays of positions")
        prods = self._products(lams)
        for (count, ((d, v, slope), runs)), rank, a in zip(self.legs, self.rank, data):
            cum = [np.eye(2)[None], *(p[rank] for p in prods[:count])]
            if slope is None:  # (m_r0, m_r1) for each row r
                c, s, ws = _flat_step(d, lams[:, None], v)
                m = (c, s), (ws, c)
            else:
                m = np.moveaxis(segment_transfer(d, lams[:, None], v, slope), (0, 1), (2, 3))
            t = np.empty((lams.size, 2, 2, d.size), dtype=np.result_type(lams, 1.0))
            for first, stop, ci in runs:
                b = cum[ci][..., None]  # row r of b, (L, 2, 1), at b[:, r]
                for r, (m0, m1) in enumerate(m):
                    np.multiply(m0[:, None, first:stop], b[:, 0], out=t[:, r, :, first:stop])
                    t[:, r, :, first:stop] += m1[:, None, first:stop] * b[:, 1]
            out = t[:, :, :1] * a[..., None, 0, :, None]
            out += t[:, :, 1:] * a[..., None, 1, :, None]
            yield out


def _segment_steps(pot, x0, x):
    """Steps (d, V at start, slope) of one leg: the chain of segments from
    x0 to each breakpoint short of the farthest position, and the end step
    to a scalar x.  An array ends in (P,) arrays of the partial steps from
    the last node at or before each position (slope None if all are flat)
    and the runs (first, stop, chain steps before) of positions after one node."""
    scalar = not isinstance(x, np.ndarray)
    lo, hi = (x, x) if scalar else (x.min(), x.max())
    if lo < x0 < hi:
        raise ValueError(f"positions on both sides of x0={x0}")
    sign, lo, hi = (1.0 if hi > x0 else -1.0), min(lo, x0), max(hi, x0)
    steps, ends = [], []
    for a, b, va, vb in (pot.segments if sign > 0 else reversed(pot.segments)):
        d = min(b, hi) - max(a, lo)
        if d > 0:
            if va == vb:
                steps.append((sign * d, va, 0.0))
            else:
                slope = (vb - va) / (b - a)
                start = max(a, lo) if sign > 0 else min(b, hi)
                steps.append((sign * d, vb if start == b else va + slope * (start - a), slope))
            ends.append(b if sign > 0 else a)
    steps = steps or [(0.0, 0.0, 0.0)]  # x = x0: a zero step is the identity
    if scalar:
        return steps[:-1], steps[-1]
    nodes = np.array([x0] + ends[:-1])
    ci = np.searchsorted(sign * nodes, sign * x, side="right") - 1
    bounds = [0, *(np.flatnonzero(np.diff(ci)) + 1).tolist(), x.size]
    at, size = ci[bounds[:-1]], np.diff(bounds)
    table = np.array(steps)[at]
    slope = np.repeat(table[:, 2], size) if table[:, 2].any() else None
    runs = list(zip(bounds, bounds[1:], at.tolist()))
    return steps[:-1], ((x - np.repeat(nodes[at], size), np.repeat(table[:, 1], size), slope), runs)


class EdgeSolution:
    """Solution of -u'' + V u = lam u on one edge with data (value, deriv) at anchor."""

    def __init__(self, edge: EdgeSpec, lam, value, deriv, anchor=0.0):
        anchor = _domain_x(edge, anchor)
        self.edge = edge
        self.lam = lam
        self._engine = _PiecewiseEngine(edge, lam, value, deriv, anchor)

    def at(self, x) -> StateVector:
        x = _domain_x(self.edge, x)
        u, up = self._engine.on(x)
        return StateVector(value=u, deriv=up, x=x, lam=self.lam)

    def on(self, xs):
        """Vectorized (values, derivatives) over an array of positions."""
        return self._engine.on(_domain_x(self.edge, np.asarray(xs, dtype=float)))
