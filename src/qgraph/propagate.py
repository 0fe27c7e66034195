"""Per-edge initial value problems for -u'' + V u = lam u.

Piecewise-constant potentials propagate through exact constant-coefficient
transfer matrices; sampled potentials integrate the 2x2 fundamental system
with an adaptive Runge-Kutta method and dense output.  edge_transfers, the
one kernel behind every solution the package evaluates, carries (u, u') to
one position or an array of them for a whole array of lambda.  EdgeSolution
builds one solution per (edge, lam, initial data) with its own engine: the
per-lambda public API and the kernel's independent test reference.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .graphs import EdgeSpec, PiecewiseConstant, Sampled


class OutOfDomain(ValueError):
    pass


class MismatchedEvaluationPoint(ValueError):
    pass


class ImaginaryResidue(ArithmeticError):
    pass


@dataclass(frozen=True)
class StateVector:
    value: complex
    deriv: complex
    x: float
    lam: complex


_SERIES_CUT = 1e-8  # on |omega d|^2; below this sin(omega d)/omega needs the series
POSITION_CHUNK = 4096  # positions per transfer_matrix call of an array leg


def transfer_matrix(d, lam, nu=0.0):
    """Map (u, u') at x to (u, u') at x + d for constant potential nu.

    d may be negative; the formulas are parity-consistent so the result is
    the exact inverse of the forward step.  Entries stay real for real
    inputs (hyperbolic regime included), complex otherwise.  Array
    arguments broadcast: the result has shape broadcast(d, lam, nu) + (2, 2).
    """
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
    m = np.empty(z.shape + (2, 2), dtype=np.result_type(c, s, w))
    m[..., 0, 0] = c
    m[..., 0, 1] = s
    m[..., 1, 0] = -w * s
    m[..., 1, 1] = c
    return m


def _domain_x(edge, x, slack=None):
    if slack is None:
        slack = 1e-12 * (1.0 + edge.length)
    if isinstance(x, np.ndarray):
        if x.size and (x.min() < -slack or x.max() > edge.length + slack):
            raise OutOfDomain("evaluation points outside the edge")
        return np.clip(x, 0.0, edge.length)
    if not -slack <= x <= edge.length + slack:
        raise OutOfDomain(f"x={x} outside [0, {edge.length}]")
    return min(max(x, 0.0), edge.length)


class _PiecewiseEngine:
    """Breakpoint cache: exact states at every node, one transfer per query."""

    def __init__(self, edge, lam, value, deriv, anchor):
        pieces = edge.potential.pieces
        nodes = [pieces[0][0]] + [b for _, b, _ in pieces]
        seg_nu = [v for _, _, v in pieces]
        ia = None
        for k, (a, b, v) in enumerate(pieces):
            if a <= anchor <= b:
                ia = k
                break
        if anchor not in nodes:
            nodes.insert(ia + 1, anchor)
            seg_nu.insert(ia, seg_nu[ia])
            ia += 1
        else:
            ia = nodes.index(anchor)
        self.nodes = np.array(nodes)
        self.seg_nu = seg_nu
        self.lam = lam
        states = [None] * len(nodes)
        states[ia] = np.array([value, deriv])
        for k in range(ia + 1, len(nodes)):
            m = transfer_matrix(nodes[k] - nodes[k - 1], lam, seg_nu[k - 1])
            states[k] = m @ states[k - 1]
        for k in range(ia - 1, -1, -1):
            m = transfer_matrix(nodes[k] - nodes[k + 1], lam, seg_nu[k])
            states[k] = m @ states[k + 1]
        self.states = states
        self.anchor = anchor

    def at(self, x):
        k = int(np.searchsorted(self.nodes, x, side="right")) - 1
        k = min(max(k, 0), len(self.seg_nu) - 1)
        # step away from the anchor to keep growing modes from cancelling
        base = k if x >= self.anchor else k + 1
        m = transfer_matrix(x - self.nodes[base], self.lam, self.seg_nu[k])
        return m @ self.states[base]

    def on(self, xs):
        xs = np.asarray(xs, dtype=float)
        k = np.clip(np.searchsorted(self.nodes, xs, side="right") - 1,
                    0, len(self.seg_nu) - 1)
        base = np.where(xs >= self.anchor, k, k + 1)
        states = np.array(self.states)
        u0, up0 = states[base, 0], states[base, 1]
        m = transfer_matrix(xs - self.nodes[base], self.lam, np.asarray(self.seg_nu)[k])
        return m[:, 0, 0] * u0 + m[:, 0, 1] * up0, m[:, 1, 0] * u0 + m[:, 1, 1] * up0


def _checked_real(a):
    """The real part of a, whose imaginary part must be exactly zero.

    For real lambda and real data every solution is real; a nonzero
    imaginary part then means the computation went wrong, so it is an
    error and never dropped.
    """
    if np.any(np.imag(a) != 0.0):
        raise ImaginaryResidue(
            f"imaginary part up to {np.max(np.abs(np.imag(a))):.3e} in a real problem")
    return np.real(a)


class _AdaptiveEngine:
    """Dense-output fundamental matrix from 0, integrated as 8 real ODEs.

    For real lambda the matrix is real, and it is returned as real numbers
    through _checked_real.
    """

    def __init__(self, edge, lam, value=1.0, deriv=0.0, anchor=0.0,
                 rtol=1e-10, atol=1e-12):
        xs = np.asarray(edge.potential.xs)
        vs = np.asarray(edge.potential.vs)
        lam = complex(lam)
        self._real = lam.imag == 0.0

        def rhs(x, y):
            m = (y[:4] + 1j * y[4:]).reshape(2, 2)
            dm = np.array([[0.0, 1.0], [np.interp(x, xs, vs) - lam, 0.0]]) @ m
            return np.concatenate([dm.real.ravel(), dm.imag.ravel()])

        y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        for tols in ((rtol, atol), (1e-12, 1e-14)):
            sol = solve_ivp(rhs, (0.0, edge.length), y0, method="DOP853",
                            dense_output=True, rtol=tols[0], atol=tols[1])
            if not sol.success:
                raise RuntimeError(f"edge integration failed: {sol.message}")
            drift = abs(np.linalg.det(self._unpack(sol.sol(edge.length))) - 1.0)
            if drift <= 1e-9:
                break
        else:
            raise RuntimeError(f"Wronskian drift {drift:.2e} after tightening tolerances")
        self._sol = sol
        init = np.array([value, deriv])
        self._coef = np.linalg.solve(self.matrix(anchor), init) \
            if anchor != 0.0 else init

    @staticmethod
    def _unpack(y):
        return (y[:4] + 1j * y[4:]).reshape((2, 2) + np.shape(y)[1:])

    def matrix(self, x):
        """Fundamental matrix at x (2 x 2), or at each of an array of x (2 x 2 x P)."""
        m = self._unpack(self._sol.sol(x))
        return _checked_real(m) if self._real else m

    def at(self, x):
        return self.matrix(x) @ self._coef

    def on(self, xs):
        m = self.matrix(np.asarray(xs, dtype=float))
        u = m[0, 0] * self._coef[0] + m[0, 1] * self._coef[1]
        up = m[1, 0] * self._coef[0] + m[1, 1] * self._coef[1]
        return u, up


def edge_transfers(legs, lams):
    """Transfer matrices carrying (u, u') along edges for an array of L
    lambdas: from x0 to x for each leg (edge, x0, x), (L, 2, 2) for a
    scalar x and (L, P, 2, 2) for P positions on one side of x0.

    Piecewise-constant potentials chain the exact piece matrices from x0
    to the breakpoints, then step to each position from the last one
    before it, so every step runs away from x0; the chains and scalar ends
    of all legs and lambdas share one transfer_matrix call.  Sampled
    potentials integrate the fundamental matrix once per lambda.
    """
    lams = np.asarray(lams)
    out, plans, rows = [None] * len(legs), [], []  # rows: steps (d, nu)
    for i, (edge, x0, x) in enumerate(legs):
        x0, xs = _domain_x(edge, x0), _domain_x(edge, x)
        if isinstance(edge.potential, Sampled):
            out[i] = _adaptive_transfers(edge, lams, x0, xs)
            continue
        if not isinstance(edge.potential, PiecewiseConstant):
            raise TypeError(f"unsupported potential type {type(edge.potential).__name__}")
        chain, partial, ci = _piecewise_steps(edge.potential, x0, xs)
        plans.append((i, len(rows), len(chain), partial, ci))
        rows += chain
        if ci is None:
            rows.append(partial)
    if plans:
        steps = np.array(rows, dtype=float).reshape(-1, 2)
        mats = transfer_matrix(steps[:, :1], lams, steps[:, 1:])
        for i, start, nc, partial, ci in plans:
            cum = [*itertools.accumulate(mats[start:start + nc], lambda a, m: m @ a)] if nc else []
            if ci is not None:
                out[i] = _partial_transfers(partial, lams, cum, ci)
            else:
                out[i] = mats[start + nc] @ cum[-1] if nc else mats[start + nc]
    return out


def _partial_transfers(steps, lams, cum, ci):
    """(L, P, 2, 2) transfers of an array leg: each partial step after its
    chain product, POSITION_CHUNK positions at a time to bound memory."""
    base = np.stack([np.broadcast_to(np.eye(2), lams.shape + (2, 2)), *cum], axis=1)
    out = np.empty(lams.shape + (len(steps), 2, 2), dtype=np.result_type(lams, 1.0))
    for k in range(0, len(steps), POSITION_CHUNK):
        sl = slice(k, k + POSITION_CHUNK)
        m, c = np.swapaxes(transfer_matrix(steps[sl, :1], lams, steps[sl, 1:]), 0, 1), ci[sl]
        for r, q in itertools.product(range(2), range(2)):  # m @ base, faster entrywise
            out[:, sl, r, q] = m[..., r, 0] * base[:, c, 0, q] + m[..., r, 1] * base[:, c, 1, q]
    return out


def _piecewise_steps(pot, x0, x):
    """Steps (d, nu) of one leg: the chain of pieces from x0 to each
    breakpoint short of the farthest position, and the partial steps to
    the positions.  For an array of positions also returns how many chain
    steps precede each partial step; a scalar follows the whole chain."""
    scalar = not isinstance(x, np.ndarray)
    lo, hi = (x, x) if scalar else (x.min(), x.max())
    if lo < x0 < hi:
        raise ValueError(f"positions on both sides of x0={x0}")
    sign, lo, hi = (1.0 if hi > x0 else -1.0), min(lo, x0), max(hi, x0)
    steps, ends = [], []
    for a, b, nu in (pot.pieces if sign > 0 else reversed(pot.pieces)):
        d = min(b, hi) - max(a, lo)
        if d > 0:
            steps.append((sign * d, nu))
            ends.append(b if sign > 0 else a)
    steps = steps or [(0.0, 0.0)]  # x = x0: a zero step is the identity
    if scalar:
        return steps[:-1], steps[-1], None
    nodes = np.array([x0] + ends[:-1])
    ci = np.searchsorted(sign * nodes, sign * x, side="right") - 1
    return steps[:-1], np.stack([x - nodes[ci], np.array(steps)[ci, 1]], axis=-1), ci


def _adaptive_transfers(edge, lams, x0, xs):
    out = []
    for lam in lams:
        eng = _AdaptiveEngine(edge, lam)
        m = np.moveaxis(eng.matrix(xs), (0, 1), (-2, -1))
        out.append(m if x0 == 0.0 else np.linalg.solve(
            eng.matrix(x0).T, np.swapaxes(m, -1, -2)).swapaxes(-1, -2))
    return np.array(out).reshape(lams.shape + np.shape(xs) + (2, 2))


class EdgeSolution:
    """Solution of -u'' + V u = lam u on one edge with data (value, deriv) at anchor."""

    def __init__(self, edge: EdgeSpec, lam, value, deriv, anchor=0.0):
        anchor = _domain_x(edge, anchor)
        self.edge = edge
        self.lam = lam
        if isinstance(edge.potential, PiecewiseConstant):
            self._engine = _PiecewiseEngine(edge, lam, value, deriv, anchor)
        elif isinstance(edge.potential, Sampled):
            self._engine = _AdaptiveEngine(edge, lam, value, deriv, anchor)
        else:
            raise TypeError(f"unsupported potential type {type(edge.potential).__name__}")

    def at(self, x) -> StateVector:
        x = _domain_x(self.edge, x)
        u, up = self._engine.at(x)
        return StateVector(value=u, deriv=up, x=x, lam=self.lam)

    def value_at(self, x):
        return self.at(x).value

    def deriv_at(self, x):
        return self.at(x).deriv

    def on(self, xs):
        """Vectorized (values, derivatives) over an array of positions."""
        return self._engine.on(_domain_x(self.edge, np.asarray(xs, dtype=float)))


def propagate(edge: EdgeSpec, lam, state: StateVector, to_x) -> StateVector:
    """Advance the given state along the edge to to_x."""
    sol = EdgeSolution(edge, lam, state.value, state.deriv, anchor=state.x)
    return sol.at(to_x)


@dataclass(frozen=True)
class BasisPair:
    phi: EdgeSolution    # phi(anchor) = 0, phi'(anchor) = 1
    theta: EdgeSolution  # theta(anchor) = 1, theta'(anchor) = 0
    anchor: float


def basis_pair(edge: EdgeSpec, lam, anchor=0.0) -> BasisPair:
    anchor = _domain_x(edge, anchor)
    return BasisPair(phi=EdgeSolution(edge, lam, 0.0, 1.0, anchor),
                     theta=EdgeSolution(edge, lam, 1.0, 0.0, anchor),
                     anchor=anchor)


def wronskian(a: StateVector, b: StateVector):
    """a.value b.deriv - a.deriv b.value; both states must sit at one point."""
    if abs(a.x - b.x) > 1e-12 * (1.0 + abs(a.x)) or a.lam != b.lam:
        raise MismatchedEvaluationPoint(
            f"states at (x={a.x}, lam={a.lam}) and (x={b.x}, lam={b.lam})")
    return a.value * b.deriv - a.deriv * b.value


def adaptive_reference(edge: EdgeSpec, lam, value, deriv, anchor=0.0):
    """Run the adaptive integrator on any profile; cross-check path for the
    exact piecewise propagation."""
    pot = edge.potential
    if isinstance(pot, PiecewiseConstant):
        # sample just inside each piece so the step function survives interp
        xs, vs = [], []
        for a, b, v in pot.pieces:
            eps = 1e-13 * (1.0 + b - a)
            xs.extend([a + eps, b - eps])
            vs.extend([v, v])
        xs[0], xs[-1] = pot.pieces[0][0], pot.pieces[-1][1]
        pot = Sampled(tuple(xs), tuple(vs))
        edge = EdgeSpec(edge.length, pot)
    return _AdaptiveEngine(edge, lam, value, deriv, anchor)
