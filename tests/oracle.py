"""Independent references for the tests; no command of the package uses them.

adaptive_reference integrates -u'' + V u = lam u on one edge with an
adaptive Runge-Kutta method (scipy's DOP853), the cross-check of the exact
segment steps of qgraph.propagate.  c_matrix is alpha1 Z + alpha2 Z' of
a 2n x 2n origin frame, the reference for FrameBundle.c_block and for the
identity det frame = (-1)^n det C, up to a unimodular factor for complex
boundary data.  dtn_reference gives the two-sided map blocks (MM1, MM2) of
a split of a piecewise-constant star at 40 digits (mpmath), from each
piece's own boundary-value problem.
"""
from __future__ import annotations

import mpmath as mp
import numpy as np

from qgraph import (BoundaryConditions, EdgeSpec, FundamentalFrame, PiecewiseConstant,
                    Sampled)


class _AdaptiveEngine:
    """Dense-output fundamental matrix from 0, integrated as 8 real ODEs.

    It backs only adaptive_reference, the test oracle, so its tolerances
    favour accuracy over speed.
    """

    def __init__(self, edge, lam, value=1.0, deriv=0.0, anchor=0.0):
        from scipy.integrate import solve_ivp  # only this oracle integrates

        xs = np.asarray(edge.potential.xs)
        vs = np.asarray(edge.potential.vs)
        lam = complex(lam)

        def rhs(x, y):
            m = (y[:4] + 1j * y[4:]).reshape(2, 2)
            dm = np.array([[0.0, 1.0], [np.interp(x, xs, vs) - lam, 0.0]]) @ m
            return np.concatenate([dm.real.ravel(), dm.imag.ravel()])

        y0 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        for rtol, atol in ((1e-12, 1e-14), (1e-13, 1e-15)):  # one retry, tighter
            sol = solve_ivp(rhs, (0.0, edge.length), y0, method="DOP853",
                            dense_output=True, rtol=rtol, atol=atol)
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
        return self._unpack(self._sol.sol(x))

    def on(self, xs):
        m = self.matrix(np.asarray(xs, dtype=float))
        u = m[0, 0] * self._coef[0] + m[0, 1] * self._coef[1]
        up = m[1, 0] * self._coef[0] + m[1, 1] * self._coef[1]
        return u, up


def adaptive_reference(edge: EdgeSpec, lam, value, deriv, anchor=0.0):
    """Run the adaptive integrator on any profile: the independent
    cross-check of the exact segment propagation, and the only user of
    _AdaptiveEngine."""
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


def c_matrix(frame: FundamentalFrame, bc: BoundaryConditions) -> np.ndarray:
    """alpha1 Z(0) + alpha2 Z'(0); only defined on origin-evaluated frames."""
    if np.any(frame.eval_point != 0.0):
        raise ValueError("c_matrix needs a frame evaluated at the origin")
    return bc.alpha1 @ frame.Z + bc.alpha2 @ frame.Zp


def _mp_transfer(edge, a, b, lam):
    """(u, u') at a to (u, u') at b > a on a piecewise-constant edge: the
    product of the exact constant steps, at mpmath's working precision."""
    m = mp.eye(2)
    for p, q, v in edge.potential.pieces:
        lo, hi = max(p, a), min(q, b)
        if hi > lo:
            d, w = mp.mpf(hi) - mp.mpf(lo), lam - mp.mpf(v)
            k = mp.sqrt(w)
            c, s = (mp.cos(k * d), mp.sin(k * d) / k) if w else (mp.mpf(1), d)
            m = mp.matrix([[c, s], [-w * s, c]]) * m
    return m


def _row(q, pair, m):
    """An equation on the (u, u') of m stretches that reads pair on stretch q."""
    row = [mp.mpf(0)] * (2 * m)
    row[2 * q:2 * q + 2] = pair
    return row


def dtn_reference(g, bc, cuts, lam, dps=40):
    """(MM1, MM2), complex k x k arrays, of the split of a piecewise-constant
    star (g, bc) at cuts ((wire, s), ...), slot order the cut order, at one
    lambda, from dps-digit solves.

    Each piece is solved on its own: the residual star keeps every wire up
    to its innermost cut, and the cut at s detaches its wire from s to the
    next cut outward or to the wire's end.  The unknowns are (u, u') at the
    inner end of each of the piece's stretches; the equations are the
    origin conditions (the star), the outer conditions at uncut ends, and
    unit value at one cut and zero at the piece's other cuts.  Column c of
    a piece's block is that solution with unit value at cut c, row r its
    outward derivative at cut r.  A piece separated from the star by an
    odd number of cuts lies on the MM1 side, any other on MM2.
    """
    with mp.workdps(dps):
        lam = mp.mpmathify(complex(lam))
        k = len(cuts)
        out = [mp.zeros(k, k), mp.zeros(k, k)]
        on = [sorted((s, c) for c, (i, s) in enumerate(cuts) if i == j) for j in range(g.n)]
        ends = [w + [(e.length, None)] for w, e in zip(on, g.edges)]
        # (side, origin conditions?, stretches (wire, a, b, cut at a, cut at b))
        pieces = [(1, True, [(j, 0.0, ends[j][0][0], None, ends[j][0][1]) for j in range(g.n)])]
        pieces += [(i % 2, False, [(j, s, ends[j][i + 1][0], c, ends[j][i + 1][1])])
                   for j in range(g.n) for i, (s, c) in enumerate(on[j])]
        for side, origin, stretches in pieces:
            m = len(stretches)
            ts = [_mp_transfer(g.edges[j], a, b, lam) for j, a, b, _, _ in stretches]
            rows, ports = [], []  # one equation per row; the cut whose unit data it takes
            if origin:
                for r in range(g.n):
                    rows.append([mp.mpmathify(complex(x)) for j in range(g.n)
                                 for x in (bc.alpha1[r, j], bc.alpha2[r, j])])
                    ports.append(None)
            for q, ((j, _, _, ca, cb), t) in enumerate(zip(stretches, ts)):
                if ca is not None:
                    rows.append(_row(q, (mp.mpf(1), mp.mpf(0)), m))
                    ports.append(ca)
                if cb is not None:
                    rows.append(_row(q, (t[0, 0], t[0, 1]), m))
                else:
                    g1, g2 = (mp.mpmathify(complex(x)) for x in (bc.beta1[j], bc.beta2[j]))
                    rows.append(_row(q, (g1 * t[0, 0] + g2 * t[1, 0],
                                         g1 * t[0, 1] + g2 * t[1, 1]), m))
                ports.append(cb)
            a = mp.matrix(rows)
            for c in (p for p in ports if p is not None):
                x = mp.lu_solve(a, mp.matrix([1 if p == c else 0 for p in ports]))
                for q, ((_, _, _, ca, cb), t) in enumerate(zip(stretches, ts)):
                    if ca is not None:
                        out[side][ca, c] = -x[2 * q + 1]
                    if cb is not None:
                        out[side][cb, c] = t[1, 0] * x[2 * q] + t[1, 1] * x[2 * q + 1]
        return tuple(np.array(o.tolist(), dtype=complex) for o in out)
