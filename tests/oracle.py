"""Independent references for the tests; no command of the package uses them.

adaptive_reference integrates -u'' + V u = lam u on one edge with an
adaptive Runge-Kutta method (scipy's DOP853), the cross-check of the exact
segment steps of qgraph.propagate.  c_matrix is alpha1 Z + alpha2 Z' of
a 2n x 2n origin frame, the reference for FrameBundle.c_block and for the
identity det frame = (-1)^n det C, up to a unimodular factor for complex
boundary data.
"""
from __future__ import annotations

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
