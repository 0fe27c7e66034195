"""Fundamental solution frames and the Evans determinant.

The frame stacks two solution families: Y columns launched from the origin
with data (-alpha2*, alpha1*), and the diagonal Z family launched from the
outer endpoints with data (-conj h_i, conj g_i).  The Evans function is the
determinant of the 2n x 2n frame matrix; it does not depend on where the
frame is evaluated, so the default evaluation point is the origin, where
the Y blocks are exact initial data and only Z propagates.

Every block, and every value FrameBundle.families returns, comes from
propagate.edge_transfers, two propagations per edge for a whole array of
lambda.  evans and fundamental_frame accept such an array and return
stacked results; evans works through it CHUNK lambdas at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BoundaryConditions, StarGraph, require_valid_bc
from .propagate import edge_transfers

CHUNK = 64  # lambdas per batch; frames of a batch take O(CHUNK n^2) memory


@dataclass(frozen=True)
class FundamentalFrame:
    Y: np.ndarray
    Z: np.ndarray
    Yp: np.ndarray
    Zp: np.ndarray
    lam: complex
    eval_point: np.ndarray


@dataclass(frozen=True)
class EvansValue:
    value: complex
    lam: complex


def lambdas(lam):
    """(1-d array of lam, whether lam was a scalar).  The array is real
    when no entry has a nonzero imaginary part."""
    arr = np.asarray(lam)
    if arr.ndim > 1:
        raise ValueError("lambda must be a scalar or a 1-d array")
    if np.iscomplexobj(arr) and not np.any(arr.imag):
        arr = arr.real
    return np.atleast_1d(arr).astype(complex if np.iscomplexobj(arr) else float), arr.ndim == 0


def chunked(fn, lams):
    """fn over an array of lambda, CHUNK at a time, results concatenated."""
    if lams.size <= CHUNK:
        return fn(lams)
    return np.concatenate([fn(lams[i:i + CHUNK]) for i in range(0, lams.size, CHUNK)])


def _frame_dtype(bc, lams):
    return complex if (np.iscomplexobj(lams) or not bc.is_real()) else float


def _y_data(bc, dt):
    """Origin data (Y, Y') of the Y family: column i is member i."""
    y0, yp0 = -bc.alpha2.conj().T, bc.alpha1.conj().T
    return (y0.real, yp0.real) if dt is float else (y0, yp0)


def _z_data(bc, dt):
    """Outer-end data (z, z') of each edge's z solution."""
    z0, zp0 = -np.conj(bc.beta2), np.conj(bc.beta1)
    return (z0.real, zp0.real) if dt is float else (z0, zp0)


def y_blocks(g: StarGraph, bc: BoundaryConditions, lams, xs):
    """Y family at xs[j] on edge j: (Y, Y'), each (L, n, n)."""
    dt = _frame_dtype(bc, lams)
    y0, yp0 = _y_data(bc, dt)
    Y = np.empty((lams.size, g.n, g.n), dtype=dt)
    Yp = np.empty_like(Y)
    Y[:], Yp[:] = y0, yp0
    moved = [j for j in range(g.n) if xs[j] != 0.0]
    if moved:
        t = np.stack(edge_transfers([(g.edges[j], 0.0, xs[j]) for j in moved], lams), axis=1)
        a, ap = y0[moved], yp0[moved]
        Y[:, moved] = t[..., 0, 0, None] * a + t[..., 0, 1, None] * ap
        Yp[:, moved] = t[..., 1, 0, None] * a + t[..., 1, 1, None] * ap
    return Y, Yp


def z_values(g: StarGraph, bc: BoundaryConditions, lams, xs):
    """z_j at xs[j] on edge j: (z, z'), each (L, n)."""
    z0, zp0 = _z_data(bc, _frame_dtype(bc, lams))
    t = np.stack(edge_transfers([(e, e.length, x) for e, x in zip(g.edges, xs)], lams),
                 axis=1)
    return (t[..., 0, 0] * z0 + t[..., 0, 1] * zp0,
            t[..., 1, 0] * z0 + t[..., 1, 1] * zp0)


def beta_trace(bc: BoundaryConditions, yl, ylp):
    """beta1 Y(l) + beta2 Y'(l), row j at edge j's outer end; Y blocks may
    carry a leading lambda axis."""
    b1, b2 = bc.beta1, bc.beta2
    if yl.dtype.kind != "c":
        b1, b2 = b1.real, b2.real  # keep real data real for root bracketing
    return b1[:, None] * yl + b2[:, None] * ylp


def fundamental_frame(g: StarGraph, bc: BoundaryConditions, lam,
                      eval_point=None) -> FundamentalFrame:
    """Frame blocks at eval_point (default: the origin).  For an array of
    lambda every block gains a leading lambda axis."""
    require_valid_bc(bc)
    n = g.n
    if bc.n != n:
        raise ValueError(f"graph has {n} edges, bc has n={bc.n}")
    xs = np.zeros(n) if eval_point is None else np.asarray(eval_point, dtype=float)
    if xs.shape != (n,):
        raise ValueError("eval_point needs one coordinate per edge")
    lams, scalar = lambdas(lam)
    z, zp = z_values(g, bc, lams, xs)
    Y, Yp = y_blocks(g, bc, lams, xs)
    diag = np.arange(n)
    Z = np.zeros(Y.shape, dtype=z.dtype)
    Zp = np.zeros(Y.shape, dtype=zp.dtype)
    Z[:, diag, diag], Zp[:, diag, diag] = z, zp
    if scalar:
        Y, Z, Yp, Zp = Y[0], Z[0], Yp[0], Zp[0]
    return FundamentalFrame(Y=Y, Z=Z, Yp=Yp, Zp=Zp, lam=lam, eval_point=xs)


def frame_matrix(frame: FundamentalFrame) -> np.ndarray:
    """[[Y, Z], [Y', Z']], stacked along a leading lambda axis if the frame has one."""
    return np.concatenate([np.concatenate([frame.Y, frame.Z], axis=-1),
                           np.concatenate([frame.Yp, frame.Zp], axis=-1)], axis=-2)


def evans(g: StarGraph, bc: BoundaryConditions, lam,
          eval_point=None) -> EvansValue:
    """Evans function at lam; value is an array for an array of lambda."""
    lams, scalar = lambdas(lam)
    vals = chunked(lambda ls: np.linalg.det(frame_matrix(
        fundamental_frame(g, bc, ls, eval_point))), lams)
    return EvansValue(value=vals[0] if scalar else vals, lam=lam)


def c_matrix(frame: FundamentalFrame, bc: BoundaryConditions) -> np.ndarray:
    """alpha1 Z(0) + alpha2 Z'(0); only defined on origin-evaluated frames."""
    if np.any(frame.eval_point != 0.0):
        raise ValueError("c_matrix needs a frame evaluated at the origin")
    a1, a2 = bc.alpha1, bc.alpha2
    if frame.Z.dtype.kind != "c":
        a1, a2 = a1.real, a2.real  # keep real data real for root bracketing
    return a1 @ frame.Z + a2 @ frame.Zp


class FrameBundle:
    """Both solution families of one (graph, bc, lambda), kept evaluatable.

    Callers that only need determinants use evans(); this object serves the
    boundary-value solves, where the families act as a basis and their
    gamma-trace matrix is block diagonal: Y columns satisfy the origin
    conditions exactly and Z columns the outer ones, so only the beta-trace
    of Y and the alpha-trace of Z (the C block) survive.  The blocks come
    from the batched frame code, and families() evaluates both families
    anywhere on an edge through the same kernel.
    """

    def __init__(self, g: StarGraph, bc: BoundaryConditions, lam):
        self.graph = g
        self.bc = bc
        self.lam = lam
        self.frame0 = fundamental_frame(g, bc, lam)
        self._lams = lambdas(lam)[0]
        Yl, Ylp = y_blocks(g, bc, self._lams, g.lengths)
        self.Yl, self.Ylp = Yl[0], Ylp[0]

    def families(self, j, xs, weights):
        """Both families on edge j at the positions xs (1-d), propagated from
        0 and from l_j.  Column k of weights (n x m) combines the origin
        family, whose data combine first as the equation is linear.  Returns
        y (2, m, P) and z (2, P): values, then derivatives."""
        edge = self.graph.edges[j]
        dt = _frame_dtype(self.bc, self._lams)
        (y0, yp0), (z0, zp0) = _y_data(self.bc, dt), _z_data(self.bc, dt)

        def leg(x0, data):  # one leg at a time keeps the peak memory down
            t = edge_transfers([(edge, x0, xs)], self._lams)[0][0]
            return t[..., :1] * data[0] + t[..., 1:] * data[1]  # t @ data, faster
        y = leg(0.0, np.stack([y0[j] @ weights, yp0[j] @ weights]))
        z = leg(edge.length, np.array([[z0[j]], [zp0[j]]]))
        return np.moveaxis(y, 0, -1), z[..., 0].T

    @property
    def n(self):
        return self.graph.n

    def c_block(self):
        return c_matrix(self.frame0, self.bc)

    def evans_value(self):
        return np.linalg.det(frame_matrix(self.frame0))

    def solve_trace(self, rhs):
        """Coefficients d of a combination whose gamma-trace equals rhs."""
        n, c = self.n, self.c_block()
        s = np.zeros((2 * n, 2 * n), dtype=np.promote_types(self.Yl.dtype, c.dtype))
        s[:n, :n], s[n:, n:] = beta_trace(self.bc, self.Yl, self.Ylp), c
        return np.linalg.solve(s, np.asarray(rhs))

    def component(self, d, j, xs):
        """(values, derivs) on edge j of the combination with coefficients d."""
        d = np.asarray(d)
        y, z = self.families(j, np.asarray(xs, dtype=float), d[:self.n, None])
        return y[0, 0] + d[self.n + j] * z[0], y[1, 0] + d[self.n + j] * z[1]

    def component_at(self, d, j, x):
        u, up = self.component(d, j, np.array([float(x)]))
        return u[0], up[0]


def x_independence_check(g: StarGraph, bc: BoundaryConditions, lam,
                         trial_points) -> float:
    """Max relative spread of the determinant over the trial evaluation points."""
    trial_points = list(trial_points)
    if len(trial_points) < 2:
        raise ValueError("need at least two trial points")
    vals = [evans(g, bc, lam, eval_point=xs).value for xs in trial_points]
    ref = vals[0]
    return float(max(abs(v - ref) for v in vals[1:]) / (1.0 + abs(ref)))
