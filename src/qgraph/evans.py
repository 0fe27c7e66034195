"""Fundamental solution frames and the Evans determinant.

The frame stacks two solution families: Y columns launched from the origin
with data (-alpha2*, alpha1*), and the diagonal Z family launched from the
outer endpoints with data (-conj h_i, conj g_i); _launch alone states that
rule, and real conditions give real data.  The Evans function is the
determinant of the 2n x 2n frame matrix [[Y, Z], [Y', Z']].  Z and Z' are
diagonal, so they commute, and the Schur complement reduces it to the
n x n secular determinant det(Z' Y - Z Y'), whose entry (j, i) is the
Wronskian W(y_i, z_j) on edge j (wronskian_matrix); for Kirchhoff data it
is the star secular function sum_j z_j' prod_{k != j} z_k.  Wronskians
are constant along an edge, so it does not depend on where the frame is
evaluated, and the default evaluation point is the origin, where Y and Y'
are the constant launch data and only the n values z_j propagate.
fundamental_frame, frame_matrix and c_matrix keep the 2n x 2n route as
the minors check's reference; nothing else in the package builds it.

Every value here comes from propagate.edge_transfers: a bundle makes one
call for z, z' and Yl, Yl' and one for each families() call, which covers
both families on every edge asked for; FrameBundle.over holds the families
of a whole array of lambda.
evans and fundamental_frame accept an array of lambda and return stacked
results.  _evans_each evaluates several problems, all their legs in
one edge_transfers call per batch of max(1, CHUNK // sum of n^2) lambdas,
which bounds a batch's memory; evans is its one-problem case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BoundaryConditions, StarGraph, require_valid_bc
from .propagate import edge_transfers

CHUNK = 64 * 16 ** 2  # lambdas times n^2 per batch: the frames of a batch take O(CHUNK)


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


def chunked(fn, lams, size=1):
    """fn over an array of lambda, max(1, CHUNK // size) lambdas a call, size
    summing n^2 over the problems fn evaluates; fn returns a list of arrays,
    each concatenated over the calls."""
    step = max(1, CHUNK // size)
    batches = [fn(lams[i:i + step]) for i in range(0, max(lams.size, 1), step)]
    return batches[0] if len(batches) == 1 else [np.concatenate(c) for c in zip(*batches)]


def _leg_transfers(groups, lams):
    """edge_transfers of every leg list in groups through one call, split
    back into one list of transfers per group."""
    ts = iter(edge_transfers([leg for legs in groups for leg in legs], lams))
    return [[next(ts) for _ in legs] for legs in groups]


def _launch(bc):
    """(Y, Y') at the origin, column i member i, and (z, z') at each outer
    end; cached on the immutable condition set, as every frame reads it."""
    data = getattr(bc, "_launch_data", None)
    if data is None:
        data = (-bc.alpha2.conj().T, bc.alpha1.conj().T, -np.conj(bc.beta2), np.conj(bc.beta1))
        object.__setattr__(bc, "_launch_data", data)
    return data


def y_blocks(bc: BoundaryConditions, lams, xs, ts):
    """Y family at xs[j] on edge j: (Y, Y'), each (L, n, n), from the
    transfers ts of the legs (edge j, 0, xs[j]) with xs[j] != 0."""
    y0, yp0 = _launch(bc)[:2]
    Y = np.empty((lams.size,) + y0.shape, dtype=np.result_type(lams, y0))
    Yp = np.empty_like(Y)
    Y[:], Yp[:] = y0, yp0
    if ts:
        moved = np.flatnonzero(xs)
        t = np.stack(ts, axis=1)
        a, ap = y0[moved], yp0[moved]
        Y[:, moved] = t[..., 0, 0, None] * a + t[..., 0, 1, None] * ap
        Yp[:, moved] = t[..., 1, 0, None] * a + t[..., 1, 1, None] * ap
    return Y, Yp


def z_values(bc: BoundaryConditions, ts):
    """z_j at the end of its leg: (z, z'), each (L, n), from the transfers
    ts of one leg per edge j, from its outer end."""
    z0, zp0 = _launch(bc)[2:]
    t = np.stack(ts, axis=1)
    return (t[..., 0, 0] * z0 + t[..., 0, 1] * zp0,
            t[..., 1, 0] * z0 + t[..., 1, 1] * zp0)


def beta_trace(bc: BoundaryConditions, yl, ylp):
    """beta1 Y(l) + beta2 Y'(l), row j at edge j's outer end; Y blocks may
    carry a leading lambda axis."""
    return bc.beta1[:, None] * yl + bc.beta2[:, None] * ylp


def _frame_legs(g, bc, point):
    """The evaluation point of a frame at point (None: the origin) and its
    legs: one z leg per edge from its outer end, then one Y leg per moved edge."""
    require_valid_bc(bc)
    if bc.n != g.n:
        raise ValueError(f"graph has {g.n} edges, bc has n={bc.n}")
    xs = np.zeros(g.n) if point is None else np.asarray(point, dtype=float)
    if xs.shape != (g.n,):
        raise ValueError("eval_point needs one coordinate per edge")
    return xs, ([(e, e.length, x) for e, x in zip(g.edges, xs)]
                + [(g.edges[j], 0.0, xs[j]) for j in np.flatnonzero(xs)])


def _frame(g, bc, lams, xs, ts):
    """Y, Z, Y', Z' of the frame at xs from the transfers ts of its _frame_legs."""
    z, zp = z_values(bc, ts[:g.n])
    Y, Yp = y_blocks(bc, lams, xs, ts[g.n:])
    diag = np.arange(g.n)
    Z = np.zeros(Y.shape, dtype=z.dtype)
    Zp = np.zeros(Y.shape, dtype=zp.dtype)
    Z[:, diag, diag], Zp[:, diag, diag] = z, zp
    return Y, Z, Yp, Zp


def fundamental_frame(g: StarGraph, bc: BoundaryConditions, lam,
                      eval_point=None) -> FundamentalFrame:
    """Frame blocks at eval_point (default: the origin).  For an array of
    lambda every block gains a leading lambda axis."""
    lams, scalar = lambdas(lam)
    xs, legs = _frame_legs(g, bc, eval_point)
    [ts] = _leg_transfers([legs], lams)
    blocks = _frame(g, bc, lams, xs, ts)
    return FundamentalFrame(*(b[0] if scalar else b for b in blocks), lam=lam, eval_point=xs)


def frame_matrix(frame: FundamentalFrame) -> np.ndarray:
    """[[Y, Z], [Y', Z']], stacked along a leading lambda axis if the frame has one."""
    return np.concatenate([np.concatenate([frame.Y, frame.Z], axis=-1),
                           np.concatenate([frame.Yp, frame.Zp], axis=-1)], axis=-2)


def wronskian_matrix(z, zp, Y, Yp):
    """diag(z') Y - diag(z) Y', entry (j, i) the Wronskian W(y_i, z_j); its
    determinant is det [[Y, diag z], [Y', diag z']], as the diagonal blocks
    commute.  z, z' (..., n) and Y, Y' (..., n, n) broadcast."""
    return zp[..., None] * Y - z[..., None] * Yp


def _evans_each(problems, lams, points=None):
    """Evans values of every (graph, bc) problem on one array of lambda as
    lambdas() gives it, evaluated at points (default: the origins), from one
    edge_transfers call per batch; at the origin Y and Y' are the launch data."""
    planned = [_frame_legs(g, bc, point)
               for (g, bc), point in zip(problems, points or [None] * len(problems))]

    def batch(ls):
        out = []
        for (g, bc), (xs, _), ts in zip(problems, planned,
                                        _leg_transfers([legs for _, legs in planned], ls)):
            y = y_blocks(bc, ls, xs, ts[g.n:]) if len(ts) > g.n else _launch(bc)[:2]
            out.append(np.linalg.det(wronskian_matrix(*z_values(bc, ts[:g.n]), *y)))
        return out
    return chunked(batch, lams, sum(g.n ** 2 for g, _ in problems))


def evans(g: StarGraph, bc: BoundaryConditions, lam,
          eval_point=None) -> EvansValue:
    """Evans function at lam; value is an array for an array of lambda."""
    lams, scalar = lambdas(lam)
    [vals] = _evans_each([(g, bc)], lams, [eval_point])
    return EvansValue(value=vals[0] if scalar else vals, lam=lam)


def c_matrix(frame: FundamentalFrame, bc: BoundaryConditions) -> np.ndarray:
    """alpha1 Z(0) + alpha2 Z'(0); only defined on origin-evaluated frames."""
    if np.any(frame.eval_point != 0.0):
        raise ValueError("c_matrix needs a frame evaluated at the origin")
    return bc.alpha1 @ frame.Z + bc.alpha2 @ frame.Zp


def _one_lambda(lam, what):
    """lambdas(lam)[0] for a scalar lam; what names the caller that
    refuses an array, rather than cutting it to its first entry."""
    lams, scalar = lambdas(lam)
    if not scalar:
        raise ValueError(f"{what} takes one lambda")
    return lams


class FrameBundle:
    """Both solution families of one (graph, bc, lambda), kept evaluatable.

    Callers that only need determinants use evans(); this object serves the
    boundary-value solves, where the families act as a basis and their
    gamma-trace matrix is block diagonal: Y columns satisfy the origin
    conditions exactly and Z columns the outer ones, so only the beta-trace
    of Y and the alpha-trace of Z (the C block) survive.  One kernel call
    gives z, z' at the origin, where Y, Y' are the launch data, and Yl, Yl'
    at the outer ends: no 2n x 2n frame.  families() evaluates both families
    anywhere on an edge through the same kernel.  FrameBundle.over builds
    the bundle of an array of lambda, whose values, C block, trace solves,
    families and weights gain a leading lambda axis; one lambda is its
    L = 1 case.
    """

    def __init__(self, g: StarGraph, bc: BoundaryConditions, lam):
        self._build(g, bc, lam, _one_lambda(lam, "a frame bundle"), True)

    @classmethod
    def over(cls, g: StarGraph, bc: BoundaryConditions, lams):
        """The bundle of every lambda of lams, a 1-d array as lambdas() gives it."""
        bundle = cls.__new__(cls)
        bundle._build(g, bc, lams, lams, False)
        return bundle

    def _build(self, g, bc, lam, lams, scalar):
        self.graph, self.bc, self.lam, self._lams, self._scalar = g, bc, lam, lams, scalar
        legs = _frame_legs(g, bc, None)[1]
        ts, tl = _leg_transfers([legs, [(e, 0.0, e.length) for e in g.edges]], lams)
        self.z, self.zp = (v[0] if scalar else v for v in z_values(bc, ts))
        self.Yl, self.Ylp = (b[0] if scalar else b for b in y_blocks(bc, lams, g.lengths, tl))

    def families(self, items):
        """Both families at the positions xs (1-d) on edge j, propagated from
        0 and from l_j, for each (j, xs, weights) of items, all through one
        kernel call.  Column k of weights (n x m) combines the origin
        family, whose data combine first as the equation is linear.  Yields
        one pair y (2, m, P), z (2, P) per item, after the bundle's lambda
        axis, which weights may share: values, then derivatives.  Each pair
        is made when it is reached, so a caller that reduces each item
        first holds one item's transfers and families at a time."""
        y0, yp0, z0, zp0 = _launch(self.bc)
        edges = self.graph.edges
        ts = edge_transfers([leg for j, xs, _ in items for leg in
                             ((edges[j], 0.0, xs), (edges[j], edges[j].length, xs))], self._lams)

        def leg(data):  # contracted as the kernel makes it: one leg's transfers alive at a time
            t = next(ts)
            t = t[0] if self._scalar else t
            out = t[..., :1] * data[0]  # t @ data, faster entrywise, summed in place
            out += t[..., 1:] * data[1]
            return out
        for j, _, weights in items:  # the y leg, then the z leg; no family outlives its item
            data = np.stack([y0[j] @ weights, yp0[j] @ weights])[..., None, None, :]
            yield (np.moveaxis(leg(data), -3, -1),
                   np.swapaxes(leg(np.array([[z0[j]], [zp0[j]]]))[..., 0], -1, -2))

    @property
    def n(self):
        return self.graph.n

    def c_block(self):
        """C = alpha1 Z(0) + alpha2 Z'(0), after the bundle's lambda axis."""
        return self.bc.alpha1 * self.z[..., None, :] + self.bc.alpha2 * self.zp[..., None, :]

    def wronskians(self):
        """The wronskian_matrix at the origin, after the bundle's lambda axis."""
        return wronskian_matrix(self.z, self.zp, *_launch(self.bc)[:2])

    def evans_value(self):
        return np.linalg.det(self.wronskians())

    def solve_trace(self, rhs):
        """Coefficients d of a combination whose gamma-trace equals rhs."""
        n, c = self.n, self.c_block()
        s = np.zeros(c.shape[:-2] + (2 * n, 2 * n), dtype=np.promote_types(self.Yl.dtype, c.dtype))
        s[..., :n, :n], s[..., n:, n:] = beta_trace(self.bc, self.Yl, self.Ylp), c
        return np.linalg.solve(s, np.asarray(rhs))

    def component(self, d, j, xs):
        """(values, derivs) on edge j of the combination with coefficients d."""
        d = np.asarray(d)
        [(y, z)] = self.families([(j, np.asarray(xs, dtype=float), d[:self.n, None])])
        return y[0, 0] + d[self.n + j] * z[0], y[1, 0] + d[self.n + j] * z[1]

    def component_at(self, d, j, x):
        u, up = self.component(d, j, np.array([float(x)]))
        return u[0], up[0]


def x_independence_check(g: StarGraph, bc: BoundaryConditions, lam,
                         trial_points) -> float:
    """Max spread of the determinant over the trial points, relative to its largest value."""
    trial_points = list(trial_points)
    if len(trial_points) < 2:
        raise ValueError("need at least two trial points")
    vals = np.array(_evans_each([(g, bc)] * len(trial_points), lambdas(lam)[0], trial_points))
    return float(abs(vals[1:] - vals[0]).max() / abs(vals).max())
