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
are the constant launch data and only the n values z_j propagate.  There
Y = -alpha2^H, so where alpha2 has at most one nonzero row (Kirchhoff and
delta vertices, a Dirichlet vertex, every one-wire problem) Y has one
nonzero column, no term of the determinant takes z' from two rows, and
E = c0 prod_k z_k + sum_j c_j z_j' prod_{k != j} z_k: one pass over the
wires (_star_pass) with lambda-free constants (_star_constants) in place
of the n x n determinant, which stays for every other problem.
fundamental_frame and frame_matrix keep the 2n x 2n route as the minors
check's reference; nothing else in the package builds it.

Every value here comes from the transfer kernel, propagate.LegPlan:
legs are planned once, lambda-free, and the plan is evaluated on an array
of lambda, one stack of transfers that each problem reads as slices.  A
bundle plans the origin frame's n z legs, no Y leg; each families() call
plans both families on every edge asked for and evaluates them from their
launch data in one LegPlan.solutions pass.  evans, fundamental_frame and
FrameBundle accept an array of lambda and return stacked results.
_evans_values plans the legs of several problems once and evaluates them
once per batch of max(1, CHUNK // size) lambdas, size summing n over the
problems of the star pass and n^2 over the others, which bounds a batch's
memory; a command keeps it for as long as its problems live, evans is its
one-shot case, and the map blocks read each piece's z legs of its stacks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import BoundaryConditions, StarGraph, as_index, require_valid_bc
from .propagate import LegPlan

# lambdas times problem size per batch: a batch holds the n x n Wronskian
# matrices of every determinant problem (size n^2) and the n values z, z'
# of every star-pass problem (size n), O(CHUNK), and the 2 x 2 transfers
# of every leg
CHUNK = 64 * 16 ** 2


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
    if not np.isfinite(arr).all():
        raise ValueError(f"lambda must be finite, got {arr[~np.isfinite(arr)][0]}")
    if np.iscomplexobj(arr) and not np.any(arr.imag):
        arr = arr.real
    return np.atleast_1d(arr).astype(complex if np.iscomplexobj(arr) else float), arr.ndim == 0


def chunked(fn, lams, size=1):
    """fn over an array of lambda, max(1, CHUNK // size) lambdas a call, size
    the memory of one lambda in CHUNK's units; fn returns a list of arrays,
    each concatenated over the calls."""
    step = max(1, CHUNK // size)
    batches = [fn(lams[i:i + step]) for i in range(0, max(lams.size, 1), step)]
    return batches[0] if len(batches) == 1 else [np.concatenate(c) for c in zip(*batches)]


def _launch(bc):
    """(Y, Y') at the origin, column i member i, and (z, z') at each outer
    end; cached on the immutable condition set, as every frame reads it."""
    data = getattr(bc, "_launch_data", None)
    if data is None:
        data = (-bc.alpha2.conj().T, bc.alpha1.conj().T, -np.conj(bc.beta2), np.conj(bc.beta1))
        object.__setattr__(bc, "_launch_data", data)
    return data


def y_blocks(bc: BoundaryConditions, lams, xs, t):
    """Y family at xs[j] on edge j: (Y, Y'), each (L, n, n), from the
    transfers t, (L, k, 2, 2), of the k legs (edge j, 0, xs[j]) with
    xs[j] != 0."""
    y0, yp0 = _launch(bc)[:2]
    Y = np.empty((lams.size,) + y0.shape, dtype=np.result_type(lams, y0))
    Yp = np.empty_like(Y)
    Y[:], Yp[:] = y0, yp0
    if t.shape[1]:
        moved = np.flatnonzero(xs)
        a, ap = y0[moved], yp0[moved]
        Y[:, moved] = t[..., 0, 0, None] * a + t[..., 0, 1, None] * ap
        Yp[:, moved] = t[..., 1, 0, None] * a + t[..., 1, 1, None] * ap
    return Y, Yp


def z_values(bc: BoundaryConditions, t):
    """z_j at the end of its leg: (z, z'), each (L, n), from the transfers
    t, (L, n, 2, 2), of one leg per edge j, from its outer end."""
    z0, zp0 = _launch(bc)[2:]
    return (t[..., 0, 0] * z0 + t[..., 0, 1] * zp0,
            t[..., 1, 0] * z0 + t[..., 1, 1] * zp0)


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


def _frame(g, bc, lams, xs, t):
    """Y, Z, Y', Z' of the frame at xs from the stacked transfers t of its _frame_legs."""
    z, zp = z_values(bc, t[:, :g.n])
    Y, Yp = y_blocks(bc, lams, xs, t[:, g.n:])
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
    blocks = _frame(g, bc, lams, xs, LegPlan(legs).stack(lams))
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


def _star_constants(problems, frames):
    """Per problem, the lambda-free constants (c0, c) of _star_pass, or None
    where its Evans value stays a determinant: off the origin, or where
    alpha2 has two or more nonzero rows, decided exactly.  Row j of the
    secular matrix at the origin is z_j' Y[j] - z_j Y'[j], and Y = -alpha2^H
    then has one nonzero column, so E is c0 prod_k z_k + sum_j c_j z_j'
    prod_{k != j} z_k with c0 = E(z = 1, z' = 0) and c_j = E(z = 1 - e_j,
    z' = e_j): one det of an (n + 1, n, n) stack, which problems with equal
    alpha1 and alpha2, as a graph and its residual star, share.  A one-wire
    problem's are its launch data, -Y' and Y, with no det."""
    out, made = [], {}
    for (g, bc), (_, legs) in zip(problems, frames):
        y0, yp0 = _launch(bc)[:2]
        if len(legs) > g.n or np.count_nonzero(bc.alpha2.any(axis=1)) > 1:
            out.append(None)
        elif g.n == 1:
            out.append((-yp0[0, 0], y0[0]))
        else:
            key = (bc.alpha1.dtype, bc.alpha1.tobytes(), bc.alpha2.tobytes())
            if key not in made:
                unit = np.eye(g.n + 1, g.n, -1)  # row 0 zero, row j + 1 e_j
                e = np.linalg.det(wronskian_matrix(1.0 - unit, unit, y0, yp0))
                made[key] = e[0], e[1:]
            out.append(made[key])
    return out


def _star_pass(c0, c, z, zp):
    """c0 prod_k z_k + sum_j c_j z_j' prod_{k != j} z_k for z, z' (L, n),
    by one elementwise pass over the wires, (P, S) <- (P z_j, S z_j +
    c_j z_j' P), then S + c0 P.  Nothing is reduced along the wire axis, so
    each lambda keeps its bits in any batch."""
    p, s = z[:, 0], c[0] * zp[:, 0]
    for j in range(1, z.shape[1]):
        p, s = p * z[:, j], s * z[:, j] + c[j] * zp[:, j] * p
    return s + c0 * p


class _evans_values:
    """The Evans values of every (graph, bc) problem, evaluated at points
    (default: the origins), as one callable of an array of lambda as
    lambdas() gives it, which returns a list of value arrays.  The legs of
    every problem are planned here, once (plan); each batch evaluates the
    plan once, and values() gives every value from that stack, each problem
    reading its z legs (legs) and Y legs as slices.  At the origin Y and Y'
    are the launch data, and a problem that _star_constants admits takes
    the star pass in place of the determinant."""

    def __init__(self, problems, points=None):
        self.problems = problems
        self._frames = [_frame_legs(g, bc, point)
                        for (g, bc), point in zip(problems, points or [None] * len(problems))]
        self.plan = LegPlan([leg for _, legs in self._frames for leg in legs])
        self._firsts = [0, *itertools.accumulate(len(legs) for _, legs in self._frames)]
        self._consts = _star_constants(problems, self._frames)
        self.size = sum(g.n ** 2 if c is None else g.n for (g, _), c in zip(problems, self._consts))

    def legs(self, t, i):
        """Problem i's z legs in the stack t, (L, n, 2, 2): edge j's from its outer end."""
        return t[:, self._firsts[i]:self._firsts[i] + self.problems[i][0].n]

    def values(self, t, lams):
        """Every problem's value array from the stack t of plan at lams."""
        out = []
        for (g, bc), (xs, legs), c, a in zip(self.problems, self._frames, self._consts,
                                             self._firsts):
            z = z_values(bc, t[:, a:a + g.n])
            y = (y_blocks(bc, lams, xs, t[:, a + g.n:a + len(legs)]) if len(legs) > g.n
                 else _launch(bc)[:2])
            out.append(np.linalg.det(wronskian_matrix(*z, *y)) if c is None else _star_pass(*c, *z))
        return out

    def __call__(self, lams):
        return chunked(lambda ls: self.values(self.plan.stack(ls), ls), lams, self.size)


def evans(g: StarGraph, bc: BoundaryConditions, lam,
          eval_point=None) -> EvansValue:
    """Evans function at lam; value is an array for an array of lambda.  At
    the origin a problem whose alpha2 has at most one nonzero row takes the
    star pass, any other the n x n secular determinant (_evans_values)."""
    lams, scalar = lambdas(lam)
    [vals] = _evans_values([(g, bc)], [eval_point])(lams)
    return EvansValue(value=vals[0] if scalar else vals, lam=lam)


def _one_lambda(lam, what):
    """lambdas(lam)[0] for a scalar lam; what names the caller that
    refuses an array, rather than cutting it to its first entry."""
    lams, scalar = lambdas(lam)
    if not scalar:
        raise ValueError(f"{what} takes one lambda")
    return lams


class FrameBundle:
    """Both solution families of one (graph, bc) at lam, kept evaluatable.

    Callers that only need determinants use evans(); this object serves the
    boundary-value solves, where the families act as a basis and their
    gamma-trace matrix is block diagonal: Y columns satisfy the origin
    conditions exactly and Z columns the outer ones, so only the beta-trace
    of Y and the alpha-trace of Z (the C block) survive.  One kernel call
    gives z, z' at the origin, where Y, Y' are the launch data, and so the
    Wronskians, whose rows are that beta-trace over phi_j = c / conj c for
    (g_j, h_j) = c (real pair): no Y leg.  families() evaluates both
    families anywhere on an edge.  lam is one lambda or a 1-d array of them;
    for an array the values, C block, trace solves, families and weights
    gain a leading lambda axis, which component refuses.
    """

    def __init__(self, g: StarGraph, bc: BoundaryConditions, lam):
        self.graph, self.bc, self.lam = g, bc, lam
        self._lams, self._scalar = lambdas(lam)
        t = LegPlan(_frame_legs(g, bc, None)[1]).stack(self._lams)
        self.z, self.zp = (v[0] if self._scalar else v for v in z_values(bc, t))

    def families(self, items):
        """Both families at the positions xs (1-d) on edge j, propagated from
        0 and from l_j, for each (j, xs, weights) of items, all through one
        kernel evaluation.  Column k of weights (n x m) combines the origin
        family, whose data combine first as the equation is linear.  Yields
        one pair y (2, m, P), z (2, P) per item, after the bundle's lambda
        axis, which weights may share: values, then derivatives.  Each pair
        is made when it is reached, one item's families alive at a time."""
        y0, yp0, z0, zp0 = _launch(self.bc)
        edges = self.graph.edges
        data = [d for j, _, weights in items
                for d in (np.stack([y0[j] @ weights, yp0[j] @ weights], axis=-2),
                          np.array([[z0[j]], [zp0[j]]]))]
        sols = LegPlan([leg for j, xs, _ in items for leg in
                        ((edges[j], 0.0, xs), (edges[j], edges[j].length, xs))]
                       ).solutions(self._lams, data)
        for _ in items:  # the y leg, then the z leg; no family outlives its item
            y, z = next(sols), next(sols)[:, :, 0]
            yield (y[0], z[0]) if self._scalar else (y, z)

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
        """Coefficients d with gamma-trace rhs; Y's beta-trace is phi_j W[j], phi_j = 1 if real."""
        n, c, bc = self.n, self.c_block(), self.bc
        phi = (bc.beta1 ** 2 + bc.beta2 ** 2) / (np.abs(bc.beta1) ** 2 + np.abs(bc.beta2) ** 2)
        s = np.zeros(c.shape[:-2] + (2 * n, 2 * n), dtype=np.promote_types(phi.dtype, c.dtype))
        s[..., :n, :n] = phi[:, None] * self.wronskians()
        s[..., n:, n:] = c
        return np.linalg.solve(s, np.asarray(rhs))

    def component(self, d, j, xs):
        """(values, derivs) on edge j of the combination with coefficients d."""
        _one_lambda(self.lam, "component")
        d, j = np.asarray(d), as_index(j, "edge", self.n)
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
    vals = np.array(_evans_values([(g, bc)] * len(trial_points), trial_points)(lambdas(lam)[0]))
    return float(abs(vals[1:] - vals[0]).max() / abs(vals).max())
