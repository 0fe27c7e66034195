"""Explicit resolvent and boundary-data projection machinery.

The resolvent of (H - lambda) is assembled edge by edge: a particular
solution by variation of parameters between the outer-condition solution z
and an origin-family partner y_tau, plus a z-correction whose coefficients
solve an n x n system with the matrix C = alpha1 Z(0) + alpha2 Z'(0).  The
boundary-condition matrices also define a unitary U whose eigenspaces at
-1 and +1 give the Dirichlet and Neumann projections of boundary data; the
remainder carries a self-adjoint operator Lambda.  Both structures combine
in trace formulas that recover boundary-value solutions from resolvent
traces, which is the module's independent check on the map construction:
u_gamma builds the solution with gamma-trace e_i from the trace system and,
on each edge j, as a z_j + b y_tau from adjustment-vector weights, made at
conj lambda and conjugated (complex data need it).  At real lambda both
constructions read one partner-trace table per lambda: the resolvent's
right side, which the formula path solves against C once per lambda.

The work is batched over lambda: _applications, _segment_residuals and
_u_gamma take an array of lambda, and one FrameBundle of that array serves
every slot and every lambda, its families of every edge from one kernel
evaluation (LegPlan.solutions, with no 2 x 2 transfer per position);
the lambda-free work (panels, sources at the nodes, adjustment vectors) is
done once.  The one-lambda public functions are its L = 1 case, and the
verify tables hand it every draw, max(1, CHUNK // (n GRID_POINTS)) lambdas
at a time.  Every check still applies to each lambda: a batch fails
exactly when one of its lambdas does, and a verify table halves it down
to that lambda.  Launch data come from evans._launch.

The quadrature evaluates the families only at its panels' ends (output
grid, breakpoints, any requested x).  A solution f at a Gauss-Legendre
node of the panel from a is c f(a) + s f'(a), (c, s) the first row of the
exact transfer from a, which equal panels share, so the panel's integral of
v f is f(a) sum w v c + f'(a) sum w v s.  numpy's leggauss gives the rules.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .evans import FrameBundle, _launch, _one_lambda, chunked, lambdas
from .graphs import BoundaryData, Sampled, as_index, gamma_trace, neumann_trace
from .propagate import segment_transfer

GL_NODES = 4         # Gauss-Legendre nodes per grid panel (the rule is built on first use)
CHECK_NODES = 32     # segment_residual's own rule: the resolvent's would reproduce its panel sums
GRID_POINTS = 513    # per-edge output grid
KERNEL_TOL = 1e-10   # relative singular-value threshold for kernels
SPECTRUM_TOL = 1e-9  # relative digits cond(C) may cost: cond(C) eps at most this


class NoIndependentPartner(ArithmeticError):
    pass


class QuadratureFailure(ArithmeticError):
    pass


class OnSpectrum(ArithmeticError):
    pass


class SingularDeltaCombination(ValueError):
    pass


# ---------------------------------------------------------------- quadrature

@functools.cache
def _gauss_legendre(n):
    """The n-node Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(n)


def _edge_breakpoints(edge):
    segs = edge.potential.segments
    return np.array([segs[0][0]] + [b for _, b, _, _ in segs])


def _start_values(edge, bks, a):
    """(V at each start a, the slope of its segment), bks the edge's breakpoints."""
    seg = np.clip(np.searchsorted(bks, a, side="right") - 1, 0, bks.size - 2)
    s0, s1, v0, v1 = np.array(edge.potential.segments)[seg].T
    slope = (v1 - v0) / (s1 - s0)
    return v0 + slope * (a - s0), slope


def _v_evaluator(v_j, length):
    """Accept a vectorized callable, a Sampled profile, a per-edge array
    (uniform grid over [0, length]) or a scalar."""
    if callable(v_j):
        return v_j
    if isinstance(v_j, Sampled):
        return lambda x: np.interp(x, v_j.xs, v_j.vs)
    arr = np.asarray(v_j)
    if arr.ndim == 0:
        return lambda x: np.full(np.shape(x), arr[()])
    grid = np.linspace(0.0, length, arr.size)
    return lambda x: np.interp(x, grid, arr)


def _panel_sums(bundle: FrameBundle, items, conj=False):
    """For each (j, v_j, xs) of items, the ends of the grid panels on edge j
    (breakpoints, output grid and xs), each x's index among them, and each
    panel's sums of w v c and w v s (conj v if conj) over its nodes in node
    order, (P, 2) after the bundle's lambda axis: one (c, s) row a node for
    each distinct (width, V, slope) of every item's panels."""
    x, w = _gauss_legendre(GL_NODES)
    ends, wv, key = [], [], []
    for j, v_j, xs in items:
        edge = bundle.graph.edges[j]
        bks = _edge_breakpoints(edge)
        ends.append(np.unique(np.concatenate([bks, np.linspace(0.0, edge.length, GRID_POINTS),
                                              xs])))
        a, h = ends[-1][:-1], np.diff(ends[-1])
        vv = np.asarray(_v_evaluator(v_j, edge.length)(
            (a[:, None] + np.multiply.outer(h, 0.5 * (x + 1.0))).ravel()))
        if not np.all(np.isfinite(vv.astype(complex))):
            raise QuadratureFailure("source term produced non-finite values")
        wv.append((np.conj(vv) if conj else vv).reshape(h.size, -1) * np.multiply.outer(0.5 * h, w))
        key.append([h, *_start_values(edge, bks, a)])
    key, wv = np.concatenate(key, axis=1), np.concatenate(wv)
    order = np.lexsort(key)
    new = np.concatenate([[True], np.diff(key[:, order]).any(axis=0)])
    kind = (np.cumsum(new) - 1)[np.argsort(order)]  # each panel's row
    h, v0, slope = key[:, order[new], None]
    m = segment_transfer(h * (0.5 * (x + 1.0)), np.asarray(bundle.lam)[..., None, None], v0, slope)
    sums = np.stack([functools.reduce(np.add, (wv[:, i] * m[..., kind, i, 0, k]
                                               for i in range(GL_NODES))) for k in (0, 1)], -1)
    parts = np.split(sums, np.cumsum([e.size - 1 for e in ends])[:-1], axis=-2)
    return [(e, np.searchsorted(e, xs), part) for e, (_, _, xs), part in zip(ends, items, parts)]


def _running(f, sums):
    """The integral of v f from the first panel end to each, (..., P + 1),
    from f and f' at the ends, (..., 2, P + 1), and _panel_sums' sums."""
    panel = f[..., 0, :-1] * sums[..., 0] + f[..., 1, :-1] * sums[..., 1]
    return np.concatenate([np.zeros(panel.shape[:-1] + (1,)), np.cumsum(panel, axis=-1)], axis=-1)


# ------------------------------------------------------------- tau selection

@dataclass(frozen=True)
class TauSelection:
    tau: tuple         # per-edge partner index into the origin family
    wronskians: tuple  # per-edge D_j = W(y_tau_j, z_j), constant in x


def _taus(bundle: FrameBundle):
    """select_tau's partner indices and Wronskians, (n,) each after the
    bundle's lambda axis; raises if any lambda has no independent partner."""
    wr = bundle.wronskians()  # [..., j, i] = W(y_i, z_j)
    scale = 1.0 + np.maximum(np.abs(_launch(bundle.bc)[:2]).max(),
                             np.abs([bundle.z, bundle.zp]).max(axis=(0, -1)))
    tau = np.argmax(np.abs(wr), axis=-1)
    ds = np.take_along_axis(wr, tau[..., None], axis=-1)[..., 0]
    weak = np.abs(ds) <= 1e-12 * scale[..., None] ** 2
    if weak.any():
        raise NoIndependentPartner(
            f"every origin solution is dependent with z on edge {np.nonzero(weak)[-1][0]}; "
            "lambda is effectively on the spectrum")
    return tau, ds


def select_tau(bundle: FrameBundle) -> TauSelection:
    """Pick, per edge, the origin-family column most independent of z."""
    tau, ds = _taus(bundle)
    return TauSelection(tau=tuple(tau.tolist()), wronskians=tuple(ds))


def _partners(bundle: FrameBundle, tau):
    """Each edge's partner y_tau at the origin, (values, derivatives), and the
    partner-trace table, whose column j, alpha1[:, j] y_tau(0) + alpha2[:, j]
    y_tau'(0), is the origin trace that the z-correction cancels through C."""
    y, yp = (m[np.arange(bundle.n), tau] for m in _launch(bundle.bc)[:2])
    return y, yp, bundle.bc.alpha1 * y[..., None, :] + bundle.bc.alpha2 * yp[..., None, :]


def _particular(bundle: FrameBundle, tau, ds, items):
    """Variation-of-parameters solution of (H - lambda)u = v on edge j at
    xs, values and derivatives, z_j there and I_z(L) / D_j, for each
    (j, v_j, xs) of items, after the bundle's lambda axis, from one
    evaluation of the families at the panel ends; tau and ds as _taus
    gives them.  The y_tau weight collects the source beyond x, the z
    weight the source before it."""
    quads = _panel_sums(bundle, items)
    fams = bundle.families([(j, ends, np.eye(bundle.n)[tau[..., j], :, None])
                            for (j, _, _), (ends, _, _) in zip(items, quads)])
    out = []
    for (j, _, _), (_, at, sums) in zip(items, quads):
        y, z = next(fams)
        y = y[..., 0, :]
        iy, iz = _running(y, sums), _running(z, sums)
        d = ds[..., j]
        out.append((-(y[..., at] * (iz[..., -1:] - iz[..., at])[..., None, :]
                      + z[..., at] * iy[..., None, at]) / d[..., None, None],
                    z[..., at], iz[..., -1] / d))
        del y, z  # before the next item's families are made
    return out


def particular_solution(bundle: FrameBundle, tau: TauSelection, v_j, j, x):
    """Variation-of-parameters solution of (H - lambda)u = v on edge j."""
    _one_lambda(bundle.lam, "particular_solution")
    j = as_index(j, "edge", bundle.n)
    [(u, _, _)] = _particular(bundle, np.array(tau.tau), np.array(tau.wronskians),
                              [(j, v_j, np.atleast_1d(np.asarray(x, dtype=float)))])
    return u[0] if np.ndim(x) else u[0, 0]


# ---------------------------------------------------------------- resolvent

@dataclass(frozen=True)
class ResolventApplication:
    lam: complex
    grids: tuple            # per-edge abscissae (uniform, GRID_POINTS each)
    coefficients: np.ndarray  # length 2n; the first n are identically zero
    y_p: tuple              # per-edge particular-solution values
    y_p_deriv: tuple
    output: tuple           # per-edge resolvent values
    output_deriv: tuple
    dirichlet_trace: np.ndarray  # [u(l); u(0)], exact endpoint evaluation
    neumann_trace: np.ndarray    # [u'(l); -u'(0)]
    gamma_residual: float
    tau: TauSelection


def _off_spectrum(bundle: FrameBundle):
    """Raises OnSpectrum unless every lambda of the bundle (a bundle of an
    array of lambda) has cond(C) eps <= SPECTRUM_TOL, the relative digits
    a solve against C may lose; cond(C), unlike det C, is scale-free."""
    loss = np.linalg.cond(bundle.c_block()) * np.finfo(float).eps
    on = ~(loss <= SPECTRUM_TOL)  # a NaN cond(C) is on the spectrum too
    if on.any():
        raise OnSpectrum(f"lambda={bundle.lam[np.argmax(on)]}: C loses {loss[on][0]:.2e} to "
                         "conditioning; lambda is too close to the spectrum")


def _applications(bundle: FrameBundle, v, labels):
    """The resolvent applied to v at every lambda of the bundle (a bundle of
    an array of lambda), each labelled from labels; every family of every
    lambda comes from one kernel evaluation.  Raises if any lambda fails a check."""
    _off_spectrum(bundle)
    tau, ds = _taus(bundle)
    n, bc = bundle.n, bundle.bc
    if len(v) != n:
        raise ValueError(f"need one source per edge, got {len(v)} for n={n}")

    grids = tuple(np.linspace(0.0, e.length, GRID_POINTS) for e in bundle.graph.edges)
    parts = _particular(bundle, tau, ds, [(j, v[j], grids[j]) for j in range(n)])
    rhs = _partners(bundle, tau)[2] @ np.stack([p[2] for p in parts], axis=-1)[..., None]
    cz = np.linalg.solve(bundle.c_block(), rhs)[..., 0]
    coeff = np.concatenate([np.zeros(cz.shape, dtype=cz.dtype), cz], axis=-1)
    out = [u + cz[:, j, None, None] * z for j, (u, z, _) in enumerate(parts)]  # values, derivatives

    apps = []
    for k, lam in enumerate(labels):
        ends = np.array([(u[k, 0, -1], u[k, 1, -1], u[k, 0, 0], u[k, 1, 0]) for u in out]).T
        bd = BoundaryData(*ends)
        apps.append(ResolventApplication(
            lam=lam, grids=grids, coefficients=coeff[k],
            y_p=tuple(u[k, 0] for u, _, _ in parts), y_p_deriv=tuple(u[k, 1] for u, _, _ in parts),
            output=tuple(u[k, 0] for u in out), output_deriv=tuple(u[k, 1] for u in out),
            dirichlet_trace=np.concatenate([ends[0], ends[2]]),
            neumann_trace=neumann_trace(bd),
            gamma_residual=float(np.abs(gamma_trace(bc, bd)).max()),
            tau=TauSelection(tau=tuple(tau[k].tolist()), wronskians=tuple(ds[k]))))
    return apps


def resolvent_apply(g, bc, lam, v) -> ResolventApplication:
    """Apply the resolvent of (H - lambda) to a per-edge source v.

    v is a length-n sequence (callables, Sampled profiles, arrays or
    scalars).  The output is tabulated on uniform per-edge grids; the
    boundary traces come from exact endpoint evaluation, so the zero
    gamma-trace property is checked, not assumed.
    """
    [app] = _applications(FrameBundle(g, bc, _one_lambda(lam, "resolvent_apply")), v, [lam])
    return app


def segment_residual(g, lam, app: ResolventApplication, v) -> float:
    """Largest defect of (H - lambda)output = v, checked by exact
    propagation across every grid interval.

    Each interval steps with the exact transfer of its linear potential
    segment; the source enters through Gauss-Legendre quadrature of the
    transfers from each node to the interval's end.  Grid intervals
    containing a breakpoint or sample node are skipped.
    """
    lams = _one_lambda(lam, "segment_residual")
    if lams[0] != app.lam:
        raise ValueError(f"the application was made at lambda={app.lam}, not {lam}")
    if not len(v) == len(app.grids) == g.n:
        raise ValueError(f"need one source per edge of the application, got {len(v)} for n={g.n}")
    return float(_segment_residuals(g, lams, [app], v)[0])


def _segment_residuals(g, lams, apps, v):
    """segment_residual of each application of apps at its lambda of lams:
    the grid, the source at the check nodes and the runs of equal (V,
    slope) are shared, and the transfers of every lambda come together."""
    worst = np.zeros(lams.size)
    x, w = _gauss_legendre(CHECK_NODES)
    tau, wts = 0.5 * (x + 1.0), 0.5 * w
    for j, edge in enumerate(g.edges):
        xs = apps[0].grids[j]
        u, up = (np.stack([getattr(a, f)[j] for a in apps]) for f in ("output", "output_deriv"))
        bks = _edge_breakpoints(edge)
        h = xs[1] - xs[0]
        inner = bks[(bks > xs[0]) & (bks < xs[-1])]
        a, b = xs[:-1], xs[1:]
        i = np.nonzero(~np.any((inner[:, None] > a) & (inner[:, None] < b), axis=0))[0]
        if not i.size:
            continue
        vx, slope = _start_values(edge, bks, a[i])  # V at each interval's start
        m = segment_transfer(h, lams[:, None], vx, slope)
        # node-to-end transfers, once per run of equal (V, slope): a flat
        # segment's intervals share theirs
        r = np.flatnonzero(np.r_[True, (np.diff(vx) != 0) | (np.diff(slope) != 0)])
        kern = segment_transfer(h * (1.0 - tau), lams[:, None, None],
                                vx[r, None] + slope[r, None] * h * tau,
                                slope[r, None])[..., 1]  # (L, runs, nodes, 2)
        src = np.asarray(_v_evaluator(v[j], edge.length)(a[i][:, None] + h * tau)) * (h * wts)
        # each run's source rows times its kernels, summed in node order so
        # that every residual keeps its bits: a one-interval run (a sloped
        # stretch has only those) in one product a lambda, a longer run in
        # one product for every lambda, with contiguous operands and the
        # intervals innermost
        size = np.diff(np.r_[r, i.size])
        one = r[size == 1]
        part = np.empty((lams.size, i.size, 2), dtype=np.result_type(src, kern))
        if one.size:
            for p, k in zip(part, kern):
                p[one] = np.einsum("in,ink->ik", src[one], k[size == 1])
        if one.size < r.size:
            kt = np.ascontiguousarray(np.swapaxes(kern, 2, 3))  # (L, runs, 2, nodes)
            for k in np.flatnonzero(size > 1).tolist():
                rows = slice(r[k], r[k] + size[k])
                part[:, rows] = np.einsum("ni,lcn->lci", np.ascontiguousarray(src[rows].T),
                                          kt[:, k]).swapaxes(1, 2)
        u0, u1, up0, up1 = u[:, i], u[:, i + 1], up[:, i], up[:, i + 1]
        pred_u = u0 * m[..., 0, 0] + up0 * m[..., 0, 1] - part[..., 0]
        pred_up = u0 * m[..., 1, 0] + up0 * m[..., 1, 1] - part[..., 1]
        scale = 1.0 + np.abs(u1) + np.abs(up1)
        worst = np.maximum.reduce([worst, np.max(np.abs(pred_u - u1) / scale, axis=-1),
                                   np.max(np.abs(pred_up - up1) / scale, axis=-1)])
    return worst


def _resolvent_residuals(g, bc, lams, v):
    """The gamma_trace and ode_defect residuals of the resolvent applied to v."""
    def rows(ls):
        apps = _applications(FrameBundle(g, bc, ls), v, ls)
        return np.column_stack([[a.gamma_residual for a in apps],
                                _segment_residuals(g, ls, apps, v)])
    return _by_chunks(g, lams, rows)


# -------------------------------------------------------------- projections

@dataclass(frozen=True)
class ProjectionSet:
    delta1: np.ndarray
    delta2: np.ndarray
    U: np.ndarray
    P_D: np.ndarray
    P_N: np.ndarray
    P_R: np.ndarray
    basis_R: np.ndarray   # orthonormal columns spanning ran P_R
    Lambda: np.ndarray    # rank x rank matrix in the basis_R coordinates
    sign: np.ndarray      # diag(I, -I); right-multiplication flips origin slots

    @property
    def n(self):
        return self.delta1.shape[0] // 2

    @property
    def rank_R(self):
        return self.basis_R.shape[1]

    def tilde(self, m):
        return m @ self.sign

    def lambda_full(self):
        """Lambda lifted back to the ambient 2n space (zero off ran P_R)."""
        b = self.basis_R
        return b @ self.Lambda @ b.conj().T


def _kernel_projector(m):
    u, sv, vh = np.linalg.svd(m)
    rank = int(np.sum(sv > KERNEL_TOL * (sv[0] if sv.size and sv[0] > 0 else 1.0)))
    basis = vh[rank:].conj().T
    return basis @ basis.conj().T


def build_projections(bc) -> ProjectionSet:
    """Unitary boundary encoding and the Dirichlet/Neumann/Robin projections.

    Results are lambda-independent, so they are cached on the condition set.
    """
    cached = getattr(bc, "_projections", None)
    if cached is not None:
        return cached
    n = bc.n
    zero = np.zeros((n, n))
    d1 = np.block([[np.diag(bc.beta1), zero], [zero, bc.alpha1]])
    d2 = np.block([[np.diag(bc.beta2), zero], [zero, bc.alpha2]])
    den = d1 - 1j * d2
    sv = np.linalg.svd(den, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise SingularDeltaCombination("delta1 - i delta2 is numerically singular")
    u_mat = -np.linalg.solve(den, d1 + 1j * d2)
    p_d = _kernel_projector(d2)
    p_n = _kernel_projector(d1)
    p_r = np.eye(2 * n) - p_d - p_n
    evals, evecs = np.linalg.eigh(p_r)
    basis = evecs[:, evals > 0.5]
    if basis.size:
        g_mat = basis.conj().T @ (u_mat + np.eye(2 * n)) @ basis
        gsv = np.linalg.svd(g_mat, compute_uv=False)
        if gsv[-1] <= 1e-12 * max(gsv[0], 1.0):
            raise SingularDeltaCombination("U + I is singular on the Robin block")
        lam_r = -1j * np.linalg.solve(g_mat, basis.conj().T
                                      @ (u_mat - np.eye(2 * n)) @ basis)
    else:
        lam_r = np.zeros((0, 0), dtype=complex)
    ps = ProjectionSet(delta1=d1, delta2=d2, U=u_mat, P_D=p_d, P_N=p_n,
                       P_R=p_r, basis_R=basis, Lambda=lam_r,
                       sign=np.diag(np.r_[np.ones(n), -np.ones(n)]))
    object.__setattr__(bc, "_projections", ps)
    return ps


def projection_equations(ps: ProjectionSet, bd: BoundaryData):
    """Residuals of the three boundary-data relations satisfied by any
    function in the operator domain: the Dirichlet part of the values
    vanishes, the Neumann part of the derivatives vanishes, and the Robin
    parts are linked by Lambda.  Derivatives enter plain (both endpoints
    inward); the outward-normal convention is absorbed by the sign matrix.
    """
    vals = np.concatenate([bd.values_at_ell, bd.values_at_0])
    ders = np.concatenate([bd.derivs_at_ell, bd.derivs_at_0])
    scale = 1.0 + np.abs(vals).max() + np.abs(ders).max()
    r1 = np.abs(ps.P_D @ vals).max() / scale
    r2 = np.abs(ps.P_N @ ders).max() / scale
    r3 = np.abs(ps.P_R @ ders - ps.lambda_full() @ (ps.P_R @ vals)).max() / scale
    return r1, r2, r3


@dataclass(frozen=True)
class AdjustmentVectors:
    """Columns i are the vectors attached to the i-th trace basis vector."""

    L: np.ndarray
    M: np.ndarray
    N: np.ndarray


def adjustment_vectors(ps: ProjectionSet) -> AdjustmentVectors:
    dim = 2 * ps.n
    a_full = np.linalg.inv(ps.delta1 - 1j * ps.delta2)
    l_mat = -1j * ps.tilde(ps.P_N) @ a_full
    n_mat = -ps.P_D @ a_full
    if ps.rank_R:
        b = ps.basis_R
        g_mat = b.conj().T @ (ps.U + np.eye(dim)) @ b
        w = b.conj().T @ (ps.tilde(ps.P_R) @ a_full)
        m_mat = b @ (-2j * np.linalg.solve(g_mat, w))
    else:
        m_mat = np.zeros((dim, dim), dtype=complex)
    return AdjustmentVectors(L=l_mat, M=m_mat, N=n_mat)


# ------------------------------------------------- trace-formula cross paths

def _l2_inner(bundle: FrameBundle, d, v) -> complex:
    """Integral over the graph of (combination with coefficients d) * conj(v),
    every wire through one families call at its panel ends."""
    n = bundle.n
    quads = _panel_sums(bundle, [(j, v[j], np.empty(0)) for j in range(n)], conj=True)
    fams = bundle.families([(j, ends, d[..., :n, None]) for j, (ends, _, _) in enumerate(quads)])
    total = 0.0
    for j, ((_, _, sums), (y, z)) in enumerate(zip(quads, fams)):
        total += _running(y[..., 0, :] + d[..., n + j, None, None] * z, sums)[..., -1].sum()
    return total


def _conjugate(bundle: FrameBundle):
    """The bundle at conj lambda: itself where every lambda is real."""
    return (bundle if np.isrealobj(bundle._lams)
            else FrameBundle(bundle.graph, bundle.bc, np.conj(bundle.lam)))


def inner_product_check(g, bc, lam, f, v) -> float:
    """Two evaluations of (u_Gamma, v), the integral of u_Gamma conj(v):
    direct quadrature of the solution with gamma-trace f against v, and the
    adjustment-vector pairing with the conjugated boundary traces of
    w = R(conj lambda) v, one bundle serving both at real lambda.  Returns
    their discrepancy relative to the sum of their sizes, 0 when both vanish."""
    f_arr = np.asarray(f, dtype=complex)
    if f_arr.shape != (2 * g.n,):
        raise ValueError(f"need 2n = {2 * g.n} trace entries, got shape {f_arr.shape}")
    bundle = FrameBundle(g, bc, _one_lambda(lam, "inner_product_check"))
    [w] = _applications(_conjugate(bundle), v, [np.conj(lam)])
    direct = _l2_inner(bundle, bundle.solve_trace(f_arr), v)
    av = adjustment_vectors(build_projections(bc))
    paired = ((av.L @ f_arr + av.M @ f_arr) @ np.conj(w.dirichlet_trace)
              + av.N @ f_arr @ np.conj(w.neumann_trace))
    size = abs(direct) + abs(paired)
    return float(abs(direct - paired) / size) if size else 0.0


@dataclass(frozen=True)
class UGammaPaths:
    lam: complex
    index: int
    grids: tuple
    direct: tuple       # per-edge values from the 2n x 2n trace solve
    formula: tuple      # per-edge values from the trace-formula assembly
    sup_discrepancy: float
    trace_residual: float
    coefficients: np.ndarray


def u_gamma(g, bc, lam, i) -> UGammaPaths:
    """Boundary-value solution with gamma-trace e_i, built two ways.

    The direct path solves the block trace system.  The formula path never
    sees that system: it combines resolvent-trace building blocks (one
    definite integral each) weighted by the adjustment vectors, which is
    what makes it an independent check.  On edge j that combination is
    a z_j + b y_tau, two profiles whose weights depend on the slot only
    through e_i and its adjustment-vector columns.
    """
    i = as_index(i, "slot", 2 * g.n)
    [[paths]] = _u_gamma(FrameBundle(g, bc, _one_lambda(lam, "u_gamma")), (i,), [lam])
    return paths


def _u_gamma(bundle: FrameBundle, slots, labels):
    """u_gamma for each slot in slots at every lambda of the bundle (a
    bundle of an array of lambda), one list per lambda labelled from
    labels, every lambda from one families call: only the right sides and
    the adjustment-vector columns depend on the slot."""
    g, bc, slots = bundle.graph, bundle.bc, list(slots)
    _off_spectrum(bundle)
    n = bundle.n
    rhs = np.eye(2 * n)[:, slots]
    d = bundle.solve_trace(rhs)  # [lambda, coefficient, slot]

    # the formula reads G_lambda(x, .) = conj G_conj-lambda(., x): it is built at
    # conj lambda (this bundle at real lambda) with conjugated weights, then conjugated
    bar = _conjugate(bundle)
    tau, ds = _taus(bar)
    av = adjustment_vectors(build_projections(bc))
    wd, wn = np.conj((av.L + av.M)[:, slots]), np.conj(av.N[:, slots])
    dj = ds[..., None]
    zl, zpl = (v[:, None] for v in _launch(bc)[2:])  # z at the outer ends
    gk = wd[:n] * zl + wn[:n] * zpl + wd[n:] * bar.z[..., None] - wn[n:] * bar.zp[..., None]
    yv0, yp0, traces = _partners(bar, tau)
    cof = np.linalg.solve(bar.c_block(), traces)
    a = (np.swapaxes(cof, -1, -2) @ gk - wd[n:] * yv0[..., None]
         + wn[n:] * yp0[..., None]) / dj  # [lambda, edge, slot]
    b = -(wd[:n] * zl + wn[:n] * zpl) / dj

    grids = tuple(np.linspace(0.0, edge.length, GRID_POINTS) for edge in g.edges)
    # the direct solutions and the partner y_tau in one evaluation, bar's at complex lambda
    partner = [np.eye(n)[tau[:, j], :, None] for j in range(n)]
    fams = bundle.families([(j, xs, np.concatenate([d[:, :n], partner[j]], -1))
                            for j, xs in enumerate(grids)])
    bars = fams if bar is bundle else bar.families(list(zip(range(n), grids, partner)))
    direct, ends, formula = [], [], []
    for j in range(n):
        y, z = next(fams)
        yb, zb = (y, z) if bar is bundle else next(bars)
        w = d[:, None, n + j, :, None]
        direct.append(y[:, 0, :-1] + w[:, 0] * z[:, None, 0])  # [lambda, slot, x]
        # values and derivatives at l and at 0, for the traces
        ends.append(y[:, :, :-1, [-1, 0]] + w * z[:, :, None, [-1, 0]])
        formula.append(a[:, j, :, None] * zb[:, None, 0])
        formula[-1] += b[:, j, :, None] * yb[:, 0, -1, None]
        np.conj(formula[-1], out=formula[-1])
        del y, z, yb, zb  # before the next edge's families are made

    out = []
    for k, lam_k in enumerate(labels):
        paths = []
        for s, i in enumerate(slots):
            bd = BoundaryData(*np.array([e[k, :, s].T.ravel() for e in ends]).T)
            paths.append(UGammaPaths(
                lam=lam_k, index=i, grids=grids, direct=tuple(u[k, s] for u in direct),
                formula=tuple(f[k, s] for f in formula),
                sup_discrepancy=float(max(np.abs(u[k, s] - f[k, s]).max()
                                          for u, f in zip(direct, formula))),
                trace_residual=float(np.abs(gamma_trace(bc, bd) - rhs[:, s]).max()),
                coefficients=d[k, :, s]))
        out.append(paths)
    return out


def _u_gamma_residuals(g, bc, lams):
    """The sup and trace residuals of u_gamma at every slot, slot-major."""
    return _by_chunks(g, lams, lambda ls: np.array(
        [[r for p in paths for r in (p.sup_discrepancy, p.trace_residual)]
         for paths in _u_gamma(FrameBundle(g, bc, ls), range(2 * g.n), ls)]))


def _by_chunks(g, lams, rows):
    """rows(ls), an (L, K) array, over an array of lambda as K rows,
    evaluated max(1, CHUNK // (n GRID_POINTS)) lambdas at a time, so a
    chunk holds a bounded number of edge grids."""
    [res] = chunked(lambda ls: [rows(ls)], lambdas(lams)[0], g.n * GRID_POINTS)
    return res.T
