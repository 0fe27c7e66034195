"""Explicit resolvent and boundary-data projection machinery.

The resolvent of (H - lambda) is assembled edge by edge: a particular
solution by variation of parameters between the outer-condition solution z
and an origin-family partner y_tau, plus a z-correction whose coefficients
solve an n x n system with the matrix C = alpha1 Z(0) + alpha2 Z'(0).  The
boundary-condition matrices also define a unitary U whose eigenspaces at
-1 and +1 give the Dirichlet and Neumann projections of boundary data; the
remainder carries a self-adjoint operator Lambda.  Both structures combine
in trace formulas that recover boundary-value solutions from resolvent
traces, which is the module's independent check on the map construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .evans import FrameBundle
from .graphs import BoundaryData, Sampled, gamma_trace, neumann_trace

GL_NODES = 32        # Gauss-Legendre nodes per potential segment
GRID_POINTS = 513    # per-edge output grid
KERNEL_TOL = 1e-10   # relative singular-value threshold for kernels
SPECTRUM_TOL = 1e-12


class NoIndependentPartner(ArithmeticError):
    pass


class QuadratureFailure(ArithmeticError):
    pass


class OnSpectrum(ArithmeticError):
    pass


class SingularDeltaCombination(ValueError):
    pass


# ---------------------------------------------------------------- quadrature

_GL_X, _GL_W = roots_legendre(GL_NODES)


def _edge_breakpoints(edge):
    pieces = getattr(edge.potential, "pieces", None)
    if pieces is None:
        return np.array([0.0, edge.length])
    return np.array([pieces[0][0]] + [b for _, b, _ in pieces])


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


def _panels(edge, xs):
    """Gauss-Legendre nodes and weights, (S + P, GL_NODES) each: one panel
    per potential segment, then for each x in xs the partial panel from
    the start of its segment to x.  Also returns each x's segment."""
    bks = _edge_breakpoints(edge)
    seg = np.clip(np.searchsorted(bks, xs, side="right") - 1, 0, bks.size - 2)
    a = np.concatenate([bks[:-1], bks[seg]])
    h = np.concatenate([np.diff(bks), xs - bks[seg]])
    return a[:, None] + np.multiply.outer(h, 0.5 * (_GL_X + 1.0)), \
        np.multiply.outer(0.5 * h, _GL_W), seg


def _cumulative_integral(v_eval, nodes, weights, seg, vals):
    """I(x) = integral from 0 to x of v * f for each row f of vals (the
    functions at the nodes of _panels, flattened) and each x, plus I(L).

    Gauss-Legendre per potential segment keeps the integrand smooth inside
    each panel; the partial panel up to x gets its own affine rule.
    """
    vv = np.asarray(v_eval(nodes.ravel()))
    if not np.all(np.isfinite(vv.astype(complex))):
        raise QuadratureFailure("source term produced non-finite values")
    panel = (vals.reshape(vals.shape[:-1] + nodes.shape) * vv.reshape(nodes.shape)
             * weights).sum(axis=-1)
    s = nodes.shape[0] - seg.size
    full = np.concatenate([np.zeros(vals.shape[:-1] + (1,)),
                           np.cumsum(panel[..., :s], axis=-1)], axis=-1)
    return full[..., seg] + panel[..., s:], full[..., -1]


# ------------------------------------------------------------- tau selection

@dataclass(frozen=True)
class TauSelection:
    tau: tuple         # per-edge partner index into the origin family
    wronskians: tuple  # per-edge D_j = W(y_tau_j, z_j), constant in x


def select_tau(bundle: FrameBundle) -> TauSelection:
    """Pick, per edge, the origin-family column most independent of z."""
    f = bundle.frame0
    wr = f.Y * np.diag(f.Zp)[:, None] - f.Yp * np.diag(f.Z)[:, None]  # [j, i]
    scale = 1.0 + max(np.abs(m).max() for m in (f.Y, f.Yp, f.Z, f.Zp))
    tau = []
    ds = []
    for j in range(bundle.n):
        i = int(np.argmax(np.abs(wr[j])))
        if abs(wr[j, i]) <= 1e-12 * scale**2:
            raise NoIndependentPartner(
                f"every origin solution is dependent with z on edge {j}; "
                "lambda is effectively on the spectrum")
        tau.append(i)
        ds.append(wr[j, i])
    return TauSelection(tau=tuple(tau), wronskians=tuple(ds))


def _particular(bundle: FrameBundle, tau: TauSelection, v_j, j, xs):
    """Variation-of-parameters solution of (H - lambda)u = v on edge j at
    xs, values and derivatives, z_j there and I_z(L) / D_j, from one
    evaluation of the edge.  The y_tau weight collects the source beyond
    x, the z weight the source before it."""
    edge = bundle.graph.edges[j]
    nodes, weights, seg = _panels(edge, xs)
    y, z = bundle.families(j, np.concatenate([xs, nodes.ravel()]),
                           np.eye(bundle.n)[:, tau.tau[j], None])
    p = xs.size
    (iy, iz), (_, iz_tot) = _cumulative_integral(
        _v_evaluator(v_j, edge.length), nodes, weights, seg,
        np.stack([y[0, 0, p:], z[0, p:]]))
    d = tau.wronskians[j]
    u = -(y[:, 0, :p] * (iz_tot - iz) + z[:, :p] * iy) / d
    return u, z[:, :p], iz_tot / d


def particular_solution(bundle: FrameBundle, tau: TauSelection, v_j, j, x):
    """Variation-of-parameters solution of (H - lambda)u = v on edge j."""
    u, _, _ = _particular(bundle, tau, v_j, j, np.atleast_1d(np.asarray(x, dtype=float)))
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


def _off_spectrum_det(bundle: FrameBundle):
    c = bundle.c_block()
    det = np.linalg.det(c)
    if abs(det) <= SPECTRUM_TOL * (1.0 + np.abs(c).max()) ** bundle.n:
        raise OnSpectrum(f"lambda={bundle.lam} is numerically on the spectrum")
    return det


def _cramer_dets(c, rhs):
    """det(c) with column k replaced by rhs, for each k."""
    out = np.empty(rhs.shape[0], dtype=complex)
    for k in range(rhs.shape[0]):
        ck = c.copy()
        ck[:, k] = rhs
        out[k] = np.linalg.det(ck)
    return out


def resolvent_apply(g, bc, lam, v) -> ResolventApplication:
    """Apply the resolvent of (H - lambda) to a per-edge source v.

    v is a length-n sequence (callables, Sampled profiles, arrays or
    scalars).  The output is tabulated on uniform per-edge grids; the
    boundary traces come from exact endpoint evaluation, so the zero
    gamma-trace property is checked, not assumed.
    """
    bundle = FrameBundle(g, bc, lam)
    _off_spectrum_det(bundle)
    tau = select_tau(bundle)
    n = bundle.n
    if len(v) != n:
        raise ValueError(f"need one source per edge, got {len(v)} for n={n}")

    grids = tuple(np.linspace(0.0, e.length, GRID_POINTS) for e in g.edges)
    parts = [_particular(bundle, tau, v[j], j, grids[j]) for j in range(n)]
    rhs = sum((bc.alpha1[:, j] * bundle.frame0.Y[j, tau.tau[j]]
               + bc.alpha2[:, j] * bundle.frame0.Yp[j, tau.tau[j]]) * parts[j][2]
              for j in range(n))
    c_mat = bundle.c_block()
    cz = np.linalg.solve(c_mat, rhs)
    if n <= 3:
        c = np.asarray(c_mat, dtype=complex)
        alt = _cramer_dets(c, np.asarray(rhs, dtype=complex)) / np.linalg.det(c)
        dev = np.max(np.abs(alt - cz)) / (1.0 + np.max(np.abs(cz)))
        if dev > 1e-9:
            raise ArithmeticError(f"coefficient solves disagree by {dev:.2e}; "
                                  "lambda is too close to the spectrum")
    coeff = np.concatenate([np.zeros(n, dtype=cz.dtype), cz])

    out = [u + cz[j] * z for j, (u, z, _) in enumerate(parts)]  # values, derivatives
    ends = np.array([(u[0, -1], u[1, -1], u[0, 0], u[1, 0]) for u in out]).T
    bd = BoundaryData(*ends)
    gres = float(np.abs(gamma_trace(bc, bd)).max())
    return ResolventApplication(
        lam=lam, grids=grids, coefficients=coeff,
        y_p=tuple(u[0] for u, _, _ in parts), y_p_deriv=tuple(u[1] for u, _, _ in parts),
        output=tuple(u[0] for u in out), output_deriv=tuple(u[1] for u in out),
        dirichlet_trace=np.concatenate([ends[0], ends[2]]),
        neumann_trace=neumann_trace(bd),
        gamma_residual=gres, tau=tau)


def segment_residual(g, lam, app: ResolventApplication, v) -> float:
    """Largest defect of (H - lambda)output = v, checked by exact
    propagation across every grid interval.

    Needs v constant on each potential segment (indicators and per-edge
    constants qualify); grid intervals containing a breakpoint are skipped.
    """
    from .propagate import transfer_matrix
    worst = 0.0
    for j, edge in enumerate(g.edges):
        xs, u, up = app.grids[j], app.output[j], app.output_deriv[j]
        v_eval = _v_evaluator(v[j], edge.length)
        bks = _edge_breakpoints(edge)
        h = xs[1] - xs[0]
        inner = bks[(bks > xs[0]) & (bks < xs[-1])]
        a, b = xs[:-1], xs[1:]
        i = np.nonzero(~np.any((inner[:, None] > a) & (inner[:, None] < b), axis=0))[0]
        if not i.size:
            continue
        mid = 0.5 * (a[i] + b[i])
        nu = np.array([edge.potential.value_at(x) for x in mid])
        v0 = np.asarray(v_eval(mid), dtype=complex)
        w = lam - nu
        m = transfer_matrix(h, lam, nu)
        c, s = m[:, 0, 0], m[:, 0, 1]
        series = np.abs(w) * h * h < 1e-6
        with np.errstate(all="ignore"):  # (1 - c) / w is replaced where w is tiny
            onec = np.where(series, 0.5 * h * h * (1 - w * h * h / 12 * (1 - w * h * h / 30)),
                            (1.0 - c) / w)
        pred_u = u[i] * c + up[i] * s - v0 * onec
        pred_up = u[i] * (-w * s) + up[i] * c - v0 * s
        scale = 1.0 + np.abs(u[i + 1]) + np.abs(up[i + 1])
        worst = max(worst, float(np.max(np.abs(pred_u - u[i + 1]) / scale)),
                    float(np.max(np.abs(pred_up - up[i + 1]) / scale)))
    return worst


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
    """Integral over the graph of (combination with coefficients d) * conj(v)."""
    total = 0.0
    for j, edge in enumerate(bundle.graph.edges):
        nodes, weights, _ = _panels(edge, np.empty(0))
        uu, _ = bundle.component(d, j, nodes.ravel())
        vv = _v_evaluator(v[j], edge.length)(nodes.ravel())
        total += np.sum(weights.ravel() * uu * np.conj(vv))
    return total


def inner_product_check(g, bc, lam, f, v) -> float:
    """Two evaluations of (u_Gamma, v): direct quadrature of the solution
    with gamma-trace f against v, and the adjustment-vector pairing with
    the resolvent's boundary traces.  Returns their relative discrepancy."""
    bundle = FrameBundle(g, bc, lam)
    _off_spectrum_det(bundle)
    d = bundle.solve_trace(np.asarray(f, dtype=complex))
    direct = _l2_inner(bundle, d, v)
    rv = resolvent_apply(g, bc, lam, v)
    av = adjustment_vectors(build_projections(bc))
    f_arr = np.asarray(f, dtype=complex)
    lf = av.L @ f_arr + av.M @ f_arr
    nf = av.N @ f_arr
    paired = lf @ rv.dirichlet_trace + nf @ rv.neumann_trace
    return float(abs(direct - paired) / (1.0 + abs(direct)))


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
    what makes it an independent check.
    """
    bundle = FrameBundle(g, bc, lam)
    det_c = _off_spectrum_det(bundle)
    n = bundle.n
    rhs = np.zeros(2 * n)
    rhs[i] = 1.0
    d = bundle.solve_trace(rhs)

    tau = select_tau(bundle)
    av = adjustment_vectors(build_projections(bc))
    weights_d = av.L[:, i] + av.M[:, i]
    weights_n = av.N[:, i]
    f0 = bundle.frame0
    c_mat = np.asarray(bundle.c_block(), dtype=complex)
    zl = -np.conj(bc.beta2)          # z_k at the outer endpoint
    zpl = np.conj(bc.beta1)
    z0 = np.diag(f0.Z)
    zp0 = np.diag(f0.Zp)

    grids, direct_vals, formula_vals, ends = [], [], [], []
    sup = 0.0
    for j, edge in enumerate(g.edges):
        xs = np.linspace(0.0, edge.length, GRID_POINTS)
        # the direct solution and the partner y_tau in one evaluation
        y, z = bundle.families(j, xs, np.column_stack([d[:n], np.eye(n)[:, tau.tau[j]]]))
        du, dup = y[:, 0] + d[n + j] * z
        yx, zx = y[0, 1], z[0]
        yv0 = f0.Y[j, tau.tau[j]]
        yp0 = f0.Yp[j, tau.tau[j]]
        cof = _cramer_dets(c_mat, bc.alpha1[:, j] * yv0 + bc.alpha2[:, j] * yp0)
        dj = tau.wronskians[j]
        # slots of other edges see only the z-profile of edge j; the two
        # slots of edge j itself mix in the partner y_tau
        mixed = (zx * cof[j] - det_c * yx) / (det_c * dj)
        u_formula = weights_d[j] * zl[j] * mixed + weights_n[j] * zpl[j] * mixed
        u_formula += weights_d[n + j] * zx * (z0[j] * cof[j] - det_c * yv0) / (det_c * dj)
        u_formula += weights_n[n + j] * (-zx) * (zp0[j] * cof[j] - det_c * yp0) / (det_c * dj)
        for k in range(n):
            if k == j:
                continue
            common = zx / dj * cof[k] / det_c
            u_formula += weights_d[k] * common * zl[k]
            u_formula += weights_n[k] * common * zpl[k]
            u_formula += weights_d[n + k] * common * z0[k]
            u_formula += weights_n[n + k] * (-common * zp0[k])
        grids.append(xs)
        direct_vals.append(du)
        formula_vals.append(u_formula)
        ends.append((du[-1], dup[-1], du[0], dup[0]))
        sup = max(sup, float(np.abs(du - u_formula).max()))

    bd = BoundaryData(*np.array(ends).T)
    tres = float(np.abs(gamma_trace(bc, bd) - rhs).max())
    return UGammaPaths(lam=lam, index=i, grids=tuple(grids),
                       direct=tuple(direct_vals), formula=tuple(formula_vals),
                       sup_discrepancy=sup, trace_residual=tres,
                       coefficients=d)
