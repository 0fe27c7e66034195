"""Independent reference spectrum: lumped P1 finite elements on a star.

The operator is -u'' + V u on wires [0, l_i] that meet at one origin
vertex.  The vertex is either a shared node (continuity, with flux balance
sum u_i'(0) = 0 as the natural condition of the weak form; for a single
wire this is a Neumann end) or a Dirichlet node.  Each far end is Dirichlet
(node removed) or Neumann (natural).  The mass matrix is lumped, and the
potential term of every node is the exact integral of V over its dual cell,
so K - lam M is a tree-structured symmetric matrix with no fill-in when the
wires are eliminated from their far ends towards the vertex.

This module shares no code with the package it checks: it reads only the
benchmark's own description of each problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import eigsh, spsolve

KIRCHHOFF = "K"   # shared origin node, flux balance
DIRICHLET = "D"
NEUMANN = "N"

MAX_CHUNK = 12    # eigenvalues per shift-invert solve


@dataclass(frozen=True)
class Potential:
    """Piecewise constant ("pieces": (start, end, value) rows) or piecewise
    linear through samples ("samples": xs, vs), on [0, length] of a wire."""

    kind: str
    data: tuple

    def antiderivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "pieces":
            out = np.zeros_like(x)
            for a, b, v in self.data:
                out += v * np.clip(x - a, 0.0, b - a)
            return out
        xs, vs = (np.asarray(t, dtype=float) for t in self.data)
        dx = np.diff(xs)
        slope = np.diff(vs) / dx
        at_nodes = np.concatenate([[0.0], np.cumsum(0.5 * dx * (vs[:-1] + vs[1:]))])
        k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        t = x - xs[k]
        return at_nodes[k] + t * vs[k] + 0.5 * t * t * slope[k]


@dataclass(frozen=True)
class Wire:
    """A wire of a star: [offset, offset + length] of the source potential,
    local coordinate 0 at the origin vertex, `cells` mesh cells on the fine
    mesh (even, so the coarse mesh halves it exactly), `end` condition."""

    length: float
    potential: Potential
    cells: int
    end: str
    offset: float = 0.0


@dataclass(frozen=True)
class Problem:
    wires: tuple
    vertex: str   # KIRCHHOFF or DIRICHLET


def _wire_arrays(wire, coarse):
    """Per-node diagonal of K + V, lumped mass, and off-diagonal 1/h,
    nodes 0..N of the wire (node 0 is the origin)."""
    n = wire.cells // 2 if coarse else wire.cells
    h = wire.length / n
    x = np.arange(n + 1) * h
    lo = np.maximum(x - 0.5 * h, 0.0)
    hi = np.minimum(x + 0.5 * h, wire.length)
    vint = (wire.potential.antiderivative(wire.offset + hi)
            - wire.potential.antiderivative(wire.offset + lo))
    mass = hi - lo
    stiff = np.full(n + 1, 2.0 / h)
    stiff[0] = stiff[-1] = 1.0 / h
    return stiff + vint, mass, 1.0 / h


def _chains(problem, coarse):
    """Wire chains from the far end inwards (origin node excluded), padded
    in front to a common length; plus the origin node's entries."""
    diag_rows, mass_rows, inv_h = [], [], []
    v_diag = v_mass = 0.0
    for w in problem.wires:
        d, m, ih = _wire_arrays(w, coarse)
        if w.end == DIRICHLET:
            d, m = d[:-1], m[:-1]
        diag_rows.append(d[1:][::-1])
        mass_rows.append(m[1:][::-1])
        inv_h.append(ih)
        v_diag += d[0]
        v_mass += m[0]
    width = max(r.size for r in diag_rows)
    a = np.full((len(diag_rows), width), np.inf)
    mm = np.zeros((len(diag_rows), width))
    for i, (d, m) in enumerate(zip(diag_rows, mass_rows)):
        a[i, width - d.size:] = d
        mm[i, width - m.size:] = m
    return a, mm, np.array(inv_h), v_diag, v_mass


def count_below(problem, sigmas, coarse=False):
    """Number of eigenvalues below each sigma (Sylvester inertia of
    K - sigma M by tree elimination).  Padding entries hold +inf, which
    keeps the running pivot at +inf until a wire's chain begins."""
    sig = np.atleast_1d(np.asarray(sigmas, dtype=float))
    a, m, inv_h, v_diag, v_mass = _chains(problem, coarse)
    bb = (inv_h * inv_h)[:, None]
    d = np.full((a.shape[0], sig.size), np.inf)
    neg = np.zeros(sig.size, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(a.shape[1]):
            d = a[:, t, None] - sig * m[:, t, None] - bb / d
            d[d == 0.0] = -1e-300   # a zero pivot is a measure-zero tie
            neg += np.sum(d < 0.0, axis=0)
        if problem.vertex == KIRCHHOFF:
            dv = v_diag - sig * v_mass - np.sum(bb / d, axis=0)
            neg += dv < 0.0
    return neg


def _assemble(problem, coarse):
    """Sparse K + V and the lumped mass diagonal; unknowns are the kept
    nodes of every wire, then the shared origin node if kept."""
    rows, cols, vals, mass = [], [], [], []
    origin_links = []
    base = 0
    v_diag = v_mass = 0.0
    for w in problem.wires:
        d, m, ih = _wire_arrays(w, coarse)
        if w.end == DIRICHLET:
            d, m = d[:-1], m[:-1]
        inner = d[1:]
        k = inner.size
        idx = base + np.arange(k)
        rows += [idx, idx[:-1], idx[1:]]
        cols += [idx, idx[1:], idx[:-1]]
        vals += [inner, np.full(k - 1, -ih), np.full(k - 1, -ih)]
        mass.append(m[1:])
        origin_links.append((base, ih))
        v_diag += d[0]
        v_mass += m[0]
        base += k
    if problem.vertex == KIRCHHOFF:
        o = base
        rows.append(np.array([o]))
        cols.append(np.array([o]))
        vals.append(np.array([v_diag]))
        for first, ih in origin_links:
            rows += [np.array([o, first])]
            cols += [np.array([first, o])]
            vals += [np.array([-ih, -ih])]
        mass.append(np.array([v_mass]))
        base += 1
    k_mat = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                       shape=(base, base)).tocsc()
    return k_mat, np.concatenate(mass)


def _eigs_in(k_mat, mass, lo, hi, count):
    """The `count` eigenvalues in [lo, hi]: the ones nearest its centre."""
    if count == 0:
        return np.empty(0)
    s = diags(1.0 / np.sqrt(mass))
    a = (s @ k_mat @ s).tocsc()
    centre = 0.5 * (lo + hi)
    vals = eigsh(a, k=count, sigma=centre, which="LM", return_eigenvectors=False)
    vals = np.sort(vals[(vals >= lo) & (vals <= hi)])
    if vals.size != count:
        raise RuntimeError(f"shift-invert found {vals.size} of {count} eigenvalues "
                           f"in [{lo}, {hi}]")
    return vals


def eigenvalues(problem, lo, hi, coarse=False):
    """All eigenvalues in [lo, hi], cut into chunks of at most MAX_CHUNK by
    inertia counts, each chunk solved by shift-invert Lanczos."""
    edges = [lo, hi]
    counts = count_below(problem, edges, coarse)
    while True:
        per = np.diff(counts)
        big = np.nonzero(per > MAX_CHUNK)[0]
        if not big.size:
            break
        i = big[0]
        mid = 0.5 * (edges[i] + edges[i + 1])
        edges.insert(i + 1, mid)
        counts = np.insert(counts, i + 1, count_below(problem, [mid], coarse)[0])
    k_mat, mass = _assemble(problem, coarse)
    out = [_eigs_in(k_mat, mass, a, b, int(c))
           for a, b, c in zip(edges[:-1], edges[1:], np.diff(counts))]
    return np.concatenate(out) if out else np.empty(0)


@dataclass(frozen=True)
class Spectrum:
    """Fine-mesh eigenvalues with a two-mesh error estimate each."""

    values: np.ndarray
    errors: np.ndarray


def spectrum(problem, lo, hi, floor=1e-9):
    """Eigenvalues in [lo, hi] on the fine mesh, each paired with
    |lam_h - lam_2h| (at least floor * (1 + |lam|)).  A pad around the
    interval lets the coarse-mesh partner of an eigenvalue near an end
    shift across it."""
    fine = eigenvalues(problem, lo, hi)
    pad = 0.01 * (hi - lo) + 1e-3 * (1.0 + abs(hi))
    coarse = eigenvalues(problem, lo - pad, hi + pad, coarse=True)
    if fine.size:
        idx = np.clip(np.searchsorted(coarse, fine), 0, max(coarse.size - 1, 0))
        near = [min((abs(coarse[j] - f) for j in (i - 1, i) if 0 <= j < coarse.size),
                    default=np.inf) for f, i in zip(fine, idx)]
    else:
        near = []
    err = np.maximum(np.array(near, dtype=float), floor * (1.0 + np.abs(fine)))
    return Spectrum(values=fine, errors=err)


def solve_source(problem, lam, sources, coarse=False):
    """Nodal values of the FE solution of (H - lam) u = v, v constant on
    each wire (lumped load M v).  Returns one array per wire, nodes 0..N
    including the origin and a Dirichlet end (value 0)."""
    k_mat, mass = _assemble(problem, coarse)
    load = []
    v_origin = 0.0
    for w, v in zip(problem.wires, sources):
        _, m, _ = _wire_arrays(w, coarse)
        if w.end == DIRICHLET:
            m = m[:-1]
        load.append(v * m[1:])
        v_origin += v * m[0]
    if problem.vertex == KIRCHHOFF:
        load.append(np.array([v_origin]))
    rhs = np.concatenate(load)
    u = spsolve((k_mat - lam * diags(mass)).tocsc(), rhs)
    out, base = [], 0
    origin = u[-1] if problem.vertex == KIRCHHOFF else 0.0
    for w in problem.wires:
        n = w.cells // 2 if coarse else w.cells
        k = n if w.end != DIRICHLET else n - 1
        vals = np.concatenate([[origin], u[base:base + k],
                               [0.0] if w.end == DIRICHLET else []])
        out.append(vals)
        base += k
    return out
