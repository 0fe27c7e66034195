"""The λ-batched transfer kernel against the per-λ construction it replaced.

The reference below builds every frame the way the package did before the
kernel: one EdgeSolution per (edge, family member, λ), the Z diagonal read
at the origin, the Y blocks read at the outer ends, the gamma-trace solve
and component_at for the cut derivatives.  The batched results must agree
with it to 1e-12 of the largest reference value over each grid.
"""
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pc, rand_bc_cayley, rand_bc_real
from qgraph import (BoundaryConditions, EdgeSolution, EdgeSpec, FrameBundle,
                    SplitSpec, StarGraph, build_preset, evans, free_edge,
                    fundamental_frame, frame_matrix, particular_solution,
                    resolvent_apply, select_tau, split_graph, two_sided_value,
                    u_gamma)
from qgraph import resolvent
from qgraph.graphs import SAME_WIRE, SINGLE, TWO_WIRES
from test_cli import _sampled_star

TOL = 1e-12  # relative to the largest reference value over a grid


class RefBundle:
    """Per-λ frames from EdgeSolutions: the construction the kernel replaced."""

    def __init__(self, g, bc, lam):
        self.g, self.bc, self.n = g, bc, g.n
        real = complex(lam).imag == 0.0 and bc.is_real()
        cast = (lambda a: np.real(a)) if real else (lambda a: a)
        y0, yp0 = cast(-bc.alpha2.conj().T), cast(bc.alpha1.conj().T)
        z0, zp0 = cast(-np.conj(bc.beta2)), cast(np.conj(bc.beta1))
        self.ys = [[EdgeSolution(g.edges[j], lam, y0[j, i], yp0[j, i])
                    for i in range(self.n)] for j in range(self.n)]
        self.zs = [EdgeSolution(e, lam, z0[j], zp0[j], anchor=e.length)
                   for j, e in enumerate(g.edges)]
        zat = [z.at(0.0) for z in self.zs]
        self.Y, self.Yp = y0, yp0
        self.Z = np.diag([s.value for s in zat])
        self.Zp = np.diag([s.deriv for s in zat])
        ends = [[self.ys[j][i].at(g.edges[j].length) for i in range(self.n)]
                for j in range(self.n)]
        self.Yl = np.array([[s.value for s in row] for row in ends])
        self.Ylp = np.array([[s.deriv for s in row] for row in ends])

    def evans(self):
        return np.linalg.det(np.block([[self.Y, self.Z], [self.Yp, self.Zp]]))

    def solve_trace(self, rhs):
        n, bc = self.n, self.bc
        s = np.zeros((2 * n, 2 * n), dtype=complex)
        s[:n, :n] = bc.beta1[:, None] * self.Yl + bc.beta2[:, None] * self.Ylp
        s[n:, n:] = bc.alpha1 @ self.Z + bc.alpha2 @ self.Zp
        return np.linalg.solve(s, rhs)

    def component(self, d, j, xs):
        """(values, derivs) on edge j: the EdgeSolution members summed."""
        members = [self.ys[j][k] for k in range(self.n)] + [self.zs[j]]
        coef = [d[k] for k in range(self.n)] + [d[self.n + j]]
        return sum(c * np.array(m.on(xs)) for c, m in zip(coef, members))

    def component_at(self, d, j, x):
        up = d[self.n + j] * self.zs[j].at(x).deriv
        for k in range(self.n):
            up += d[k] * self.ys[j][k].at(x).deriv
        return up

    def cut_derivs(self, cut_edges):
        m = np.empty((len(cut_edges), len(cut_edges)), dtype=complex)
        for k, jk in enumerate(cut_edges):
            rhs = np.zeros(2 * self.n)
            rhs[jk] = 1.0
            d = self.solve_trace(rhs)
            for r, jr in enumerate(cut_edges):
                m[r, k] = self.component_at(d, jr, self.g.edges[jr].length)
        return m


class EdgeSolutionBundle(FrameBundle):
    """A FrameBundle whose families are sums of RefBundle's EdgeSolutions,
    one RefBundle per λ of the bundle; weights and results keep the
    bundle's λ axis, as FrameBundle.families does."""

    @cached_property
    def refs(self):
        return [RefBundle(self.graph, self.bc, lam) for lam in np.atleast_1d(self.lam)]

    def families(self, items):
        for j, xs, weights in items:
            per_lam = np.broadcast_to(weights, (len(self.refs),) + np.shape(weights)[-2:])
            fams = [(np.einsum("kcp,km->cmp", np.array([r.ys[j][k].on(xs) for k in range(self.n)]),
                               w), np.array(r.zs[j].on(xs))) for r, w in zip(self.refs, per_lam)]
            y, z = (np.array(f) for f in zip(*fams))
            yield (y[0], z[0]) if np.ndim(self.lam) == 0 else (y, z)


def ref_outer(problem, lam):
    g, bc = problem
    e = g.edges[0]
    s = EdgeSolution(e, lam, -np.conj(bc.beta2[0]), np.conj(bc.beta1[0]),
                     anchor=e.length).at(0.0)
    return -s.deriv / s.value


def ref_interval(edge, lam):
    d = edge.length
    phi0 = EdgeSolution(edge, lam, 0.0, 1.0, anchor=0.0)
    phid = EdgeSolution(edge, lam, 0.0, 1.0, anchor=d)
    u, w = phi0.at(d).value, phid.at(0.0).value
    return np.array([[phi0.at(d).deriv / u, phid.at(d).deriv / w],
                     [-phi0.at(0.0).deriv / u, -phid.at(0.0).deriv / w]])


def ref_two_sided(g, bc, spec, lam):
    parts = split_graph(g, bc, spec)
    if spec.mode == SINGLE:
        (j, _), = spec.cuts
        star = RefBundle(*parts["omega2:D"], lam).cut_derivs((j,))[0, 0]
        return ref_outer(parts["omega1:D"], lam) + star
    if spec.mode == SAME_WIRE:
        (j, _), _ = spec.cuts
        star = RefBundle(*parts["tilde2:D"], lam).cut_derivs((j,))[0, 0]
        m2 = np.diag([ref_outer(parts["omega1:D"], lam), star])
        return np.linalg.det(ref_interval(parts["tilde1:DD"][0].edges[0], lam) + m2)
    (j1, _), (j2, _) = spec.cuts
    m1 = np.diag([ref_outer(parts["omega1:D"], lam), ref_outer(parts["tilde1:D"], lam)])
    star = RefBundle(*parts["tilde2:DD"], lam).cut_derivs((j1, j2))
    return np.linalg.det(m1 + star)


def random_star(rng, n):
    edges = []
    for _ in range(n):
        length = rng.uniform(0.5, 2.0)
        cuts = np.sort(rng.uniform(0.1, 0.9, int(rng.integers(0, 3)))) * length
        nodes = [0.0, *cuts, length]
        edges.append(EdgeSpec(length, pc(*[(a, b, rng.uniform(-15.0, 15.0))
                                           for a, b in zip(nodes[:-1], nodes[1:])])))
    return StarGraph(tuple(edges))


def random_split(rng, g, mode):
    n = g.n
    if mode == SINGLE:
        j = int(rng.integers(n))
        return SplitSpec(((j, rng.uniform(0.2, 0.8) * g.edges[j].length),), SINGLE)
    if mode == SAME_WIRE:
        j = int(rng.integers(n))
        s2, s1 = np.sort(rng.uniform(0.15, 0.85, 2)) * g.edges[j].length
        return SplitSpec(((j, s1), (j, s2)), SAME_WIRE)
    j1, j2 = (int(j) for j in rng.choice(n, 2, replace=False))
    return SplitSpec(((j1, rng.uniform(0.2, 0.8) * g.edges[j1].length),
                      (j2, rng.uniform(0.2, 0.8) * g.edges[j2].length)), TWO_WIRES)


def random_lambdas(rng, complex_lam, size=9):
    lams = np.sort(rng.uniform(-5.0, 60.0, size))
    if complex_lam:
        return lams + 1j * rng.uniform(-3.0, 3.0, size)
    return lams


def assert_close(batched, ref):
    ref = np.asarray(ref)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(np.asarray(batched) - ref)) <= TOL * scale


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       complex_lam=st.booleans(), complex_bc=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_evans_and_bundle_blocks_match_reference(seed, n, complex_lam, complex_bc):
    rng = np.random.default_rng(seed)
    g = random_star(rng, n)
    bc = rand_bc_cayley(n, rng) if complex_bc else rand_bc_real(n, rng)
    lams = random_lambdas(rng, complex_lam)
    refs = [RefBundle(g, bc, lam) for lam in lams]
    assert_close(evans(g, bc, lams).value, [r.evans() for r in refs])
    bundles = [FrameBundle(g, bc, lam) for lam in lams]
    for block in ("Yl", "Ylp"):
        assert_close([getattr(b, block) for b in bundles], [getattr(r, block) for r in refs])
    assert_close([b.z for b in bundles], [np.diagonal(r.Z) for r in refs])
    assert_close([b.zp for b in bundles], [np.diagonal(r.Zp) for r in refs])
    # both families anywhere on each edge, ends included
    for b, r in zip(bundles[::4], refs[::4]):
        d = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        for j, e in enumerate(g.edges):
            xs = np.concatenate([[0.0, e.length], rng.uniform(0.0, e.length, 6)])
            assert_close(b.component(d, j, xs), r.component(d, j, xs))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       mode=st.sampled_from((SINGLE, SAME_WIRE, TWO_WIRES)),
       complex_lam=st.booleans(), complex_bc=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_two_sided_value_matches_reference(seed, n, mode, complex_lam, complex_bc):
    rng = np.random.default_rng(seed)
    g = random_star(rng, n)
    bc = rand_bc_cayley(n, rng) if complex_bc else rand_bc_real(n, rng, margin=0.15)
    spec = random_split(rng, g, mode)
    lams = random_lambdas(rng, complex_lam)
    with np.errstate(all="ignore"):
        batched = two_sided_value(g, bc, spec, lams)
        ref = [ref_two_sided(g, bc, spec, lam) for lam in lams]
    assert batched.shape == lams.shape
    assert_close(batched, ref)


def test_scalar_in_scalar_out():
    g = StarGraph((free_edge(1.0), free_edge(1.3)))
    bc = build_preset("kirchhoff", 2)
    spec = SplitSpec(((0, 0.4),), SINGLE)
    assert np.ndim(evans(g, bc, 20.0).value) == 0
    assert np.ndim(two_sided_value(g, bc, spec, 20.0)) == 0
    assert fundamental_frame(g, bc, 20.0).Z.shape == (2, 2)
    lams = np.linspace(1.0, 50.0, 7)
    frame = fundamental_frame(g, bc, lams)
    assert frame.Z.shape == (7, 2, 2)
    dets = np.linalg.det(frame_matrix(frame))
    assert np.abs(evans(g, bc, lams).value - dets).max() <= 1e-12 * np.abs(dets).max()
    assert [evans(g, bc, t).value for t in lams] == list(evans(g, bc, lams).value)


def test_long_grid_matches_pointwise():
    # grids longer than one chunk give the values each lambda gives alone
    g = StarGraph((EdgeSpec(1.0, pc((0.0, 0.5, -10.0), (0.5, 1.0, 0.0))), free_edge(0.8)))
    bc = build_preset("kirchhoff", 2)
    spec = SplitSpec(((0, 0.5), (1, 0.4)), TWO_WIRES)
    lams = np.linspace(1.0, 80.0, 201)
    with np.errstate(all="ignore"):
        batched = two_sided_value(g, bc, spec, lams)
        alone = [two_sided_value(g, bc, spec, t) for t in lams]
    assert np.array_equal(batched, alone)
    assert np.array_equal(evans(g, bc, lams).value, [evans(g, bc, t).value for t in lams])


def test_singular_star_map_blanks_one_entry():
    # Neumann conditions everywhere decouple the wires at the origin.  At
    # lambda = 0 the free wire's constant is a Neumann eigenfunction of the
    # residual star, whose trace block is then exactly singular.
    g = StarGraph((free_edge(1.0), free_edge(1.0)))
    bc = build_preset("neumann", 2)
    spec = SplitSpec(((0, 0.4),), SINGLE)
    lams = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        ref_two_sided(g, bc, spec, 0.0)
    with np.errstate(all="ignore"):
        vals = two_sided_value(g, bc, spec, lams)
    assert np.isnan(vals[2])
    keep = [0, 1, 3, 4]
    assert np.all(np.isfinite(vals[keep]))
    assert_close(vals[keep], [ref_two_sided(g, bc, spec, t) for t in lams[keep]])


def test_complex_bc_with_real_lambda_keeps_imaginary_parts(rng):
    g = random_star(rng, 3)
    bc = rand_bc_cayley(3, rng)
    lams = np.linspace(2.0, 30.0, 5)
    vals = evans(g, bc, lams).value
    assert np.iscomplexobj(vals)
    assert_close(vals, [RefBundle(g, bc, t).evans() for t in lams])


def test_real_lambda_with_zero_imaginary_part_stays_real():
    g = StarGraph((free_edge(1.0), free_edge(1.3)))
    bc = build_preset("kirchhoff", 2)
    lams = np.linspace(1.0, 50.0, 5)
    assert evans(g, bc, lams + 0j).value.dtype.kind == "f"
    assert np.array_equal(evans(g, bc, lams + 0j).value, evans(g, bc, lams).value)


def test_boundary_conditions_mismatch_rejected():
    g = StarGraph((free_edge(1.0),))
    with pytest.raises(ValueError):
        evans(g, BoundaryConditions(np.eye(2), np.zeros((2, 2)), [1, 1], [0, 0]),
              np.array([1.0, 2.0]))


@pytest.mark.parametrize("lam", [7.3, 13.1 + 2.0j])
def test_resolvent_on_sampled_wire_matches_edge_solutions(lam, monkeypatch):
    sc = _sampled_star()
    g, bc = sc.graph, sc.bc
    v = [1.0, lambda x: np.sin(np.pi * x)]
    xs = np.linspace(0.0, 1.0, 33)

    def run():
        b = resolvent.FrameBundle(g, bc, lam)
        tau = select_tau(b)
        app = resolvent_apply(g, bc, lam, v)
        ugs = [u_gamma(g, bc, lam, i) for i in (1, 2)]  # sampled wire's slot, an origin slot
        return ([particular_solution(b, tau, v[j], j, xs) for j in range(g.n)],
                app, ugs)

    parts, app, ugs = run()
    monkeypatch.setattr(resolvent, "FrameBundle", EdgeSolutionBundle)
    ref_parts, ref_app, ref_ugs = run()
    assert_close(parts, ref_parts)
    for field in ("output", "output_deriv", "y_p", "y_p_deriv"):
        assert_close(getattr(app, field), getattr(ref_app, field))
    for ug, ref in zip(ugs, ref_ugs):
        assert_close(ug.direct, ref.direct)
        assert_close(ug.formula, ref.formula)
