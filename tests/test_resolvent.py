"""Resolvent application, boundary projections, and the trace-formula
cross-checks, pinned on problems with known closed-form outputs."""
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import (barrier_end, barrier_interior, pc, rand_bc_cayley, rand_bc_real,
                      rand_graph, two_wire, wide_star)
from qgraph import (BoundaryConditions, BoundaryData, EdgeSpec, FrameBundle,
                    NoIndependentPartner, OnSpectrum, QuadratureFailure,
                    Sampled, SingularDeltaCombination, StarGraph, adjustment_vectors,
                    build_preset, build_projections, evans, free_edge,
                    inner_product_check, map_M2, particular_solution,
                    projection_equations, resolvent_apply, segment_residual,
                    select_tau, split_graph, u_gamma)
from qgraph import resolvent
from qgraph.graphs import SINGLE, SplitSpec
from test_cli import _sampled_star
from test_kernel import random_star


def _trace_data(app):
    n = len(app.output)
    return BoundaryData([app.output[j][-1] for j in range(n)],
                        [app.output_deriv[j][-1] for j in range(n)],
                        [app.output[j][0] for j in range(n)],
                        [app.output_deriv[j][0] for j in range(n)])


def robin_problem():
    g = StarGraph((free_edge(1.0),
                   EdgeSpec(1.0, pc((0.0, 0.5, 3.0), (0.5, 1.0, 0.0)))))
    bc = build_preset("robin", 2, theta=1.7)
    return g, bc, [1.0, lambda x: x * (1 - x)]


def test_interval_constant_source_closed_form():
    # -u'' - u = 1 on [0,1], u(0)=u(1)=0: 1 - cosh(x-1/2)/cosh(1/2), lam=-1
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    app = resolvent_apply(g, bc, -1.0, [1.0])
    xs = app.grids[0]
    exact = 1.0 - np.cosh(xs - 0.5) / np.cosh(0.5)
    assert np.abs(app.output[0] - exact).max() < 1e-12
    assert app.gamma_residual < 1e-12


def test_interval_sine_source_closed_form():
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    app = resolvent_apply(g, bc, 0.0, [lambda x: np.sin(np.pi * x)])
    exact = np.sin(np.pi * app.grids[0]) / np.pi ** 2
    assert np.abs(app.output[0] - exact).max() < 1e-12


def test_particular_solution_solves_the_ode():
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    b = FrameBundle(g, bc, 0.0)
    sel = select_tau(b)
    xs = np.linspace(0.0, 1.0, 401)
    yp = particular_solution(b, sel, lambda x: np.sin(np.pi * x), 0, xs)
    # second difference recovers -v (lam=0, V=0)
    h = xs[1] - xs[0]
    dd = (yp[2:] - 2 * yp[1:-1] + yp[:-2]) / h ** 2
    assert np.abs(-dd - np.sin(np.pi * xs[1:-1])).max() < 1e-5


def test_barrier_end_residuals_real_and_complex():
    g, bc, _ = barrier_end()
    v = [1.0, 0.0]
    for lam in (7.0, 7.0 + 3.0j):
        app = resolvent_apply(g, bc, lam, v)
        assert app.gamma_residual < 1e-12
        assert segment_residual(g, lam, app, v) < 1e-10
        if np.isreal(lam):
            assert np.abs(np.imag(app.output[0])).max() < 1e-12


def test_smooth_source_segment_residual():
    g, bc, v = robin_problem()
    app = resolvent_apply(g, bc, 5.3, v)
    assert app.gamma_residual < 1e-12
    assert segment_residual(g, 5.3, app, v) < 1e-12


def test_on_spectrum_raises():
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    with pytest.raises((OnSpectrum, NoIndependentPartner)):
        resolvent_apply(g, bc, np.pi ** 2, [1.0])


@pytest.mark.parametrize("rel", [1e-12, -1e-12])
def test_on_spectrum_does_not_depend_on_the_scale_of_c(rel):
    # det C is ~1e-14 everywhere on the 16-wire star, and cond(C) is not:
    # 1e-12 (relative) from an eigenvalue is on the spectrum at n = 2 and 16
    g, bc, _ = wide_star(16, 1)
    eig = brentq(lambda t: evans(g, bc, t).value, 4.0, 4.4, xtol=1e-15, rtol=1e-15)
    for g, bc, eig in (two_wire()[:2] + (4.247691628724768,), (g, bc, eig)):
        with pytest.raises(OnSpectrum):
            resolvent_apply(g, bc, eig * (1 + rel), np.ones(g.n))


@pytest.mark.parametrize("eig", [4.247691628724768, 18.37233741736003, 34.940992929497476])
def test_ill_conditioned_coefficient_solve_raises(eig):
    # two_wire eigenvalues: 1e-8 away the coefficient system has lost too
    # many digits to trust, which is the on-spectrum test
    g, bc, _ = two_wire()
    with pytest.raises(ArithmeticError, match="too close to the spectrum") as e:
        resolvent_apply(g, bc, eig + 1e-8, [1.0, 0.5])
    assert isinstance(e.value, OnSpectrum)
    assert resolvent_apply(g, bc, eig + 1e-3, [1.0, 0.5]).gamma_residual < 1e-10


@pytest.mark.parametrize("eig", [4.247691628724768, 18.37233741736003, 34.940992929497476])
def test_u_gamma_refuses_what_the_resolvent_refuses(eig):
    # one on-spectrum rule: u_gamma solves against the same C, and 1e-8 from
    # a two_wire eigenvalue its paths disagreed by 1 to 8
    g, bc, _ = two_wire()
    for i in range(2 * g.n):
        with pytest.raises(OnSpectrum, match="too close to the spectrum"):
            u_gamma(g, bc, eig + 1e-8, i)


def test_resolvent_paths_build_no_frame(monkeypatch):
    # the resolvent, ugamma and projections tables and the inner-product
    # check read the bundle's secular data: no 2n x 2n frame is built
    from qgraph import cli
    evans_module = sys.modules["qgraph.evans"]  # qgraph.evans is also the function

    def refuse(*args):
        raise AssertionError("a 2n x 2n frame was built")
    monkeypatch.setattr(evans_module, "frame_matrix", refuse)
    monkeypatch.setattr(evans_module, "_frame", refuse)
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    for which in ("resolvent", "ugamma", "projections"):
        assert cli.verify_table(sc, which, seed=1, rounds=2)[1]
    g, bc, _ = barrier_end()
    assert inner_product_check(g, bc, 7.0, np.array([1.0, 0, 0, 0]), [1.0, 0.0]) < 1e-10


def test_select_tau_at_eigenvalue():
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    sel = select_tau(FrameBundle(g, bc, 10.0))
    assert sel.tau == (0,) and abs(sel.wronskians[0]) > 0
    with pytest.raises(NoIndependentPartner):
        select_tau(FrameBundle(g, bc, np.pi ** 2))


def test_quadrature_rejects_nonfinite_source():
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    with pytest.raises(QuadratureFailure):
        resolvent_apply(g, bc, -1.0, [lambda x: np.where(x > 0.5, np.nan, 1.0)])


def test_sampled_wire_quadrature_converges(monkeypatch):
    # no grid panel crosses a linear segment's end, so every panel is
    # smooth and 24 times the nodes moves the output by rounding only
    sc = _sampled_star()
    v = [1.0, lambda x: np.sin(np.pi * x)]
    lams = (7.3, 13.1 + 2.0j, 41.7)
    coarse = [resolvent_apply(sc.graph, sc.bc, lam, v).output for lam in lams]
    monkeypatch.setattr(resolvent, "GL_NODES", 96)
    for lam, out in zip(lams, coarse):
        fine = resolvent_apply(sc.graph, sc.bc, lam, v).output
        scale = max(np.abs(u).max() for u in fine)
        assert max(np.abs(a - b).max() for a, b in zip(out, fine)) <= 1e-13 * scale


def test_ode_defect_sees_a_resolvent_quadrature_error(monkeypatch):
    # the check integrates with its own rule; were it the resolvent's on the
    # same intervals, its sums would equal the resolvent's and agree at any
    # node count
    g, bc, _ = barrier_end()
    v = [1.0, lambda x: np.sin(np.pi * x)]
    lams = (7.3, 41.7, 13.1 + 2.0j)
    for lam in lams:
        app = resolvent_apply(g, bc, lam, v)
        assert segment_residual(g, lam, app, v) < 1e-13
    monkeypatch.setattr(resolvent, "GL_NODES", 1)
    for lam in lams:
        app = resolvent_apply(g, bc, lam, v)
        assert segment_residual(g, lam, app, v) > 1e-10


def test_particular_solution_does_not_depend_on_the_x_set():
    # a few scattered x get the quadrature of the whole output grid
    g, bc, _ = barrier_end()
    xs = np.array([0.25, 0.5, 0.875])
    grid = np.linspace(0.0, 1.0, resolvent.GRID_POINTS)
    at = np.searchsorted(grid, xs)
    assert np.array_equal(grid[at], xs)
    for lam in (7.3, 41.7, 400.3):
        b = FrameBundle(g, bc, lam)
        sel = select_tau(b)
        dense = particular_solution(b, sel, lambda x: np.sin(np.pi * x), 0, grid)
        few = particular_solution(b, sel, lambda x: np.sin(np.pi * x), 0, xs)
        assert np.abs(few - dense[at]).max() <= 1e-14 * np.abs(dense).max()


def test_resolvent_evaluates_each_leg_on_grid_panels_only(monkeypatch):
    # the families only at the panel ends (output grid, breakpoints, any x);
    # four nodes a panel were 2048 more positions a leg, now reached from
    # each panel's start by one transfer row a node, which equal panels share
    evans = sys.modules["qgraph.evans"]  # qgraph.evans is also the function
    g, bc, _ = barrier_end()
    legs, rows = [], []

    class Recorded(evans.LegPlan):  # the legs of every plan the bundle makes
        def __init__(self, legs_):
            legs.extend(legs_)
            super().__init__(legs_)

    def counted(d, lam, v0, slope=0.0):
        rows.append(np.broadcast(d, v0, slope).size)
        return transfer(d, lam, v0, slope)

    transfer = resolvent.segment_transfer
    monkeypatch.setattr(evans, "LegPlan", Recorded)
    monkeypatch.setattr(resolvent, "segment_transfer", counted)
    v = [1.0, lambda x: np.sin(np.pi * x)]
    resolvent_apply(g, bc, 7.3, v)
    xs = np.array([0.3, 0.6, 0.9])  # off the grid: three more panel ends
    bundle = FrameBundle(g, bc, 7.3)
    for j in range(g.n):
        particular_solution(bundle, select_tau(bundle), v[j], j, xs)
    legs = [leg for leg in legs if np.ndim(leg[2])]  # those families plans
    assert len(legs) == 4 * g.n
    for k, (edge, _, x) in enumerate(legs):
        extra = 0 if k < 2 * g.n else xs.size
        assert np.size(x) <= resolvent.GRID_POINTS + len(edge.potential.segments) + extra
    assert max(np.size(x) for _, _, x in legs) > resolvent.GRID_POINTS
    # one call for every wire, then one a wire; at most one row a node for
    # each (panel width, segment) of the wire

    def budget(edge, xs):
        ends = np.unique(np.r_[resolvent._edge_breakpoints(edge),
                               np.linspace(0.0, edge.length, resolvent.GRID_POINTS), xs])
        widths = np.unique(np.diff(ends)).size
        return widths * len(edge.potential.segments) * resolvent.GL_NODES

    assert len(rows) == 1 + g.n
    assert rows[0] <= sum(budget(e, []) for e in g.edges) == 7 * resolvent.GL_NODES
    assert all(r <= budget(e, xs) for r, e in zip(rows[1:], g.edges))


def _wire(rng, kind):
    """A flat (piecewise-constant), sloped (one linear segment) or sampled
    wire, the last with a flat stretch between its first two samples."""
    length = rng.uniform(0.5, 2.0)
    if kind == "flat":
        nodes = [0.0, *np.sort(rng.uniform(0.1, 0.9, int(rng.integers(0, 3)))) * length, length]
        return EdgeSpec(length, pc(*[(a, b, rng.uniform(-15.0, 15.0))
                                     for a, b in zip(nodes[:-1], nodes[1:])]))
    xs = np.linspace(0.0, length, 2 if kind == "sloped" else int(rng.integers(3, 10)))
    vs = rng.uniform(-15.0, 15.0, xs.size)
    if kind == "sampled":
        vs[1] = vs[0]
    return EdgeSpec(length, Sampled(tuple(xs), tuple(vs)))


def _source(rng, kind, length):
    if kind == "scalar":
        return rng.uniform(-2.0, 2.0)
    if kind == "array":
        return rng.uniform(-2.0, 2.0, int(rng.integers(2, 9)))
    if kind == "sampled":
        xs = np.sort(rng.uniform(0.0, length, 4))
        return Sampled(tuple(xs), tuple(rng.uniform(-2.0, 2.0, 4)))
    k = rng.uniform(0.5, 6.0)
    return lambda x: np.cos(k * x) + 0.5 * x


def _at_every_node(bundle, j, v_j, xs, weights):
    """The parent construction of the quadrature: the families at xs and at
    every Gauss-Legendre node of every grid panel, and the weights w v at
    the nodes, (P, nodes), with each x's index among the panel ends."""
    edge = bundle.graph.edges[j]
    ends = np.unique(np.r_[resolvent._edge_breakpoints(edge),
                           np.linspace(0.0, edge.length, resolvent.GRID_POINTS), xs])
    h = np.diff(ends)
    x, w = resolvent._gauss_legendre(resolvent.GL_NODES)
    nodes = ends[:-1, None] + np.multiply.outer(h, 0.5 * (x + 1.0))
    [(y, z)] = bundle.families([(j, np.concatenate([xs, nodes.ravel()]), weights)])
    vv = resolvent._v_evaluator(v_j, edge.length)(nodes.ravel()).reshape(nodes.shape)
    return y, z, vv * np.multiply.outer(0.5 * h, w), np.searchsorted(ends, xs)


def _reference_particular(bundle, tau, ds, items):
    """_particular from the families at every node: each panel's sum of
    w v f over its nodes, and their running sum."""
    out = []
    for j, v_j, xs in items:
        y, z, wv, at = _at_every_node(bundle, j, v_j, xs, np.eye(bundle.n)[tau[..., j], :, None])
        p = xs.size

        def running(f):
            panel = (f.reshape(f.shape[:-1] + wv.shape) * wv).sum(axis=-1)
            return np.concatenate([np.zeros(panel.shape[:-1] + (1,)), np.cumsum(panel, axis=-1)],
                                  axis=-1)

        iy, iz = running(y[..., 0, 0, p:]), running(z[..., 0, p:])
        d = ds[..., j]
        out.append((-(y[..., 0, :p] * (iz[..., -1:] - iz[..., at])[..., None, :]
                      + z[..., :p] * iy[..., None, at]) / d[..., None, None],
                     z[..., :p], iz[..., -1] / d))
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       wires=st.lists(st.sampled_from(["flat", "sloped", "sampled"]), min_size=4, max_size=4),
       sources=st.lists(st.sampled_from(["scalar", "array", "sampled", "callable"]),
                        min_size=4, max_size=4),
       complex_lam=st.booleans(), complex_bc=st.booleans(), nodes=st.sampled_from([1, 4, 96]),
       size=st.integers(1, 2))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_panel_end_quadrature_is_the_node_quadrature(seed, n, wires, sources, complex_lam,
                                                     complex_bc, nodes, size):
    # each node's (u, u') is the first transfer row from its panel's start
    # applied to the families there, so the sums equal, to rounding, those
    # of the families evaluated at every node
    rng = np.random.default_rng(seed)
    g = StarGraph(tuple(_wire(rng, kind) for kind in wires[:n]))
    bc = rand_bc_cayley(n, rng) if complex_bc else rand_bc_real(n, rng)
    lams = rng.uniform(-5.0, 60.0, size) + (1j * rng.uniform(-3.0, 3.0, size) if complex_lam else 0)
    v = [_source(rng, kind, e.length) for kind, e in zip(sources, g.edges)]
    items = [(j, v[j], np.linspace(0.0, e.length, resolvent.GRID_POINTS) if j % 2
              else np.sort(rng.uniform(0.0, e.length, 5))) for j, e in enumerate(g.edges)]
    f = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    with pytest.MonkeyPatch.context() as m:
        m.setattr(resolvent, "GL_NODES", nodes)
        bundle = FrameBundle(g, bc, lams)
        try:
            tau, ds = resolvent._taus(bundle)
        except NoIndependentPartner:
            assume(False)
        got = resolvent._particular(bundle, tau, ds, items)
        for parts, want in zip(got, _reference_particular(bundle, tau, ds, items)):
            assert all(close(a, b) for a, b in zip(parts, want))
        one = FrameBundle(g, bc, lams[:1])
        d = one.solve_trace(f)
        direct = 0.0
        for j in range(n):
            y, z, wv, _ = _at_every_node(one, j, v[j], np.empty(0), d[..., :n, None])
            u = y[..., 0, 0, :] + d[..., n + j, None] * z[..., 0, :]
            direct += np.sum(wv.ravel().conj() * u)
        assert close(resolvent._l2_inner(one, d, v), direct)


@pytest.mark.parametrize("case", ["barrier_end", "barrier_interior", "two_wire", "sampled"])
def test_resolvent_holds_at_large_lambda(case):
    if case == "sampled":
        sc = _sampled_star(depth=120.0, samples=5)
        g, bc = sc.graph, sc.bc
    else:
        g, bc, _ = {"barrier_end": barrier_end, "barrier_interior": barrier_interior,
                    "two_wire": two_wire}[case]()
    v = [1.0, lambda x: np.sin(np.pi * x)]
    app = resolvent_apply(g, bc, 2000.7, v)
    assert app.gamma_residual <= 1e-12
    assert segment_residual(g, 2000.7, app, v) <= 1e-11


def test_kirchhoff_projection_ranks():
    _, bc, _ = barrier_end()
    ps = build_projections(bc)
    ranks = [int(round(np.trace(m).real)) for m in (ps.P_D, ps.P_N, ps.P_R)]
    assert ranks == [3, 1, 0]
    eye = np.eye(4)
    assert np.abs(ps.U @ ps.U.conj().T - eye).max() < 1e-12
    assert np.abs((ps.U + eye) @ ps.P_D).max() < 1e-12
    assert np.abs((ps.U - eye) @ ps.P_N).max() < 1e-12
    assert np.abs(ps.P_D + ps.P_N + ps.P_R - eye).max() < 1e-12


def test_preset_projections_are_extremal():
    assert np.abs(build_projections(build_preset("dirichlet", 2)).P_D
                  - np.eye(4)).max() < 1e-12
    assert np.abs(build_projections(build_preset("neumann", 2)).P_N
                  - np.eye(4)).max() < 1e-12


def test_robin_projections():
    ps = build_projections(build_preset("robin", 2, theta=1.7))
    assert ps.rank_R == 4
    assert np.abs(ps.Lambda - ps.Lambda.conj().T).max() < 1e-12
    lf = ps.lambda_full()
    assert np.abs(lf - lf.conj().T).max() < 1e-12
    # idempotents and mutual orthogonality
    for p in (ps.P_D, ps.P_N, ps.P_R):
        assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(ps.P_R @ ps.P_D).max() < 1e-12


def test_random_projections_resolve_identity(rng):
    for n in (2, 3):
        for _ in range(5):
            ps = build_projections(rand_bc_real(n, rng))
            eye = np.eye(2 * n)
            assert np.abs(ps.P_D + ps.P_N + ps.P_R - eye).max() < 1e-10
            assert np.abs(ps.U @ ps.U.conj().T - eye).max() < 1e-10


def test_projection_equations_on_resolvent_output():
    g, bc, _ = barrier_end()
    app = resolvent_apply(g, bc, 7.0, [1.0, 0.0])
    rs = projection_equations(build_projections(bc), _trace_data(app))
    assert max(rs) < 1e-10
    g2, bc2, v2 = robin_problem()
    app2 = resolvent_apply(g2, bc2, 5.3, v2)
    rs2 = projection_equations(build_projections(bc2), _trace_data(app2))
    assert max(rs2) < 1e-10


def test_projection_equations_flag_outsiders():
    _, bc, _ = barrier_end()
    ps = build_projections(bc)
    bad = BoundaryData([1.0, 2.0], [0.3, 0.4], [5.0, -1.0], [0.0, 2.2])
    assert max(projection_equations(ps, bad)) > 1e-3


def test_adjustment_vector_shapes():
    g2, bc2, _ = robin_problem()
    ps = build_projections(bc2)
    av = adjustment_vectors(ps)
    assert av.L.shape == av.M.shape == av.N.shape == (4, 4)
    kir = build_projections(barrier_end()[1])
    assert np.abs(adjustment_vectors(kir).M).max() == 0.0  # no Robin block


def test_singular_delta_combination():
    # alpha1 = alpha2 = same singular rank pattern cannot happen for valid
    # data, so force it through a hand-built (invalid) projection call
    bad = BoundaryConditions.__new__(BoundaryConditions)
    object.__setattr__(bad, "alpha1", np.zeros((2, 2)))
    object.__setattr__(bad, "alpha2", np.zeros((2, 2)))
    object.__setattr__(bad, "beta1", np.zeros(2))
    object.__setattr__(bad, "beta2", np.zeros(2))
    with pytest.raises(SingularDeltaCombination):
        build_projections(bad)


def test_inner_product_identity():
    g, bc, _ = barrier_end()
    v = [1.0, 0.0]
    for i in range(4):
        f = np.zeros(4)
        f[i] = 1.0
        assert inner_product_check(g, bc, 7.0, f, v) < 1e-10
    assert inner_product_check(g, bc, 7.0 + 3.0j, np.array([1.0, 0, 0, 0]), v) < 1e-10
    g2, bc2, v2 = robin_problem()
    assert inner_product_check(g2, bc2, 5.3,
                               np.array([0.3, -1.2, 0.7, 2.0]), v2) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), complex_bc=st.booleans(),
       complex_source=st.booleans(), complex_lam=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_inner_product_identity_on_complex_data(seed, n, complex_bc, complex_source,
                                                complex_lam):
    # (u_Gamma, v) is the integral of u_Gamma conj(v), which pairs with the
    # conjugated traces of R(conj lambda) v: the traces of R(lambda) v agree
    # with them only for real data, a real source and real lambda
    rng = np.random.default_rng(seed)
    g = random_star(rng, n)
    bc = rand_bc_cayley(n, rng) if complex_bc else rand_bc_real(n, rng)
    lam = rng.uniform(-5.0, 60.0) + (1j * rng.uniform(0.5, 3.0) if complex_lam else 0.0)
    f = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    amp = rng.uniform(-2.0, 2.0, n) + (1j * rng.uniform(-2.0, 2.0, n) if complex_source else 0.0)
    v = [lambda x, a=a: a * np.sin(3.0 * x + 1.0) for a in amp]
    try:
        assert inner_product_check(g, bc, lam, f, v) < 1e-10
    except (OnSpectrum, NoIndependentPartner):
        assume(False)


def test_inner_product_check_is_scale_free(monkeypatch):
    # a 1% error in the pairing shows whatever the size of the source; a
    # discrepancy measured against 1 + |direct| read 1e-14 for this one
    g, bc, _ = barrier_end()
    v, f = [1e-12, 0.0], np.array([1.0, 0.0, 0.0, 0.0])
    assert inner_product_check(g, bc, 7.0, f, v) < 1e-10
    real = resolvent.adjustment_vectors

    def off_by_one_percent(ps):
        av = real(ps)
        return resolvent.AdjustmentVectors(L=1.01 * av.L, M=1.01 * av.M, N=1.01 * av.N)

    monkeypatch.setattr(resolvent, "adjustment_vectors", off_by_one_percent)
    assert inner_product_check(g, bc, 7.0, f, v) > 1e-10


def test_u_gamma_dual_paths():
    g, bc, _ = barrier_end()
    for i in range(4):
        ug = u_gamma(g, bc, 7.0, i)
        assert ug.sup_discrepancy < 1e-10
        assert ug.trace_residual < 1e-10
    g2, bc2, _ = robin_problem()
    assert u_gamma(g2, bc2, 5.3, 2).sup_discrepancy < 1e-10
    assert u_gamma(g, bc, 7.0 + 3.0j, 1).sup_discrepancy < 1e-10


def test_u_gamma_dual_paths_on_complex_vertex_data():
    # criterion 9's draw with Cayley (complex) vertex data, at real and
    # complex lambda: the formula path reads the kernel G_lambda(x, .) =
    # conj G_conj-lambda(., x), which is G_lambda(., x) only for real data
    rng = np.random.default_rng(9)
    worst, checked = 0.0, 0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        g, bc = rand_graph(n, rng), rand_bc_cayley(n, rng)
        for lam in (rng.uniform(3.0, 40.0), rng.uniform(3.0, 40.0) + 1j * rng.uniform(-3.0, 3.0)):
            try:
                paths = resolvent._u_gamma(FrameBundle(g, bc, np.array([lam])), range(2 * n),
                                           [lam])[0]
            except (OnSpectrum, NoIndependentPartner):
                continue
            for p in paths:
                checked += 1
                worst = max(worst, p.sup_discrepancy / max(1.0, *(np.abs(u).max()
                                                                   for u in p.direct)))
    assert checked >= 60 and worst <= 1e-8, (checked, worst)


def test_cut_derivative_reproduces_star_map():
    g, bc, _ = barrier_end()
    parts = split_graph(g, bc, SplitSpec(((0, 1 / 3),), SINGLE))
    star = parts["omega2:D"]
    lam = 20.0
    m2 = map_M2(star, lam, cut_edge=0).value
    b = FrameBundle(*star, lam)
    rhs = np.zeros(2 * b.n)
    rhs[0] = 1.0
    d = b.solve_trace(rhs)
    _, up = b.component_at(d, 0, star[0].edges[0].length)
    assert abs(up - m2) < 1e-11
    assert u_gamma(*star, lam, 0).sup_discrepancy < 1e-10


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), complex_bc=st.booleans(),
       complex_lam=st.booleans(), sampled=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_all_slots_match_per_slot(seed, n, complex_bc, complex_lam, sampled):
    # one bundle serves every slot; each slot's paths equal its own call
    rng = np.random.default_rng(seed)
    if sampled:
        g, n = _sampled_star().graph, 2
    else:
        g = random_star(rng, n)
    bc = rand_bc_cayley(n, rng) if complex_bc else rand_bc_real(n, rng)
    lam = rng.uniform(-5.0, 60.0) + (1j * rng.uniform(-3.0, 3.0) if complex_lam else 0.0)
    try:
        every = resolvent._u_gamma(FrameBundle(g, bc, np.array([lam])), range(2 * n), [lam])[0]
    except (OnSpectrum, NoIndependentPartner):
        assume(False)

    def close(a, b):
        return np.max(np.abs(np.asarray(a) - b)) <= 1e-12 * np.max(np.abs(b))

    assert len(every) == 2 * n
    for i, ug in enumerate(every):
        one = u_gamma(g, bc, lam, i)
        assert ug.index == i and ug.lam == lam
        assert close(ug.coefficients, one.coefficients)
        assert close(ug.direct, one.direct) and close(ug.formula, one.formula)
        scale = np.max(np.abs(one.direct))
        assert abs(ug.sup_discrepancy - one.sup_discrepancy) <= 1e-12 * scale
        assert abs(ug.trace_residual - one.trace_residual) <= 1e-12 * scale


def test_one_lambda_per_bundle():
    # a one-lambda function refuses an array of lambda, not cutting it to its
    # first entry; a bundle of an array is, bit for bit, the one-lambda
    # bundles of its entries stacked, and the readers of one lambda refuse it
    g, bc, _ = barrier_end()
    with pytest.raises(ValueError, match="one lambda"):
        resolvent_apply(g, bc, np.array([17.3, 30.1]), [1.0, 1.0])
    with pytest.raises(ValueError, match="one lambda"):
        u_gamma(g, bc, [17.3, 30.1], 0)
    rhs = np.eye(2 * g.n)[:, 1:3]
    for lams in (np.array([17.3, 30.1, 44.7]), np.array([17.3 + 1.0j, 30.1 - 2.0j])):
        every = FrameBundle(g, bc, lams)
        for k, lam in enumerate(lams):
            one = FrameBundle(g, bc, lam)
            for got, want in ((every.z[k], one.z), (every.zp[k], one.zp),
                              (every.c_block()[k], one.c_block()),
                              (every.solve_trace(rhs)[k], one.solve_trace(rhs))):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="one lambda"):
            particular_solution(every, select_tau(one), 1.0, 0, 0.5)
        with pytest.raises(ValueError, match="one lambda"):
            every.component(np.ones(2 * g.n), 0, [0.5])


def test_sampled_and_array_sources_are_their_interpolants():
    # both source forms are linear interpolants on their own grids
    g, bc, _ = barrier_end()
    prof = Sampled((0.0, 0.2, 0.7, 1.0), (1.0, -2.0, 0.5, 3.0))
    arr = np.array([0.0, 2.0, -1.0, 0.5, 1.5])
    grid = np.linspace(0.0, g.edges[1].length, arr.size)
    got = resolvent_apply(g, bc, 17.3, [prof, arr]).output
    want = resolvent_apply(g, bc, 17.3, [lambda x: np.interp(x, prof.xs, prof.vs),
                                         lambda x: np.interp(x, grid, arr)]).output
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def _barrier_end_bundle():
    g, bc, _ = barrier_end()
    return FrameBundle(g, bc, 20.0)


def _particular_at(j):
    bundle = _barrier_end_bundle()
    return particular_solution(bundle, select_tau(bundle), 1.0, j, 0.3)


def _residual_of(lam, v, graph=None):
    g, bc, _ = barrier_end()
    return segment_residual(graph or g, lam, resolvent_apply(g, bc, 17.3, [1.0, 1.0]), v)


@pytest.mark.parametrize("call, error, word", [
    (lambda: resolvent_apply(*barrier_end()[:2], 20.0, [1.0]), ValueError, "one source per edge"),
    # unchecked, the first gave a residual of the wrong lambda (2.8e-3), the
    # second ignored its third source and the third raised a bare IndexError
    (lambda: _residual_of(30.0, [1.0, 1.0]), ValueError, "made at lambda=17.3, not 30"),
    (lambda: _residual_of(17.3, [1.0, 1.0, 1.0]), ValueError, "one source per edge.*got 3 for n=2"),
    (lambda: _residual_of(17.3, [1.0]), ValueError, "one source per edge.*got 1 for n=2"),
    # a one-wire graph for a two-wire application
    (lambda: _residual_of(17.3, [1.0], random_star(np.random.default_rng(0), 1)),
     ValueError, "one source per edge of the application, got 1 for n=1"),
    # a Robin origin condition u' = -1e13 u: U + I is 2e-13 on its Robin block
    (lambda: build_projections(BoundaryConditions(np.array([[1e4]]), np.array([[1e-9]]),
                                                  np.array([0.0]), np.array([1.0]))),
     SingularDeltaCombination, "Robin block"),
    # unchecked, slot -1 gives slot 3's solution labelled -1, and 4 a bare IndexError
    (lambda: u_gamma(*barrier_end()[:2], 20.0, -1), ValueError, "out of range 0..3"),
    (lambda: u_gamma(*barrier_end()[:2], 20.0, 4), ValueError, "out of range 0..3"),
    # unchecked, wire -1 gives wire 1's solution
    (lambda: _particular_at(-1), ValueError, "out of range 0..1"),
    (lambda: _particular_at(2), ValueError, "out of range 0..1"),
    # unchecked, a 2-entry trace on a 2-wire star fails inside numpy's solve
    (lambda: inner_product_check(*barrier_end()[:2], 20.0, [1.0, 0.0], [1.0, 1.0]),
     ValueError, "2n = 4 trace entries"),
])
def test_bad_input_is_rejected(call, error, word):
    with pytest.raises(error, match=word):
        call()
