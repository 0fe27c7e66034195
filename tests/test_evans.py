"""Frame construction, determinant invariants, and the trig reductions the
reference configurations are known to satisfy."""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (barrier_end, barrier_interior, rand_bc_cayley,
                      rand_bc_real, rand_graph, two_wire, wide_star)
from qgraph import (BoundaryConditions, FrameBundle, GridTooCoarse, SplitSpec, StarGraph,
                    build_preset, cli, count_eigenvalues, evans, frame_matrix, free_edge,
                    fundamental_frame, resolvent_apply, split_graph, two_sided_value,
                    u_gamma, x_independence_check)
from qgraph.graphs import SAME_WIRE, SINGLE, TWO_WIRES
from oracle import c_matrix
from test_batching import _star

evans_module = importlib.import_module("qgraph.evans")  # qgraph.evans is also the function
maps_module = importlib.import_module("qgraph.maps")


def test_frame_initial_data():
    g, bc, _ = barrier_end()
    f0 = fundamental_frame(g, bc, 20.0)
    assert np.array_equal(f0.Y, -bc.alpha2.conj().T.real)
    assert np.array_equal(f0.Yp, bc.alpha1.conj().T.real)
    # Z columns launched at the far ends carry the outer condition data there
    ends = np.array([e.length for e in g.edges])
    fl = fundamental_frame(g, bc, 20.0, eval_point=ends)
    assert np.allclose(np.diag(fl.Z), -bc.beta2.real)
    assert np.allclose(np.diag(fl.Zp), bc.beta1.real)
    assert np.count_nonzero(f0.Z - np.diag(np.diag(f0.Z))) == 0


def test_frame_rejects_bad_shapes():
    g, bc, _ = barrier_end()
    with pytest.raises(ValueError):
        fundamental_frame(g, bc, 20.0, eval_point=[0.1])
    with pytest.raises(ValueError):
        fundamental_frame(g, build_preset("kirchhoff", 3), 20.0)


def test_real_problem_stays_in_real_arithmetic(rng):
    g, bc, _ = barrier_end()
    assert frame_matrix(fundamental_frame(g, bc, 20.0)).dtype.kind == "f"
    assert frame_matrix(fundamental_frame(g, bc, 20.0 + 1j)).dtype.kind == "c"
    gc = rand_graph(2, rng)
    assert frame_matrix(
        fundamental_frame(gc, rand_bc_cayley(2, rng), 20.0)).dtype.kind == "c"


def test_determinant_ignores_evaluation_point(rng):
    for g, bc, _ in (barrier_end(), barrier_interior(), two_wire()):
        pts = [np.zeros(2)] + [rng.uniform(0, 1, 2) for _ in range(4)]
        for lam in (4.7, 20.0, 55.0):
            assert x_independence_check(g, bc, lam, pts) < 1e-11
    for n in (2, 3, 4):
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng)
        lens = np.array([e.length for e in g.edges])
        pts = [np.zeros(n)] + [rng.uniform(0, 1, n) * lens for _ in range(4)]
        assert x_independence_check(g, bc, rng.uniform(3, 40), pts) < 1e-9


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), cayley=st.booleans(),
       sampled=st.booleans(), moved=st.booleans(), complex_lam=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_secular_determinant_is_the_frame_determinant(seed, n, cayley, sampled, moved,
                                                      complex_lam):
    # Z and Z' are diagonal, so they commute and det [[Y, Z], [Y', Z']] is
    # det(Z' Y - Z Y'), at the origin and at any other evaluation point
    rng = np.random.default_rng(seed)
    g = _star(rng, n, sampled)
    bc = rand_bc_cayley(n, rng) if cayley else rand_bc_real(n, rng)
    xs = rng.uniform(0.0, 1.0, n) * g.lengths if moved else None
    lams = rng.uniform(-5.0, 60.0, 40)
    if complex_lam:
        lams = lams + 1j * rng.uniform(-3.0, 3.0, 40)
    vals = evans(g, bc, lams, eval_point=xs).value
    dets = np.linalg.det(frame_matrix(fundamental_frame(g, bc, lams, xs)))
    assert np.abs(vals - dets).max() <= 1e-12 * np.abs(dets).max()
    assert vals.dtype == dets.dtype


def _star_vertex(rng, n, vertex):
    """Origin data whose alpha2 has at most one nonzero row, with random
    outer ends: Kirchhoff; a weighted delta vertex, u_j(0) / sqrt(w_j) all
    equal and sum_j sqrt(w_j) u_j'(0) = gamma u_0(0) / sqrt(w_0), with
    random weights and strength and its continuity rows mixed by a random
    real or complex matrix; a Dirichlet vertex; or random real or Cayley
    one-wire data."""
    t = rng.uniform(0.0, np.pi, n)
    if vertex == "one-wire":
        return (rand_bc_cayley if rng.integers(2) else rand_bc_real)(1, rng)
    if vertex == "dirichlet":
        return BoundaryConditions(np.eye(n), np.zeros((n, n)), np.cos(t), np.sin(t))
    a1, a2 = build_preset("kirchhoff", n).alpha1.copy(), np.zeros((n, n))
    a2[n - 1] = 1.0
    if vertex == "delta":
        root = np.sqrt(rng.uniform(0.2, 5.0, n))
        a1, a2[n - 1] = a1 / root, root
        a1[n - 1, 0] = -rng.uniform(-10.0, 10.0) / root[0]
        mix = np.eye(n - 1) + 0.3 * rng.standard_normal((n - 1, n - 1))
        if rng.integers(2):
            mix = mix + 0.3j * rng.standard_normal((n - 1, n - 1))
        a1 = np.vstack([mix @ a1[:n - 1], a1[n - 1:]])
    return BoundaryConditions(a1, a2, np.cos(t), np.sin(t))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16),
       vertex=st.sampled_from(["kirchhoff", "delta", "dirichlet", "one-wire"]),
       mode=st.sampled_from([SINGLE, SAME_WIRE, TWO_WIRES]), complex_lam=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_star_pass_is_the_frame_determinant(seed, n, vertex, mode, complex_lam):
    # the graph, every D/N variant of every piece of its split and another
    # vertex on the same wires take the star pass, and its values are the
    # 2n x 2n frame determinants
    rng = np.random.default_rng(seed)
    n = 1 if vertex == "one-wire" else n
    g = _star(rng, n, sampled=bool(rng.integers(2)))
    bc = _star_vertex(rng, n, vertex)
    mode = SINGLE if mode == TWO_WIRES and n == 1 else mode
    s = rng.uniform(0.2, 0.8, 2) * g.lengths[:2]
    cuts = {SINGLE: ((0, s[0]),), SAME_WIRE: ((0, s[0]), (0, 0.5 * s[0])),
            TWO_WIRES: ((0, s[0]), (1, s[-1]))}[mode]
    problems = [(g, bc), *split_graph(g, bc, SplitSpec(cuts, mode)).values(),
                (g, _star_vertex(rng, n, "one-wire" if n == 1 else "delta"))]
    lams = rng.uniform(-5.0, 60.0, 40)
    if complex_lam:
        lams = lams + 1j * rng.uniform(-3.0, 3.0, 40)
    values = evans_module._evans_values(problems)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "det", lambda a: pytest.fail("an Evans value took a det"))
        got = values(lams)
    for (gp, bcp), vals in zip(problems, got):
        dets = np.linalg.det(frame_matrix(fundamental_frame(gp, bcp, lams)))
        assert np.abs(vals - dets).max() <= 1e-12 * np.abs(dets).max()
        assert vals.dtype == dets.dtype


def test_star_values_take_no_determinant(monkeypatch):
    # the Kirchhoff star and its pieces take one det of launch data, which
    # the graph and its residual star share, and none over lambda; a robin
    # star's Evans values are still n x n determinants
    g, bc, spec = wide_star(16, 1)
    lams = np.linspace(1.0, 40.0, 50)
    shapes, det = [], np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda a: shapes.append(np.shape(a)) or det(a))
    evans(g, bc, lams)
    assert shapes == [(17, 16, 16)]
    shapes.clear()
    maps_module.SplitTerms(g, bc, spec).evans(lams)
    assert shapes == [(17, 16, 16)]
    shapes.clear()
    evans(g, build_preset("robin", 16, theta=2.0), lams)
    assert shapes == [(50, 16, 16)]


def test_wide_star_count_keeps_its_value():
    # 128 Kirchhoff wires: the star pass counts what the determinant counted
    g, bc, _ = wide_star(128, 1)
    with pytest.warns(GridTooCoarse):
        assert count_eigenvalues(g, bc, (1.0, 40.0)).count == 186


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the star pass's running product of 256 factors "
                   "underflows, and sign changes go missing without a warning")
def test_wide_star_count_survives_underflow():
    # perfbench/fe.py's lumped-FE inertia count (count_below) gives 373 on
    # [1, 40] at both 1000 and 4000 cells per unit length; at n = 64 and 128
    # it gives 87 and 186, which the program matches.  The program gives 57.
    g, bc, _ = wide_star(256, 1)
    assert count_eigenvalues(g, bc, (1.0, 40.0)).count == 373


def test_evans_paths_build_no_frame_matrix(monkeypatch):
    # an evans sweep and a count report take every Evans value as an n x n
    # determinant: no 2n x 2n frame matrix, and no frame, is built
    module = importlib.import_module("qgraph.evans")
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])

    def refuse(*args):
        raise AssertionError("a 2n x 2n frame was built")
    shapes, det = [], np.linalg.det
    monkeypatch.setattr(module, "frame_matrix", refuse)
    monkeypatch.setattr(module, "_frame", refuse)
    monkeypatch.setattr(np.linalg, "det", lambda a: shapes.append(np.shape(a)) or det(a))
    cli.evans_csv(sc, with_map=True)
    cli.count_report(sc)
    assert shapes and max(s[-1] for s in shapes) == sc.graph.n


def test_evaluation_point_check_sees_one_wrong_point_on_a_wide_star(monkeypatch):
    # |E| ~ 5e-13 on the 16-wire star at lambda = 20: a spread measured
    # against 1 + |E| would pass a point whose value is 1% off
    g, bc, _ = wide_star(16, 1)
    lens = np.array([e.length for e in g.edges])
    pts = [np.zeros(16), 0.5 * lens, 0.25 * lens]
    assert abs(evans(g, bc, 20.0).value) < 1e-11
    assert x_independence_check(g, bc, 20.0, pts) < 1e-11
    module = importlib.import_module("qgraph.evans")  # qgraph.evans is also the function
    true_values = module._evans_values

    def one_point_off(problems, points=None):
        values = true_values(problems, points)
        return lambda lams: [v * 1.01 if xs is pts[2] else v
                             for v, xs in zip(values(lams), points)]

    monkeypatch.setattr(module, "_evans_values", one_point_off)
    assert x_independence_check(g, bc, 20.0, pts) > 1e-3


def test_evaluation_point_check_makes_one_kernel_call(monkeypatch, rng):
    # every trial point is one problem of a single _evans_values call, and
    # the spread is the one that an evans call per point gives
    module = importlib.import_module("qgraph.evans")
    for g, bc, _ in (barrier_end(), two_wire(), wide_star(8, 1)):
        pts = [np.zeros(g.n)] + [rng.uniform(0, 1, g.n) * g.lengths for _ in range(2)]
        for lam in (4.7, 20.0 + 1.5j, np.array([7.3, 55.0])):
            vals = np.array([evans(g, bc, lam, eval_point=xs).value for xs in pts])
            want = float(abs(vals[1:] - vals[0]).max() / abs(vals).max())
            calls = []
            with monkeypatch.context() as m:
                m.setattr(module.LegPlan, "stack",
                          lambda plan, lams, inner=module.LegPlan.stack:
                          calls.append(plan) or inner(plan, lams))
                got = x_independence_check(g, bc, lam, pts)
            assert len(calls) == 1 and got == want


def test_conjugate_symmetry_real_coefficients(rng):
    for n in (2, 3):
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng)
        lam = complex(rng.uniform(3, 40), rng.uniform(-2, 2))
        a = evans(g, bc, lam).value
        b = evans(g, bc, np.conj(lam)).value
        assert abs(b - np.conj(a)) <= 1e-12 * (1 + abs(a))


def test_interval_dirichlet_reduces_to_sinc():
    g = StarGraph((free_edge(1.0),))
    bc = build_preset("dirichlet", 1)
    for lam in np.linspace(2.0, 90.0, 23):
        k = np.sqrt(lam)
        assert evans(g, bc, lam).value == pytest.approx(np.sin(k) / k, abs=1e-13)


def test_kirchhoff_pair_is_a_glued_interval():
    # two free wires joined by continuity + flux balance at the origin act
    # as one interval of length 2, Dirichlet at both ends
    g = StarGraph((free_edge(1.0), free_edge(1.0)))
    bc = build_preset("kirchhoff", 2)
    for m in range(1, 5):
        lam = (m * np.pi / 2) ** 2
        scale = abs(evans(g, bc, lam + 0.7).value)
        assert abs(evans(g, bc, lam).value) < 1e-10 * scale


def test_determinant_matches_condition_matrix(rng):
    # det of the frame equals (-1)^n det(alpha1 Z + alpha2 Z'), up to the
    # unimodular factor conj(det alpha2)/det alpha2 (trivial for real data)
    for n in (2, 3, 4):
        for _ in range(10):
            g = rand_graph(n, rng)
            bc = rand_bc_real(n, rng)
            lam = rng.uniform(3, 40)
            f0 = fundamental_frame(g, bc, lam)
            lhs = (-1) ** n * np.linalg.det(frame_matrix(f0))
            rhs = np.linalg.det(c_matrix(f0, bc))
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_condition_matrix_phase_for_complex_data(rng):
    for n in (2, 3):
        for _ in range(10):
            g = rand_graph(n, rng)
            bc = rand_bc_cayley(n, rng)
            lam = rng.uniform(3, 40)
            f0 = fundamental_frame(g, bc, lam)
            lhs = (-1) ** n * np.linalg.det(frame_matrix(f0))
            d2 = np.linalg.det(bc.alpha2)
            rhs = np.linalg.det(c_matrix(f0, bc)) * np.conj(d2) / d2
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_c_matrix_requires_origin_frame():
    g, bc, _ = barrier_end()
    f = fundamental_frame(g, bc, 20.0, eval_point=np.array([0.2, 0.2]))
    with pytest.raises(ValueError):
        c_matrix(f, bc)


def test_barrier_end_trig_reduction():
    # whole determinant times k*w collapses to a two-term trig expression;
    # each split piece and each derivative quotient has its own closed form
    g, bc, spec = barrier_end()
    s1 = 1 / 3
    parts = split_graph(g, bc, spec)
    for lam in np.linspace(4.0, 60.0, 29):
        k, w = np.sqrt(lam), np.sqrt(lam + 10)
        whole = evans(g, bc, lam).value * k * w
        two_term = (k * np.cos(k * (1 + s1)) * np.sin(w * (s1 - 1))
                    - w * np.cos(w * (s1 - 1)) * np.sin(k * (1 + s1)))
        assert whole == pytest.approx(two_term, abs=1e-12 * (1 + abs(two_term)))
        e1 = evans(*parts["omega1:D"], lam).value
        e2 = evans(*parts["omega2:D"], lam).value
        assert e1 == pytest.approx(np.sin((1 - s1) * w) / w, abs=1e-13)
        assert e2 == pytest.approx(-np.sin(k * (1 + s1)) / k, abs=1e-13)
        q1 = evans(*parts["omega1:N"], lam).value / e1
        q2 = -evans(*parts["omega2:N"], lam).value / e2
        assert q1 == pytest.approx(w / np.tan(w * (s1 - 1)), rel=1e-10)
        assert q2 == pytest.approx(-k / np.tan(k * (1 + s1)), rel=1e-10)


def test_barrier_interior_trig_reduction():
    g, bc, _ = barrier_interior()
    a = 0.5  # well width
    for lam in np.linspace(4.0, 60.0, 29):
        k, w = np.sqrt(lam), np.sqrt(lam + 10)
        lhs = evans(g, bc, lam).value * 2 * w
        rhs = ((2 * lam + 10) * np.cos(k * (2 - a)) * np.sin(w * a)
               + 10 * np.cos(k) * np.sin(w * a)
               + 2 * k * w * np.cos(w * a) * np.sin(k * (2 - a)))
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1 + abs(rhs)))


def test_two_wire_trig_reduction():
    g, bc, _ = two_wire()
    for lam in np.linspace(4.0, 60.0, 29):
        w = np.sqrt(lam + 10)
        lhs = evans(g, bc, lam).value * lam * w
        rhs = -(np.sqrt(lam) * w * np.cos(w) * np.sin(np.sqrt(lam))
                + (-5 + (5 + lam) * np.cos(np.sqrt(lam))) * np.sin(w))
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1 + abs(rhs)))


def test_bundle_matches_frame():
    g, bc, _ = barrier_interior()
    b = FrameBundle(g, bc, 17.0)
    f = fundamental_frame(g, bc, 17.0)
    assert np.allclose([b.z, b.zp], [np.diagonal(f.Z), np.diagonal(f.Zp)], rtol=0, atol=0)
    assert b.evans_value() == pytest.approx(evans(g, bc, 17.0).value, rel=1e-14)
    assert np.allclose(b.c_block(), c_matrix(f, bc))


def test_solve_trace_roundtrip(rng):
    # coefficients returned by solve_trace reproduce the requested boundary
    # data when the combination is evaluated edge by edge
    for make in (barrier_end, two_wire):
        g, bc, _ = make()
        b = FrameBundle(g, bc, 23.5)
        n = g.n
        rhs = rng.standard_normal(2 * n)
        d = b.solve_trace(rhs)
        vals0 = np.zeros(n)
        ders0 = np.zeros(n)
        outer = np.zeros(n)
        for j in range(n):
            ul, upl = b.component_at(d, j, g.edges[j].length)
            u0, up0 = b.component_at(d, j, 0.0)
            outer[j] = bc.beta1[j].real * ul + bc.beta2[j].real * upl
            vals0[j], ders0[j] = u0, up0
        origin = bc.alpha1.real @ vals0 + bc.alpha2.real @ ders0
        assert np.allclose(outer, rhs[:n], atol=1e-10)
        assert np.allclose(origin, rhs[n:], atol=1e-10)


def test_bundle_rejects_mismatched_sizes():
    g, _, _ = barrier_end()
    with pytest.raises(ValueError):
        FrameBundle(g, build_preset("kirchhoff", 3), 10.0)


def _bundle():
    g, bc, _ = barrier_end()
    return FrameBundle(g, bc, 20.0)


@pytest.mark.parametrize("call, error, word", [
    (lambda: evans(*barrier_end()[:2], np.ones((2, 2))), ValueError, "1-d array"),
    (lambda: x_independence_check(*barrier_end()[:2], 20.0, [[0.1, 0.2]]),
     ValueError, "two trial points"),
    # unchecked, wire -1 reads wire 1's families with the Y weight d[1] as its Z weight
    (lambda: _bundle().component(np.ones(4), -1, [0.5]), ValueError, "out of range 0..1"),
    (lambda: _bundle().component(np.ones(4), 2, [0.5]), ValueError, "out of range 0..1"),
    (lambda: _bundle().component_at(np.ones(4), -1, 0.5), ValueError, "out of range 0..1"),
    (lambda: _bundle().component(np.ones(4), 0.5, [0.5]), TypeError, "integer"),
])
def test_bad_input_is_rejected(call, error, word):
    with pytest.raises(error, match=word):
        call()


@pytest.mark.parametrize("call", [
    lambda g, bc, spec: evans(g, bc, np.nan),
    lambda g, bc, spec: evans(g, bc, np.inf),
    lambda g, bc, spec: two_sided_value(g, bc, spec, np.nan),
    lambda g, bc, spec: resolvent_apply(g, bc, np.nan, [1.0] * g.n),
    lambda g, bc, spec: u_gamma(g, bc, np.nan, 0),
], ids=["evans-nan", "evans-inf", "two_sided_value", "resolvent_apply", "u_gamma"])
def test_non_finite_lambda_is_refused(call):
    # unchecked, these give nan, or an SVD that does not converge
    with pytest.raises(ValueError, match="lambda must be finite, got (nan|inf)"):
        call(*barrier_interior())
