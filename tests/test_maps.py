"""Cut maps: spot values at lambda=20, dual-route agreement, factorization
residuals, pole detection, monotonicity, and the complementary-minor identity."""
import numpy as np
import pytest

from conftest import (barrier_end, barrier_interior, pc, rand_bc_cayley,
                      rand_bc_real, rand_graph, two_wire)
from qgraph import (BoundaryConditions, EdgeSpec, PoleAtLambda, SplitSpec,
                    StarGraph, build_preset, evans, free_edge, map_M1, map_M2,
                    minor_identity_check, split_graph, two_sided_2x2_same_wire,
                    two_sided_2x2_two_wires, two_sided_sum, two_sided_value,
                    verify_double_split, verify_single_split)
from qgraph.graphs import SINGLE


def test_barrier_end_values_at_20():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    lam = 20.0
    k, w = np.sqrt(lam), np.sqrt(lam + 10)
    m1 = map_M1(parts["omega1:D"], lam)
    m2 = map_M2(parts["omega2:D"], lam, cut_edge=0)
    assert m1.value == pytest.approx(9.794477417360408, rel=1e-12)
    assert m2.value == pytest.approx(-13.479876640657423, rel=1e-12)
    assert m1.value == pytest.approx(w / np.tan(w * 2 / 3), rel=1e-12)
    assert m2.value == pytest.approx(k / np.tan(k * 4 / 3), rel=1e-12)
    assert m1.route_residual < 1e-12
    assert m2.route_residual < 1e-12
    assert two_sided_sum(m1, m2) == pytest.approx(m1.value + m2.value)
    assert verify_single_split(g, bc, (0, 1 / 3), lam) < 1e-13


def test_quotient_legs_are_the_piece_determinants():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    lam = 17.3
    m1 = map_M1(parts["omega1:D"], lam)
    m2 = map_M2(parts["omega2:D"], lam, cut_edge=0)
    assert m1.side == "outer" and m2.side == "star"
    assert m1.denominator_evans == pytest.approx(
        evans(*parts["omega1:D"], lam).value, rel=1e-14)
    assert m1.numerator_evans == pytest.approx(
        evans(*parts["omega1:N"], lam).value, rel=1e-14)
    assert m2.denominator_evans == pytest.approx(
        evans(*parts["omega2:D"], lam).value, rel=1e-14)
    assert m2.numerator_evans == pytest.approx(
        evans(*parts["omega2:N"], lam).value, rel=1e-14)
    # outer quotient carries the minus sign, star quotient the plus sign
    assert m1.quotient_value == pytest.approx(
        -m1.numerator_evans / m1.denominator_evans)
    assert m2.quotient_value == pytest.approx(
        m2.numerator_evans / m2.denominator_evans)


def test_same_wire_matrices_at_20():
    g, bc, spec = barrier_interior()
    lam = 20.0
    k, w = np.sqrt(lam), np.sqrt(lam + 10)
    ts = two_sided_2x2_same_wire(g, bc, spec, lam)
    # detached middle interval, well of width 1/2
    mid = np.array([[w / np.tan(w / 2), -w / np.sin(w / 2)],
                    [-w / np.sin(w / 2), w / np.tan(w / 2)]])
    assert np.allclose(ts.m1, mid, rtol=1e-12)
    assert np.allclose(ts.m1, [[-12.84798185, -13.96676904],
                               [-13.96676904, -12.84798185]], atol=5e-8)
    # complementary pieces: free outer stub and free residual star
    assert np.allclose(np.diag(ts.m2),
                       [-k * np.tan(0.25 * k), -k * np.tan(1.25 * k)],
                       rtol=1e-12)
    assert np.allclose(np.diag(ts.m2), [-9.19310094, 3.7137428], atol=5e-8)
    assert np.count_nonzero(ts.m2 - np.diag(np.diag(ts.m2))) == 0
    assert verify_double_split(g, bc, spec, lam) < 1e-13


def test_two_wire_matrices_at_20():
    g, bc, spec = two_wire()
    lam = 20.0
    k, w = np.sqrt(lam), np.sqrt(lam + 10)
    tw = two_sided_2x2_two_wires(g, bc, spec, lam)
    b = k / np.tan(k / 2)
    assert np.allclose(tw.m1, np.diag([b, b]), rtol=1e-12)
    a, c = w / np.tan(w), w / np.sin(w)
    assert np.allclose(tw.m2, [[a, -c], [-c, a]], rtol=1e-12)
    assert tw.det_sum == pytest.approx((a + b + c) * (a + b - c), rel=1e-10)
    assert tw.det_sum == pytest.approx(19.1992567694, rel=1e-9)
    assert verify_double_split(g, bc, spec, lam) < 1e-13


def test_two_sided_value_matches_builders():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    for lam in (20.0, 33.0):
        m1 = map_M1(parts["omega1:D"], lam)
        m2 = map_M2(parts["omega2:D"], lam, cut_edge=0)
        assert two_sided_value(g, bc, spec, lam) == pytest.approx(
            m1.value + m2.value, rel=1e-12)
    g, bc, spec = barrier_interior()
    for lam in (20.0, 33.0):
        assert two_sided_value(g, bc, spec, lam) == pytest.approx(
            two_sided_2x2_same_wire(g, bc, spec, lam).det_sum, rel=1e-12)
    g, bc, spec = two_wire()
    for lam in (20.0, 33.0):
        assert two_sided_value(g, bc, spec, lam) == pytest.approx(
            two_sided_2x2_two_wires(g, bc, spec, lam).det_sum, rel=1e-12)


def test_two_sided_sum_rejects_mixed_lambda():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    m1 = map_M1(parts["omega1:D"], 20.0)
    m2 = map_M2(parts["omega2:D"], 21.0, cut_edge=0)
    with pytest.raises(ValueError):
        two_sided_sum(m1, m2)


def test_pole_detection():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    # outer piece vanishes where sin(2w/3) does; star piece where sin(4k/3) does
    lam_outer = (1.5 * np.pi) ** 2 - 10
    with pytest.raises(PoleAtLambda) as e:
        map_M1(parts["omega1:D"], lam_outer)
    assert e.value.lam == lam_outer
    assert abs(e.value.denominator) < 1e-12
    lam_star = (0.75 * np.pi) ** 2
    with pytest.raises(PoleAtLambda):
        map_M2(parts["omega2:D"], lam_star, cut_edge=0)
    # a tight pole_scale lets callers probe closer to the pole
    near = lam_outer + 1e-5
    with pytest.raises(PoleAtLambda):
        map_M1(parts["omega1:D"], near)
    assert np.isfinite(map_M1(parts["omega1:D"], near, pole_scale=1e-12).value)


def test_maps_decrease_between_poles():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    m1 = [map_M1(parts["omega1:D"], lam).value for lam in np.linspace(14, 60, 24)]
    assert np.all(np.diff(m1) < 0)
    m2 = [map_M2(parts["omega2:D"], lam, cut_edge=0).value
          for lam in np.linspace(23, 49, 24)]
    assert np.all(np.diff(m2) < 0)


def test_free_interval_neumann_sum():
    # free wire, Neumann at both ends, cut at 0.4: each side is an explicit
    # tangent, and the sum stays positive below the ground state at zero
    g = StarGraph((free_edge(1.0),))
    bc = BoundaryConditions([[0.0]], [[1.0]], [0.0], [1.0])
    spec = SplitSpec(((0, 0.4),), SINGLE)
    parts = split_graph(g, bc, spec)
    for lam in (0.8, 2.5, 4.4, 6.0):
        k = np.sqrt(lam)
        m1 = map_M1(parts["omega1:D"], lam)
        m2 = map_M2(parts["omega2:D"], lam, cut_edge=0)
        assert m1.value == pytest.approx(-k * np.tan(0.6 * k), rel=1e-11)
        assert m2.value == pytest.approx(-k * np.tan(0.4 * k), rel=1e-11)
    for lam in (-9.0, -4.0, -1.0):
        kap = np.sqrt(-lam)
        total = two_sided_value(g, bc, spec, lam)
        assert total == pytest.approx(
            kap * (np.tanh(0.6 * kap) + np.tanh(0.4 * kap)), rel=1e-11)
        assert total > 0


def test_star_map_equals_mirrored_outer_map():
    # reflecting the residual star piece of an interval turns its map into
    # the detached-piece map of the reflected problem, with no sign change
    s = 0.45
    g = StarGraph((EdgeSpec(1.0, pc((0.0, 0.2, 3.0), (0.2, s, -7.0),
                                    (s, 1.0, 0.0))),))
    bc = BoundaryConditions([[0.7]], [[0.3]], [1.0], [0.0])
    parts = split_graph(g, bc, SplitSpec(((0, s),), SINGLE))
    mirror = StarGraph((EdgeSpec(s, pc((0.0, 0.25, -7.0), (0.25, s, 3.0))),))
    mirror_bc = BoundaryConditions([[1.0]], [[0.0]], [0.7], [-0.3])
    for lam in (6.0, 15.0, 31.0):
        m2 = map_M2(parts["omega2:D"], lam, cut_edge=0)
        m1m = map_M1((mirror, mirror_bc), lam)
        assert m2.value == pytest.approx(m1m.value, rel=1e-11)


def _pole_free(fn, lam, tries=8):
    for t in range(tries):
        try:
            return fn(lam + 0.37 * t)
        except (PoleAtLambda, np.linalg.LinAlgError):
            continue
    raise AssertionError("no pole-free sample found")


def test_single_split_random_configurations(rng):
    for n in (2, 3, 4):
        for _ in range(4):
            g = rand_graph(n, rng)
            bc = rand_bc_real(n, rng, margin=0.15)
            j = int(rng.integers(n))
            cut = (j, 0.45 * g.edges[j].length)
            lam = rng.uniform(4, 45)
            r = _pole_free(lambda q: verify_single_split(g, bc, cut, q), lam)
            assert r < 1e-10


def test_double_split_random_configurations(rng):
    from qgraph.graphs import SAME_WIRE, TWO_WIRES
    for _ in range(6):
        g = rand_graph(3, rng)
        bc = rand_bc_real(3, rng, margin=0.15)
        l0, l1 = g.edges[0].length, g.edges[1].length
        for spec in (SplitSpec(((0, 0.7 * l0), (0, 0.3 * l0)), SAME_WIRE),
                     SplitSpec(((0, 0.55 * l0), (1, 0.5 * l1)), TWO_WIRES)):
            lam = rng.uniform(4, 45)
            r = _pole_free(lambda q: verify_double_split(g, bc, spec, q), lam)
            assert r < 1e-10


def test_minor_identity_random(rng):
    for n in (2, 3, 4):
        for make in (rand_bc_real, rand_bc_cayley):
            g = rand_graph(n, rng)
            bc = make(n, rng)
            lam = rng.uniform(4, 45)
            assert minor_identity_check(g, bc, lam, (0, 1)) < 1e-10
    g = rand_graph(4, rng)
    assert minor_identity_check(g, rand_bc_real(4, rng), 12.0, (1, 3)) < 1e-10
    with pytest.raises(ValueError):
        minor_identity_check(g, rand_bc_real(4, rng), 12.0, (2, 2))


def test_double_split_residual_exposes_a_wrong_factor_on_a_wide_star(monkeypatch):
    # an 8-wire Kirchhoff star with Dirichlet ends has |E| ~ 4e-6 at
    # lambda = 20, so a residual over 1 + |E| passed a factor off by 1%
    from qgraph import maps
    from qgraph.graphs import TWO_WIRES
    rng = np.random.default_rng(1)
    edges, breaks = [], []
    for _ in range(8):
        length = rng.uniform(0.75, 1.25)
        b1, b2 = sorted(rng.choice(np.arange(1, 8), 2, replace=False))
        xs = (0.0, b1 * length / 8, b2 * length / 8, length)
        vals = rng.uniform(-12.0, 12.0, 3)
        edges.append(EdgeSpec(length, pc(*[(xs[i], xs[i + 1], vals[i]) for i in range(3)])))
        breaks.append(xs[1])
    g = StarGraph(tuple(edges))
    bc = build_preset("kirchhoff", 8)
    spec = SplitSpec(((0, breaks[0]), (1, breaks[1])), TWO_WIRES)
    assert abs(evans(g, bc, 20.0).value) < 1e-5
    assert verify_double_split(g, bc, spec, 20.0) < 1e-13
    true_factors = maps.split_evans_factors

    def one_factor_off(*args):
        factors = true_factors(*args)
        key = next(iter(factors))
        factors[key] *= 1.01
        return factors

    monkeypatch.setattr(maps, "split_evans_factors", one_factor_off)
    assert verify_double_split(g, bc, spec, 20.0) > 1e-7
