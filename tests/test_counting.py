"""Sign-change counting: the three reference runs with frozen locations,
grid behavior, tangency handling, pole bookkeeping, and the counting
identity on random problems."""
import importlib
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (barrier_end, barrier_interior, rand_bc_cayley, rand_bc_real, rand_graph,
                      two_wire, wide_star)
from qgraph import (EndpointNudged, EndpointOnSpectrum, GridTooCoarse, SplitSpec,
                    StarGraph, build_preset, count_eigenvalues, count_zeros,
                    free_edge, lambda_grid, verify_counting)
from qgraph.graphs import SAME_WIRE, SINGLE, TWO_WIRES


def test_lambda_grid_properties():
    xs = lambda_grid((5.0, 60.0), 200)
    assert xs[0] == 5.0 and xs[-1] == 60.0 and xs.size == 201
    steps = np.diff(np.sqrt(xs))
    assert np.allclose(steps, steps[0])  # uniform in sqrt(lambda)
    assert lambda_grid((1.0, 1.2), 8).size == 65  # floor kicks in
    assert lambda_grid((5.0, 60.0), 200.0).tobytes() == xs.tobytes()  # an integral float
    neg = lambda_grid((-4.0, 9.0), 100)
    assert np.allclose(np.diff(neg), neg[1] - neg[0])  # linear below zero
    with pytest.raises(ValueError):
        lambda_grid((3.0, 3.0))


def test_count_zeros_sinc():
    rep = count_zeros(lambda t: np.sin(np.sqrt(t)) / np.sqrt(t), (5.0, 60.0))
    assert rep.count == 2 and rep.delta_N is None
    locs = [z for z, m in rep.zeros]
    assert locs == pytest.approx([np.pi ** 2, 4 * np.pi ** 2], abs=1e-8)
    assert all(m == 1 for _, m in rep.zeros)


def test_count_zeros_excludes_endpoints():
    rep = count_zeros(np.sin, (0.0, float(np.pi)))
    assert rep.count == 0


def test_tangency_counted_twice():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = count_zeros(lambda t: (t - 20.0) ** 2 * (1 + 0.1 * t), (5.0, 60.0))
    assert rep.zeros == ((pytest.approx(20.0, abs=1e-6), 2),)
    assert rep.count == 2


def test_dip_probe_calls_the_module_name(monkeypatch):
    # counting imports scipy.optimize on first use, behind module-level
    # names that perfbench's tracer rebinds: a rebound minimize_scalar must
    # see the dip probe of a double zero, and change nothing
    from qgraph import counting
    assert counting.brentq(lambda t: t - 1.5, 0.0, 2.0) == pytest.approx(1.5)
    f = lambda t: (t - 20.0) ** 2 * (1 + 0.1 * t)
    expected = count_zeros(f, (5.0, 60.0))
    calls, probe = [], counting.minimize_scalar

    def recording(*args, **kwargs):
        calls.append(kwargs["bounds"])
        return probe(*args, **kwargs)
    monkeypatch.setattr(counting, "minimize_scalar", recording)
    assert count_zeros(f, (5.0, 60.0)) == expected
    assert calls


def test_close_zeros_warn():
    with pytest.warns(GridTooCoarse):
        rep = count_zeros(lambda t: (t - 30.0) * (t - 30.5), (5.0, 60.0), grid=200)
    assert [z for z, _ in rep.zeros] == pytest.approx([30.0, 30.5], abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_scan_masks_match_the_cell_loop(seed, monkeypatch):
    # the vectorised sign-change and dip detection hands the root refiner and
    # the dip probe the brackets, in the order, that a loop over the cells gives
    from qgraph import counting
    rng = np.random.default_rng(seed)
    xs = np.linspace(1.0, 2.0, 200)
    vs = np.repeat(rng.choice([-1.0, 1.0], 20), 10) * rng.uniform(0.1, 1.0, 200)
    vs[rng.choice(200, 15, replace=False)] *= 1e-7  # dip candidates
    vs[rng.choice(200, 4, replace=False)] = 0.0     # grid points on a zero
    calls = []

    def refine(fs, a, b, fa, fb, rows=None):
        # seeded with the grid values, never re-evaluated at the bracket ends
        assert np.array_equal(fa, vs[np.searchsorted(xs, a)])
        assert np.array_equal(fb, vs[np.searchsorted(xs, b)])
        calls.extend(("root", x, y) for x, y in zip(a, b))
        return 0.5 * (a + b)

    monkeypatch.setattr(counting, "_refine", refine)
    monkeypatch.setattr(counting, "_refine_dip", lambda f, a, b: (
        calls.append(("dip", a, b)) or (0.5 * (a + b), np.inf)))
    counting._scan_zeros(lambda ts: vs if ts.size == xs.size else np.ones(ts.size), xs)

    want, taken = [], list(xs[vs == 0.0])
    for i in range(xs.size - 1):
        if vs[i] != 0.0 and vs[i] * vs[i + 1] < 0.0:
            want.append(("root", xs[i], xs[i + 1]))
            taken.append(0.5 * (xs[i] + xs[i + 1]))
    scale = np.median(np.abs(vs))
    for i in range(1, xs.size - 1):
        a, b, c = vs[i - 1:i + 2]
        if (abs(b) <= abs(a) and abs(b) <= abs(c) and a * b > 0 and b * c > 0
                and abs(b) <= counting.DIP_PREFILTER * scale
                and np.min(np.abs(np.array(taken) - xs[i])) >= 2 * (xs[i + 1] - xs[i - 1])):
            want.append(("dip", xs[i - 1], xs[i + 1]))
    assert calls == want
    assert any(k == "root" for k, _, _ in calls) and any(k == "dip" for k, _, _ in calls)


@given(omega=st.floats(0.5, 6.0), phi=st.floats(0.0, 3.1), lo=st.floats(0.0, 20.0),
       width=st.floats(5.0, 80.0), grid=st.integers(64, 400))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_refine_matches_analytic_roots(omega, phi, lo, width, grid):
    from qgraph import counting
    xs = lambda_grid((lo, lo + width), grid)
    fs = lambda ts: np.sin(omega * np.sqrt(ts) + phi)
    vs = fs(xs)
    i = np.flatnonzero(vs[:-1] * vs[1:] < 0.0)
    roots = counting._refine(fs, xs[i], xs[i + 1], vs[i], vs[i + 1])
    k = np.ceil((omega * np.sqrt(xs[i]) + phi) / np.pi)  # the one k*pi in the cell
    exact = ((k * np.pi - phi) / omega) ** 2
    assert np.all((xs[i] <= roots) & (roots <= xs[i + 1]))
    assert np.all(np.abs(roots - exact) <= 1e-12 * (1 + np.abs(exact)))


def test_refine_fails_loudly():
    from qgraph import counting
    one = lambda v: np.array([v])
    with pytest.raises(counting.RefineFailure, match="non-finite"):
        counting._refine(lambda ts: np.full(ts.shape, np.nan),
                         one(0.0), one(1.0), one(-1.0), one(1.0))
    # a step function defeats interpolation; bisecting 2e30 down to 5e-11 takes 134 steps
    with pytest.raises(counting.RefineFailure, match="not converged in 100 steps"):
        counting._refine(lambda ts: np.sign(ts - 0.3), one(-1e30), one(1e30), one(-1.0), one(1.0))
    assert counting._refine(lambda ts: np.sign(ts - 0.3), one(-1.0), one(1.0),
                            one(-1.0), one(1.0)) == pytest.approx(0.3, abs=1e-10)
    # grid samples in the NaN gap are skipped, so the gap sits inside a
    # bracket; no NaN root may come back and be filtered away unseen
    with pytest.raises(ArithmeticError):
        count_zeros(lambda t: math.nan if abs(t - 30.0) < 0.05 else t - 30.0, (5.0, 60.0))


@pytest.mark.parametrize("case, interval", [(barrier_end, (5.0, 60.0)),
                                            (barrier_interior, (5.0, 60.0)),
                                            (two_wire, (3.0, 60.0))])
def test_refined_zeros_match_a_tight_brentq(case, interval):
    from scipy.optimize import brentq
    from qgraph import evans, split_graph, two_sided_value
    g, bc, spec = case()
    rep = verify_counting(g, bc, spec, interval)
    parts = split_graph(g, bc, spec)
    terms = [(rep.full, lambda t: evans(g, bc, t).value),
             (rep.map_report, lambda t: two_sided_value(g, bc, spec, t))]
    terms += [(r, lambda t, p=parts[k]: evans(*p, t).value) for k, r in rep.pieces.items()]
    for r, f in terms:
        for z, m in r.zeros:
            if m == 1:
                ref = brentq(lambda t: float(f(t)), z - 1e-6, z + 1e-6, xtol=1e-15)
                assert abs(z - ref) <= 1e-12, (z, ref)


def test_verify_counting_work_guard(monkeypatch):
    # evaluations of one identity check's terms: each term refines all its
    # brackets in lock-step from the grid values, the endpoint probes are
    # batched, and both inertias read one stack at the ends.  The terms are
    # planned once; every evaluation of the plan is counted, and no map
    # value is evaluated
    maps = importlib.import_module("qgraph.maps")
    propagate = importlib.import_module("qgraph.propagate")
    calls = []
    stack = propagate.LegPlan.stack

    def no_value(terms, lams, t=None):
        raise AssertionError("verify_counting evaluated a map value")

    monkeypatch.setattr(propagate.LegPlan, "stack", lambda plan, lams: calls.append(
        np.size(lams)) or stack(plan, lams))
    monkeypatch.setattr(maps.SplitTerms, "value", no_value)
    g, bc, spec = barrier_end()
    assert verify_counting(g, bc, spec, (5.0, 60.0)).holds
    assert 0 < len(calls) <= 12, calls


def test_barrier_end_reference_run():
    g, bc, spec = barrier_end()
    rep = verify_counting(g, bc, spec, (5.0, 60.0))
    assert rep.summary() == "4 = 1 + 3 + 0 PASS"
    assert rep.holds and rep.full.count == 4 and rep.delta_N == 0
    assert [z for z, _ in rep.full.zeros] == pytest.approx(
        [6.58182415, 19.47846103, 36.41482920, 58.12900901], abs=1e-7)
    assert [p for p, _ in rep.map_report.poles] == pytest.approx(
        [5.55165248, 12.2066099, 22.2066099, 49.96487228], abs=1e-6)
    assert all(o == 1 for _, o in rep.map_report.poles)
    assert rep.map_report.count == 4  # interlaced zeros balance the poles


def test_barrier_interior_reference_run():
    g, bc, spec = barrier_interior()
    rep = verify_counting(g, bc, spec, (5.0, 60.0))
    assert rep.summary() == "4 = 1 + 1 + 2 + 0 PASS"
    assert rep.pieces_total == 4 and rep.delta_N == 0
    orders = {round(p, 3): o for p, o in rep.map_report.poles}
    assert len(orders) == 3
    # two piece determinants vanish together at (2 pi)^2: order-two pole
    assert orders[round(4 * np.pi ** 2, 3)] == 2
    assert [p for p, _ in rep.map_report.poles] == pytest.approx(
        [14.212, 29.478, 39.478], abs=2e-3)


def test_two_wire_reference_runs():
    g, bc, spec = two_wire()
    rep = verify_counting(g, bc, spec, (3.0, 60.0))
    assert rep.summary() == "4 = 1 + 1 + 1 + 1 PASS"
    assert [z for z, _ in rep.full.zeros] == pytest.approx(
        [4.24769163, 18.37233742, 34.94099293, 56.17836661], abs=1e-7)
    assert dict((round(p, 3), o) for p, o in rep.map_report.poles) == {
        round(4 * np.pi ** 2 - 10, 3): 1, round(4 * np.pi ** 2, 3): 2}
    # the same split on [5, 60] loses the ground state and the map credit
    rep5 = verify_counting(g, bc, spec, (5.0, 60.0))
    assert rep5.summary() == "3 = 1 + 1 + 1 + 0 PASS"


def test_grid_doubling_is_stable():
    g, bc, spec = barrier_end()
    a = verify_counting(g, bc, spec, (5.0, 60.0))
    b = verify_counting(g, bc, spec, (5.0, 60.0), grid=5600)
    assert a.summary() == b.summary()
    za = [z for z, _ in a.full.zeros]
    zb = [z for z, _ in b.full.zeros]
    assert za == pytest.approx(zb, abs=1e-8)


def test_interval_additivity():
    g, bc, _ = barrier_end()
    whole = count_eigenvalues(g, bc, (5.0, 60.0))
    left = count_eigenvalues(g, bc, (5.0, 25.0))
    right = count_eigenvalues(g, bc, (25.0, 60.0))
    assert whole.count == left.count + right.count


@pytest.mark.parametrize("problem", ["omega2:D", "wire1"])
def test_endpoint_on_a_pole_is_nudged(problem):
    # an interval end on an eigenvalue of a piece (a pole of MM1 + MM2) or of
    # a wire with a Dirichlet vertex end (a pole of A_v: pi^2 on barrier_end's
    # free wire) is nudged off it, and the identity holds
    from scipy.optimize import brentq
    from qgraph import evans, split_graph
    g, bc, spec = barrier_end()
    if problem == "wire1":
        e0 = np.pi ** 2
    else:
        e0 = brentq(lambda t: float(evans(*split_graph(g, bc, spec)[problem], t).value),
                    5.4, 5.7, xtol=1e-13)
    with pytest.warns(EndpointNudged):
        rep = verify_counting(g, bc, spec, (e0, 60.0))
    assert rep.holds, rep.summary()
    assert rep.interval[0] > e0


def test_endpoint_on_eigenvalue_is_nudged():
    from scipy.optimize import brentq
    from qgraph import evans
    g, bc, spec = barrier_end()
    # the second eigenvalue sits where x +- 1e-10 == x (above |x| ~ 2.1e6)
    for bracket, hi in (((6.4, 6.8), 60.0), ((3001859.04, 3001859.06), 3001899.0)):
        e0 = brentq(lambda t: float(evans(g, bc, t).value), *bracket, xtol=1e-13)
        with pytest.warns(EndpointNudged):
            rep = verify_counting(g, bc, spec, (e0, hi))
        assert rep.holds
        assert rep.interval[0] > e0


def test_complex_boundary_data_rejected(rng):
    g = rand_graph(2, rng)
    with pytest.raises(ValueError):
        count_eigenvalues(g, rand_bc_cayley(2, rng), (5.0, 20.0))


def test_counting_identity_random_single_cuts(rng):
    for _ in range(3):
        g = rand_graph(2, rng, depth=8.0)
        bc = rand_bc_real(2, rng, margin=0.3)
        j = int(rng.integers(2))
        spec = SplitSpec(((j, 0.45 * g.edges[j].length),), SINGLE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EndpointNudged)
            rep = verify_counting(g, bc, spec, (4.0, 30.0))
        assert rep.holds, rep.summary()


def _equal_wires(n):
    """Kirchhoff star of n free wires of length 1 with Dirichlet ends: (m pi)^2
    is an eigenvalue of multiplicity n - 1, and 22.2066 a simple one."""
    return StarGraph(tuple(free_edge(1.0) for _ in range(n))), build_preset("kirchhoff", n)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: sign changes and dips "
                   "cannot count a multiplicity above two")
@pytest.mark.parametrize("n, count", [(4, 7), (5, 9)])
def test_equal_wire_stars_count_every_multiplicity(n, count):
    # pi^2 and 4 pi^2 have multiplicity 3 at n = 4 (counted once today) and
    # 4 at n = 5 (counted twice): the scan gives 3 and 5
    assert count_eigenvalues(*_equal_wires(n), (5.0, 60.0)).count == count


@pytest.mark.parametrize("n", [4, 5])
def test_equal_wire_stars_fail_the_identity_on_a_midpoint_cut(n):
    # the miscount shows in verify_counting
    g, bc = _equal_wires(n)
    assert not verify_counting(g, bc, SplitSpec(((0, 0.5),), SINGLE), (5.0, 60.0)).holds


@pytest.mark.parametrize("n, cut", [(3, 0.5), (4, 0.3), (4, 0.5), (5, 0.5)])
def test_equal_wire_stars_are_judged_by_the_vertex_cut(n, cut):
    # on [5, 60] the star has (m pi)^2 with multiplicity n - 1 for m = 1, 2
    # and (3 pi / 2)^2, 2 n - 1 in all; every wire cut at the vertex has
    # simple zeros only, so the vertex cut counts them.  At n = 3 the scan
    # counts each double zero as a dip and the identity holds; at n = 4 and
    # 5 it miscounts the full graph, and the verdict names it
    g, bc = _equal_wires(n)
    rep = verify_counting(g, bc, SplitSpec(((0, cut),), SINGLE), (5.0, 60.0))
    assert rep.vertex_count == 2 * n - 1
    assert rep.holds == (n == 3), rep.summary()
    assert rep.holds or "the Evans scan" in rep.summary(), rep.summary()


def test_wide_star_identity_holds_at_128_wires():
    # the inertia of MM1 + MM2 at the ends gives delta_N = +1, which the
    # lumped FE count confirms (186 eigenvalues on [1, 40])
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridTooCoarse)  # the scan's close zeros, all found
        rep = verify_counting(*wide_star(128, 1), (1.0, 40.0))
    dt = time.perf_counter() - t0
    assert rep.summary() == "186 = 0 + 1 + 184 + 1 PASS" and rep.vertex_count == 186
    assert dt < 3.0, dt


def _removable_pole_cases():
    """Splits whose pieces have eigenfunctions with no flux at the cut.
    Such an eigenfunction extends by zero to one of the full star, so its
    eigenvalue is no pole of the two-sided map.  The counts are those of a
    lumped FE inertia count (1000 and 4000 cells per unit length) for the
    Kirchhoff star of wires 1, 1.3, 1.3 with Dirichlet ends, whose
    (k pi / 1.3)^2 modes are odd across the equal wires and vanish on wire
    0, and of the closed forms k tan(k L) = 3 and tan(0.4 k) = -k / 3 for
    the decoupled robin star of wires 1, 1.5."""
    g = StarGraph((free_edge(1.0), free_edge(1.3), free_edge(1.3)))
    bc = build_preset("kirchhoff", 3)
    robin = (StarGraph((free_edge(1.0), free_edge(1.5))),
             build_preset("robin", 2, theta=[-3.0, 0.0, 0.0]))
    return {"kirchhoff-single": (g, bc, SplitSpec(((0, 0.5),), SINGLE), (1.0, 60.0), 8, [1, 7]),
            "kirchhoff-same-wire": (g, bc, SplitSpec(((0, 0.7), (0, 0.3)), SAME_WIRE),
                                    (1.0, 60.0), 8, [0, 0, 6]),
            "robin-single": (*robin, SplitSpec(((0, 0.4),), SINGLE), (-20.0, 30.0), 5, [1, 4])}


def test_removable_pole_cases_count_every_term():
    for g, bc, spec, interval, full, pieces in _removable_pole_cases().values():
        rep = verify_counting(g, bc, spec, interval)
        assert rep.full.count == full
        assert [r.count for r in rep.pieces.values()] == pieces


@pytest.mark.parametrize("case", sorted(_removable_pole_cases()))
def test_removable_map_poles_are_not_counted(case):
    g, bc, spec, interval, _, _ = _removable_pole_cases()[case]
    rep = verify_counting(g, bc, spec, interval)
    assert rep.holds, rep.summary()
    assert rep.delta_N == rep.full.count - rep.pieces_total


def _near_coincident_case(eps):
    """Kirchhoff star of free wires 1 and 1 + eps with Dirichlet ends, cut
    at the middle of both wires: the pieces put map poles at (k pi / 0.5)^2
    and (k pi / (0.5 + eps))^2, a relative distance of about 4 eps."""
    g = StarGraph((free_edge(1.0), free_edge(1.0 + eps)))
    return g, build_preset("kirchhoff", 2), SplitSpec(((0, 0.5), (1, 0.5)), TWO_WIRES)


_NEAR_COINCIDENT = {2e-10: (10000.0, 10300.0), 2e-9: (10000.0, 10300.0), 2e-8: (5.0, 60.0)}


def test_near_coincident_poles_count_every_term():
    from qgraph.maps import SplitTerms
    for eps, interval in _NEAR_COINCIDENT.items():
        g, bc, spec = _near_coincident_case(eps)
        rep = verify_counting(g, bc, spec, interval)
        # the inertia of A = MM1 + MM2 at the ends is a second route to delta_N
        a = np.add(*SplitTerms(g, bc, spec).blocks(np.array(rep.interval)))
        lo, hi = (int((np.linalg.eigvalsh(m) < 0).sum()) for m in a)
        assert hi - lo == rep.full.count - rep.pieces_total
        if eps == 2e-10:
            assert rep.full.count == 1
            assert [r.count for r in rep.pieces.values()] == [1, 1, 1]
        if eps == 2e-8:
            assert rep.holds, rep.summary()
            assert rep.delta_N == rep.full.count - rep.pieces_total


def test_near_coincident_poles_keep_the_zero_between_them():
    g, bc, spec = _near_coincident_case(2e-10)
    rep = verify_counting(g, bc, spec, _NEAR_COINCIDENT[2e-10])
    assert rep.holds, rep.summary()
    assert rep.delta_N == rep.full.count - rep.pieces_total


def test_near_coincident_poles_keep_their_locations():
    g, bc, spec = _near_coincident_case(2e-9)
    rep = verify_counting(g, bc, spec, _NEAR_COINCIDENT[2e-9])
    poles = [p for p, order in rep.map_report.poles for _ in range(order)]
    zeros = sorted(z for r in rep.pieces.values() for z, m in r.zeros for _ in range(m))
    assert poles == pytest.approx(zeros, abs=1e-9)


def _endpoint_stays_on_a_spectrum():
    # tilde1:D has a zero at (pi / (0.5 + eps))^2 and the other pieces at
    # (2 pi)^2, 1.0e-9 higher: the nudge by 10 h = 1e-9 lands on it
    eps = 6.33e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EndpointNudged)
        verify_counting(*_near_coincident_case(eps), ((np.pi / (0.5 + eps)) ** 2, 60.0))


def _complex_boundary_data():
    g, _, spec = barrier_end()
    verify_counting(g, rand_bc_cayley(2, np.random.default_rng(0)), spec, (5.0, 60.0))


@pytest.mark.parametrize("call, error, word", [
    (_complex_boundary_data, ValueError, "real boundary data"),
    (_endpoint_stays_on_a_spectrum, EndpointOnSpectrum, "after nudging"),
    # unchecked, 2.7 and True gave the 65-point floor and "300" 301 points
    *((lambda f=f, grid=grid: f(grid), TypeError, "scan grid must be an integer")
      for f in (lambda grid: count_zeros(np.sin, (1.0, 40.0), grid=grid),
                lambda grid: count_eigenvalues(*barrier_end()[:2], (1.0, 40.0), grid=grid),
                lambda grid: verify_counting(*barrier_end(), (1.0, 40.0), grid=grid))
      for grid in (2.7, True, "300")),
])
def test_bad_input_is_rejected(call, error, word):
    with pytest.raises(error, match=word):
        call()
