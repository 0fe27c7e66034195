"""End-to-end acceptance checks, one test per shipped criterion.

Each test prints a single `criterion N: PASS/FAIL - reason` line (visible
with -s or in captured output) and asserts the same conditions, so a FAIL
line always comes with a red test carrying the diagnostic.

Criterion 4 checks the closed-form displays in the Evans normalisation.  An
Evans function is fixed only up to a nowhere-vanishing factor; this one is
pinned by the frame data in `qgraph.evans` (Dirichlet ends launch
z(l) = 0, z'(l) = 1, which gives the sin(.)/k and sin(.)/w piece factors).
The test asserts zero-set agreement with the operator and a constant ratio
to the normalised determinant for the one-cut display and the corrected
two-cut form, plus the pointwise piece and quotient forms.  Two display
errata are recorded, not asserted:

- the one-cut display drops the 1/(sqrt(lam) sqrt(lam+10)) factor, so it
  equals sqrt(lam) sqrt(lam+10) E exactly and E only up to a lam-dependent
  factor;
- the two-cut display has argument and sign slips: 2+s1-s2 where
  2-(s1-s2) belongs, -10 where +10 belongs, and the sign of the 2kw term.
  Its zero set (3 zeros in [5, 60]) misses the operator's (4 zeros, which
  an independent finite-difference Laplacian reproduces).  The test uses
  the transfer-matrix form 2 sqrt(lam+10) E, also asserted in
  `tests/test_evans.py`.  With only the abstract in the repo, whether the
  slip is a swapped s1/s2 order or a V versus -V convention is not settled.

The printed criterion-4 line keeps the residuals of the literal displays.
"""
import time
import warnings

import numpy as np
import pytest

from conftest import (barrier_end, barrier_interior, pc, rand_bc_cayley,
                      rand_bc_real, rand_graph, two_wire)
from qgraph import (EndpointNudged, OnSpectrum, NoIndependentPartner,
                    PoleAtLambda, SplitSpec, StarGraph, build_projections,
                    count_zeros, evans, fundamental_frame, frame_matrix,
                    map_M1, map_M2, minor_identity_check,
                    projection_equations, resolvent_apply, segment_residual,
                    split_graph, u_gamma, verify_double_split,
                    verify_single_split, x_independence_check)
from oracle import c_matrix
from qgraph.cli import count_report, parse_scenario, _EXAMPLES
from qgraph.graphs import SAME_WIRE, SINGLE, TWO_WIRES, BoundaryData
from scipy.linalg import eigh_tridiagonal
from test_cli import _sampled_star

CONFIGS = []  # (graph, bc) pairs from the random suites, reused by criterion 10


def _line(n, ok, reason):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {reason}")


def _zeros(f, interval):
    return [z for z, _ in count_zeros(f, interval).zeros]


def _zero_sets_match(a, b, tol=1e-6):
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


def _ratio_constant(num, den, lams, rtol=1e-6):
    vals = np.array([num(t) for t in lams]) / np.array([den(t) for t in lams])
    mid = np.median(vals)
    return bool(np.max(np.abs(vals - mid)) <= rtol * abs(mid)), vals


def test_criterion_01_barrier_end_counts():
    from qgraph import verify_counting
    g, bc, spec = barrier_end()
    t0 = time.perf_counter()
    rep = verify_counting(g, bc, spec, (5.0, 60.0))
    dt = time.perf_counter() - t0
    ok = rep.summary() == "4 = 1 + 3 + 0 PASS" and dt < 5.0
    _line(1, ok, f"counts {rep.summary()!r} in {dt:.2f}s (budget 5s)")
    assert rep.summary() == "4 = 1 + 3 + 0 PASS"
    assert dt < 5.0


def test_criterion_02_barrier_interior_counts():
    from qgraph import verify_counting
    g, bc, spec = barrier_interior()
    t0 = time.perf_counter()
    rep = verify_counting(g, bc, spec, (5.0, 60.0))
    dt = time.perf_counter() - t0
    double_poles = [p for p, o in rep.map_report.poles if o == 2]
    ok = (rep.summary() == "4 = 1 + 1 + 2 + 0 PASS" and len(double_poles) == 1
          and dt < 10.0)
    _line(2, ok, f"counts {rep.summary()!r}, order-2 pole at "
                 f"{double_poles[0] if double_poles else None:.6g}, {dt:.2f}s")
    assert rep.summary() == "4 = 1 + 1 + 2 + 0 PASS"
    assert len(double_poles) == 1
    assert double_poles[0] == pytest.approx(4 * np.pi ** 2, abs=1e-6)
    assert dt < 10.0


def test_criterion_03_two_wire_counts_and_interval_note():
    t0 = time.perf_counter()
    human, machine, all_hold = count_report(parse_scenario(_EXAMPLES["two_wire"]))
    dt = time.perf_counter() - t0
    idents = [b["identity"] for b in machine["intervals"]]
    noted = "delta_N_by_interval" in machine
    ok = (idents[0] == "4 = 1 + 1 + 1 + 1 PASS" and all_hold and noted
          and dt < 10.0)
    _line(3, ok, f"[3,60] -> {idents[0]!r}, [5,60] -> {idents[1]!r}, "
                 f"interval dependence reported: {noted}, {dt:.2f}s")
    assert idents[0] == "4 = 1 + 1 + 1 + 1 PASS"
    assert machine["intervals"][0]["map"]["delta_N"] == 1
    assert idents[1] == "3 = 1 + 1 + 1 + 0 PASS"  # the stated window drops one
    assert noted and all_hold
    assert dt < 10.0


def test_criterion_04_closed_form_displays():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    s1 = 1 / 3
    rng = np.random.default_rng(404)
    pointwise = {"one_cut_outer": 0.0, "one_cut_star": 0.0,
                 "outer_quotient": 0.0, "star_quotient": 0.0}
    samples = 0
    while samples < 200:
        lam = rng.uniform(5.0, 60.0)
        k, w = np.sqrt(lam), np.sqrt(lam + 10)
        e1 = evans(*parts["omega1:D"], lam).value
        e2 = evans(*parts["omega2:D"], lam).value
        c1 = np.sin((1 - s1) * w) / w
        c2 = -np.sin(k * (1 + s1)) / k
        q1c = w * np.cos(w * (s1 - 1)) / np.sin(w * (s1 - 1))
        q2c = -k * np.cos(k * (1 + s1)) / np.sin(k * (1 + s1))
        if min(abs(c1), abs(c2)) < 1e-3 or max(abs(q1c), abs(q2c)) > 1e3:
            continue  # resample clear of the zeros/poles of the displays
        samples += 1
        q1 = evans(*parts["omega1:N"], lam).value / e1
        q2 = -evans(*parts["omega2:N"], lam).value / e2
        pointwise["one_cut_outer"] = max(pointwise["one_cut_outer"],
                                         abs(e1 - c1) / abs(c1))
        pointwise["one_cut_star"] = max(pointwise["one_cut_star"],
                                        abs(e2 - c2) / abs(c2))
        pointwise["outer_quotient"] = max(pointwise["outer_quotient"],
                                          abs(q1 - q1c) / abs(q1c))
        pointwise["star_quotient"] = max(pointwise["star_quotient"],
                                         abs(q2 - q2c) / abs(q2c))
    pointwise_ok = max(pointwise.values()) <= 1e-8

    def e_full(t):
        return float(evans(g, bc, t).value)

    def one_cut_display(t):
        k, w = np.sqrt(t), np.sqrt(t + 10)
        return (k * np.cos(k * (1 + s1)) * np.sin(w * (s1 - 1))
                - w * np.cos(w * (s1 - 1)) * np.sin(k * (1 + s1)))

    def e_full_normalised(t):
        return e_full(t) * np.sqrt(t) * np.sqrt(t + 10)

    zs_num = _zeros(e_full, (5.0, 60.0))
    zs_display = _zeros(one_cut_display, (5.0, 60.0))
    zero110_ok = _zero_sets_match(zs_num, zs_display)
    ratio_lams = [t for t in np.linspace(5.5, 59.5, 73)
                  if min(abs(t - z) for z in zs_num) > 0.5]
    ratio110_ok, vals110 = _ratio_constant(e_full_normalised, one_cut_display,
                                           ratio_lams)
    # erratum: the display drops the canonical 1/(k w) factor, so E itself
    # is not a constant multiple of it; once restored the match is exact
    _, bare110 = _ratio_constant(e_full, one_cut_display, ratio_lams)
    norm_dev = max(abs(e_full_normalised(t) - one_cut_display(t))
                   for t in ratio_lams)

    g2, bc2, _ = barrier_interior()
    s1b, s2b = 0.75, 0.25
    a = s1b - s2b  # well width

    def e2_full_normalised(t):
        return float(evans(g2, bc2, t).value) * 2 * np.sqrt(t + 10)

    def two_cut_form(t):
        # transfer-matrix reduction of 2 sqrt(lam+10) E
        k, w = np.sqrt(t), np.sqrt(t + 10)
        return ((2 * t + 10) * np.cos(k * (2 - a)) * np.sin(w * a)
                + 10.0 * np.cos(k) * np.sin(w * a)
                + 2 * k * w * np.cos(w * a) * np.sin(k * (2 - a)))

    def two_cut_display(t):
        # the literal display, kept for the printed residuals only
        k, w = np.sqrt(t), np.sqrt(t + 10)
        return ((2 * t + 10) * np.cos(k * (2 + s1b - s2b)) * np.sin(w * (s1b - s2b))
                + (-10.0) * np.cos(k * (s1b + s2b)) * np.sin(w * (s1b - s2b))
                - 2 * k * w * np.cos(w * (s1b - s2b)) * np.sin(k * (2 + s1b - s2b)))

    zs2_num = _zeros(e2_full_normalised, (5.0, 60.0))
    zs2_form = _zeros(two_cut_form, (5.0, 60.0))
    zs2_display = _zeros(two_cut_display, (5.0, 60.0))
    zero400_ok = _zero_sets_match(zs2_num, zs2_form)
    ratio400_ok, vals400 = _ratio_constant(
        e2_full_normalised, two_cut_form,
        [t for t in np.linspace(5.5, 59.5, 73)
         if min(abs(t - z) for z in zs2_num + zs2_form) > 0.5])

    ok = (pointwise_ok and zero110_ok and ratio110_ok and norm_dev < 1e-10
          and zero400_ok and ratio400_ok)
    _line(4, ok,
          f"pointwise piece/quotient forms <=1e-8: {pointwise_ok} "
          f"(worst {max(pointwise.values()):.2e}); one-cut display zero-set "
          f"{zero110_ok}, sqrt(lam) sqrt(lam+10) E ratio-constant "
          f"{ratio110_ok} (exact to {norm_dev:.1e}; the literal display drops "
          f"that factor, bare E ratio spans "
          f"{bare110.min():.3g}..{bare110.max():.3g}); two-cut form zero-set "
          f"{zero400_ok}, ratio-constant {ratio400_ok} "
          f"({vals400.min():.12g}..{vals400.max():.12g}); literal two-cut "
          f"display has {len(zs2_display)} zeros "
          f"{[round(z, 3) for z in zs2_display]} vs the operator's "
          f"{len(zs2_num)} {[round(z, 6) for z in zs2_num]}")
    assert pointwise_ok, f"pointwise residuals {pointwise}"
    assert zero110_ok
    assert norm_dev < 1e-10  # the constant-free normalization is exact
    assert ratio110_ok, ("one-cut normalised ratio varies: "
                         f"{vals110.min():.6g}..{vals110.max():.6g}")
    assert zero400_ok, (f"two-cut form zeros {zs2_form} vs operator "
                        f"zeros {zs2_num}")
    assert ratio400_ok, ("two-cut normalised ratio varies: "
                         f"{vals400.min():.6g}..{vals400.max():.6g}")


def _offpole(fn, lam, rng, tries=40):
    x = lam
    for _ in range(tries):
        try:
            return fn(x)
        except (PoleAtLambda, OnSpectrum, NoIndependentPartner,
                ArithmeticError, np.linalg.LinAlgError):
            x = lam + rng.uniform(-0.5, 0.5)
    raise AssertionError(f"no pole-free lambda near {lam}")


def test_criterion_05_factorization_identities():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    worst_single = 0.0
    for i in range(50):
        n = 2 + i % 3
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng, margin=0.1)
        CONFIGS.append((g, bc))
        j = int(rng.integers(n))
        cut = (j, float(rng.uniform(0.25, 0.75)) * g.edges[j].length)
        for lam in rng.uniform(2.0, 60.0, 20):
            r = _offpole(lambda t: verify_single_split(g, bc, cut, t), lam, rng)
            worst_single = max(worst_single, r)
    worst_double = 0.0
    for geometry in (SAME_WIRE, TWO_WIRES):
        for _ in range(25):
            g = rand_graph(3, rng)
            bc = rand_bc_real(3, rng, margin=0.1)
            CONFIGS.append((g, bc))
            l0, l1 = g.edges[0].length, g.edges[1].length
            if geometry is SAME_WIRE:
                spec = SplitSpec(((0, 0.7 * l0), (0, 0.3 * l0)), SAME_WIRE)
            else:
                spec = SplitSpec(((0, 0.55 * l0), (1, 0.5 * l1)), TWO_WIRES)
            for lam in rng.uniform(2.0, 60.0, 4):
                r = _offpole(lambda t: verify_double_split(g, bc, spec, t),
                             lam, rng)
                worst_double = max(worst_double, r)
    dt = time.perf_counter() - t0
    ok = worst_single <= 1e-7 and worst_double <= 1e-7 and dt < 60.0
    _line(5, ok, f"single worst {worst_single:.2e}, double worst "
                 f"{worst_double:.2e} (tol 1e-7), {dt:.1f}s (budget 60s)")
    assert worst_single <= 1e-7
    assert worst_double <= 1e-7
    assert dt < 60.0


def test_criterion_06_algebraic_identities():
    rng = np.random.default_rng(6)
    worst_det = 0.0
    for i in range(200):
        n = 2 + i % 3
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng)
        CONFIGS.append((g, bc))
        lam = float(rng.uniform(2.0, 60.0))
        f0 = fundamental_frame(g, bc, lam)
        lhs = (-1) ** n * np.linalg.det(frame_matrix(f0))
        rhs = np.linalg.det(c_matrix(f0, bc))
        worst_det = max(worst_det, abs(lhs - rhs) / (1.0 + abs(rhs)))
    worst_minor = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng)
        cuts = tuple(rng.choice(n, size=2, replace=False))
        lam = float(rng.uniform(2.0, 60.0))
        worst_minor = max(worst_minor, minor_identity_check(g, bc, lam, cuts))
    ok = worst_det <= 1e-9 and worst_minor <= 1e-8
    _line(6, ok, f"signed determinant identity worst {worst_det:.2e} "
                 f"(tol 1e-9, 200 bc), minor identity worst "
                 f"{worst_minor:.2e} (tol 1e-8, 50 configs)")
    assert worst_det <= 1e-9
    assert worst_minor <= 1e-8


def test_criterion_07_resolvent_correctness():
    rng = np.random.default_rng(7)
    worst_gamma, worst_seg = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng)
        CONFIGS.append((g, bc))
        v = [float(a) for a in rng.uniform(-2.0, 2.0, n)]
        lam = float(rng.uniform(2.0, 50.0))

        def both(t):
            app = resolvent_apply(g, bc, t, v)
            return app.gamma_residual, segment_residual(g, t, app, v)

        gres, sres = _offpole(both, lam, rng)
        worst_gamma = max(worst_gamma, gres)
        worst_seg = max(worst_seg, sres)
    ok = worst_gamma <= 1e-8 and worst_seg <= 1e-7
    _line(7, ok, f"gamma-trace worst {worst_gamma:.2e} (tol 1e-8), ODE defect "
                 f"worst {worst_seg:.2e} (tol 1e-7), 20 triples")
    assert worst_gamma <= 1e-8
    assert worst_seg <= 1e-7


def test_criterion_08_projection_suite():
    rng = np.random.default_rng(8)
    worst_matrix, worst_trace = 0.0, 0.0
    for i in range(200):
        n = 2 + i % 2
        bc = rand_bc_cayley(n, rng) if i % 3 == 0 else rand_bc_real(n, rng)
        ps = build_projections(bc)
        eye = np.eye(2 * n)
        checks = [np.abs(ps.U @ ps.U.conj().T - eye).max(),
                  np.abs(ps.P_D + ps.P_N + ps.P_R - eye).max(),
                  np.abs((ps.U + eye) @ ps.P_D).max(),
                  np.abs((ps.U - eye) @ ps.P_N).max()]
        if ps.rank_R:
            checks.append(np.abs(ps.Lambda - ps.Lambda.conj().T).max())
        worst_matrix = max(worst_matrix, max(checks))
        g = StarGraph(tuple(rand_graph(1, rng).edges[0] for _ in range(n)))
        CONFIGS.append((g, bc))

        def trace_res(t):
            app = resolvent_apply(g, bc, t, [1.0] * n)
            bd = BoundaryData([u[-1] for u in app.output],
                              [u[-1] for u in app.output_deriv],
                              [u[0] for u in app.output],
                              [u[0] for u in app.output_deriv])
            return max(projection_equations(ps, bd))

        worst_trace = max(worst_trace,
                          _offpole(trace_res, float(rng.uniform(3, 40)), rng))
    ok = worst_matrix <= 1e-10 and worst_trace <= 1e-8
    _line(8, ok, f"matrix checks worst {worst_matrix:.2e} (tol 1e-10), trace "
                 f"relations worst {worst_trace:.2e} (tol 1e-8), 200 bc")
    assert worst_matrix <= 1e-10
    assert worst_trace <= 1e-8


def test_criterion_09_dual_path_agreement():
    rng = np.random.default_rng(9)
    worst_map = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng, margin=0.1)
        CONFIGS.append((g, bc))
        j = int(rng.integers(n))
        spec = SplitSpec(((j, 0.5 * g.edges[j].length),), SINGLE)
        parts = split_graph(g, bc, spec)
        for lam in rng.uniform(2.0, 60.0, 3):
            r1 = _offpole(lambda t: map_M1(parts["omega1:D"], t).route_residual,
                          lam, rng)
            r2 = _offpole(
                lambda t: map_M2(parts["omega2:D"], t, cut_edge=j).route_residual,
                lam, rng)
            worst_map = max(worst_map, r1, r2)
    worst_ug = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 3))
        g = rand_graph(n, rng)
        bc = rand_bc_real(n, rng)
        i = int(rng.integers(2 * n))
        ug = _offpole(lambda t: u_gamma(g, bc, t, i),
                      float(rng.uniform(3, 40)), rng)
        worst_ug = max(worst_ug, ug.sup_discrepancy)
    ok = worst_map <= 1e-8 and worst_ug <= 1e-7
    _line(9, ok, f"map route residual worst {worst_map:.2e} (tol 1e-8), "
                 f"boundary-data solution sup worst {worst_ug:.2e} (tol 1e-7)")
    assert worst_map <= 1e-8
    assert worst_ug <= 1e-7


def test_criterion_10_evaluation_point_invariance():
    rng = np.random.default_rng(10)
    if not CONFIGS:  # running standalone: rebuild a representative suite
        for i in range(30):
            n = 2 + i % 3
            CONFIGS.append((rand_graph(n, rng), rand_bc_real(n, rng)))
    worst = 0.0
    for g, bc in CONFIGS:
        lens = np.array([e.length for e in g.edges])
        pts = [np.zeros(g.n)] + [rng.uniform(0, 1, g.n) * lens for _ in range(4)]
        lam = float(rng.uniform(2.0, 60.0))
        worst = max(worst, x_independence_check(g, bc, lam, pts))
    ok = worst <= 1e-9
    _line(10, ok, f"determinant spread over 5 evaluation points worst "
                  f"{worst:.2e} (tol 1e-9) across {len(CONFIGS)} configurations")
    assert worst <= 1e-9


def _fd_star_spectrum(sc, interval, cells):
    """Eigenvalues in interval of a two-wire Kirchhoff star with Dirichlet
    ends by second-order finite differences, cells per unit length.  The
    origin conditions make the star one interval, wire 0 reversed then
    wire 1, and the three-point Laplacian on it is tridiagonal."""
    (e0, e1) = sc.graph.edges
    h = 1.0 / cells
    x0 = np.linspace(0.0, e0.length, round(e0.length * cells) + 1)
    x1 = np.linspace(0.0, e1.length, round(e1.length * cells) + 1)
    assert np.isclose(x0[1], h) and np.isclose(x1[1], h)
    v = np.concatenate([[e0.potential.value_at(x) for x in x0[-2:0:-1]],
                        [e1.potential.value_at(x) for x in x1[:-1]]])
    return eigh_tridiagonal(2.0 / h ** 2 + v, np.full(v.size - 1, -1.0 / h ** 2),
                            select="v", select_range=interval)[0]


def test_criterion_11_sampled_star_default_grid_count():
    # a sampled (piecewise-linear) well counted on the default grid, with
    # every Evans value from the exact segment steps
    data = _sampled_star().to_dict()
    data.pop("sweep")
    data["count"] = {"intervals": [[5.0, 60.0]]}
    sc = parse_scenario(data)
    t0 = time.perf_counter()
    human, machine, all_hold = count_report(sc)
    dt = time.perf_counter() - t0
    zeros = [z for z, _ in machine["intervals"][0]["full"]["zeros"]]
    coarse, fine = (_fd_star_spectrum(sc, (5.0, 60.0), c) for c in (1024, 2048))
    estimate = np.abs(coarse - fine)  # two-mesh error estimate of the coarse mesh
    dev = np.abs(np.array(zeros) - fine) if len(zeros) == len(fine) else np.inf
    ok = all_hold and len(coarse) == len(zeros) and np.all(dev <= estimate) and dt < 10.0
    _line(11, ok, f"{machine['intervals'][0]['identity']!r} in {dt:.2f}s (ceiling 10s), "
                  f"eigenvalues off the finite-difference spectrum by at most "
                  f"{np.max(dev / estimate):.2f} of its two-mesh error estimate")
    assert all_hold, human
    assert len(coarse) == len(fine) == len(zeros)
    assert np.all(dev <= estimate)
    assert dt < 10.0
