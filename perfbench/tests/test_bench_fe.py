"""The finite-element reference reproduces closed forms at O(h^2)."""
import numpy as np
import pytest

import checks
import fe
import inputs

FREE = fe.Potential("pieces", ((0.0, 1.0, 0.0),))
CELLS = inputs.FE_CELLS


def _interval(vertex, end):
    return fe.Problem((fe.Wire(1.0, FREE, CELLS, end),), vertex)


def _star(n, end=fe.DIRICHLET):
    return fe.Problem(tuple(fe.Wire(1.0, FREE, CELLS, end) for _ in range(n)), fe.KIRCHHOFF)


def _second_order(problem, exact, lo, hi):
    """Fine and coarse errors shrink by 4 with h, the two-mesh estimate
    bounds the fine error, and the fine error stays well inside the sweep
    check's margin."""
    exact = np.sort(np.asarray(exact, dtype=float))
    fine = fe.eigenvalues(problem, lo, hi)
    coarse = fe.eigenvalues(problem, lo, hi, coarse=True)
    assert fine.size == coarse.size == exact.size
    e_fine, e_coarse = fine - exact, coarse - exact
    big = np.abs(exact) > 1.0
    np.testing.assert_allclose(e_coarse[big] / e_fine[big], 4.0, rtol=2e-2)
    spec = fe.spectrum(problem, lo, hi)
    assert np.all(np.abs(e_fine) <= spec.errors)
    assert np.all(np.abs(e_fine) <= 0.2 * checks.SWEEP_MARGIN * (1 + np.abs(exact)))


def test_dirichlet_interval():
    _second_order(_interval(fe.DIRICHLET, fe.DIRICHLET),
                  [(k * np.pi) ** 2 for k in range(1, 4)], 1.0, 100.0)


def test_neumann_interval():
    # a one-wire Kirchhoff vertex is a Neumann end; 0 is an eigenvalue
    _second_order(_interval(fe.KIRCHHOFF, fe.NEUMANN),
                  [(k * np.pi) ** 2 for k in range(0, 4)], -1.0, 100.0)


@pytest.mark.parametrize("n", [3, 4])
def test_kirchhoff_star_multiplicity(n):
    """Equal wires, Dirichlet ends: cos(k) = 0 once, sin(k) = 0 with
    multiplicity n - 1."""
    simple = [((k + 0.5) * np.pi) ** 2 for k in range(3)]
    multiple = [(k * np.pi) ** 2 for k in range(1, 4) for _ in range(n - 1)]
    exact = [x for x in simple + multiple if x <= 100.0]
    _second_order(_star(n), exact, 1.0, 100.0)
    counts = fe.count_below(_star(n), [9.0, 10.0])
    assert counts[1] - counts[0] == n - 1


def test_inertia_counts_match_eigenvalues():
    rng = np.random.default_rng(3)
    star = inputs.random_star(rng, 5, "two_wires")
    problem = inputs.full_problem(star)
    vals = fe.eigenvalues(problem, 1.0, 60.0)
    probes = np.linspace(1.0, 60.0, 50)
    assert np.array_equal(fe.count_below(problem, probes) - fe.count_below(problem, [1.0])[0],
                          np.searchsorted(vals, probes))


def test_sampled_antiderivative_is_exact_for_linear_interpolation():
    pot = fe.Potential("samples", ((0.0, 0.5, 1.0), (2.0, -2.0, 0.0)))
    x = np.array([0.25, 0.5, 0.75, 1.0])
    # trapezoids of the linear interpolant between samples and inside a segment
    np.testing.assert_allclose(pot.antiderivative(x), [0.25, 0.0, -0.375, -0.5], atol=1e-15)


def test_source_solve_second_order():
    """-u'' - lam u = v on [0, 1], u(0) = u(1) = 0: u = v/lam (cos(k(x - 1/2)) / cos(k/2) - 1)."""
    lam, v = 7.3, 1.5
    k = np.sqrt(lam)
    problem = _interval(fe.DIRICHLET, fe.DIRICHLET)
    fine, = fe.solve_source(problem, lam, [v])
    coarse, = fe.solve_source(problem, lam, [v], coarse=True)

    def exact(n):
        x = np.linspace(0.0, 1.0, n + 1)
        return v / lam * (np.cos(k * (x - 0.5)) / np.cos(k / 2) - 1.0)

    e_fine = np.max(np.abs(fine - exact(CELLS)))
    e_coarse = np.max(np.abs(coarse - exact(CELLS // 2)))
    assert 3.8 < e_coarse / e_fine < 4.2
    assert e_fine <= np.max(np.abs(fine[::2] - coarse))
