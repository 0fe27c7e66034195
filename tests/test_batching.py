"""One kernel call per step for several problems: the batched Evans path
against each problem alone, the kernel-call budget of a counting identity,
the memory rule for lambda batches, the lazily built split, and the verify
suites: the map checks and one-sided maps on an array of lambda against
their scalar calls, and the kernel calls of a verify table and of a
resolvent application."""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import barrier_end, barrier_interior, pc, rand_bc_cayley, rand_bc_real, two_wire
from qgraph import (EdgeSpec, Sampled, SplitSpec, StarGraph, build_preset, cli,
                    count_eigenvalues, evans, frame_matrix, free_edge, fundamental_frame,
                    resolvent, resolvent_apply, split_graph, verify_counting)
from qgraph.graphs import SINGLE, TWO_WIRES

evans_module = importlib.import_module("qgraph.evans")
maps_module = importlib.import_module("qgraph.maps")
graphs_module = importlib.import_module("qgraph.graphs")


def _star(rng, n, sampled):
    edges = []
    for j in range(n):
        length = rng.uniform(0.5, 2.0)
        if sampled and j == 0:
            xs = np.linspace(0.0, length, int(rng.integers(2, 12)))
            edges.append(EdgeSpec(length, Sampled(tuple(xs), tuple(rng.uniform(-15, 15, xs.size)))))
            continue
        nodes = [0.0, *np.sort(rng.uniform(0.1, 0.9, int(rng.integers(0, 3)))) * length, length]
        edges.append(EdgeSpec(length, pc(*[(a, b, rng.uniform(-15.0, 15.0))
                                           for a, b in zip(nodes[:-1], nodes[1:])])))
    return StarGraph(tuple(edges))


@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       size=st.integers(1, 400), complex_lam=st.booleans(), moved=st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batched_evans_is_each_problem_alone(seed, sizes, size, complex_lam, moved):
    rng = np.random.default_rng(seed)
    problems = []
    for n in sizes:
        g = _star(rng, n, sampled=bool(rng.integers(2)))
        problems.append((g, rand_bc_cayley(n, rng) if rng.integers(2) else rand_bc_real(n, rng)))
    points = [rng.uniform(0.0, 1.0, g.n) * g.lengths if moved else None for g, _ in problems]
    lams = np.sort(rng.uniform(-5.0, 60.0, size))
    if complex_lam:
        lams = lams + 1j * rng.uniform(-3.0, 3.0, size)
    batched = evans_module._evans_each(problems, lams, points)
    for (g, bc), xs, vals in zip(problems, points, batched):
        assert np.array_equal(vals, evans(g, bc, lams, eval_point=xs).value)
        assert np.array_equal(vals, np.linalg.det(frame_matrix(fundamental_frame(g, bc, lams, xs))))


def _count_kernel_calls(monkeypatch, sizes):
    """Record the lambda count of every edge_transfers call, wherever a
    qgraph module binds the kernel."""
    for module in (evans_module, maps_module):
        if hasattr(module, "edge_transfers"):
            inner = module.edge_transfers

            def counted(legs, lams, inner=inner):
                sizes.append(np.size(lams))
                return inner(legs, lams)
            monkeypatch.setattr(module, "edge_transfers", counted)


def test_counting_identity_kernel_call_budget(monkeypatch):
    # the full graph and both pieces share each grid and refinement step, and
    # the map assembly propagates all its pieces together
    sizes = []
    _count_kernel_calls(monkeypatch, sizes)
    g, bc, spec = barrier_end()
    assert verify_counting(g, bc, spec, (5.0, 60.0)).holds
    assert len(sizes) <= 20, len(sizes)


def test_lambda_batches_follow_the_memory_rule(monkeypatch):
    lams = np.linspace(1.0, 60.0, 1000)
    for n, most in ((16, 64), (2, 1000)):
        sizes = []
        with monkeypatch.context() as m:
            _count_kernel_calls(m, sizes)
            vals = evans(StarGraph((free_edge(1.0),) * n), build_preset("kirchhoff", n), lams).value
        assert vals.shape == lams.shape and sum(sizes) == lams.size
        assert max(sizes) == most, (n, sizes)


def test_coincident_pieces_count_alone():
    # on two_wire omega1:D and tilde1:D are the same problem, so their brackets
    # sit at identical lambda; each report is the one its piece gives alone
    g, bc, spec = two_wire()
    parts = split_graph(g, bc, spec)
    rep = verify_counting(g, bc, spec, (3.0, 60.0))
    assert rep.pieces["omega1:D"].zeros == rep.pieces["tilde1:D"].zeros
    for key in ("omega1:D", "tilde1:D"):
        assert rep.pieces[key] == count_eigenvalues(*parts[key], rep.interval)


def test_split_builds_only_the_keys_it_reads(monkeypatch):
    g, bc, spec = two_wire()
    seen = []
    inner = graphs_module.validate_bc
    monkeypatch.setattr(graphs_module, "validate_bc", lambda c: seen.append(c) or inner(c))
    verify_counting(g, bc, spec, (3.0, 60.0))
    monkeypatch.setattr(graphs_module, "validate_bc", inner)
    dirichlet = [split_graph(g, bc, spec)[p.factor_key][1] for p in spec.pieces]
    assert 0 < len(seen) <= 1 + len(dirichlet)

    def same(a, b):
        return all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("alpha1", "alpha2", "beta1", "beta2"))
    assert all(c is bc or any(same(c, d) for d in dirichlet) for c in seen)
    # every key is still listed, and one read builds a problem once
    parts = split_graph(g, bc, spec)
    assert len(parts) == 8 and parts["tilde2:NN"] is parts["tilde2:NN"]
    with pytest.raises(TypeError):
        parts["omega1:D"] = parts["omega1:N"]


def _map_check_cases():
    """The three references and a seeded 4-wire star, cut once and on two wires."""
    g = _star(np.random.default_rng(5), 4, sampled=False)
    bc = build_preset("kirchhoff", 4)
    half = [0.5 * length for length in g.lengths]
    return [barrier_end(), barrier_interior(), two_wire(),
            (g, bc, SplitSpec(((1, half[1]),), SINGLE)),
            (g, bc, SplitSpec(((0, half[0]), (2, half[2])), TWO_WIRES))]


@pytest.mark.parametrize("case", range(5))
def test_map_checks_on_an_array_are_their_scalar_calls(case):
    g, bc, spec = _map_check_cases()[case]
    lams = np.random.default_rng(case).uniform(1.0, 60.0, 20)
    split = (maps_module.verify_single_split(g, bc, spec.cuts[0], t) if spec.mode == SINGLE
             else maps_module.verify_double_split(g, bc, spec, t) for t in (lams, *lams))
    minors = (maps_module.minor_identity_check(g, bc, t) for t in (lams, *lams))
    for batched, *scalars in (list(split), list(minors)):
        assert all(type(r) is float for r in scalars)
        assert batched.shape == lams.shape
        assert batched.tobytes() == np.array(scalars).tobytes()


@pytest.mark.parametrize("case", [0, 3])
def test_one_sided_maps_on_an_array_are_their_scalar_calls(case):
    # the single-cut cases: both maps of the cut, every field lambda by lambda
    g, bc, spec = _map_check_cases()[case]
    parts = split_graph(g, bc, spec)
    lams = np.random.default_rng(case).uniform(1.0, 60.0, 20)
    both = []
    for build in (lambda t: maps_module.map_M1(parts["omega1:D"], t),
                  lambda t: maps_module.map_M2(parts["omega2:D"], t, cut_edge=spec.cuts[0][0])):
        batched, scalars = build(lams), [build(t) for t in lams]
        for field in ("value", "numerator_evans", "denominator_evans"):
            got = getattr(batched, field)
            assert got.shape == lams.shape, field
            assert got.tobytes() == np.array([getattr(m, field) for m in scalars]).tobytes(), field
        both.append(batched)
    assert np.array_equal(maps_module.two_sided_sum(*both), both[0].value + both[1].value)


def test_verify_table_kernel_calls_do_not_grow_with_the_draws(monkeypatch):
    # every draw of a map check in one array call
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    for which in ("single", "minors"):
        calls = []
        for rounds in (1, 20):
            sizes = []
            with monkeypatch.context() as m:
                _count_kernel_calls(m, sizes)
                text, ok = cli.verify_table(sc, which, rounds=rounds)
            assert ok and len(text.splitlines()) == 1 + rounds
            calls.append(len(sizes))
        assert calls[0] == calls[1], (which, calls)


def test_resolvent_and_u_gamma_take_two_kernel_calls_a_lambda(monkeypatch):
    # one for the bundle's frames, one for every family on every edge
    g = _star(np.random.default_rng(3), 4, sampled=True)
    bc = build_preset("kirchhoff", 4)
    sizes = []
    _count_kernel_calls(monkeypatch, sizes)
    resolvent_apply(g, bc, 17.3, [1.0, 0.5, lambda x: np.sin(x), 2.0])
    assert len(sizes) <= 2, len(sizes)
    sizes.clear()
    resolvent._u_gamma(g, bc, 17.3, range(2 * g.n))
    assert len(sizes) <= 2, len(sizes)


def test_single_table_with_a_draw_on_a_pole_gives_the_loop_rows(monkeypatch):
    # the array call raises, and the table is the per-draw loop's, retry included
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    piece = split_graph(sc.graph, sc.bc, sc.splits)["omega1:D"]
    pole = count_eigenvalues(*piece, (5.0, 60.0)).zeros[0][0]
    real_sample, real_rows = cli._sample_lambdas, cli._residual_rows

    def first_on_pole(rng, sweep, rounds):
        lams = real_sample(rng, sweep, rounds)
        lams[0] = pole
        return lams

    monkeypatch.setattr(cli, "_sample_lambdas", first_on_pole)
    text, ok = cli.verify_table(sc, "single", seed=2, rounds=4)
    drawn = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    assert ok and drawn[0] != pole and abs(drawn[0] - pole) <= 0.5
    assert drawn[1:] == list(real_sample(np.random.default_rng(2), sc.sweep, 4)[1:])
    monkeypatch.setattr(cli, "_residual_rows",
                        lambda checks, fn, lams, batched=False: real_rows(checks, fn, lams))
    assert cli.verify_table(sc, "single", seed=2, rounds=4)[0] == text
