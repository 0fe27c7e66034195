"""One kernel call per step for several problems: the batched Evans path
against each problem alone, the kernel-call budget of a counting identity,
the plan budget of a command (every leg planned once, one plan for
every term of a split),
the memory rule for lambda batches, the lazily built split, and the verify
suites: the map checks and one-sided maps on an array of lambda against
their scalar calls, the kernel calls of a verify table and of a resolvent
application, the lambda-batched resolvent core against its one-lambda
calls, and the passes of a resolvent or ugamma table."""
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (barrier_end, barrier_interior, pc, rand_bc_cayley, rand_bc_real,
                      two_wire, wide_star)
from qgraph import (EdgeSpec, Sampled, SplitSpec, StarGraph, build_preset, cli,
                    count_eigenvalues, evans, frame_matrix, free_edge, fundamental_frame,
                    resolvent, resolvent_apply, split_graph, verify_counting)
from qgraph.graphs import SINGLE, TWO_WIRES
from test_cli import _loop_rows, _sampled_star

evans_module = importlib.import_module("qgraph.evans")
maps_module = importlib.import_module("qgraph.maps")
graphs_module = importlib.import_module("qgraph.graphs")
propagate_module = importlib.import_module("qgraph.propagate")


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
    batched = evans_module._evans_values(problems, points)(lams)
    for (g, bc), xs, vals in zip(problems, points, batched):
        assert np.array_equal(vals, evans(g, bc, lams, eval_point=xs).value)
        dets = np.linalg.det(frame_matrix(fundamental_frame(g, bc, lams, xs)))
        assert np.abs(vals - dets).max() <= 1e-12 * np.abs(dets).max()


def _count_kernel_calls(monkeypatch, sizes):
    """Record the lambda count of every kernel call: every evaluation of a
    leg plan, whichever module made the plan."""
    for name in ("stack", "solutions"):
        inner = getattr(propagate_module.LegPlan, name)

        def counted(plan, lams, *data, inner=inner):
            sizes.append(np.size(lams))
            return inner(plan, lams, *data)
        monkeypatch.setattr(propagate_module.LegPlan, name, counted)


def test_counting_identity_kernel_call_budget(monkeypatch):
    # the full graph and both pieces share each grid and refinement step, and
    # the map assembly propagates all its pieces together
    sizes = []
    _count_kernel_calls(monkeypatch, sizes)
    g, bc, spec = barrier_end()
    assert verify_counting(g, bc, spec, (5.0, 60.0)).holds
    assert len(sizes) <= 20, len(sizes)


def test_lambda_batches_follow_the_memory_rule(monkeypatch):
    # a determinant problem counts n^2 a lambda, a star-pass problem n
    lams = np.linspace(1.0, 60.0, 1000)
    for preset, n, most in (("robin", 16, 64), ("kirchhoff", 16, 1000), ("kirchhoff", 2, 1000)):
        sizes = []
        with monkeypatch.context() as m:
            _count_kernel_calls(m, sizes)
            vals = evans(StarGraph((free_edge(1.0),) * n), build_preset(preset, n), lams).value
        assert vals.shape == lams.shape and sum(sizes) == lams.size
        assert max(sizes) == most, (preset, n, sizes)


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
def test_one_sided_maps_on_an_array_are_their_scalar_calls(case, monkeypatch):
    # the single-cut cases: both maps of the cut, every field lambda by
    # lambda, each from one kernel evaluation of its Dirichlet and Neumann
    # problems
    g, bc, spec = _map_check_cases()[case]
    parts = split_graph(g, bc, spec)
    lams = np.random.default_rng(case).uniform(1.0, 60.0, 20)
    both = []
    for build in (lambda t: maps_module.map_M1(parts["omega1:D"], t),
                  lambda t: maps_module.map_M2(parts["omega2:D"], t, cut_edge=spec.cuts[0][0])):
        sizes = []
        with monkeypatch.context() as m:
            _count_kernel_calls(m, sizes)
            batched = build(lams)
        assert sizes == [3 * lams.size]
        scalars = [build(t) for t in lams]
        for field in ("value", "numerator_evans", "denominator_evans"):
            got = getattr(batched, field)
            assert got.shape == lams.shape, field
            assert got.tobytes() == np.array([getattr(m, field) for m in scalars]).tobytes(), field
        both.append(batched)
    assert np.array_equal(maps_module.two_sided_sum(*both), both[0].value + both[1].value)


def test_verify_table_kernel_calls_do_not_grow_with_the_draws(monkeypatch):
    # every draw of a map check in one array call: a split check makes one
    # kernel evaluation a table, at its pole probes, which gives the Evans
    # terms and the map blocks; the minors two, their four problems and
    # the 2n x 2n frame
    for name, which, calls in (("barrier_end", "single", 1), ("barrier_end", "minors", 2),
                               ("barrier_interior", "double", 1), ("two_wire", "double", 1)):
        sc = cli.parse_scenario(cli._EXAMPLES[name])
        for rounds in (1, 20):
            sizes = []
            with monkeypatch.context() as m:
                _count_kernel_calls(m, sizes)
                text, ok = cli.verify_table(sc, which, rounds=rounds)
            assert ok and len(text.splitlines()) == 1 + rounds
            assert len(sizes) == calls, (name, which, rounds, sizes)


def test_split_terms_build_one_plan(monkeypatch):
    # the Evans problems and the map blocks of a split share one LegPlan,
    # in a count, an evans sweep with the map column and a double table
    terms, plans = [], []
    split_init, plan_init = maps_module.SplitTerms.__init__, propagate_module.LegPlan.__init__
    monkeypatch.setattr(maps_module.SplitTerms, "__init__",
                        lambda self, *args: terms.append(self) or split_init(self, *args))
    monkeypatch.setattr(propagate_module.LegPlan, "__init__",
                        lambda self, legs: plans.append(self) or plan_init(self, legs))
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_interior"])
    for run in (lambda: cli.count_report(sc), lambda: cli.evans_csv(sc, with_map=True),
                lambda: cli.verify_table(sc, "double", rounds=8)):
        terms.clear()
        plans.clear()
        run()
        assert len(terms) == 1 and plans == [terms[0].evans.plan], (terms, plans)


@pytest.mark.parametrize("name", sorted(cli._EXAMPLES))
def test_evans_sweep_with_the_map_evaluates_one_stack_a_batch(monkeypatch, name):
    # the Evans columns and the map column read one stack of the split's
    # plan a batch, so each lambda of the sweep is evaluated once, in one
    # batch or in several, with the same bytes
    sc = cli.parse_scenario(cli._EXAMPLES[name])
    want = cli.evans_csv(sc, with_map=True)
    for chunk in (evans_module.CHUNK, 997):
        sizes = []
        with monkeypatch.context() as m:
            _count_kernel_calls(m, sizes)
            m.setattr(evans_module, "CHUNK", chunk)
            assert cli.evans_csv(sc, with_map=True) == want
        assert sum(sizes) == sc.sweep[2] and (len(sizes) == 1) == (chunk > 997), sizes


def test_resolvent_and_u_gamma_take_two_kernel_calls_a_lambda(monkeypatch):
    # one for the bundle's frames, one for every family on every edge
    g = _star(np.random.default_rng(3), 4, sampled=True)
    bc = build_preset("kirchhoff", 4)
    sizes = []
    _count_kernel_calls(monkeypatch, sizes)
    resolvent_apply(g, bc, 17.3, [1.0, 0.5, lambda x: np.sin(x), 2.0])
    assert len(sizes) <= 2, len(sizes)
    sizes.clear()
    resolvent._u_gamma(resolvent.FrameBundle(g, bc, np.array([17.3])), range(2 * g.n), [17.3])
    assert len(sizes) <= 2, len(sizes)


def test_frame_bundle_plans_only_its_z_legs(monkeypatch):
    # a bundle plans the n z legs of the origin frame, the legs an Evans
    # value plans, and no Y leg: its trace system reads their Wronskians
    plans = []
    inner = propagate_module.LegPlan.__init__
    monkeypatch.setattr(propagate_module.LegPlan, "__init__",
                        lambda self, legs: plans.append(list(legs)) or inner(self, legs))
    cases = (barrier_end()[:2], wide_star(16, 1)[:2],
             (_sampled_star().graph, rand_bc_cayley(2, np.random.default_rng(3))))
    for g, bc in cases:
        for lam in (17.3, np.array([17.3, 30.1 - 2.0j])):
            plans.clear()
            resolvent.FrameBundle(g, bc, lam)
            assert plans == [[(e, e.length, 0.0) for e in g.edges]], (g.n, [len(p) for p in plans])


def test_single_table_with_a_draw_on_a_pole_gives_the_loop_rows(monkeypatch):
    # the array call raises and is halved down to the pole, and the table is
    # the per-draw loop's, retry included
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    piece = split_graph(sc.graph, sc.bc, sc.splits)["omega1:D"]
    pole = count_eigenvalues(*piece, (5.0, 60.0)).zeros[0][0]
    real_sample = cli._sample_lambdas

    def first_on_pole(rng, sweep, rounds):
        lams = real_sample(rng, sweep, rounds)
        lams[0] = pole
        return lams

    monkeypatch.setattr(cli, "_sample_lambdas", first_on_pole)
    text, ok = cli.verify_table(sc, "single", seed=2, rounds=4)
    drawn = [float(line.split(",")[1]) for line in text.splitlines()[1:]]
    assert ok and drawn[0] != pole and abs(drawn[0] - pole) <= 0.5
    assert drawn[1:] == list(real_sample(np.random.default_rng(2), sc.sweep, 4)[1:])
    monkeypatch.setattr(cli, "_residual_rows", _loop_rows)
    assert cli.verify_table(sc, "single", seed=2, rounds=4)[0] == text


def _same(a, b):
    """Bitwise equal: arrays by their bytes, scalars by value."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


def _close(a, b):
    """Equal to rounding, relative to the larger of 1 and the values."""
    if isinstance(a, resolvent.TauSelection):
        return a.tau == b.tau and _close(a.wronskians, b.wronskians)
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def _each_or_none(fn, lams):
    """fn at each lambda, or the type of the first error one raises."""
    out = []
    for lam in lams:
        try:
            out.append(fn(lam))
        except ArithmeticError as e:
            return type(e)
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), size=st.integers(1, 5),
       complex_lam=st.booleans(), complex_bc=st.booleans(), sampled=st.booleans())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_batched_resolvent_core_is_each_lambda_alone(seed, n, size, complex_lam, complex_bc,
                                                     sampled):
    # the applications, ode defects and u_gamma paths (every slot) of a
    # batch of lambdas are, bit for bit, the one-lambda calls' at each
    # lambda; a batch raises exactly when one of its lambdas does.  One wire
    # with complex data is equal to rounding only: there every product of
    # complex 1 x 1 blocks is a single element for one lambda, which numpy
    # multiplies in its scalar loop, and a strided run for a batch, which
    # it multiplies in its vector loop with fused multiply-adds
    same = _close if n == 1 and complex_bc else _same
    rng = np.random.default_rng(seed)
    g = _sampled_star().graph if sampled and n == 2 else _star(rng, n, sampled)
    bc = rand_bc_cayley(n, rng) if complex_bc else rand_bc_real(n, rng)
    lams = rng.uniform(-5.0, 60.0, size)
    if complex_lam:
        lams = lams + 1j * rng.uniform(0.5, 3.0, size) * rng.choice([-1, 1], size)
    v = [rng.uniform(-2.0, 2.0) for _ in range(n - 1)] + [lambda x: np.sin(3.0 * x)]

    apps = _each_or_none(lambda t: resolvent_apply(g, bc, t, v), lams)
    paths = _each_or_none(lambda t: resolvent._u_gamma(resolvent.FrameBundle(g, bc, np.array([t])),
                                                       range(2 * n), [t])[0], lams)
    try:
        batch = resolvent._applications(resolvent.FrameBundle(g, bc, lams), v, lams)
    except ArithmeticError as e:
        assert apps is type(e)
    else:
        assert isinstance(apps, list)
        defects = resolvent._segment_residuals(g, lams, batch, v)
        for lam, got, one, defect in zip(lams, batch, apps, defects):
            for field in ("lam", "grids", "coefficients", "y_p", "y_p_deriv", "output",
                          "output_deriv", "dirichlet_trace", "neumann_trace",
                          "gamma_residual", "tau"):
                assert same(getattr(got, field), getattr(one, field)), field
            assert same(defect, resolvent.segment_residual(g, lam, one, v))
    try:
        batch = resolvent._u_gamma(resolvent.FrameBundle(g, bc, lams), range(2 * n), lams)
    except ArithmeticError as e:
        assert paths is type(e)
    else:
        assert isinstance(paths, list)
        for got, one in zip(batch, paths):
            assert len(got) == len(one) == 2 * n
            for a, b in zip(got, one):
                for field in ("lam", "index", "grids", "direct", "formula",
                              "sup_discrepancy", "trace_residual", "coefficients"):
                    assert same(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("which", ["resolvent", "ugamma"])
def test_resolvent_tables_make_one_pass_per_chunk(monkeypatch, which):
    # a table whose draws all pass takes the same kernel calls at 4 and 40
    # draws while they fit one chunk; more draws than a chunk make one pass
    # per chunk, and their rows are the per-draw loop's
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    per_chunk = evans_module.CHUNK // (sc.graph.n * resolvent.GRID_POINTS)
    assert 4 < per_chunk < 40

    def table(rounds, chunk=evans_module.CHUNK, loop=False):
        sizes = []
        with monkeypatch.context() as m:
            _count_kernel_calls(m, sizes)
            m.setattr(evans_module, "CHUNK", chunk)
            if loop:
                m.setattr(cli, "_residual_rows", _loop_rows)
            text, ok = cli.verify_table(sc, which, seed=3, rounds=rounds)
        assert ok
        return text, sizes

    wide = 40 * sc.graph.n * resolvent.GRID_POINTS
    few, many = table(4, wide)[1], table(40, wide)[1]
    assert len(few) == len(many) == 2 and set(few) == {4} and set(many) == {40}
    text, sizes = table(40)
    chunks = -(-40 // per_chunk)
    assert len(sizes) == 2 * chunks and sum(sizes) == 2 * 40 and max(sizes) == per_chunk
    assert text == table(40, loop=True)[0]


def test_each_leg_is_planned_once_per_command(monkeypatch):
    # a command plans its legs once, however many batches or refinement
    # steps evaluate them: an evans sweep of the 16-wire star plans its 34
    # legs (16 z legs of the graph, 1 of each detached wire piece, 16 of
    # the residual star) at every batch size, a count of barrier_end its 5
    # (the z legs of the graph and its pieces, which the map blocks read
    # too) and an eigenvalue count of barrier_end its 2 z legs, whatever
    # the grid
    planned = []
    inner = propagate_module._segment_steps
    monkeypatch.setattr(propagate_module, "_segment_steps",
                        lambda *args: planned.append(args) or inner(*args))
    g, bc, spec = wide_star(16, 1)
    sc = cli.Scenario(graph=g, bc=bc, splits=spec, sweep=(1.0, 60.0, 256), count_intervals=(),
                      count_grid=None, boundary_block={"preset": "kirchhoff"})
    for chunk in (1, 7, evans_module.CHUNK):
        planned.clear()
        with monkeypatch.context() as m:
            m.setattr(evans_module, "CHUNK", chunk)
            cli.evans_csv(sc)
        assert len(planned) == 34, (chunk, len(planned))
    sc = cli.parse_scenario(cli._EXAMPLES["barrier_end"])
    for grid in (64, 256, 1024):
        planned.clear()
        assert cli.count_report(sc, grid=grid)[2]
        assert len(planned) == 5, (grid, len(planned))
        planned.clear()
        assert count_eigenvalues(sc.graph, sc.bc, sc.sweep[:2], grid=grid).count
        assert len(planned) == 2, (grid, len(planned))
