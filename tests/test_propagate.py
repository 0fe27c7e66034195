import importlib
import itertools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qgraph import (EdgeSpec, EdgeSolution, Sampled, StarGraph, build_preset, evans,
                    free_edge, segment_transfer, transfer_matrix)
from qgraph.propagate import OutOfDomain
from qgraph.evans import FrameBundle
from conftest import pc, rand_bc_cayley, rand_bc_real
from oracle import adaptive_reference

propagate_module = importlib.import_module("qgraph.propagate")
evans_module = importlib.import_module("qgraph.evans")  # the name evans is the function


# ---------------------------------------------------------------- transfer

@given(st.floats(-50, 50), st.floats(-30, 30), st.floats(0.01, 2.0))
@settings(max_examples=200, deadline=None)
def test_transfer_det_is_one(lam, nu, d):
    m = transfer_matrix(d, lam, nu)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    # hyperbolic entries grow like cosh; cosh^2 - sinh^2 = 1 only to the
    # square of the entry scale in floating point
    scale = (1.0 + np.abs(m).max()) ** 2
    assert abs(det - 1.0) < 1e-12 * scale


def test_transfer_small_frequency_series():
    # w = lam - nu near zero: entries must limit to [[1, d], [0, 1]]
    for w in (0.0, 1e-14, -1e-14, 1e-10, -1e-10):
        m = transfer_matrix(0.7, w, 0.0)
        assert abs(m[0, 0] - 1.0) < 1e-9
        assert abs(m[0, 1] - 0.7) < 1e-9
        assert abs(m[1, 0] + w * 0.7) < 1e-9


def test_transfer_matches_trig():
    lam, nu, d = 20.0, -10.0, 0.35
    w = np.sqrt(lam - nu)
    m = transfer_matrix(d, lam, nu)
    assert np.isclose(m[0, 0], np.cos(w * d), atol=1e-14)
    assert np.isclose(m[0, 1], np.sin(w * d) / w, atol=1e-14)
    assert np.isclose(m[1, 0], -w * np.sin(w * d), atol=1e-14)


def test_transfer_roundtrip():
    lam, nu, d = 7.0, 3.0, 0.6
    fwd = transfer_matrix(d, lam, nu)
    back = transfer_matrix(-d, lam, nu)
    assert np.allclose(back @ fwd, np.eye(2), atol=1e-13)


# ------------------------------------------------------- linear segments

SEGMENT_TOL = 1e-10  # on the balanced matrix, relative to its largest entry


def airy_reference(d, lam, v0, s):
    """F(xi(d)) F(xi(0))^-1 for V = v0 + s t at 40 digits, plus as many as
    the Airy phase |xi|^1.5 takes.  Complex lambda uses the pair Ai(xi),
    Ai(xi exp(-+2 pi i / 3)), which stays independent off the real axis."""
    k0 = np.cbrt(s)
    big = abs(v0 - lam) / k0 ** 2 + abs(k0 * d)
    with mp.workdps(40 + int(np.log10(1.0 + big ** 1.5))):
        d, v0, s = mp.mpf(d), mp.mpf(v0), mp.mpf(s)
        lam = mp.mpc(lam) if complex(lam).imag else mp.mpf(complex(lam).real)
        k = mp.cbrt(s) if s > 0 else -mp.cbrt(-s)
        xa = (v0 - lam) / k ** 2
        if complex(lam).imag:
            up = mp.im(xa) >= 0
            rot = mp.expjpi(mp.mpf(-2) / 3 if up else mp.mpf(2) / 3)
            w = mp.expjpi(mp.mpf(1) / 6 if up else mp.mpf(-1) / 6) / (2 * mp.pi)
            second = lambda x: (mp.airyai(rot * x), rot * mp.airyai(rot * x, 1))
        else:
            w = 1 / mp.pi
            second = lambda x: (mp.airybi(x), mp.airybi(x, 1))

        def frame(x):
            b, bp = second(x)
            return mp.matrix([[mp.airyai(x), b], [k * mp.airyai(x, 1), k * bp]])

        fa = frame(xa)
        inv = mp.matrix([[fa[1, 1], -fa[0, 1]], [-fa[1, 0], fa[0, 0]]]) / (k * w)
        t = frame(xa + k * d) * inv
        return np.array([[complex(t[i, j]) for j in range(2)] for i in range(2)])


def balanced(m, d, lam, v0, s):
    """diag(1, 1/om) m diag(1, om) with om the largest local wavenumber or
    1/|d|, so that all four entries are on one scale."""
    om = np.sqrt(max(abs(lam - v0), abs(lam - v0 - s * d), d ** -2))
    return m * np.array([[1.0, om], [1.0 / om, 1.0]])


@given(log_d=st.floats(-6.0, 0.5), backward=st.booleans(),
       log_s=st.floats(-14.0, 3.0), falling=st.booleans(),
       v0=st.floats(-50.0, 50.0), regime=st.sampled_from(("real", "forbidden", "complex")),
       lam_re=st.floats(-60.0, 100.0), log_gap=st.floats(0.0, 4.0), lam_im=st.floats(-5.0, 5.0))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_linear_segment_step_matches_mpmath_airy(log_d, backward, log_s, falling, v0,
                                                 regime, lam_re, log_gap, lam_im):
    # slopes from 1e-14 (the flat fallback) to 1e3, steps from 1e-6 to 3 in
    # both directions, deep forbidden regions (lambda up to 1e4 below V)
    # and complex lambda
    d = (-1.0 if backward else 1.0) * 10.0 ** log_d
    s = (-1.0 if falling else 1.0) * 10.0 ** log_s
    lam = {"real": lam_re, "forbidden": min(v0, v0 + s * d) - 10.0 ** log_gap,
           "complex": lam_re + 1j * lam_im}[regime]
    growth = np.sqrt(max(0.0, max(v0, v0 + s * d) - np.real(lam))) * abs(d)
    assume(growth + abs(np.imag(lam)) * abs(d) < 300.0)  # no overflow
    m = segment_transfer(d, lam, v0, s)
    ref = airy_reference(d, lam, v0, s)
    err = balanced(m - ref, d, lam, v0, s)
    assert np.abs(err).max() <= SEGMENT_TOL * np.abs(balanced(ref, d, lam, v0, s)).max()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(det - 1.0) <= 1e-12 * (1.0 + np.abs(m).max()) ** 2
    assert m.dtype.kind == ("c" if np.imag(lam) else "f")


def test_segment_transfer_broadcasts_and_inverts():
    d = np.array([0.3, -0.2, 0.7])[:, None]
    lams = np.array([2.0, 25.0, 60.0, -30.0])
    m = segment_transfer(d, lams, 1.5, np.array([4.0, 0.0, -1e-9])[:, None])
    assert m.shape == (3, 4, 2, 2) and m.dtype.kind == "f"
    assert np.array_equal(m[1], transfer_matrix(-0.2, lams, 1.5))
    for t in lams:  # the backward step from the far end undoes the forward one
        back = segment_transfer(-0.3, t, 1.5 + 4.0 * 0.3, 4.0)
        assert np.allclose(back @ segment_transfer(0.3, t, 1.5, 4.0), np.eye(2), atol=1e-12)


def test_flat_potentials_never_reach_airy(monkeypatch):
    def refuse(*args):
        raise AssertionError("Airy step on a flat segment")
    monkeypatch.setattr(propagate_module, "_airy_transfer", refuse)
    g = StarGraph((EdgeSpec(1.0, pc((0.0, 0.4, -6.0), (0.4, 1.0, 2.0))), free_edge(1.3)))
    calls = []
    real = propagate_module.transfer_matrix
    monkeypatch.setattr(propagate_module, "transfer_matrix",
                        lambda *a: calls.append(a) or real(*a))
    evans(g, build_preset("kirchhoff", 2), np.linspace(1.0, 40.0, 9))
    assert len(calls) == 1


# ------------------------------------------------------------- leg plans

def _wire(rng, kind):
    """A wire with flat pieces, a few sloped segments, or a smooth sampled well."""
    length = rng.uniform(0.5, 2.0)
    if kind == "flat":
        nodes = [0.0, *np.sort(rng.uniform(0.1, 0.9, int(rng.integers(0, 4)))) * length, length]
        return EdgeSpec(length, pc(*[(a, b, rng.uniform(-15.0, 15.0))
                                     for a, b in zip(nodes[:-1], nodes[1:])]))
    if kind == "sloped":
        xs = np.linspace(0.0, length, int(rng.integers(2, 5)))
        return EdgeSpec(length, Sampled(tuple(xs), tuple(rng.uniform(-15.0, 15.0, xs.size))))
    xs = np.linspace(0.0, length, 41)
    return EdgeSpec(length, Sampled(tuple(xs), tuple(-rng.uniform(5.0, 15.0)
                                                     * np.sin(np.pi * xs / length) ** 2)))


def _leg(rng, edge, array):
    """(edge, x0, x): x0 at either end or inside, x one position or an
    array of positions on one side of x0 (x0 itself included at times)."""
    x0 = float(rng.choice([0.0, edge.length, rng.uniform(0.0, edge.length)]))
    if not array:
        return edge, x0, float(rng.choice([x0, rng.uniform(0.0, edge.length)]))
    far = float(rng.choice([0.0, edge.length]))
    xs = np.sort(rng.uniform(min(x0, far), max(x0, far), int(rng.integers(1, 12))))
    return edge, x0, np.r_[x0, xs] if rng.integers(2) else xs


def _one_by_one(m, a):
    """m @ a a lambda at a time: one 2 x 2 product each, whose bits no batch
    shape changes."""
    return np.stack([ml @ al for ml, al in zip(m, a)])


def _entrywise(m, b):
    out = np.empty(m.shape, dtype=np.result_type(m, b))
    for r, q in itertools.product(range(2), range(2)):
        out[..., r, q] = m[..., r, 0] * b[..., 0, q] + m[..., r, 1] * b[..., 1, q]
    return out


def _reference_leg(edge, x0, x, lams):
    """The transfers of one leg from its own segment steps: the chain
    accumulated outward from x0, then each position's partial step after
    the chain product of the breakpoints before it."""
    chain, end = propagate_module._segment_steps(edge.potential, x0, x)
    cum = [*itertools.accumulate((segment_transfer(d, lams, v, s) for d, v, s in chain),
                                 lambda a, m: _one_by_one(m, a))]
    if np.ndim(x) == 0:
        last = segment_transfer(end[0], lams, end[1], end[2])
        return _one_by_one(last, cum[-1]) if cum else last
    d, v, s, ci = end
    s = np.zeros_like(d) if s is None else s
    base = [np.broadcast_to(np.eye(2), lams.shape + (2, 2)), *cum]
    return np.stack([_entrywise(segment_transfer(dk, lams, vk, sk), base[c])
                     for dk, vk, sk, c in zip(d, v, s, ci)], axis=1)


def _contracted(t, a):
    """Transfers t, (L, P, 2, 2), applied to launch data a, (..., 2, m),
    entrywise in the kernel's order: (L, 2, m, P), values then derivatives."""
    a0, a1 = a[..., 0, :, None], a[..., 1, :, None]
    return np.stack([t[:, None, :, r, 0] * a0 + t[:, None, :, r, 1] * a1 for r in range(2)],
                    axis=1)


@given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(("flat", "sloped", "sampled")),
                                                       min_size=1, max_size=4),
       arrays=st.booleans(), size=st.integers(1, 5), complex_lam=st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_planned_legs_are_each_leg_alone_bitwise(seed, kinds, arrays, size, complex_lam):
    # a plan evaluates all its legs at once, chains stacked by depth; every
    # transfer is, bit for bit, its leg's own steps multiplied one lambda at
    # a time, for the whole lambda array and for each lambda alone: a stack
    # for legs that end at one position, and for legs that end at arrays
    # the solutions of launch data, those transfers contracted entrywise
    rng = np.random.default_rng(seed)
    legs = [_leg(rng, _wire(rng, kind), arrays and bool(rng.integers(2))) for kind in kinds]
    lams = rng.uniform(-20.0, 80.0, size)
    if complex_lam:
        lams = lams + 1j * rng.uniform(0.5, 3.0, size) * rng.choice([-1, 1], size)
    points = [leg for leg in legs if np.ndim(leg[2]) == 0]
    spans = [leg for leg in legs if np.ndim(leg[2])]
    data = []
    for _ in spans:
        a = rng.standard_normal((size,) * int(rng.integers(2)) + (2, int(rng.integers(1, 4))))
        data.append(a + 1j * rng.standard_normal(a.shape) if rng.integers(2) else a)
    for k, ls in enumerate([lams] + [lams[k:k + 1] for k in range(size)]):
        if points:
            stack = propagate_module.LegPlan(points).stack(ls)
            assert stack.shape == (ls.size, len(points), 2, 2)
            for i, (edge, x0, x) in enumerate(points):
                want = _reference_leg(edge, x0, x, ls)
                got = np.ascontiguousarray(stack[:, i])
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if spans:
            launch = [a if a.ndim == 2 or k == 0 else a[k - 1:k] for a in data]
            got = list(propagate_module.LegPlan(spans).solutions(ls, launch))
            for (edge, x0, x), a, sol in zip(spans, launch, got):
                want = _contracted(_reference_leg(edge, x0, x, ls), a)
                assert sol.shape == want.shape and sol.dtype == want.dtype
                assert sol.tobytes() == want.tobytes()


def test_a_repeated_leg_is_planned_once():
    # a leg that repeats shares its chain: the step table is that of the
    # distinct legs, and the stack is theirs gathered, byte for byte
    rng = np.random.default_rng(4)
    flat, sloped = _wire(rng, "flat"), _wire(rng, "sloped")
    a, b = (flat, flat.length, 0.3 * flat.length), (sloped, 0.0, sloped.length)
    once, twice = propagate_module.LegPlan([a, b]), propagate_module.LegPlan([a, b, a])
    assert twice.steps.tobytes() == once.steps.tobytes()
    for lams in (rng.uniform(-20.0, 80.0, 9), rng.uniform(-20.0, 80.0, 9) + 1.5j):
        want = np.ascontiguousarray(once.stack(lams)[:, [0, 1, 0]])
        assert twice.stack(lams).tobytes() == want.tobytes()


def test_a_plan_is_of_one_kind():
    edge = free_edge(1.0)
    with pytest.raises(ValueError, match="each at one position or each at an array"):
        propagate_module.LegPlan([(edge, 0.0, 0.5), (edge, 0.0, np.array([0.5]))])
    with pytest.raises(ValueError, match="stack needs"):
        propagate_module.LegPlan([(edge, 0.0, np.array([0.5]))]).stack(np.array([1.0]))
    with pytest.raises(ValueError, match="solutions need"):
        next(propagate_module.LegPlan([(edge, 0.0, 0.5)]).solutions(np.array([1.0]), []))


def _position_steps(pot, x0, xs):
    """A leg's whole-segment steps (d, V at start, slope) in the order of
    travel from x0, and each position's partial step after the first k of
    them, as (k, step), written out here: a position crosses the
    breakpoints strictly between x0 and the leg's farthest position that it
    reaches, and steps on from the last of them (from x0 if none)."""
    far = xs[np.argmax(np.abs(xs - x0))]
    sign, lo, hi = (1.0 if far > x0 else -1.0), min(x0, far), max(x0, far)
    segs = []  # (node where the step starts, step)
    for a, b, va, vb in (pot.segments if sign > 0 else pot.segments[::-1]):
        if min(b, hi) - max(a, lo) > 0:
            start = max(a, lo) if sign > 0 else min(b, hi)
            slope = 0.0 if va == vb else (vb - va) / (b - a)
            v = va if va == vb else (vb if start == b else va + slope * (start - a))
            segs.append((start, (sign * (min(b, hi) - max(a, lo)), v, slope)))
    segs = segs or [(x0, (0.0, 0.0, 0.0))]
    partial = []
    for x in xs:
        k = max(i for i, (node, _) in enumerate(segs) if i == 0 or sign * (x - node) >= 0)
        node, (_, v, slope) = segs[k]
        partial.append((k, (x - node, v, slope)))
    return [step for _, step in segs], partial


def _reference_families(g, bc, lams, items):
    """FrameBundle.families one position at a time: one segment_transfer
    for its partial step, the product with the whole steps before it
    (multiplied one lambda at a time) taken entrywise, then the launch
    data contracted entrywise."""
    y0, yp0, z0, zp0 = evans_module._launch(bc)
    out = []
    for j, xs, w in items:
        edge, pair = g.edges[j], []
        for x0, a in ((0.0, np.stack([y0[j] @ w, yp0[j] @ w], axis=-2)),
                      (edge.length, np.array([[z0[j]], [zp0[j]]]))):
            chain, partial = _position_steps(edge.potential, x0, xs)
            cum = [np.broadcast_to(np.eye(2), lams.shape + (2, 2))]
            for d, v, s in chain:
                cum.append(_one_by_one(segment_transfer(d, lams, v, s), cum[-1]))
            ts = [_entrywise(segment_transfer(d, lams, v, s), cum[k]) for k, (d, v, s) in partial]
            pair.append(_contracted(np.stack(ts, axis=1), a))
        out.append((pair[0], pair[1][:, :, 0]))
    return out


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), size=st.integers(1, 5),
       complex_lam=st.booleans(), shared=st.booleans())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_families_are_each_position_alone_bitwise(seed, n, size, complex_lam, shared):
    # both families of a bundle, bit for bit the per-position reference:
    # for the whole lambda array, for each lambda alone, and for the
    # one-lambda bundle; weights with a lambda axis or one shared by all
    rng = np.random.default_rng(seed)
    g = StarGraph(tuple(_wire(rng, kind) for kind in rng.choice(["flat", "sloped", "sampled"], n)))
    bc = rand_bc_cayley(n, rng) if rng.integers(2) else rand_bc_real(n, rng)
    lams = rng.uniform(-20.0, 80.0, size)
    if complex_lam:
        lams = lams + 1j * rng.uniform(0.5, 3.0, size) * rng.choice([-1, 1], size)
    items = []
    for j, edge in enumerate(g.edges):
        nodes = np.array([a for a, *_ in edge.potential.segments] + [edge.length])
        xs = np.r_[np.linspace(0.0, edge.length, 5), rng.uniform(0.0, edge.length, 3),
                   nodes[rng.integers(nodes.size, size=3)]]
        w = rng.standard_normal(((size,) if not shared else ()) + (n, int(rng.integers(1, 4))))
        items.append((j, xs, w + 1j * rng.standard_normal(w.shape) if rng.integers(2) else w))

    def check(got, want):
        for (y, z), (wy, wz) in zip(got, want):
            assert y.shape == wy.shape and y.dtype == wy.dtype and z.dtype == wz.dtype
            assert np.ascontiguousarray(y).tobytes() == wy.tobytes()
            assert np.ascontiguousarray(z).tobytes() == np.ascontiguousarray(wz).tobytes()
    check(FrameBundle(g, bc, lams).families(items), _reference_families(g, bc, lams, items))
    for k in range(size):
        alone = [(j, xs, w if shared else w[k:k + 1]) for j, xs, w in items]
        check(FrameBundle(g, bc, lams[k:k + 1]).families(alone),
              _reference_families(g, bc, lams[k:k + 1], alone))
        if shared:
            check(FrameBundle(g, bc, lams[k]).families(items),
                  [(y[0], z[0]) for y, z in _reference_families(g, bc, lams[k:k + 1], items)])


# -------------------------------------------------------------- propagation

def _wronskian(a, b):
    """u v' - u' v of two states at one point."""
    return a.value * b.deriv - a.deriv * b.value


def test_piecewise_closed_form():
    # well of depth 15 on the outer two thirds, solution seeded at the cut
    edge = EdgeSpec(1.0, pc((0.0, 1 / 3, 0.0), (1 / 3, 1.0, -15.0)))
    sol = EdgeSolution(edge, 0.0, 0.0, 1.0, anchor=1 / 3)
    # on [1/3, 1] the equation is u'' = -15 u: u = sin(sqrt(15) x')/sqrt(15)
    end = sol.at(1.0)
    w = np.sqrt(15.0)
    assert np.isclose(end.value, np.sin(w * 2 / 3) / w, atol=1e-13)
    assert np.isclose(end.deriv, np.cos(w * 2 / 3), atol=1e-13)


def test_propagate_advances_states():
    out = EdgeSolution(free_edge(1.0), 4.0, 1.0, 0.0, anchor=0.0).at(0.5)
    assert np.isclose(out.value, np.cos(1.0), atol=1e-13)
    assert out.x == 0.5


def test_piecewise_agrees_with_adaptive():
    edge = EdgeSpec(1.3, pc((0.0, 0.5, 4.0), (0.5, 1.3, -9.0)))
    lam = 11.0
    sol = EdgeSolution(edge, lam, 1.0, 0.5, anchor=0.0)
    ref = adaptive_reference(edge, lam, 1.0, 0.5, anchor=0.0)
    xs = np.linspace(0.0, 1.3, 23)
    v, d = sol.on(xs)
    rv, rd = ref.on(xs)
    assert np.abs(v - rv).max() < 1e-8
    assert np.abs(d - rd).max() < 1e-8


def test_sampled_agrees_with_adaptive():
    # the exact segment steps against the independent adaptive integrator
    xs = np.linspace(0.0, 1.2, 31)
    edge = EdgeSpec(1.2, Sampled(tuple(xs), tuple(8.0 * np.cos(4 * xs) - 3.0 * xs)))
    pts = np.linspace(0.0, 1.2, 23)
    for lam, anchor in ((11.0, 0.0), (-4.0, 0.0), (27.5 + 3.0j, 0.0), (11.0, 0.53)):
        sol = EdgeSolution(edge, lam, 1.0, 0.5, anchor=anchor)
        ref = adaptive_reference(edge, lam, 1.0, 0.5, anchor=anchor)
        v, d = sol.on(pts)
        rv, rd = ref.on(pts)
        assert np.abs(v - rv).max() < 1e-8
        assert np.abs(d - rd).max() < 1e-8


def test_sampled_potential_uses_adaptive():
    xs = np.linspace(0.0, 1.0, 41)
    edge = EdgeSpec(1.0, Sampled(tuple(xs), tuple(np.sin(3 * xs))))
    sol = EdgeSolution(edge, 5.0, 0.0, 1.0, anchor=0.0)
    end = sol.at(1.0)
    assert np.isfinite(end.value) and np.isfinite(end.deriv)
    phi, theta = EdgeSolution(edge, 5.0, 0.0, 1.0), EdgeSolution(edge, 5.0, 1.0, 0.0)
    w = _wronskian(phi.at(0.9), theta.at(0.9))
    assert abs(w + 1.0) < 1e-8 or abs(w - 1.0) < 1e-8


def test_out_of_domain():
    sol = EdgeSolution(free_edge(1.0), 2.0, 1.0, 0.0, anchor=0.0)
    with pytest.raises(OutOfDomain):
        sol.at(1.5)
    with pytest.raises(OutOfDomain):
        EdgeSolution(free_edge(1.0), 2.0, 1.0, 0.0, anchor=2.0)


def test_complex_lambda_state():
    sol = EdgeSolution(free_edge(1.0), 2.0 + 1.0j, 1.0, 0.0, anchor=0.0)
    w = np.sqrt(2.0 + 1.0j)
    assert np.isclose(sol.at(0.5).value, np.cos(w * 0.5), atol=1e-12)


def test_basis_pair_unit_wronskian():
    edge = EdgeSpec(1.0, pc((0.0, 0.4, -3.0), (0.4, 1.0, 12.0)))
    for lam in (-4.0, 0.0, 17.5, 60.0):
        phi, theta = EdgeSolution(edge, lam, 0.0, 1.0), EdgeSolution(edge, lam, 1.0, 0.0)
        for x in (0.0, 0.3, 0.7, 1.0):
            w = _wronskian(phi.at(x), theta.at(x))
            assert abs(abs(w) - 1.0) < 1e-11


def test_wronskian_constant_along_edge():
    edge = EdgeSpec(1.0, pc((0.0, 0.6, -7.0), (0.6, 1.0, 2.0)))
    u = EdgeSolution(edge, 13.0, 0.3, -1.1, anchor=0.0)
    v = EdgeSolution(edge, 13.0, 1.2, 0.4, anchor=0.0)
    w0 = _wronskian(u.at(0.0), v.at(0.0))
    for x in (0.2, 0.6, 0.95):
        assert np.isclose(_wronskian(u.at(x), v.at(x)), w0, atol=1e-12)


def test_solution_smooth_in_lambda():
    # the far-end value is entire in lambda: finite difference at lam=1
    # must match the derivative of cos(sqrt(lam))
    edge = free_edge(1.0)

    def end_value(lam):
        return EdgeSolution(edge, lam, 1.0, 0.0, anchor=0.0).at(1.0).value

    h = 1e-6
    fd = (end_value(1.0 + h) - end_value(1.0 - h)) / (2 * h)
    assert np.isclose(fd, -np.sin(1.0) / 2.0, atol=1e-8)


@pytest.mark.parametrize("call, error, word", [
    (lambda: EdgeSolution(free_edge(1.0), 4.0, 1, 0).at(np.array([0.5, 1.5])),
     OutOfDomain, "outside the edge"),
    (lambda: propagate_module.LegPlan([(free_edge(1.0), 0.5, np.array([0.2, 0.8]))]
                                      ).stack(np.array([3.0])),
     ValueError, "both sides"),
])
def test_bad_input_is_rejected(call, error, word):
    with pytest.raises(error, match=word):
        call()
