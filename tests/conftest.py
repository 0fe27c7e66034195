"""Shared builders: the three reference configurations and random-problem
generators used across the test modules."""
import numpy as np
import pytest

from qgraph import (BoundaryConditions, EdgeSpec, PiecewiseConstant, SplitSpec,
                    StarGraph, build_preset, free_edge)
from qgraph.graphs import SAME_WIRE, SINGLE, TWO_WIRES


def pc(*pieces):
    return PiecewiseConstant(pieces)


def barrier_end():
    """Two wires, well of depth 10 on [1/3, 1] of wire 0, Kirchhoff origin,
    Dirichlet ends.  Cut at the well's inner edge."""
    g = StarGraph((EdgeSpec(1.0, pc((0.0, 1 / 3, 0.0), (1 / 3, 1.0, -10.0))),
                   free_edge(1.0)))
    bc = build_preset("kirchhoff", 2)
    spec = SplitSpec(((0, 1 / 3),), SINGLE)
    return g, bc, spec


def barrier_interior():
    """Well on [1/4, 3/4] of wire 0, Kirchhoff origin, Neumann ends.
    Both cuts on wire 0 at the well boundary."""
    g = StarGraph((EdgeSpec(1.0, pc((0.0, 0.25, 0.0), (0.25, 0.75, -10.0),
                                    (0.75, 1.0, 0.0))),
                   free_edge(1.0)))
    kd = build_preset("kirchhoff", 2)
    bc = BoundaryConditions(kd.alpha1, kd.alpha2, np.zeros(2), np.ones(2))
    spec = SplitSpec(((0, 0.75), (0, 0.25)), SAME_WIRE)
    return g, bc, spec


def two_wire():
    """Identical wells on [0, 1/2] of both wires, Kirchhoff origin,
    Dirichlet ends, cuts at the midpoints."""
    edge = EdgeSpec(1.0, pc((0.0, 0.5, -10.0), (0.5, 1.0, 0.0)))
    g = StarGraph((edge, edge))
    bc = build_preset("kirchhoff", 2)
    spec = SplitSpec(((0, 0.5), (1, 0.5)), TWO_WIRES)
    return g, bc, spec


def wide_star(n, seed):
    """Seeded n-wire Kirchhoff star with Dirichlet ends: lengths in
    [0.75, 1.25], on each wire three pieces in [-12, 12] with breakpoints at
    two distinct eighths of its length, cut at the first breakpoint of
    wires 0 and 1.  Its Evans values fall geometrically with n."""
    rng = np.random.default_rng(seed)
    edges, breaks = [], []
    for _ in range(n):
        length = rng.uniform(0.75, 1.25)
        b1, b2 = sorted(rng.choice(np.arange(1, 8), 2, replace=False))
        xs = (0.0, b1 * length / 8, b2 * length / 8, length)
        vals = rng.uniform(-12.0, 12.0, 3)
        edges.append(EdgeSpec(length, pc(*[(xs[i], xs[i + 1], vals[i]) for i in range(3)])))
        breaks.append(xs[1])
    spec = SplitSpec(((0, breaks[0]), (1, breaks[1])), TWO_WIRES)
    return StarGraph(tuple(edges)), build_preset("kirchhoff", n), spec


def rand_bc_real(n, rng, margin=0.0):
    """Random real self-adjoint conditions via two orthogonal factors.

    margin > 0 keeps the singular angles away from 0 and pi so neither
    alpha matrix is near-singular; the counting sweeps need that to avoid
    near-degenerate split pieces."""
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    w = np.linalg.qr(rng.standard_normal((n, n)))[0]
    t = rng.uniform(margin, np.pi - margin, n)
    a1 = v @ np.diag(np.cos(t)) @ w.T
    a2 = v @ np.diag(np.sin(t)) @ w.T
    if margin:
        tg = rng.uniform(margin, np.pi / 2 - margin, n)
    else:
        tg = rng.uniform(0.0, np.pi, n)
    return BoundaryConditions(a1, a2, np.cos(tg), np.sin(tg))


def rand_bc_cayley(n, rng):
    """Random complex self-adjoint conditions from a Haar-ish unitary."""
    q = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u = np.linalg.qr(q)[0]
    tg = rng.uniform(0, np.pi, n)
    return BoundaryConditions(1j * (np.eye(n) - u), np.eye(n) + u,
                              np.cos(tg), np.sin(tg))


def rand_graph(n, rng, lengths=(0.5, 2.0), depth=15.0, split=0.4):
    edges = []
    for _ in range(n):
        length = rng.uniform(*lengths)
        nu1, nu2 = rng.uniform(-depth, depth, 2)
        edges.append(EdgeSpec(length, pc((0.0, split * length, nu1),
                                         (split * length, length, nu2))))
    return StarGraph(tuple(edges))


@pytest.fixture
def rng():
    return np.random.default_rng(42)
