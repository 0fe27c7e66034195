import numpy as np
import pytest

from qgraph import (BoundaryConditions, BoundaryData, EdgeSpec,
                    PiecewiseConstant, Sampled, SplitSpec, StarGraph,
                    build_preset, free_edge, gamma_trace, neumann_trace,
                    split_graph, validate_bc)
from qgraph.graphs import (CutOnVertex, CutsOutOfOrder, DimensionMismatch,
                           NotSelfAdjoint, RankDeficient, SAME_WIRE, SINGLE, TWO_WIRES,
                           require_valid_bc)
from conftest import (barrier_end, barrier_interior, pc, rand_bc_cayley, rand_bc_real,
                      two_wire)


# ---------------------------------------------------------------- potentials

def test_piecewise_constant_lookup():
    p = pc((0.0, 0.5, -3.0), (0.5, 1.0, 2.0))
    assert p.value_at(0.25) == -3.0
    assert p.value_at(0.75) == 2.0
    assert p.span == (0.0, 1.0)


def test_piecewise_constant_rejects_gaps():
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.0, 0.4, 1.0), (0.5, 1.0, 2.0)))
    with pytest.raises(ValueError):
        PiecewiseConstant(((0.3, 0.2, 1.0),))


def test_restrict_snaps_endpoints():
    p = pc((0.0, 0.5, -3.0), (0.5, 1.0, 2.0))
    q = p.restrict(0.5, 1.0)
    assert q.span == (0.0, 0.5)
    assert q.value_at(0.1) == 2.0


def test_sampled_interpolates():
    s = Sampled((0.0, 1.0), (0.0, 2.0))
    assert s.value_at(0.5) == 1.0
    with pytest.raises(ValueError):
        Sampled((0.0,), (1.0,))


def test_edge_spec_checks_span():
    with pytest.raises(ValueError):
        EdgeSpec(2.0, pc((0.0, 1.0, 0.0)))
    with pytest.raises(ValueError):
        EdgeSpec(-1.0, pc((0.0, 1.0, 0.0)))


# ------------------------------------------------------ boundary validation

def test_presets_are_valid():
    for kind in ("dirichlet", "neumann", "kirchhoff"):
        for n in (1, 2, 4):
            assert validate_bc(build_preset(kind, n)).ok
    assert validate_bc(build_preset("robin", 3, theta=2.5)).ok


def test_robin_theta_zero_is_neumann():
    r = build_preset("robin", 2, theta=0.0)
    n = build_preset("neumann", 2)
    assert np.allclose(r.alpha1, n.alpha1) and np.allclose(r.alpha2, n.alpha2)


def test_rank_deficient_rejected():
    bad = BoundaryConditions([[1, 0], [0, 0]], [[0, 0], [0, 0]],
                             [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(RankDeficient):
        require_valid_bc(bad)


def test_not_self_adjoint_rejected():
    # alpha1 alpha2* must be hermitian; this pair is not
    bad = BoundaryConditions([[1, 1], [0, 1]], [[1, 0], [1, 1]],
                             [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(NotSelfAdjoint):
        require_valid_bc(bad)


def test_degenerate_outer_pair_reported():
    bad = BoundaryConditions(np.eye(2), np.zeros((2, 2)), [1.0, 0.0], [0.0, 0.0])
    report = validate_bc(bad)
    assert not report.ok
    names = {name for name, _ in report.failures}
    # the (0,0) pair shows up both as a rank defect and by name
    assert {"RankDeficient", "DegenerateDiagonalPair"} <= names
    with pytest.raises(RankDeficient):
        require_valid_bc(bad)


def test_small_outer_pair_is_a_rank_defect_only():
    # (1e-11, 0) is not the (0, 0) pair, but its singular value is below
    # RANK_TOL times the largest
    bc = BoundaryConditions(np.eye(2), np.zeros((2, 2)), [1.0, 1e-11], [0.0, 0.0])
    assert validate_bc(bc).failures == (("RankDeficient", "rank([beta1 beta2]) < n"),)
    with pytest.raises(RankDeficient):
        require_valid_bc(bc)


def test_complex_outer_pair_needs_real_product():
    # g conj(h) = i is not real
    bad = BoundaryConditions(np.eye(1), np.zeros((1, 1)), [1.0], [1.0j])
    with pytest.raises(NotSelfAdjoint):
        require_valid_bc(bad)


def test_cayley_bc_valid(rng):
    for n in (1, 2, 3):
        assert validate_bc(rand_bc_cayley(n, rng)).ok


def test_is_real_flag(rng):
    assert build_preset("kirchhoff", 2).is_real()
    assert not rand_bc_cayley(2, rng).is_real()


def _fields(bc):
    return (bc.alpha1, bc.alpha2, bc.beta1, bc.beta2)


def test_real_data_are_stored_real(rng):
    presets = [build_preset(k, 3) for k in ("dirichlet", "neumann", "kirchhoff", "robin")]
    for bc in presets + [rand_bc_real(3, rng), rand_bc_real(3, rng, margin=0.1)]:
        assert bc.is_real()
        assert all(m.dtype == np.float64 for m in _fields(bc))
    base = rand_bc_real(2, rng)
    noisy = BoundaryConditions(*(m + 1e-16j for m in _fields(base)))
    assert noisy.is_real() and all(m.dtype == np.float64 for m in _fields(noisy))
    assert all(np.array_equal(a, b) for a, b in zip(_fields(noisy), _fields(base)))
    tilted = BoundaryConditions(base.alpha1 + 1e-10j, base.alpha2, base.beta1, base.beta2)
    assert not tilted.is_real() and all(m.dtype == np.complex128 for m in _fields(tilted))
    cayley = rand_bc_cayley(3, rng)
    assert not cayley.is_real() and all(m.dtype == np.complex128 for m in _fields(cayley))


# ------------------------------------------------------------------- traces

def test_traces_are_bc_rows():
    bc = build_preset("dirichlet", 2)
    bd = BoundaryData([1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0])
    gt = gamma_trace(bc, bd)
    assert np.allclose(gt, [1.0, 2.0, 5.0, 6.0])  # values only
    nt = neumann_trace(bd)
    assert np.allclose(nt, [3.0, 4.0, -7.0, -8.0])  # outward at the origin


# -------------------------------------------------------------------- splits

def test_split_spec_validation():
    with pytest.raises(CutOnVertex):
        split_graph(StarGraph((free_edge(1.0),)), build_preset("dirichlet", 1),
                    SplitSpec(((0, 0.0),), SINGLE))
    with pytest.raises(CutsOutOfOrder):
        # same-wire cuts must come as (s1, s2) with s2 < s1
        SplitSpec(((0, 0.25), (0, 0.75)), SAME_WIRE)
    with pytest.raises(ValueError):
        SplitSpec(((0, 0.5),), "diagonal")


def test_single_split_pieces():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    assert set(parts) == {"omega1:D", "omega1:N", "omega2:D", "omega2:N"}
    g1, bc1 = parts["omega1:D"]
    g2, bc2 = parts["omega2:D"]
    # lengths: detached interval [1/3, 1] and a star with wire 0 shortened
    assert g1.n == 1 and np.isclose(g1.edges[0].length, 2 / 3)
    assert g2.n == 2 and np.isclose(g2.edges[0].length, 1 / 3)
    assert np.isclose(g2.edges[1].length, 1.0)
    # total length is conserved across the pieces
    assert np.isclose(g1.lengths.sum() + g2.lengths.sum(), g.lengths.sum())
    # the interval keeps the outer Gamma condition in its beta slot
    assert np.isclose(bc1.beta1[0], bc.beta1[0]) and np.isclose(bc1.beta2[0], bc.beta2[0])
    require_valid_bc(bc1), require_valid_bc(bc2)


def test_single_split_potential_restriction():
    g, bc, spec = barrier_end()
    parts = split_graph(g, bc, spec)
    g1, _ = parts["omega1:D"]
    g2, _ = parts["omega2:D"]
    # omega1 carries the well, the shortened wire is free
    assert g1.edges[0].potential.value_at(0.1) == -10.0
    assert g2.edges[0].potential.value_at(0.1) == 0.0


def test_same_wire_split_pieces():
    g, bc, spec = barrier_interior()
    parts = split_graph(g, bc, spec)
    assert set(parts) == {"omega1:D", "omega1:N",
                          "tilde1:DD", "tilde1:DN", "tilde1:ND", "tilde1:NN",
                          "tilde2:D", "tilde2:N"}
    gm, _ = parts["tilde1:DD"]
    assert gm.n == 1 and np.isclose(gm.edges[0].length, 0.5)
    assert gm.edges[0].potential.value_at(0.25) == -10.0
    go, _ = parts["omega1:D"]
    assert np.isclose(go.edges[0].length, 0.25)
    gs, _ = parts["tilde2:D"]
    assert gs.n == 2 and np.isclose(gs.edges[0].length, 0.25)


def test_same_wire_superscript_slots():
    # first letter = condition at s1 (far slot), second = at s2 (origin slot)
    g, bc, spec = barrier_interior()
    parts = split_graph(g, bc, spec)
    _, dn = parts["tilde1:DN"]
    assert np.isclose(dn.beta1[0], 1.0) and np.isclose(dn.beta2[0], 0.0)  # D at s1
    assert np.allclose(dn.alpha1, 0.0) and np.allclose(dn.alpha2, 1.0)   # N at s2
    _, nd = parts["tilde1:ND"]
    assert np.isclose(nd.beta1[0], 0.0) and np.isclose(nd.beta2[0], 1.0)
    assert np.allclose(nd.alpha1, 1.0) and np.allclose(nd.alpha2, 0.0)


def test_two_wire_split_pieces():
    g, bc, spec = two_wire()
    parts = split_graph(g, bc, spec)
    assert set(parts) == {"omega1:D", "omega1:N", "tilde1:D", "tilde1:N",
                          "tilde2:DD", "tilde2:DN", "tilde2:ND", "tilde2:NN"}
    gs, bcs = parts["tilde2:DD"]
    assert gs.n == 2
    assert np.allclose(gs.lengths, [0.5, 0.5])
    assert gs.edges[0].potential.value_at(0.3) == -10.0
    # residual star keeps the origin coupling
    assert np.allclose(bcs.alpha1, bc.alpha1) and np.allclose(bcs.alpha2, bc.alpha2)


def test_split_rejects_mismatched_cut():
    g, bc, _ = barrier_end()
    with pytest.raises(DimensionMismatch):
        split_graph(g, bc, SplitSpec(((5, 0.5),), SINGLE))
    with pytest.raises(DimensionMismatch):
        split_graph(g, build_preset("dirichlet", 3), SplitSpec(((0, 0.5),), SINGLE))


@pytest.mark.parametrize("call, error, word", [
    (lambda: PiecewiseConstant(()), ValueError, "empty"),
    (lambda: pc((0.0, 1.0, 2.0)).value_at(1.5), ValueError, "outside"),
    (lambda: pc((0.0, 1.0, 2.0)).restrict(2.0, 3.0), ValueError, "misses"),
    (lambda: Sampled((0.0, 0.5, 0.5, 1.0), (0.0, 1.0, 2.0, 3.0)), ValueError, "increasing"),
    (lambda: EdgeSpec(1.0, 3.0), TypeError, "unsupported"),
    (lambda: StarGraph(()), ValueError, "at least one edge"),
    (lambda: BoundaryConditions(np.eye(2), np.eye(2), np.ones(3), np.zeros(3)),
     DimensionMismatch, "n x n"),
    (lambda: BoundaryData(np.ones(2), np.ones(3), np.ones(2), np.ones(2)),
     DimensionMismatch, "share length"),
    (lambda: SplitSpec(((0, 0.5),), "triple"), ValueError, "unknown split mode"),
    (lambda: SplitSpec(((0, 0.5),), TWO_WIRES), CutsOutOfOrder, "needs 2 cut"),
    (lambda: SplitSpec(((0, 0.5), (1, 0.3)), SAME_WIRE), CutsOutOfOrder, "share an edge"),
    (lambda: SplitSpec(((0, 0.5), (0, 0.3)), TWO_WIRES), CutsOutOfOrder, "distinct edges"),
    (lambda: gamma_trace(build_preset("kirchhoff", 2), BoundaryData(*[np.ones(3)] * 4)),
     DimensionMismatch, "data has"),
    (lambda: build_preset("kirchhoff", 0), ValueError, "n must be"),
    (lambda: build_preset("mixed", 2), ValueError, "unknown preset"),
    # a cut wire is an integer or an integral float, never truncated
    (lambda: SplitSpec(((0.9, 0.5),), SINGLE), TypeError, "integer"),
    (lambda: SplitSpec(((True, 0.5),), SINGLE), TypeError, "integer"),
    (lambda: SplitSpec((("1", 0.5),), SINGLE), TypeError, "integer"),
])
def test_bad_input_is_rejected(call, error, word):
    with pytest.raises(error, match=word):
        call()


def test_integral_cut_wires_read_as_integers():
    spec = SplitSpec(((1.0, 0.5), (np.int64(0), 0.5)), TWO_WIRES)
    assert spec.cuts == ((1, 0.5), (0, 0.5))
    assert all(type(j) is int for j, _ in spec.cuts)
