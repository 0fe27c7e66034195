"""One-sided and two-sided Dirichlet-to-Neumann maps at interior cut points.

Sign conventions follow the boundary-value definitions: the map on the
detached outer piece is M1 = -u'(cut) and the map on the residual star is
M2 = +u'(cut), for the solution with unit value at the cut and homogeneous
conditions elsewhere.  Both maps also arise as quotients of Evans functions
of the piece with Neumann vs Dirichlet condition at the cut; the outer-piece
quotient carries a minus sign, the star quotient a plus sign.  (The two
routes are compared, not assumed: OneSidedMap records both.)

The factorizations these maps enter are
    E = E1 E2 (M1 + M2)                       (one cut)
    E = E1 Et1 Et2 det(MM1 + MM2)             (two cuts, either geometry)
with every Evans factor taken with Dirichlet conditions at the cuts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .graphs import (BoundaryConditions, SplitSpec, StarGraph, split_graph)
from .evans import (beta_trace, chunked, evans, frame_matrix, fundamental_frame,
                    lambdas, y_blocks, z_values)
from .propagate import edge_transfers

POLE_RTOL = 1e-6  # |denominator Evans| below this times the local scale is a pole

OUTER = "outer"
STAR = "star"

QUOTIENT_SIGN = {OUTER: -1.0, STAR: 1.0}


class PoleAtLambda(ArithmeticError):
    def __init__(self, lam, denominator, label=""):
        super().__init__(f"map pole near lambda={lam}: |{label or 'E'}|={abs(denominator):.3e}")
        self.lam = lam
        self.denominator = denominator


@dataclass(frozen=True)
class OneSidedMap:
    side: str  # OUTER or STAR
    value: complex  # boundary-value-problem route (authoritative)
    lam: complex
    numerator_evans: complex  # Neumann condition at the cut
    denominator_evans: complex  # Dirichlet condition at the cut

    @property
    def quotient_value(self):
        """Evans-quotient route, signed to the same convention as value."""
        return QUOTIENT_SIGN[self.side] * self.numerator_evans / self.denominator_evans

    @property
    def route_residual(self):
        return abs(self.value - self.quotient_value) / (1.0 + abs(self.value))


@dataclass(frozen=True)
class TwoSidedMap2x2:
    m1: np.ndarray  # map of the detached piece(s) carrying both cut slots
    m2: np.ndarray  # map of the complementary piece(s)
    geometry: str  # graphs.SAME_WIRE or graphs.TWO_WIRES
    lam: complex

    @property
    def det_sum(self):
        return np.linalg.det(self.m1 + self.m2)


def _check_pole(lam, value, label, pole_scale):
    if abs(value) < POLE_RTOL * pole_scale:
        raise PoleAtLambda(lam, value, label)


def _with_cut_condition(bc: BoundaryConditions, letter: str) -> BoundaryConditions:
    """Swap the origin condition of a one-edge cut problem to Dirichlet/Neumann."""
    c1, c2 = graphs._CUT_PAIRS[letter]
    return BoundaryConditions([[c1]], [[c2]], bc.beta1, bc.beta2)


def _solve_each(a, b):
    """np.linalg.solve of a stack a (L, n, n) against b (n, m); a singular
    matrix gives NaN in its own slot only."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(a.shape[:-1] + b.shape[-1:], np.nan, dtype=np.result_type(a, b))
        for i, ai in enumerate(a):
            try:
                out[i] = np.linalg.solve(ai, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _outer_maps(problem, lams):
    """-z'(0)/z(0) for each lambda, z the solution fixed by the outer
    condition of a one-edge problem: the map of a detached interval."""
    g, bc = problem
    if g.n != 1:
        raise ValueError("expected a one-edge problem")
    z, zp = z_values(g, bc, lams, (0.0,))
    return -zp[:, 0] / z[:, 0]


def _star_maps(problem, lams, cut_edges):
    """Derivatives at each cut of the solutions with unit value at one cut,
    (L, m, m): column k is the solution whose gamma-trace is the basis
    vector of cut k's outer slot, row r its derivative at cut r's endpoint.

    The origin (C) block of that trace system sees zero data, so these
    solutions are Y combinations, their coefficients solved from the
    beta-trace of Y at the outer ends.
    """
    g, bc = problem
    yl, ylp = y_blocks(g, bc, lams, g.lengths)
    cuts = list(cut_edges)
    unit = np.zeros((g.n, len(cuts)))
    unit[cuts, range(len(cuts))] = 1.0
    return ylp[:, cuts, :] @ _solve_each(beta_trace(bc, yl, ylp), unit)


def _interval_maps(edge, lams):
    """Both-slot map of a detached interval [0, d], (L, 2, 2): columns are
    the solutions with unit value at one end and zero at the other; rows
    are the outward derivatives (plain at d, negated at 0)."""
    t, = edge_transfers([(edge, 0.0, edge.length)], lams)
    s = t[:, 0, 1]
    return np.stack([np.stack([t[:, 1, 1] / s, -1.0 / s], axis=-1),
                     np.stack([-1.0 / s, t[:, 0, 0] / s], axis=-1)], axis=-2)


def map_M1(problem, lam, pole_scale=1.0) -> OneSidedMap:
    """Map of a detached interval: (graph, bc) with the cut in the origin slot.

    The defining solution keeps the outer condition and has unit value at
    the cut; the map is minus its derivative there, computed by propagating
    the outer-condition solution z back to the cut.
    """
    g, bc = problem
    value = _outer_maps(problem, lambdas(lam)[0])[0]
    e_d = evans(g, _with_cut_condition(bc, "D"), lam).value
    _check_pole(lam, e_d, "E1", pole_scale)
    e_n = evans(g, _with_cut_condition(bc, "N"), lam).value
    return OneSidedMap(side=OUTER, value=value, lam=lam,
                       numerator_evans=e_n, denominator_evans=e_d)


def map_M2(problem, lam, cut_edge=0, pole_scale=1.0) -> OneSidedMap:
    """Map of a residual star: (graph, bc) with Dirichlet cut data in the
    outer slot of cut_edge.  Value is the derivative at the cut of the
    solution with unit value there and homogeneous conditions elsewhere.
    """
    g, bc = problem
    e_d = evans(g, bc, lam).value
    _check_pole(lam, e_d, "E2", pole_scale)
    value = _star_maps(problem, lambdas(lam)[0], (cut_edge,))[0, 0, 0]
    b1 = bc.beta1.copy()
    b2 = bc.beta2.copy()
    b1[cut_edge], b2[cut_edge] = 0.0, 1.0
    e_n = evans(g, BoundaryConditions(bc.alpha1, bc.alpha2, b1, b2), lam).value
    return OneSidedMap(side=STAR, value=value, lam=lam,
                       numerator_evans=e_n, denominator_evans=e_d)


def two_sided_sum(m1: OneSidedMap, m2: OneSidedMap):
    if m1.lam != m2.lam:
        raise ValueError(f"maps at different lambda: {m1.lam} vs {m2.lam}")
    return m1.value + m2.value


def two_sided_2x2_same_wire(g: StarGraph, bc: BoundaryConditions,
                            spec: SplitSpec, lam, pole_scale=1.0) -> TwoSidedMap2x2:
    """Cuts at s2 < s1 on one edge.  m1 is the both-slot map of the middle
    interval [s2, s1] (slot order: s1 first); m2 is diagonal because its
    domain is disconnected: the outer map at s1 and the star map at s2.
    """
    if spec.mode != graphs.SAME_WIRE:
        raise ValueError("expected a same-wire split")
    parts = split_graph(g, bc, spec)
    (j, _), _ = spec.cuts
    m_outer = map_M1(parts["omega1:D"], lam, pole_scale)
    m_star = map_M2(parts["tilde2:D"], lam, cut_edge=j, pole_scale=pole_scale)
    mid_graph, _ = parts["tilde1:DD"]
    e_mid = evans(*parts["tilde1:DD"], lam).value
    _check_pole(lam, e_mid, "Et1", pole_scale)
    m1 = _interval_maps(mid_graph.edges[0], lambdas(lam)[0])[0]
    m2 = np.diag([m_outer.value, m_star.value])
    return TwoSidedMap2x2(m1=m1, m2=m2, geometry=graphs.SAME_WIRE, lam=lam)


def two_sided_2x2_two_wires(g: StarGraph, bc: BoundaryConditions,
                            spec: SplitSpec, lam, pole_scale=1.0) -> TwoSidedMap2x2:
    """Cuts on two distinct edges.  m1 is diagonal over the two detached
    outer intervals; m2 couples the cuts through the residual star, its
    columns solving for unit value at one cut and zero at the other.
    """
    if spec.mode != graphs.TWO_WIRES:
        raise ValueError("expected a two-wire split")
    parts = split_graph(g, bc, spec)
    (j1, _), (j2, _) = spec.cuts
    m_out1 = map_M1(parts["omega1:D"], lam, pole_scale)
    m_out2 = map_M1(parts["tilde1:D"], lam, pole_scale)
    e_star = evans(*parts["tilde2:DD"], lam).value
    _check_pole(lam, e_star, "Et2", pole_scale)
    m2 = _star_maps(parts["tilde2:DD"], lambdas(lam)[0], (j1, j2))[0]
    m1 = np.diag([m_out1.value, m_out2.value])
    return TwoSidedMap2x2(m1=m1, m2=m2, geometry=graphs.TWO_WIRES, lam=lam)


def two_sided_value(g: StarGraph, bc: BoundaryConditions, spec: SplitSpec, lam,
                    parts=None):
    """Sweep-friendly two-sided map value: M1 + M2 for a single cut,
    det(MM1 + MM2) for a double cut.

    lam may be an array of lambda, which gives an array of values.  Skips
    the quotient legs and the pole bookkeeping of the full builders: at a
    pole the value is a division blowup, or NaN where a trace block is
    exactly singular, at that lambda only.  Pass parts=split_graph(...) to
    reuse a split.
    """
    if parts is None:
        parts = split_graph(g, bc, spec)
    lams, scalar = lambdas(lam)
    vals = chunked(lambda ls: _two_sided(parts, spec, ls), lams)
    return vals[0] if scalar else vals


def _two_sided(parts, spec, lams):
    if spec.mode == graphs.SINGLE:
        (j, _), = spec.cuts
        return (_outer_maps(parts["omega1:D"], lams)
                + _star_maps(parts["omega2:D"], lams, (j,))[:, 0, 0])
    if spec.mode == graphs.SAME_WIRE:
        (j, _), _ = spec.cuts
        mid_graph, _ = parts["tilde1:DD"]
        m2 = _diag2(_outer_maps(parts["omega1:D"], lams),
                    _star_maps(parts["tilde2:D"], lams, (j,))[:, 0, 0])
        return np.linalg.det(_interval_maps(mid_graph.edges[0], lams) + m2)
    (j1, _), (j2, _) = spec.cuts
    m1 = _diag2(_outer_maps(parts["omega1:D"], lams), _outer_maps(parts["tilde1:D"], lams))
    return np.linalg.det(m1 + _star_maps(parts["tilde2:DD"], lams, (j1, j2)))


def _diag2(a, b):
    """Stack of 2 x 2 diagonal matrices diag(a[i], b[i])."""
    out = np.zeros(a.shape + (2, 2), dtype=np.result_type(a, b))
    out[:, 0, 0], out[:, 1, 1] = a, b
    return out


def split_evans_factors(g: StarGraph, bc: BoundaryConditions, spec: SplitSpec, lam):
    """Evans values of the split pieces, Dirichlet conditions at every cut."""
    parts = split_graph(g, bc, spec)
    return {k: evans(*parts[k], lam).value for k in graphs.PIECE_KEYS[spec.mode]}


def verify_single_split(g: StarGraph, bc: BoundaryConditions, cut, lam,
                        pole_scale=1.0) -> float:
    """Residual of E = E1 E2 (M1 + M2) at one lambda over the size of the
    terms, |E1 E2| (|M1| + |M2|), which shrinks with E on wide stars."""
    spec = SplitSpec((cut,), graphs.SINGLE)
    parts = split_graph(g, bc, spec)
    j = cut[0]
    m1 = map_M1(parts["omega1:D"], lam, pole_scale)
    m2 = map_M2(parts["omega2:D"], lam, cut_edge=j, pole_scale=pole_scale)
    e_full = evans(g, bc, lam).value
    e12 = m1.denominator_evans * m2.denominator_evans
    size = abs(e12) * (abs(m1.value) + abs(m2.value))
    return float(abs(e_full - e12 * two_sided_sum(m1, m2)) / size)


def verify_double_split(g: StarGraph, bc: BoundaryConditions, spec: SplitSpec,
                        lam, pole_scale=1.0) -> float:
    """Residual of E = E1 Et1 Et2 det(a), a = MM1 + MM2, at one lambda over
    the size of the terms, |E1 Et1 Et2| (|a00 a11| + |a01 a10|)."""
    if spec.mode == graphs.SAME_WIRE:
        two_sided = two_sided_2x2_same_wire(g, bc, spec, lam, pole_scale)
    else:
        two_sided = two_sided_2x2_two_wires(g, bc, spec, lam, pole_scale)
    factors = split_evans_factors(g, bc, spec, lam)
    e_full = evans(g, bc, lam).value
    prod = np.prod(list(factors.values()))
    a = two_sided.m1 + two_sided.m2
    size = abs(prod) * (abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0]))
    return float(abs(e_full - prod * two_sided.det_sum) / size)


def minor_identity_check(g: StarGraph, bc: BoundaryConditions, lam,
                         cut_edges=(0, 1)) -> float:
    """For a residual star with free outer slots on two wires:
    E^DD E^NN - E^ND E^DN equals the product of two complementary minors of
    the row-interleaved fundamental matrix (cut wires' Z columns dropped).
    The residual is relative to |E^DD E^NN| + |E^ND E^DN|.
    """
    j1, j2 = cut_edges
    n = g.n
    if n < 2 or j1 == j2:
        raise ValueError("need two distinct cut wires")

    def ev(pair1, pair2):
        b1, b2 = bc.beta1.copy(), bc.beta2.copy()
        b1[j1], b2[j1] = pair1
        b1[j2], b2[j2] = pair2
        return evans(g, BoundaryConditions(bc.alpha1, bc.alpha2, b1, b2), lam).value

    D, N = (1.0, 0.0), (0.0, 1.0)
    t1, t2 = ev(D, D) * ev(N, N), ev(N, D) * ev(D, N)
    fr = frame_matrix(fundamental_frame(g, bc, lam))
    order = [r for j in range(n) for r in (j, n + j)]
    fr = fr[order, :]
    keep_cols = [c for c in range(2 * n) if c not in (n + j1, n + j2)]
    rest = [r for j in range(n) if j not in (j1, j2) for r in (2 * j, 2 * j + 1)]
    b1 = np.linalg.det(fr[np.ix_(sorted([2 * j1, 2 * j1 + 1] + rest), keep_cols)])
    b2 = np.linalg.det(fr[np.ix_(sorted([2 * j2, 2 * j2 + 1] + rest), keep_cols)])
    return float(abs(t1 - t2 - b1 * b2) / (abs(t1) + abs(t2)))
