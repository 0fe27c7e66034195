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
with every Evans factor taken with Dirichlet conditions at the cuts.  One
SplitTerms per split holds every term of both identities and of the count
N_full = sum of N_piece + delta_N: the Evans functions of the graph and of
its Dirichlet pieces, and the assembly of (MM1, MM2) over an array of
lambda.  Every Dirichlet-to-Neumann block is a function of its piece's
own z legs (_dtn_block), so one plan, that of the Evans problems
(evans._evans_values), serves both, evaluated in one stack per batch: a
count that keeps the terms evaluates them at every grid and refinement
step without planning again, and a split check evaluates them once, at
its pole probes.  The sweep value, the 2 x 2 builders, the piece factors
and the split residuals all read it.  The one-sided maps plan a piece's
Dirichlet and Neumann problems together, the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphs
from .graphs import (BoundaryConditions, SplitSpec, StarGraph, split_graph)
from .evans import (_evans_values, chunked, frame_matrix, fundamental_frame, lambdas,
                    z_values)

POLE_RTOL = 1e-6  # a denominator zero within POLE_RTOL (1 + |lambda|) of lambda is a pole

OUTER = "outer"
STAR = "star"
INTERVAL = "interval"

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
        """|value - quotient_value| over |value| + |quotient_value|, 0 where
        both are 0: relative, so it still reads a wrong route near a zero."""
        size = abs(self.value) + abs(self.quotient_value)
        return abs(self.value - self.quotient_value) / np.maximum(size, np.finfo(float).tiny)


@dataclass(frozen=True)
class TwoSidedMap2x2:
    m1: np.ndarray  # map of the detached piece(s) carrying both cut slots
    m2: np.ndarray  # map of the complementary piece(s)
    geometry: str  # graphs.SAME_WIRE or graphs.TWO_WIRES
    lam: complex

    @property
    def det_sum(self):
        return np.linalg.det(self.m1 + self.m2)


def _pole_probe(lam):
    """lam's lambdas, then each moved by -h and by +h, h = POLE_RTOL (1 + |lambda|)."""
    lams, _ = lambdas(lam)
    h = POLE_RTOL * (1.0 + abs(lams))
    return np.concatenate([lams, lams - h, lams + h])


def _check_pole(lam, probed, label):
    """Denominator values at lam from their values at _pole_probe(lam), or
    PoleAtLambda where a zero lies within h by Newton distance |E / E'|, E'
    the central difference: |E(lam)| <= |E(lam + h) - E(lam - h)| / 2."""
    e, below, above = np.split(probed, 3)
    hit = np.flatnonzero(2 * abs(e) <= abs(above - below))
    if hit.size:
        raise PoleAtLambda(np.ravel(lam)[hit[0]], e[hit[0]], label)
    return e if np.ndim(lam) else e[0]


def _solve_each(a, b):
    """np.linalg.solve of a stack a (L, n, n) against b (L, n, m); a singular
    matrix gives NaN in its own slot only."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan, dtype=np.result_type(a, b))
        for i, (ai, bi) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(ai, bi)
            except np.linalg.LinAlgError:
                pass
        return out


def _dtn_block(kind, bc, t, cuts):
    """Dirichlet-to-Neumann block, (L, m, m), of a piece with conditions bc
    (Dirichlet at every cut) from t, (L, n, 2, 2), its transfers from each
    outer end to the origin: the z legs of its Evans problem.

    OUTER, one edge cut at the origin: -z'(0)/z(0), z fixed by the outer
    condition.  INTERVAL, [0, d] cut at both ends (slot 0 at d): columns are
    the solutions with unit value at one end and zero at the other, rows the
    outward derivatives, from the entries of the step t = [[a, b], [c, e]]
    from d to 0.  STAR, cut at the outer ends of the cut edges, where z has
    value 0 and slope 1: column k is w + sum_j d_j z_j, w launched with
    (1, 0) at cut k, so the origin condition reads C d = -(alpha-trace of
    w), C = alpha1 diag z + alpha2 diag z' (FrameBundle.c_block), and row r
    is its slope d at cut r.
    """
    if kind == INTERVAL:
        (a, b), (_, e) = np.moveaxis(t[:, 0], (1, 2), (0, 1))
        return np.stack([np.stack([-a / b, 1.0 / b], axis=-1),
                         np.stack([1.0 / b, -e / b], axis=-1)], axis=-2)
    z, zp = z_values(bc, t)
    if kind == OUTER:
        return (-zp / z)[:, :, None]
    w, wp = t[:, None, cuts, 0, 0], t[:, None, cuts, 1, 0]
    c = bc.alpha1 * z[:, None, :] + bc.alpha2 * zp[:, None, :]
    return -_solve_each(c, bc.alpha1[:, cuts] * w + bc.alpha2[:, cuts] * wp)[:, cuts]


def _one_sided(side, variant, lam, cuts, label):
    """OneSidedMap of a piece, variant(pair) its problem with the cut
    condition pair: the Dirichlet and the Neumann problem planned together
    and evaluated in one stack at _pole_probe(lam), which gives the map,
    its pole check and both Evans values."""
    lams, scalar = lambdas(lam)
    terms = _evans_values([variant(graphs.DIRICHLET_PAIR), variant(graphs.NEUMANN_PAIR)])
    probe = _pole_probe(lam)
    t = terms.plan.stack(probe)
    e_d, e_n = terms.values(t, probe)
    value = _dtn_block(side, terms.problems[0][1], terms.legs(t, 0)[:lams.size], cuts)[:, 0, 0]
    return OneSidedMap(side=side, value=value[0] if scalar else value, lam=lam,
                       numerator_evans=e_n[0] if scalar else e_n[:lams.size],
                       denominator_evans=_check_pole(lam, e_d, label))


def map_M1(problem, lam) -> OneSidedMap:
    """Map of a detached interval: (graph, bc) with the cut in the origin slot.

    The defining solution keeps the outer condition and has unit value at
    the cut; the map is minus its derivative there, computed by propagating
    the outer-condition solution z back to the cut.  An array of lambda
    gives array values, as evans does.
    """
    g, bc = problem
    if g.n != 1:
        raise ValueError("expected a one-edge problem")
    return _one_sided(OUTER, lambda pair: (g, BoundaryConditions(
        [[pair[0]]], [[pair[1]]], bc.beta1, bc.beta2)), lam, [], "E1")


def map_M2(problem, lam, cut_edge=0) -> OneSidedMap:
    """Map of a residual star: (graph, bc) with Dirichlet cut data (g, 0),
    g != 0, in the outer slot of cut_edge, taken as (1, 0).  Value is the
    derivative at the cut of the solution with unit value there and
    homogeneous conditions elsewhere.
    """
    g, bc = problem
    cut_edge = graphs.as_index(cut_edge, "cut_edge", g.n)
    if bc.beta2[cut_edge] != 0:
        raise ValueError(f"map_M2 needs Dirichlet cut data (g, 0) at cut_edge {cut_edge}, got "
                         f"({bc.beta1[cut_edge]}, {bc.beta2[cut_edge]})")
    return _one_sided(STAR, lambda pair: (g, graphs._replace_outer(bc, {cut_edge: pair})),
                      lam, [cut_edge], "E2")


def two_sided_sum(m1: OneSidedMap, m2: OneSidedMap):
    if not np.array_equal(m1.lam, m2.lam):
        raise ValueError(f"maps at different lambda: {m1.lam} vs {m2.lam}")
    return m1.value + m2.value


class SplitTerms:
    """The split terms of (g, bc, spec) as functions of an array of lambda
    as lambdas() gives it: evans gives one value array per problem, the full
    graph and then each piece's Dirichlet key (keys), blocks (MM1, MM2) and
    value the two-sided map.  The graph is split once, here, and the legs of
    every problem are planned once, in evans; the blocks read the pieces'
    legs of its stack."""

    def __init__(self, g: StarGraph, bc: BoundaryConditions, spec: SplitSpec):
        self.spec = spec
        self.parts = split_graph(g, bc, spec)
        self.keys = [p.factor_key for p in spec.pieces]
        self.evans = _evans_values([(g, bc)] + [self.parts[k] for k in self.keys])

    def blocks(self, lams, t=None):
        """(MM1, MM2), (L, k, k) each for k cuts, slot order the order of
        spec.cuts, from the stack t of evans.plan at lams (default: evaluated
        here): each piece's Dirichlet-to-Neumann block, placed on its ports
        on its side (graphs.Piece)."""
        spec = self.spec
        t = self.evans.plan.stack(lams) if t is None else t
        out = ([], [])
        for i, p in enumerate(spec.pieces, 1):
            kind = STAR if p.origin is None else INTERVAL if p.outer else OUTER
            block = _dtn_block(kind, self.parts[p.factor_key][1], self.evans.legs(t, i),
                               [spec.cuts[k][0] for k in p.outer])
            out[p.side].append((p.ports, block))
        return tuple(_side_map(blocks, len(spec.cuts)) for blocks in out)

    def value(self, lams, t=None):
        """M1 + M2 for a single cut, det(MM1 + MM2) for a double cut, from the
        stack t of evans.plan at lams (default: evaluated here, by batches)."""
        def batch(ls, t=None):
            a = np.add(*self.blocks(ls, t))
            # a single cut keeps the plain sum: det of a 1 x 1 stack is not bitwise its entry
            return [a[:, 0, 0] if len(self.spec.cuts) == 1 else np.linalg.det(a)]
        size = sum(self.parts[k][0].n ** 2 for k in self.keys)
        return (chunked(batch, lams, size) if t is None else batch(lams, t))[0]


def two_sided_2x2_same_wire(g: StarGraph, bc: BoundaryConditions,
                            spec: SplitSpec, lam) -> TwoSidedMap2x2:
    """Cuts at s2 < s1 on one edge.  m1 is the both-slot map of the middle
    interval [s2, s1] (slot order: s1 first); m2 is diagonal because its
    domain is disconnected: the outer map at s1 and the star map at s2.
    """
    if spec.mode != graphs.SAME_WIRE:
        raise ValueError("expected a same-wire split")
    return _checked_map(g, bc, spec, lam)[2]


def two_sided_2x2_two_wires(g: StarGraph, bc: BoundaryConditions,
                            spec: SplitSpec, lam) -> TwoSidedMap2x2:
    """Cuts on two distinct edges.  m1 is diagonal over the two detached
    outer intervals; m2 couples the cuts through the residual star, its
    columns solving for unit value at one cut and zero at the other.
    """
    if spec.mode != graphs.TWO_WIRES:
        raise ValueError("expected a two-wire split")
    return _checked_map(g, bc, spec, lam)[2]


def _checked_map(g, bc, spec, lam):
    """The full graph's Evans value, the piece Evans factors and the
    two-sided map at lam (stacked for an array), or PoleAtLambda: one
    evaluation of the split's legs at _pole_probe(lam), whose first
    lambdas give the map."""
    terms = SplitTerms(g, bc, spec)
    lams, scalar = lambdas(lam)
    probe = _pole_probe(lam)
    t = terms.evans.plan.stack(probe)
    full, *rows = terms.evans.values(t, probe)
    factors = {key: _check_pole(lam, row, key) for key, row in zip(terms.keys, rows)}
    m1, m2 = (m[0] if scalar else m for m in terms.blocks(lams, t[:lams.size]))
    return (full[0] if scalar else full[:lams.size], factors,
            TwoSidedMap2x2(m1=m1, m2=m2, geometry=spec.mode, lam=lam))


def two_sided_value(g: StarGraph, bc: BoundaryConditions, spec: SplitSpec, lam):
    """Sweep-friendly two-sided map value: M1 + M2 for a single cut,
    det(MM1 + MM2) for a double cut.

    lam may be an array of lambda, which gives an array of values.  Skips
    the quotient legs and the pole bookkeeping of the full builders: at a
    pole the value is a division blowup, or NaN where a trace block is
    exactly singular, at that lambda only.
    """
    lams, scalar = lambdas(lam)
    vals = SplitTerms(g, bc, spec).value(lams)
    return vals[0] if scalar else vals


def _side_map(blocks, k):
    """(L, k, k) stack of one side's (ports, block) pairs; no two pieces of
    one side share a port, so the blocks are placed, not added."""
    (ports, block), *rest = blocks
    if not rest and ports == tuple(range(k)):
        return block
    out = np.zeros(block.shape[:1] + (k, k), dtype=np.result_type(*(b for _, b in blocks)))
    for ports, block in blocks:
        for a, p in enumerate(ports):
            for b, q in enumerate(ports):
                out[:, p, q] = block[:, a, b]
    return out


def split_evans_factors(g: StarGraph, bc: BoundaryConditions, spec: SplitSpec, lam):
    """Evans values of the split pieces, Dirichlet conditions at every cut."""
    lams, scalar = lambdas(lam)
    terms = SplitTerms(g, bc, spec)
    return {k: v[0] if scalar else v for k, v in zip(terms.keys, terms.evans(lams)[1:])}


def verify_single_split(g: StarGraph, bc: BoundaryConditions, cut, lam) -> float:
    """Residual of E = E1 E2 (M1 + M2) at lam, one per lambda of an array, over
    the size of the terms, |E1 E2| (|M1| + |M2|), which shrinks with E on wide stars."""
    return _split_residual(g, bc, SplitSpec((cut,), graphs.SINGLE), lam)


def verify_double_split(g: StarGraph, bc: BoundaryConditions, spec: SplitSpec, lam) -> float:
    """Residual of E = E1 Et1 Et2 det(a), a = MM1 + MM2, at lam, one per lambda
    of an array, over the size of the terms, |E1 Et1 Et2| (|a00 a11| + |a01 a10|)."""
    if spec.mode == graphs.SINGLE:
        raise ValueError("expected a two-cut split")
    return _split_residual(g, bc, spec, lam)


def _split_residual(g, bc, spec, lam):
    e_full, factors, two = _checked_map(g, bc, spec, lam)
    prod = np.prod(list(factors.values()), axis=0)
    a = two.m1 + two.m2
    if len(spec.cuts) == 1:
        term, size = a[..., 0, 0], abs(two.m1[..., 0, 0]) + abs(two.m2[..., 0, 0])
    else:
        term = two.det_sum
        size = abs(a[..., 0, 0] * a[..., 1, 1]) + abs(a[..., 0, 1] * a[..., 1, 0])
    res = abs(e_full - prod * term) / (abs(prod) * size)
    return res if np.ndim(lam) else float(res)


def minor_identity_check(g: StarGraph, bc: BoundaryConditions, lam,
                         cut_edges=(0, 1)) -> float:
    """For a residual star with free outer slots on two wires:
    E^DD E^NN - E^ND E^DN equals the product of two complementary minors of
    the row-interleaved fundamental matrix (cut wires' Z columns dropped).
    The residual, one per lambda of an array, is relative to |E^DD E^NN| + |E^ND E^DN|.
    """
    j1, j2 = (graphs.as_index(j, "cut edge") for j in cut_edges)
    n = g.n
    if j1 == j2 or not (0 <= j1 < n and 0 <= j2 < n):
        raise ValueError(f"need two distinct cut wires in 0..{n - 1}, got {j1}, {j2}")
    lams, scalar = lambdas(lam)
    D, N = graphs.DIRICHLET_PAIR, graphs.NEUMANN_PAIR
    dd, nn, nd, dn = (v[0] if scalar else v for v in _evans_values(
        [(g, graphs._replace_outer(bc, {j1: p1, j2: p2}))
         for p1, p2 in ((D, D), (N, N), (N, D), (D, N))])(lams))
    t1, t2 = dd * nn, nd * dn
    fr = frame_matrix(fundamental_frame(g, bc, lam))
    order = [r for j in range(n) for r in (j, n + j)]
    fr = fr[..., order, :]
    keep_cols = [c for c in range(2 * n) if c not in (n + j1, n + j2)]
    rest = [r for j in range(n) if j not in (j1, j2) for r in (2 * j, 2 * j + 1)]
    b1 = np.linalg.det(fr[..., sorted([2 * j1, 2 * j1 + 1] + rest), :][..., keep_cols])
    b2 = np.linalg.det(fr[..., sorted([2 * j2, 2 * j2 + 1] + rest), :][..., keep_cols])
    res = abs(t1 - t2 - b1 * b2) / (abs(t1) + abs(t2))
    return res if np.ndim(lam) else float(res)
