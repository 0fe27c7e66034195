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
lambda.  The legs of each are planned once (propagate.LegPlan) and
evaluated in one stack per batch, so a count that keeps the terms
evaluates them at every grid and refinement step without planning again,
and a split check evaluates each once.  The sweep value, the 2 x 2
builders, the piece factors and the split residuals all read it.  The
one-sided maps are the assembly's one-piece case.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import graphs
from .graphs import (BoundaryConditions, SplitSpec, StarGraph, split_graph)
from .evans import (_evans_values, beta_trace, chunked, evans, frame_matrix,
                    fundamental_frame, lambdas, y_blocks, z_values)
from .propagate import LegPlan

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


def _dtn_blocks(pieces):
    """Dirichlet-to-Neumann block, (L, m, m), of each (kind, (graph, bc),
    cut edges) piece, as one function of an array of lambda: the legs of
    every piece are planned here, once, and each call evaluates them in
    one stack, each piece reading its legs as a slice.

    OUTER, one edge cut at the origin: -z'(0)/z(0), z fixed by the outer
    condition.  INTERVAL, [0, d] cut at both ends (slot 0 at d): columns are
    the solutions with unit value at one end and zero at the other, rows the
    outward derivatives.  STAR, cut at the outer ends of the cut edges:
    column k is the solution whose gamma-trace is cut k's basis vector, row
    r its derivative at cut r; the origin block of that trace system sees
    zero data, so these are Y combinations solved from Y's beta-trace.
    """
    plan = LegPlan([(e, e.length, 0.0) if kind == OUTER else (e, 0.0, e.length)
                    for kind, (g, _), _ in pieces for e in g.edges])
    firsts = [0, *itertools.accumulate(g.n for _, (g, _), _ in pieces)]

    def blocks(lams):
        stack, out = plan.stack(lams), []
        for (kind, (g, bc), cuts), a in zip(pieces, firsts):
            ts = stack[:, a:a + g.n]
            if kind == OUTER:
                z, zp = z_values(bc, ts)
                out.append((-zp / z)[:, :, None])
            elif kind == INTERVAL:
                t = ts[:, 0]
                s = t[:, 0, 1]
                out.append(np.stack([np.stack([t[:, 1, 1] / s, -1.0 / s], axis=-1),
                                     np.stack([-1.0 / s, t[:, 0, 0] / s], axis=-1)], axis=-2))
            else:
                yl, ylp = y_blocks(bc, lams, g.lengths, ts)
                unit = np.zeros((g.n, len(cuts)))
                unit[cuts, range(len(cuts))] = 1.0
                out.append(ylp[:, cuts, :] @ _solve_each(beta_trace(bc, yl, ylp), unit))
        return out
    return blocks


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
    lams, scalar = lambdas(lam)
    value = _dtn_blocks([(OUTER, problem, [])])(lams)[0][:, 0, 0]
    e_d = _check_pole(lam, evans(g, _with_cut_condition(bc, "D"), _pole_probe(lam)).value, "E1")
    e_n = evans(g, _with_cut_condition(bc, "N"), lam).value
    return OneSidedMap(side=OUTER, value=value[0] if scalar else value, lam=lam,
                       numerator_evans=e_n, denominator_evans=e_d)


def map_M2(problem, lam, cut_edge=0) -> OneSidedMap:
    """Map of a residual star: (graph, bc) with Dirichlet cut data in the
    outer slot of cut_edge.  Value is the derivative at the cut of the
    solution with unit value there and homogeneous conditions elsewhere.
    """
    g, bc = problem
    cut_edge = graphs.as_index(cut_edge, "cut_edge", g.n)
    e_d = _check_pole(lam, evans(g, bc, _pole_probe(lam)).value, "E2")
    lams, scalar = lambdas(lam)
    value = _dtn_blocks([(STAR, problem, [cut_edge])])(lams)[0][:, 0, 0]
    e_n = evans(g, graphs._replace_outer(bc, {cut_edge: graphs.NEUMANN_PAIR}), lam).value
    return OneSidedMap(side=STAR, value=value[0] if scalar else value, lam=lam,
                       numerator_evans=e_n, denominator_evans=e_d)


def two_sided_sum(m1: OneSidedMap, m2: OneSidedMap):
    if not np.array_equal(m1.lam, m2.lam):
        raise ValueError(f"maps at different lambda: {m1.lam} vs {m2.lam}")
    return m1.value + m2.value


class SplitTerms:
    """The split terms of (g, bc, spec) as functions of an array of lambda
    as lambdas() gives it: evans gives one value array per problem, the full
    graph and then each piece's Dirichlet key (keys), blocks (MM1, MM2) and
    value the two-sided map.  The graph is split once, here, and the legs of
    each term are planned once, the map's on its first use."""

    def __init__(self, g: StarGraph, bc: BoundaryConditions, spec: SplitSpec):
        self.spec = spec
        self.parts = split_graph(g, bc, spec)
        self.keys = [p.factor_key for p in spec.pieces]
        self.evans = _evans_values([(g, bc)] + [self.parts[k] for k in self.keys])

    @functools.cached_property
    def blocks(self):
        """(MM1, MM2), (L, k, k) each for k cuts, slot order the order of
        spec.cuts: each piece's Dirichlet-to-Neumann block, placed on its
        ports on its side (graphs.Piece)."""
        spec = self.spec
        kinds = [STAR if p.origin is None else INTERVAL if p.outer else OUTER for p in spec.pieces]
        dtn = _dtn_blocks([(kind, self.parts[p.factor_key], [spec.cuts[k][0] for k in p.outer])
                           for kind, p in zip(kinds, spec.pieces)])

        def sides(lams):
            out = ([], [])
            for piece, block in zip(spec.pieces, dtn(lams)):
                out[piece.side].append((piece.ports, block))
            return tuple(_side_map(blocks, len(spec.cuts)) for blocks in out)
        return sides

    def value(self, lams):
        """M1 + M2 for a single cut, det(MM1 + MM2) for a double cut."""
        def batch(ls):
            a = np.add(*self.blocks(ls))
            # a single cut keeps the plain sum: det of a 1 x 1 stack is not bitwise its entry
            return [a[:, 0, 0] if len(self.spec.cuts) == 1 else np.linalg.det(a)]
        return chunked(batch, lams, sum(self.parts[k][0].n ** 2 for k in self.keys))[0]


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
    evaluation of the split's Evans terms at _pole_probe(lam), one of its map."""
    terms = SplitTerms(g, bc, spec)
    lams, scalar = lambdas(lam)
    full, *rows = terms.evans(_pole_probe(lam))
    factors = {key: _check_pole(lam, row, key) for key, row in zip(terms.keys, rows)}
    m1, m2 = (m[0] if scalar else m for m in terms.blocks(lams))
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
