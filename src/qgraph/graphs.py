"""Star graphs, separated self-adjoint boundary conditions, traces, splitting.

A star graph is an ordered list of edges, each parameterized as [0, length]
with coordinate 0 at the shared origin vertex.  Boundary conditions are the
pair of n x n matrices (alpha1, alpha2) acting on origin data plus diagonal
pairs (beta1, beta2) acting on the outer endpoints, subject to the usual
rank and self-adjointness constraints.

Splitting a graph at interior cut points gives one detached interval per
cut and a residual star, by one rule for every mode (split_graph).  A cut
condition is the pair (1, 0) for Dirichlet or (0, 1) for Neumann, in an
alpha slot (cut at a local origin) or a beta slot (at a local outer end).
"""
from __future__ import annotations

import functools
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class GraphError(ValueError):
    pass


class RankDeficient(GraphError):
    pass


class NotSelfAdjoint(GraphError):
    pass


class DegenerateDiagonalPair(GraphError):
    pass


class DimensionMismatch(GraphError):
    pass


class CutOnVertex(GraphError):
    pass


class CutsOutOfOrder(GraphError):
    pass


def as_index(v, what, size=None):
    """v, an integer (not a bool) or integral float, as an int; in 0..size-1 if size."""
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer))
                                   or isinstance(v, float) and v.is_integer()):
        raise TypeError(f"{what} must be an integer, got {v!r}")
    if size is not None and not 0 <= v < size:
        raise ValueError(f"{what} {v} is out of range 0..{size - 1}")
    return int(v)


RANK_TOL = 1e-10          # sigma_min/sigma_max threshold on the n x 2n blocks
SELFADJ_TOL = 1e-10       # scaled by (1 + max |entry|^2)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Potential that is constant on each sub-interval of a partition of [0, L]."""

    pieces: tuple  # ((start, end, value), ...) sorted, contiguous

    def __post_init__(self):
        pieces = tuple((float(a), float(b), float(v)) for a, b, v in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("empty piecewise potential")
        for a, b, v in pieces:
            if not np.isfinite((a, b, v)).all():
                raise ValueError(f"piece ({a}, {b}, {v}) has a non-finite entry")
            if not b > a:
                raise ValueError(f"empty or reversed piece ({a}, {b})")
        for (_, b0, _), (a1, _, _) in zip(pieces[:-1], pieces[1:]):
            if abs(a1 - b0) > 1e-12 * max(1.0, abs(b0)):
                raise ValueError("pieces must partition the edge without gaps or overlap")

    @property
    def span(self):
        return self.pieces[0][0], self.pieces[-1][1]

    @cached_property
    def segments(self):
        """((a, b, V(a), V(b)), ...): the linear segment table; flat here."""
        return tuple((a, b, v, v) for a, b, v in self.pieces)

    def value_at(self, x):
        for a, b, v in self.pieces:
            if a <= x <= b:
                return v
        raise ValueError(f"x={x} outside potential domain {self.span}")

    def restrict(self, a, b):
        """Clip to [a, b] and shift so the result spans [0, b-a]."""
        out = []
        for p0, p1, v in self.pieces:
            lo, hi = max(p0, a), min(p1, b)
            if hi > lo:
                out.append((lo - a, hi - a, v))
        if not out:
            raise ValueError(f"restriction [{a}, {b}] misses the potential domain")
        # snap endpoints so the restriction exactly spans [0, b-a]
        out[0] = (0.0, out[0][1], out[0][2])
        out[-1] = (out[-1][0], b - a, out[-1][2])
        return PiecewiseConstant(tuple(out))


@dataclass(frozen=True)
class Sampled:
    """Potential given on a strictly increasing grid, linearly interpolated."""

    xs: tuple
    vs: tuple

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        vs = tuple(float(v) for v in self.vs)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        if len(xs) != len(vs) or len(xs) < 2:
            raise ValueError("sampled potential needs matching grids of length >= 2")
        bad = np.array(xs + vs)[~np.isfinite(xs + vs)]
        if bad.size:
            raise ValueError(f"sampled potential has a non-finite sample {bad[0]}")
        if any(x1 <= x0 for x0, x1 in zip(xs[:-1], xs[1:])):
            raise ValueError("sample grid must be strictly increasing")

    @property
    def span(self):
        return self.xs[0], self.xs[-1]

    @cached_property
    def segments(self):
        """((a, b, V(a), V(b)), ...): one linear segment per sample interval."""
        return tuple(zip(self.xs[:-1], self.xs[1:], self.vs[:-1], self.vs[1:]))

    def value_at(self, x):
        return float(np.interp(x, self.xs, self.vs))

    def restrict(self, a, b):
        inner = [x for x in self.xs if a < x < b]
        xs = np.array([a] + inner + [b])
        vs = np.interp(xs, self.xs, self.vs)
        return Sampled(tuple(xs - a), tuple(vs))


@dataclass(frozen=True)
class EdgeSpec:
    length: float
    potential: object  # PiecewiseConstant or Sampled

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))
        if not 0.0 < self.length < np.inf:
            raise ValueError(f"edge length must be positive and finite, got {self.length}")
        if not isinstance(self.potential, (PiecewiseConstant, Sampled)):
            raise TypeError(f"unsupported potential type {type(self.potential).__name__}")
        lo, hi = self.potential.span
        if abs(lo) > 1e-12 or abs(hi - self.length) > 1e-12 * max(1.0, self.length):
            raise ValueError(f"potential spans [{lo}, {hi}], edge needs [0, {self.length}]")


def free_edge(length):
    """Edge with zero potential; the common case in examples."""
    return EdgeSpec(length, PiecewiseConstant(((0.0, length, 0.0),)))


@dataclass(frozen=True)
class StarGraph:
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges:
            raise ValueError("a star graph needs at least one edge")

    @property
    def n(self):
        return len(self.edges)

    @property
    def lengths(self):
        return np.array([e.length for e in self.edges])


@dataclass(frozen=True)
class BoundaryConditions:
    """alpha1 u(0) + alpha2 u'(0) = 0 at the origin, g_i u_i(l_i) + h_i u_i'(l_i) = 0 outside.

    Data that pass is_real (every imaginary part within 1e-14) are stored
    as float arrays, so real data at real lambda give real frames with no
    cast downstream; evans._launch turns them into solution launch data.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    beta1: np.ndarray  # diagonal entries g_i
    beta2: np.ndarray  # diagonal entries h_i

    def __post_init__(self):
        data = {k: f(np.asarray(getattr(self, k), dtype=complex)) for k, f in
                (("alpha1", np.atleast_2d), ("alpha2", np.atleast_2d),
                 ("beta1", np.atleast_1d), ("beta2", np.atleast_1d))}
        a1, a2, b1, b2 = data.values()
        n = a1.shape[0]
        if a1.shape != (n, n) or a2.shape != (n, n) or b1.shape != (n,) or b2.shape != (n,):
            raise DimensionMismatch("alpha matrices must be n x n, beta diagonals length n")
        flat = np.concatenate([m.ravel() for m in data.values()])
        if not np.isfinite(flat).all():
            k, m = next((k, m) for k, m in data.items() if not np.isfinite(m).all())
            raise ValueError(f"{k} has a non-finite entry {m[~np.isfinite(m)][0]}")
        real = np.abs(flat.imag).max() <= 1e-14
        for k, m in data.items():
            object.__setattr__(self, k, m.real.copy() if real else m)
        object.__setattr__(self, "_real", bool(real))

    @property
    def n(self):
        return self.alpha1.shape[0]

    def is_real(self):
        return self._real


@dataclass(frozen=True)
class BoundaryData:
    values_at_ell: np.ndarray
    derivs_at_ell: np.ndarray
    values_at_0: np.ndarray
    derivs_at_0: np.ndarray

    def __post_init__(self):
        for name in ("values_at_ell", "derivs_at_ell", "values_at_0", "derivs_at_0"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=complex)))
        n = self.values_at_ell.shape[0]
        if any(getattr(self, f).shape != (n,) for f in
               ("derivs_at_ell", "values_at_0", "derivs_at_0")):
            raise DimensionMismatch("boundary data vectors must share length n")

    @property
    def n(self):
        return self.values_at_ell.shape[0]


SINGLE = "single"
SAME_WIRE = "same_wire"
TWO_WIRES = "two_wires"


class Piece(NamedTuple):
    """The interval that cut `origin` detaches, up to the cut in `outer` or
    the wire's end; or (origin None) the residual star, cut at `outer`."""

    name: str
    origin: object    # cut index at the local origin, None for the star
    outer: tuple      # cut indices in outer (beta) slots, in cut order
    side: int         # 0 on the MM1 side of the two-sided map, 1 on MM2
    ports: tuple      # the cuts on its boundary, in the slot order of its map
    factor_key: str   # split_graph key, Dirichlet at every port


def _piece(name, origin, outer, side):
    """A Piece with its ports and factor key filled in."""
    ports = outer if origin is None else outer + (origin,)
    return Piece(name, origin, outer, side, ports, f"{name}:{'D' * len(ports)}")


@dataclass(frozen=True)
class SplitSpec:
    """Cut positions: (edge index, coordinate), strictly interior.

    same_wire expects cuts ((j, s1), (j, s2)) with s2 < s1, matching the
    convention that the detached interval is [s2, s1].
    """

    cuts: tuple
    mode: str

    def __post_init__(self):
        cuts = tuple((as_index(j, "cut wire"), float(s)) for j, s in self.cuts)
        object.__setattr__(self, "cuts", cuts)
        if self.mode not in (SINGLE, SAME_WIRE, TWO_WIRES):
            raise ValueError(f"unknown split mode {self.mode!r}")
        want = 1 if self.mode == SINGLE else 2
        if len(cuts) != want:
            raise CutsOutOfOrder(f"mode {self.mode} needs {want} cut(s), got {len(cuts)}")
        if self.mode == SAME_WIRE:
            (j1, s1), (j2, s2) = cuts
            if j1 != j2:
                raise CutsOutOfOrder("same_wire cuts must share an edge")
            if not s2 < s1:
                raise CutsOutOfOrder("same_wire cuts must satisfy s2 < s1")
        if self.mode == TWO_WIRES:
            (j1, _), (j2, _) = cuts
            if j1 == j2:
                raise CutsOutOfOrder("two_wires cuts must lie on distinct edges")

    @cached_property
    def pieces(self):
        """The piece each cut detaches, in cut order, then the residual star;
        a piece lies on the MM1 side when an odd number of cuts separates it
        from the star."""
        cuts = self.cuts
        names = ("omega1", "omega2") if len(cuts) == 1 else (
            "omega1", *(f"tilde{i}" for i in range(1, len(cuts) + 1)))
        out = []
        for k, (j, s) in enumerate(cuts):
            wire = sorted((t, m) for m, (i, t) in enumerate(cuts) if i == j)
            at = wire.index((s, k))  # cuts inside this one on its wire
            out.append(_piece(names[k], k, tuple(m for _, m in wire[at + 1:at + 2]), at % 2))
        star = tuple(k for k, (j, s) in enumerate(cuts) if min(t for i, t in cuts if i == j) == s)
        return (*out, _piece(names[-1], None, star, 1))


@dataclass(frozen=True)
class BcReport:
    ok: bool
    failures: tuple  # (error class name, message) pairs

    def __bool__(self):
        return self.ok


def _rank_ok(sv):
    """Singular values sv of an n x 2n block: full rank to RANK_TOL."""
    return sv.min() > RANK_TOL * sv.max() if sv.max() > 0 else False


def validate_bc(bc: BoundaryConditions) -> BcReport:
    """Check rank, self-adjointness and nondegeneracy; name every failure."""
    failures = []
    a1, a2 = bc.alpha1, bc.alpha2
    if not _rank_ok(np.linalg.svd(np.hstack([a1, a2]), compute_uv=False)):
        failures.append(("RankDeficient", "rank([alpha1 alpha2]) < n"))
    pair_norms = np.hypot(np.abs(bc.beta1), np.abs(bc.beta2))  # the sv of the beta block
    if not _rank_ok(pair_norms):
        failures.append(("RankDeficient", "rank([beta1 beta2]) < n"))
    scale = 1.0 + max(np.abs(a1).max(), np.abs(a2).max()) ** 2
    herm = a1 @ a2.conj().T - a2 @ a1.conj().T
    if np.abs(herm).max() > SELFADJ_TOL * scale:
        failures.append(("NotSelfAdjoint", "alpha1 alpha2* != alpha2 alpha1*"))
    pair_scale = 1.0 + max(np.abs(bc.beta1).max(), np.abs(bc.beta2).max())
    for i, (g, h) in enumerate(zip(bc.beta1, bc.beta2)):
        if pair_norms[i] <= 1e-12 * pair_scale:
            failures.append(("DegenerateDiagonalPair", f"(g_{i}, h_{i}) = (0, 0)"))
        elif abs((g * np.conj(h)).imag) > SELFADJ_TOL * pair_scale**2:
            failures.append(("NotSelfAdjoint", f"g_{i} conj(h_{i}) not real"))
    return BcReport(ok=not failures, failures=tuple(failures))


_BC_ERRORS = {
    "RankDeficient": RankDeficient,
    "NotSelfAdjoint": NotSelfAdjoint,
    "DegenerateDiagonalPair": DegenerateDiagonalPair,
}


def require_valid_bc(bc: BoundaryConditions):
    if getattr(bc, "_validated", False):  # immutable, so one pass settles it
        return bc
    report = validate_bc(bc)
    if not report.ok:
        kind, msg = report.failures[0]
        raise _BC_ERRORS[kind](msg)
    object.__setattr__(bc, "_validated", True)
    return bc


def gamma_trace(bc: BoundaryConditions, bd: BoundaryData) -> np.ndarray:
    """Stacked [beta1 u(l) + beta2 u'(l); alpha1 u(0) + alpha2 u'(0)]."""
    if bc.n != bd.n:
        raise DimensionMismatch(f"bc has n={bc.n}, data has n={bd.n}")
    top = bc.beta1 * bd.values_at_ell + bc.beta2 * bd.derivs_at_ell
    bot = bc.alpha1 @ bd.values_at_0 + bc.alpha2 @ bd.derivs_at_0
    return np.concatenate([top, bot])


def neumann_trace(bd: BoundaryData) -> np.ndarray:
    """[u'(l); -u'(0)]; the origin sign follows the outward normal."""
    return np.concatenate([bd.derivs_at_ell, -bd.derivs_at_0])


def build_preset(kind: str, n: int, theta=0.0) -> BoundaryConditions:
    """Standard condition sets.

    dirichlet / neumann apply the same condition at every endpoint.
    kirchhoff couples the origin by continuity plus flux balance and puts
    Dirichlet conditions at the outer ends.  robin imposes u'(v) + theta u(v) = 0
    at every endpoint (theta scalar, or one value per vertex with the origin
    first); theta = 0 recovers neumann.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    ones = np.ones(n)
    zeros = np.zeros(n)
    kind = kind.lower()
    if kind == "dirichlet":
        bc = BoundaryConditions(eye, zero, ones, zeros)
    elif kind == "neumann":
        bc = BoundaryConditions(zero, eye, zeros, ones)
    elif kind == "kirchhoff":
        a1 = np.zeros((n, n))
        a2 = np.zeros((n, n))
        for i in range(n - 1):
            a1[i, i], a1[i, i + 1] = 1.0, -1.0
        a2[n - 1, :] = 1.0
        bc = BoundaryConditions(a1, a2, ones, zeros)
    elif kind == "robin":
        if np.ndim(theta) == 0:
            th = np.full(n + 1, float(theta))
        else:
            th = np.asarray(theta, dtype=float)
            if th.shape != (n + 1,):
                raise DimensionMismatch("robin theta must be scalar or length n+1 (origin first)")
        bc = BoundaryConditions(th[0] * eye, eye, th[1:], ones)
    else:
        raise ValueError(f"unknown preset {kind!r}")
    return require_valid_bc(bc)


DIRICHLET_PAIR = (1.0, 0.0)
NEUMANN_PAIR = (0.0, 1.0)
_CUT_PAIRS = {"D": DIRICHLET_PAIR, "N": NEUMANN_PAIR}


def _check_cut(graph, j, s):
    if not 0 <= j < graph.n:
        raise DimensionMismatch(f"edge index {j} out of range")
    ell = graph.edges[j].length
    if not 0.0 < s < ell:
        raise CutOnVertex(f"cut at {s} not interior to (0, {ell})")


def _replace_outer(bc, replacements):
    """New bc with (g_j, h_j) overridden for each j in replacements."""
    b1, b2 = bc.beta1.copy(), bc.beta2.copy()
    for j, (g, h) in replacements.items():
        b1[j], b2[j] = g, h
    return BoundaryConditions(bc.alpha1, bc.alpha2, b1, b2)


class _Split(Mapping):
    """Read-only split: every key listed up front, each problem built and
    validated on its first read."""

    def __init__(self, builders):
        self._builders = {key: functools.cache(build) for key, build in builders.items()}

    def __getitem__(self, key):
        return self._builders[key]()

    def __iter__(self):
        return iter(self._builders)

    def __len__(self):
        return len(self._builders)


def split_graph(graph: StarGraph, bc: BoundaryConditions, spec: SplitSpec):
    """All subgraph problems of a split, a read-only mapping keyed
    "piece:letters"; a problem is built when its key is first read.

    One rule lays out every mode (spec.pieces): cut k detaches the stretch
    of its wire from s_k (local 0) to the next cut outward (outer slot) or
    to the wire's end; the residual star keeps each cut wire up to its
    innermost cut (outer slot).  The letters give the condition, D or N,
    at each cut on the piece's boundary, in cut order.

    single:    omega1 [s1, l_j], omega2 star
    same_wire: omega1 [s1, l_j], tilde1 [s2, s1] (letters: s1, s2), tilde2 star
    two_wires: omega1 [s1, l_j1], tilde1 [s2, l_j2], tilde2 star (letters: s1, s2)
    """
    require_valid_bc(bc)
    if graph.n != bc.n:
        raise DimensionMismatch(f"graph has {graph.n} edges, bc has n={bc.n}")
    for j, s in spec.cuts:
        _check_cut(graph, j, s)

    def build(piece, letters):
        pair = {k: _CUT_PAIRS[c] for k, c in zip(sorted(piece.ports), letters)}
        if piece.origin is None:
            ends = dict(spec.cuts[k] for k in piece.outer)
            sub = StarGraph(tuple(EdgeSpec(ends[j], e.potential.restrict(0.0, ends[j]))
                                  if j in ends else e for j, e in enumerate(graph.edges)))
            return sub, require_valid_bc(_replace_outer(bc, {spec.cuts[k][0]: pair[k]
                                                             for k in piece.outer}))
        j, a = spec.cuts[piece.origin]
        edge = graph.edges[j]
        b = spec.cuts[piece.outer[0]][1] if piece.outer else edge.length
        sub = StarGraph((EdgeSpec(b - a, edge.potential.restrict(a, b)),))
        g, h = pair[piece.outer[0]] if piece.outer else (bc.beta1[j], bc.beta2[j])
        c1, c2 = pair[piece.origin]
        return sub, require_valid_bc(BoundaryConditions([[c1]], [[c2]], [g], [h]))

    return _Split({f"{piece.name}:{''.join(letters)}": functools.partial(build, piece, letters)
                   for piece in spec.pieces
                   for letters in itertools.product(_CUT_PAIRS, repeat=len(piece.ports))})
