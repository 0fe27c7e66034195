"""Benchmark inputs: star graphs described once, turned into scenario
documents for the program and into finite-element problems for the
reference.

A star here has a Kirchhoff origin (continuity plus flux balance) and one
end condition for every far end.  Potentials are piecewise constant with
breakpoints at multiples of 1/8 or 1/12 of the wire length, or sampled; cut
points sit at multiples of 1/8 or 1/12 too, so the fine finite-element mesh
(FE_CELLS cells per wire, halved on the coarse mesh) has a node on every
jump and every cut, and on every point of the program's 513-point
resolvent grid.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import fe

FE_CELLS = 3072          # fine-mesh cells per full wire; divisible by 24 and 512
END_NAMES = {fe.DIRICHLET: "dirichlet", fe.NEUMANN: "neumann"}


@dataclass(frozen=True)
class Star:
    lengths: tuple
    potentials: tuple     # fe.Potential per wire
    end: str              # fe.DIRICHLET or fe.NEUMANN at every far end
    mode: str             # "single", "same_wire" or "two_wires"
    cuts: tuple           # ((wire, position), ...) as the program takes them

    @property
    def n(self):
        return len(self.lengths)


def _potential_doc(p):
    if p.kind == "pieces":
        return {"pieces": [list(row) for row in p.data]}
    xs, vs = p.data
    return {"xs": list(xs), "vs": list(vs)}


def scenario(star, sweep=None, intervals=None, grid=None):
    """Scenario document in the program's JSON schema; `grid` is the count
    block's scan grid (points per interval), the program's default if None."""
    doc = {
        "graph": {"edges": [{"length": length, "potential": _potential_doc(p)}
                            for length, p in zip(star.lengths, star.potentials)]},
        "boundary": {"preset": "kirchhoff", "ends": END_NAMES[star.end]},
        "splits": {"mode": star.mode, "cuts": [list(c) for c in star.cuts]},
    }
    if sweep is not None:
        lo, hi, samples = sweep
        doc["sweep"] = {"lambda_min": lo, "lambda_max": hi, "samples": samples}
    if intervals is not None:
        doc["count"] = {"intervals": [list(iv) for iv in intervals]}
        if grid is not None:
            doc["count"]["grid"] = grid
    return doc


# ------------------------------------------------------------ FE problems

def _cells(part, whole):
    c = FE_CELLS * part / whole
    cells = int(round(c))
    if abs(c - cells) > 1e-6 or cells % 2:
        raise ValueError(f"a piece of {part}/{whole} of a wire has no whole even cell count")
    return cells


def _wire(star, j, a, b, end):
    """Part [a, b] of wire j as an FE wire with its origin at a."""
    length = star.lengths[j]
    return fe.Wire(b - a, star.potentials[j], _cells(b - a, length), end, offset=a)


def full_problem(star):
    return fe.Problem(tuple(_wire(star, j, 0.0, star.lengths[j], star.end)
                            for j in range(star.n)), fe.KIRCHHOFF)


def _truncated(star, cuts):
    """The star with each wire j in cuts shortened to [0, cuts[j]], Dirichlet there."""
    return fe.Problem(tuple(
        _wire(star, j, 0.0, cuts[j], fe.DIRICHLET) if j in cuts
        else _wire(star, j, 0.0, star.lengths[j], star.end)
        for j in range(star.n)), fe.KIRCHHOFF)


def _outer(star, j, s):
    """Interval [s, l_j] with a Dirichlet cut at s and the far end kept."""
    return fe.Problem((_wire(star, j, s, star.lengths[j], star.end),), fe.DIRICHLET)


def piece_problems(star):
    """The split pieces the counting identity uses, Dirichlet at every cut,
    keyed as the program keys its split pieces."""
    if star.mode == "single":
        (j, s), = star.cuts
        return {"omega1:D": _outer(star, j, s), "omega2:D": _truncated(star, {j: s})}
    if star.mode == "same_wire":
        (j, s1), (_, s2) = star.cuts
        middle = fe.Problem((_wire(star, j, s2, s1, fe.DIRICHLET),), fe.DIRICHLET)
        return {"omega1:D": _outer(star, j, s1), "tilde1:DD": middle,
                "tilde2:D": _truncated(star, {j: s2})}
    (j1, s1), (j2, s2) = star.cuts
    return {"omega1:D": _outer(star, j1, s1), "tilde1:D": _outer(star, j2, s2),
            "tilde2:DD": _truncated(star, {j1: s1, j2: s2})}


# ------------------------------------------------------ reference scenarios

def _pieces(*rows):
    return fe.Potential("pieces", tuple(tuple(float(x) for x in r) for r in rows))


FREE = _pieces((0.0, 1.0, 0.0))
THIRD = 1.0 / 3.0

REFERENCES = {
    # the paper's three configurations, as `qgraph example` ships them
    "barrier_end": (Star((1.0, 1.0), (_pieces((0.0, THIRD, 0.0), (THIRD, 1.0, -10.0)), FREE),
                         fe.DIRICHLET, "single", ((0, THIRD),)),
                    (5.0, 60.0, 1024), ((5.0, 60.0),)),
    "barrier_interior": (Star((1.0, 1.0), (_pieces((0.0, 0.25, 0.0), (0.25, 0.75, -10.0),
                                                   (0.75, 1.0, 0.0)), FREE),
                              fe.NEUMANN, "same_wire", ((0, 0.75), (0, 0.25))),
                         (5.0, 60.0, 1024), ((5.0, 60.0),)),
    "two_wire": (Star((1.0, 1.0), (_pieces((0.0, 0.5, -10.0), (0.5, 1.0, 0.0)),) * 2,
                      fe.DIRICHLET, "two_wires", ((0, 0.5), (1, 0.5))),
                 (3.0, 60.0, 1024), ((3.0, 60.0), (5.0, 60.0))),
}


# ---------------------------------------------------------- seeded stars

def random_star(rng, n, mode, depth=12.0):
    """n wires of length in [0.75, 1.25], Dirichlet ends, each with a
    3-piece potential: breakpoints at two distinct eighths of the length,
    values uniform in [-depth, depth].  Cuts sit at a breakpoint of the
    cut wire: wire 0 for a single cut, wires 0 and 1 for a two-wire split."""
    lengths, pots, breaks = [], [], []
    for _ in range(n):
        length = float(rng.uniform(0.75, 1.25))
        b1, b2 = sorted(int(k) for k in rng.choice(np.arange(1, 8), 2, replace=False))
        vals = rng.uniform(-depth, depth, 3)
        xs = (0.0, b1 * length / 8, b2 * length / 8, length)
        pots.append(fe.Potential("pieces", tuple(
            (xs[i], xs[i + 1], float(vals[i])) for i in range(3))))
        lengths.append(length)
        breaks.append(xs[1])
    if mode == "single":
        cuts = ((0, breaks[0]),)
    elif mode == "two_wires":
        cuts = ((0, breaks[0]), (1, breaks[1]))
    else:
        raise ValueError(mode)
    return Star(tuple(lengths), tuple(pots), fe.DIRICHLET, mode, cuts)


def sampled_well_star(rng, samples=41):
    """Two wires, Kirchhoff origin, Dirichlet ends.  Wire 0 (length 1)
    carries a smooth Gaussian well given on `samples` equally spaced points
    (the program interpolates linearly between them); wire 1 (length in
    [0.9, 1.1]) a two-piece step.  One cut, on the well's wire at 3/4.  The
    well varies little with the seed (depth 9 to 11, centre 0.45 to 0.55,
    width 0.14 to 0.16), because the adaptive integrator's cost follows it."""
    depth = float(rng.uniform(9.0, 11.0))
    centre = float(rng.uniform(0.45, 0.55))
    width = float(rng.uniform(0.14, 0.16))
    xs = np.linspace(0.0, 1.0, samples)
    vs = -depth * np.exp(-((xs - centre) / width) ** 2)
    well = fe.Potential("samples", (tuple(float(x) for x in xs),
                                    tuple(float(v) for v in vs)))
    l1 = float(rng.uniform(0.9, 1.1))
    step = fe.Potential("pieces", ((0.0, l1 / 2, float(rng.uniform(-5.0, 5.0))),
                                   (l1 / 2, l1, 0.0)))
    return Star((1.0, l1), (well, step), fe.DIRICHLET, "single", ((0, 0.75),))


def clear_ends(problems, lo, hi, margin=1e-2, step=0.05):
    """Move lo up and hi down by `step` until neither lies within `margin`
    of an eigenvalue of any of the problems (fine-mesh inertia counts)."""
    def on_spectrum(x):
        return any(np.ptp(fe.count_below(p, [x - margin, x + margin])) for p in problems)

    while on_spectrum(lo):
        lo += step
    while on_spectrum(hi):
        hi -= step
    if not hi > lo:
        raise ValueError("no clear interval")
    return lo, hi


def star_interval(star, roots, lo=1.0, cap=100.0, margin=1e-2):
    """[lo, hi] holding `roots` eigenvalues of the graph and its pieces
    together (more only if no gap of 4 * margin follows the last of them),
    with both ends clear of every spectrum.  Each of these eigenvalues is a
    zero the counting identity refines twice, once as a zero of its own
    Evans function and once as a zero or pole of the map, so a fixed number
    keeps the work of a count from depending on the seed."""
    problems = [full_problem(star)] + list(piece_problems(star).values())
    lo, _ = clear_ends(problems, lo, cap, margin)
    values = np.sort(np.concatenate([fe.eigenvalues(p, lo, cap) for p in problems]))
    for i in range(roots, values.size):
        if values[i] - values[i - 1] > 4 * margin:
            return lo, 0.5 * (values[i - 1] + values[i])
    raise ValueError(f"fewer than {roots + 1} separated eigenvalues in [{lo}, {cap}]")
