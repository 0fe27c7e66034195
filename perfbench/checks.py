"""Output checks against the finite-element reference or a property the
method must have.  Every check returns a list of problems; empty means the
output is right.  No check compares with a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import io

import numpy as np

import fe

SWEEP_MARGIN = 1e-5       # relative; FE eigenvalues err by < 2e-6 relative at lam <= 100
LOCATION_SLACK = 1e-9     # relative; covers the program's 1e-10 root tolerance
FACTOR_TOL = 1e-7         # scale-aware factorization residuals (verify's own tolerance)
MINOR_TOL = 1e-8


# ------------------------------------------------------------------ count

def _expand(pairs):
    return sorted(float(z) for z, m in pairs for _ in range(int(m)))


def match_locations(found, ref, label):
    """found: ((location, multiplicity), ...); ref: fe.Spectrum.  Equal
    numbers, and each location within the two-mesh error estimate of its
    partner."""
    locs = _expand(found)
    if len(locs) != ref.values.size:
        return [f"{label}: {len(locs)} located, FE has {ref.values.size}: "
                f"{locs} vs {list(ref.values)}"]
    out = []
    for z, v, e in zip(locs, ref.values, ref.errors):
        if abs(z - v) > e + LOCATION_SLACK * (1.0 + abs(v)):
            out.append(f"{label}: {z!r} vs FE {v!r}, beyond estimate {e:.2e}")
    return out


def _merge(spectra):
    vals = np.concatenate([s.values for s in spectra])
    errs = np.concatenate([s.errors for s in spectra])
    order = np.argsort(vals)
    return fe.Spectrum(values=vals[order], errors=errs[order])


def check_count(machine, full, pieces):
    """machine: the dict count_report returns.  full: fe.Problem; pieces:
    key -> fe.Problem.  Every interval holds, every count equals the FE
    count, every eigenvalue and pole sits at an FE eigenvalue of its
    problem, and every map zero at an FE eigenvalue of the full problem."""
    out = []
    for block in machine["intervals"]:
        lo, hi = block["full"]["interval"]
        tag = f"[{lo:g}, {hi:g}]"
        if not block["holds"]:
            out.append(f"{tag}: identity fails: {block['identity']}")
        ref_full = fe.spectrum(full, lo, hi)
        if block["full"]["count"] != ref_full.values.size:
            out.append(f"{tag}: full count {block['full']['count']} != FE {ref_full.values.size}")
        out += match_locations(block["full"]["zeros"], ref_full, f"{tag} eigenvalues")
        if set(block["pieces"]) != set(pieces):
            out.append(f"{tag}: pieces {sorted(block['pieces'])} != {sorted(pieces)}")
            continue
        refs = {}
        for key, rep in block["pieces"].items():
            refs[key] = fe.spectrum(pieces[key], *rep["interval"])
            if rep["count"] != refs[key].values.size:
                out.append(f"{tag}: {key} count {rep['count']} != FE {refs[key].values.size}")
            out += match_locations(rep["zeros"], refs[key], f"{tag} {key} zeros")
        out += match_locations(block["map"]["poles"], _merge(refs.values()), f"{tag} map poles")
        for z, _ in block["map"]["zeros"]:
            near = np.abs(ref_full.values - z) <= ref_full.errors + LOCATION_SLACK * (1 + abs(z))
            if not near.any():
                out.append(f"{tag}: map zero {z!r} is no FE eigenvalue")
    return out


# ------------------------------------------------------------------ sweeps

def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    data = np.array(body, dtype=float).reshape(len(body), len(header))
    return {h: data[:, i] for i, h in enumerate(header)}


def _ambiguous_points(problem, lams, counts):
    """Grid points that an FE eigenvalue lies within SWEEP_MARGIN of: on
    such a point the sign of E may go either way."""
    cells = np.nonzero(np.diff(counts))[0]
    if not cells.size:
        return np.zeros(lams.size, dtype=bool)
    left, right = lams[cells], lams[cells + 1]
    probes = np.concatenate([left + SWEEP_MARGIN * (1.0 + np.abs(left)),
                             right - SWEEP_MARGIN * (1.0 + np.abs(right))])
    c = fe.count_below(problem, probes)
    amb = np.zeros(lams.size, dtype=bool)
    amb[cells[c[:cells.size] > counts[cells]]] = True
    amb[cells[c[cells.size:] < counts[cells + 1]] + 1] = True
    return amb


def check_brackets(lams, values, problem, label):
    """Between two grid points E changes sign exactly when the FE problem
    has an odd number of eigenvalues there: a sign change brackets one
    eigenvalue and no eigenvalue lies outside the brackets, up to two
    eigenvalues sharing one cell.  Points within SWEEP_MARGIN of an FE
    eigenvalue are skipped, which merges their two cells."""
    counts = fe.count_below(problem, lams)
    keep = ~_ambiguous_points(problem, lams, counts) & (values != 0.0)
    idx = np.nonzero(keep)[0]
    flips = np.signbit(values[idx[:-1]]) != np.signbit(values[idx[1:]])
    inside = counts[idx[1:]] - counts[idx[:-1]]
    bad = np.nonzero(flips != (inside % 2 == 1))[0]
    return [f"{label}: sign change {bool(flips[b])} on [{lams[idx[b]]!r}, "
            f"{lams[idx[b + 1]]!r}] holding {int(inside[b])} FE eigenvalue(s)"
            for b in bad[:5]]


def check_sweep(text, full, pieces, rows):
    """evans_csv output: the expected number of rows, every imaginary
    column exactly 0, and the full and piece columns bracket the FE
    spectra of their problems."""
    cols = parse_csv(text)
    lams = cols["lambda"]
    out = []
    if lams.size != rows:
        out.append(f"{lams.size} rows, expected {rows}")
    problems = {"E": full, **{f"E[{k}]": p for k, p in pieces.items()}}
    for name, problem in problems.items():
        if f"Re({name})" not in cols:
            out.append(f"column {name} missing")
            continue
        if np.any(cols[f"Im({name})"] != 0.0):
            out.append(f"Im({name}) is not 0 for real boundary data")
        out += check_brackets(lams, cols[f"Re({name})"], problem, name)
    return out


# ------------------------------------------------------------------ verify

def parse_table(text):
    """verify_table rows as (check, lambda or None, residual, tolerance, status)."""
    lines = text.strip().splitlines()
    if lines[0] != "check,lambda,residual,tolerance,status":
        raise ValueError(f"unexpected header {lines[0]!r}")
    out = []
    for line in lines[1:]:
        name, lam, res, tol, status = line.split(",")
        out.append((name, float(lam) if lam else None, float(res), float(tol), status))
    return out


def check_table(text):
    return [f"{name} at {lam}: residual {res:.3e} > {tol:.1e} ({status})"
            for name, lam, res, tol, status in parse_table(text) if status != "PASS"]


def _det2_scale(a):
    return abs(a[0, 0] * a[1, 1]) + abs(a[0, 1] * a[1, 0])


def factor_residual(qg, g, bc, spec, lam):
    """|E - prod(E_piece) * map term| over the size of the product's
    terms, rebuilt from the public functions.  Unlike 1 + |E|, the scale
    shrinks with E on wide stars, so a wrong factor cannot hide."""
    e_full = qg.evans(g, bc, lam).value
    factors = qg.split_evans_factors(g, bc, spec, lam)
    prod = np.prod(list(factors.values()))
    if spec.mode == "single":
        (j, _), = spec.cuts
        parts = qg.split_graph(g, bc, spec)
        m1 = qg.map_M1(parts["omega1:D"], lam).value
        m2 = qg.map_M2(parts["omega2:D"], lam, cut_edge=j).value
        term, size = m1 + m2, abs(m1) + abs(m2)
    else:
        build = (qg.two_sided_2x2_same_wire if spec.mode == "same_wire"
                 else qg.two_sided_2x2_two_wires)
        two = build(g, bc, spec, lam)
        a = two.m1 + two.m2
        term, size = np.linalg.det(a), _det2_scale(a)
    return float(abs(e_full - prod * term) / (abs(prod) * size))


def minor_residual(qg, g, bc, lam, cut_edges=(0, 1)):
    """E^DD E^NN - E^ND E^DN against the product of two complementary
    minors of the row-interleaved frame matrix, over the size of the terms."""
    j1, j2 = cut_edges
    n = g.n

    def ev(p1, p2):
        b1, b2 = bc.beta1.copy(), bc.beta2.copy()
        b1[j1], b2[j1] = p1
        b1[j2], b2[j2] = p2
        return qg.evans(g, qg.BoundaryConditions(bc.alpha1, bc.alpha2, b1, b2), lam).value

    d, nn = (1.0, 0.0), (0.0, 1.0)
    t1, t2 = ev(d, d) * ev(nn, nn), ev(nn, d) * ev(d, nn)
    fr = qg.frame_matrix(qg.fundamental_frame(g, bc, lam))
    fr = fr[[r for j in range(n) for r in (j, n + j)], :]
    cols = [c for c in range(2 * n) if c not in (n + j1, n + j2)]
    rest = [r for j in range(n) if j not in (j1, j2) for r in (2 * j, 2 * j + 1)]
    b1 = np.linalg.det(fr[np.ix_(sorted([2 * j1, 2 * j1 + 1] + rest), cols)])
    b2 = np.linalg.det(fr[np.ix_(sorted([2 * j2, 2 * j2 + 1] + rest), cols)])
    return float(abs(t1 - t2 - b1 * b2) / (abs(t1) + abs(t2)))


def check_factorizations(qg, text, g, bc, spec):
    """Recompute the single, double and minor rows of a verify table with
    scale-aware residuals at the same lambdas."""
    out = []
    for name, lam, _, _, _ in parse_table(text):
        if name in ("single_split", "double_split"):
            res, tol = factor_residual(qg, g, bc, spec, lam), FACTOR_TOL
        elif name == "minor_identity":
            res, tol = minor_residual(qg, g, bc, lam), MINOR_TOL
        else:
            continue
        if not res <= tol:
            out.append(f"{name} at {lam!r}: scale-aware residual {res:.3e} > {tol:.0e}")
    return out


def check_resolvent(qg, g, bc, problem, lam, sources):
    """resolvent_apply against the FE solve of (K - lam M) u = M v on the
    program's grid points (every sixth fine node, every third coarse one),
    within the two-mesh estimate max |u_h - u_2h|."""
    app = qg.resolvent_apply(g, bc, lam, list(sources))
    fine = fe.solve_source(problem, lam, sources)
    coarse = fe.solve_source(problem, lam, sources, coarse=True)
    out = []
    for j, (u, uf, uc) in enumerate(zip(app.output, fine, coarse)):
        step = (uf.size - 1) // (u.size - 1)
        if step * (u.size - 1) != uf.size - 1:
            raise ValueError("FE mesh does not hold the program's grid")
        ref, ref2 = uf[::step], uc[::step // 2]
        est = np.max(np.abs(ref - ref2))
        dev = np.max(np.abs(u - ref))
        if dev > est + 1e-9 * (1.0 + np.max(np.abs(ref))):
            out.append(f"resolvent at {lam!r}, wire {j}: off FE by {dev:.2e}, "
                       f"estimate {est:.2e}")
    return out
