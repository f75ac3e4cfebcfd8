"""Rotation-side analysis: displacements, lanes, matching, ill densities
and red zones.

Tower positions at anchor stage m are identified with the left endpoints
of the dynamically-ordered 1/q_m intervals, so every quantity here is
exact rational arithmetic; the bulk paths do the same arithmetic on
integer numerators with numpy.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np

from .coefficients import dynamical_index
from .locations import D_n, PointWindow, maturity

LANE_L, LANE_R = "L", "R"


def _interval_value(plan, m: int, x: int) -> Fraction:
    """Left endpoint of tower position x's interval at anchor m."""
    qm = plan.q(m)
    return Fraction((x * plan.p(m)) % qm, qm)


def _jcoord(plan, n: int, y: int) -> int:
    """1-subsection index of position y inside a stage-(n+1) block."""
    st = plan.stage(n)
    return (y // (st.l * plan.q(n))) % st.k


def _block_start_valid(plan, n: int, r_next: int, r_n: int) -> bool:
    """Does position r_next of an (n+1)-block sit inside a digit region
    whose copy offset is r_n?"""
    q = plan.q(n)
    st = plan.stage(n)
    sec = st.l * q
    t, off = divmod(r_next, sec)
    i = t // st.k
    off -= q - dynamical_index(plan.p(n), q, i)
    return 0 <= off < (st.l - 1) * q and off % q == r_n


# ---------------------------------------------------------------------------
# stage-level data

@dataclass(frozen=True)
class StageRotation:
    n: int
    d_L: int
    d_R: int
    beta_n: Fraction
    degenerate: bool          # beta a multiple of 1/q_n: single lane value
    lane_L_count: int
    lane_R_count: int
    uncertain_count: int      # positions whose interval straddles a cut


@dataclass(frozen=True)
class RotationAnalysis:
    beta: Fraction
    anchor: int
    stages: tuple

    def stage(self, n: int) -> StageRotation:
        return self.stages[n]


def analyze_rotation(plan, beta, m: int) -> RotationAnalysis:
    beta = Fraction(beta) % 1
    qm = plan.q(m)
    records = []
    for n in range(m):
        q = plan.q(n)
        p = plan.p(n)
        d_L = D_n(beta, (p, q))
        d_R = D_n((beta + Fraction(1, q)) % 1, (p, q))
        frac = beta * q - floor(beta * q)
        degenerate = frac == 0
        beta_n = Fraction(0) if degenerate else 1 - frac
        cut = beta_n  # lane L exactly when frac(v q_n) < beta_n
        lane_L = lane_R = uncertain = 0
        bd = cut.denominator
        # frac(v q_n) for position x is ((x p_m mod q_m) q_n mod q_m)/q_m
        a = (np.arange(qm, dtype=np.int64) * (plan.p(m) % qm)) % qm
        fr = (a * q) % qm
        if degenerate:
            lane_L = qm
        else:
            lhs = fr * bd
            rhs = qm * cut.numerator
            lane_L = int((lhs < rhs).sum())
            lane_R = qm - lane_L
        # cuts interior to an interval: v* = (j - beta q)/q with v* q_m
        # not an integer
        for j in range(q):
            num = (j - beta * q) % q  # v* in units of 1/q, i.e. v* = num/q
            v_qm = num * qm / q
            if v_qm.denominator != 1:
                uncertain += 1
        records.append(StageRotation(n, d_L, d_R, beta_n, degenerate,
                                     lane_L, lane_R, uncertain))
    return RotationAnalysis(beta, m, tuple(records))


# ---------------------------------------------------------------------------
# pointwise operations

@dataclass(frozen=True)
class Displacement:
    value: int | None
    lane: str | None
    degenerate: bool = False
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None


def displacement(beta, pw: PointWindow, n: int) -> Displacement:
    beta = Fraction(beta) % 1
    plan = pw.seq.plan
    if n < pw.M:
        mat = maturity(pw, n)
        if not mat.mature:
            return Displacement(None, None, reason=mat.violated)
    q, p = plan.q(n), plan.p(n)
    v = _interval_value(plan, pw.M, pw.anchor)
    w = (v + beta) % 1
    d = (D_n(w, (p, q)) - D_n(v, (p, q))) % q
    frac_v = v * q - floor(v * q)
    frac_b = beta * q - floor(beta * q)
    degenerate = frac_b == 0
    lane = LANE_L if (degenerate or frac_v < 1 - frac_b) else LANE_R
    return Displacement(d, lane, degenerate)


@dataclass(frozen=True)
class MatchClass:
    kind: str | None          # well | ill | None when undefined
    j0: int | None = None
    j1: int | None = None
    t: int | None = None
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.kind is not None


def match_class(beta, pw: PointWindow, n: int) -> MatchClass:
    """Compare the argument slot holding the point's principal n-block
    with the slot holding it after displacement; well exactly when they
    agree."""
    plan = pw.seq.plan
    if n + 1 > pw.M:
        return MatchClass(None, reason="anchor too shallow")
    d_lo = displacement(beta, pw, n)
    d_hi = displacement(beta, pw, n + 1)
    if not d_lo.defined or not d_hi.defined:
        return MatchClass(None, reason=d_lo.reason or d_hi.reason)
    beta = Fraction(beta) % 1
    v = _interval_value(plan, pw.M, pw.anchor)
    q_lo, q_hi = plan.q(n), plan.q(n + 1)
    r_lo = D_n(v, (plan.p(n), q_lo))
    r_hi = D_n(v, (plan.p(n + 1), q_hi))
    base = (r_hi - r_lo) % q_hi
    if not _block_start_valid(plan, n, base, r_lo):
        return MatchClass(None, reason="block start in spacer region")
    shifted = (base + d_hi.value - d_lo.value) % q_hi
    j1 = _jcoord(plan, n, base)
    j0 = _jcoord(plan, n, shifted)
    if j0 == j1:
        return MatchClass("well", j0, j1)
    return MatchClass("ill", j0, j1, t=plan.stage(n).k - j0)


# ---------------------------------------------------------------------------
# ill densities

def _stage_arrays(plan, n: int, m: int, beta: Fraction):
    """(r, d) over all tower positions at anchor m for stage n: interval
    index and displacement, as int64 arrays."""
    qm, q, p = plan.q(m), plan.q(n), plan.p(n)
    bn, bd = beta.numerator, beta.denominator
    a = (np.arange(qm, dtype=np.int64) * (plan.p(m) % qm)) % qm
    inv = np.array([dynamical_index(p, q, i) for i in range(q)],
                   dtype=np.int64)
    fl_v = (a * q) // qm
    r = inv[fl_v % q]
    # w = a/qm + bn/bd mod 1; floor(w q) over denominator qm*bd
    num = (a * bd + bn * qm) % (qm * bd)
    fl_w = (num * q) // (qm * bd)
    rw = inv[fl_w % q]
    d = (rw - r) % q
    return r, d


def _ill_mask(plan, n: int, m: int, beta: Fraction) -> np.ndarray:
    q_lo, q_hi = plan.q(n), plan.q(n + 1)
    st = plan.stage(n)
    r_lo, d_lo = _stage_arrays(plan, n, m, beta)
    r_hi, d_hi = _stage_arrays(plan, n + 1, m, beta)
    base = (r_hi - r_lo) % q_hi
    sec = st.l * q_lo
    t, off = np.divmod(base, sec)
    i = t // st.k
    inv = np.array([dynamical_index(plan.p(n), q_lo, v) for v in range(q_lo)],
                   dtype=np.int64)
    off = off - (q_lo - inv[i % q_lo])
    valid = (off >= 0) & (off < (st.l - 1) * q_lo) & (off % q_lo == r_lo)
    shifted = (base + d_hi - d_lo) % q_hi
    j1 = (base // sec) % st.k
    j0 = (shifted // sec) % st.k
    return valid & (j0 != j1)


def delta_n(beta, n: int, m: int, plan) -> Fraction:
    """Exact density of ill-matched tower positions at stage n, counted
    over the anchor-m tower."""
    if m <= n + 1:
        raise ValueError("need m > n + 1")
    beta = Fraction(beta) % 1
    mask = _ill_mask(plan, n, m, beta)
    return Fraction(int(mask.sum()), plan.q(m))


def delta_n_naive(beta, n: int, m: int, plan) -> Fraction:
    """Per-position simulation with scalar rational arithmetic; exists to
    cross-check the array path."""
    if m <= n + 1:
        raise ValueError("need m > n + 1")
    beta = Fraction(beta) % 1
    qm = plan.q(m)
    q_lo, q_hi = plan.q(n), plan.q(n + 1)
    ill = 0
    for x in range(qm):
        v = _interval_value(plan, m, x)
        w = (v + beta) % 1
        r_lo = D_n(v, (plan.p(n), q_lo))
        r_hi = D_n(v, (plan.p(n + 1), q_hi))
        d_lo = (D_n(w, (plan.p(n), q_lo)) - r_lo) % q_lo
        d_hi = (D_n(w, (plan.p(n + 1), q_hi)) - r_hi) % q_hi
        base = (r_hi - r_lo) % q_hi
        if not _block_start_valid(plan, n, base, r_lo):
            continue
        if _jcoord(plan, n, (base + d_hi - d_lo) % q_hi) != \
                _jcoord(plan, n, base):
            ill += 1
    return Fraction(ill, qm)


def ill_at(beta, plan, n: int, m: int, x: int) -> bool:
    """Scalar ill-matching test for one tower position; the point-by-point
    re-verification path for zones."""
    beta = Fraction(beta) % 1
    v = _interval_value(plan, m, x)
    w = (v + beta) % 1
    q_lo, q_hi = plan.q(n), plan.q(n + 1)
    r_lo = D_n(v, (plan.p(n), q_lo))
    r_hi = D_n(v, (plan.p(n + 1), q_hi))
    d_lo = (D_n(w, (plan.p(n), q_lo)) - r_lo) % q_lo
    d_hi = (D_n(w, (plan.p(n + 1), q_hi)) - r_hi) % q_hi
    base = (r_hi - r_lo) % q_hi
    if not _block_start_valid(plan, n, base, r_lo):
        return False
    return _jcoord(plan, n, (base + d_hi - d_lo) % q_hi) != \
        _jcoord(plan, n, base)


@dataclass(frozen=True)
class DeltaPartial:
    beta: Fraction
    values: tuple             # delta_n for n < N
    total: Fraction
    finiteness_decidable: bool = False   # never, from a finite prefix


def delta_partial(beta, N: int, m: int, plan) -> DeltaPartial:
    vals = tuple(delta_n(beta, n, m, plan) for n in range(N))
    return DeltaPartial(Fraction(beta) % 1, vals, sum(vals, Fraction(0)))


# ---------------------------------------------------------------------------
# red zones

@dataclass(frozen=True)
class ZoneLayer:
    stage: int
    block_size: int           # q at the layer's stage
    blocks: tuple             # indices a: positions [a*q_n, (a+1)*q_n)
    j0: int | None            # dominant ill configuration in the layer
    t: int | None

    def positions(self) -> np.ndarray:
        if not self.blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([
            np.arange(a * self.block_size, (a + 1) * self.block_size)
            for a in self.blocks])


@dataclass(frozen=True)
class RedZone:
    anchor: int
    target_density: Fraction
    achieved_density: Fraction
    layers: tuple
    shortfall: bool


def _layer_configuration(plan, n: int, m: int, beta: Fraction, x: int):
    """(j0, t) of one representative ill position, by the scalar path."""
    v = _interval_value(plan, m, x)
    w = (v + beta) % 1
    q_lo, q_hi = plan.q(n), plan.q(n + 1)
    r_lo = D_n(v, (plan.p(n), q_lo))
    r_hi = D_n(v, (plan.p(n + 1), q_hi))
    d_lo = (D_n(w, (plan.p(n), q_lo)) - r_lo) % q_lo
    d_hi = (D_n(w, (plan.p(n + 1), q_hi)) - r_hi) % q_hi
    base = (r_hi - r_lo) % q_hi
    j0 = _jcoord(plan, n, (base + d_hi - d_lo) % q_hi)
    return j0, plan.stage(n).k - j0


def build_red_zones(beta, plan, M: int, delta: Fraction,
                    stages=None) -> RedZone:
    """Reverse-induction zone construction: walk stages from the top,
    claim whole q_n-blocks that are entirely ill-matched and untouched,
    until the uncovered density drops below delta or stages run out."""
    beta = Fraction(beta) % 1
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    qM = plan.q(M)
    if stages is None:
        stages = range(M - 2, -1, -1)
    covered = np.zeros(qM, dtype=bool)
    layers = []
    for n in stages:
        if Fraction(int(covered.sum()), qM) >= 1 - delta:
            break
        qn = plan.q(n)
        ill = _ill_mask(plan, n, M, beta)
        cand = ill & ~covered
        blocks = cand.reshape(qM // qn, qn).all(axis=1)
        idx = np.flatnonzero(blocks)
        if idx.size == 0:
            continue
        for a in idx:
            covered[a * qn:(a + 1) * qn] = True
        j0, t = _layer_configuration(plan, n, M, beta, int(idx[0]) * qn)
        layers.append(ZoneLayer(n, qn, tuple(int(a) for a in idx), j0, t))
    achieved = Fraction(int(covered.sum()), qM)
    return RedZone(M, 1 - delta, achieved, tuple(layers),
                   shortfall=achieved < 1 - delta)


# ---------------------------------------------------------------------------
# reports

def rotation_report_json(plan, beta, N: int, m: int) -> str:
    beta = Fraction(beta) % 1
    ana = analyze_rotation(plan, beta, m)
    part = delta_partial(beta, N, m, plan)
    return json.dumps({
        "beta": f"{beta.numerator}/{beta.denominator}",
        "anchor": m,
        "stages": [{
            "n": st.n, "d_L": st.d_L, "d_R": st.d_R,
            "beta_n": f"{st.beta_n.numerator}/{st.beta_n.denominator}",
            "degenerate": st.degenerate,
            "lane_L": st.lane_L_count, "lane_R": st.lane_R_count,
            "uncertain": st.uncertain_count,
        } for st in ana.stages],
        "delta": [f"{v.numerator}/{v.denominator}" for v in part.values],
        "delta_partial_sum":
            f"{part.total.numerator}/{part.total.denominator}",
        "finiteness_decidable": part.finiteness_decidable,
    }, indent=2)


def delta_csv(plan, beta, N: int, m: int) -> str:
    beta = Fraction(beta) % 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "delta_n", "numerator", "denominator"])
    for n in range(N):
        v = delta_n(beta, n, m, plan)
        writer.writerow([n, float(v), v.numerator, v.denominator])
    return buf.getvalue()
