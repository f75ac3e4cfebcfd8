"""Rotation-side analysis: displacements, lanes, matching, ill densities
and red zones.

Tower positions at anchor stage m are identified with the left endpoints
a/q_m, a = x p_m mod q_m, of the dynamically-ordered 1/q_m intervals, so
every per-position quantity is an integer function of a.  Every path reads
its stage constants from one bounded memo per (plan, anchor, beta): the
bulk paths run one kernel on an int64 array of every a, and the pointwise
API returns shared results; windows keep the beta-free half of a match.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .coefficients import frac_str, inverse_mod
from .locations import PointWindow, _numerator, descend, maturity
# unused here; perfbench's tracer test asserts rotation.D_n is locations.D_n
from .locations import D_n  # noqa: F401

LANE_L, LANE_R = "L", "R"


# ---------------------------------------------------------------------------
# position kernel

class _Stage(NamedTuple):
    """Constants of stage n for the position kernel at anchor m; for n <= m
    an int64 array a of interval numerators is exact if q_m q_n < 2^63."""
    q: int                    # q_n
    inv: int                  # p_n^{-1} mod q_n
    qm: int                   # q_m
    fb: int                   # floor(beta q_n)
    T: int                    # lane R exactly when (a q_n mod q_m) >= T
    degenerate: bool          # beta a multiple of 1/q_n

    def lane(self, carry):
        """d_n in lane R where carry holds, in lane L elsewhere."""
        return self.inv * (self.fb + carry) % self.q

    def index(self, a):       # r_n, the q_n-interval of a/q_m; free of beta
        return self.inv * (a * self.q // self.qm) % self.q

    def carry(self, a):       # lane R
        return a * self.q % self.qm >= self.T


def _stage(plan, n: int, m: int, beta: Fraction) -> _Stage:
    """Kernel constants of stage n at anchor m for rotation by beta.

    With beta q_n = fb + c/bd, adding beta to a/q_m carries one
    q_n-interval past fb exactly when (a q_n mod q_m)/q_m >= 1 - c/bd,
    that is when a q_n mod q_m >= T = ceil((bd - c) q_m / bd)."""
    q, qm, bd = plan.q(n), plan.q(m), beta.denominator
    fb, c = divmod(beta.numerator % bd * q, bd)
    return _Stage(q, inverse_mod(plan.p(n), q), qm, fb,
                  -((c - bd) * qm // bd), c == 0)


def _tower(plan, m: int) -> np.ndarray:
    """Interval numerators of all q_m tower positions at anchor m."""
    return _numerator(plan, m, np.arange(plan.q(m), dtype=np.int64))


def _match_base(st, lo: _Stage, hi: _Stage, a):
    """(valid, j1, base) at interval numerator a, given plan.stage(n) and the
    _Stage of stages n and n + 1: whether the principal n-block starts in a
    digit region of its (n+1)-block at the copy offset r_n, and that start's
    1-subsection and position.  Free of beta: reads only q, inv and qm."""
    r_lo = lo.index(a)
    base = (hi.index(a) - r_lo) % hi.q
    _, j1, _, r, ok = descend(st, base)
    return ok & (r == r_lo), j1, base


def _match_j0(st, lo: _Stage, hi: _Stage, a, base):
    """j0: descend's 1-subsection j of the start at base after displacement."""
    d = hi.lane(hi.carry(a)) - lo.lane(lo.carry(a))
    return (base + d) % hi.q // (st.l * st.q) % st.k


def _match_at(st, lo: _Stage, hi: _Stage, a):
    """(valid, j0, j1) at interval numerator a: _match_base and _match_j0."""
    valid, j1, base = _match_base(st, lo, hi, a)
    return valid, _match_j0(st, lo, hi, a, base), j1


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
    a = _tower(plan, m)
    records = []
    for n, st in enumerate(_kernel(plan, m, beta)[1][:m]):
        beta_n = Fraction(0) if st.degenerate else 1 - (beta * st.q - st.fb)
        lane_R = int(st.carry(a).sum())
        # the cuts j/q_n - beta, j < q_n, fall inside a 1/q_m interval
        # all together or not at all, as q_n divides q_m: exactly when
        # beta q_m is not an integer
        uncertain = 0 if qm % beta.denominator == 0 else st.q
        records.append(StageRotation(n, st.lane(0), st.lane(1), beta_n,
                                     st.degenerate, qm - lane_R, lane_R,
                                     uncertain))
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


_KERNELS: dict = {}           # (id(plan), m, beta mod 1 as num, den)
_KERNELS_MAX = 64             # the memo is cleared rather than pass this
_last = None, None, None, None  # its front: last call's beta, plan, m, kernel
# windows whose match data are equal share one tuple of it
_shared = lru_cache(maxsize=4096)(lambda done: done)


def _kernel(plan, m: int, beta) -> tuple:
    """(plan, each n <= m's _Stage and lane L, R displacements, match classes
    by (n, j0, j1)); holds the plan, so its id stays its own while cached."""
    global _last
    last_beta, last_plan, last_m, kern = _last    # one read of the front
    if last_beta is beta and last_plan is plan and last_m == m:
        return kern
    frac = beta if isinstance(beta, Fraction) else Fraction(beta)
    den = frac.denominator
    key = (id(plan), m, frac.numerator % den, den)
    kern = _KERNELS.get(key)
    if kern is None:
        if len(_KERNELS) >= _KERNELS_MAX:
            _KERNELS.clear()
        stages = tuple(_stage(plan, n, m, frac) for n in range(m + 1))
        lanes = tuple((Displacement(st.lane(0), LANE_L, st.degenerate),
                       Displacement(st.lane(1), LANE_R, st.degenerate))
                      for st in stages)
        kern = _KERNELS[key] = plan, stages, lanes, {}
    _last = beta, plan, m, kern
    return kern


@cache                        # frozen results, finitely many reasons
def _undefined(cls, reason: str):
    return cls(None, None, reason=reason)


def displacement(beta, pw: PointWindow, n: int) -> Displacement:
    if not 0 <= n <= pw.M:
        raise ValueError("stage out of range")
    if n < pw.M:
        mat = maturity(pw, n)
        if not mat.mature:
            return _undefined(Displacement, mat.violated)
    _, stages, lanes, _ = _kernel(pw.seq.plan, pw.M, beta)
    st = stages[n]
    return lanes[n][pw._a * st.q % st.qm >= st.T]  # st.carry(pw._a)


def match_class(beta, pw: PointWindow, n: int) -> MatchClass:
    """Compare the argument slot holding the point's principal n-block
    with the slot holding it after displacement; well exactly when they
    agree."""
    if n < 0:
        raise ValueError("stage out of range")
    if n + 1 > pw.M:
        return _undefined(MatchClass, "anchor too shallow")
    # maturity at n covers every level maturity at n + 1 checks
    mat = maturity(pw, n)
    if not mat.mature:
        return _undefined(MatchClass, mat.violated)
    plan, stages, _, classes = _kernel(pw.seq.plan, pw.M, beta)
    st, lo, hi = plan.stage(n), stages[n], stages[n + 1]
    done = pw._match or (None,) * pw.M  # _match_base by stage, for any beta
    if done[n] is None:
        entry = (_match_base(st, lo, hi, pw._a),)
        done = _shared(done[:n] + entry + done[n + 1:])
        object.__setattr__(pw, "_match", done)
    valid, j1, base = done[n]
    if not valid:
        return _undefined(MatchClass, "block start in spacer region")
    j0 = _match_j0(st, lo, hi, pw._a, base)
    if (n, j0, j1) not in classes:
        classes[n, j0, j1] = MatchClass("well", j0, j1) if j0 == j1 \
            else MatchClass("ill", j0, j1, t=st.k - j0)
    return classes[n, j0, j1]


# ---------------------------------------------------------------------------
# ill densities

def delta_n(beta, n: int, m: int, plan) -> Fraction:
    """Exact density of ill-matched tower positions at stage n, counted
    over the anchor-m tower."""
    if m <= n + 1:
        raise ValueError("need m > n + 1")
    stages = _kernel(plan, m, beta)[1]
    valid, j0, j1 = _match_at(plan.stage(n), *stages[n:n + 2],
                              _tower(plan, m))
    return Fraction(int((valid & (j0 != j1)).sum()), plan.q(m))


# ---------------------------------------------------------------------------
# red zones

@dataclass(frozen=True)
class ZoneLayer:
    stage: int
    block_size: int           # q at the layer's stage
    blocks: tuple             # indices a: positions [a*q_n, (a+1)*q_n)
    j0: int | None            # dominant ill configuration in the layer
    t: int | None


@dataclass(frozen=True)
class RedZone:
    anchor: int
    target_density: Fraction
    achieved_density: Fraction
    layers: tuple
    shortfall: bool


def build_red_zones(beta, plan, M: int, delta: Fraction) -> RedZone:
    """Reverse-induction zone construction: walk stages M - 2, ..., 0,
    claim whole q_n-blocks that are entirely ill-matched and untouched,
    until the uncovered density drops below delta or stages run out."""
    beta = Fraction(beta) % 1
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    qM = plan.q(M)
    a = _tower(plan, M)
    stages = _kernel(plan, M, beta)[1]
    covered = np.zeros(qM, dtype=bool)
    layers = []
    for n in range(M - 2, -1, -1):
        if Fraction(int(covered.sum()), qM) >= 1 - delta:
            break
        qn = plan.q(n)
        valid, j0, j1 = _match_at(plan.stage(n), *stages[n:n + 2], a)
        cand = valid & (j0 != j1) & ~covered
        blocks = cand.reshape(qM // qn, qn).all(axis=1)
        idx = np.flatnonzero(blocks)
        if idx.size == 0:
            continue
        for b in idx:
            covered[b * qn:(b + 1) * qn] = True
        # the layer's configuration, read at its first claimed position
        j = int(j0[idx[0] * qn])
        layers.append(ZoneLayer(n, qn, tuple(int(b) for b in idx), j,
                                plan.stage(n).k - j))
    achieved = Fraction(int(covered.sum()), qM)
    return RedZone(M, 1 - delta, achieved, tuple(layers),
                   shortfall=achieved < 1 - delta)


# ---------------------------------------------------------------------------
# reports

def rotation_report(plan, beta, N: int, m: int) -> dict:
    beta = Fraction(beta) % 1
    ana = analyze_rotation(plan, beta, m)
    deltas = [delta_n(beta, n, m, plan) for n in range(N)]
    return {
        "beta": frac_str(beta),
        "anchor": m,
        "stages": [{
            "n": st.n, "d_L": st.d_L, "d_R": st.d_R,
            "beta_n": frac_str(st.beta_n),
            "degenerate": st.degenerate,
            "lane_L": st.lane_L_count, "lane_R": st.lane_R_count,
            "uncertain": st.uncertain_count,
        } for st in ana.stages],
        "delta": [frac_str(v) for v in deltas],
        "delta_partial_sum": frac_str(sum(deltas, Fraction(0))),
        # never decidable from a finite prefix
        "finiteness_decidable": False,
    }


def delta_csv(plan, beta, N: int, m: int) -> str:
    beta = Fraction(beta) % 1
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "delta_n", "numerator", "denominator"])
    for n in range(N):
        v = delta_n(beta, n, m, plan)
        writer.writerow([n, float(v), v.numerator, v.denominator])
    return buf.getvalue()
