"""Staged coefficient plans and the arithmetic constants derived from them.

A plan stores, per stage n, the cut/stack counts (k_n, l_n), the rotation
convergents (p_n, q_n), the two epsilon sequences, mu_n, the word-family
size s_n, the class count Q1_n, the class-splitting exponent e_n and the
group size G1_size_n.  Everything downstream (word lengths, spacer runs,
displacement lanes, code coefficients) is a function of these numbers.

All integers are arbitrary precision and all tolerances are exact
fractions; nothing on an invariant path touches floating point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt


class PlanError(ValueError):
    """A coefficient plan violates one of its defining identities."""


class NoInverseError(ValueError):
    """Modular inverse requested for a non-coprime pair."""


@lru_cache(maxsize=1024)
def inverse_mod(p: int, q: int) -> int:
    """p^{-1} mod q, computed once per pair.

    The degenerate pair (p, q) = (0, 1) returns 0 by convention (the
    inverse of p_0 is taken to be 0).
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if q == 1:
        return 0
    if gcd(p, q) != 1:
        raise NoInverseError(f"p={p} has no inverse mod q={q}")
    return pow(p, -1, q)


def dynamical_index(p: int, q: int, i: int) -> int:
    """j_i = p^{-1} * i mod q, the dynamical position of interval i."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if not 0 <= i < q:
        raise ValueError(f"index i={i} outside [0, {q})")
    return inverse_mod(p, q) * i % q


@dataclass(frozen=True)
class PlanStage:
    """Values chosen at one stage of a plan.

    p and q are the values *at* this stage (q_0 = 1, p_0 = 0); k and l
    are the counts used to step to the next stage.
    """

    k: int
    l: int
    p: int
    q: int
    s: int = 2
    Q1: int = 2
    e: int = 1
    G1_size: int = 1
    eps_lunate: Fraction = Fraction(1, 8)    # construction-side epsilon
    eps_classic: Fraction = Fraction(1, 4)   # circular/smooth-side epsilon
    mu: Fraction = Fraction(1, 16)

    def __post_init__(self):
        if self.k < 2 or self.l < 2:
            raise PlanError(f"k,l must be >= 2, got k={self.k} l={self.l}")
        # plan growth, the gamma cascade and the checks divide by these
        if min(self.eps_lunate, self.eps_classic, self.mu) <= 0:
            raise PlanError(f"eps_lunate, eps_classic, mu = {self.eps_lunate},"
                            f" {self.eps_classic}, {self.mu}; all must be > 0")

    @cached_property
    def edge_bands(self) -> tuple:
        """(floor(eps l), floor(eps k), floor(eps q)) with eps the classic
        epsilon: the copy, 1-subsection and section bands at either end of
        this stage's grid that a mature point avoids."""
        eps = self.eps_classic
        return tuple(eps * x // 1 for x in (self.l, self.k, self.q))


@dataclass(frozen=True)
class CoefficientPlan:
    stages: tuple[PlanStage, ...]
    s_next: int = 2
    desk_mode: bool = True     # grown by the desk policy, not the floor one

    def __post_init__(self):
        q, p = 1, 0
        for n, st in enumerate(self.stages):
            if (st.q, st.p) != (q, p):
                raise PlanError(
                    f"stage {n}: stored (p,q)=({st.p},{st.q}) but the "
                    f"recursion q_(n+1)=k*l*q^2, p_(n+1)=p*q*k*l+1 gives "
                    f"({p},{q})"
                )
            if n >= 1 and gcd(p, q) != 1:
                raise PlanError(f"stage {n}: gcd(p,q) != 1")
            q, p = st.k * st.l * q * q, st.p * st.q * st.k * st.l + 1

    @property
    def depth(self) -> int:
        return len(self.stages)

    def q(self, n: int) -> int:
        if n == 0:
            return 1
        st = self.stages[n - 1]
        return st.k * st.l * st.q * st.q

    def p(self, n: int) -> int:
        if n == 0:
            return 0
        st = self.stages[n - 1]
        return st.p * st.q * st.k * st.l + 1

    def alpha(self, n: int) -> Fraction:
        return Fraction(self.p(n), self.q(n))

    def stage(self, n: int) -> PlanStage:
        return self.stages[n]

    def s(self, n: int) -> int:
        return self.stages[n].s if n < self.depth else self.s_next


def desk_plan(kl=((2, 2), (2, 2)), **overrides) -> CoefficientPlan:
    """Small hand plan from a list of (k, l) pairs.

    Auxiliary numbers default to desk values and decay geometrically;
    override any PlanStage field with a sequence in ``overrides``.
    """
    stages = []
    q, p = 1, 0
    for n, (k, l) in enumerate(kl):
        fields = dict(
            k=k, l=l, p=p, q=q,
            s=2, Q1=2, e=1, G1_size=1,
            eps_lunate=Fraction(1, 8 * 2 ** n),
            eps_classic=Fraction(1, 4 * 4 ** n),
            mu=Fraction(1, 16 * 2 ** n),
        )
        for name, seq in overrides.items():
            fields[name] = seq[n]
        stages.append(PlanStage(**fields))
        q, p = k * l * q * q, p * q * k * l + 1
    return CoefficientPlan(stages=tuple(stages))


# ---------------------------------------------------------------------------
# plan growth

# the audit's finite surrogates for the summability requirements
L_RATIO = 2                      # NR1
EPS_CLASSIC_RATIO = 8            # NR2
G_OVER_Q_RATIO = Fraction(1, 2)  # NR5
Q1_MARGIN = 4                    # NR13, and a cap on each stage's eps_lunate


def _nr_divisor(desk: bool) -> int:
    """The d of extend_plan's mu and eps_lunate; the NR4/NR11 audit bound."""
    return 4 if desk else 16


def extend_plan(plan: CoefficientPlan) -> CoefficientPlan:
    """Append stage n = plan.depth by the growth rule plan.desk_mode
    records, as desk | floor (the floor rule meets l_0 > 20, eps_lunate_0
    k_0 > 20 and the other absolute floors), each value from earlier ones:

    Q1 = 2 | 2^(n+2); eps_classic = 1/4 | 1/8 at n = 0, then the previous
    one / 4 | 8; mu = min(eps_classic, 1/Q1) / d; eps_lunate = min(mu / d,
    1/(Q1_MARGIN Q1)), or half the previous one if not below it;
    s_next = s_n | s_n^2; k = 2 | max(2048 * 2^n, floor(24/eps_lunate) + 1,
    s_next); l = 2 | 2 max(21, 2 l_(n-1)) with l_(-1) = 11; e = 1 | n + 2;
    G1_size = 2; d = _nr_divisor(desk) = 4 | 16.
    """
    desk, n = plan.desk_mode, plan.depth
    prev = plan.stages[-1] if n else None
    Q1 = 2 if desk else 2 ** (n + 2)
    eps_classic = (prev.eps_classic if n else Fraction(1)) / (4 if desk else 8)
    mu = min(eps_classic, Fraction(1, Q1)) / _nr_divisor(desk)
    eps_lunate = min(mu / _nr_divisor(desk), Fraction(1, Q1_MARGIN * Q1))
    if n and eps_lunate >= prev.eps_lunate:
        eps_lunate = prev.eps_lunate / 2
    s_next = plan.s_next if desk else plan.s_next ** 2
    k = 2 if desk else max(2048 * 2 ** n, int(24 / eps_lunate) + 1, s_next)
    l = 2 if desk else 2 * max(21, 2 * (prev.l if n else 11))
    st = PlanStage(
        k=k, l=l, p=plan.p(n), q=plan.q(n),
        s=plan.s_next, Q1=Q1, e=1 if desk else n + 2, G1_size=2,
        eps_lunate=eps_lunate, eps_classic=eps_classic, mu=mu,
    )
    return CoefficientPlan(stages=plan.stages + (st,), s_next=s_next,
                           desk_mode=desk)


# ---------------------------------------------------------------------------
# code coefficients

def code_coefficients(plan: CoefficientPlan, N: int) -> list[int]:
    """A_0..A_N with A_{n+1} = A_n - inverse(p_n) taken in [0, q_n)."""
    if N > plan.depth:
        raise ValueError(f"plan has {plan.depth} stages, asked for A_{N}")
    out = [0]
    for n in range(N):
        p, q = plan.p(n), plan.q(n)
        a = out[-1] - inverse_mod(p, q)
        if abs(a) >= 2 * q:
            raise PlanError(f"|A_{n + 1}| = {abs(a)} >= 2*q_{n} = {2 * q}")
        out.append(a)
    return out


# ---------------------------------------------------------------------------
# audit

@dataclass(frozen=True)
class AuditEntry:
    req_id: str
    status: str               # pass | fail | not-applicable-at-depth
    desk_waived: bool = False
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AuditReport:
    entries: tuple[AuditEntry, ...]

    def ok(self) -> bool:
        return all(e.status != "fail" or e.desk_waived for e in self.entries)

    def to_obj(self) -> list:
        return [{"id": e.req_id, "status": e.status,
                 "desk_waived": e.desk_waived,
                 "witness": {k: str(v) for k, v in e.witness.items()}}
                for e in self.entries]


def audit_plan(plan: CoefficientPlan) -> AuditReport:
    """Report-only check of every numeric requirement on a finite prefix.

    Summability conditions are finitized as per-stage dominance ratios:
    the module's surrogate constants and, for NR4 and NR11, the divisor
    the plan was grown with.  Absolute floors failing under desk_mode are
    flagged desk_waived rather than hidden.
    """
    div = _nr_divisor(plan.desk_mode)
    st = plan.stages
    n_st = len(st)
    out: list[AuditEntry] = []
    waive = plan.desk_mode

    def add(req, ok, witness=None, applicable=True, floor=False):
        if not applicable:
            out.append(AuditEntry(req, "not-applicable-at-depth"))
        elif ok:
            out.append(AuditEntry(req, "pass", witness=witness or {}))
        else:
            out.append(AuditEntry(req, "fail", desk_waived=waive and floor,
                                  witness=witness or {}))

    if n_st == 0:
        for req in [f"NR{i}" for i in range(1, 14)] + [f"IR{i}" for i in range(1, 9)]:
            add(req, True, applicable=False)
        return AuditReport(tuple(out))

    # NR1: l_0 > 20 (floor) and geometric growth of l_n (summability surrogate)
    floor_ok = st[0].l > 20
    grow_ok = all(st[i].l >= L_RATIO * st[i - 1].l for i in range(1, n_st))
    add("NR1", floor_ok and grow_ok,
        {"l0": st[0].l, "floor_ok": floor_ok, "growth_ok": grow_ok}, floor=True)

    # NR2: eps_classic decays fast enough that eps_N > 4 * tail sum
    bad = [i for i in range(1, n_st)
           if st[i].eps_classic * EPS_CLASSIC_RATIO > st[i - 1].eps_classic]
    add("NR2", not bad, {"violating_stages": bad})

    # NR3: eps_classic_{n-1} > (1/q_m) * sum_{n<=j<m} 3 eps_j q_{j+1}, all n<m
    worst = None
    for m in range(1, n_st + 1):
        qm = plan.q(m)
        for n in range(1, m + 1):
            tail = sum((3 * st[j].eps_classic * plan.q(j + 1) for j in range(n, m)),
                       Fraction(0))
            if st[n - 1].eps_classic <= tail / qm and tail > 0:
                worst = {"n": n, "m": m, "bound": tail / qm}
    add("NR3", worst is None, worst or {})

    # NR4: mu_n small relative to min(eps_classic_n, 1/Q1_n)
    bad = [i for i in range(n_st)
           if st[i].mu * div > min(st[i].eps_classic, Fraction(1, st[i].Q1))]
    add("NR4", not bad, {"violating_stages": bad})

    # NR5: sum |G1_n|/Q1_n finite -- surrogate: ratio halving per stage
    bad = [i for i in range(1, n_st)
           if Fraction(st[i].G1_size, st[i].Q1) >
           G_OVER_Q_RATIO * Fraction(st[i - 1].G1_size, st[i - 1].Q1)]
    add("NR5", not bad, {"violating_stages": bad}, floor=True)

    # NR6: smooth-realization lower bound on l_n -- no finite form here
    add("NR6", True, applicable=False)

    # NR7: s_n -> infinity (floor) and s_{n+1} a power of s_n
    ss = [s.s for s in st] + [plan.s_next]
    def is_power(a, b):
        if a == b:
            return True
        if b <= 1:
            return a == b
        x = b
        while x < a:
            x *= b
        return x == a
    pow_ok = all(is_power(ss[i + 1], ss[i]) for i in range(n_st))
    incr_ok = all(ss[i + 1] > ss[i] for i in range(n_st))
    add("NR7", pow_ok and incr_ok, {"s": ss, "power_ok": pow_ok, "increasing": incr_ok},
        floor=True)

    # NR8: s_{n+1} <= s_n ** k_n
    bad = [i for i in range(n_st) if ss[i + 1] > ss[i] ** st[i].k]
    add("NR8", not bad, {"violating_stages": bad})

    # NR9: eps_lunate decreasing, eps_lunate_0 < 1/40 (floor), eps_lunate < eps_classic
    dec = all(st[i].eps_lunate < st[i - 1].eps_lunate for i in range(1, n_st))
    fl = st[0].eps_lunate < Fraction(1, 40)
    lt = all(st[i].eps_lunate < st[i].eps_classic for i in range(n_st))
    add("NR9", dec and fl and lt,
        {"decreasing": dec, "floor_ok": fl, "below_classic": lt}, floor=True)

    # NR10: k_n large relative to s_{n+1} and eps_lunate_n
    bad = [i for i in range(n_st) if st[i].k * st[i].eps_lunate < ss[i + 1]]
    add("NR10", not bad, {"violating_stages": bad}, floor=True)

    # NR11: eps_lunate small relative to mu
    bad = [i for i in range(n_st)
           if st[i].eps_lunate * div > st[i].mu]
    add("NR11", not bad, {"violating_stages": bad})

    # NR12: eps_lunate_0*k_0 > 20 (floor), eps_lunate_n*k_n increasing,
    # sum 1/(eps*k) finite -- surrogate: products at least double
    prods = [s.eps_lunate * s.k for s in st]
    fl = prods[0] > 20
    inc = all(prods[i] >= 2 * prods[i - 1] for i in range(1, n_st))
    add("NR12", fl and inc, {"products": [str(x) for x in prods]}, floor=True)

    # NR13: eps_lunate small as a function of Q1
    bad = [i for i in range(n_st)
           if st[i].eps_lunate > Fraction(1, Q1_MARGIN * st[i].Q1)]
    add("NR13", not bad, {"violating_stages": bad})

    # IR1: eps_lunate summable -- ratio surrogate
    bad = [i for i in range(1, n_st)
           if st[i].eps_lunate * 2 > st[i - 1].eps_lunate]
    add("IR1", not bad, {"violating_stages": bad})

    # IR2: 2^n * 2^{-e(n+1)} < eps_lunate_n
    bad = [i for i in range(n_st - 1)
           if Fraction(2 ** i, 2 ** st[i + 1].e) >= st[i].eps_lunate]
    add("IR2", not bad, {"violating_stages": bad}, floor=True,
        applicable=n_st >= 2)

    # IR3: 2 * eps_lunate_n * s_n^2 < eps_lunate_{n-1}
    bad = [i for i in range(1, n_st)
           if 2 * st[i].eps_lunate * st[i].s ** 2 >= st[i - 1].eps_lunate]
    add("IR3", not bad, {"violating_stages": bad}, floor=True)

    # IR4: eps_lunate_n * k_n / s_{n-1}^2 increasing
    if n_st >= 2:
        vals = [st[i].eps_lunate * st[i].k / Fraction(st[i - 1].s ** 2)
                for i in range(1, n_st)]
        add("IR4", all(vals[i] > vals[i - 1] for i in range(1, len(vals))),
            {"values": [str(v) for v in vals]}, floor=True)
    else:
        add("IR4", True, applicable=False)

    # IR5: redundant with IR1 (same summability), recorded for coverage
    add("IR5", not [i for i in range(1, n_st)
                    if st[i].eps_lunate * 2 > st[i - 1].eps_lunate], {})

    # IR6: k_n = (prime)^2 * s_{n-1}
    def prime(x):
        if x < 2:
            return False
        d = 2
        while d * d <= x:
            if x % d == 0:
                return False
            d += 1
        return True
    bad = []
    for i in range(n_st):
        s_prev = st[i - 1].s if i else st[0].s
        r = st[i].k // s_prev if st[i].k % s_prev == 0 else 0
        root = isqrt(r)
        if not (r and root * root == r and prime(root)):
            bad.append(i)
    add("IR6", not bad, {"violating_stages": bad}, floor=True)

    # IR7: s_n a power of 2
    bad = [i for i, s in enumerate(ss) if s & (s - 1) or s < 2]
    add("IR7", not bad, {"violating_stages": bad})

    # IR8: eps_lunate_n < 2^{-i_n} for a tree's enumeration indices,
    # which a plan alone does not carry
    add("IR8", True, applicable=False)

    return AuditReport(tuple(out))


# ---------------------------------------------------------------------------
# JSON

def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def plan_to_obj(plan: CoefficientPlan) -> dict:
    return {
        "desk_mode": plan.desk_mode,
        "s_next": str(plan.s_next),
        "stages": [{
            "k": str(st.k), "l": str(st.l), "p": str(st.p), "q": str(st.q),
            "s": str(st.s), "Q1": str(st.Q1), "e": str(st.e),
            "G1_size": str(st.G1_size),
            "eps_lunate": frac_str(st.eps_lunate),
            "eps_classic": frac_str(st.eps_classic),
            "mu": frac_str(st.mu),
        } for st in plan.stages],
    }


def plan_to_json(plan: CoefficientPlan) -> str:
    return json.dumps(plan_to_obj(plan), indent=2)


def plan_hash(plan: CoefficientPlan) -> str:
    """sha256 of the plan file bytes: the hash every report records."""
    return hashlib.sha256(plan_to_json(plan).encode()).hexdigest()


def json_digest(obj) -> str:
    """sha256 of obj as sorted-key JSON."""
    doc = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def plan_from_obj(doc: dict) -> CoefficientPlan:
    stages = tuple(PlanStage(
        k=int(d["k"]), l=int(d["l"]), p=int(d["p"]), q=int(d["q"]),
        s=int(d["s"]), Q1=int(d["Q1"]), e=int(d["e"]),
        G1_size=int(d["G1_size"]),
        eps_lunate=Fraction(d["eps_lunate"]),
        eps_classic=Fraction(d["eps_classic"]),
        mu=Fraction(d["mu"]),
    ) for d in doc["stages"])
    return CoefficientPlan(stages=stages, s_next=int(doc["s_next"]),
                           desk_mode=doc["desk_mode"])


def plan_from_json(text: str) -> CoefficientPlan:
    return plan_from_obj(json.loads(text))
