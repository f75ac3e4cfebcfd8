"""Stationary sliding-block codes and the natural-map approximants.

A code is a procedure on symbol blocks of radius N, never a lookup table.
The stage-n natural code locates the spacer-pattern word covering the
center of its window and emits the reversed symbol displaced by the
cumulative coefficient A_n; where no location exists it emits 'b'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coefficients import code_coefficients
from .words import Literal, Word, dbar, DbarResult, SYMBOL_B, SYMBOL_STAR
from .systems import circular_sequence, ConstructionSequence

FILL_CONSTANT = "fill-constant"
TRUNCATE = "truncate"


@dataclass(frozen=True)
class StationaryCode:
    radius: int
    block_map: Callable        # str of length 2*radius+1 -> single symbol
    policy: str = FILL_CONSTANT
    name: str = ""

    def __post_init__(self):
        if self.policy not in (FILL_CONSTANT, TRUNCATE):
            raise ValueError(f"unknown policy {self.policy!r}")

    def __call__(self, block: str) -> str:
        if len(block) != 2 * self.radius + 1:
            raise ValueError("block length must be 2N+1")
        return self.block_map(block)


def identity_code() -> StationaryCode:
    return StationaryCode(0, lambda b: b[0], name="identity")


def constant_code(symbol: str) -> StationaryCode:
    return StationaryCode(0, lambda b, s=symbol: s, name=f"const:{symbol}")


def apply_code(code: StationaryCode, w, interval=None) -> Literal:
    """Pointwise application over an index interval.  With fill-constant,
    missing symbols near the ends read as b; with truncate, end positions
    are dropped."""
    text = w.materialize() if isinstance(w, Word) else w
    if text is None:
        raise ValueError("word too large; pass an explicit window")
    a, b = interval if interval is not None else (0, len(text))
    if not 0 <= a <= b <= len(text):
        raise ValueError("interval out of range")
    N = code.radius
    out = []
    for i in range(a, b):
        lo, hi = i - N, i + N + 1
        if lo < 0 or hi > len(text):
            if code.policy == TRUNCATE:
                continue
            block = (SYMBOL_B * max(0, -lo)
                     + text[max(lo, 0):min(hi, len(text))]
                     + SYMBOL_B * max(0, hi - len(text)))
        else:
            block = text[lo:hi]
        out.append(code(block))
    return Literal("".join(out))


# ---------------------------------------------------------------------------
# the spacer-pattern tower and its natural codes

def kappa_sequence(plan, depth: int) -> ConstructionSequence:
    """One word per stage over {*}: the spacer-pattern words whose stage-n
    member has length q_n."""
    prewords = [[(0,) * plan.stage(n).k] for n in range(depth)]
    return circular_sequence(plan, SYMBOL_STAR, prewords)


def natural_code(plan, n: int) -> StationaryCode:
    """Stage-n approximant of the reversing isomorphism, radius 2*q_n."""
    q = plan.q(n)
    A = code_coefficients(plan, n)[n]
    kw = kappa_sequence(plan, n).stage(n).words[0].materialize()
    N = 2 * q

    def block_map(block: str) -> str:
        r = None
        for cand in range(q):
            start = N - cand
            if block[start:start + q] == kw:
                r = cand
                break
        if r is None:
            return SYMBOL_B
        out = N + q - 1 - A - 2 * r
        if not 0 <= out < len(block):
            return SYMBOL_B
        return block[out]

    return StationaryCode(N, block_map, name=f"natural:{n}")


def code_distance(c1: StationaryCode, c2: StationaryCode, window,
                  interval=None, mode="exact", seed=0) -> DbarResult:
    """d-bar between the two code images over one window."""
    text = window.materialize() if isinstance(window, Word) else window
    if text is None:
        raise ValueError("window too large to materialize")
    a, b = interval if interval is not None else (0, len(text))
    if b - a <= 2 * max(c1.radius, c2.radius):
        raise ValueError("window too short relative to the code radii")
    u = apply_code(c1, text, (a, b))
    v = apply_code(c2, text, (a, b))
    if len(u.text) != len(v.text):
        raise ValueError("policies produced different lengths; use "
                         "fill-constant for distance estimates")
    return dbar(u, v, (0, len(u.text)), mode=mode, seed=seed)
