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
from .words import Literal, SYMBOL_B, SYMBOL_STAR
from .systems import circular_sequence, ConstructionSequence


@dataclass(frozen=True)
class StationaryCode:
    radius: int
    block_map: Callable        # str of length 2*radius+1 -> single symbol
    name: str = ""

    def __call__(self, block: str) -> str:
        if len(block) != 2 * self.radius + 1:
            raise ValueError("block length must be 2N+1")
        return self.block_map(block)


def apply_code(code: StationaryCode, text: str) -> Literal:
    """Pointwise application over the whole text; missing symbols near
    the ends read as b."""
    N = code.radius
    out = []
    for i in range(len(text)):
        lo, hi = i - N, i + N + 1
        if lo < 0 or hi > len(text):
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
