"""Outside-in tracing for the benchmark's traced run.

The tracer wraps public functions of the circsys layers from the outside:
each wrapper replaces the function wherever a caller resolves it, that is
in the defining module and in every circsys module that imported the
name.  Nothing under ``src/`` is edited.

Two kinds of wrapper exist.  A *span* wrapper records (name, start, end,
parent, op) for every call, kept in memory and written out at the end.
A *count* wrapper only counts calls; it is used for hot scalars that are
called hundreds of thousands of times per op.

A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (layer module, function); Word.materialize is wrapped on its class
SPANS = (
    ("cli", "run"),
    ("specbuild", "check_specs"),
    ("specbuild", "build_words"),
    ("systems", "circular_sequence"),
    ("systems", "odometer_sequence"),
    ("systems", "functor_F"),
    ("systems", "sequence_to_json"),
    ("rotation", "displacement"),
    ("rotation", "match_class"),
    ("locations", "maturity"),
    ("trees", "certify_continuity"),
    ("trees", "reduce"),
    ("trees", "mutate_tree"),
)
COUNTS = (
    ("circular", "apply_C"),
    ("locations", "D_n"),
    ("coefficients", "dynamical_index"),
    ("trees", "sigma_enumeration"),
)


class Tracer:
    """Span and counter store; disabled until ``enabled`` is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.op = -1
        self.spans = []           # [name, start, end, parent index, op]
        self.counts = Counter()
        self._stack = []
        self._patched = []        # (owner, attr, original)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        """Call ``fn`` inside a span; ``on_result(result)`` may add counts."""
        if not self.enabled:
            return fn()
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, self.clock(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(idx)
        self.counts[name + ".calls"] += 1
        try:
            result = fn()
        except BaseException:
            self.counts[name + ".raised"] += 1
            raise
        finally:
            rec[2] = self.clock()
            self._stack.pop()
        if on_result is not None:
            on_result(result)
        return result

    def in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "circsys" or modname.startswith("circsys.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every traced function of an imported circsys package."""
        for layer, fname in SPANS:
            mod = getattr(package, layer)
            self._replace_everywhere(getattr(mod, fname),
                                     self._span_wrapper(layer, fname, mod))
        for layer, fname in COUNTS:
            mod = getattr(package, layer)
            self._replace_everywhere(getattr(mod, fname),
                                     self._count_wrapper(f"{layer}.{fname}",
                                                         getattr(mod, fname)))
        word_cls = package.words.Word
        original = word_cls.materialize
        tracer = self

        def materialize(self_, *args, **kwargs):
            def note(text):
                if text is not None:
                    tracer.counts["words.materialize.symbols"] += len(text)
            return tracer.span("words.materialize",
                               lambda: original(self_, *args, **kwargs),
                               note)
        self._patched.append((word_cls, "materialize", original))
        word_cls.materialize = materialize

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _span_wrapper(self, layer, fname, mod):
        original = getattr(mod, fname)
        name = f"{layer}.{fname}"
        tracer = self
        # gate attempts: check_specs calls made from inside build_words
        in_build = name == "specbuild.check_specs"

        def call(*args, **kwargs):
            if in_build and tracer.enabled and \
                    tracer.in_span("specbuild.build_words"):
                tracer.counts["specbuild.check_specs.in_build"] += 1
            return tracer.span(name, lambda: original(*args, **kwargs))
        return call

    def _count_wrapper(self, name, original):
        tracer = self

        def call(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name + ".calls"] += 1
            return original(*args, **kwargs)
        return call

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        return dict(self_times(self.spans))

    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {"fields": ["name", "start", "end", "parent", "op"],
               "spans": self.spans, "counts": dict(self.counts)}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> defaultdict:
    """Self time per span name: duration minus the union of the intervals
    its direct children cover (clipped to the parent's interval)."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out[name] += (end - start) - covered
    return out
