"""Span-recording wrappers around the public functions of ``wschreier``.

The tracer rebinds each traced function, in every ``wschreier`` module that
binds it, to a wrapper that records one span per call: the function, the
start and end in nanoseconds, and the index of the enclosing span.  Spans are
kept in flat arrays until the run ends, so recording costs an append and two
clock reads.  ``restore`` puts every original function object back.

Two counters sit next to the spans, for the functions that ask for them: how
many calls repeat the arguments of an earlier call (``repeat_ratio``), and how
many calls return an ok ``Verdict`` (``ok_ratio``).
"""

from __future__ import annotations

import sys
import time
from array import array

# module -> public functions traced, named as in the per-layer metrics.
TRACED = {
    "monoid": (
        "check_monoid",
        "check_hom",
        "inverse_structure",
        "congruence_closure",
        "is_cokernel",
        "canonical_form",
    ),
    "catalog": ("all_homs",),
    "extension": (
        "verify_split_extension",
        "find_retraction",
        "retraction_candidates",
        "extension_morphism",
    ),
    "waction": (
        "check_admissible",
        "check_compatible_action",
        "build_extension",
        "extract_waction",
        "enumerate_wactions",
        "waction_leq",
    ),
    "lambda_product": (
        "enumerate_inverse_actions",
        "semigroup_endomorphisms",
        "lambda_product",
        "check_inverse_action",
        "artin_like_action",
        "join_hom",
    ),
    "frames": ("check_frame", "artin_glueing", "glueing_equals_lambda", "glueing_join"),
    "io": (
        "load_monoid",
        "load_action",
        "load_hom",
        "load_extension",
        "serialize_monoid",
        "serialize_extension",
    ),
    "cli": ("run",),
}

REPEAT = (
    "frames.check_frame",
    "monoid.check_hom",
    "monoid.inverse_structure",
    "lambda_product.check_inverse_action",
    "waction.check_admissible",
    "waction.check_compatible_action",
    "lambda_product.semigroup_endomorphisms",
    "extension.verify_split_extension",
    "extension.find_retraction",
)

OK = (
    "monoid.check_monoid",
    "monoid.check_hom",
    "frames.check_frame",
    "waction.check_admissible",
    "waction.check_compatible_action",
)

NAMES = tuple("%s.%s" % (m, f) for m, fs in TRACED.items() for f in fs)


def _modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "wschreier" or name.startswith("wschreier."))
    ]


class Tracer:
    """Records spans for the functions in TRACED while installed."""

    def __init__(self):
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.repeats = [0] * len(NAMES)
        self.oks = [0] * len(NAMES)
        self._seen = [set() if n in REPEAT else None for n in NAMES]
        self._patched = []  # (module, attribute, original)
        self._wrappers = set()

    def _wrap(self, fid, original):
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack = self._stack
        seen = self._seen[fid]
        count_ok = NAMES[fid] in OK
        repeats, oks = self.repeats, self.oks
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if seen is not None:
                key = (args, tuple(sorted(kwargs.items())))
                if key in seen:
                    repeats[fid] += 1
                else:
                    seen.add(key)
            if count_ok and result.ok:
                oks[fid] += 1
            return result

        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        """Rebind every traced function in every wschreier module."""
        import wschreier.cli  # noqa: F401  (the package loads the other modules)

        modules = _modules()
        for fid, name in enumerate(NAMES):
            module, func = name.split(".")
            original = getattr(sys.modules["wschreier." + module], func)
            wrapper = self._wrap(fid, original)
            self._wrappers.add(wrapper)
            for m in modules:
                if m.__dict__.get(func) is original:
                    setattr(m, func, wrapper)
                    self._patched.append((m, func, original))

    def restore(self):
        """Put the original functions back; return the attributes that are
        still not the original function object (empty when clean)."""
        for m, func, original in reversed(self._patched):
            setattr(m, func, original)
        dirty = [
            "%s.%s" % (m.__name__, func)
            for m, func, original in self._patched
            if m.__dict__.get(func) is not original
        ]
        for m in _modules():
            for attr, value in vars(m).items():
                if any(value is w for w in self._wrappers):
                    dirty.append("%s.%s" % (m.__name__, attr))
        self._patched = []
        return dirty

    def summary(self, meter, scales):
        """Calls and corrected self seconds per function, indexed like
        NAMES.  Self time is a span's duration minus its child spans'."""
        n = len(self.fn)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            f = self.fn[i]
            calls[f] += 1
            self_s[f] += (dur[i] - child[i]) * meter.scale_at(self.start[i], scales) / 1e9
        return calls, self_s
