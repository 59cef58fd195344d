"""Span tracing of etacalc's layers from outside the package.

A layer is a module of ``etacalc``.  The tracer wraps every public function
that one module imported from another (the name in the calling module's
namespace, so only calls that cross a module boundary are seen), plus
``PermGroup.subgroup`` and the ``GroupHom`` constructor that ``nu`` uses.
Each call records a span (name, start, end, parent); a span's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

LAYERS = ("abelian", "action", "eta", "fpgroup", "groups", "nu", "perm", "verify")

# Wrapped names outside the systematic scan: (module, owner attribute or
# None for the module itself, attribute, span name).
EXPLICIT = (
    ("perm", "PermGroup", "subgroup", "perm.subgroup"),
    ("nu", None, "GroupHom", "perm.group_hom"),
)

# Spans whose metrics the benchmark reports, with the variants of each.
SPAN_METRICS = (
    ("fpgroup.todd_coxeter", ("s", "calls")),
    ("fpgroup.regular_representation", ("s",)),
    ("eta.construct_eta", ("s", "self_s", "calls")),
    ("action.require_compatible", ("s",)),
    ("nu.construct_nu", ("s", "self_s")),
    ("perm.group_hom", ("s",)),
    ("perm.hom_kernel", ("s",)),
    ("perm.subgroup", ("s", "calls")),
    ("perm.abelian_invariants_of", ("s",)),
    ("perm.derived_subgroup", ("s",)),
    ("perm.centralizer_index", ("s",)),
    ("eta.check_decomposition", ("s",)),
    ("nu.check_derived_decomposition", ("s",)),
)


class NullTracer:
    """Stand-in used for the untraced run: spans cost one context manager."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    def __init__(self) -> None:
        # one record per span: [name, start, end, parent index, nested]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._active[name] > 0])
        self._stack.append(idx)
        self._active[name] += 1
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._active[self.spans[idx][0]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer.counts, args, result)
            return result

        return traced

    def times(self) -> tuple[dict, dict, Counter]:
        """Per span name: inclusive time (outermost calls), self time, calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            if not nested:
                inclusive[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        return inclusive, self_time, calls


def _observe_enumeration(counts: Counter, args, table) -> None:
    presentation = args[0]
    counts["fpgroup.presentation.generators"] += len(presentation.generators)
    counts["fpgroup.presentation.relators"] += len(presentation.relators)
    counts["fpgroup.presentation.letters"] += sum(len(r) for r in presentation.relators)
    counts["fpgroup.index"] += table.n


OBSERVERS = {"fpgroup.todd_coxeter": _observe_enumeration}


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def install(tracer: Tracer) -> tuple[list, list[str], set[str]]:
    """Wrap the layer boundaries; return (patches, notes, wrapped span names).

    The patches are (owner, attribute, original) triples for ``uninstall``.
    A name that no longer exists is skipped with a note instead of failing,
    so a refactor that deletes it only drops the metrics built on it.
    """
    patches, notes, wrapped = [], [], set()

    def patch(owner, attr: str, span_name: str) -> None:
        original = getattr(owner, attr)
        traced = tracer.wrap(span_name, original, OBSERVERS.get(span_name))
        setattr(owner, attr, traced)
        patches.append((owner, attr, original))
        wrapped.add(span_name)

    for layer in LAYERS:
        module = importlib.import_module(f"etacalc.{layer}")
        for attr, obj in sorted(vars(module).items()):
            home = getattr(obj, "__module__", "") or ""
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and home.startswith("etacalc.")
                and home != module.__name__
            ):
                patch(module, attr, f"{home.split('.', 1)[1]}.{obj.__name__}")
    for layer, owner_name, attr, span_name in EXPLICIT:
        module = importlib.import_module(f"etacalc.{layer}")
        owner = module if owner_name is None else getattr(module, owner_name, None)
        if owner is not None and hasattr(owner, attr):
            patch(owner, attr, span_name)
    for span_name, _ in SPAN_METRICS:
        if span_name not in wrapped:
            notes.append(f"{span_name} is no longer called across modules; its metrics are omitted")
    return patches, notes, wrapped


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def calibrate(calls: int = 20000) -> float:
    """Seconds a traced call costs beyond an untraced one."""

    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        cost = max((t2 - t1) - (t1 - t0), 0.0) / calls
        best = cost if best is None else min(best, cost)
    return best


def source_lines() -> dict[str, int]:
    """Line count of every module file in the imported etacalc package."""
    root = Path(sys.modules["etacalc"].__file__).parent
    counts = {}
    for path in sorted(root.glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    return counts
