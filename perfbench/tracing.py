"""In-memory span tracing installed from outside the package.

A :class:`Tracer` replaces module attributes of uppkit (``simulation.foc_residual``,
``harness.solve_bertrand``, ...) with wrappers that record a span per call.
Callers inside uppkit look these names up on the module at call time, so
internal calls are captured without editing the package. Spans stay in
memory until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Layer -> module attributes wrapped at its boundary. A name imported into
# another module (fitting's copy of the nested-share kernel) is wrapped there
# too, under the name of the layer that defines it.
WRAPPED = {
    "market": ["load_market", "validate"],
    "ces": ["load_economy", "shares", "revenue_diversion", "nested_shares",
            "_softmax_rows", "_diversion_from_share_values", "_nested_share_rows"],
    "effects": ["effects_report", "guppi", "naive_guppi", "cmcr", "naive_cmcr",
                "own_price_elasticities", "welfare"],
    "passthrough": ["passthrough_matrix_from_market", "passthrough_matrix"],
    "simulation": ["simulate", "foc_residual", "post_merger_state"],
    "harness": ["run_accuracy_experiment", "_run_trial", "random_primitives",
                "solve_bertrand", "observe"],
    "fitting": ["fit_nested_ces", "_model_revenues", "_nested_share_rows"],
}

# Layer -> {module attribute: counter}. A call to one of these opens no span;
# it adds one to the counter on the innermost open span of its thread. Each
# fixed-point step of the harness's Bertrand solver makes one
# ``_implied_margins`` call, so the solve's span counts its fixed-point steps.
COUNTED = {
    "harness": {"_implied_margins": "fixed_point_steps"},
}

# Span name -> function of the wrapped call's return value giving span attributes.
RECORDERS = {
    "harness.solve_bertrand": lambda eq: {"iterations": int(eq.iterations)},
    "simulation.simulate": lambda r: {"iterations": int(r.iterations)},
    "fitting.fit_nested_ces": lambda r: {"nfev": int(r.n_evaluations), "log": len(r.log)},
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trace: int
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; one trace id per benchmark operation.

    The benchmark is a closed loop with one caller, so at most one operation
    is open at a time. Spans opened on a thread with no open span of its own
    (harness trials on the thread pool) take the operation's root span as
    their parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._trace = 0
        self._root: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self._root
        record = Span(next(self._ids), name, 0.0, 0.0, parent, self._trace,
                      threading.get_ident())
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation, under a fresh trace id."""
        self._trace = next(self._traces)
        with self.span(name) as root:
            self._root = root.id
            try:
                yield root
            finally:
                self._root = None

    def adopt(self, spans: list[Span], parent: Span) -> None:
        """Add spans recorded in another process under ``parent``, with fresh ids."""
        ids = {sp.id: next(self._ids) for sp in spans}
        for sp in spans:
            sp.id = ids[sp.id]
            sp.parent = ids.get(sp.parent, parent.id)
            sp.trace = parent.trace
            self.spans.append(sp)

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        record = RECORDERS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
                if record is not None:
                    sp.attrs.update(record(result))
                return result

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def count(self, module, attr: str, counter: str) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                attrs = stack[-1].attrs
                attrs[counter] = attrs.get(counter, 0) + 1
            return original(*args, **kwargs)

        setattr(module, attr, counted)
        self._installed.append((module, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer boundary listed in ``WRAPPED`` and ``COUNTED``.

        Raises ``RuntimeError`` if the package lacks one: the metrics read
        from it could not be measured.
        """
        for layer, attrs in WRAPPED.items():
            module = importlib.import_module(f"uppkit.{layer}")
            counted = COUNTED.get(layer, {})
            missing = [a for a in [*attrs, *counted] if not hasattr(module, a)]
            if missing:
                self.uninstall()
                raise RuntimeError(f"uppkit.{layer} has no {', '.join(missing)}: "
                                   "update perfbench/tracing.py to the new layer boundary")
            for attr in attrs:
                owner = "ces" if attr == "_nested_share_rows" else layer
                self.wrap(module, attr, f"{owner}.{attr.lstrip('_')}")
            for attr, counter in counted.items():
                self.count(module, attr, counter)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def read_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered, reach = 0.0, sp.start
        for lo, hi in sorted((max(c.start, sp.start), min(c.end, sp.end))
                             for c in children.get(sp.id, ())):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.id] = sp.duration - covered
    return out
