"""Spans around the package's public functions, installed from outside.

The tracer replaces every public function and public method of the layer
modules with a wrapper, in each module namespace where the package looks it
up (``harness.fit``, ``model_select.format_dense``, ...), so calls made
inside the package are traced without editing it.  Each call records a span
with its name, start, end and parent; a layer's self time is its spans'
durations minus the time their child spans cover.  ``uninstall`` puts every
original object back.
"""

import functools
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

# The package's modules, i.e. the benchmark's layers.  `theory` is on no
# benchmarked path and `_rng` is too small to time.
LAYERS = ("sampling", "core", "solver", "model_select", "harness", "cli")


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    children_s: float = 0.0
    iterations: int | None = None  # SolveResult.iterations_run, when returned
    root: str = field(init=False)

    def __post_init__(self):
        self.root = self.parent.root if self.parent is not None else self.name

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent.name if self.parent is not None else None,
                "iterations": self.iterations}


class Tracer:
    """Collects spans; `last_fit` keeps (obs, constraints, result) of the last solve."""

    def __init__(self, solve_result_type):
        self._solve_result_type = solve_result_type
        self.spans = []
        self.last_fit = None
        self._stack = []
        self._patches = []  # (owner, attribute, original object)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. a workload phase."""
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def _open(self, name: str) -> Span:
        sp = Span(name=name, start=time.perf_counter(),
                  parent=self._stack[-1] if self._stack else None)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack.pop()
        if sp.parent is not None:
            sp.parent.children_s += sp.duration
        self.spans.append(sp)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if isinstance(result, self._solve_result_type):
                sp.iterations = result.iterations_run
                self.last_fit = (args[0], args[1], result)
            return result
        return traced

    def install(self, modules) -> None:
        """Wrap the public functions and methods of `modules` (the layers)."""
        layer_names = {m.__name__ for m in modules}

        def span_name(obj):
            return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ in layer_names:
                    self._patch(mod, attr, self._wrap(span_name(obj), obj))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_methods(obj, span_name)

    def _install_methods(self, cls, span_name) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self._wrap(span_name(obj), obj))
            elif isinstance(obj, classmethod):
                fn = obj.__func__
                self._patch(cls, attr, classmethod(self._wrap(span_name(fn), fn)))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
