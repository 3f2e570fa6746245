"""Per-layer tracing of the spektoy package from outside it.

A layer is one module of the package.  `Tracer.install` replaces every
public function of each layer, every public method and `__post_init__`
of each public class defined there, and every other module binding of
those functions, with a timing wrapper; `uninstall` puts back the exact
objects it found.  Nothing inside `src/` is edited.

A span opens where a call crosses into a layer from a different one
(calls inside one layer are counted but merged into the enclosing span).
A layer's self time is the length of its spans minus the spans they
contain into other layers.  Spans are kept in memory, up to a cap, and
written out when the run ends; the aggregates cover every call.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "_modmath",
    "phase_algebra",
    "toy_model",
    "dense_oracle",
    "circuits",
    "wigner",
    "subtheory",
    "equivalence",
    "injection",
    "witness",
    "cli",
)

PACKAGE = "spektoy"
#: the benchmark's own frame around each operation
BENCH = "bench"
#: spans kept for the span file; aggregates cover every call regardless
MAX_SPANS = 50_000


def metric_prefix(layer: str) -> str:
    """Metric names must start with a letter: `_modmath` reports as `modmath`."""
    return layer.lstrip("_")


def _is_own_function(value, module_name: str) -> bool:
    return (
        callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module_name
    )


class Tracer:
    def __init__(self):
        self.layer_calls: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.traced_wall_s = 0.0
        self.hook_s = 0.0  # counter hooks: inside the wall time, in no layer
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = -1
        self._stack: list[list] = []  # [layer, child seconds, span id]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict = {}

    # -- hooks --------------------------------------------------------------

    def on_return(self, qualname: str, hook) -> None:
        """Call hook(args, kwargs, result) after each successful call of the
        function named `<layer>.<qualname>`.  Hook time is charged to no
        layer."""
        self._hooks[qualname] = hook

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_own_function(value, mod.__name__):
                    wrapper = self._wrap(layer, f"{layer}.{attr}", value)
                    wrapped[id(value)] = wrapper
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(layer, value)
        # rebind every module attribute that holds a wrapped function,
        # including names imported into other modules of the package
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(layer, name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(layer, name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0, self._next_span, self._stack[-1][2] if self._stack else -1, 0.0]
        self._next_span += 1
        self._stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _leave(self, frame: list, name: str) -> float:
        end = perf_counter()
        self._stack.pop()
        layer, child, span_id, parent_id, start = frame
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((self.op_id, span_id, parent_id, layer, name, start, end))
        else:
            self.spans_dropped += 1
        return duration

    def _run_hook(self, hook, args, kwargs, result) -> None:
        start = perf_counter()
        hook(args, kwargs, result)
        seconds = perf_counter() - start
        self.hook_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def op(self, op_id: int, call):
        """Run one benchmark operation inside a root span; returns its result."""
        self.op_id = op_id
        frame = self._enter(BENCH)
        try:
            return call()
        finally:
            self.traced_wall_s += self._leave(frame, "op")

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        calls_key = name
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.layer_calls[layer] += 1
                tracer.fn_calls[calls_key] += 1
                it = fn(*args, **kwargs)
                while True:  # one span per resumption of the generator
                    frame = tracer._enter(layer)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave(frame, name)
                    yield value

            return _named(gen_wrapper, fn)

        def wrapper(*args, **kwargs):
            tracer.layer_calls[layer] += 1
            tracer.fn_calls[calls_key] += 1
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = tracer._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._leave(frame, name)
            hook = tracer._hooks.get(name)
            if hook is not None:
                tracer._run_hook(hook, args, kwargs, result)
            return result

        return _named(wrapper, fn)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for op_id, span_id, parent_id, layer, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "op": op_id,
                            "span": span_id,
                            "parent": parent_id,
                            "layer": layer,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _named(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", wrapper.__name__)
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__qualname__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def _package_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
