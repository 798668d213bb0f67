"""Spans around the calls into each eta_lab layer, recorded from outside.

`Tracer.install` replaces the layer functions named in TRACED with timing
wrappers, in every eta_lab module that refers to them, so calls between
layers (cli -> experiments -> constants -> arith) nest into a span tree.
Nothing under src/ changes. Spans stay in memory until the run ends.

High-frequency helpers (kronecker, least_nonresidue, is_fundamental) are
left unwrapped on purpose: their cost shows as self time of the caller,
and wrapping them would make the tracing overhead dominate.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter

# layer -> function -> the arguments recorded on each span
TRACED = {
    "cli": {"main": ("argv",)},
    "arith": {"sieve_primes": (), "sieve_fundamental": ("bound",)},
    "newform": {"eta": (), "eta_sign_trace": (), "sigma_coefficient": (),
                "q_expansion": (), "l_at_negative": ()},
    "constants": {"default_primes": (), "rigorous_constant": ("name",),
                  "combined_constant": (), "mu_constant": ()},
    "experiments": {"build_context": ("x",), "scan_pairs": ("x", "workers"),
                    "decomposition_audit": ("x",), "density_lemma": ("x",),
                    "density_pollack": ("x",), "density_lt": ("x",),
                    "pair_count_check": ("x",), "average_nd": ("x",), "average_n1": ("x",)},
    "reports": {"build_envelope": (), "serialize": ("fmt",)},
}
LAYERS = tuple(TRACED)


class Span:
    __slots__ = ("sid", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, sid, parent, name, op, start, attrs):
        self.sid, self.parent, self.name, self.op = sid, parent, name, op
        self.start, self.end, self.attrs = start, start, attrs

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_list(self) -> list:
        return [self.sid, self.parent, self.name, self.op, self.start, self.end, self.attrs]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict | None) -> Span:
        span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                    name, self._op, perf_counter(), attrs)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one benchmark operation; every span inside carries op_id."""
        self._op = op_id
        span = self._open(f"bench.op.{name}", None)
        try:
            yield
        finally:
            self._close(span)
            self._op = None

    def _wrap(self, name: str, fn, keep: tuple):
        sig = inspect.signature(fn) if keep else None
        tracer = self

        def traced(*args, **kwargs):
            attrs = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = {k: _plain(bound.arguments[k]) for k in keep}
            span = tracer._open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        homes = {layer: import_module(f"eta_lab.{layer}") for layer in TRACED}
        modules = [m for n, m in list(sys.modules.items()) if n == "eta_lab" or n.startswith("eta_lab.")]
        for layer, fns in TRACED.items():
            home = homes[layer]
            for fname, keep in fns.items():
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig, keep)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def _plain(value):
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value[:1]]  # the CLI command name is enough
    return value if isinstance(value, (int, str, float)) or value is None else str(value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.seconds
    return out
