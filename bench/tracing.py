"""Outside-in span tracer for the hwtv benchmark.

The tracer replaces functions at the module attributes their callers resolve
(``hwtv.solver.prox_t``, ``hwtv.adapt.box_mean``, ``numpy.fft.fft2``, ...)
with wrappers that time each call, and wraps the ``__post_init__`` of every
hwtv class so container validation shows as its own span. The package source
is not touched; :meth:`Tracer.uninstall` puts every original back.

A span's self time is its duration minus the durations of the spans it
called. Statistics are kept per span name and split by whether the span ran
inside a ``root`` span (``solver.restore``), so loop work can be told apart
from set-up and scoring. A function that a later refactor renames or stops
calling simply records no calls.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

FFT_NAMES = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0  # FFT spans only: input plus output array bytes


class Tracer:
    """Collects per-name span statistics while its wrappers are installed."""

    def __init__(self, root: str):
        self.root = root
        self.stats: dict[tuple[str, bool], SpanStat] = {}
        self.root_results: list = []
        self._stack: list[list[float]] = []
        self._root_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, modules, fft_module) -> None:
        """Wrap hwtv functions and classes found in ``modules`` and the FFTs."""
        wrappers: dict[int, object] = {}

        def wrapped(fn, name, count_bytes=False):
            # One wrapper per function object, shared by every site that
            # imported it, so identity checks between sites still hold.
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, count_bytes)
            return wrappers[id(fn)]

        fft_funcs = {
            id(getattr(fft_module, n)): n for n in FFT_NAMES if hasattr(fft_module, n)
        }
        for module in (fft_module, *modules):
            for attr, value in list(vars(module).items()):
                if id(value) in fft_funcs:
                    self._patch(module, attr, wrapped(value, "fft." + fft_funcs[id(value)], True))
                elif attr.startswith("_") or not inspect.isfunction(value):
                    continue
                elif value.__module__.startswith("hwtv."):
                    self._patch(module, attr, wrapped(value, _stage_name(value)))
        for module in modules:
            for value in vars(module).values():
                if (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and "__post_init__" in vars(value)
                ):
                    name = f"{_layer(value)}.{value.__name__}"
                    self._patch(value, "__post_init__", wrapped(value.__post_init__, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name: str, count_bytes: bool):
        tracer = self
        is_root = name == self.root

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            tracer._stack.append(children)
            tracer._root_depth += is_root
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                stat = tracer.stats.setdefault((name, tracer._root_depth > 0), SpanStat())
                tracer._root_depth -= is_root
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children[0]
            if count_bytes:
                stat.bytes += _nbytes(args[0]) + _nbytes(out)
            if is_root:
                tracer.root_results.append(out)
            return out

        return traced

    def take(self) -> tuple[dict[tuple[str, bool], SpanStat], list]:
        """Return the statistics and root results gathered so far; start afresh."""
        taken = (self.stats, self.root_results)
        self.stats, self.root_results = {}, []
        return taken


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _stage_name(fn) -> str:
    return f"{_layer(fn)}.{fn.__name__}"


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))
