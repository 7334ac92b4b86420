"""Spans and counters around the public calls of ``ucsbound``.

Used only by the traced run of the benchmark: :meth:`Tracer.install`
replaces the targeted functions in every loaded ``ucsbound`` module with
wrappers, so calls between modules (``find_tmax`` -> ``gamma_hat`` ->
``entropy_ratio``) become nested spans, and :meth:`Tracer.uninstall`
puts the originals back.  Spans stay in memory until the caller writes
them out.

Run as a script, it executes one ``ucsbound`` CLI command with the
wrappers installed and writes the spans to a JSON file:

    python3 benchmarks/tracing.py SPANS.json gamma-hat --t 0.38 ...
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# (module, function) pairs that get a span.  Every module of the package
# that holds a reference to the function is patched.
SPAN_TARGETS = (
    ("optimizer", "find_tmax"),
    ("optimizer", "gamma_hat"),
    ("optimizer", "inner_inf"),
    ("optimizer", "verify_reference_point"),
    ("distributions", "entropy_ratio"),
    ("ucslab", "enumerate_or_closed"),
    ("ucslab", "element_frequencies"),
    ("ucslab", "min_peak_frequency"),
    ("ucslab", "check_entropy_inequality"),
    ("ucslab", "max_symmetric_coupling_entropy"),
    ("ucslab", "sample_or_closed"),
    ("maxcorr", "maximal_correlation"),
)

# (module whose calls are counted, defining module, function of one
# argument).  Counted, not spanned: binary_entropy runs millions of times
# per gamma_hat.
COUNT_TARGETS = (("optimizer", "scalars", "binary_entropy"),)

# Generator functions: the wrapper drains the generator inside the span,
# so the span covers the enumeration and not the caller's loop body.
_EAGER = {"ucslab.enumerate_or_closed"}


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._counts: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._counts.items()}

    def _span(self, name: str, fn, eager: bool):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            rec = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "op": self.op,
                "args": [a for a in args if isinstance(a, (int, float))],
                "counts": self.counts(),
                "start": time.perf_counter(),
            }
            spans.append(rec)
            stack.append(rec["id"])
            try:
                out = fn(*args, **kwargs)
                return iter(list(out)) if eager else out
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                start_counts = rec["counts"]
                rec["counts"] = {k: v - start_counts.get(k, 0) for k, v in self.counts().items()}

        return wrapped

    def _counter(self, name: str, fn):
        # One positional argument, no *args: this wrapper runs millions of
        # times per traced gamma_hat, and the generic form costs twice as much.
        cell = self._counts.setdefault(name, [0])

        def counted(x):
            cell[0] += 1
            return fn(x)

        return counted

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded ``ucsbound`` module."""
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ucsbound"]
        for mod_name, fn_name in SPAN_TARGETS:
            original = getattr(importlib.import_module(f"ucsbound.{mod_name}"), fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._span(name, original, name in _EAGER)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for caller, mod_name, fn_name in COUNT_TARGETS:
            module = importlib.import_module(f"ucsbound.{caller}")
            self._patch(module, fn_name, self._counter(f"{mod_name}.{fn_name}", getattr(module, fn_name)))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def children(spans: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            out.setdefault(s["parent"], []).append(s)
    return out


def self_time(span: dict, kids: dict[int, list[dict]]) -> float:
    """Span duration minus the time its (sequential) children cover."""
    return duration(span) - sum(duration(c) for c in kids.get(span["id"], ()))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from ucsbound import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
