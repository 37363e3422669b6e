"""Spans for the traced run, recorded from the benchmark's own files.

The tracer wraps a layer's entry point where its caller binds it (for
example `variantfit.cli.fit`), so nothing under `src/` changes. Each span
holds its name, start, end, parent span and op id; spans stay in memory
until the run ends. A span's self time is its duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

# Layer name -> attribute of `variantfit.cli` that the CLI calls it through.
CLI_BINDINGS = {
    "data.load_csv": "load_csv",
    "datasets.load_bundled": "load_bundled",
    "estimate.fit": "fit",
    "inference.hac_sandwich": "hac_sandwich",
    "inference.fisher_information": "fisher_information",
    "inference.interval_for_gamma": "interval_for_gamma",
    "crude.crude_gammas": "crude_gammas",
    "forecast.forecast": "forecast_band",
    "repro.infer_variant_R": "infer_variant_R",
    "repro.stability_region": "stability_region",
    "multivariant.load_multi_csv": "load_multi_csv",
    "multivariant.fit_multi": "fit_multi",
    "simulate.simulate": "simulate",
}
LAYERS = tuple(CLI_BINDINGS) + ("cli.main",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    error: str | None = None
    iterations: int | None = None  # FitResult.iterations of a successful fit


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.iterations = getattr(result, "iterations", None)
            return result

        return traced

    def patch(self, owner, attribute, name):
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def patch_cli(self, cli_module):
        for name, attribute in CLI_BINDINGS.items():
            self.patch(cli_module, attribute, name)

    def restore(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def covered_length(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals` (clipped)."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total, reach = 0.0, start
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(s.start, s.end, children[i])
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Busy ms and calls per op for every layer, cli self time, and fit counters."""
    busy, calls = defaultdict(float), defaultdict(int)
    for span in spans:
        busy[span.name] += span.end - span.start
        calls[span.name] += 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.ms"] = 1e3 * busy[layer] / ops
        metrics[f"{layer}.calls"] = calls[layer] / ops
    selfs = self_times(spans)
    metrics["cli.self_ms"] = 1e3 * sum(t for s, t in zip(spans, selfs) if s.name == "cli.main") / ops
    # The sum of FitResult.iterations over successful fits and the count of
    # failed fits, per op like every figure here: the traced run's length
    # follows the machine's speed, so a total would not compare across runs.
    fits = [s for s in spans if s.name == "estimate.fit"]
    metrics["estimate.fit.iterations"] = sum(s.iterations or 0 for s in fits if s.error is None) / ops
    metrics["estimate.fit.failed"] = sum(s.error is not None for s in fits) / ops
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self-time sums (ms) from `python -X importtime` output.

    `import.total_ms` is every module's self time; the package figures sum
    the self time of the package and its submodules only, so they add up.
    """
    sums = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        self_us, module = int(fields[0]), fields[2].strip()
        sums["total"] += self_us
        top = module.split(".", 1)[0]
        if top in ("numpy", "scipy", "variantfit"):
            sums[top] += self_us
    return {
        "import.total_ms": sums["total"] / 1e3,
        "import.numpy_ms": sums["numpy"] / 1e3,
        "import.scipy_ms": sums["scipy"] / 1e3,
        "import.variantfit_self_ms": sums["variantfit"] / 1e3,
    }
