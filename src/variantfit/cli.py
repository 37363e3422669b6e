"""Command-line interface: reproducible runs with machine-readable output.

Each command returns its run report (input digest, resolved options,
results, tool version) and its text lines, each as a function that builds
it, and `main` prints one of them. Row tables stay the columns their layer
returned, in a `Table`, and every output, --out's file too, is written from them.
`--json` emits the report with floats fixed at 10 significant digits, so
identical runs print byte-identical output. Error paths exit nonzero with
a single `error:`-prefixed line.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Callable, Optional

from . import __version__
from .datasets import BUNDLED_NAMES, load_bundled
from .dynamics import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LEVEL,
    GENERATION_DAYS,
    TEST_INTENSITY_EXPONENT,
    Advantage,
    AdvantageEstimate,
    Proportion,
    adjusted_R,
    check_level,
    infer_variant_R,
    stability_region,
)
from .errors import InvalidValue, UsageError, VariantFitError, WindowOutOfRange

# Largest --contour grid and --horizons or --t count; 0:1:1e-4 is the finest grid.
MAX_GRID_POINTS = 10_001
# Thread-count variables of numpy's bundled OpenBLAS and of OpenMP and MKL builds.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.cache
def _load_array_layers() -> None:
    """Import the numpy layers and bind the names the commands call them by.

    The scalar commands never call this, so they run without numpy. A name
    already bound here, such as a tracer's wrapper, is kept: the commands
    call whatever this module holds.
    """
    from .data import load_csv, to_csv_string
    from .estimate import _SLOPES, at_zero, fit
    # fit_multi is not called here: it stays bound for the benchmark's tracer.
    from .inference import (advantage_interval, crude_gammas, fisher_information, fit_multi,
                            hac_sandwich, interval_for_gamma, period_scale)
    from .inference import forecast as forecast_band
    from .multivariant import load_multi_csv, to_multi_csv_string
    from .simulation import SimConfig, simulate

    for name, value in locals().items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    """The array layers' names, such as `fit`, bound on first access."""
    if not name.startswith("_"):
        _load_array_layers()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Table:
    """A report's row table as the columns its layer returned, one per
    distinct name, all of one length. `json_text` writes it as the list of
    row objects; `json.dumps` refuses it."""

    __slots__ = ("names", "columns")

    def __init__(self, names, columns) -> None:
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "columns", tuple(columns))

    def __setattr__(self, *_):
        raise AttributeError("a Table is immutable")

    __delattr__ = __setattr__


_ESCAPE = json.encoder.encode_basestring_ascii
_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value, indent: str = "") -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it once
    every float is rounded to 10 significant digits, so that identical runs
    print identical bytes.

    Written directly because json.dumps formats indented output with its
    pure-Python encoder. Dict keys must be strings. A `Table` is written as
    the list of its row objects.
    """
    if isinstance(value, float):
        return _float_text(f"{value:.10g}")
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    separator = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_ESCAPE(k) + ": " + json_text(value[k], inner) for k in sorted(value)]
        return "{\n" + inner + separator.join(items) + "\n" + indent + "}"
    if isinstance(value, Table):
        return _table_text(value, indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[\n" + inner + separator.join(_items_text(value, inner)) + "\n" + indent + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_text(text: str) -> str:
    """The JSON of a float from its `.10g` text."""
    if "e+" in text or "n" in text or "e-3" in text:
        # json.dumps writes repr(): fixed notation below 1e16, NaN and
        # infinity by name, and a subnormal with its fewer digits. An
        # exponent of e-3x or e-3xx covers every subnormal.
        text = repr(float(text))
        return _SPECIAL_FLOATS.get(text, text)
    # 10 digits round-trip, so repr() of the rounded float has the same
    # digits: with a negative exponent it is this text, and in fixed
    # notation it differs only by its ".0".
    return text if "." in text or "e" in text else text + ".0"


def _items_text(values, indent: str) -> list[str]:
    """`json_text(item, indent)` of each item, a column at a time where all
    items are floats or all ints."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        texts = list(map(float.__format__, values, repeat(".10g")))
        joined = "".join(texts)  # each text holds at most one "."
        if "e+" in joined or "n" in joined or "e-3" in joined:
            return list(map(_float_text, texts))
        if joined.count(".") != len(texts):  # some text is integral, or has an exponent only
            texts = [text if "." in text or "e" in text else text + ".0" for text in texts]
        return texts
    if kind is int:
        return list(map(int.__repr__, values))
    return [json_text(item, indent) for item in values]


def _table_text(table: Table, indent: str) -> str:
    """The JSON of `table`'s rows: each row object is the same texts, every
    name sorted and escaped once, between its cells."""
    if not table.columns or not len(table.columns[0]):
        return "[]"
    inner = indent + "  "
    cell_indent = inner + "  "
    parts = []
    for i, (name, column) in enumerate(sorted(zip(table.names, table.columns))):
        head = ("{\n" if i == 0 else ",\n") + cell_indent + _ESCAPE(name) + ": "
        parts += [repeat(head), _items_text(column, cell_indent)]
    parts.append(repeat("\n" + inner + "}"))
    return "[\n" + inner + (",\n" + inner).join(map("".join, zip(*parts))) + "\n" + indent + "]"


def _emit(report: Callable[[], dict], as_json: bool, lines: Callable[[], list[str]]) -> None:
    """Print the run report under --json, else the text lines. Each is given
    as a function that builds it, and only the one printed is built."""
    if as_json:
        print(json_text(report()))
    else:
        for line in lines():
            print(line)


def _load_input(source: str, period_days: Optional[float], multi: bool = False):
    """The series and its report digest: a bundled dataset, or a CSV file of the
    two-variant schema or, under `multi`, of the m-variant one. A file is read
    once, so a pipe works and the digest is that of the bytes parsed, and before
    the array layers load, so a missing file fails without them.

    `period_days` is --period-days, None when not given: 7 for a CSV file, and
    a UsageError for a bundled dataset, which has its own."""
    if not multi and source.lower() in BUNDLED_NAMES:
        if period_days is not None:
            raise UsageError(f"argument --period-days: applies to CSV input only, "
                             f"not to the bundled dataset {source.lower()}")
        _load_array_layers()
        return load_bundled(source), {"dataset": source.lower()}
    import hashlib  # loads OpenSSL, which only file inputs need

    with open(source, "rb") as fh:
        data = fh.read()
    _load_array_layers()
    load = load_multi_csv if multi else load_csv
    digest = {"path": source, "sha256": hashlib.sha256(data).hexdigest()}
    return load(io.BytesIO(data), period_days=7.0 if period_days is None else period_days), digest


def _fit(series, args):
    """The fit and its variance: Fisher under --fisher, else HAC(--hac)."""
    result = fit(series)
    if args.fisher:
        return result, fisher_information(series, result)
    return result, hac_sandwich(series, result, args.hac)


def _interval_dict(est) -> dict:
    return {
        "point": est.gamma.value,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "period_days": est.gamma.period_days,
        "level": est.level,
    }


def _report_header(command: str, digest: dict, **options) -> dict:
    return {"tool": "variantfit", "version": __version__, "command": command,
            "input": digest, "options": options}


def _fit_report(command: str, digest: dict, series, variance, gen_days: float,
                level: float) -> dict:
    """The header, options and covariance (at t = 0) of a fit's report."""
    header = _report_header(command, digest, period_days=series.period_days, gen_days=gen_days,
                            variance=variance.kind, level=level)
    return header | {"covariance": at_zero(variance.matrix, series.origin).tolist()}


def cmd_estimate(args):
    series, digest = _load_input(args.input, args.period_days)
    result, variance = _fit(series, args)
    per_period = interval_for_gamma(variance, result, series.period_days, args.level)
    per_gen = interval_for_gamma(variance, result, args.gen_days, args.level)
    per_week = interval_for_gamma(variance, result, 7.0, args.level)

    def report():
        return _fit_report("estimate", digest, series, variance, args.gen_days, args.level) | {
            "fit": {
                "alpha": result.params.alpha,
                "beta": result.params.beta,
                "log_likelihood": result.log_likelihood,
                "iterations": result.iterations,
                "score_norm": result.score_norm,
            },
            "advantage": {
                "per_period": _interval_dict(per_period),
                "per_generation": _interval_dict(per_gen),
                "per_week": _interval_dict(per_week),
            },
        }

    def lines():
        pct = int(round(args.level * 100))
        return [
            f"alpha = {result.params.alpha:.4f}   beta = {result.params.beta:.4f}   "
            f"({variance.kind} errors, {pct}% CI)",
            f"gamma per {series.period_days:g} days: {per_period.gamma.value:.4f}  "
            f"[{per_period.ci_low:.4f}, {per_period.ci_high:.4f}]",
            f"gamma per {args.gen_days:g} days (generation): {per_gen.gamma.value:.4f}  "
            f"[{per_gen.ci_low:.4f}, {per_gen.ci_high:.4f}]",
            f"gamma per week: {per_week.gamma.value:.4f}  "
            f"[{per_week.ci_low:.4f}, {per_week.ci_high:.4f}]",
        ]

    return report, lines


def crude_report(digest: dict, series, measures, level: float):
    """The `crude` run report and its text lines, for the series' crude
    measures as `crude_gammas` returns their columns, as the two functions
    that a command returns."""
    measures = Table(("t", "value", "ci_low", "ci_high"), measures)
    values = measures.columns[1]
    mean = sum(values) / len(values)

    def report():
        header = _report_header("crude", digest, period_days=series.period_days, level=level)
        return header | {"measures": measures, "mean": mean}

    def lines():
        rows = map("{},{:.6g},{:.6g},{:.6g}".format, *measures.columns)
        return ["t,value,ci_low,ci_high", *rows, f"mean,{mean:.6g},,"]

    return report, lines


def cmd_crude(args):
    series, digest = _load_input(args.input, args.period_days)
    return crude_report(digest, series, crude_gammas(series, level=args.level), args.level)


def cmd_forecast(args):
    series, digest = _load_input(args.input, args.period_days)
    t_all = series.t_values
    train_through = args.train_through if args.train_through is not None else t_all[-1]
    if not t_all[0] <= train_through <= t_all[-1]:
        raise WindowOutOfRange(f"--train-through {train_through} outside data range "
                               f"[{t_all[0]}, {t_all[-1]}]")
    # The series is sorted by t, so the window is a run of positions.
    first = 0 if args.train_from is None else bisect_left(t_all, args.train_from)
    window = slice(first, bisect_right(t_all, train_through))
    if window.stop - window.start < 2:
        raise WindowOutOfRange("training window has fewer than 2 records")
    result, variance = _fit(series.select(periods=window), args)
    horizons = [train_through + h for h in range(1, args.horizons + 1)]
    cs = args.c or [2.0]
    # One band per --c, in the order given, repeats included, as options.c lists them.
    bands = [(c, Table(("t", "point", "lower", "upper"),
                       forecast_band(result, variance, horizons, c))) for c in cs]

    def report():
        return _report_header("forecast", digest, train_from=args.train_from,
                              train_through=train_through, horizons=args.horizons, c=cs,
                              variance=variance.kind) | {
            "fit": {
                "alpha": result.params.alpha,
                "beta": result.params.beta,
                "gamma_per_period": result.params.gamma,
            },
            "bands": [{"c": c, "rows": rows} for c, rows in bands],
        }

    def lines():
        lines = [
            f"in-sample gamma per {series.period_days:g} days: {result.params.gamma:.4f} "
            f"(window through t={train_through}, {len(result.series)} records)",
            "c,t,point,lower,upper",
        ]
        for c, rows in bands:
            lines += map("{:g},{},{:.6g},{:.6g},{:.6g}".format, repeat(c), *rows.columns)
        return lines

    return report, lines


def _finite_float(text: str) -> float:
    """The parser's type for every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _grid(spec: str) -> list[float]:
    """The parser's type for --contour: start:stop:step, 0 <= start <= stop <= 1.

    The point count is worked out before any point is built, and a grid of
    more than MAX_GRID_POINTS, or whose step does not advance the start, is
    refused. A point that rounding takes past 1 is 1.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {spec!r}")
    start, stop, step = (_finite_float(v) for v in parts)
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if start + step == start:
        raise argparse.ArgumentTypeError(
            f"grid step {step:g} is below the precision of the start {start:g}"
        )
    if not 0.0 <= start <= stop <= 1.0:
        raise argparse.ArgumentTypeError(
            f"grid needs 0 <= start <= stop <= 1, got start {start:g} and stop {stop:g}"
        )
    points = math.floor((stop + 1e-12 - start) / step) + 1
    if points > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {points} points, at most {MAX_GRID_POINTS} are allowed"
        )
    return [min(start + i * step, 1.0) for i in range(points)]


def _grid_count(text: str, noun: str, low: int) -> int:
    """The parser's type for a count of `noun`: an integer from `low` to MAX_GRID_POINTS."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not low <= value <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"expected {low} to {MAX_GRID_POINTS} {noun}, got {value}")
    return value


def cmd_infer_r(args):
    if (args.R is None) != (args.lam is None):
        given, missing = ("--R", "--lambda") if args.lam is None else ("--lambda", "--R")
        raise UsageError(f"argument {given}: needs argument {missing}")
    if args.out is not None and args.contour is None:
        raise UsageError("argument --out: needs argument --contour")
    if args.R is None and args.contour is None:
        raise UsageError("nothing to do: pass --R/--lambda and/or --contour")
    if args.from_fit is not None:
        if args.gamma_ci is not None:
            raise UsageError("argument --gamma-ci: not allowed with argument --from-fit")
        series, digest = _load_input(args.from_fit, args.period_days)
        result, variance = _fit(series, args)
        gamma_est = interval_for_gamma(variance, result, args.gen_days, args.level)
    else:
        if args.period_days is not None:
            raise UsageError("argument --period-days: not allowed with argument --gamma-gen")
        digest = {"gamma_gen": args.gamma_gen}
        point = Advantage(args.gamma_gen, args.gen_days)
        lo, hi = (args.gamma_ci if args.gamma_ci else (args.gamma_gen, args.gamma_gen))
        if lo <= 0:
            # Not in AdvantageEstimate: compose_advantages may give ci_low = 0.
            raise InvalidValue(f"--gamma-ci lower end must be positive, got {lo:g}")
        gamma_est = AdvantageEstimate(gamma=point, ci_low=lo, ci_high=hi, level=args.level)

    inference = contour = None
    if args.R is not None:
        inference = infer_variant_R(args.R, Proportion(args.lam), gamma_est.gamma)

    def contour_lines():
        """The contour as CSV lines, its header first; the same in text and --out."""
        return [",".join(contour.names),
                *map("{:.10g},{:.10g},{:.10g},{:.10g}".format, *contour.columns)]

    if args.contour is not None:
        contour = Table(("lambda", "threshold", "lo", "hi"),
                        stability_region(gamma_est, [Proportion(v) for v in args.contour]))
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(contour_lines()) + "\n")

    def report():
        report = _report_header("infer-r", digest, gen_days=args.gen_days, level=args.level,
                                gamma_gen=gamma_est.gamma.value)
        if inference is not None:
            report["inference"] = {"R_all": inference.R_all, "lambda": inference.lam.value,
                                   "R_variant": inference.R_variant,
                                   "R_incumbent": inference.R_incumbent}
        if contour is not None:
            report["contour"] = contour
        return report

    def lines():
        lines = []
        if inference is not None:
            lines.append(f"R_variant = {inference.R_variant:.6g}   "
                         f"R_incumbent = {inference.R_incumbent:.6g}")
        if contour is not None:
            lines += ([f"wrote {len(contour.columns[0])} contour rows to {args.out}"]
                      if args.out is not None else contour_lines())
        return lines

    return report, lines


def cmd_adjusted_r(args):
    period_days = 7.0 if args.period_days is None else args.period_days
    value = adjusted_R(
        args.cases, args.cases_prev, args.tested, args.tested_prev,
        gen_days=args.gen_days, period_days=period_days,
        exponent=args.exponent,
    )

    def report():
        digest = {"cases": args.cases, "cases_prev": args.cases_prev,
                  "tested": args.tested, "tested_prev": args.tested_prev}
        header = _report_header("adjusted-r", digest, gen_days=args.gen_days,
                                period_days=period_days, exponent=args.exponent)
        return header | {"R_all": value}

    return report, lambda: [f"R_all = {value:.6g}"]


def cmd_simulate(args):
    _load_array_layers()
    lam0 = list(args.lambda0)
    if len(lam0) == len(args.gamma):
        lam0 = [1.0 - sum(lam0)] + lam0
    config = SimConfig(
        gammas=tuple(args.gamma),
        initial_proportions=tuple(lam0),
        sequenced=tuple([args.n] * args.t),
        seed=args.seed,
    )
    series = simulate(config, replication=args.replication)
    text = (to_csv_string if config.n_variants == 2 else to_multi_csv_string)(series)
    if args.out is None:  # simulate has no --json: its lines are the CSV's
        return None, text.splitlines
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return None, lambda: []


def multi_report(digest: dict, result, variance, gen_days: float, level: float):
    """The `multi` run report and its text lines, as the two functions that a
    command returns: every variant's interval_for_gamma, from one call."""
    _load_array_layers()
    series = result.series
    scale = period_scale(result, gen_days)
    b = result.theta[_SLOPES]
    gens = advantage_interval(b, variance.matrix_for(result).diagonal()[_SLOPES], scale, level)
    if not min(gens[0]) > 0:  # Advantage's test: a point that underflowed to 0
        raise InvalidValue(f"advantage must be positive, got {min(gens[0])}")
    variants = Table(("variant", "gamma_per_period", "gamma_per_generation",
                      "ci_low_per_generation", "ci_high_per_generation"),
                     (series.variant_names[1:], list(map(math.exp, b.tolist())), *gens))

    def report():
        return _fit_report("multi", digest, series, variance, gen_days, level) | {
            "numeraire": series.variant_names[0],
            "variants": variants,
        }

    def lines():
        return [f"numeraire: {series.variant_names[0]}",
                "variant,gamma_per_period,gamma_per_gen,ci_low,ci_high",
                *map("{},{:.6g},{:.6g},{:.6g},{:.6g}".format, *variants.columns)]

    return report, lines


def cmd_multi(args):
    series, digest = _load_input(args.file, args.period_days, multi=True)
    result, variance = _fit(series, args)
    return multi_report(digest, result, variance, args.gen_days, args.level)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so they leave through main's one error line."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    parse_args keeps no state between calls: each returns a new Namespace.
    """
    parser = _Parser(
        prog="variantfit",
        description="Estimate the growth advantage of an emerging virus variant.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common, level, gen, variance = (_Parser(add_help=False) for _ in range(4))
    # None when not given, as a bundled dataset and --gamma-gen require.
    common.add_argument("--period-days", type=_finite_float, default=None,
                        help="calendar days per t_index unit, for CSV input and "
                             "adjusted-r only (default 7)")
    common.add_argument("--json", action="store_true", help="emit a JSON run report")
    level.add_argument("--level", type=_finite_float, default=DEFAULT_LEVEL,
                       help=f"confidence level (default {DEFAULT_LEVEL})")
    gen.add_argument("--gen-days", type=_finite_float, default=GENERATION_DAYS,
                     help=f"generation period in days (default {GENERATION_DAYS})")
    choice = variance.add_mutually_exclusive_group()
    # A string default is converted only when --hac is absent, so an explicit
    # "--hac 4" counts as given and conflicts with --fisher.
    choice.add_argument("--hac", type=int, default=str(DEFAULT_BANDWIDTH), metavar="K",
                        help=f"Parzen HAC bandwidth (default {DEFAULT_BANDWIDTH})")
    choice.add_argument("--fisher", action="store_true",
                        help="use the Fisher (non-robust) variance instead of HAC")

    p = sub.add_parser("estimate", parents=[common, level, gen, variance],
                       help="fit the two-variant model and report intervals")
    p.add_argument("input", help=f"bundled dataset ({', '.join(BUNDLED_NAMES)}) or CSV path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("crude", parents=[common, level],
                       help="model-free per-period advantage measures")
    p.add_argument("input")
    p.set_defaults(func=cmd_crude)

    p = sub.add_parser("forecast", parents=[common, variance],
                       help="forecast the variant proportion with bands")
    p.add_argument("input")
    p.add_argument("--train-from", type=int, default=None,
                   help="first t_index of the training window")
    p.add_argument("--train-through", type=int, default=None,
                   help="last t_index of the training window (default: last record)")
    p.add_argument("--horizons", type=functools.partial(_grid_count, noun="horizons", low=1),
                   default=10, help="number of periods to forecast ahead (default 10)")
    p.add_argument("--c", type=_finite_float, action="append", default=None,
                   help="band half-width in standard deviations; repeatable (default 2)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("infer-r", parents=[common, level, gen, variance],
                       help="variant reproduction number / stability contour")
    p.add_argument("--R", type=_finite_float, default=None, help="aggregate reproduction number")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=None,
                   help="current variant proportion")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--gamma-gen", type=_finite_float, default=None,
                        help="per-generation advantage")
    source.add_argument("--from-fit", default=None,
                        help="dataset or CSV to estimate the advantage from")
    p.add_argument("--gamma-ci", type=_finite_float, nargs=2, default=None,
                   metavar=("LO", "HI"), help="CI endpoints for --gamma-gen")
    p.add_argument("--contour", type=_grid, default=None, metavar="START:STOP:STEP",
                   help="lambda grid for the stability-region CSV")
    p.add_argument("--out", default=None, help="write the contour CSV here")
    p.set_defaults(func=cmd_infer_r)

    p = sub.add_parser("adjusted-r", parents=[common, gen],
                       help="test-intensity-adjusted aggregate R")
    p.add_argument("--cases", type=_finite_float, required=True)
    p.add_argument("--cases-prev", type=_finite_float, required=True)
    p.add_argument("--tested", type=_finite_float, required=True)
    p.add_argument("--tested-prev", type=_finite_float, required=True)
    p.add_argument("--exponent", type=_finite_float, default=TEST_INTENSITY_EXPONENT,
                   help=f"testing-intensity exponent (default {TEST_INTENSITY_EXPONENT})")
    p.set_defaults(func=cmd_adjusted_r)

    p = sub.add_parser("simulate", help="generate a synthetic series as CSV")
    p.add_argument("--gamma", type=_finite_float, action="append", required=True,
                   help="per-period advantage; repeat for extra variants")
    p.add_argument("--lambda0", type=_finite_float, action="append", required=True,
                   help="initial proportion of each non-numeraire variant")
    p.add_argument("--n", type=int, required=True, help="sequenced count per period")
    p.add_argument("--t", type=functools.partial(_grid_count, noun="periods", low=0),
                   required=True, help=f"number of periods, at most {MAX_GRID_POINTS}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replication", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate, json=False)

    p = sub.add_parser("multi", parents=[common, level, gen, variance],
                       help="fit the m-variant multinomial model")
    p.add_argument("--file", required=True, help="multi-variant CSV (t,label,count_*)")
    p.set_defaults(func=cmd_multi)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    Called without `argv`, as the console script and `python -m
    variantfit.cli` call it, this is the entry of a process. It then limits
    BLAS to one thread before numpy loads, by defaulting each of
    BLAS_THREAD_VARIABLES to 1; a count the user exported is kept. The
    largest matrix the tool builds is the 2(m - 1) square information, and
    the worker threads that OpenBLAS starts at import only spin, burning CPU
    without saving wall time. Called with a list, as by tests and library
    users, it leaves `os.environ` alone.
    """
    if argv is None:
        for name in BLAS_THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    try:
        args = build_parser().parse_args(argv)
        if "level" in args:  # checked before any input is read
            check_level(args.level)
        report, lines = args.func(args)
        _emit(report, args.json, lines)
    except (VariantFitError, OSError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
