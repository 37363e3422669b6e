"""Bundled Danish SARS-CoV-2 surveillance tables (SSI source data).

Three series: weekly Alpha (Nov 2020 - Mar 2021), weekly Delta
(May - Jul 2021), daily Omicron (December 2021). Counts are transcribed
exactly; tested = PCR tests performed, total_cases = positive tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import UnknownDataset

if TYPE_CHECKING:
    from .data import SurveillanceSeries

# (label, tested, total_cases, sequenced, variant_count); t_index is 1-based row order.
_ALPHA_WEEKLY = [
    ("W46", 490543, 7533, 1486, 4),
    ("W47", 502852, 8456, 1941, 3),
    ("W48", 502851, 8774, 2127, 7),
    ("W49", 544578, 12816, 2868, 11),
    ("W50", 694989, 21925, 4226, 16),
    ("W51", 883253, 24579, 4943, 37),
    ("W52", 650374, 17043, 3633, 64),
    ("W53", 536958, 14560, 3916, 80),
    ("W01", 563348, 11311, 4161, 157),
    ("W02", 596048, 7008, 4230, 298),
    ("W03", 739922, 5321, 3688, 473),
    ("W04", 768925, 3616, 2660, 519),
    ("W05", 794917, 3096, 2235, 663),
    ("W06", 809028, 2716, 1974, 929),
    ("W07", 833795, 3335, 2416, 1590),
    ("W08", 956070, 3688, 2683, 2042),
    ("W09", 1033111, 3616, 2699, 2299),
    ("W10", 1056404, 3809, 2874, 2657),
]

# These counts reproduce the published Delta MLE (3.16 per week, 2.17 per
# generation) and the published variance-sensitivity table. Their mean crude
# advantage is 3.02; the paper prints 3.19, which no single-cell change to the
# table reaches without breaking those figures.
_DELTA_WEEKLY = [
    ("W20", 1167981, 6867, 5366, 13),
    ("W21", 1013403, 6698, 5213, 15),
    ("W22", 911764, 5662, 4565, 36),
    ("W23", 720274, 2811, 2467, 66),
    ("W24", 575207, 1649, 1364, 91),
    ("W25", 524837, 1315, 1165, 345),
    ("W26", 608540, 2674, 2418, 1555),
    ("W27", 624414, 4614, 3322, 2702),
    ("W28", 583932, 6818, 6253, 5781),
    ("W29", 473843, 5289, 4800, 4591),
]

_OMICRON_DAILY = [
    ("2021-12-01", 185372, 4910, 4267, 77),
    ("2021-12-02", 213494, 5040, 4294, 62),
    ("2021-12-03", 188041, 5651, 4946, 75),
    ("2021-12-04", 140790, 5577, 5089, 111),
    ("2021-12-05", 147722, 5450, 4995, 167),
    ("2021-12-06", 209434, 7645, 6762, 337),
    ("2021-12-07", 207987, 7902, 6928, 515),
    ("2021-12-08", 205263, 7136, 6232, 649),
    ("2021-12-09", 243089, 7157, 6228, 707),
    ("2021-12-10", 210756, 7520, 6444, 843),
    ("2021-12-11", 153995, 7210, 6443, 1080),
    ("2021-12-12", 165474, 7723, 6794, 1521),
    ("2021-12-13", 229948, 11350, 9316, 2691),
    ("2021-12-14", 221944, 12252, 10456, 4044),
    ("2021-12-15", 217007, 12041, 10409, 4827),
    ("2021-12-16", 254680, 11388, 9475, 4438),
    ("2021-12-17", 233617, 11950, 9860, 5213),
    ("2021-12-18", 174168, 11420, 9233, 5163),
    ("2021-12-19", 180302, 11717, 7927, 4908),
    ("2021-12-20", 267264, 15228, 2565, 1611),
    ("2021-12-21", 254893, 14875, 3199, 2437),
    ("2021-12-22", 269139, 13684, 1323, 1035),
    ("2021-12-23", 243139, 14729, 3450, 2708),
    ("2021-12-24", 71463, 8322, 597, 494),
    ("2021-12-25", 71502, 9233, 915, 705),
    ("2021-12-26", 79592, 12300, 2297, 1986),
    ("2021-12-27", 182893, 25168, 4657, 4134),
    ("2021-12-28", 191226, 24273, 1471, 1324),
    ("2021-12-29", 213584, 19292, 359, 333),
    ("2021-12-30", 225529, 21727, 910, 829),
    ("2021-12-31", 71125, 11027, 429, 393),
]

_BUNDLED = {
    "alpha": (_ALPHA_WEEKLY, 7.0),
    "delta": (_DELTA_WEEKLY, 7.0),
    "omicron": (_OMICRON_DAILY, 1.0),
}

BUNDLED_NAMES = tuple(sorted(_BUNDLED))


def load_bundled(name: str) -> SurveillanceSeries:
    """Return one of the bundled series: 'alpha', 'delta', or 'omicron'."""
    key = name.strip().lower()
    if key not in _BUNDLED:
        raise UnknownDataset(f"unknown dataset {name!r}; choose from {BUNDLED_NAMES}")
    rows, period_days = _BUNDLED[key]
    from .data import SurveillanceSeries  # loads numpy; the CLI imports this module without it

    labels, tested, cases, n, x = zip(*rows)
    return SurveillanceSeries.from_binomial_columns(
        range(1, len(rows) + 1), labels, n, x, cases, tested, period_days=period_days)
