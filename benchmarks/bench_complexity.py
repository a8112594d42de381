"""E1–E4 and the O(nL) sweep: the paper's complexity claims as scenarios.

A scenario declares the deployments it measures (``RunSpec``-s), the
columns it prints and the claim it asserts.  One runner hands the
deployments to :func:`repro.analysis.complexity.measured_complexity_sweep`
— one run of the real engine each, its metered bits recorded next to
Eq. (1)'s terms and the §1 comparison models — prints the table and
checks the claim:

* **E1** — Eq. (1), §3.4: a generation's matching, checking and
  diagnosis stages cost exactly what the formulas say.
* **E2** — Eq. (2)/(3): with the paper-optimal ``D`` the failure-free
  total *is* the model, and bits per value bit fall towards
  ``n(n-1)/(n-2t)`` as ``L`` grows.
* **E3** — §1: ours against the bitwise ``Ω(n²L)`` approach and the
  Fitzi–Hirt ``O(nL + n³(n+κ))`` protocol, both run on the same inputs
  and shown next to their analytic models.
* **E4** — §1, "linear in n for large L": the data path is exactly the
  linear term, and Eq. (2) at ``L = n⁶`` stays a constant factor off it.
* **O(nL)** — n = 4 … 511 at ``L = 2^12``: matching-symbol bits equal
  the O(nL) term exactly and totals sit in a constant-factor band of the
  least-squares fit onto the failure-free model, beside the Fitzi–Hirt,
  bitwise and LinBFT amortized ``nL + 3nκ`` overlays.

``docs/BENCHMARKS.md`` is the experiment index.  Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q -s   # E1–E10
    PYTHONPATH=src python benchmarks/bench_complexity.py   # + write the report
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Tuple

import pytest

from _common import print_table
from repro.analysis import ascii_plot
from repro.analysis.complexity import (
    consensus_total_bits_optimal,
    fit_model_factor,
    leading_term_per_bit,
    measured_complexity_sweep,
)
from repro.baselines import BitwiseConsensus, FitziHirtConsensus
from repro.service import RunSpec

#: Constant-factor band for measured/model at every O(nL) sweep point.
#: The engine implements Eq. (1) minus diagnosis directly, so the honest
#: expectation is ~1.0; the band leaves room for integer generation
#: rounding at small L without letting an n-dependent drift through.
RATIO_BAND = (0.9, 1.1)
SWEEP_L_BITS = 1 << 12
#: E3's security parameter, for the Fitzi–Hirt run and its model alike.
E3_KAPPA = 16


@dataclass(frozen=True)
class Scenario:
    key: str
    title: str
    specs: Sequence[RunSpec]
    #: (header, record -> cell) per printed column.
    columns: Sequence[Tuple[str, Callable[[dict], object]]]
    #: Raises AssertionError when the records contradict the claim.
    check: Callable[[list], None]
    #: Adds what the columns and the check need beyond the sweep's record.
    derive: Optional[Callable[[list], None]] = None
    #: Security parameter of the Fitzi–Hirt and LinBFT models.
    kappa: float = 128.0


def per_bit(record) -> float:
    return record["measured_bits"] / record["l_bits"]


def asymptote(record) -> float:
    return leading_term_per_bit(record["n"], record["t"])


def stage_columns(stage):
    return [
        (stage, lambda r: r["stage_bits"][stage]),
        ("Eq.(1)", lambda r: r["stage_model_bits"][stage]),
    ]


def check_e1(records):
    clean, attacked = records
    assert clean["diagnosis_count"] == 0
    # One faulty processor forces exactly one diagnosis stage: n-t symbol
    # broadcasts of D/(n-2t) bits and n trust vectors of n-t bits, all
    # through B-bit broadcast instances.
    assert attacked["diagnosis_count"] == 1
    for record in records:
        assert record["stage_bits"] == record["stage_model_bits"]


def check_e2(records):
    for record in records:
        assert record["measured_bits"] == record["model_bits"]
    trend = [per_bit(r) for r in records]
    assert trend == sorted(trend, reverse=True)
    assert asymptote(records[-1]) < trend[-1] < 2.0 * asymptote(records[-1])


def run_baselines(records):
    """The two §1 comparators on the deployment and input of each record."""
    for record in records:
        shape = {key: record[key] for key in ("n", "t", "l_bits")}
        inputs = [(1 << record["l_bits"]) - 1] * record["n"]
        bitwise = BitwiseConsensus(**shape).run(inputs)
        fitzi_hirt = FitziHirtConsensus(kappa=E3_KAPPA, **shape).run(inputs)
        assert bitwise.error_free and fitzi_hirt.error_free
        record["bitwise_run_bits"] = bitwise.total_bits
        record["fitzi_hirt_run_bits"] = fitzi_hirt.total_bits


def check_e3(records):
    # Ours beats bitwise at every L, by a growing factor ...
    factors = [r["bitwise_run_bits"] / r["measured_bits"] for r in records]
    assert factors[0] > 1 and factors == sorted(factors)
    # ... and approaches Fitzi–Hirt from above: the premium for
    # error-freedom vanishes as L grows.
    premiums = [r["measured_bits"] / r["fitzi_hirt_run_bits"] for r in records]
    assert premiums == sorted(premiums, reverse=True) and premiums[-1] < 2.0


def eq2_over_asymptote(record) -> float:
    """Eq. (2) bits per value bit at L = n⁶, over the linear term."""
    n, t = record["n"], record["t"]
    large_l = float(n) ** 6
    return consensus_total_bits_optimal(
        n, t, large_l, record["b"]
    ) / large_l / asymptote(record)


def check_e4(records):
    for record in records:
        assert record["data_bits"] == record["onl_bits"]
    # L must be Ω(n⁶) before the O(n⁴√L + n⁶) overhead washes out; there
    # the total is a constant factor off the linear term, and the factor
    # does not grow with n (linearity, not a hidden higher power).
    factors = [eq2_over_asymptote(r) for r in records]
    assert max(factors) < 5.0 and max(factors) / min(factors) < 3.0


def fit_sweep(records):
    alpha = fit_model_factor(records)
    for record in records:
        record["fit_ratio"] = record["measured_bits"] / (
            alpha * record["model_bits"]
        )


def check_sweep(records):
    for record in records:
        assert record["data_bits"] == record["onl_bits"], record["n"]
        assert RATIO_BAND[0] <= record["fit_ratio"] <= RATIO_BAND[1], (
            "a power of n hides in the engine at n=%d" % record["n"]
        )


E1_SPEC = RunSpec(n=7, t=2, l_bits=48, d_bits=48)  # exactly one generation

SWEEP = Scenario(
    "O(nL)",
    "measured bits vs the O(nL) model, n = 4 ... 511 (L=2^12, kappa=128; "
    "band [%.1f, %.1f])" % RATIO_BAND,
    [
        RunSpec(n=n, l_bits=SWEEP_L_BITS)
        for n in (4, 7, 15, 31, 63, 127, 255, 511)
    ],
    [
        ("n", lambda r: r["n"]),
        ("t", lambda r: r["t"]),
        ("gens", lambda r: r["generations"]),
        ("measured", lambda r: r["measured_bits"]),
        ("O(nL)", lambda r: "%.3g" % r["onl_bits"]),
        ("ff model", lambda r: "%.3g" % r["model_bits"]),
        ("meas/fit", lambda r: "%.3f" % r["fit_ratio"]),
        ("fitzi-hirt", lambda r: "%.3g" % r["fitzi_hirt_bits"]),
        ("bitwise", lambda r: "%.3g" % r["bitwise_bits"]),
        ("linbft", lambda r: "%.3g" % r["linbft_bits"]),
    ],
    check_sweep,
    derive=fit_sweep,
)

SCENARIOS = [
    Scenario(
        "E1",
        "Eq. (1) per-stage bits (n=7, t=2, D=L=48, B=98)",
        [E1_SPEC, replace(E1_SPEC, attack="slow_bleed", faulty=(0,))],
        [("attack", lambda r: r["attack"])]
        + stage_columns("matching") + stage_columns("checking")
        + stage_columns("diagnosis"),
        check_e1,
    ),
    Scenario(
        "E2",
        "total bits with the paper-optimal D (n=7, t=2; asymptote %.0f "
        "bits/bit)" % leading_term_per_bit(7, 2),
        [RunSpec(n=7, t=2, l_bits=1 << e) for e in (10, 13, 16, 19, 21)],
        [
            ("L", lambda r: r["l_bits"]),
            ("D", lambda r: r["d_bits"]),
            ("gens", lambda r: r["generations"]),
            ("measured", lambda r: r["measured_bits"]),
            ("Eq.(1)", lambda r: "%d" % r["model_bits"]),
            ("bits/bit", lambda r: "%.2f" % per_bit(r)),
        ],
        check_e2,
    ),
    Scenario(
        "E3",
        "ours vs bitwise vs Fitzi-Hirt, run and modelled (n=7, t=2, "
        "kappa=%d)" % E3_KAPPA,
        [RunSpec(n=7, t=2, l_bits=1 << e) for e in (10, 13, 16)],
        [
            ("L", lambda r: r["l_bits"]),
            ("ours", lambda r: r["measured_bits"]),
            ("bitwise", lambda r: r["bitwise_run_bits"]),
            ("L x B", lambda r: r["bitwise_bits"]),
            ("fitzi-hirt", lambda r: r["fitzi_hirt_run_bits"]),
            ("FH model", lambda r: "%d" % r["fitzi_hirt_bits"]),
            ("bitwise/ours", lambda r: "%.1f" % (
                r["bitwise_run_bits"] / r["measured_bits"])),
            ("ours/fh", lambda r: "%.2f" % (
                r["measured_bits"] / r["fitzi_hirt_run_bits"])),
        ],
        check_e3,
        derive=run_baselines,
        kappa=E3_KAPPA,
    ),
    Scenario(
        "E4",
        "per-bit cost vs n (measured at L=2^15; Eq. (2) at L=n^6; "
        "asymptote n(n-1)/(n-2t) ~ 3(n-1))",
        [RunSpec(n=n, l_bits=1 << 15) for n in (4, 7, 10, 13)],
        [
            ("n", lambda r: r["n"]),
            ("t", lambda r: r["t"]),
            ("data bits/bit", lambda r: "%.2f" % (
                r["data_bits"] / (r["generations"] * r["d_bits"]))),
            ("asymptote", lambda r: "%.2f" % asymptote(r)),
            ("total bits/bit", lambda r: "%.2f" % per_bit(r)),
            ("Eq2@n^6/asymptote", lambda r: "%.2f" % eq2_over_asymptote(r)),
        ],
        check_e4,
    ),
    SWEEP,
]


def run_scenario(scenario: Scenario) -> list:
    records = measured_complexity_sweep(scenario.specs, kappa=scenario.kappa)
    if scenario.derive is not None:
        scenario.derive(records)
    print_table(
        "%s  %s" % (scenario.key, scenario.title),
        [header for header, _ in scenario.columns],
        [[cell(record) for _, cell in scenario.columns] for record in records],
    )
    scenario.check(records)
    return records


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.key)
def test_scenario(scenario):
    run_scenario(scenario)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_complexity.json",
        help="where to write the O(nL) sweep's JSON report",
    )
    args = parser.parse_args()
    by_key = {s.key: run_scenario(s) for s in SCENARIOS}
    records = by_key[SWEEP.key]
    for title, y, marker in (
        ("measured total bits vs n (log-log, L=%d)" % SWEEP_L_BITS,
         lambda r: r["measured_bits"], "*"),
        ("flag overhead: measured / O(nL) data term (shrinks as L grows; "
         "B-driven at fixed L)",
         lambda r: r["measured_bits"] / r["onl_bits"], "o"),
    ):
        print()
        print(ascii_plot(
            [(r["n"], y(r)) for r in records],
            logx=True, logy=True, title=title, marker=marker,
        ))
    report = {
        "benchmark": "bench_complexity",
        "l_bits": SWEEP_L_BITS,
        "kappa": SWEEP.kappa,
        "fit_alpha": fit_model_factor(records),
        "ratio_band": list(RATIO_BAND),
        "results": records,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print("\nwrote %s" % args.output)


if __name__ == "__main__":
    main()
