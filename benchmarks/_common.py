"""What every experiment prints: a titled fixed-width table.

The paper has no empirical tables — its evaluation is the set of
quantitative claims in §3.4, §1 and §4 — so each ``bench_*.py``
regenerates one experiment of the index in ``docs/BENCHMARKS.md``,
prints the rows it reproduces and asserts the claim on them.  The
numbers are deterministic bit counts; time is ``perf/``'s business.
"""

from repro.analysis import format_table


def print_table(title, header, rows):
    print("\n### %s\n%s" % (title, format_table(header, rows)))
