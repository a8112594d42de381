"""E8 — §4: tolerating ``t >= n/3`` with a probabilistic 1-bit broadcast.

Paper claim: substituting Broadcast_Single_Bit with a probabilistically
correct broadcast tolerates the substitute's fault bound, errs only when
the substitute errs, and changes only the sub-linear-in-L complexity term.

We run n=7, t=3 (impossible error-free) over Dolev-Strong with simulated
pseudo-signatures, sweeping the security parameter κ.  What §4 claims is
a rate, so that is what is asserted: forgeries succeed at most at the
substitute's rate ``2^-κ`` (within ``SLACK_SIGMAS`` binomial standard
deviations plus one — never "none in these twelve seeds"), never more
often at a larger κ, a run errs only when a broadcast disagreed, and the
data path costs what the error-free algorithm's does at every κ.
"""

import math

from _common import print_table
from repro import ConsensusConfig, MultiValuedConsensus
from repro.analysis import leading_term_per_bit
from repro.broadcast_bit import BernoulliForgingAdversary

N, T, L_BITS = 7, 3, 64
RUNS = 12
KAPPAS = [2, 4, 8, 16]
#: Successes allowed above ``attempts · 2^-κ``: this many standard
#: deviations of the binomial count, plus one whole forgery so that the
#: bound stays meaningful where the expectation is far below one.
SLACK_SIGMAS = 4.0


def forgery_bound(attempts: int, kappa: int) -> float:
    expected = attempts * 2.0 ** -kappa
    return expected + SLACK_SIGMAS * math.sqrt(expected) + 1


def run_kappa_sweep():
    rows = []
    for kappa in KAPPAS:
        errors = attempts = forgeries = disagreements = 0
        for seed in range(RUNS):
            config = ConsensusConfig.create(
                n=N, t=T, l_bits=L_BITS, backend="dolev_strong",
                allow_t_ge_n3=True, kappa=kappa,
            )
            adversary = BernoulliForgingAdversary(
                faulty=[4, 5, 6], kappa=kappa, seed=seed
            )
            protocol = MultiValuedConsensus(config, adversary=adversary)
            result = protocol.run([0xFACE] * N)
            if not (result.consistent and result.valid):
                errors += 1
                # The paper: errors can only come from broadcast failures.
                assert protocol.backend.stats.disagreements > 0
            attempts += adversary.forgeries_attempted
            forgeries += adversary.forgeries_succeeded
            disagreements += protocol.backend.stats.disagreements
            # The data path is independent of the broadcast substitution:
            # n(n-1)/(n-2t) bits per (padded) value bit, in every run.
            assert sum(
                bits
                for tag, bits in result.meter.bits_by_tag.items()
                if tag.endswith("matching.symbols")
            ) == leading_term_per_bit(N, T) * (
                config.generations * config.d_bits
            )
        rows.append((kappa, errors, attempts, forgeries, disagreements))
    return rows


def test_e8_beyond_n3():
    rows = run_kappa_sweep()
    print_table(
        "E8  t=3 >= n/3=7/3 via Dolev-Strong pseudo-signatures "
        "(%d runs per kappa)" % RUNS,
        ("kappa", "runs erred", "attempts", "forgeries", "expected",
         "bound", "bsb disagreements"),
        [
            (kappa, "%d/%d" % (errors, RUNS), attempts, forgeries,
             "%.2f" % (attempts * 2.0 ** -kappa),
             "%.2f" % forgery_bound(attempts, kappa), disagreements)
            for kappa, errors, attempts, forgeries, disagreements in rows
        ],
    )
    for kappa, _, attempts, forgeries, _ in rows:
        assert forgeries <= forgery_bound(attempts, kappa)
    # Forgeries (and hence error opportunities) thin out as kappa grows.
    succeeded = [row[3] for row in rows]
    assert succeeded == sorted(succeeded, reverse=True)
