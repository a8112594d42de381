"""E6 — error-freedom: our algorithm never errs; Fitzi-Hirt errs on hash
collisions.

Paper claim (§1, abstract): Fitzi-Hirt's "probability of error is lower
bounded by the collision probability of the hash function", while the
proposed algorithm "is guaranteed to be always error-free".

Protocol of the experiment: for each hash key (= key_seed), craft two
values that collide under the Fitzi-Hirt universal hash for that key and
split the honest processors across them.  Fitzi-Hirt concludes "all equal"
and the honest processors commit different values — an error.  Algorithm 1
on the *same inputs* detects the difference and decides consistently.  We
also run randomly-differing inputs, where Fitzi-Hirt only errs at its
(d-1)/2^κ collision floor.  An Algorithm 1 error is a run that breaks
any claim of Theorem 1 (:mod:`repro.core.invariants`).
"""

from _common import print_table
from repro import ConsensusConfig, MultiValuedConsensus
from repro.baselines import FitziHirtConsensus, PolynomialHash, collision_for
from repro.core import invariants

N, T, L_BITS, KAPPA = 7, 2, 64, 8
TRIALS = 25


def run_attack_trials():
    fh_errors = 0
    ours_errors = 0
    family = PolynomialHash(L_BITS, KAPPA)
    base = 0x0123456789ABCDEF
    for seed in range(TRIALS):
        fh = FitziHirtConsensus(n=N, t=T, l_bits=L_BITS, kappa=KAPPA,
                                key_seed=seed)
        key = fh.draw_key()
        forged = collision_for(family, base, key)
        inputs = [base] * 4 + [forged] * 3

        fh_result = fh.run(inputs)
        if not fh_result.error_free:
            fh_errors += 1

        config = ConsensusConfig.create(n=N, t=T, l_bits=L_BITS)
        ours = MultiValuedConsensus(config).run(inputs)
        if invariants.violations(config, inputs, ours):
            ours_errors += 1
    return fh_errors, ours_errors


def run_random_trials():
    fh_errors = 0
    ours_errors = 0
    for seed in range(TRIALS):
        inputs = [(seed * 7919 + pid * 104729) % (1 << L_BITS)
                  for pid in range(N)]
        fh = FitziHirtConsensus(n=N, t=T, l_bits=L_BITS, kappa=KAPPA,
                                key_seed=seed)
        if not fh.run(inputs).error_free:
            fh_errors += 1
        config = ConsensusConfig.create(n=N, t=T, l_bits=L_BITS)
        ours = MultiValuedConsensus(config).run(inputs)
        if invariants.violations(config, inputs, ours):
            ours_errors += 1
    return fh_errors, ours_errors


def test_e6_error_freedom():
    fh_attack, ours_attack = run_attack_trials()
    fh_random, ours_random = run_random_trials()
    family = PolynomialHash(L_BITS, KAPPA)
    print_table(
        "E6  errors over %d trials (n=%d, t=%d, L=%d, kappa=%d; FH "
        "collision floor >= %.4f per adverse pair)"
        % (TRIALS, N, T, L_BITS, KAPPA,
           family.collision_probability_bound()),
        ("scenario", "fitzi-hirt errors", "algorithm-1 errors"),
        [
            ("crafted collision inputs", "%d/%d" % (fh_attack, TRIALS),
             "%d/%d" % (ours_attack, TRIALS)),
            ("random differing inputs", "%d/%d" % (fh_random, TRIALS),
             "%d/%d" % (ours_random, TRIALS)),
        ],
    )
    # Fitzi-Hirt errs on every crafted collision; Algorithm 1 never.
    assert fh_attack == TRIALS
    assert ours_attack == 0
    assert ours_random == 0
