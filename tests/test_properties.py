"""Property-based tests: the paper's guarantees under randomised adversaries.

Whatever a (seeded) chaos adversary does with its t processors, and
whatever inputs the honest processors hold, every run must satisfy:

* Termination — structurally guaranteed (run() returns);
* Consistency — all fault-free outputs equal;
* Validity — equal honest inputs are decided verbatim;
* Diagnosis soundness — every removed edge touches a faulty processor,
  fault-free processors keep trusting each other, no fault-free processor
  is ever isolated;
* Theorem 1 — at most t(t+1) diagnosis stages.

``run_case`` holds every consensus case to all of them at once
(:mod:`repro.core.invariants`); the graph soundness test also reads the
diagnosis graph itself.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConsensusConfig, MultiValuedConsensus
from repro.coding.interleaved import InterleavedCode
from repro.coding.reed_solomon import ReedSolomonCode, min_symbol_bits
from repro.core import invariants
from repro.processors import RandomAdversary


def consensus_cases():
    return st.tuples(
        st.sampled_from([(4, 1), (7, 2)]),
        st.integers(min_value=0, max_value=2**24 - 1),  # honest value
        st.integers(min_value=0, max_value=10**6),      # adversary seed
        st.floats(min_value=0.1, max_value=1.0),        # deviation rate
    )


def run_case(n, t, value, seed, rate, equal_inputs=True, backend="ideal"):
    config = ConsensusConfig.create(n=n, t=t, l_bits=24, backend=backend)
    faulty = list(range(n - t, n))
    adversary = RandomAdversary(faulty=faulty, seed=seed, rate=rate)
    protocol = MultiValuedConsensus(config, adversary=adversary)
    if equal_inputs:
        inputs = [value] * n
    else:
        inputs = [(value + pid) % (1 << 24) for pid in range(n)]
    # Every case is held to every claim of Theorem 1.
    return protocol, invariants.check(config, inputs, protocol.run(inputs))


class TestConsensusProperties:
    @given(consensus_cases())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_error_free_with_equal_inputs(self, case):
        (n, t), value, seed, rate = case
        _, result = run_case(n, t, value, seed, rate)
        assert result.value == value

    @given(consensus_cases())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_consistency_with_mixed_inputs(self, case):
        (n, t), value, seed, rate = case
        run_case(n, t, value, seed, rate, equal_inputs=False)

    @given(consensus_cases())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_diagnosis_graph_soundness(self, case):
        (n, t), value, seed, rate = case
        protocol, result = run_case(n, t, value, seed, rate)
        faulty = set(range(n - t, n))
        # Every removed edge touches a faulty processor.
        for a, b in protocol.graph.removed_edges():
            assert a in faulty or b in faulty, (a, b)
        # Fault-free processors keep trusting each other...
        honest = [pid for pid in range(n) if pid not in faulty]
        for i in honest:
            for j in honest:
                assert protocol.graph.trusts(i, j)
        # ...and are never isolated.
        assert not (protocol.graph.isolated & set(honest))

    @given(st.integers(0, 10**6), st.floats(0.3, 1.0))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_phase_king_backend_error_free(self, seed, rate):
        _, result = run_case(7, 2, 0x5A5A5A, seed, rate,
                             backend="phase_king")
        assert result.value == 0x5A5A5A


class TestBroadcastProperties:
    @given(
        st.integers(0, 2**24 - 1),
        st.integers(0, 10**6),
        st.sampled_from([0, 3, 6]),  # source pid (0 will be faulty)
    )
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mv_broadcast_agreement(self, value, seed, source):
        from repro.core import MultiValuedBroadcast

        adversary = RandomAdversary(faulty=[0, 1], seed=seed, rate=0.7)
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=24,
                                         adversary=adversary)
        result = broadcast.run(source=source, value=value)
        assert result.consistent, result.decisions
        if source not in (0, 1):
            assert result.value == value

    @given(st.integers(0, 2**24 - 1), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mv_broadcast_graph_soundness(self, value, seed):
        from repro.core import MultiValuedBroadcast

        adversary = RandomAdversary(faulty=[2, 5], seed=seed, rate=0.7)
        broadcast = MultiValuedBroadcast(n=7, t=2, l_bits=24,
                                         adversary=adversary)
        broadcast.run(source=0, value=value)
        honest = [0, 1, 3, 4, 6]
        for a, b in broadcast.graph.removed_edges():
            assert a in (2, 5) or b in (2, 5)
        for i in honest:
            for j in honest:
                assert broadcast.graph.trusts(i, j)


class TestValueRoundtripProperties:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_parts_of_value_of_inverse(self, data):
        l_bits = data.draw(st.integers(1, 300))
        config = ConsensusConfig.create(n=7, t=2, l_bits=l_bits)
        protocol = MultiValuedConsensus(config)
        value = data.draw(st.integers(0, (1 << l_bits) - 1))
        assert protocol.value_of(protocol.parts_of(value)) == value


#: The paper's C_2t at n in {4, 7, 10}: plain, and interleaved (three
#: rows), as the engines build them for narrow and wide symbols.
CODES = [
    code
    for n, t in ((4, 1), (7, 2), (10, 3))
    for code in (
        ReedSolomonCode(n, n - 2 * t),
        InterleavedCode(n, n - 2 * t, min_symbol_bits(n), 3),
    )
]


class TestCodewordClassProperty:
    """What lets line 2(c) decide a row that equals some processor's
    codeword at every ``P_match`` position without decoding it: a
    codeword restricted to any ``|S| >= k`` positions is consistent,
    and decodes to that codeword's first ``k`` symbols — its data, the
    code being systematic.  The codeword is taken from the whole-run
    encode the engines read (``encode_generations``), which must equal
    ``encode``."""

    @pytest.mark.parametrize("code", CODES, ids=repr)
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_restriction_decodes_to_the_codewords_data(self, code, data):
        part = data.draw(st.lists(
            st.integers(0, code.symbol_limit - 1),
            min_size=code.k, max_size=code.k,
        ))
        subset = data.draw(
            st.sets(st.integers(0, code.n - 1), min_size=code.k)
        )
        [word] = code.encode_generations([part])
        assert word == code.encode(part)
        restricted = {p: word[p] for p in subset}
        assert code.is_consistent(restricted)
        assert code.decode_subset(restricted) == word[:code.k] == part


class TestConsistentRowsProperty:
    """``consistent_rows`` is :meth:`is_consistent` batched: over any
    sorted positions (fewer than ``k`` included) and any rows —
    codewords restricted to them, some with symbols overwritten — entry
    ``i`` is ``is_consistent`` of row ``i`` at those positions.  Line 2
    reads every outsider's Detected flag through it."""

    @pytest.mark.parametrize("code", CODES, ids=repr)
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_equals_is_consistent_row_by_row(self, code, data):
        symbol = st.integers(0, code.symbol_limit - 1)
        positions = sorted(data.draw(
            st.sets(st.integers(0, code.n - 1), min_size=1)
        ))
        parts = data.draw(st.lists(
            st.lists(symbol, min_size=code.k, max_size=code.k),
            min_size=0, max_size=6,
        ))
        rows = []
        for word in code.encode_generations(parts):
            row = [word[p] for p in positions]
            for slot in data.draw(st.sets(st.integers(0, len(row) - 1))):
                row[slot] = data.draw(symbol)
            rows.append(row)
        expected = [
            code.is_consistent(dict(zip(positions, row))) for row in rows
        ]
        assert code.consistent_rows(positions, rows).tolist() == expected
