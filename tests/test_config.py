"""ConsensusConfig validation and derivation rules."""

import numpy as np
import pytest

from repro.core.config import BACKENDS, ConsensusConfig
from repro.service import RunSpec


class TestCreate:
    def test_derives_max_t(self):
        assert ConsensusConfig.create(n=7, l_bits=64).t == 2
        assert ConsensusConfig.create(n=10, l_bits=64).t == 3
        assert ConsensusConfig.create(n=4, l_bits=64).t == 1

    def test_derives_feasible_d(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=10**6)
        assert config.d_bits % config.data_symbols == 0
        assert config.symbol_bits == config.d_bits // config.data_symbols

    def test_explicit_d(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=100, d_bits=24)
        assert config.d_bits == 24 and config.symbol_bits == 8

    def test_generations_ceiling(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=100, d_bits=24)
        assert config.generations == 5
        assert config.generations * config.d_bits == 120

    def test_data_symbols(self):
        assert ConsensusConfig.create(n=7, t=2, l_bits=8).data_symbols == 3
        assert ConsensusConfig.create(n=10, t=3, l_bits=8).data_symbols == 4


class TestValidation:
    def test_t_at_least_n_over_3_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=6, t=2, l_bits=8)
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=3, t=1, l_bits=8)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=-1, l_bits=8)

    def test_zero_l_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=2, l_bits=0)

    def test_d_not_multiple_of_k_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=2, l_bits=64, d_bits=10)

    def test_symbol_too_narrow_rejected(self):
        # n=7 needs c >= 3; d_bits = 6 gives c = 2.
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=2, l_bits=64, d_bits=6)

    def test_symbol_without_a_field_width_rejected(self):
        # 17 is prime, and wider than any field the codes build.
        with pytest.raises(
            ValueError,
            match=r"symbol width 17 has no field-width divisor in \[7, 16\] "
            "for n=127",
        ):
            ConsensusConfig.create(n=127, l_bits=4096, d_bits=17 * 43)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=2, l_bits=8, backend="magic")

    def test_t_ge_n3_needs_flag_and_probabilistic_backend(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=3, l_bits=8)
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=3, l_bits=8, allow_t_ge_n3=True,
                                   backend="ideal")
        config = ConsensusConfig.create(
            n=7, t=3, l_bits=8, allow_t_ge_n3=True, backend="dolev_strong"
        )
        assert config.t == 3

    def test_default_value_must_fit(self):
        with pytest.raises(ValueError):
            ConsensusConfig.create(n=7, t=2, l_bits=4, default_value=16)

    def test_inconsistent_symbol_bits_rejected(self):
        with pytest.raises(ValueError):
            ConsensusConfig(n=7, t=2, l_bits=64, d_bits=24, symbol_bits=4)


#: A valid n = 7 deployment, field by field.
_GOOD = {"n": 7, "l_bits": 64, "t": 2, "d_bits": 24, "kappa": 16,
         "coin_seed": 0, "default_value": 5}
#: Each integer field with each loose type: a bool, a float, a numpy int.
_LOOSE = [
    (field, bad) for field in _GOOD
    for bad in (True, float(_GOOD[field]), np.int64(_GOOD[field]))
]


def _loose_id(value):
    return value if isinstance(value, str) else type(value).__name__


class TestExactIntFields:
    """A config reads its integers by the exact-int rule, as inputs are
    read: each field with a bool, a float or a numpy integer is refused
    with a ValueError that names it, where the config or the spec is
    built."""

    @pytest.mark.parametrize(
        "field, bad", _LOOSE, ids=_loose_id
    )
    def test_create_refuses(self, field, bad):
        with pytest.raises(ValueError, match="%s.*is not an int" % field):
            ConsensusConfig.create(**dict(_GOOD, **{field: bad}))

    @pytest.mark.parametrize(
        "field, bad", _LOOSE + [("symbol_bits", 8.0)],
        ids=_loose_id,
    )
    def test_constructor_refuses(self, field, bad):
        fields = dict(_GOOD, symbol_bits=8)
        with pytest.raises(ValueError, match="%s.*is not an int" % field):
            ConsensusConfig(**dict(fields, **{field: bad}))

    @pytest.mark.parametrize(
        "field, bad",
        [(field, bad) for field, bad in _LOOSE if field != "coin_seed"]
        + [("seed", bad) for bad in (True, 0.0, np.int64(0))],
        ids=_loose_id,
    )
    def test_run_spec_refuses(self, field, bad):
        # A spec has no coin_seed field; its attack seed is its own.
        fields = dict(_GOOD, **{field: bad})
        del fields["coin_seed"]
        with pytest.raises(ValueError, match="%s.*is not an int" % field):
            RunSpec(**fields)

    def test_exact_ints_still_build(self):
        config = ConsensusConfig.create(**_GOOD)
        assert (config.t, config.default_value) == (2, 5)
        fields = dict(_GOOD)
        del fields["coin_seed"]
        assert RunSpec(**fields).make_config() == ConsensusConfig.create(
            **fields
        )


class TestFactories:
    def test_codes_are_built_where_they_are_kept(self, monkeypatch):
        """A config checks its symbol width by arithmetic and builds no
        code; a service builds the one it keeps, from a config or a
        spec (every code, interleaved or not, builds one RS code)."""
        from repro.coding.reed_solomon import ReedSolomonCode
        from repro.service import ConsensusService

        builds = []
        original = ReedSolomonCode.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ReedSolomonCode, "__init__", counting)
        for l_bits in (64, 1 << 16):  # plain and interleaved symbols
            spec = RunSpec(n=7, l_bits=l_bits)
            config = ConsensusConfig.create(n=7, l_bits=l_bits)
            assert spec.make_config() == config
            assert builds == []
            ConsensusService(config)
            assert len(builds) == 1
            ConsensusService(spec)
            assert len(builds) == 2
            builds.clear()

    def test_make_code_dimensions(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=64)
        code = config.make_code()
        assert code.n == 7 and code.k == 3
        assert code.symbol_bits == config.symbol_bits

    def test_make_code_interleaved_for_wide_symbols(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=64, d_bits=3 * 48)
        code = config.make_code()
        assert code.symbol_bits == 48

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_make_backend_all_names(self, name):
        config = ConsensusConfig.create(n=7, t=2, l_bits=8, backend=name)
        from repro.network.metrics import BitMeter
        from repro.processors import Adversary

        backend = config.make_backend(BitMeter(), Adversary(), None)
        assert backend.name == name

    def test_frozen(self):
        config = ConsensusConfig.create(n=7, t=2, l_bits=8)
        with pytest.raises(Exception):
            config.n = 8
