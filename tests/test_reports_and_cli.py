"""Reports, sweeps and the CLI driver."""

from pathlib import Path

import pytest

from repro import ConsensusConfig, MultiValuedConsensus
from repro.analysis.report import (
    consensus_report,
    format_table,
    generation_rows,
    stage_rows,
)
from repro.analysis.sweeps import SweepPoint, sweep_l, sweep_n
from repro.cli import build_parser, main
from repro.processors import SlowBleedAdversary

DATA = Path(__file__).parent / "data"


def run(n=7, t=2, l_bits=96, adversary=None, d_bits=24):
    config = ConsensusConfig.create(n=n, t=t, l_bits=l_bits, d_bits=d_bits)
    result = MultiValuedConsensus(config, adversary=adversary).run(
        [0x5A] * n
    )
    return result, config


class TestFormatTable:
    def test_alignment(self):
        text = format_table(("a", "bbb"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bbb")
        assert all(len(line) == len(lines[0]) for line in lines[1:2])

    def test_empty_rows(self):
        text = format_table(("x",), [])
        assert "x" in text


class TestConsensusReport:
    def test_report_contains_key_facts(self):
        result, config = run()
        text = consensus_report(result, config)
        assert "consistent : True" in text
        assert "value      : 0x5a" in text
        assert "decided_checking" in text
        assert "matching" in text

    def test_generation_rows_shape(self):
        result, _ = run()
        rows = generation_rows(result)
        assert len(rows) == len(result.generation_results)
        assert all(len(row) == 5 for row in rows)

    def test_stage_rows_bound_measured(self):
        adversary = SlowBleedAdversary(faulty=[0])
        result, config = run(adversary=adversary)
        rows = {name: (measured, bound)
                for name, measured, bound in stage_rows(result, config)}
        # Eq. (1) is an upper bound on every stage's measured bits.
        for name, (measured, bound) in rows.items():
            assert measured <= bound, name
        assert rows["diagnosis"][0] > 0

    def test_report_without_config(self):
        result, _ = run()
        text = consensus_report(result)
        assert "Eq. (1)" not in text


class TestSweeps:
    def test_sweep_l_points(self):
        points = sweep_l(7, 2, [256, 1024])
        assert [point.l_bits for point in points] == [256, 1024]
        for point in points:
            assert isinstance(point, SweepPoint)
            assert point.total_bits == point.analytic_bits
            assert point.ratio_to_asymptote > 1

    def test_sweep_l_per_bit_decreases(self):
        points = sweep_l(7, 2, [256, 4096, 65536])
        per_bit = [point.per_bit for point in points]
        assert per_bit == sorted(per_bit, reverse=True)

    def test_sweep_n_uses_max_t(self):
        points = sweep_n([4, 7], l_bits=512)
        assert [(point.n, point.t) for point in points] == [(4, 1), (7, 2)]

    def test_sweep_rows_are_pinned(self):
        # Each point runs its declarative instance on the service's keyed
        # context; the rows are those the live-adversary points gave.
        rows = [
            (p.n, p.t, p.l_bits, p.d_bits, p.generations, p.total_bits)
            for p in sweep_l(7, 2, [256, 4096]) + sweep_n([4, 10], 512)
        ]
        assert rows == [
            (7, 2, 256, 33, 8, 38192), (7, 2, 4096, 135, 31, 192262),
            (4, 1, 512, 48, 11, 7744), (10, 3, 512, 48, 11, 216480),
        ]


class TestCli:
    def test_consensus_exit_zero(self, capsys):
        code = main([
            "consensus", "--n", "7", "--t", "2", "--l-bits", "64",
            "--value", "0x1234",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent : True" in out

    @pytest.mark.parametrize("backend", ["mostefaoui", "dolev_strong"])
    def test_consensus_on_every_backend(self, capsys, backend):
        # The --backend choices are the config's BACKENDS registry.
        code = main([
            "consensus", "--n", "4", "--l-bits", "16", "--value", "0x12",
            "--backend", backend,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent : True" in out

    def test_consensus_with_attack(self, capsys):
        code = main([
            "consensus", "--n", "7", "--t", "2", "--l-bits", "96",
            "--attack", "slow-bleed",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "decided_diagnosis" in out

    def test_broadcast(self, capsys):
        code = main([
            "broadcast", "--n", "7", "--l-bits", "128", "--source", "2",
            "--value", "0xFF",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered  : True" in out

    def test_baseline_fitzi_hirt(self, capsys):
        code = main([
            "baseline", "--which", "fitzi-hirt", "--n", "7",
            "--l-bits", "64", "--value", "3",
        ])
        assert code == 0
        assert "erred      : False" in capsys.readouterr().out

    def test_baseline_bitwise(self, capsys):
        code = main([
            "baseline", "--which", "bitwise", "--n", "7",
            "--l-bits", "16", "--value", "3",
        ])
        assert code == 0

    def test_analyze(self, capsys):
        code = main(["analyze", "--n", "7", "--t", "2",
                     "--l-bits", "1048576"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal D" in out
        assert "crossover" in out

    def test_sweep(self, capsys):
        code = main(["sweep", "--n", "4", "--t", "1", "--l-min", "8",
                     "--l-max", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bits/bit" in out

    def test_oversized_value_rejected(self):
        with pytest.raises(SystemExit):
            main(["consensus", "--n", "7", "--l-bits", "4",
                  "--value", "0xFFFF"])

    @pytest.mark.parametrize("argument, message", [
        (["--value", "abc"], "argument --value: not an int literal: 'abc'"),
        (["--faulty", "x"], "argument --faulty: not comma-separated pids"),
        (["--value", "5", "--faulty", "9"],
         "faulty pid 9 is not a processor of an n=4 deployment"),
    ], ids=["value_not_int", "faulty_not_int", "faulty_out_of_range"])
    def test_bad_argument_is_a_usage_error(self, capsys, argument, message):
        with pytest.raises(SystemExit) as info:
            main(["consensus", "--n", "4", "--l-bits", "16", *argument])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("action", ["verify", "replay", "prove"])
    @pytest.mark.parametrize("case, message", [
        ("missing", "No such file or directory"),
        ("not_json", "not JSON (Expecting ',' delimiter"),
        ("format_3", "transcript format 3, expected format 4"),
    ])
    def test_unloadable_transcript_is_a_usage_error(
        self, capsys, tmp_path, action, case, message
    ):
        """A transcript that is missing, not JSON or of another format
        is refused in one line naming the file, never a traceback."""
        path = {
            "missing": tmp_path / "missing.json",
            "not_json": tmp_path / "not_json.json",
            "format_3": DATA / "transcript_v3_n4_crash.json",
        }[case]
        if case == "not_json":
            path.write_text('{"format": 4\n"entries": []}')
        with pytest.raises(SystemExit) as info:
            main(["audit", action, "--transcript", str(path)])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("repro-sim: error: cannot load %s: " % path)
        assert message in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])
