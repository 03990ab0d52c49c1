"""Tests for the repro-sim command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.policy == "ghrp"
        assert args.category == "short-server"

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "nope"])

    @pytest.mark.parametrize("command", ["timing", "profile"])
    def test_removed_subcommands_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


class TestCommands:
    def test_simulate_synthetic(self, capsys):
        code = main(
            [
                "simulate",
                "--category", "short-mobile",
                "--seed", "1",
                "--trace-scale", "0.03",
                "--policy", "lru",
                "--icache-kb", "8",
                "--warmup", "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "icache_mpki" in out

    def test_compare(self, capsys):
        code = main(
            [
                "compare",
                "--category", "short-mobile",
                "--seed", "1",
                "--trace-scale", "0.03",
                "--policies", "lru", "random",
                "--icache-kb", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lru" in out and "random" in out and "vs lru" in out

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "GHRP storage" in out
        assert "SDBP storage" in out

    def test_characterize(self, capsys):
        code = main(
            [
                "characterize",
                "--category", "short-mobile",
                "--seed", "1",
                "--trace-scale", "0.03",
                "--branches", "1000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "reuse distances" in out
        assert "dead-time fraction" in out

    def test_gen_trace_gzip(self, tmp_path, capsys):
        trace_path = tmp_path / "w.trace.gz"
        code = main(
            [
                "gen-trace",
                "--category", "short-mobile",
                "--seed", "2",
                "--trace-scale", "0.03",
                str(trace_path),
            ]
        )
        assert code == 0
        assert trace_path.exists()
        # gzip magic bytes
        assert trace_path.read_bytes()[:2] == b"\x1f\x8b"

    def test_gen_trace_and_simulate_it(self, tmp_path, capsys):
        trace_path = tmp_path / "w.trace"
        code = main(
            [
                "gen-trace",
                "--category", "short-mobile",
                "--seed", "2",
                "--trace-scale", "0.03",
                str(trace_path),
            ]
        )
        assert code == 0
        assert trace_path.exists()
        code = main(
            [
                "simulate",
                "--trace", str(trace_path),
                "--policy", "srrip",
                "--warmup", "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "icache_mpki" in out
