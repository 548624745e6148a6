"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.bits == 256
        assert not args.proof

    def test_keygen_flags(self):
        args = build_parser().parse_args(
            ["keygen", "-n", "5", "--bits", "128", "--dealerless"]
        )
        assert args.n == 5 and args.bits == 128 and args.dealerless

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--shards", "2"],
            ["serve", "--drain-timeout", "5"],
            ["health", "--kill-shard", "0"],
            ["scenario", "--shards", "2"],
        ],
    )
    def test_removed_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCommands:
    def test_demo_runs(self, capsys):
        assert main(["demo", "--bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "joint write granted: True" in out

    def test_demo_with_proof(self, capsys):
        assert main(["demo", "--bits", "256", "--proof"]) == 0
        assert "[A38]" in capsys.readouterr().out

    def test_keygen_dealer(self, capsys):
        assert main(["keygen", "-n", "3", "--bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "verifies=True" in out

    def test_liability(self, capsys):
        assert main(["liability", "--domains", "2", "3", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "CaseII" in out

    def test_availability(self, capsys):
        assert main(["availability", "-n", "5", "-m", "3"]) == 0
        out = capsys.readouterr().out
        assert "3-of-5" in out

    def test_dynamics(self, capsys):
        assert main(["dynamics", "--certs", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "revoked" in out

    def test_explain_renders_full_span_path(self, capsys):
        assert main(["explain", "--bits", "256"]) == 0
        out = capsys.readouterr().out
        assert "decision: GRANTED" in out
        # The full decision path, in order.
        for span in ("admission", "queue_wait", "epoch_pin", "derivation",
                     "audit_append"):
            assert span in out
        assert out.index("admission") < out.index("derivation")
        assert "axioms=" in out and "A38" in out
        assert "proof tree:" in out
        assert "trace_id=ServiceP-00000000" in out
        assert "verified" in out

    def test_explain_json(self, capsys):
        import json

        assert main(["explain", "--bits", "256", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trace_id"] == "ServiceP-00000000"
        names = [c["name"] for c in data["children"]]
        assert names == [
            "admission", "queue_wait", "epoch_pin", "derivation",
            "audit_append",
        ]

    def test_metrics_prints_valid_snapshot(self, capsys):
        import json

        from repro.obs.metrics import SCHEMA, validate_snapshot

        assert main(
            ["metrics", "--requests", "20", "--tracing"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        validate_snapshot(snapshot)
        assert snapshot["schema"] == SCHEMA
        assert snapshot["counters"]["service.submitted"] == 20
        assert "service.request_latency_s" in snapshot["histograms"]

    def test_health_ready_service_exits_zero(self, capsys):
        assert main(
            ["health", "--requests", "20", "--bits", "256"]
        ) == 0
        out = capsys.readouterr().out
        assert "live=True" in out
        assert "ready=True" in out
        assert "stranded=0" in out

    def test_health_chaos_survives_and_reports(self, capsys):
        assert main(
            [
                "health", "--requests", "40",
                "--bits", "256", "--chaos-raise-every", "8",
                "--kills", "1", "--kill-after", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "crashes=1" in out
        assert "restarts=1" in out
        assert "stranded=0" in out

    def test_health_json(self, capsys):
        import json

        assert main(
            ["health", "--requests", "20", "--bits", "256", "--json"]
        ) == 0
        probe = json.loads(capsys.readouterr().out)
        assert probe["live"] is True
        assert probe["ready"] is True
        assert probe["breaker"] == "closed"
        assert probe["queue_limit"] == 256
