"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_topology(capsys):
    assert main(["topology"]) == 0
    out = capsys.readouterr().out
    assert "hosts: 32" in out
    assert "tor0.0.up" in out


def test_latency_best_effort(capsys):
    assert main(["latency", "--processes", "8", "--count", "10"]) == 0
    out = capsys.readouterr().out
    assert "best-effort 1Pipe" in out
    assert "mean" in out


def test_latency_reliable(capsys):
    assert main(
        ["latency", "--processes", "4", "--count", "5", "--reliable"]
    ) == 0
    assert "reliable 1Pipe" in capsys.readouterr().out


def test_latency_p95_uses_ceil_rank(monkeypatch, capsys):
    """Regression: the p95 line once used ``sorted(x)[int(n*0.95)-1]``,
    a truncating rank that read ~p85 on small sample counts.  The CLI
    now delegates to LatencyProbe's ceil-rank percentile."""
    from repro.bench import harness

    class CannedProbe(harness.LatencyProbe):
        def __init__(self, sim):
            super().__init__(sim)
            self.latencies = list(range(1_000, 11_000, 1_000))

        def mark_sent(self, tag):
            pass

        def mark_delivered(self, tag):
            pass

    monkeypatch.setattr(harness, "LatencyProbe", CannedProbe)
    assert main(["latency", "--processes", "4", "--count", "5"]) == 0
    out = capsys.readouterr().out
    # Ceil rank over 10 samples: p95 is the max (10 us).  The old
    # truncating formula reported rank 9 (9.00 us).
    assert "p95 10.00 us" in out
    assert "mean 5.50 us" in out


def test_broadcast_onepipe(capsys):
    assert main(["broadcast", "--processes", "4"]) == 0
    assert "1pipe" in capsys.readouterr().out


def test_broadcast_token(capsys):
    assert main(["broadcast", "--processes", "4", "--system", "token"]) == 0
    assert "token" in capsys.readouterr().out


def test_failure_host(capsys):
    assert main(["failure", "--crash", "h3"]) == 0
    out = capsys.readouterr().out
    assert "failed processes: [3]" in out
    assert "recovery" in out


def test_snapshot(capsys):
    assert main(["snapshot"]) == 0
    assert "consistent!" in capsys.readouterr().out


def test_unknown_command_rejected():
    # "bench": perf/run.py is the one benchmark, not a subcommand.
    for command in ("nonsense", "bench"):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2


def test_chaos_campaign(tmp_path, capsys):
    out = str(tmp_path / "campaign.json")
    assert main([
        "chaos", "--episodes", "2", "--processes", "8",
        "--seed", "5", "--faults", "2", "--out", out,
    ]) == 0
    text = capsys.readouterr().out
    assert "0 invariant violations" in text
    import json
    report = json.loads(open(out).read())
    assert report["ok"] is True
    assert len(report["episode_reports"]) == 2


def test_chaos_same_seed_byte_identical_reports(tmp_path, capsys):
    args = ["--episodes", "1", "--processes", "8", "--faults", "2",
            "--mode", "chip"]
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    # Subcommand --seed and global --seed are the same knob.
    assert main(["chaos", "--seed", "9", *args, "--out", out_a]) == 0
    assert main(["--seed", "9", "chaos", *args, "--out", out_b]) == 0
    capsys.readouterr()
    a = open(out_a, "rb").read()
    assert a == open(out_b, "rb").read()
    # And a different seed changes the report.
    out_c = str(tmp_path / "c.json")
    assert main(["chaos", "--seed", "10", *args, "--out", out_c]) == 0
    capsys.readouterr()
    assert a != open(out_c, "rb").read()


def test_shootout_small_grid(tmp_path, capsys):
    import json
    out = str(tmp_path / "shootout.json")
    assert main([
        "shootout", "--seed", "3", "--members", "4",
        "--protocols", "sequencer,switchpaxos",
        "--scenarios", "clean,crash", "--out", out,
    ]) == 0
    text = capsys.readouterr().out
    assert "4 cells" in text
    assert "0 contract violations" in text
    report = json.loads(open(out).read())
    assert report["ok"] is True
    assert report["shootout"]["seed"] == 3
    assert len(report["scenarios"]) == 2
    cells = report["scenarios"][0]["cells"]
    assert set(cells) == {"sequencer", "switchpaxos"}
    for cell in cells.values():
        assert cell["delivery_permille"] == 1000


def test_shootout_global_seed_matches_subcommand_seed(tmp_path, capsys):
    args = ["--members", "4", "--protocols", "sequencer",
            "--scenarios", "clean", "--quiet"]
    out_a = str(tmp_path / "a.json")
    out_b = str(tmp_path / "b.json")
    assert main(["shootout", "--seed", "9", *args, "--out", out_a]) == 0
    assert main(["--seed", "9", "shootout", *args, "--out", out_b]) == 0
    capsys.readouterr()
    assert open(out_a, "rb").read() == open(out_b, "rb").read()


def test_verify_clean_run(tmp_path, capsys):
    import json
    out = str(tmp_path / "verify.json")
    assert main([
        "verify", "--episodes", "1", "--seed", "9", "--mode", "chip",
        "--out", out,
    ]) == 0
    text = capsys.readouterr().out
    assert "0 oracle divergences" in text
    report = json.loads(open(out).read())
    assert report["schema"] == "repro.verify/1"
    assert report["ok"] is True
    assert report["seed"] == 9
    assert report["divergence_count"] == 0
    assert report["harness_errors"] == []
    assert len(report["results"]) == 1
    result = report["results"][0]
    assert result["mode"] == "chip"
    assert result["messages_delivered"] > 0
    assert result["divergences"] == []


def test_verify_zero_episodes(tmp_path, capsys):
    import json
    out = str(tmp_path / "verify.json")
    assert main(["verify", "--episodes", "0", "--out", out]) == 0
    capsys.readouterr()
    report = json.loads(open(out).read())
    assert report["ok"] is True
    assert report["episodes_run"] == 0
    assert report["results"] == []


def test_verify_divergence_exits_nonzero(tmp_path, capsys, monkeypatch):
    import json

    from repro.verify import runner as runner_mod
    from repro.verify.oracle import Divergence

    real_check = runner_mod.check_episode

    def broken_check(spec, mutate=None, metrics=False, **kwargs):
        run, divergences = real_check(
            spec, mutate=mutate, metrics=metrics, **kwargs
        )
        divergences.append(Divergence(
            "order", "synthetic divergence for the exit-code test",
            receiver=0, index=0, seed=spec.seed, episode=spec.episode,
            mode=spec.mode,
        ))
        return run, divergences

    monkeypatch.setattr(runner_mod, "check_episode", broken_check)
    out = str(tmp_path / "verify.json")
    assert main([
        "verify", "--episodes", "1", "--mode", "chip", "--no-shrink",
        "--quiet", "--out", out,
    ]) == 1
    err = capsys.readouterr().err
    assert "DIVERGENCE [order]" in err
    report = json.loads(open(out).read())
    assert report["ok"] is False
    assert report["divergence_count"] == 1
    div = report["results"][0]["divergences"][0]
    assert div["kind"] == "order"
    assert div["mode"] == "chip"


def test_mode_choices_follow_the_incarnation_list():
    """Every ``--mode`` flag offers exactly ``config.ALL_MODES`` (plus
    ``all`` where a run can sweep them)."""
    import argparse

    from repro.cli import build_parser
    from repro.onepipe.config import ALL_MODES

    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    expected = {
        "latency": list(ALL_MODES),
        "observe": list(ALL_MODES),
        "chaos": ["all", *ALL_MODES],
        "verify": ["all", *ALL_MODES],
    }
    for command, choices in expected.items():
        (mode,) = [
            action for action in subparsers.choices[command]._actions
            if action.dest == "mode"
        ]
        assert list(mode.choices) == choices, command
    assert ALL_MODES == ("chip", "switch_cpu", "host_delegate", "bft")
