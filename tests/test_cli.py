"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_unknown_command_rejected():
    # "bench": perf/run.py is the one benchmark, not a subcommand.  The
    # single-feature demos are scripts in examples/, --seed belongs to
    # each subcommand, not to the program, and verify spells its mode
    # --mode only.
    for argv in (["nonsense"], ["bench"], ["topology"], ["latency"],
                 ["broadcast"], ["failure"], ["snapshot"],
                 ["--seed", "9", "chaos"], ["verify", "--incarnation", "chip"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
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
    assert main(["chaos", "--seed", "9", *args, "--out", out_a]) == 0
    assert main(["chaos", "--seed", "9", *args, "--out", out_b]) == 0
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
