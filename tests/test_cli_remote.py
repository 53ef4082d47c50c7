"""Every ``--url`` subcommand reports an unreachable service the same
way: one stderr line, exit 1, no traceback.  Usage errors stay exit 2
and never dial the service."""

import socket

import pytest

from repro.cli import main

REMOTE_COMMANDS = {
    "generate": ["generate", "--array", "2", "2"],
    "batch": ["batch", "--arrays", "2x2"],
    "explore": ["explore", "--models", "LeNet"],
    "metrics": ["metrics"],
    "trace": ["trace"],
    "profile": ["profile", "--seconds", "0.1"],
    "top": ["top", "--iterations", "1"],
}


@pytest.fixture()
def dead_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"http://127.0.0.1:{sock.getsockname()[1]}"


@pytest.mark.parametrize("argv", REMOTE_COMMANDS.values(),
                         ids=list(REMOTE_COMMANDS))
def test_unreachable_service_is_one_line_exit_1(argv, dead_url, capsys):
    assert main([*argv, "--url", dead_url]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"cannot reach {dead_url} (")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["generate", "--array", "2", "2", "--topology"],
    ["batch", "--arrays", "2x2", "--output-dir", "unused"],
], ids=["generate-topology", "batch-output-dir"])
def test_usage_errors_stay_exit_2(argv, dead_url, capsys):
    assert main([*argv, "--url", dead_url]) == 2
    assert "cannot reach" not in capsys.readouterr().err
