"""Unit tests for the command-line interface."""

import contextlib
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import build_parser, main
from tests.support import free_port


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/site", "--port", "9090",
             "--peer", "other:80", "--entry", "/home.html"])
        assert args.root == "/tmp/site"
        assert args.port == 9090
        assert args.peer == ["other:80"]
        assert args.entry == ["/home.html"]

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "lod"
        assert args.servers == 4
        assert not args.prewarm

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "--name", "unknown"])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "figure8"])
        assert args.experiment == "figure8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "figure99"])

    @pytest.mark.parametrize("command", [["serve", "--root", "/nonexistent"],
                                         ["simulate"]])
    @pytest.mark.parametrize("option", [
        ["--replication-k", "0"], ["--replication-k", "-3"],
        ["--replication-k", "two"], ["--time-factor", "-1"],
        ["--time-factor", "0"], ["--time-factor", "nan"],
        ["--time-factor", "inf"]])
    def test_nonpositive_counts_and_factors_are_usage_errors(
            self, command, option, capsys):
        # A k of 0 used to start a server running as k=1, and a negative
        # factor ended in a ConfigError traceback: both are refused
        # before any command runs.
        with pytest.raises(SystemExit) as refused:
            main(command + option)
        assert refused.value.code == 2
        assert f"argument {option[0]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        ["--servers", "0"], ["--servers", "-2"], ["--clients", "0"],
        ["--duration", "-5"], ["--duration", "0"], ["--duration", "inf"],
        ["--sample-interval", "0"], ["--sample-interval", "nan"]])
    def test_nonpositive_simulation_sizes_are_usage_errors(self, option,
                                                           capsys):
        # --servers 0 used to end in a SimulationError traceback, and
        # --duration -5 ran nothing and printed "steady CPS 0", exit 0.
        with pytest.raises(SystemExit) as refused:
            main(["simulate"] + option)
        assert refused.value.code == 2
        assert f"argument {option[0]}:" in capsys.readouterr().err

    def test_positive_counts_and_factors_parse(self):
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/site", "--replication-k", "2",
             "--time-factor", "0.1"])
        assert (args.replication_k, args.time_factor) == (2, 0.1)


class TestDatasetCommand:
    def test_prints_statistics(self, capsys):
        assert main(["dataset", "--name", "lod"]) == 0
        out = capsys.readouterr().out
        assert "349 documents" in out
        assert "/index.html" in out

    def test_writes_to_disk(self, tmp_path, capsys):
        assert main(["dataset", "--name", "lod",
                     "--out", str(tmp_path)]) == 0
        from repro.server.filestore import DiskStore

        store = DiskStore(str(tmp_path))
        assert "/index.html" in store.names()
        assert len(store.names()) == 349


class TestSimulateCommand:
    def test_tiny_simulation(self, capsys):
        code = main(["simulate", "--dataset", "lod", "--servers", "2",
                     "--clients", "8", "--duration", "10",
                     "--sample-interval", "5", "--prewarm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady CPS" in out
        assert "migrations" in out


class TestServeCommand:
    """``repro serve`` as a real process, stopped the way an operator
    stops it: SIGINT, a clean ``shutting down`` and exit status 0."""

    def test_serve_empty_root_fails(self, tmp_path, capsys):
        assert main(["serve", "--root", str(tmp_path)]) == 1

    def test_serve_and_fetch(self, tmp_path):
        port = free_port()
        with serving(site(tmp_path / "site", "served from disk"), port):
            assert fetch(port, "/index.html").body == \
                b"<html>served from disk</html>"
            assert fetch(port, "/~dcws/status").status == 200

    def test_two_cooperating_servers(self, tmp_path):
        """Scale-out is more servers: two processes, each with its own
        root and the other as its ``--peer``, learn each other's load
        by ping gossip (``--time-factor 0.02`` pings every 0.4 s)."""
        ports = free_port(), free_port()
        with serving(site(tmp_path / "a", "server a"), ports[0],
                     "--peer", f"127.0.0.1:{ports[1]}",
                     "--time-factor", "0.02"), \
                serving(site(tmp_path / "b", "server b"), ports[1],
                        "--peer", f"127.0.0.1:{ports[0]}",
                        "--time-factor", "0.02"):
            for port in ports:
                assert fetch(port, "/index.html").status == 200
            for port, other in (ports, ports[::-1]):
                row = f"127.0.0.1:{other}"
                wait_for(lambda: heard_from(port, row), 10.0,
                         f"{port}'s /~dcws/load never listed {row}")


def site(root, text: str):
    root.mkdir()
    (root / "index.html").write_text(f"<html>{text}</html>")
    return root


def fetch(port: int, path: str):
    from repro.client.realclient import http_fetch
    from repro.core.document import Location
    from repro.http.messages import Request

    response = http_fetch(Location("127.0.0.1", port),
                          Request("GET", path), timeout=2.0)
    assert response.status == 200, f"{path} -> {response.status}"
    return response


def heard_from(port: int, row: str) -> bool:
    """*row*'s line on *port*'s load table carries a report time."""
    table = fetch(port, "/~dcws/load").body.decode()
    return any(line.startswith(row) and not line.endswith("never")
               for line in table.splitlines())


def wait_for(condition, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.1)


@contextlib.contextmanager
def serving(root, port: int, *options: str):
    """``python -m repro serve`` on *port* until the block ends, then
    SIGINT; the process must shut down cleanly on its own."""
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root),
         "--port", str(port), *options],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        wait_for(lambda: proc.poll() is not None or answers(port), 15.0,
                 f"repro serve on {port} never answered")
        assert proc.poll() is None, f"repro serve on {port} exited"
        yield proc
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    assert proc.returncode == 0, err
    assert "shutting down" in out


def answers(port: int) -> bool:
    try:
        fetch(port, "/~dcws/health")
    except (OSError, AssertionError):
        return False
    return True
