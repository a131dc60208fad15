"""What the three command lines share: how they refuse bad arguments, and
that they parse before they import.

``python -m repro.replay``, ``python -m repro.serve`` and ``python -m
repro.fleet`` refuse a trace path with nothing behind it, a worker count
below 1, and a worker pool the host cannot run in one ``error:`` line with
exit 2, and answer ``--help`` without loading numpy: the system is
imported after the flags are parsed.
"""

import argparse
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.fleet import __main__ as fleet_cli
from repro.fleet.runner import BACKENDS
from repro.fleet.topology import PARTITION_MODES
from repro.monitor import workers as workers_module
from repro.monitor.sharding import SHARD_BACKENDS
from repro.replay import main as replay_main
from repro.serve.__main__ import main as serve_main
from repro.traffic.trace_io import save_trace_store

SRC = Path(__file__).resolve().parents[1] / "src"
FLEET_WORKLOAD = ["--nodes", "2", "--workload", "flow-spike", "--duration",
                  "1.0", "--workload-scale", "0.25", "--cycles-per-second",
                  "5e7"]


def _one_error_line(capsys, starts):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {starts}"), captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.fixture
def store(small_trace, tmp_path):
    return save_trace_store(small_trace, tmp_path / "store")


def test_a_missing_trace_is_refused_in_one_line(tmp_path, capsys):
    missing = str(tmp_path / "MISSING")
    assert replay_main([missing]) == 2
    _one_error_line(capsys, f"no trace at {missing}")
    assert serve_main(["--feed", "replay", missing, "--queries", "counter",
                       "--port", "0"]) == 2
    _one_error_line(capsys, f"no trace at {missing}")
    assert fleet_cli.main(["--nodes", "2", "--trace", missing]) == 2
    _one_error_line(capsys, f"no trace at {missing}")


@pytest.mark.parametrize("n_workers", ["0", "-2"])
def test_a_worker_count_below_one_is_refused_in_one_line(store, capsys,
                                                        n_workers):
    expected = f"--n-workers must be at least 1, got {n_workers}"
    assert replay_main([str(store.path), "--queries", "counter",
                        "--n-workers", n_workers]) == 2
    _one_error_line(capsys, expected)
    assert serve_main([str(store.path), "--queries", "counter", "--port",
                       "0", "--n-workers", n_workers]) == 2
    _one_error_line(capsys, expected)
    assert fleet_cli.main([*FLEET_WORKLOAD, "--n-workers", n_workers]) == 2
    _one_error_line(capsys, expected)


def test_a_pool_the_host_cannot_run_is_refused_in_one_line(store, capsys,
                                                          monkeypatch):
    """No fork or no os.memfd_create: an explicit pool is refused before
    anything runs."""
    monkeypatch.setattr(workers_module, "fork_start_available",
                        lambda: False)
    expected = ("a shard worker pool needs the fork start method and "
                "os.memfd_create")
    assert replay_main([str(store.path), "--queries", "counter",
                        "--num-shards", "2", "--backend", "workers"]) == 2
    _one_error_line(capsys, expected)
    assert serve_main([str(store.path), "--queries", "counter", "--port",
                       "0", "--num-shards", "2", "--backend", "workers"]) == 2
    _one_error_line(capsys, expected)
    assert fleet_cli.main([*FLEET_WORKLOAD, "--fleet-backend", "fork"]) == 2
    _one_error_line(capsys, expected)


@pytest.mark.parametrize("module", ["repro.replay", "repro.serve",
                                    "repro.fleet"])
def test_help_loads_no_numpy(module):
    script = (f"import runpy, sys\n"
              f"sys.argv = [{module!r}, '--help']\n"
              f"try:\n"
              f"    runpy.run_module({module!r}, run_name='__main__')\n"
              f"except SystemExit as done:\n"
              f"    assert done.code == 0, done.code\n"
              f"print('numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          env={"PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=60)
    assert f"python -m {module}" in done.stdout
    assert done.stdout.split()[-1] == "False"


def _choices(parser, flag):
    action, = (action for action in parser._actions
               if flag in action.option_strings)
    return tuple(action.choices)


def test_the_parsers_offer_the_libraries_choices():
    """The parsers spell the choices out, so ``--help`` needs neither
    library module; they must stay equal to the libraries' own."""
    fleet = fleet_cli.build_parser()
    assert _choices(fleet, "--fleet-backend") == BACKENDS
    assert _choices(fleet, "--partition-by") == PARTITION_MODES
    parser = argparse.ArgumentParser()
    cli.add_backend_arg(parser)
    assert _choices(parser, "--backend") == SHARD_BACKENDS
