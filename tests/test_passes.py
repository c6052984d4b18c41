import os
import subprocess

import pytest

from kgpoint import _passes
from kgpoint.cli import main

CONFIG = """
[model]
mass = 1.0
positions = 0.0
coefficients_1 = 0 -2 1

[grid]
x_min = -2
x_max = 2
dx_target = 0.05

[run]
T = 0.2
dt = 0.02

[initial_data]
kind = zero
"""


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory and no loaded library; the library loads afresh after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    _passes.library.cache_clear()
    yield tmp_path / "cache" / "kgpoint"
    _passes.library.cache_clear()


BROKEN_COMMANDS = {
    "compile-error": lambda command: command + ["--no-such-option"],
    "no-compiler": lambda command: ["kgpoint-no-such-compiler"] + command[1:],
}


@pytest.fixture(params=sorted(BROKEN_COMMANDS))
def broken_compiler(request, monkeypatch):
    command = BROKEN_COMMANDS[request.param](_passes._compile_command())
    monkeypatch.setattr(_passes, "_compile_command", lambda: command)


@pytest.fixture
def compiler_calls(monkeypatch):
    calls, run = [], subprocess.run

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(_passes.subprocess, "run", counted)
    return calls


def test_a_failed_build_raises_one_line_oserror_and_leaves_nothing(cold_cache, broken_compiler):
    with pytest.raises(OSError, match="^cannot build the stepping kernel: ") as err:
        _passes.library()
    assert "\n" not in str(err.value)
    assert os.listdir(cold_cache) == []  # no library, and no partial one


def test_a_failed_build_is_one_file_error_line_before_any_output(cold_cache, broken_compiler, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("file error: cannot build the stepping kernel: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_a_warm_cache_loads_without_compiling(cold_cache, compiler_calls):
    _passes.library()
    assert len(compiler_calls) == 1
    built = os.listdir(cold_cache)
    assert len(built) == 1 and built[0].startswith("passes-") and built[0].endswith(".so")
    _passes.library.cache_clear()
    _passes.library()
    assert len(compiler_calls) == 1 and os.listdir(cold_cache) == built
