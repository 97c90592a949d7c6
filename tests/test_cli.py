"""The unified ``python -m repro`` front door.

One dispatcher routes to every tool; the per-module ``python -m
repro.X`` forms are gone.  These tests call the in-process ``main()``
so they are cheap, plus subprocess checks of the real entry point.
"""

import subprocess
import sys

import pytest

from repro.__main__ import COMMANDS, main


class TestDispatcher:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        # (bare invocation is a usage error; `help` below is not)

    def test_help_exits_zero(self, capsys):
        assert main(["help"]) == 0
        out = capsys.readouterr().out
        for command in ("lint", "flow", "obs", "bench", "live", "serve",
                        "dist", "compile"):
            assert command in out

    def test_version(self, capsys):
        import repro

        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_lint_routes_to_check(self, tmp_path, capsys):
        path = tmp_path / "prog.py"
        path.write_text(
            "from repro import css_task\n"
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    a += 1\n"  # writing an input: a finding
        )
        assert main(["lint", str(path)]) == 1
        assert "input" in capsys.readouterr().out

    def test_flow_routes_to_check(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["flow", str(path)]) == 0

    def test_subcommand_help_reaches_the_tool(self):
        # argparse help exits via SystemExit(0) inside the tool.
        with pytest.raises(SystemExit) as exc_info:
            main(["obs", "--help"])
        assert exc_info.value.code == 0
        with pytest.raises(SystemExit) as exc_info:
            main(["serve", "--help"])
        assert exc_info.value.code == 0

    def test_every_command_module_resolves(self):
        import importlib

        for command, (module_name, prefix) in COMMANDS.items():
            module = importlib.import_module(module_name)
            assert callable(module.main), command
            assert isinstance(prefix, list)


class TestLegacyAliases:
    def test_per_module_form_fails_loudly(self):
        for module in ("repro.check", "repro.live", "repro.compiler"):
            proc = subprocess.run(
                [sys.executable, "-m", module, "--help"],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode != 0, module
            assert "cannot be directly executed" in proc.stderr, module

    def test_unified_check_command_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "rules"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "input-write" in proc.stdout

    def test_unified_form_has_no_note(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "alias" not in proc.stderr
