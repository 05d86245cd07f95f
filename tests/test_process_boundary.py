"""The CLI as a real process: every README command, and the ways its streams can fail.

Each command starts the way the console script does, ``python -c "from
innerforms.cli import main; ..."``, with ``src`` on PYTHONPATH and no other
PYTHON* or INNERFORMS_* variable, except UTF-8 mode so that the output's
encoding does not depend on the host's locale.  Closed streams are closed by
``sh`` (``>&-``, ``<&-``), as a shell user would close them.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LAUNCH = [sys.executable, "-c", "import sys; from innerforms.cli import main; sys.exit(main())"]
ASCII_ERROR = (
    "error: cannot write to stdout: its encoding 'ascii' cannot represent the output;"
    " use UTF-8, e.g. PYTHONIOENCODING=utf-8\n"
)


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "INNERFORMS_"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONUTF8="1", **extra)
    return env


def run(argv, *, shell_redirect=None, env=None, **kwargs) -> subprocess.CompletedProcess:
    """Run the CLI; ``shell_redirect`` (e.g. ``>&-``) is applied by ``sh`` around it."""
    command = [*LAUNCH, *argv]
    if shell_redirect is not None:
        command = ["sh", "-c", f'exec "$@" {shell_redirect}', "sh", *command]
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(command, stderr=subprocess.PIPE, env=env or child_env(), cwd=ROOT,
                          timeout=60, **kwargs)


def readme_commands() -> list:
    """(argv, stdin) for each line of README's command-line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        stdin = None
        if "|" in words:  # echo TEXT | innerforms ...
            bar = words.index("|")
            assert words[0] == "echo", line
            stdin = " ".join(words[1:bar]) + "\n"
            words = words[bar + 1:]
        assert words[0] == "innerforms", line
        commands.append((words[1:], stdin))
    return commands


README_COMMANDS = readme_commands()


def assert_clean(stderr: bytes) -> None:
    assert b"Traceback" not in stderr
    assert b"Exception ignored" not in stderr


@pytest.mark.parametrize("argv,stdin", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_every_readme_command_runs_as_a_process(argv, stdin):
    done = run(argv, input=None if stdin is None else stdin.encode())
    assert_clean(done.stderr)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr == b""
    assert done.stdout.strip()
    if argv[0] == "appendix-a":
        golden = "appendix_a.json" if "--json" in argv else "appendix_a.md"
        assert done.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv", [
    ["appendix-a"],
    ["weyl", "GL(40)", "--json"],
    ["satake", "--group", "GL(6)", "--pattern", "6,3"],
], ids=lambda argv: argv[0])
def test_a_closed_pipe_ends_quietly_with_exit_1(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = run(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b""


@pytest.mark.parametrize("argv", [
    ["satake", "--group", "GL(6)", "--pattern", "6,3"],
    ["appendix-a"],
], ids=lambda argv: argv[0])
def test_a_stdout_that_cannot_encode_the_output_is_an_error(argv):
    done = run(argv, env=child_env(PYTHONIOENCODING="ascii"))
    assert done.returncode == 1
    assert done.stderr.decode() == ASCII_ERROR
    assert done.stdout == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_device_is_an_error():
    with open("/dev/full", "wb") as full:
        done = run(["appendix-a"], stdout=full)
    assert_clean(done.stderr)
    assert done.returncode == 1
    assert done.stderr == b"error: cannot write to stdout: No space left on device\n"


def test_a_closed_stdout_is_an_error():
    done = run(["appendix-a"], shell_redirect=">&-", stdout=None)
    assert_clean(done.stderr)
    assert done.returncode == 1
    assert done.stderr == b"error: cannot write to stdout: it is closed\n"


def test_a_closed_stdin_is_a_usage_error():
    done = run(["lj", "--n", "2", "--d", "2"], shell_redirect="<&-")
    assert_clean(done.stderr)
    assert done.returncode == 2
    assert done.stderr == b"error: no --element given and stdin is closed\n"
    assert done.stdout == b""
