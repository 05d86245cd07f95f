"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def test_smoke_runs_every_workload_and_check():
    done = run(str(HERE / "run.py"), "--smoke")
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_a_directory_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", ".pycache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        done = run("perfbench/run.py", "--workload", "library", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
