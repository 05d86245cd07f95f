"""The cli-cold workload: one fresh ``innerforms`` process per query.

The checkout is not installed, so the command is started the way its
console-script wrapper starts it: ``python -c "from innerforms.cli import
main; ..."`` with ``src`` on PYTHONPATH.  Bytecode goes to the benchmark's own
cache directory (PYTHONPYCACHEPREFIX), never under ``src/``, and the hash seed
is fixed, so every run starts the same program.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

import oracles as O
from calibrate import PROCESS_NOMINAL_MS, process_calibration_ms
from tracing import CLI_SUBCOMMANDS

# The console script's entry point, plus an exit hook that writes the
# process's own peak resident memory (VmHWM, in kB) to the file named by
# PERFBENCH_PEAK_FILE.  ru_maxrss would not do: a process started by another
# inherits its starter's peak there.
LAUNCHER = """\
import atexit, os, sys

def _peak():
    try:
        with open("/proc/self/status") as status:
            kb = [line.split()[1] for line in status if line.startswith("VmHWM:")]
        with open(os.environ["PERFBENCH_PEAK_FILE"], "w") as out:
            out.write(kb[0])
    except (OSError, KeyError, IndexError):
        pass

atexit.register(_peak)
from innerforms.cli import main
sys.exit(main())
"""
QUERY_TIMEOUT_S = 60


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "INNERFORMS_"))}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(pycache_dir(root)),
        PYTHONUTF8="1",
    )
    return env


def pycache_dir(root: Path) -> Path:
    return root / "perfbench" / ".pycache"


def run_python(root: Path, args, stdin=None, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=env or child_env(root), cwd=root, timeout=QUERY_TIMEOUT_S,
    )


def compile_fresh(root: Path) -> None:
    """Drop the package's cached bytecode and compile it once, as a first run does."""
    shutil.rmtree(pycache_dir(root) / str(root / "src").lstrip("/"), ignore_errors=True)
    done = run_python(root, ["-c", "import innerforms.cli"])
    if done.returncode != 0:
        raise RuntimeError(f"cannot import innerforms.cli:\n{done.stderr}")


def process_ms(root: Path, code: str, repeats: int) -> float:
    """Median wall time of ``python -c code`` processes."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        run_python(root, ["-c", code])
        times.append(1000 * (perf_counter() - start))
    return statistics.median(times)


class CliCold:
    """Cold processes; checks exit codes, stderr, JSON schema, goldens and oracles."""

    calibration_nominal_ms = PROCESS_NOMINAL_MS
    calibration_interval_s = 1.0
    # every block holds the four known defects, so whole blocks keep the
    # failed share exactly theirs
    whole_blocks = True

    def __init__(self, root: Path):
        import jsonschema

        self.root = root
        schema = json.loads((root / "schemas" / "cli_output.schema.json").read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft202012Validator(schema)
        self.golden = {
            name: (root / "tests" / "golden" / name).read_text(encoding="utf-8")
            for name in ("appendix_a.md", "appendix_a.json")
        }
        self.latencies: dict[str, list[float]] = {}
        self.peak_file = root / "perfbench" / "out" / "cli-peak-kb"
        self.peak_file.parent.mkdir(exist_ok=True)
        self.env = dict(child_env(root), PERFBENCH_PEAK_FILE=str(self.peak_file))
        self.peak_kb = 0
        compile_fresh(root)

    def calibrate(self) -> float:
        return process_calibration_ms(child_env(self.root), self.root)

    def kind(self, q) -> str:
        return f"cli.{q['argv'][0]}"

    def start_block(self) -> None:
        pass

    def query(self, q):
        start = perf_counter()
        done = run_python(self.root, ["-c", LAUNCHER, *q["argv"]], q["stdin"], self.env)
        ms = 1000 * (perf_counter() - start)
        if self.peak_file.exists():
            self.peak_kb = max(self.peak_kb, int(self.peak_file.read_text() or 0))
            self.peak_file.unlink()
        return {"code": done.returncode, "out": done.stdout, "err": done.stderr, "ms": ms}

    def peak_rss_mb(self) -> float:
        """The largest query process's own peak resident memory."""
        if self.peak_kb:
            return self.peak_kb / 1024
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # without /proc

    def check(self, q, rec) -> list:
        argv, name = q["argv"], " ".join(q["argv"])
        self.latencies.setdefault(argv[0], []).append(rec["ms"])
        if "Traceback" in rec["err"]:
            return [("error", f"{name}: traceback (exit {rec['code']})")]
        if rec["code"] != q["expect"]:
            return [("error", f"{name}: exit {rec['code']}, expected {q['expect']}")]
        if q["expect"] != 0:
            return [] if rec["err"].strip() else [("error", f"{name}: refusal without a message")]
        if not rec["out"].strip():
            return [("wrong", f"{name}: empty output")]
        try:
            payload = json.loads(rec["out"]) if "--json" in argv else None
            errors = [] if payload is None else list(self.validator.iter_errors(payload))
            if errors:
                return [("wrong", f"{name}: schema: {errors[0].message}")]
            oracle = q["oracle"]
            if oracle is None or self._agrees(argv[0], oracle, payload, rec["out"]):
                return []
        except (ValueError, KeyError, TypeError) as exc:
            return [("wrong", f"{name}: unreadable output ({exc!r})")]
        return [("wrong", f"{name}: output disagrees with the expected answer")]

    def _agrees(self, command: str, oracle: dict, payload, out: str) -> bool:
        if "golden" in oracle:
            return out == self.golden[oracle["golden"]]
        if command == "lj":
            image = O.render_expected(O.lj_expected(O.accumulate(oracle["terms"]), oracle["d"]))
            return (payload["image"] if payload else out.strip()) == image
        if payload is None:
            payload = json.loads(out)  # `weyl` prints JSON in text mode too
        if command == "levi":
            blocks = O.gl_blocks(oracle["n"], oracle["theta"])
            sandwich = O.type_a_sandwich(oracle["tag"], blocks)
            envelope = [b for b in blocks if b >= 2] if sandwich else None
            # the CLI prints an empty envelope (theta = {}) as null
            return payload["condition_one"] == sandwich and payload["gl_envelope"] == (envelope or None)
        if command == "satake":
            factors = payload["factors"]
            return (payload["envelope"] == oracle["envelope"]
                    and [f["d"] for f in factors] == oracle["degrees"]
                    and [f["m"] * f["d"] for f in factors] == oracle["envelope"])
        if command == "weyl":
            series, k, theta = oracle["series"], oracle["k"], oracle["theta"]
            pos = O.positive_root_count(series, k)
            pos_theta = O.theta_positive_roots(series, k, theta)
            order = O.weyl_order(series, k) if k <= 6 else None
            preimages = sum(len(r["preimages"]) for r in payload["reduced_roots"])
            return (payload["order"] == order and len(payload["w_word"]) == pos + pos_theta
                    and preimages == pos - pos_theta)
        if command == "kottwitz":
            return payload["order"] == O.kottwitz_order(oracle["tag"], (oracle["n"],))
        if command == "inner-forms":
            n = oracle["n"]
            classes = payload["classes"]
            return len(classes) == n and all(c["d"] * gcd(c["label"], n) == n for c in classes)
        raise ValueError(f"no oracle for {command}")

    def finish(self) -> list:
        return []

    def counters(self) -> dict:
        """Cold-call split: interpreter, import, and each subcommand's work."""
        out = startup_metrics(self.root)
        imported = out["cli.interpreter_ms"][0] + out["cli.import_ms"][0]
        every = [ms for runs in self.latencies.values() for ms in runs]
        out["cli.work_ms"] = (statistics.median(every) - imported, "ms")
        for command in CLI_SUBCOMMANDS:
            runs = self.latencies.get(command)
            out[f"cli.{command}.p50_ms"] = (statistics.median(runs) if runs else 0.0, "ms")
        return out


def startup_metrics(root: Path) -> dict:
    """Median bare-interpreter process, and what ``import innerforms`` adds to it."""
    interpreter = process_ms(root, "pass", 7)
    imported = process_ms(root, "import innerforms", 7)
    return {"cli.interpreter_ms": (interpreter, "ms"), "cli.import_ms": (imported - interpreter, "ms")}

