"""walshgl benchmark: CLI job time and memory, plus a per-module trace.

    python3 benchmarks/run.py --workload gl-tt22 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Load is a closed loop with one client:
one CLI job at a time, each the next as soon as the previous one exits; an
op is one ``walshgl`` invocation.  Inputs are generated from ``--seed``
under ``.bench_build/walshgl-bench/<workload>/`` (see workloads.py).

``--trace 0`` runs each job as a subprocess, ``python -m walshgl.cli``
with ``PYTHONPATH=src``, and reports the end-to-end metrics:

    op_s.p50       median wall seconds of one job, spawn to exit
    op_cpu_s.p50   median user+sys CPU seconds of that child alone
    peak_rss_mb    largest per-job maximum RSS of the run
    setup_s        median wall seconds of ``walshgl --help`` (interpreter,
                   numpy and package import, argument parser)
    success_rate   ops that passed / ops attempted (1 - error_rate); an op
                   fails if it exits nonzero or its output fails the check

Each child's CPU time and RSS come from ``os.wait4`` on its own pid, not
from RUSAGE_CHILDREN, whose ru_maxrss is a running maximum over every child
reaped so far; jobs are started by the small launcher.py process so that no
memory of this one counts in theirs.  One ``--help`` and one job of the same subcommand on a
small input are excluded warm-ups in every run, so ``.pyc`` compilation
after a source change lands neither in ``setup_s`` nor in the first op.

``--trace 1`` runs the same argv in process through
``walshgl.cli.main(argv)``, alternating untraced and traced ops, and
reports per-layer metrics from an outside-in tracer (tracer.py).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the machine, every op and (when
tracing) every span is written next to the inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from workloads import Output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_build/walshgl-bench")
SETUP_REPEATS = 7
MIN_OPS = 4  # so that even the longest jobs give a median of four


def machine() -> dict:
    """Cores, versions and per-core cache sizes (read-only, from sysfs)."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cache_per_core": caches,
    }


def _kib(size: str) -> int | None:
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    if size and size[-1] in units and size[:-1].isdigit():
        return int(size[:-1]) * units[size[-1]]
    return None


def sizes(wl: workloads.Workload, mach: dict) -> dict:
    """Computed, not measured: the int64 butterfly array of the largest
    transform against the per-core L2."""
    array_mib = 8 * (1 << wl.butterfly_n) / 2**20
    l2 = _kib(mach["cache_per_core"].get("L2", ""))
    return {
        "butterfly_n": wl.butterfly_n,
        "butterfly_array_mib_computed": array_mib,
        "butterfly_array_over_l2": array_mib * 1024 / l2 if l2 else None,
    }


def _digest(out: Output) -> str:
    h = hashlib.sha256(str(out.code).encode())
    for part in (out.stdout, out.stderr, out.out_file or b""):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


class Launcher:
    """Runs ``walshgl <args>`` jobs through launcher.py, one at a time."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # Let the warm-up cache bytecode, as an installed package has it.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, args: list[str], stdout: Path, stderr: Path) -> dict:
        """Exit code, wall s, CPU s and max RSS MiB of the job's child alone."""
        request = {"argv": [sys.executable, "-m", "walshgl.cli", *args],
                   "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _read(path: Path | None) -> bytes | None:
    return path.read_bytes() if path is not None and path.exists() else None


def tally(problem_lists: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed): an op fails when its check found any problem."""
    return len(problem_lists), sum(1 for p in problem_lists if p)


class Run:
    """One run of one workload: the reference output, checks and op log."""

    def __init__(self, wl: workloads.Workload, work: Path):
        self.wl = wl
        self.work = work
        self.reference: str | None = None
        self.problems: list[str] = []  # problems that make the run incorrect
        self.ops: list[dict] = []

    def judge(self, out: Output) -> list[str]:
        """Check one output; all outputs must equal the first byte for byte.
        The first correct output also self-tests the checker: a corrupted
        copy of it must count as a failed op."""
        problems = self.wl.check(out)
        digest = _digest(out)
        if self.reference is None:
            self.reference = digest
            if not problems:
                attempted, failed = tally([self.wl.check(self.wl.corrupt(out))])
                if (attempted, failed) != (1, 1):
                    self.problems.append("checker self-test: a corrupted output was accepted")
                print(f"checker self-test: corrupted output counted as failed ({failed}/{attempted})")
        elif digest != self.reference:
            problems.append("output differs from the first job of the same seed")
        return problems

    def record(self, **op):
        self.ops.append(op)
        state = "ok" if not op["problems"] else "FAILED: " + "; ".join(op["problems"])
        timing = " ".join(f"{k}={v:.4f}" for k, v in op.items() if isinstance(v, float))
        print(f"op {len(self.ops)} {op.get('kind', 'cli')}: {timing} {state}")


def measure(seconds: float, op, min_ops: int):
    """Closed loop: start the next op while at least half of a typical op
    still fits in ``seconds``, so the measured span ends near ``seconds`` on
    average, and run at least ``min_ops`` ops.  ``op`` returns its wall
    seconds."""
    start = time.perf_counter()
    walls: list[float] = []
    while (
        len(walls) < min_ops
        or time.perf_counter() - start + statistics.median(walls) / 2 < seconds
    ):
        walls.append(op())


def end_to_end(run: Run, seconds: float) -> dict:
    wl, work = run.wl, run.work
    stdout, stderr = work / "stdout", work / "stderr"
    launcher = Launcher()
    try:
        setup = []
        for i in range(1 + SETUP_REPEATS):  # the first is a warm-up, excluded
            job = launcher.run(["--help"], stdout, stderr)
            if job["code"] != 0:
                run.problems.append(f"walshgl --help exited with {job['code']}")
            if i:
                setup.append(job["wall_s"])
        job = launcher.run(wl.warm_argv, stdout, stderr)  # warm-up job, excluded
        if job["code"] != 0:
            run.problems.append(f"warm-up job exited with {job['code']}")

        def op() -> float:
            job = launcher.run(wl.argv, stdout, stderr)
            out = Output(job.pop("code"), stdout.read_bytes(), stderr.read_bytes(), _read(wl.out_path))
            run.record(**job, problems=run.judge(out))
            return job["wall_s"]

        measure(seconds, op, MIN_OPS)
    finally:
        launcher.close()
    attempted, failed = tally([o["problems"] for o in run.ops])
    metrics = {
        "op_s.p50": statistics.median(o["wall_s"] for o in run.ops),
        "op_cpu_s.p50": statistics.median(o["cpu_s"] for o in run.ops),
        "peak_rss_mb": max(o["rss_mb"] for o in run.ops),
        "setup_s": statistics.median(setup),
        "success_rate": 1 - failed / attempted,
    }
    print(f"setup_s: median of {SETUP_REPEATS} `walshgl --help` runs")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted!r}")
    return metrics


def traced(run: Run, seconds: float) -> dict:
    wl = run.wl
    sys.path.insert(0, str(SRC))
    import walshgl.cli  # noqa: F401  (imports every walshgl module)

    def in_process(argv: list[str]) -> tuple[Output, float]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = sys.modules["walshgl.cli"].main(list(argv))
            except SystemExit as exc:
                code = exc.code
            wall = time.perf_counter() - start
        out = Output(code, stdout.getvalue().encode(), stderr.getvalue().encode(), _read(wl.out_path))
        return out, wall

    out, _ = in_process(wl.warm_argv)  # warm-up job, excluded
    if out.code != 0:
        run.problems.append(f"warm-up job exited with {out.code}")

    trace = tracing.Tracer()
    untraced, summaries, counters = [], [], []

    def pair() -> float:
        out, wall = in_process(wl.argv)
        untraced.append(wall)
        run.record(kind="untraced", wall_s=wall, problems=run.judge(out))
        trace.start_op(len(summaries))
        trace.install()
        try:
            out, traced_wall = in_process(wl.argv)
        finally:
            trace.uninstall()
        summaries.append(trace.op_summary(trace.op))
        counters.append(trace.counters)
        run.record(kind="traced", wall_s=traced_wall, problems=run.judge(out))
        return wall + traced_wall

    measure(seconds, pair, 1)
    trace.write_spans(run.work / "spans.jsonl")

    def counts(summary, counter):
        calls = {name: row["calls"] for name, row in summary.items()}
        plain = {k: v for k, v in counter.items() if not k.startswith("_")}
        return calls, plain, len(counter.get("_fwht_inputs", ()))

    if any(counts(s, c) != counts(summaries[0], counters[0]) for s, c in zip(summaries, counters)):
        run.problems.append("call counts differ between traced ops of the same input")
    print(f"traced ops: {len(summaries)}, untraced ops: {len(untraced)}")
    return tracing.layer_metrics(summaries, counters, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    missing = [p for p in (SRC / "walshgl" / "cli.py", workloads.AES_SBOX) if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(map(str, missing))}; run it from a walshgl checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_start = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, work)
    mach = machine()
    info = sizes(wl, mach)
    print(f"machine: {json.dumps(mach)}")
    print(f"workload {wl.name} seed {args.seed} (inputs {time.perf_counter() - setup_start:.2f} s): "
          f"{json.dumps(info)}")
    where = "in process, untraced and traced in turn" if args.trace else "as a subprocess"
    print(f"load: closed loop, one client, one CLI job at a time, {where}")

    run = Run(wl, work)
    metrics = (traced if args.trace else end_to_end)(run, args.seconds)
    attempted, failed = tally([o["problems"] for o in run.ops])
    for name, value in metrics.items():
        print(f"{name} = {value!r}")
    (work / "record.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": mach,
         "sizes": info, "ops": run.ops, "problems": run.problems, "metrics": metrics},
        indent=1,
    ) + "\n")
    for problem in run.problems:
        print(f"INCORRECT: {problem}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(json.dumps({
        "correct": not run.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
