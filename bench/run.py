"""Benchmark of `qsct run` on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      every workload in turn
    python3 bench/run.py --smoke                 tiny sizes, every workload and mode once

Run from the repository root; the program under test is `src/qsct` of that
checkout, started as `python3 -m qsct.cli run` in a fresh subprocess per
invocation. With `--trace 0` the benchmark times whole invocations back to
back for S seconds and reports the end-to-end metrics. With `--trace 1` it
alternates untraced invocations with traced ones (`bench/tracer.py`: spans
around each module's public functions, recorded from this directory) and
reports the per-layer metrics. Every invocation's outputs pass through
`check.check_run`; failures count, they are never retried.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it give
each metric with its unit, sample count and quartiles, `failed_frac`, and
the environment.

Scratch files go under `.bench_work/` in the current directory and are
removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from check import check_run  # noqa: E402
from tracer import MODULES, analyze  # noqa: E402
from workloads import BUILDERS, Workload  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# One BLAS thread: with two, OpenBLAS on a shared two-core machine spread about
# 1.5x more from run to run. Both sides of a comparison must use the same value.
BLAS_THREADS = "1"
# Set-up is sampled between the timed invocations, so that its samples see
# the same load on the machine as they do.
SETUPS_PER_ROUND = 2
HARD_LIMIT_S = 170.0     # a run must end within 180 s, whatever the program does

SETUP_CODE = (
    "import json, sys\n"
    "import qsct.cli\n"
    "raw = json.load(open(sys.argv[1], encoding='utf-8'))\n"
    "for entry in (raw if isinstance(raw, list) else [raw]):\n"
    "    qsct.cli.parse_config(entry)\n"
)

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
SPAN_METRICS = (
    "cli.parse_config",
    "protocol.run_noiseless", "protocol.run_noisy",
    "chain.build_hamiltonian", "chain.find_pst_time", "chain._TransferAmplitudes",
    "channels.phase_damping", "channels.weyl_channel", "channels.embed_channel",
    "channels.apply_channel",
    "entanglement.ccnr", "entanglement.amplified_ccnr_margin",
    "entanglement.entanglement_level", "entanglement.concurrence_pure",
    "linalg.partial_trace", "linalg.eigh", "linalg.svd",
)
PER_LAYER = (
    tuple((f"{span}.{kind}", unit) for span in SPAN_METRICS
          for kind, unit in (("calls", "count"), ("s", "s")))
    + (("cli.self_s", "s"), ("cli.output_bytes", "B"), ("protocol.self_s", "s"),
       ("channels.kraus_ops", "count"), ("channels.kraus_bytes", "B"),
       ("linalg.eigh.register_calls", "count"), ("linalg.svd.flops", "flop"))
    + tuple((f"{module}.charged_s", "s") for module in MODULES)
    + (("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unexplained_s", "s"))
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QSCT_SEED", None)          # would override the generated seeds
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


def invoke(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion; returns (exit code, wall seconds, peak RSS in MB).

    The child is killed when the deadline passes, and always reaped.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class WorkloadRun:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def _record(self, label: str, problems: list[str], log: Path) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{self.workload.name}: {label} failed: {'; '.join(problems[:3])}\n{tail}",
                  file=sys.stderr)

    def setup(self) -> float:
        """Fresh interpreter: import qsct and validate the config."""
        self._count += 1
        log = self.work / f"setup-{self._count}.log"
        code, wall, _ = invoke([sys.executable, "-c", SETUP_CODE, str(self.config)],
                               log, self.deadline)
        self._record("setup", [f"exit code {code}"] if code else [], log)
        return wall

    def run(self, traced: bool) -> dict:
        """One checked `qsct run` invocation; returns its figures."""
        self._count += 1
        out = self.work / f"out-{self._count}"
        spans_path = self.work / f"spans-{self._count}.json"
        log = self.work / f"run-{self._count}.log"
        qsct_args = ["run", "--config", str(self.config), "--out", str(out),
                     "--jobs", str(self.workload.jobs)]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--", *qsct_args]
        else:
            argv = [sys.executable, "-m", "qsct.cli", *qsct_args]
        code, wall, rss = invoke(argv, log, self.deadline)
        problems = check_run(self.workload, out, code)
        figures = {"wall_s": wall, "peak_rss_mb": rss}
        if traced and not problems:
            try:
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                problems.append(f"spans unreadable: {exc}")
            else:
                figures.update(analyze(spans, self.workload.register_dims))
                figures["cli.output_bytes"] = sum(
                    f.stat().st_size for f in out.rglob("*") if f.is_file())
        self._record("traced run" if traced else "run", problems, log)
        shutil.rmtree(out, ignore_errors=True)
        return figures


def measure(workload: Workload, seconds: float, trace: bool, work: Path,
            deadline: float) -> tuple[dict[str, float], dict[str, list[float]], WorkloadRun]:
    """Run one mode for `seconds`; returns (metrics, samples behind them, counters)."""
    bench = WorkloadRun(workload, work, deadline)
    bench.setup()                           # fills the bytecode cache; time not used

    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        if trace:
            plain.append(bench.run(traced=False))
            traced.append(bench.run(traced=True))
        else:
            setups.extend(bench.setup() for _ in range(SETUPS_PER_ROUND))
            plain.append(bench.run(traced=False))
        now = time.monotonic()
        rounds.append(now - begun)
        if now - start + statistics.median(rounds) > seconds or now > deadline:
            break

    if not trace:
        samples = {"wall_s": [f["wall_s"] for f in plain],
                   "peak_rss_mb": [f["peak_rss_mb"] for f in plain],
                   "setup_s": setups}
        return {name: statistics.median(samples[name]) for name, _ in END_TO_END}, samples, bench

    runs = [dict(f, **{"trace.wall_s": f["wall_s"],
                       "trace.unexplained_s": f["wall_s"] - sum(
                           f.get(f"{m}.charged_s", 0.0) for m in MODULES)})
            for f in traced if "cli.main.calls" in f]
    samples = {name: [run.get(name, 0.0) for run in runs] for name, _ in PER_LAYER}
    samples["trace.wall_s"] = [f["wall_s"] for f in traced]
    samples["trace.overhead_s"] = [f["wall_s"] - p["wall_s"] for f, p in zip(traced, plain)]
    metrics = {name: statistics.median(values) if values else 0.0
               for name, values in samples.items()}
    metrics["trace.overhead_s"] = (statistics.median(samples["trace.wall_s"])
                                   - statistics.median(f["wall_s"] for f in plain))
    return metrics, samples, bench


def describe(workload: str, trace: bool, metrics: dict, samples: dict, bench: WorkloadRun) -> None:
    units = dict(PER_LAYER if trace else END_TO_END)
    print(f"== {workload} ({'traced' if trace else 'untraced'}; "
          f"{bench.attempted} attempted, {bench.failed} failed)")
    for name, value in metrics.items():
        values = samples.get(name) or [value]
        q1, q3 = quartiles(values)
        print(f"  {name:40s} {value:14.6g} {units[name]:6s} n={len(values):<3d} "
              f"q1={q1:.6g} q3={q3:.6g}")
    print(f"  {'failed_frac':40s} {bench.failed / max(bench.attempted, 1):14.6g} 1      "
          f"n={bench.attempted}")
    charged = {m: metrics.get(f"{m}.charged_s", 0.0) for m in MODULES}
    total = sum(charged.values())
    if trace and total > 0:
        shares = ", ".join(f"{m} {100 * v / total:.1f}%" for m, v in
                           sorted(charged.items(), key=lambda item: -item[1]))
        print(f"  module shares of traced time (numpy decompositions charged to the qsct "
              f"call that issued them): {shares}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> tuple[dict, int, int]:
    """Measure one workload; prints its report and returns (metrics, attempted, failed)."""
    workload = BUILDERS[name](seed, small)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        metrics, samples, bench = measure(workload, seconds, trace, work,
                                          time.monotonic() + HARD_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                          # another run still uses it
    describe(name, trace, metrics, samples, bench)
    return metrics, bench.attempted, bench.failed


def environment() -> dict:
    """Environment block, taken in a child with the same settings as the runs."""
    proc = subprocess.run([sys.executable, str(BENCH / "envinfo.py")], cwd=ROOT, env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"environment probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def smoke() -> int:
    """Every workload at a tiny size, once per mode; metric names and units must
    match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, declared_key, units in ((False, "end_to_end", END_TO_END),
                                       (True, "per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[declared_key]}
        if declared != dict(units):
            problems.append(f"{declared_key} in BENCHMARK.json does not match the metrics printed")
        for name in BUILDERS:
            metrics, attempted, failed = run_workload(name, 0, 0.0, trace, small=True)
            line = result_line(failed == 0, attempted, failed, metrics, dict(units))
            print(f"{name} trace={int(trace)}: {line}")
            printed = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
            if printed != declared:
                problems.append(f"{name} trace={int(trace)}: printed metrics differ from "
                                f"BENCHMARK.json {declared_key}")
            if failed:
                problems.append(f"{name} trace={int(trace)}: {failed} of {attempted} failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size and check the metric names")
    args = parser.parse_args(argv)
    if not (SRC / "qsct" / "cli.py").is_file():
        print(f"bench: no qsct sources at {SRC / 'qsct'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = environment()
    if env["qsct"] != os.path.join("src", "qsct"):
        print(f"bench: imported qsct from {env['qsct']}, not from src/qsct", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    trace = bool(args.trace)
    units = dict(PER_LAYER if trace else END_TO_END)
    names = list(BUILDERS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, trace) for name in names]
    attempted = sum(r[1] for r in results)
    failed = sum(r[2] for r in results)
    if len(names) == 1:
        metrics = results[0][0]
    else:
        metrics = {f"{name}.{key}": value
                   for name, (m, _, _) in zip(names, results) for key, value in m.items()}
        units = {f"{name}.{key}": unit for name in names for key, unit in units.items()}
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
