import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import qsct
from qsct.chain import ChainSpec
from qsct.cli import _environment, _records_csv, config_digest, main, parse_config
from qsct.conformance import (
    _conformance_csv,
    _conformance_md,
    average_fidelity_comparison,
    conformance_closed_forms,
)
from qsct.protocol import ConfigError, ExperimentConfig, NoiseSpec, TransferRecord, run_experiment
from qsct.workers import worker_map

ROOT3 = 1.0 / math.sqrt(3.0)

BASE_CONFIG = {
    "chain": {"d": 3, "nodes": 2},
    "input_amplitudes": [[ROOT3, 0.0], [ROOT3, 0.0], [ROOT3, 0.0]],
    "steps": 8,
}

NOISY_CONFIG = dict(BASE_CONFIG, noise={
    "kind": "phase_damping", "topology": "interleaved", "p": 0.85,
})


def _write_config(tmp_path, obj, name="config.json", text=None):
    path = tmp_path / name
    path.write_text(text if text is not None else json.dumps(obj))
    return path


def test_run_noiseless_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ("step,time,ccnr,ccnr_amplified_margin,concurrence,"
                        "transfer_probability,fidelity_to_input,gamma_ok")
    # the columns are TransferRecord's fields, in their declared order
    assert lines[0].split(",") == [f.name for f in dataclasses.fields(TransferRecord)]
    assert len(lines) == 10  # header + steps+1 records
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[-1] in ("true", "false")
    # 17 digits after the decimal point in scientific notation
    assert len(first[1].split("e")[0].split(".")[1]) == 17
    assert not (out / "reference.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert manifest["output_paths"] == ["results.csv"]
    assert manifest["seed"] == 0
    assert len(manifest["config_digest"]) == 64


def test_records_csv_matches_per_value_formatting():
    # the row template against formatting each value on its own, on values
    # at the edges of the float range, numpy scalars and both flag values
    floats = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.0 / 3.0,
              np.float64(math.pi), np.float64(-1e-300), 1, 0.1 + 0.2]
    records = [TransferRecord(step, floats[step % 9], *floats[step % 3:step % 3 + 5],
                              gamma_ok=flag)
               for step, flag in zip([0, 1, np.int64(2), 3, 17], [True, False, np.True_,
                                                                   np.False_, True])]
    expected = ["step,time,ccnr,ccnr_amplified_margin,concurrence,"
                "transfer_probability,fidelity_to_input,gamma_ok"]
    for rec in records:
        expected.append(",".join(
            [str(rec.step)] + [format(float(getattr(rec, f.name)), ".17e")
                               for f in dataclasses.fields(TransferRecord) if f.type == "float"]
            + ["true" if rec.gamma_ok else "false"]))
    assert _records_csv(records) == "\n".join(expected) + "\n"


def test_run_noisy_emits_reference(tmp_path):
    cfg = _write_config(tmp_path, NOISY_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    results = (out / "results.csv").read_text().splitlines()
    reference = (out / "reference.csv").read_text().splitlines()
    assert len(results) == len(reference) == 10
    assert any(line.endswith(",false") for line in results[1:])
    assert all(line.endswith(",true") for line in reference[1:])


def test_run_rejects_unnormalized_amplitudes(tmp_path, capsys):
    bad = dict(BASE_CONFIG, input_amplitudes=[[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    cfg = _write_config(tmp_path, bad)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "input_amplitudes" in capsys.readouterr().err


def test_run_rejects_unknown_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, dict(BASE_CONFIG, tsteps=8))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "tsteps" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "out")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_run_malformed_json(tmp_path, capsys):
    cfg = _write_config(tmp_path, None, text="{not json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: --config: ")


def test_run_config_that_is_a_directory(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --config: ") and "is a directory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "conformance"])
@pytest.mark.parametrize("below", [False, True])
def test_out_that_is_a_file(tmp_path, capsys, command, below):
    # --out names an existing file, or a directory below one
    blocker = tmp_path / "taken"
    blocker.write_text("keep me")
    out = blocker / "out" if below else blocker
    args = ["--out", str(out)]
    if command == "run":
        args += ["--config", str(_write_config(tmp_path, BASE_CONFIG))]
    assert main([command, *args]) == 2
    assert capsys.readouterr().err.startswith("config error: --out: ")
    assert blocker.read_text() == "keep me"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("config, blocked, message", [
    # a file where a point's directory goes, in a sweep of three
    ([BASE_CONFIG, NOISY_CONFIG, dict(BASE_CONFIG, seed=2)], "point-001", "not a directory"),
    # a directory where a point's file goes
    ([BASE_CONFIG, NOISY_CONFIG, dict(BASE_CONFIG, seed=2)], "point-000/results.csv",
     "is a directory"),
    # a directory where the manifest, or its temporary file, goes
    (BASE_CONFIG, "manifest.json", "is a directory"),
    (BASE_CONFIG, ".manifest.json.tmp", "is a directory"),
])
def test_blocked_out_destination_is_refused_before_any_move(tmp_path, capsys, jobs, config,
                                                             blocked, message):
    # every destination is checked before the first file is moved: exit 2,
    # naming --out, and --out holds only what it held before
    out = tmp_path / "out"
    path = out / blocked
    if message == "not a directory":
        out.mkdir()
        path.write_text("keep me")
    else:
        path.mkdir(parents=True)
    before = sorted(out.rglob("*"))
    assert main(["run", "--config", str(_write_config(tmp_path, config)), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"config error: --out: {path}: {message}\n"
    assert sorted(out.rglob("*")) == before


@pytest.mark.parametrize("blocked", ["conformance.csv", "conformance.md",
                                     ".conformance.csv.tmp", ".conformance.md.tmp"])
def test_blocked_conformance_destination_writes_nothing(tmp_path, capsys, blocked):
    # a directory where a report file, or its temporary file, goes: both
    # files are checked before the first is written, so the report exits 2,
    # naming --out, and --out holds only that directory
    out = tmp_path / "out"
    path = out / blocked
    path.mkdir(parents=True)
    assert main(["conformance", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: --out: {path}: is a directory\n"
    assert sorted(out.rglob("*")) == [path]


def test_run_numerical_failure_exit_code(tmp_path, monkeypatch):
    def boom(config, prepared=None):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr("qsct.cli.run_experiment", boom)
    cfg = _write_config(tmp_path, BASE_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "results.csv").exists()


def test_run_determinism_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, NOISY_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "reference.csv").read_bytes() == (out2 / "reference.csv").read_bytes()


def test_config_digest_ignores_whitespace(tmp_path):
    compact = _write_config(tmp_path, BASE_CONFIG, name="compact.json")
    spaced = _write_config(tmp_path, None, name="spaced.json",
                           text=json.dumps(BASE_CONFIG, indent=4))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(compact), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(spaced), "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "manifest.json").read_text())["config_digest"]
    d2 = json.loads((out2 / "manifest.json").read_text())["config_digest"]
    assert d1 == d2


# d=3 on three nodes: the register-wide Weyl table is 27 x 27
GLOBAL_WEYL_CONFIG = dict(BASE_CONFIG, chain={"d": 3, "nodes": 3}, noise={
    "kind": "weyl", "topology": "global_after",
    "pi": [[0.9 + 0.1 / 729 if (i, j) == (0, 0) else 0.1 / 729 for j in range(27)]
           for i in range(27)],
})
DIGEST_INPUTS = [BASE_CONFIG, [BASE_CONFIG, NOISY_CONFIG], GLOBAL_WEYL_CONFIG]


def _subprocess_env() -> dict:
    """The environment with the qsct under test first on PYTHONPATH."""
    src = str(Path(qsct.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.mark.parametrize("obj", DIGEST_INPUTS, ids=["single", "sweep", "global-weyl"])
def test_config_digest_is_sha256_of_canonical_json(obj):
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert config_digest(obj) == hashlib.sha256(canonical.encode()).hexdigest()


def test_config_digest_hashlib_fallback():
    # with neither built-in module importable the digest comes from hashlib,
    # and is the same
    script = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import qsct.cli\n"
        "assert qsct.cli._sha256 is hashlib.sha256\n"
        "print(json.dumps([qsct.cli.config_digest(o) for o in json.loads(sys.stdin.read())]))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], input=json.dumps(DIGEST_INPUTS),
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [config_digest(obj) for obj in DIGEST_INPUTS]


WEYL_DENSE_CONFIG = dict(BASE_CONFIG, noise={
    "kind": "weyl", "topology": "interleaved",
    "pi": [[0.8, 0.05, 0.0], [0.1, 0.0, 0.0], [0.05, 0.0, 0.0]],
})


def test_run_path_footprint(tmp_path):
    # a single config and a sweep (a sector point and a dense Weyl point) at
    # --jobs 1 load neither OpenSSL, concurrent.futures, numpy.ma (about
    # 1.4 MB, which a plain np.unique imports) nor the worker map;
    # the same sweep at --jobs 2 runs on two workers, still without
    # concurrent.futures, and writes the same files. No run loads the
    # conformance report's module; `conformance` loads it and writes what the
    # library renders. Every module of the package is loaded by one of these
    # commands or `pst`: none is left that only the tests read.
    single = _write_config(tmp_path, NOISY_CONFIG, name="single.json")
    sweep = _write_config(tmp_path, [NOISY_CONFIG, WEYL_DENSE_CONFIG], name="sweep.json")
    script = (
        "import json, sys\n"
        "from qsct.cli import main\n"
        "single, sweep, out = sys.argv[1:]\n"
        "report = ('qsct.conformance',)\n"
        "assert main(['run', '--config', single, '--out', out + '/single']) == 0\n"
        "assert main(['run', '--config', sweep, '--out', out + '/jobs1', '--jobs', '1']) == 0\n"
        "heavy = ('_hashlib', '_ssl', 'concurrent.futures', 'qsct.workers', 'numpy.ma')\n"
        "loaded = sorted(name for name in heavy + report if name in sys.modules)\n"
        "assert main(['run', '--config', sweep, '--out', out + '/jobs2', '--jobs', '2']) == 0\n"
        "pool = [name in sys.modules for name in ('concurrent.futures',) + report]\n"
        "assert main(['pst', '--d', '3', '--nodes', '3']) == 0\n"
        "assert main(['conformance', '--out', out + '/conf']) == 0\n"
        "package = sorted(name for name in sys.modules if name.split('.')[0] == 'qsct')\n"
        "print(json.dumps([loaded, pool, 'qsct.conformance' in sys.modules, package]),\n"
        "      file=sys.stderr)\n"
    )
    run = subprocess.run([sys.executable, "-c", script, str(single), str(sweep), str(tmp_path)],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    loaded, pool, report_loaded, package = json.loads(run.stderr)
    assert loaded == []
    assert pool == [False, False]
    assert report_loaded
    sources = Path(qsct.__file__).parent.glob("*.py")
    assert package == sorted("qsct" if path.stem == "__init__" else f"qsct.{path.stem}"
                             for path in sources)
    jobs1, jobs2 = tmp_path / "jobs1", tmp_path / "jobs2"
    files = sorted(p.relative_to(jobs1) for p in jobs1.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(jobs2) for p in jobs2.rglob("*") if p.is_file())
    assert len(files) == 5
    for rel in files:
        if rel.name != "manifest.json":
            assert (jobs1 / rel).read_bytes() == (jobs2 / rel).read_bytes()
    assert json.loads((jobs1 / "manifest.json").read_text())["engine"] == ["sector", "dense"]
    report = conformance_closed_forms()
    assert (tmp_path / "conf" / "conformance.csv").read_text() == _conformance_csv(report)
    assert ((tmp_path / "conf" / "conformance.md").read_text()
            == _conformance_md(report, average_fidelity_comparison()))


def _assert_stage_timings(manifest: dict) -> None:
    timings = manifest["timings"]
    assert set(timings) == {"parse", "prepare", "points", "output"}
    assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, NOISY_CONFIG)),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["environment"]
    assert env["python"] == ".".join(str(v) for v in sys.version_info[:3])
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["thread_env"]["MKL_NUM_THREADS"] is None
    assert set(env["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
    _assert_stage_timings(manifest)
    # the environment and the timings change no byte of the CSVs, and
    # _environment loads no module
    records, reference = run_experiment(parse_config(NOISY_CONFIG))
    assert (out / "results.csv").read_bytes() == _records_csv(records).encode()
    assert (out / "reference.csv").read_bytes() == _records_csv(reference).encode()
    before = set(sys.modules)
    _environment()
    assert set(sys.modules) == before


def test_manifest_environment_without_blas_report(monkeypatch):
    # numpy older than 1.26: show_config takes no mode
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert _environment()["blas"] is None


def test_run_sweep_directories(tmp_path):
    sweep = [BASE_CONFIG, NOISY_CONFIG]
    cfg = _write_config(tmp_path, sweep)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "point-000" / "results.csv").exists()
    assert (out / "point-001" / "results.csv").exists()
    assert (out / "point-001" / "reference.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == [0, 0]
    assert "point-000/results.csv" in manifest["output_paths"]


# level shifts (rows m = 1, 2) move excitations out of the sector
SHIFTING_CONFIG = dict(BASE_CONFIG, noise={
    "kind": "weyl", "topology": "interleaved",
    "pi": [[0.8, 0.05, 0.0], [0.1, 0.0, 0.0], [0.05, 0.0, 0.0]],
})


def test_manifest_names_the_engine(tmp_path):
    sweep = [BASE_CONFIG, NOISY_CONFIG, SHIFTING_CONFIG]
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["engine"] == ["sector", "sector", "dense"]
    _assert_stage_timings(manifest)
    for i, entry in enumerate(sweep):
        # results.csv is what the library's records print as, with no engine in it
        records, _ = run_experiment(parse_config(entry))
        assert (out / f"point-{i:03d}" / "results.csv").read_bytes() == _records_csv(records).encode()
    for name, config, engine in (("noisy", NOISY_CONFIG, "sector"), ("shifting", SHIFTING_CONFIG, "dense")):
        single = tmp_path / name
        cfg = _write_config(tmp_path, config, name=f"{name}.json")
        assert main(["run", "--config", str(cfg), "--out", str(single)]) == 0
        assert json.loads((single / "manifest.json").read_text())["engine"] == engine


@pytest.mark.parametrize("d, nodes", [(2, 11), (6, 4)])
def test_run_global_phase_damping_past_the_double_range(tmp_path, d, nodes):
    # register dimension 2048 and 1296: the binomial weights C(D-1, i) of the
    # register-wide channel exceed the double range from D = 1031
    config = {"chain": {"d": d, "nodes": nodes}, "steps": 4, "bipartition": nodes // 2,
              "input_amplitudes": [0.6, 0.8] + [0.0] * (d - 2),
              "noise": {"kind": "phase_damping", "topology": "global_after", "p": 0.37}}
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, config)), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["engine"] == "sector"
    results = (out / "results.csv").read_text().splitlines()
    assert results[:-1] == (out / "reference.csv").read_text().splitlines()[:-1]


def _count_thread_starts(monkeypatch, limit: int) -> list:
    """The threads started from now on; a start past `limit` raises instead
    of starting a thread."""
    started, start = [], threading.Thread.start

    def counting_start(self):
        if len(started) == limit:
            raise RuntimeError(f"more than {limit} threads started")
        started.append(self)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def test_run_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    # three points on one chain: the chain is prepared on the caller, and
    # the points run on three workers, the caller and two threads, however
    # many --jobs asks for
    sweep = [BASE_CONFIG, NOISY_CONFIG, dict(BASE_CONFIG, steps=4)]
    cfg = _write_config(tmp_path, sweep)
    serial = tmp_path / "serial"
    assert main(["run", "--config", str(cfg), "--out", str(serial)]) == 0
    started = _count_thread_starts(monkeypatch, limit=2)
    for jobs in ("3", "1000000"):
        parallel = tmp_path / f"jobs{jobs}"
        started.clear()
        assert main(["run", "--config", str(cfg), "--out", str(parallel), "--jobs", jobs]) == 0
        assert len(started) == 2
        for sub in ("point-000", "point-001", "point-002"):
            assert ((serial / sub / "results.csv").read_bytes()
                    == (parallel / sub / "results.csv").read_bytes())


def test_worker_map_runs_each_item_once_in_order():
    # more workers than cores, each item yielding the interpreter lock and
    # threads switching as often as the interpreter allows: a lost update of
    # the shared claim would run an item twice or skip one
    calls, interval = [], sys.getswitchinterval()

    def square(i):
        calls.append(i)
        time.sleep(0)
        return i * i

    sys.setswitchinterval(1e-6)
    try:
        results = worker_map(6, square, range(2000))
    finally:
        sys.setswitchinterval(interval)
    assert results == [i * i for i in range(2000)]
    assert sorted(calls) == list(range(2000))


@pytest.mark.parametrize("sweep, starts", [
    ([BASE_CONFIG, NOISY_CONFIG, dict(BASE_CONFIG, steps=4)], 1),   # one chain
    ([BASE_CONFIG, NOISY_CONFIG,                                    # two chains
      dict(BASE_CONFIG, chain={"d": 2, "nodes": 3}, input_amplitudes=[0.6, 0.8])], 1),
], ids=["one-chain", "two-chains"])
def test_jobs_two_runs_points_on_the_caller(tmp_path, monkeypatch, sweep, starts):
    # --jobs 2 is the caller and one thread: every chain is prepared on the
    # caller, the points start one thread, and the caller runs points itself.
    # A thread's point waits for one of the caller's, so a fast thread cannot
    # take every point.
    caller, caller_ran, runners = threading.get_ident(), threading.Event(), []

    def recording(config, prepared=None):
        runners.append(threading.get_ident())
        if runners[-1] == caller:
            caller_ran.set()
        else:
            caller_ran.wait(timeout=5)
        return run_experiment(config, prepared)

    monkeypatch.setattr("qsct.cli.run_experiment", recording)
    started = _count_thread_starts(monkeypatch, limit=2)
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)),
                 "--out", str(tmp_path / "out"), "--jobs", "2"]) == 0
    assert len(started) == starts
    assert len(runners) == 3
    assert caller in runners
    assert set(runners) <= {caller, started[-1].ident}


@pytest.mark.parametrize("jobs", ["1", "2", "3"])
def test_sweep_failure_is_the_first_failing_point(tmp_path, monkeypatch, capsys, jobs):
    # points 1 and 2 fail with different messages and exit codes; point 1
    # fails only after point 2 has, yet the run reports point 1, as the
    # built-in map would. Point 0 takes no time, so at --jobs 2 a worker is
    # free to take point 2 while point 1 waits.
    point_two_failed = threading.Event()

    def failing(config, prepared=None):
        if config.seed == 1:
            if jobs != "1":
                assert point_two_failed.wait(timeout=10)
            raise ConfigError("point-001: refused")
        if config.seed == 2:
            point_two_failed.set()
            raise FloatingPointError("point-002: non-finite")
        return run_experiment(config, prepared)

    monkeypatch.setattr("qsct.cli.run_experiment", failing)
    sweep = [dict(BASE_CONFIG, seed=seed) for seed in range(3)]
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err == "config error: point-001: refused\n"
    assert list(out.iterdir()) == []


def test_no_point_is_claimed_after_a_failure(tmp_path, monkeypatch, capsys):
    # at --jobs 2 point 0 fails. Point 1 may have been claimed before that
    # failure, and then it returns only once the failing worker is done with
    # it: a thread has ended, or the caller has begun to join the others. No
    # later point is claimed, whichever worker failed.
    caller, failed, joining = threading.current_thread(), threading.Event(), threading.Event()
    failing_worker, claimed = [], []
    join = threading.Thread.join

    def noting_join(self, *args, **kwargs):
        joining.set()
        return join(self, *args, **kwargs)

    def gated(config, prepared=None):
        claimed.append(config.seed)
        if config.seed == 0:
            failing_worker.append(threading.current_thread())
            failed.set()
            raise FloatingPointError("non-finite")
        failed.wait(timeout=10)
        if failing_worker[0] is caller:
            joining.wait(timeout=10)
        else:
            failing_worker[0].join(timeout=10)
        return run_experiment(config, prepared)

    monkeypatch.setattr(threading.Thread, "join", noting_join)
    monkeypatch.setattr("qsct.cli.run_experiment", gated)
    sweep = [dict(BASE_CONFIG, seed=seed) for seed in range(4)]
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", "2"]) == 3
    assert capsys.readouterr().err == "numerical failure: point-000: non-finite\n"
    assert sorted(claimed) in ([0], [0, 1])
    assert list(out.iterdir()) == []


def test_run_plot_script_flag(tmp_path):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--plot-script"]) == 0
    script = (out / "plot_results.py").read_text()
    assert "matplotlib" in script
    assert "results.csv" in script
    # run it on the written CSV against a stub matplotlib whose calls do nothing
    stub = tmp_path / "stub" / "matplotlib"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "pyplot.py").write_text(
        "class _Any:\n"
        "    def __getattr__(self, name):\n"
        "        return lambda *args, **kwargs: None\n"
        "    def __getitem__(self, index):\n"
        "        return self\n"
        "def subplots(*args, **kwargs):\n"
        "    return _Any(), _Any()\n"
    )
    run = subprocess.run([sys.executable, str(out / "plot_results.py"), str(out / "results.csv")],
                         cwd=tmp_path, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(stub.parent)})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "wrote transfer.png\n"


def test_pst_output(capsys):
    assert main(["pst", "--d", "2", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("t_star"))
    value = float(line.split("=")[1])
    assert abs(value - math.pi) < 1e-6
    digits = line.split("=")[1].strip().replace(".", "").replace("-", "")
    assert len(digits) >= 10
    # every excited level hops on the same n x n matrix, so the one transfer
    # amplitude is printed once, with no per-level table
    keys = [line.split("=")[0].strip() for line in out.splitlines()]
    assert keys == ["d", "nodes", "t_star", "amplitude"]


def test_pst_qutrit_four_nodes(capsys):
    assert main(["pst", "--d", "3", "--nodes", "4"]) == 0
    out = capsys.readouterr().out
    amp = float(next(l for l in out.splitlines()
                     if l.startswith("amplitude")).split("=")[1])
    assert amp >= 1.0 - 1e-6
    assert len(out.splitlines()) == 4       # d, nodes, t_star, amplitude: no level rows


def test_pst_invalid_chain(capsys):
    # a refusal names the flag, not the JSON field that a config would name
    assert main(["pst", "--d", "2", "--nodes", "1"]) == 2
    assert capsys.readouterr().err == "config error: --nodes: chain needs at least 2 sites, got 1\n"
    assert main(["pst", "--d", "1", "--nodes", "3"]) == 2
    assert (capsys.readouterr().err
            == "config error: --d: local dimension must be at least 2, got 1\n")
    assert main(["pst", "--d", "2", "--nodes", "13"]) == 2
    assert (capsys.readouterr().err
            == "config error: --nodes: register dimension 2**13 exceeds the supported 4096\n")


@pytest.mark.parametrize("error", [FloatingPointError, np.linalg.LinAlgError])
def test_conformance_numerical_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    def failing():
        raise error("x")

    monkeypatch.setattr("qsct.conformance.conformance_closed_forms", failing)
    out = tmp_path / "conf"
    assert main(["conformance", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numerical failure: x\n"
    assert list(out.iterdir()) == []


def test_conformance_outputs(tmp_path):
    out = tmp_path / "conf"
    assert main(["conformance", "--out", str(out)]) == 0
    csv_lines = (out / "conformance.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert header[:6] == ["d", "alpha", "beta", "gamma", "a", "closed_form"]
    assert "dev_concurrence_a_t" in header
    assert len(csv_lines) == 1 + 6 * 41
    # a=0 anchor rows: closed form 1, purity deviation 0
    for line in csv_lines[1:]:
        cells = line.split(",")
        if float(cells[4]) == 0.0:
            assert abs(float(cells[5]) - 1.0) < 1e-12
            assert float(cells[11]) < 1e-12  # dev_purity_a_t
            assert float(cells[13]) < 1e-12  # dev_purity_a_2t
    md = (out / "conformance.md").read_text()
    assert "0.62702" in md
    assert "| 10 |" in md
    assert "0.666667" in md  # closed profile at p=1


def test_conformance_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["conformance", "--out", str(out1)]) == 0
    assert main(["conformance", "--out", str(out2)]) == 0
    assert ((out1 / "conformance.csv").read_bytes()
            == (out2 / "conformance.csv").read_bytes())
    assert ((out1 / "conformance.md").read_bytes()
            == (out2 / "conformance.md").read_bytes())


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["run"])  # missing required arguments
    assert info.value.code == 2


@pytest.mark.parametrize("topology", ["local_after", "global_after"])
def test_rows_before_the_channel_equal_the_reference(tmp_path, topology):
    config = dict(BASE_CONFIG, chain={"d": 2, "nodes": 4}, bipartition=2,
                  input_amplitudes=[[0.6, 0.0], [0.0, 0.8]],
                  noise={"kind": "phase_damping", "topology": topology, "p": 0.7})
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, config)), "--out", str(out)]) == 0
    results = (out / "results.csv").read_bytes().splitlines()
    reference = (out / "reference.csv").read_bytes().splitlines()
    assert len(results) == len(reference) == 10
    assert results[:-1] == reference[:-1]
    assert results[-1] != reference[-1]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, config", [
    ("input_amplitudes", dict(BASE_CONFIG, input_amplitudes=[NAN, 1.0, 0.0])),
    ("input_amplitudes", dict(BASE_CONFIG, input_amplitudes=[[1.0, 0.0], [0.0, INF], 0.0])),
    ("chain.couplings", dict(BASE_CONFIG, chain={"d": 3, "nodes": 3, "couplings": [NAN, 1.0]})),
    ("noise.p", dict(NOISY_CONFIG, noise=dict(NOISY_CONFIG["noise"], p=NAN))),
    ("noise.pi", dict(BASE_CONFIG, noise={"kind": "weyl", "topology": "local_after",
                                          "pi": [[1.0, 0.0, 0.0], [0.0, NAN, 0.0],
                                                 [0.0, 0.0, 0.0]]})),
    ("t_total", dict(BASE_CONFIG, t_total=INF)),
    ("gamma_tolerance", dict(BASE_CONFIG, gamma_tolerance=INF)),
])
def test_run_rejects_non_finite_numbers(tmp_path, capsys, field, config):
    cfg = _write_config(tmp_path, config)
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{field}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_run_non_finite_pst_scan_exit_code(tmp_path, capsys):
    config = dict(BASE_CONFIG, chain={"d": 2, "nodes": 3, "couplings": [1e308, 1e308]},
                  input_amplitudes=[0.6, 0.8])
    cfg = _write_config(tmp_path, config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "d=2, nodes=3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    cfg = _write_config(tmp_path, BASE_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 2
    # named by its flag, as every refused field is
    assert capsys.readouterr().err == f"config error: --jobs: expected at least 1, got {jobs}\n"
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_empty_sweep(tmp_path, capsys):
    cfg = _write_config(tmp_path, [])
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: config: empty sweep\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_refused_sweep_entry_creates_no_out(tmp_path, capsys, jobs):
    # every entry is parsed before --out is made
    sweep = [NOISY_CONFIG, dict(NOISY_CONFIG, noise=dict(NOISY_CONFIG["noise"], p=2.0))]
    cfg = _write_config(tmp_path, sweep)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--jobs", jobs]) == 2
    assert (capsys.readouterr().err
            == "config error: point-001: noise.p: expected a strength in [0, 1], got 2.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tmax", ["nan", "inf", "-1"])
def test_pst_rejects_bad_tmax(capsys, tmax):
    assert main(["pst", "--d", "2", "--nodes", "3", "--tmax", tmax]) == 2
    assert "--tmax" in capsys.readouterr().err


def test_pst_refuses_a_window_past_1999_periods(capsys):
    # [0, 1e6] spans about 640000 periods pi / 2 of the amplitude's fastest
    # component, past the 1999 that the search scans
    assert main(["pst", "--d", "4", "--nodes", "5", "--tmax", "1e6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --tmax: t_max = 1000000.0 exceeds the widest window ")
    assert err.endswith(": 1999 periods of its fastest component, "
                        "1999 * 2 pi / (max E - min E) = 3140.02\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_refusal_names_every_refused_point(tmp_path, capsys, jobs):
    # two points leave t_total open on a chain whose default window is
    # longer than the transfer-time search scans; the point that sets
    # t_total on another chain is not named
    too_wide = {"chain": {"d": 2, "nodes": 3, "couplings": [1000, 1000]},
                "input_amplitudes": [0.6, 0.8]}
    sweep = [{"chain": {"d": 2, "nodes": 3}, "input_amplitudes": [0.6, 0.8], "t_total": 1.0},
             too_wide, dict(too_wide, noise=DEPHASING)]
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: point-001, point-002: t_total: required for this chain, ")
    assert list(out.iterdir()) == []
    # a single config's message is the library's refusal, unprefixed
    single = tmp_path / "single"
    assert main(["run", "--config", str(_write_config(tmp_path, too_wide, name="one.json")),
                 "--out", str(single)]) == 2
    with pytest.raises(ConfigError) as refusal:
        run_experiment(parse_config(too_wide))
    assert capsys.readouterr().err == f"config error: {refusal.value}\n"
    assert refusal.value.configs == (0,)
    assert err == f"config error: point-001, point-002: {refusal.value}\n"
    assert list(single.iterdir()) == []


def test_run_refuses_a_default_window_past_1999_periods(tmp_path, capsys):
    config = dict(BASE_CONFIG, chain={"d": 2, "nodes": 3, "couplings": [1000.0, 1000.0]},
                  input_amplitudes=[0.6, 0.8])
    cfg = _write_config(tmp_path, config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: t_total: ")
    assert not (tmp_path / "out" / "results.csv").exists()


def test_pst_overflowing_phases_exit_code(capsys):
    assert main(["pst", "--d", "2", "--nodes", "5", "--tmax", "1e308"]) == 3
    assert "nodes=5" in capsys.readouterr().err


OVERFLOWING_CONFIG = dict(BASE_CONFIG, chain={"d": 2, "nodes": 3, "couplings": [1e308, 1e308]},
                          input_amplitudes=[0.6, 0.8])


def _assert_failing_sweep_leaves_no_partial_output(tmp_path, capsys, jobs, failing, code,
                                                   message):
    # failing is the list of a sweep's failing entries, or one failing single
    # config, which is held to the same rule
    single = isinstance(failing, dict)
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, failing if single else [BASE_CONFIG, *failing, NOISY_CONFIG])
    assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == code
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []

    # an earlier successful run in the same directory is left as it was, and
    # no staging directory or temporary file is left beside it
    good = _write_config(tmp_path, NOISY_CONFIG if single else [BASE_CONFIG, NOISY_CONFIG],
                         name="good.json")
    assert main(["run", "--config", str(good), "--out", str(out), "--jobs", jobs]) == 0
    before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == code
    after = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
    assert after == before
    assert not [p for p in after if p.name.startswith(".")]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failing_sweep_leaves_no_partial_output(tmp_path, capsys, jobs):
    _assert_failing_sweep_leaves_no_partial_output(tmp_path, capsys, jobs, [OVERFLOWING_CONFIG],
                                                   3, "d=2, nodes=3")


TOO_WIDE_CONFIG = dict(OVERFLOWING_CONFIG, chain={"d": 2, "nodes": 3, "couplings": [1000.0, 1000.0]})
LOST_PHASES_CONFIG = dict(OVERFLOWING_CONFIG, t_total=1.0, steps=2)
DEPHASING = {"kind": "phase_damping", "topology": "interleaved", "p": 0.9}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("failing, code, message", [
    # the default window of a twin that three points share is longer than
    # the transfer-time search scans; the refusal names all three
    ([TOO_WIDE_CONFIG, dict(TOO_WIDE_CONFIG, noise=DEPHASING), dict(TOO_WIDE_CONFIG, seed=3)],
     2, "config error: point-001, point-002, point-003: t_total: "),
    # the phases of the shared twin's reference lose their precision
    ([dict(LOST_PHASES_CONFIG, noise=DEPHASING), LOST_PHASES_CONFIG,
      dict(LOST_PHASES_CONFIG, noise=dict(DEPHASING, topology="local_after"))],
     3, "lose their precision"),
    # a single noisy config whose own twin's reference fails
    (dict(LOST_PHASES_CONFIG, noise=DEPHASING), 3, "lose their precision"),
], ids=["too-wide-window", "overflowing", "single"])
def test_failing_shared_twin_leaves_no_partial_output(tmp_path, capsys, jobs, failing, code,
                                                      message):
    _assert_failing_sweep_leaves_no_partial_output(tmp_path, capsys, jobs, failing, code, message)


# A broken link: node 3 is cut off, so the end-to-end amplitude is 0 at
# every time and there is no transfer time to search for.
BROKEN_CHAIN = {"chain": {"d": 3, "nodes": 3, "couplings": [1.0, 0.0]},
                "input_amplitudes": [0.6, 0.0, 0.8], "steps": 4, "bipartition": "endpoints"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_refuses_a_chain_that_never_transfers(tmp_path, capsys, jobs):
    single = tmp_path / "single"
    assert main(["run", "--config", str(_write_config(tmp_path, BROKEN_CHAIN, name="one.json")),
                 "--out", str(single)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_total: required for this chain, ")
    assert "couplings=[1.0, 0.0]" in err and "does not transfer" in err
    assert list(single.iterdir()) == []
    # a sweep names every point that leaves t_total open, and not the one that sets it
    sweep = [BROKEN_CHAIN, dict(BROKEN_CHAIN, t_total=2.0), dict(BROKEN_CHAIN, noise=DEPHASING)]
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert capsys.readouterr().err == err.replace("config error: ",
                                                  "config error: point-000, point-002: ")
    assert list(out.iterdir()) == []


def test_run_refuses_a_link_too_weak_to_transfer(tmp_path, capsys):
    # |amplitude| stays near 2e-9, below PST_FLOOR: less than eps of the
    # weight ever arrives, so there is no transfer time; with t_total it runs
    weak = dict(BROKEN_CHAIN, chain={"d": 3, "nodes": 3, "couplings": [1.0, 1e-9]})
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, weak)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_total: required for this chain, ")
    assert "couplings=[1.0, 1e-09]" in err and "does not transfer" in err
    assert list(out.iterdir()) == []
    config = _write_config(tmp_path, dict(weak, t_total=2.0), name="timed.json")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert len((out / "results.csv").read_text().splitlines()) == 6


@pytest.mark.parametrize("noise", [None, DEPHASING, SHIFTING_CONFIG["noise"]])
def test_a_chain_that_never_transfers_runs_with_t_total(tmp_path, noise):
    # a broken link is a deviation to detect: with t_total given it runs, and
    # nothing ever reaches the last node
    config = dict(BROKEN_CHAIN, t_total=2.0, **({} if noise is None else {"noise": noise}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, config)), "--out", str(out)]) == 0
    name = "results.csv" if noise is None else "reference.csv"
    rows = list(csv.DictReader((out / name).read_text().splitlines()))
    assert len(rows) == 5
    assert all(float(row["transfer_probability"]) == 0.0 for row in rows)


# A sweep whose points repeat noiseless twins: two amplitude sets on the
# qutrit chain, t_total left open and set, the endpoint pair and cut 1, each
# noiseless and under phase damping and interleaved Weyl noise with shifts
# (the dense engine); the points of two qubit chains, which differ only in
# their couplings, sit among them.
QUBIT_CHAIN = {"chain": {"d": 2, "nodes": 3}, "input_amplitudes": [0.6, 0.8], "steps": 4,
               "bipartition": "endpoints"}


def _twin_sweep():
    entries = []
    for amps in ([0.6, 0.0, 0.8], [[0.0, 0.6], [0.8, 0.0], 0.0]):
        for extra in ({}, {"t_total": 2.0}):
            for cut in ("endpoints", 1):
                twin = dict(BASE_CONFIG, chain={"d": 3, "nodes": 3}, input_amplitudes=amps,
                            steps=4, bipartition=cut, **extra)
                entries += [dict(twin, noise=DEPHASING),
                            dict(twin, noise=SHIFTING_CONFIG["noise"], seed=7), twin,
                            dict(twin, noise=dict(DEPHASING, topology="local_after"))]
        entries += [dict(QUBIT_CHAIN, noise={"kind": "weyl", "topology": "interleaved",
                                             "pi": [[0.9, 0.0], [0.1, 0.0]]}), QUBIT_CHAIN,
                    dict(QUBIT_CHAIN, chain=dict(QUBIT_CHAIN["chain"], couplings=[0.5, 1.0]),
                         t_total=1.5)]
    return entries


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_points_match_their_single_runs(tmp_path, jobs):
    sweep = _twin_sweep()
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 0
    for i, entry in enumerate(sweep):
        single = tmp_path / f"single-{i}"
        cfg = _write_config(tmp_path, entry, name=f"single-{i}.json")
        assert main(["run", "--config", str(cfg), "--out", str(single)]) == 0
        names = sorted(p.name for p in single.iterdir() if p.name != "manifest.json")
        assert names == (["reference.csv", "results.csv"] if "noise" in entry else ["results.csv"])
        assert sorted(p.name for p in (out / f"point-{i:03d}").iterdir()) == names
        for name in names:
            assert (out / f"point-{i:03d}" / name).read_bytes() == (single / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_writes_each_file_once(tmp_path, monkeypatch, jobs):
    # each file is written once, flat in the staging directory, and moved
    # once into its point directory: one directory per point besides the
    # staging one, one rename per file besides the manifest's, and nothing
    # hidden left behind
    import os

    sweep = _twin_sweep()
    calls = {"mkdir": 0, "replace": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(os, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(os, name, counting)
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 0
    files = json.loads((out / "manifest.json").read_text())["output_paths"]
    assert calls == {"mkdir": 2 + len(sweep), "replace": len(files) + 1}
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"point-{i:03d}" for i in range(len(sweep))] + ["manifest.json"])
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == sorted(
        files + ["manifest.json"])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_shares_each_chain(tmp_path, monkeypatch, jobs):
    import qsct.protocol

    sweep = _twin_sweep()
    spectra, searches, eighs = [], [], []
    spectrum_class, find, eigh = qsct.protocol.Spectrum, qsct.protocol.find_pst_time, np.linalg.eigh

    def counting_spectrum(spec):
        spectra.append(spectrum_class(spec))
        return spectra[-1]

    def counting_find(spectrum, **kwargs):
        # the search is handed a Spectrum the run built, never a chain
        assert any(spectrum is built for built in spectra)
        searches.append((spectrum.spec.d, spectrum.spec.n))
        return find(spectrum, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(qsct.protocol, "Spectrum", counting_spectrum)
    monkeypatch.setattr(qsct.protocol, "find_pst_time", counting_find)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 0
    assert sorted((s.spec.d, s.spec.n) for s in spectra) == [(2, 3), (2, 3), (3, 3)]
    assert sorted(searches) == [(2, 3), (3, 3)]
    # each Spectrum's J (3 x 3), then each partition of n = 3 that a step
    # needs, once per chain however many points step it: (1, 1, 1) (6 x 6),
    # which only the qutrit chain's dense points reach. The vacuum's 1 x 1
    # block is held beside J, so no step diagonalises it
    assert sorted(eighs) == [3, 3, 3, 6]


def _poison_sector_measures(monkeypatch, poisoned):
    """qsct.protocol.sector_measures with the last state's ccnr set to NaN in
    each stack for which poisoned(states) holds: a value measure must refuse."""
    measures = qsct.protocol.sector_measures

    def poisoning(states, *args, **kwargs):
        values = measures(states, *args, **kwargs)
        if poisoned(states):
            values = (np.where(np.arange(len(states)) == len(states) - 1, math.nan, values[0]),
                      *values[1:])
        return values

    monkeypatch.setattr(qsct.protocol, "sector_measures", poisoning)


def test_non_finite_reference_writes_no_results(tmp_path, monkeypatch, capsys):
    # the twin's last ket measures NaN: measure refuses it as the twin is prepared
    _poison_sector_measures(monkeypatch, lambda states: states.ndim == 2)
    cfg = _write_config(tmp_path, NOISY_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite value in step 8" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_run_refuses_lost_phase_precision(tmp_path, capsys):
    # finite but meaningless phases: |E t| ~ 1e308 at t_total = 1
    cfg = _write_config(tmp_path, dict(OVERFLOWING_CONFIG, t_total=1.0, steps=2))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "lose their precision" in err and "d=2, nodes=3" in err
    assert list((tmp_path / "out").iterdir()) == []


PST_CHAIN = {"chain": {"d": 2, "nodes": 3}, "input_amplitudes": [0.6, 0.8]}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_numerical_failure_names_its_twin(tmp_path, capsys, jobs):
    # point 1's twin loses its phases at t_total = 1e300; point 0 shares its
    # chain and is prepared first, and runs
    single = tmp_path / "single"
    failing = dict(PST_CHAIN, t_total=1e300)
    assert main(["run", "--config", str(_write_config(tmp_path, failing, name="one.json")),
                 "--out", str(single)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: transfer phases exp(-i E t) lose their precision "
                          "at t = 1e+300 ")
    out = tmp_path / "out"
    sweep = [PST_CHAIN, failing, dict(failing, noise=DEPHASING), dict(PST_CHAIN, seed=4)]
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 3
    assert capsys.readouterr().err == err.replace("numerical failure: ",
                                                  "numerical failure: point-001, point-002: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_non_finite_reference_names_its_twin(tmp_path, monkeypatch, capsys, jobs):
    # only the d = 3, n = 2 twin's kets (5 sector states) measure NaN; PST_CHAIN's
    # twin (4 sector states) is measured first, and is not refused
    _poison_sector_measures(monkeypatch, lambda states: states.shape == (9, 5))
    sweep = [PST_CHAIN, BASE_CONFIG, NOISY_CONFIG]
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 3
    assert capsys.readouterr().err == ("numerical failure: point-001, point-002: "
                                       "non-finite value in step 8\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("error", ["non-finite", "raised"])
def test_sweep_numerical_failure_names_the_earliest_failing_point(tmp_path, monkeypatch, capsys,
                                                                  jobs, error):
    # points 2 and 3 fail, each either with a non-finite record or by raising;
    # a non-finite record is one whose sector rho measures NaN, on the thread
    # that runs point 2 or 3 only
    failing_here = threading.local()

    def failing(config, prepared=None):
        if config.seed in (2, 3):
            if error == "raised":
                raise np.linalg.LinAlgError(f"seed {config.seed}")
            failing_here.on = True
        try:
            return run_experiment(config, prepared)
        finally:
            failing_here.on = False

    _poison_sector_measures(monkeypatch, lambda states: (states.ndim == 3
                                                         and getattr(failing_here, "on", False)))
    monkeypatch.setattr("qsct.cli.run_experiment", failing)
    sweep = [dict(NOISY_CONFIG, seed=seed) for seed in range(4)]
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", jobs]) == 3
    message = "non-finite value in step 8" if error == "non-finite" else "seed 2"
    assert capsys.readouterr().err == f"numerical failure: point-002: {message}\n"
    assert list(out.iterdir()) == []


def test_manifest_records_the_pst_amplitude(tmp_path):
    # the engineered chain transfers perfectly at its searched time; a
    # config that gives t_total searches nothing
    amplitudes = {}
    for name, config in (("searched", PST_CHAIN), ("given", dict(PST_CHAIN, t_total=2.0))):
        out = tmp_path / name
        assert main(["run", "--config", str(_write_config(tmp_path, config)),
                     "--out", str(out)]) == 0
        amplitudes[name] = json.loads((out / "manifest.json").read_text())["pst_amplitude"]
    assert abs(amplitudes["searched"] - 1.0) <= 1e-9
    assert amplitudes["given"] is None
    sweep = [PST_CHAIN, dict(PST_CHAIN, t_total=2.0), dict(PST_CHAIN, noise=DEPHASING),
             dict(PST_CHAIN, chain={"d": 3, "nodes": 4}, input_amplitudes=[0.6, 0.0, 0.8])]
    out = tmp_path / "sweep"
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out),
                 "--jobs", "2"]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["pst_amplitude"]
    assert len(recorded) == len(sweep)
    assert recorded[0] == recorded[2] == amplitudes["searched"]
    assert recorded[1] is None
    assert abs(recorded[3] - 1.0) <= 1e-9


@pytest.mark.parametrize("pi, match", [
    ([[0.5, 0.5], [0.5, 0.5]], "sum to 1"),
    ([[1.5, -0.5], [0.0, 0.0]], "probabilities"),
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "2x2"),
    ([1.0, 0.0], "nested list"),
    ([[1.0], [0.0, 0.0]], "square"),
])
def test_run_refuses_bad_weyl_table_before_evolving(tmp_path, capsys, monkeypatch, pi, match):
    def no_run(*args, **kwargs):
        raise AssertionError("evolution started")

    monkeypatch.setattr("qsct.cli.prepare_references", no_run)
    monkeypatch.setattr("qsct.cli.run_experiment", no_run)
    config = dict(OVERFLOWING_CONFIG, chain={"d": 2, "nodes": 3},
                  noise={"kind": "weyl", "topology": "local_after", "pi": pi})
    cfg = _write_config(tmp_path, config)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "noise.pi" in err and match in err


# One validation layer: a bad value is refused by the dataclasses with a
# message that begins with its JSON field, and `qsct run` on the same JSON
# exits 2 with that message.
PARITY_BASE = {"chain": {"d": 2, "nodes": 3}, "input_amplitudes": [0.6, 0.8], "steps": 4}
PHASE_DAMPING = {"kind": "phase_damping", "topology": "interleaved", "p": 0.9}
WEYL = {"kind": "weyl", "topology": "local_after", "pi": [[1.0, 0.0], [0.0, 0.0]]}


def _chain(**fields):
    return {"chain": dict(PARITY_BASE["chain"], **fields)}


@pytest.mark.parametrize("field, change", [
    ("chain.d", _chain(d=3.0)),
    ("chain.d", _chain(d="3")),
    ("chain.d", _chain(d=True)),
    ("chain.nodes", _chain(nodes=3.5)),
    ("chain.couplings", _chain(couplings="ab")),
    ("chain.couplings", _chain(couplings=[True, 1])),
    ("input_amplitudes", {"input_amplitudes": ["0.6", 0.8]}),
    ("input_amplitudes", {"input_amplitudes": [[1, 2, 3], 0.8]}),
    ("steps", {"steps": 2.0}),
    ("steps", {"steps": "8"}),
    ("t_total", {"t_total": "1"}),
    ("t_total", {"t_total": True}),
    ("bipartition", {"bipartition": True}),
    ("bipartition", {"bipartition": 1.7}),
    ("bipartition", {"bipartition": 0}),
    ("gamma_tolerance", {"gamma_tolerance": True}),
    ("seed", {"seed": 3.7}),
    ("seed", {"seed": True}),
    ("noise.p", {"noise": dict(PHASE_DAMPING, p="0.5")}),
    ("noise.p", {"noise": dict(PHASE_DAMPING, p=True)}),
    ("noise.pi", {"noise": dict(WEYL, pi=[["1", "0"], ["0", "0"]])}),
    ("noise.pi", {"noise": dict(PHASE_DAMPING, pi=WEYL["pi"])}),
    ("noise.p", {"noise": dict(WEYL, p=0.9)}),
])
def test_library_and_cli_refuse_alike(tmp_path, capsys, field, change):
    config = dict(PARITY_BASE, **change)
    rest = {k: v for k, v in config.items() if k not in ("chain", "noise")}
    chain, noise = config["chain"], config.get("noise")
    with pytest.raises(ConfigError) as refused:
        ExperimentConfig(
            chain=ChainSpec(d=chain["d"], n=chain["nodes"], couplings=chain.get("couplings")),
            noise=None if noise is None else NoiseSpec(**noise),
            **rest,
        )
    message = str(refused.value)
    assert message.startswith(f"{field}: ")
    out = tmp_path / "out"
    assert main(["run", "--config", str(_write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("point, entry, message", [
    (1, dict(NOISY_CONFIG, noise=dict(NOISY_CONFIG["noise"], p=1.5)),
     "noise.p: expected a strength in [0, 1], got 1.5"),
    (2, 7, "config: expected a JSON object"),
], ids=["out-of-range", "not-an-object"])
def test_refused_sweep_entry_names_its_point(tmp_path, capsys, point, entry, message):
    # alone, the entry is refused with the message a library caller sees; in
    # a sweep the same message names its point, and nothing is written
    alone = _write_config(tmp_path, entry, name="alone.json")
    assert main(["run", "--config", str(alone), "--out", str(tmp_path / "alone")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    sweep = [BASE_CONFIG, NOISY_CONFIG, BASE_CONFIG]
    sweep[point] = entry
    out = tmp_path / "out"
    out.mkdir()
    assert main(["run", "--config", str(_write_config(tmp_path, sweep)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: point-{point:03d}: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text, message", [
    # past Python's digit limit for int parsing, which json.loads enforces
    ('{"chain": {"d": ' + "1" * 5000 + ', "nodes": 2}}', "digits"),
    # refused without computing (or printing) 2**1000000000
    (json.dumps(dict(BASE_CONFIG, chain={"d": 2, "nodes": 10**9})),
     "chain.nodes: register dimension 2**1000000000 exceeds"),
])
def test_run_refuses_huge_integers(tmp_path, capsys, text, message):
    cfg = _write_config(tmp_path, None, text=text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_main_leaves_the_collector_alone(tmp_path):
    # main() is the in-process API: neither a single run nor a parallel sweep
    # pauses the collector or freezes the heap; only the executable's entry does
    before = (gc.isenabled(), gc.get_freeze_count())
    single = _write_config(tmp_path, NOISY_CONFIG, name="single.json")
    sweep = _write_config(tmp_path, [NOISY_CONFIG, WEYL_DENSE_CONFIG], name="sweep.json")
    assert main(["run", "--config", str(single), "--out", str(tmp_path / "single")]) == 0
    assert main(["run", "--config", str(sweep), "--out", str(tmp_path / "sweep"),
                 "--jobs", "2"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def _tree(path: Path) -> dict:
    """Every file below path but manifest.json, relative path -> bytes."""
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


def test_console_entry_freezes_the_heap_and_passes_the_exit_code(tmp_path):
    # a fresh interpreter calls the executable's entry once per config: the
    # heap is frozen after the first call, each exit code (0, 2 for a bool
    # cut, 3 for overflowing phases) reaches SystemExit as main() returned
    # it, and each run writes what main() writes
    configs = [_write_config(tmp_path, config, name=f"{name}.json") for name, config in (
        ("good", NOISY_CONFIG), ("bool_cut", dict(NOISY_CONFIG, bipartition=True)),
        ("overflowing", OVERFLOWING_CONFIG))]
    script = (
        "import gc, json, sys\n"
        "from qsct.cli import console_main\n"
        "report, *configs = sys.argv[1:]\n"
        "codes, frozen = [], [gc.get_freeze_count()]\n"
        "for config in configs:\n"
        "    sys.argv = ['qsct', 'run', '--config', config, '--out', config + '.entry']\n"
        "    try:\n"
        "        console_main()\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "    frozen.append(gc.get_freeze_count())\n"
        "with open(report, 'w') as fh:\n"
        "    json.dump([codes, frozen], fh)\n"
    )
    report = tmp_path / "report.json"
    run = subprocess.run([sys.executable, "-c", script, str(report), *map(str, configs)],
                         capture_output=True, text=True, env=_subprocess_env())
    assert run.returncode == 0, run.stderr
    codes, frozen = json.loads(report.read_text())
    assert codes == [0, 2, 3]
    assert frozen[0] == 0 and frozen[1] > 0
    assert "config error: bipartition: " in run.stderr
    for config, code in zip(configs, codes):
        out = Path(f"{config}.main")
        assert main(["run", "--config", str(config), "--out", str(out)]) == code
        entry = Path(f"{config}.entry")
        assert entry.exists() == out.exists()
        if out.exists():
            assert _tree(entry) == _tree(out)
    assert set(_tree(Path(f"{configs[0]}.entry"))) == {Path("results.csv"), Path("reference.csv")}
