"""Self-check of the benchmark: `python3 -m pytest bench/test_bench.py` from the repository root."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from check import check_run  # noqa: E402
from workloads import BUILDERS  # noqa: E402


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "pass"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = {}
    for line in proc.stdout.splitlines():
        head, sep, body = line.partition(": ")
        if sep and " trace=" in head:
            printed[head] = json.loads(body)
    for name in BUILDERS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = printed[f"{name} trace={trace}"]
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            for metric in spec[key]:
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def _run_qsct(workload, out: Path, tmp_path: Path) -> None:
    config = tmp_path / f"{workload.name}.json"
    config.write_text(json.dumps(workload.config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QSCT_SEED", None)
    subprocess.run([sys.executable, "-m", "qsct.cli", "run", "--config", str(config),
                    "--out", str(out), "--jobs", str(workload.jobs)],
                   cwd=ROOT, env=env, check=True, capture_output=True, timeout=300)


def _perturb(path: Path, row: int, column: str, delta: float = 1e-6) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    col = header.index(column)
    fields[col] = format(float(fields[col]) + delta, ".17e")
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    made = {}
    for name in ("halfcut_pure", "sweep_mixed"):
        workload = BUILDERS[name](7, small=True)
        _run_qsct(workload, tmp / name, tmp)
        made[name] = (workload, tmp / name)
    return made


@pytest.fixture
def fresh(outputs, tmp_path):
    """A private copy of one workload's outputs."""
    def copy(name):
        workload, out = outputs[name]
        dst = tmp_path / name
        shutil.copytree(out, dst)
        return workload, dst
    return copy


def test_check_accepts_untouched_outputs(fresh):
    for name in ("halfcut_pure", "sweep_mixed"):
        workload, out = fresh(name)
        assert check_run(workload, out, 0) == []


def test_check_rejects_a_failed_exit(fresh):
    workload, out = fresh("halfcut_pure")
    assert check_run(workload, out, 3)


def test_check_rejects_final_fidelity_perturbed_by_1e_6(fresh):
    workload, out = fresh("halfcut_pure")
    _perturb(out / "results.csv", workload.config["steps"], "fidelity_to_input", -1e-6)
    assert any("fidelity_to_input" in p for p in check_run(workload, out, 0))


def test_check_rejects_reference_value_perturbed_by_1e_6(fresh):
    workload, out = fresh("sweep_mixed")
    noisy = next(p for p in workload.points if p.noisy)
    _perturb(out / noisy.subdir / "reference.csv", 3, "ccnr")
    assert any("differs" in p for p in check_run(workload, out, 0))


def test_check_rejects_missing_reference(fresh):
    workload, out = fresh("sweep_mixed")
    noisy = next(p for p in workload.points if p.noisy)
    (out / noisy.subdir / "reference.csv").unlink()
    assert any("reference.csv: missing" in p for p in check_run(workload, out, 0))


def test_same_seed_same_inputs():
    for name, build in BUILDERS.items():
        assert build(5).config == build(5).config, name
        assert build(5).config != build(6).config, name
