"""Command line front end.

Three subcommands:

  run          execute one experiment (or a sweep) from a JSON config and
               write results.csv / reference.csv / manifest.json
  pst          print the transfer time and per-level amplitudes for a chain
  conformance  write the closed-form comparison report (csv + md)

A config is checked in one place: parse_config only decodes the JSON (object
sections, known and required keys, chain.nodes as ChainSpec.n, [re, im]
amplitude pairs, QSCT_SEED), and ChainSpec, NoiseSpec and ExperimentConfig
check every field's type, finiteness and range, exactly as for a library
caller. A refused field raises ConfigError, whose message begins with the
field's JSON name.

Exit codes: 0 success, 2 config or usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import datetime
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainSpec, Spectrum, _TransferAmplitudes, as_real, find_pst_time
from .protocol import (
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    average_fidelity_comparison,
    conformance_closed_forms,
    run_experiment,
)

RESULT_COLUMNS = (
    "step",
    "time",
    "ccnr",
    "ccnr_amplified_margin",
    "concurrence",
    "transfer_probability",
    "fidelity_to_input",
    "gamma_ok",
)

# JSON key -> dataclass field of each config section; only the chain's n is
# renamed, to `nodes`
_JSON_FIELDS = {
    cls: {("nodes" if (cls, f.name) == (ChainSpec, "n") else f.name): f
          for f in dataclasses.fields(cls)}
    for cls in (ExperimentConfig, ChainSpec, NoiseSpec)
}


def _fields(obj, cls, field: str) -> dict:
    """The JSON object obj as keyword arguments of the dataclass cls, refusing
    a non-object and any unknown or missing key."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{field}: expected a JSON object")
    keys = _JSON_FIELDS[cls]
    unknown = sorted(set(obj) - keys.keys())
    if unknown:
        raise ConfigError(f"{field}: unknown keys {unknown}")
    missing = [key for key, f in keys.items()
               if key not in obj and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{field}: missing keys {missing}")
    return {f.name: obj[key] for key, f in keys.items() if key in obj}


def _decode_amplitude(value):
    """An [re, im] pair as a complex number, its parts checked by the same
    chain.as_real the dataclasses use; anything else as it is."""
    if isinstance(value, list) and len(value) == 2:
        return complex(*(as_real(part, "input_amplitudes") for part in value))
    return value


def parse_config(obj) -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON.

    Only what is specific to JSON is done here: the config and its sections
    must be objects with no unknown and no missing keys, the chain's `nodes`
    is the ChainSpec's `n`, and amplitudes may be [re, im] pairs. A QSCT_SEED
    environment variable, when set, replaces the configured seed. Every
    field's type, finiteness and range are checked by the dataclasses, which
    raise ConfigError naming the field.
    """
    kwargs = _fields(obj, ExperimentConfig, "config")
    kwargs["chain"] = ChainSpec(**_fields(kwargs["chain"], ChainSpec, "chain"))
    if kwargs.get("noise") is not None:
        kwargs["noise"] = NoiseSpec(**_fields(kwargs["noise"], NoiseSpec, "noise"))
    if isinstance(kwargs["input_amplitudes"], list):
        kwargs["input_amplitudes"] = [_decode_amplitude(v) for v in kwargs["input_amplitudes"]]
    config = ExperimentConfig(**kwargs)
    env_seed = os.environ.get("QSCT_SEED")
    if env_seed is None:
        return config
    try:
        seed = int(env_seed)
    except ValueError as exc:
        raise ConfigError(f"QSCT_SEED: not an integer: {env_seed!r}") from exc
    return dataclasses.replace(config, seed=seed)


def config_digest(obj) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name("." + path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _fmt(value: float) -> str:
    return format(float(value), ".17e")


def _records_csv(records) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for rec in records:
        lines.append(",".join((
            str(rec.step),
            _fmt(rec.time),
            _fmt(rec.ccnr),
            _fmt(rec.ccnr_amplified_margin),
            _fmt(rec.concurrence),
            _fmt(rec.transfer_probability),
            _fmt(rec.fidelity_to_input),
            "true" if rec.gamma_ok else "false",
        )))
    return "\n".join(lines) + "\n"


def _check_finite(records) -> None:
    for rec in records:
        values = (rec.time, rec.ccnr, rec.ccnr_amplified_margin,
                  rec.concurrence, rec.transfer_probability, rec.fidelity_to_input)
        if not all(math.isfinite(v) for v in values):
            raise FloatingPointError(f"non-finite value in step {rec.step}")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the transfer-run figures from results.csv (written by qsct run).\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "results.csv"
with open(path, newline="") as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["time"]) for r in rows]

fig, axes = plt.subplots(2, 1, sharex=True, figsize=(7, 7))
axes[0].plot(t, [float(r["concurrence"]) for r in rows], label="entanglement level")
axes[0].plot(t, [float(r["ccnr"]) for r in rows], label="ccnr")
axes[0].plot(t, [float(r["ccnr_amplified_margin"]) for r in rows],
             label="amplified margin")
axes[0].legend()
axes[0].set_ylabel("entanglement")
axes[1].plot(t, [float(r["transfer_probability"]) for r in rows],
             label="transfer probability")
axes[1].plot(t, [float(r["fidelity_to_input"]) for r in rows],
             label="fidelity to input")
axes[1].legend()
axes[1].set_xlabel("time")
axes[1].set_ylabel("transfer")
fig.tight_layout()
fig.savefig("transfer.png", dpi=150)
print("wrote transfer.png")
"""


def _run_one(config: ExperimentConfig, out_dir: Path, plot_script: bool = False) -> list[str]:
    """Execute one experiment and write its CSV outputs. Returns the file names.

    Both record sets are checked before either file is written.
    """
    records, reference = run_experiment(config)
    _check_finite(records)
    if reference is not None:
        _check_finite(reference)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = ["results.csv"]
    _atomic_write(out_dir / "results.csv", _records_csv(records))
    if reference is not None:
        _atomic_write(out_dir / "reference.csv", _records_csv(reference))
        names.append("reference.csv")
    if plot_script:
        _atomic_write(out_dir / "plot_results.py", _PLOT_SCRIPT)
        names.append("plot_results.py")
    return names


def _cmd_run(args) -> int:
    if args.jobs < 1:
        print(f"config error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    config_path = Path(args.config)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"config error: {config_path}: no such file", file=sys.stderr)
        return 2
    except ValueError as exc:   # a JSONDecodeError, or an integer past the digit limit
        print(f"config error: {config_path}: {exc}", file=sys.stderr)
        return 2

    entries = raw if isinstance(raw, list) else [raw]
    if not entries:
        print("config error: config: empty sweep", file=sys.stderr)
        return 2
    configs = [parse_config(entry) for entry in entries]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    # A sweep runs its points in a staging directory inside --out and moves
    # their files into point-NNN/ only after every point has succeeded, so a
    # failing point leaves no partial output behind.
    sweep = isinstance(raw, list)
    points = [f"point-{i:03d}" for i in range(len(configs))] if sweep else [""]
    stage = Path(tempfile.mkdtemp(prefix=".sweep-", dir=out_dir)) if sweep else out_dir
    dirs = [stage / point for point in points]
    want_plot = [args.plot_script] * len(configs)
    try:
        if args.jobs > 1 and len(configs) > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
                names = list(pool.map(_run_one, configs, dirs, want_plot))
        else:
            names = [_run_one(c, d, w) for c, d, w in zip(configs, dirs, want_plot)]
        if sweep:
            for point, files in zip(points, names):
                (out_dir / point).mkdir(exist_ok=True)
                for name in files:
                    os.replace(stage / point / name, out_dir / point / name)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if sweep:
            shutil.rmtree(stage, ignore_errors=True)

    output_paths = [str(Path(point) / name)
                    for point, files in zip(points, names) for name in files]
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(raw),
        "seed": [c.seed for c in configs] if isinstance(raw, list) else configs[0].seed,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "output_paths": output_paths,
    }
    _atomic_write(out_dir / "manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for rel in output_paths:
        print(out_dir / rel)
    return 0


def _cmd_pst(args) -> int:
    spec = ChainSpec(d=args.d, n=args.nodes)
    if not (0.0 < args.tmax < math.inf):
        print(f"config error: --tmax must be positive and finite, got {args.tmax}",
              file=sys.stderr)
        return 2
    try:
        spectrum = Spectrum(spec)
        t_star, worst = find_pst_time(spec, t_max=args.tmax, spectrum=spectrum)
        amplitude = abs(_TransferAmplitudes(spec, spectrum).amplitude(t_star))
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # a window the scan would alias
        print(f"config error: --tmax: {exc}", file=sys.stderr)
        return 2
    print(f"d            = {spec.d}")
    print(f"nodes        = {spec.n}")
    print(f"t_star       = {t_star:.12g}")
    print(f"min_amplitude = {worst:.12g}")
    print("level  amplitude")
    for level in range(1, spec.d):
        print(f"{level:<6d} {amplitude:.12g}")
    return 0


def _conformance_csv(report) -> str:
    header = ("d,alpha,beta,gamma,a,closed_form,"
              "concurrence_a_t,purity_a_t,concurrence_a_2t,purity_a_2t,"
              "dev_concurrence_a_t,dev_purity_a_t,dev_concurrence_a_2t,dev_purity_a_2t")
    lines = [header]
    for row in report["l2_rows"]:
        amps = row["amplitudes"]
        gamma = amps[2] if len(amps) == 3 else 0.0
        closed = row["closed_form"]
        values = (
            row["concurrence[a=t]"], row["purity[a=t]"],
            row["concurrence[a=2t]"], row["purity[a=2t]"],
        )
        lines.append(",".join(
            (str(row["d"]), _fmt(amps[0]), _fmt(amps[1]), _fmt(gamma),
             _fmt(row["a"]), _fmt(closed))
            + tuple(_fmt(v) for v in values)
            + tuple(_fmt(abs(closed - v)) for v in values)
        ))
    return "\n".join(lines) + "\n"


def _conformance_md(report, fidelity_rows) -> str:
    l4 = report["l4"]
    out = []
    out.append("# Closed-form conformance report")
    out.append("")
    out.append("## Two-site profiles")
    out.append("")
    out.append("The printed closed forms evaluate to 1 at a = 0 "
               f"(max deviation {report['l2_anchor_max_dev']:.3e}) but do not "
               "reproduce either the simulated concurrence or the subsystem "
               "purity under the candidate mappings a = t and a = 2t. "
               "Maximum absolute deviations over the sampled grid:")
    out.append("")
    out.append("| d | quantity | a = t | a = 2t |")
    out.append("|---|----------|-------|--------|")
    for d in sorted(report["l2_summary"]):
        dev = report["l2_summary"][d]["max_abs_deviation"]
        for quantity in ("concurrence", "purity"):
            out.append(f"| {d} | {quantity} | {dev[quantity]['a=t']:.6e} "
                       f"| {dev[quantity]['a=2t']:.6e} |")
    out.append("")
    for d in sorted(report["l2_summary"]):
        best = report["l2_summary"][d]["best"]
        out.append(f"Closest match for d = {d}: {best['quantity']} under "
                   f"{best['mapping']} (deviation {best['deviation']:.6e}).")
    out.append("")
    out.append("## Four-site, three-level harmonic content")
    out.append("")
    out.append("Twice the linear entropy of the half-chain cut, fitted on the "
               "even cosine harmonics, using the scaled variable a = s t:")
    out.append("")
    out.append("| s | residual |")
    out.append("|---|----------|")
    for s in sorted(l4["scalings"], key=float):
        out.append(f"| {s} | {l4['scalings'][s]['residual']:.6e} |")
    out.append("")
    out.append(f"Best scaling s = {l4['best_scaling']} "
               f"(residual {l4['residual']:.6e}). Coefficients:")
    out.append("")
    out.append("| harmonic | coefficient |")
    out.append("|----------|-------------|")
    for h, c in zip(l4["harmonics"], l4["coefficients"]):
        out.append(f"| {h} | {c:+.12e} |")
    out.append("")
    out.append(f"Coefficient sum {l4['coefficient_sum']:.12e} matches the "
               f"value at t = 0 ({l4['value_at_zero']:.3e}). The 10th "
               f"harmonic is absent: |c10| / max|c| = {l4['c10_ratio']:.3e}.")
    out.append("")
    out.append("## Average transfer fidelity under per-site dephasing (two qutrits)")
    out.append("")
    out.append("The trace formula over the composed map and the closed "
               "quadratic profile disagree; both are listed. A previously "
               "reported value for p = 0.85 is 0.62702, which matches "
               "neither column.")
    out.append("")
    out.append("| p | trace formula | closed profile |")
    out.append("|---|---------------|----------------|")
    for row in fidelity_rows:
        out.append(f"| {row['p']:.2f} | {row['trace_formula']:.6f} "
                   f"| {row['closed_profile']:.6f} |")
    out.append("")
    return "\n".join(out)


def _cmd_conformance(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = conformance_closed_forms()
        fidelity_rows = average_fidelity_comparison()
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _atomic_write(out_dir / "conformance.csv", _conformance_csv(report))
    _atomic_write(out_dir / "conformance.md", _conformance_md(report, fidelity_rows))
    print(out_dir / "conformance.csv")
    print(out_dir / "conformance.md")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsct",
        description="Qudit spin-chain state transfer with entanglement tracking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for sweep configs")
    p_run.add_argument("--plot-script", action="store_true",
                       help="also write a matplotlib script that renders the CSV")
    p_run.set_defaults(func=_cmd_run)

    p_pst = sub.add_parser("pst", help="print the transfer time for a chain")
    p_pst.add_argument("--d", type=int, required=True, help="levels per node")
    p_pst.add_argument("--nodes", type=int, required=True, help="chain length")
    p_pst.add_argument("--tmax", type=float, default=2.0 * math.pi,
                       help="search window upper bound")
    p_pst.set_defaults(func=_cmd_pst)

    p_conf = sub.add_parser("conformance",
                            help="write the closed-form comparison report")
    p_conf.add_argument("--out", required=True, help="output directory")
    p_conf.set_defaults(func=_cmd_conformance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
