"""Command line front end.

Three subcommands:

  run          execute one experiment (or a sweep) from a JSON config and
               write results.csv / reference.csv / manifest.json; a sweep
               diagonalises each distinct chain once and measures each
               noiseless twin once (protocol.prepare_references), and a
               single config runs as a sweep of one point, down to its files
  pst          print the transfer time and per-level amplitudes for a chain
  conformance  write the closed-form comparison report (csv + md)

A config is checked in one place: parse_config only decodes the JSON (object
sections, known and required keys, chain.nodes as ChainSpec.n, [re, im]
amplitude pairs), and ChainSpec, NoiseSpec and ExperimentConfig
check every field's type, finiteness and range, exactly as for a library
caller. A refused field raises ConfigError, whose message begins with the
field's JSON name, or with its flag where a flag sets it (`run --jobs`;
`pst` --d, --nodes, --tmax).

main() is the one place that turns an exception into a message and an exit
code, for every subcommand: a ConfigError prints `config error: ...` and
exits 2, a LinAlgError or FloatingPointError (a non-finite record among
them, refused where protocol measures it) prints `numerical failure: ...`
and exits 3. Within a sweep each failure lists in its `configs` the points
it concerns, and `run` prefixes them in one place: the refused entry, e.g.
`point-001: noise.p: ...`; every point on a chain that cannot resolve
t_total, e.g. `point-001, point-002: t_total: ...`; the points of the
noiseless twin that failed; or, once the twins are prepared, the earliest
failing point.

Every run stages each point's files in a hidden `.sweep-*` directory inside
--out and moves them into place (point-NNN/, or --out itself for a single
config) only once every point has succeeded and every destination, the
manifest's among them, is free of an entry of the other kind (a file where a
directory goes, a directory where a file goes); the staging directory is
removed however the run ends, so a failed or refused run leaves --out as it
found it. `conformance` checks its two files and their temporary names the
same way before it writes anything.

`run` loads no more than it needs: the config digest comes from the
interpreter's built-in SHA-256 (hashlib, and with it OpenSSL, only where
neither _sha2 nor _sha256 exists), no run imports concurrent.futures, and
qsct.conformance (the closed forms, the fidelity formula and the report's
writers) is imported only by `conformance`. Every twin is prepared on the
calling thread. A sweep at --jobs N runs its points on N workers, the calling
thread among them (qsct.workers, which only such a sweep imports), so it
starts at most N - 1 threads; a single config, or a sweep at --jobs 1, runs on
the built-in map.

manifest.json records the environment a run was taken in (Python, numpy,
BLAS, CPU count, BLAS thread variables), the modulus of the transfer
amplitude at each searched transfer time (`pst_amplitude`, null where
t_total was given) and the wall seconds of its four stages (`timings`:
parse, prepare, points, output).

The `qsct` executable (console_main) freezes the heap once main() returns;
main() itself never touches gc.

Exit codes: 0 success, 2 config or usage error, 3 numerical failure; the
same for run, pst and conformance.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import errno
import functools
import gc
import json
import math
import operator
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainSpec, Spectrum, as_real, find_pst_time
from .protocol import (
    ConfigError,
    ExperimentConfig,
    NoiseSpec,
    TransferRecord,
    engine,
    prepare_references,
    run_experiment,
)

# Built-in SHA-256 first, as `random` does for _sha512: hashlib would load OpenSSL.
try:
    from _sha2 import sha256 as _sha256          # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256    # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

# TransferRecord's fields are results.csv's columns, in their declared order
_RECORD_FIELDS = dataclasses.fields(TransferRecord)
RESULT_COLUMNS = tuple(f.name for f in _RECORD_FIELDS)

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
    is the ChainSpec's `n`, and amplitudes may be [re, im] pairs. Every
    field's type, finiteness and range are checked by the dataclasses, which
    raise ConfigError naming the field.
    """
    kwargs = _fields(obj, ExperimentConfig, "config")
    kwargs["chain"] = ChainSpec(**_fields(kwargs["chain"], ChainSpec, "chain"))
    if kwargs.get("noise") is not None:
        kwargs["noise"] = NoiseSpec(**_fields(kwargs["noise"], NoiseSpec, "noise"))
    if isinstance(kwargs["input_amplitudes"], list):
        kwargs["input_amplitudes"] = [_decode_amplitude(v) for v in kwargs["input_amplitudes"]]
    return ExperimentConfig(**kwargs)


def config_digest(obj) -> str:
    """sha256 of the canonical JSON encoding (sorted keys, no whitespace)."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return _sha256(canonical.encode("utf-8")).hexdigest()


def _environment() -> dict:
    """The interpreter, numpy and BLAS a run was taken with; blas is None
    where numpy cannot report it (older than 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _path_error(flag: str, path: Path, exc: OSError) -> ConfigError:
    """A file-system failure on a path argument as a ConfigError naming the flag."""
    return ConfigError(f"{flag}: {path}: {(exc.strerror or str(exc)).lower()}")


def _out_dir(path: str) -> Path:
    """The --out directory, created with its parents; ConfigError naming
    --out when it cannot be (a file in the way, no permission)."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _path_error("--out", out_dir, exc) from exc
    return out_dir


def _temporary(path: Path) -> Path:
    """The hidden file that _atomic_write renames onto path."""
    return path.with_name("." + path.name + ".tmp")


def _atomic_write(path: Path, text: str) -> None:
    tmp = _temporary(path)
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _refuse_blocked(path: Path, directory: bool) -> None:
    """ConfigError naming --out when path holds an entry of the wrong kind:
    anything but a directory where one goes, or a directory (not a link to
    one, which a rename replaces) where a file goes."""
    if directory:
        code = errno.ENOTDIR if os.path.lexists(path) and not path.is_dir() else 0
    else:
        code = errno.EISDIR if path.is_dir() and not path.is_symlink() else 0
    if code:
        raise _path_error("--out", path, OSError(code, os.strerror(code)))


# each column is written by its field's declared type, a string since protocol
# postpones its annotations ('%.17e' % x is format(x, '.17e') for every finite
# float, and protocol's measure hands out no other). The one bool column is
# written into the row template, one template for each of its values.
(_FLAG_COLUMN,) = (f.name for f in _RECORD_FIELDS if f.type == "bool")
_ROWS = tuple(",".join(flag if f.type == "bool" else {"int": "%d", "float": "%.17e"}[f.type]
                       for f in _RECORD_FIELDS)
              for flag in ("false", "true"))
_row_flag = operator.attrgetter(_FLAG_COLUMN)
_row_values = operator.attrgetter(*(f.name for f in _RECORD_FIELDS if f.type != "bool"))


def _records_csv(records) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for rec in records:
        lines.append(_ROWS[bool(_row_flag(rec))] % _row_values(rec))
    return "\n".join(lines) + "\n"


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


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: expected at least 1, got {args.jobs}")
    clock = [time.perf_counter()]   # the start, then the end of each of the four stages
    config_path = Path(args.config)
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except OSError as exc:      # no such file, a directory, no permission
        raise _path_error("--config", config_path, exc) from exc
    except ValueError as exc:   # a JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"--config: {config_path}: {exc}") from exc

    sweep = isinstance(raw, list)
    entries = raw if sweep else [raw]
    if not entries:
        raise ConfigError("config: empty sweep")
    points = [f"point-{i:03d}" for i in range(len(entries))] if sweep else [""]
    stage = None
    try:
        configs = []
        for i, entry in enumerate(entries):
            try:
                configs.append(parse_config(entry))
            except ConfigError as exc:
                exc.configs = (i,)
                raise
        clock.append(time.perf_counter())

        out_dir = _out_dir(args.out)
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        # every point's files are staged here, then moved into place once all have succeeded
        stage = tempfile.mkdtemp(prefix=".sweep-", dir=out_dir)
        if args.jobs == 1 or len(configs) == 1:
            parallel_map = map
        else:
            from .workers import worker_map     # only a parallel sweep compiles it
            parallel_map = functools.partial(worker_map, args.jobs)

        # Every point of a noiseless twin shares its chain's spectrum and
        # its reference records, formatted once. Each point
        # takes its own entry out of `prepared`, so a chain's state (the
        # block eigenpairs of a dense run among it) is freed as soon as
        # its last point has finished.
        prepared = prepare_references(configs)
        pst_amplitudes = [twin.pst_amplitude for twin in prepared]
        reference_csv = {}
        for twin in prepared:
            if twin.key not in reference_csv:
                reference_csv[twin.key] = _records_csv(twin.records)
        clock.append(time.perf_counter())

        def run_point(i: int) -> list[str]:
            """Run point i from its prepared twin and stage its files; returns
            the files' names. A numerical failure, a non-finite record among
            them, lists the point in its `configs`."""
            twin, prepared[i] = prepared[i], None
            try:
                records, reference = run_experiment(configs[i], twin)
            except (np.linalg.LinAlgError, FloatingPointError) as exc:
                exc.configs = (i,)
                raise
            if reference is None:   # a noiseless run: its records are its twin's
                files = {"results.csv": reference_csv[twin.key]}
            else:
                files = {"results.csv": _records_csv(records),
                         "reference.csv": reference_csv[twin.key]}
            if args.plot_script:
                files["plot_results.py"] = _PLOT_SCRIPT
            for name, text in files.items():
                with open(os.path.join(stage, f"{points[i]}-{name}"), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
            return list(files)

        names = list(parallel_map(run_point, range(len(configs))))
        clock.append(time.perf_counter())
        manifest_path = out_dir / "manifest.json"
        for path in (manifest_path, _temporary(manifest_path)):
            _refuse_blocked(path, directory=False)
        for point, files in zip(points, names):
            _refuse_blocked(out_dir / point, directory=True)
            for name in files:
                _refuse_blocked(out_dir / point / name, directory=False)
        for point, files in zip(points, names):
            target = out_dir / point    # --out itself when point is ""
            target.mkdir(exist_ok=True)
            for name in files:
                os.replace(os.path.join(stage, f"{point}-{name}"), target / name)
    except (ConfigError, np.linalg.LinAlgError, FloatingPointError) as exc:
        # a sweep names the points that failed: a refused entry, those of a
        # twin, or the earliest failing point; a single config's point is ""
        failed = ", ".join(points[i] for i in getattr(exc, "configs", ()))
        if not failed:
            raise
        raise type(exc)(f"{failed}: {exc}") from exc
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)

    output_paths = [str(Path(point) / name)
                    for point, files in zip(points, names) for name in files]
    manifest = {
        "tool_version": __version__,
        "config_digest": config_digest(raw),
        "seed": [c.seed for c in configs] if sweep else configs[0].seed,
        "engine": [engine(c) for c in configs] if sweep else engine(configs[0]),
        "pst_amplitude": pst_amplitudes if sweep else pst_amplitudes[0],
        "environment": _environment(),
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "output_paths": output_paths,
    }
    clock.append(time.perf_counter())
    manifest["timings"] = {stage: end - start for stage, start, end
                           in zip(("parse", "prepare", "points", "output"), clock, clock[1:])}
    _atomic_write(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for rel in output_paths:
        print(out_dir / rel)
    return 0


def _cmd_pst(args) -> int:
    try:
        spec = ChainSpec(d=args.d, n=args.nodes)
    except ConfigError as exc:  # named by its JSON field, chain.d or chain.nodes
        field, message = str(exc).split(": ", 1)
        flag = {"chain.d": "--d", "chain.nodes": "--nodes"}[field]
        raise ConfigError(f"{flag}: {message}") from exc
    spectrum = Spectrum(spec)
    try:
        t_star, amplitude = find_pst_time(spectrum, t_max=args.tmax)
    except ValueError as exc:   # a window that is not positive and finite, or too long
        raise ConfigError(f"--tmax: {exc}") from exc
    print(f"d            = {spec.d}")
    print(f"nodes        = {spec.n}")
    print(f"t_star       = {t_star:.12g}")
    print(f"amplitude    = {amplitude:.12g}")
    return 0


def _cmd_conformance(args) -> int:
    from . import conformance    # only this subcommand loads the report's code

    out_dir = _out_dir(args.out)
    paths = [out_dir / "conformance.csv", out_dir / "conformance.md"]
    for path in paths + [_temporary(path) for path in paths]:
        _refuse_blocked(path, directory=False)
    report = conformance.conformance_closed_forms()
    fidelity_rows = conformance.average_fidelity_comparison()
    _atomic_write(paths[0], conformance._conformance_csv(report))
    _atomic_write(paths[1], conformance._conformance_md(report, fidelity_rows))
    for path in paths:
        print(path)
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
                       help="workers for sweep configs, the calling thread among them")
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
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    """The `qsct` executable: main(), then exit with its code.

    By the time main() returns every file is written and renamed and every
    --jobs worker has been joined, so the heap is frozen before exiting: the
    interpreter's final collections then skip the objects that numpy and
    qsct made on import, which is most of an exit's cost. Atexit handlers
    and the flushing of stdout and stderr still run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
