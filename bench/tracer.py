"""Run `qsct run` in-process with spans around each layer's public functions.

Usage: python3 bench/tracer.py SPANS_JSON -- <qsct run arguments>

`qsct.protocol` and `qsct.cli` import functions by name, so a wrapper set on
the defining module alone would miss their calls. Every global of every
loaded `qsct` module that is bound to a traced function is rebound to one
shared wrapper instead, and `numpy.linalg.eigh` / `numpy.linalg.svd` are
wrapped on the `numpy.linalg` namespace the library calls through. Spans stay
in memory and are written to SPANS_JSON when `qsct.cli.main` returns; the
process exits with its code. The library source is not changed.

A span is [name, start, end, parent, extra]: times from perf_counter, parent
the index of the enclosing span on the same thread (worker threads of a sweep
hang off `cli.main`), extra a dict of counts the analysis needs.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute)
TRACED = {
    "cli.main": ("qsct.cli", "main"),
    "cli.parse_config": ("qsct.cli", "parse_config"),
    "protocol.run_experiment": ("qsct.protocol", "run_experiment"),
    "protocol.run_noiseless": ("qsct.protocol", "run_noiseless"),
    "protocol.run_noisy": ("qsct.protocol", "run_noisy"),
    "chain.build_hamiltonian": ("qsct.chain", "build_hamiltonian"),
    "chain.find_pst_time": ("qsct.chain", "find_pst_time"),
    "chain._TransferAmplitudes": ("qsct.chain", "_TransferAmplitudes"),
    "channels.phase_damping": ("qsct.channels", "phase_damping"),
    "channels.weyl_channel": ("qsct.channels", "weyl_channel"),
    "channels.embed_channel": ("qsct.channels", "embed_channel"),
    "channels.apply_channel": ("qsct.channels", "apply_channel"),
    "entanglement.ccnr": ("qsct.entanglement", "ccnr"),
    "entanglement.amplified_ccnr_margin": ("qsct.entanglement", "amplified_ccnr_margin"),
    "entanglement.entanglement_level": ("qsct.entanglement", "entanglement_level"),
    "entanglement.concurrence_pure": ("qsct.entanglement", "concurrence_pure"),
    "linalg.partial_trace": ("qsct.linalg", "partial_trace"),
}
CHANNEL_BUILDERS = {"channels.phase_damping", "channels.weyl_channel", "channels.embed_channel"}
NUMPY_SPANS = ("linalg.eigh", "linalg.svd")
MODULES = ("cli", "protocol", "chain", "channels", "entanglement", "linalg")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn, extra_of=None):
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1] if stack else self.root
            span = [name, 0.0, 0.0, parent, {}]
            with self._lock:
                self.spans.append(span)
                index = len(self.spans) - 1
                if self.root is None:
                    self.root = index
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra_of is not None:
                span[4] = extra_of(args, kwargs, result)
            return result

        return wrapper


def _kraus_extra(args, kwargs, channel) -> dict:
    return {"kraus_ops": len(channel.kraus),
            "kraus_bytes": sum(int(e.nbytes) for e in channel.kraus)}


def _matrix(args, kwargs):
    return args[0] if args else kwargs["a"]


def _eigh_extra(args, kwargs, result) -> dict:
    return {"dim": int(_matrix(args, kwargs).shape[-1])}


def _svd_extra(args, kwargs, result) -> dict:
    a = _matrix(args, kwargs)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    return {"shape": [int(a.shape[-2]), int(a.shape[-1])],
            "batch": int(a.size // (a.shape[-2] * a.shape[-1])) if a.size else 0,
            "complex": bool(a.dtype.kind == "c"),
            "uv": "none" if not compute_uv else ("full" if full else "thin")}


def install(tracer: Tracer) -> None:
    import numpy

    import qsct.cli  # noqa: F401  (imports every library module)

    modules = [m for name, m in list(sys.modules.items())
               if name == "qsct" or name.startswith("qsct.")]
    for span_name, (module_name, attr) in TRACED.items():
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:        # renamed or removed: reported as 0 calls
            continue
        extra = _kraus_extra if span_name in CHANNEL_BUILDERS else None
        wrapper = tracer.wrap(span_name, original, extra)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    numpy.linalg.eigh = tracer.wrap("linalg.eigh", numpy.linalg.eigh, _eigh_extra)
    numpy.linalg.svd = tracer.wrap("linalg.svd", numpy.linalg.svd, _svd_extra)


def _svd_flops(extra: dict) -> float:
    """Golub-Reinsch operation count (Golub & Van Loan, table 8.6.1); x4 for complex."""
    m, n = max(extra["shape"]), min(extra["shape"])
    if extra["uv"] == "none":
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif extra["uv"] == "thin":
        flops = 14 * m * n * n + 8 * n**3
    else:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    return flops * extra["batch"] * (4 if extra["complex"] else 1)


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def analyze(spans: list[list], register_dims: set[int]) -> dict[str, float]:
    """Per-layer figures of one traced run.

    `<span>.calls` / `<span>.s`: call count and summed inclusive time.
    `<module>.self_s`: the module's span time net of every traced child
    (`cli.self_s` is thus `cli.main` net of `protocol.run_experiment`).
    `<module>.charged_s`: the same, except that numpy.linalg decompositions
    are charged to the qsct span that asked for them rather than to the
    `linalg` module; these partition the traced run, so they give each
    module's share and the dominant module.
    """
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    for index, (name, start, end, _, extra) in enumerate(spans):
        module = name.split(".")[0]
        kids = [spans[k] for k in children[index]]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{module}.self_s"] += end - start - _covered(start, end, [(k[1], k[2]) for k in kids])
        if name not in NUMPY_SPANS:
            out[f"{module}.charged_s"] += end - start - _covered(
                start, end, [(k[1], k[2]) for k in kids if k[0] not in NUMPY_SPANS])
        counts.update({k: v for k, v in extra.items() if k.startswith("kraus_")})
        if name == "linalg.eigh" and extra["dim"] in register_dims:
            counts["register_calls"] += 1
        if name == "linalg.svd":
            out["linalg.svd.flops"] += _svd_flops(extra)
    out["channels.kraus_ops"] = counts["kraus_ops"]
    out["channels.kraus_bytes"] = counts["kraus_bytes"]
    out["linalg.eigh.register_calls"] = counts["register_calls"]
    return dict(out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <qsct run arguments>", file=sys.stderr)
        return 2
    spans_path, qsct_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import qsct.cli

    code = qsct.cli.main(qsct_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
