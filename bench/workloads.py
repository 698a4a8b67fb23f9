"""Seeded `qsct run` configs for the benchmark workloads.

Sizes are fixed per workload; the seed only varies the input amplitudes,
the phase-damping strengths and the Weyl probability tables, so every seed
does the same amount of work. Each builder returns a `Workload`: the JSON
config the program receives, the `qsct run` flags, and what the output check
needs to know about each point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """What the output check expects from one experiment of a run."""

    subdir: str            # "" for a single config, "point-NNN" in a sweep
    noisy: bool            # noisy points also write reference.csv
    key: tuple             # (d, nodes, bipartition): links a noisy point to its noiseless twin
    final_time: float | None = None   # checked to 1e-6 when set
    # Weyl noise shifts levels on every node and so creates excitations: the
    # last node's excited population, which transfer_probability divides by
    # the input's excited weight, can then exceed that weight.
    transfer_bounded: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    config: object         # dict, or list of dicts for a sweep
    jobs: int
    points: tuple[Point, ...]

    @property
    def register_dims(self) -> set[int]:
        return {d**n for d, n, _ in (p.key for p in self.points)}


def _amplitudes(rng: random.Random, d: int) -> list[list[float]]:
    """Normalized complex amplitudes with excited weight in [0.2, 0.9].

    Keeping the excited weight away from 0 keeps transfer_probability (a
    ratio over that weight) well conditioned for the 1e-9 check.
    """
    while True:
        z = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(d)]
        norm = math.sqrt(sum(abs(c) ** 2 for c in z))
        z = [c / norm for c in z]
        excited = sum(abs(c) ** 2 for c in z[1:])
        if 0.2 <= excited <= 0.9:
            return [[c.real, c.imag] for c in z]


def _pi_table(rng: random.Random, size: int) -> list[list[float]]:
    """size x size probability table, weight mostly on the identity element."""
    raw = [[rng.random() for _ in range(size)] for _ in range(size)]
    raw[0][0] += size * size
    total = sum(map(sum, raw))
    return [[v / total for v in row] for row in raw]


def _single(name: str, d: int, n: int, cut, steps: int, t_total, noise, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    config = {
        "chain": {"d": d, "nodes": n},
        "input_amplitudes": _amplitudes(rng, d),
        "steps": steps,
        "bipartition": cut,
        "seed": seed,
    }
    if t_total is not None:
        config["t_total"] = t_total
    if noise is not None:
        config["noise"] = noise(rng)
    point = Point(subdir="", noisy=noise is not None, key=(d, n, cut),
                  final_time=math.pi if name == "endpoints_pst" else None)
    return Workload(name=name, config=config, jobs=1, points=(point,))


def endpoints_pst(seed: int, small: bool = False) -> Workload:
    d, n = (3, 3) if small else (4, 5)
    return _single("endpoints_pst", d, n, "endpoints", 16, None, None, seed)


def halfcut_pure(seed: int, small: bool = False) -> Workload:
    d, n = (2, 4) if small else (3, 6)
    return _single("halfcut_pure", d, n, n // 2, 16, math.pi, None, seed)


def dephasing_interleaved(seed: int, small: bool = False) -> Workload:
    d, n = (2, 3) if small else (2, 7)

    def noise(rng: random.Random) -> dict:
        return {"kind": "phase_damping", "topology": "interleaved", "p": rng.uniform(0.9, 0.99)}

    return _single("dephasing_interleaved", d, n, "endpoints", 8 if small else 64,
                   math.pi, noise, seed)


TOPOLOGIES = ("local_after", "global_after", "interleaved")


def sweep_mixed(seed: int, small: bool = False) -> Workload:
    """Per chain: a noiseless endpoint point, a noiseless cut point, then
    {phase damping at 3 strengths, Weyl with 2 tables} x 3 topologies.

    Phase-damping points use the endpoint cut and Weyl points the chain cut,
    so each noisy point's reference.csv has a noiseless twin in the sweep.
    """
    rng = random.Random(f"sweep_mixed:{seed}")
    chains = ((2, 3),) if small else ((3, 3), (2, 5))
    p_values = [rng.uniform(0.2, 0.4), rng.uniform(0.5, 0.7), rng.uniform(0.8, 0.95)]
    entries, points = [], []

    def add(entry: dict, key: tuple) -> None:
        weyl = entry.get("noise", {}).get("kind") == "weyl"
        points.append(Point(subdir=f"point-{len(entries):03d}", noisy="noise" in entry, key=key,
                            transfer_bounded=not weyl))
        entries.append(entry)

    for d, n in chains:
        amps = _amplitudes(rng, d)
        cut = n // 2
        base = {"chain": {"d": d, "nodes": n}, "input_amplitudes": amps,
                "steps": 16, "seed": seed}
        add({**base, "bipartition": "endpoints"}, (d, n, "endpoints"))
        add({**base, "bipartition": cut}, (d, n, cut))
        for p in p_values:
            for topology in TOPOLOGIES:
                noise = {"kind": "phase_damping", "topology": topology, "p": p}
                add({**base, "bipartition": "endpoints", "noise": noise}, (d, n, "endpoints"))
        for _ in range(2):
            local, full = _pi_table(rng, d), _pi_table(rng, d**n)
            for topology in TOPOLOGIES:
                pi = full if topology == "global_after" else local
                noise = {"kind": "weyl", "topology": topology, "pi": pi}
                add({**base, "bipartition": cut, "noise": noise}, (d, n, cut))
    return Workload(name="sweep_mixed", config=entries, jobs=2, points=tuple(points))


BUILDERS = {
    "endpoints_pst": endpoints_pst,
    "halfcut_pure": halfcut_pure,
    "dephasing_interleaved": dephasing_interleaved,
    "sweep_mixed": sweep_mixed,
}
