"""The closed-form conformance report (qsct conformance) and what only it reads.

The paper prints closed forms for its smallest chains; this module evaluates
them as printed and sets them beside the simulation, reporting (never
asserting) where the two disagree:

    two-site profiles - closed_form_l2_d3, one formula in the excited weight,
                        against the simulated concurrence and subsystem purity
                        under the time mappings a = t and a = 2t
    four-site trace   - the half-chain trace of a three-level chain, fitted on
                        even cosine harmonics (fit_cosine_series)
    average fidelity  - the trace formula over the composed two-qutrit
                        dephasing map against the printed quadratic profile

The fidelity table needs each channel as a list of Kraus operators:
`KrausChannel` lists sqrt(pi_{m,n}) Z^n X^m, `phase_damping` its clock
powers with channels' binomial weights, and `embed_channel` takes their cross
product over sites. No `qsct run` builds one (runs apply qsct.channels'
Weyl tables), so none of this is imported on the run path: qsct.cli imports
the module only for the conformance subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .chain import ChainSpec, Spectrum, find_pst_time
from .channels import _damping_weights
from .cli import _fmt
from .entanglement import sector_concurrence
from .protocol import ExperimentConfig, _Runner

TP_TOL = 1e-12
L4_HARMONICS = (0, 2, 4, 6, 8, 10, 12)
L4_SCALINGS = (0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Kraus-list channels and average fidelity
# ---------------------------------------------------------------------------

def gate_z(d: int) -> np.ndarray:
    """Clock gate diag(w^0, ..., w^{d-1})."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


@dataclass
class KrausChannel:
    """A completely positive trace-preserving map as a list of Kraus operators."""

    dim: int
    kraus: list[np.ndarray] = field(repr=False)
    label: str = ""
    tp_defect: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ValueError("channel needs at least one Kraus operator")
        for e in self.kraus:
            if e.shape != (self.dim, self.dim):
                raise ValueError("Kraus operators must be square with the declared dimension")
        total = sum(e.conj().T @ e for e in self.kraus)
        self.tp_defect = float(np.max(np.abs(total - np.eye(self.dim))))
        if self.tp_defect > TP_TOL:
            raise ValueError(f"channel is not trace preserving (defect {self.tp_defect:.3e})")


def phase_damping(d: int, p: float) -> KrausChannel:
    """Binomially weighted clock-power channel; p = 1 is the identity."""
    z = gate_z(d)
    kraus = [np.sqrt(weight) * np.linalg.matrix_power(z, i)
             for i, weight in enumerate(_damping_weights(d, p))]
    return KrausChannel(dim=d, kraus=kraus, label=f"phase-damping(d={d}, p={p})")


def embed_operator(op: np.ndarray, site: int, dims: Sequence[int]) -> np.ndarray:
    """Place a single-site operator at a 0-based site, identity elsewhere."""
    dims = [int(d) for d in dims]
    if site < 0 or site >= len(dims):
        raise ValueError(f"site {site} out of range for {len(dims)} sites")
    op = np.asarray(op)
    if op.shape != (dims[site], dims[site]):
        raise ValueError("operator does not match the site dimension")
    left = int(np.prod(dims[:site])) if site else 1
    right = int(np.prod(dims[site + 1:])) if site + 1 < len(dims) else 1
    return np.kron(np.kron(np.eye(left), op), np.eye(right))


def embed_channel(ch: KrausChannel, sites: list[int], dims: list[int]) -> KrausChannel:
    """Independent copies of a local channel on the listed sites (0-based).

    The result's Kraus list is the cross product of the per-site embedded
    elements; operators on distinct sites commute, so the ordering is fixed
    but immaterial.
    """
    if not sites:
        raise ValueError("sites must name at least one site")
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    for s in sites:
        if s < 0 or s >= len(dims):
            raise ValueError(f"site {s} out of range for {len(dims)} sites")
        if dims[s] != ch.dim:
            raise ValueError(f"site {s} has dimension {dims[s]}, channel expects {ch.dim}")
    per_site = [[embed_operator(e, s, dims) for e in ch.kraus] for s in sorted(sites)]
    kraus = [reduce(np.matmul, combo) for combo in product(*per_site)]
    full = int(np.prod(dims))
    return KrausChannel(dim=full, kraus=kraus, label=f"{ch.label} on sites {sorted(sites)}")


def average_fidelity(u: np.ndarray, ch: KrausChannel) -> float:
    """Average fidelity between the channel and a target unitary,

        F = [ tr sum_k M_k^dag M_k + sum_k |tr M_k|^2 ] / (n (n + 1)),

    with M_k = U^dagger E_k. Equals the Haar mean of
    <psi| U^dag E(|psi><psi|) U |psi>.
    """
    u = np.asarray(u)
    if u.shape != (ch.dim, ch.dim):
        raise ValueError("unitary dimension does not match the channel")
    n = ch.dim
    udag = u.conj().T
    t1 = 0.0
    t2 = 0.0
    for e in ch.kraus:
        m = udag @ e
        t1 += float(np.vdot(m, m).real)
        t2 += float(abs(np.trace(m)) ** 2)
    return (t1 + t2) / (n * (n + 1))


def analytic_favg_2qutrit(p: float) -> float:
    """Printed two-qutrit dephasing profile (1/15)(3 p^2 + |p^2 - 1| + 4 p + 3)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return (3.0 * p * p + abs(p * p - 1.0) + 4.0 * p + 3.0) / 15.0


# ---------------------------------------------------------------------------
# Printed closed forms and the harmonic fit
# ---------------------------------------------------------------------------

def _check_amplitudes(*amps: float) -> None:
    for a in amps:
        if a < 0:
            raise ValueError("amplitudes must be non-negative reals")
    total = sum(a * a for a in amps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"amplitudes are not normalized: sum of squares = {total!r}")


def closed_form_l2_d3(alpha: float, beta: float, gamma: float, a):
    """Two-site transfer profile in the excited weight w = b^2 + g^2,
    (1/4) (4 a^4 + 3 w^2 + 8 a^2 w cos 2a + w^2 cos 4a); broadcasts over a.
    gamma = 0 gives the two-level profile."""
    _check_amplitudes(alpha, beta, gamma)
    a = np.asarray(a, dtype=float)
    a2 = alpha * alpha
    w = beta * beta + gamma * gamma
    out = 0.25 * (
        4.0 * a2 * a2
        + 3.0 * w * w
        + 8.0 * a2 * w * np.cos(2.0 * a)
        + w * w * np.cos(4.0 * a)
    )
    return out if out.ndim else float(out)


def fit_cosine_series(samples, harmonics) -> tuple[np.ndarray, float]:
    """Least-squares fit of value(a) = sum_h c_h cos(h a) over given harmonics.

    samples: iterable of (a, value) pairs. Returns (coefficients in harmonic
    order, max absolute residual). Raises if the sample set cannot separate
    the requested harmonics.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("samples must be (a, value) pairs")
    harmonics = np.asarray(list(harmonics), dtype=float)
    if len(set(harmonics.tolist())) != harmonics.size:
        raise ValueError("harmonics must be distinct")
    if pts.shape[0] < 2 * harmonics.size + 1:
        raise ValueError(
            f"need at least {2 * harmonics.size + 1} samples for {harmonics.size} harmonics"
        )
    design = np.cos(np.outer(pts[:, 0], harmonics))
    coeffs, _, rank, _ = np.linalg.lstsq(design, pts[:, 1], rcond=None)
    if rank < harmonics.size:
        raise ValueError("sample grid does not separate the requested harmonics")
    residual = float(np.max(np.abs(design @ coeffs - pts[:, 1])))
    return coeffs, residual


# ---------------------------------------------------------------------------
# The report: printed closed forms against simulated traces
# ---------------------------------------------------------------------------

def conformance_closed_forms(a_points: int = 41, l4_points: int = 320) -> dict:
    """Compare the printed two-site profiles with simulated traces, and fit the
    harmonic content of the four-site, three-level trace.

    The two-site closed forms are evaluated as printed and compared (reported,
    never asserted) against the simulated concurrence and subsystem purity
    under both candidate time mappings a = t and a = 2t. The four-site trace
    2 (1 - tr rho_A^2) over the half-chain cut is fitted on the even harmonic
    set; the result records the best time scaling, the coefficient of the
    10th harmonic (structurally absent), and the residual. Each ket's
    concurrence c is sector_concurrence's closed form, its purity 1 - c^2/2
    and its four-site trace c^2.
    """
    if a_points < 5:
        raise ValueError("a grid needs at least 5 points")
    if l4_points < 2 * len(L4_HARMONICS) + 1:
        raise ValueError("l4 grid is too small for the harmonic fit")

    a_grid = np.linspace(0.0, math.pi, a_points)
    amp_sets = {
        2: [(1.0, 0.0), (1.0 / math.sqrt(2), 1.0 / math.sqrt(2)),
            (math.sqrt(0.8), math.sqrt(0.2))],
        3: [(1.0, 0.0, 0.0),
            (1.0 / math.sqrt(3), 1.0 / math.sqrt(3), 1.0 / math.sqrt(3)),
            (math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2))],
    }

    rows: list[dict] = []
    anchor_dev = 0.0
    deviations: dict[str, dict[str, dict[str, float]]] = {}
    for d, sets in amp_sets.items():
        spectrum = Spectrum(ChainSpec(d=d, n=2))
        dev = {"concurrence": {"a=t": 0.0, "a=2t": 0.0},
               "purity": {"a=t": 0.0, "a=2t": 0.0}}
        for amps in sets:
            # the run's sector ket and cut sides; t_total only sets the unused step
            runner = _Runner(ExperimentConfig(chain=spectrum.spec, input_amplitudes=amps),
                             spectrum, math.pi)
            weights = (*amps, 0.0)[:3]  # (alpha, beta, gamma); gamma = 0 for d = 2
            closed0 = closed_form_l2_d3(*weights, 0.0)
            anchor_dev = max(anchor_dev, abs(closed0 - 1.0))
            concs = {label: sector_concurrence(runner.sector_ket(t), runner.sides).tolist()
                     for label, t in (("a=t", a_grid), ("a=2t", a_grid / 2.0))}
            for i, a in enumerate(a_grid):
                closed = closed_form_l2_d3(*weights, a)
                row = {"d": d, "amplitudes": tuple(float(x) for x in amps), "a": float(a),
                       "closed_form": float(closed)}
                for label, values in concs.items():
                    conc = values[i]
                    pur = 1.0 - conc * conc / 2.0
                    row[f"concurrence[{label}]"] = conc
                    row[f"purity[{label}]"] = pur
                    dev["concurrence"][label] = max(dev["concurrence"][label], abs(closed - conc))
                    dev["purity"][label] = max(dev["purity"][label], abs(closed - pur))
                rows.append(row)
        best = min(
            ((q, m, dev[q][m]) for q in dev for m in dev[q]),
            key=lambda item: item[2],
        )
        deviations[str(d)] = {
            "max_abs_deviation": dev,
            "best": {"quantity": best[0], "mapping": best[1], "deviation": best[2]},
        }

    # four-site, three-level trace over the half-chain cut
    spectrum = Spectrum(ChainSpec(d=3, n=4))
    amps = np.full(3, 1.0 / math.sqrt(3))
    runner = _Runner(ExperimentConfig(chain=spectrum.spec, input_amplitudes=amps,
                                      bipartition=2), spectrum, math.pi)
    ts = np.linspace(0.0, 2.0 * math.pi, l4_points, endpoint=False)
    q_trace = sector_concurrence(runner.sector_ket(ts), runner.sides) ** 2

    fits = {}
    for scale in L4_SCALINGS:
        coeffs, residual = fit_cosine_series(zip(scale * ts, q_trace), L4_HARMONICS)
        fits[scale] = {"coefficients": coeffs, "residual": residual}
    best_scale = min(fits, key=lambda s: fits[s]["residual"])
    best_coeffs = fits[best_scale]["coefficients"]
    idx_10 = L4_HARMONICS.index(10)
    l4 = {
        "harmonics": list(L4_HARMONICS),
        "scalings": {
            str(s): {"coefficients": [float(c) for c in fits[s]["coefficients"]],
                     "residual": float(fits[s]["residual"])}
            for s in L4_SCALINGS
        },
        "best_scaling": float(best_scale),
        "coefficients": [float(c) for c in best_coeffs],
        "residual": float(fits[best_scale]["residual"]),
        "c10_ratio": float(abs(best_coeffs[idx_10]) / np.max(np.abs(best_coeffs))),
        "coefficient_sum": float(np.sum(best_coeffs)),
        "value_at_zero": float(q_trace[0]),
    }

    return {
        "l2_rows": rows,
        "l2_anchor_max_dev": float(anchor_dev),
        "l2_summary": deviations,
        "l4": l4,
    }


def average_fidelity_comparison(p_values=(0.25, 0.5, 0.85, 1.0)) -> list[dict]:
    """Average transfer fidelity of the two-qutrit chain under per-site phase
    damping, computed two ways that do not agree: the trace formula over the
    composed map, and the closed quadratic profile. Both are reported per p so
    the gap is visible; neither value is asserted against the other."""
    spec = ChainSpec(d=3, n=2)
    spectrum = Spectrum(spec)
    t_star, _ = find_pst_time(spec, spectrum=spectrum)
    u = spectrum.unitary(t_star)
    rows = []
    for p in p_values:
        channel = embed_channel(phase_damping(3, float(p)), (0, 1), spec.dims)
        rows.append({
            "p": float(p),
            "trace_formula": float(average_fidelity(u, channel)),
            "closed_profile": float(analytic_favg_2qutrit(float(p))),
        })
    return rows


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
