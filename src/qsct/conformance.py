"""The closed-form conformance report (qsct conformance) and what only it reads.

The paper prints closed forms for its smallest chains; this module evaluates
them as printed and sets them beside the simulation, reporting (never
asserting) where the two disagree:

    two-site profiles - closed_form_l2_d3, one formula in the excited weight,
                        against the simulated concurrence and subsystem purity
                        under the time mappings a = t and a = 2t
    four-site trace   - the half-chain trace of a three-level chain, fitted on
                        even cosine harmonics (fit_cosine_series)
    average fidelity  - the trace formula over the two-qutrit transfer under
                        per-site phase damping against the printed quadratic
                        profile

average_fidelity takes the Haar-mean fidelity of any Weyl table against a
target unitary by applying the table to the D^2 matrix units with
qsct.channels.apply_weyl_table, the routine every run applies; no Kraus
operator is built. The two-site profiles and the four-site trace read the
sector kets and cut sides of a protocol.PreparedReference, the noiseless
twin a run measures against; this module takes only public names from
qsct.protocol. qsct.cli imports this module only for the conformance
subcommand, so no `qsct run` loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import ChainSpec, Spectrum, find_pst_time
from .channels import WeylTable, apply_weyl_table, phase_damping_table
from .entanglement import sector_concurrence
from .protocol import ExperimentConfig, PreparedReference

L4_HARMONICS = (0, 2, 4, 6, 8, 10, 12)
L4_SCALINGS = (0.5, 1.0, 2.0)
A_POINTS = 41           # the two-site profiles' grid of a on [0, pi]
L4_POINTS = 320         # the four-site trace's samples on [0, 2 pi)
FIDELITY_P = (0.25, 0.5, 0.85, 1.0)     # the phase-damping strengths of the fidelity table


# ---------------------------------------------------------------------------
# Average fidelity
# ---------------------------------------------------------------------------

def average_fidelity(u: np.ndarray, table: WeylTable, dims) -> float:
    """Average fidelity between a target unitary and the channel that
    apply_weyl_table(., table, dims) applies, the Haar mean of
    <psi| U^dag E(|psi><psi|) U |psi>:

        F = [ D + sum_{i,j} (U^dag E(|i><j|) U)_{ij} ] / (D (D + 1)),

    with D = prod(dims). The channel is applied to each of the D^2 matrix
    units; no Kraus operator is built.
    """
    dim = int(np.prod(dims))
    u = np.asarray(u)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} does not match register dimension {dim}")
    total, unit = 0.0, np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            unit[i, j] = 1.0
            total += (u[:, i].conj() @ apply_weyl_table(unit, table, dims) @ u[:, j]).real
            unit[i, j] = 0.0
    return (dim + total) / (dim * (dim + 1))


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

def conformance_closed_forms() -> dict:
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
    a_grid = np.linspace(0.0, math.pi, A_POINTS)
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
            # the run's sector ket and cut sides; t_total only sets the twin's records
            twin = PreparedReference(ExperimentConfig(chain=spectrum.spec, input_amplitudes=amps,
                                                      t_total=math.pi), spectrum)
            weights = (*amps, 0.0)[:3]  # (alpha, beta, gamma); gamma = 0 for d = 2
            closed0 = closed_form_l2_d3(*weights, 0.0)
            anchor_dev = max(anchor_dev, abs(closed0 - 1.0))
            concs = {label: sector_concurrence(twin.sector_ket(t), twin.sides).tolist()
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
    twin = PreparedReference(ExperimentConfig(chain=spectrum.spec, input_amplitudes=amps,
                                              t_total=math.pi, bipartition=2), spectrum)
    ts = np.linspace(0.0, 2.0 * math.pi, L4_POINTS, endpoint=False)
    q_trace = sector_concurrence(twin.sector_ket(ts), twin.sides) ** 2

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


def average_fidelity_comparison() -> list[dict]:
    """Average transfer fidelity of the two-qutrit chain under per-site phase
    damping, computed two ways that do not agree: the trace formula over the
    composed map, and the closed quadratic profile. Both are reported per p so
    the gap is visible; neither value is asserted against the other."""
    spec = ChainSpec(d=3, n=2)
    spectrum = Spectrum(spec)
    t_star, _ = find_pst_time(spectrum)
    u = spectrum.unitary(t_star)
    rows = []
    for p in FIDELITY_P:
        table = phase_damping_table(3, p)
        rows.append({
            "p": p,
            "trace_formula": float(average_fidelity(u, table, spec.dims)),
            "closed_profile": float(analytic_favg_2qutrit(p)),
        })
    return rows


def _fmt(value: float) -> str:
    return format(float(value), ".17e")


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
