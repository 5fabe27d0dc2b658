"""Per-job output checks.

The reference values are computed here, independently of the solver
code they check: Blahut-Arimoto with its dual certificate bounds every
capacity from both sides. A job passes only if it exits 0, writes its
artifacts, and its values satisfy the bounds below.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# n * t1 above this many nats is where implicit-mode confusion sampling
# clips the block density before exp(-d) (see CHANGES.md).
CONFUSION_CLIP_NATS = 700.0


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known_defect: bool = False


PASS = Verdict(True)


def _fail(reason: str) -> Verdict:
    return Verdict(False, reason)


def binary_entropy(p: float) -> float:
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def _mi(r: np.ndarray, w: np.ndarray) -> float:
    joint = r[:, None] * w
    py = joint.sum(axis=0)
    mask = joint > 0
    return float((joint[mask] * np.log((w / py[None, :])[mask])).sum())


def capacity_bounds(w, tol: float = 1e-12, max_iter: int = 100_000) -> tuple[float, float, np.ndarray]:
    """(lower, upper, input law) for the capacity of a stateless channel.

    lower is I(X;Y) at the returned law; upper is the Blahut-Arimoto dual
    certificate max_x D(W(.|x) || P_Y), so lower <= C <= upper always.
    """
    w = np.asarray(w, dtype=np.float64)
    r = np.full(w.shape[0], 1.0 / w.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = np.where(w > 0, np.log(w), 0.0)
    for _ in range(max_iter):
        py = r @ w
        d = (w * (logw - np.log(np.where(py > 0, py, 1.0))[None, :])).sum(axis=1)
        lower, upper = float(r @ d), float(d.max())
        if upper - lower <= tol:
            break
        r = r * np.exp(d - upper)
        r /= r.sum()
    return _mi(r, w), upper, r


def state_at_both_bounds(state, channel) -> tuple[float, float]:
    lo = hi = 0.0
    for q, w in zip(state, channel):
        c_lo, c_hi, _ = capacity_bounds(w)
        lo += q * c_lo
        hi += q * c_hi
    return lo, hi


def _averaged(state, channel) -> np.ndarray:
    return np.einsum("s,sxy->xy", np.asarray(state, dtype=np.float64), np.asarray(channel, dtype=np.float64))


def read_key_values(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return rows[1:]


def wilson_lower(successes: int, total: int, z: float = 1.96) -> float:
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(center - half, 0.0)


def check_capacity(job, out: Path) -> Verdict:
    values = read_key_values(out / "capacity.txt")
    value = float(values.get("value_nats", "nan"))
    if not math.isfinite(value):
        return _fail(f"value_nats={value} is not finite")
    spec = job.spec
    if spec["kind"] == "system":
        lower, _, _ = capacity_bounds(_averaged(spec["state_pmf"], spec["channel"]))
        _, upper = state_at_both_bounds(spec["state_pmf"], spec["channel"])
    else:
        # mixture lower bound: the averaged-channel candidate's exact
        # objective min_{k,l} I(X; Y_kl); upper: min_{k,l} C_both(k, l)
        pairs = [(s["state_pmf"], c["channel"]) for c in spec["channel_mixture"] for s in spec["state_mixture"]]
        w_avg = sum(_averaged(q, w) for q, w in pairs) / len(pairs)
        _, _, r = capacity_bounds(w_avg)
        lower = min(_mi(r, _averaged(q, w)) for q, w in pairs)
        upper = min(state_at_both_bounds(q, w)[1] for q, w in pairs)
    if value < lower - 1e-6:
        return _fail(f"value {value:.12g} below the averaged-channel candidate {lower:.12g}")
    if value > upper + 1e-6:
        return _fail(f"value {value:.12g} above C_both {upper:.12g}")
    if "flip_p" in job.meta:
        exact = math.log(2) - binary_entropy(job.meta["flip_p"])
        if abs(value - exact) > 1e-6:
            return _fail(f"state-flip value {value:.12g} differs from ln2 - h(p) = {exact:.12g}")
    return PASS


def check_simulate(job, out: Path) -> Verdict:
    summary = read_key_values(out / "summary.txt")
    trials = read_csv(out / "trials.csv")
    if len(trials) != job.meta["trials"]:
        return _fail(f"{len(trials)} trial rows, expected {job.meta['trials']}")
    e3 = sum(int(row[5]) for row in trials)
    lower = wilson_lower(e3, len(trials))
    confusion = float(summary["rho_term.confusion"])
    problems = []
    if summary.get("error_within_bound") != "True":
        problems.append(f"error_within_bound={summary.get('error_within_bound')}")
    if lower > confusion:
        problems.append(f"e3 Wilson lower limit {lower:.4g} exceeds rho_term.confusion {confusion:.4g}")
    if not problems:
        return PASS
    reason = "; ".join(problems)
    n, p = job.meta["n"], job.meta["flip_p"]
    t1 = math.log(2) - binary_entropy(p) - job.meta["gamma1"]
    if summary.get("mode") == "implicit" and n * t1 > CONFUSION_CLIP_NATS and e3 == len(trials):
        return Verdict(False, f"confusion-clip defect (n*t1 = {n * t1:.0f} nats): {reason}", known_defect=True)
    return _fail(reason)


def check_spectrum(job, out: Path) -> Verdict:
    summary = read_key_values(out / "spectrum_summary.txt")
    draws = int(summary["draws"])
    if draws != job.meta["draws"]:
        return _fail(f"draws={draws}, requested {job.meta['draws']}")
    inf_rate = float(summary["inf_rate_estimate_nats"])
    sup_rate = float(summary["sup_rate_estimate_nats"])
    if not inf_rate <= sup_rate:
        return _fail(f"inf {inf_rate} > sup {sup_rate}")
    hist = sum(int(row[1]) for row in read_csv(out / "spectrum_hist.csv"))
    if hist != draws:
        return _fail(f"histogram holds {hist} draws, summary says {draws}")
    return PASS


def check_region(job, out: Path, points, membership) -> Verdict:
    """``points`` are the RegionPoint objects the traced pass captured for
    this job; ``membership(point)`` is the exact region re-check."""
    rows = [(float(a), float(b)) for a, b in read_csv(out / "frontier.csv")]
    if not rows:
        return _fail("empty frontier")
    rates = [r for _, r in rows]
    if any(b < a for a, b in zip(rates, rates[1:])):
        return _fail(f"frontier not monotone: {rates}")
    if points is None or len(points) != len(rows):
        return _fail("frontier points were not captured")
    for (r_d, r), point in zip(rows, points):
        if (f"{point.r_d:.12g}", f"{point.r:.12g}") != (f"{r_d:.12g}", f"{r:.12g}"):
            return _fail(f"captured point ({point.r_d}, {point.r}) differs from frontier.csv ({r_d}, {r})")
        if not membership(point):
            return _fail(f"point (r_d={r_d}, r={r}) fails region_membership")
    spec = job.spec
    c_lo, c_hi = state_at_both_bounds(spec["state_pmf"], spec["channel"])
    last = rates[-1]
    if last > c_hi + 1e-9:
        return _fail(f"last point {last:.12g} above C_both {c_hi:.12g}")
    n_states, n_inputs = len(spec["channel"]), len(spec["channel"][0])
    if job.meta["v"] >= n_states and job.meta["u"] >= n_inputs and last < c_lo - 1e-6:
        return _fail(f"last point {last:.12g} does not reach C_both {c_lo:.12g}")
    return PASS


def check_job(job, out: Path, captured=None, membership=None) -> Verdict:
    if job.command == "capacity":
        return check_capacity(job, out)
    if job.command == "simulate":
        return check_simulate(job, out)
    if job.command == "spectrum":
        return check_spectrum(job, out)
    if job.command == "region":
        return check_region(job, out, captured, membership)
    return _fail(f"no check for command {job.command!r}")
