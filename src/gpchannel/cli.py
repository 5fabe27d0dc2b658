"""Batch command-line front door.

Subcommands bind JSON system specs to the solvers and simulators and
write CSV / structured-text artifacts. Every output file starts with a
reproducibility header (tool version, seed, spec digest) and re-running
a command with identical inputs byte-reproduces its outputs.

Exit codes: 0 success, 2 validation error, 3 budget refusal, 4 internal
invariant violation.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from importlib.metadata import PackageNotFoundError, version as pkg_version
from pathlib import Path

import click
import numpy as np

from . import __version__
from .capacity import (
    SequenceSpec,
    cesaro_capacity,
    gp_capacity_dm,
    no_state_capacity,
    require_interleaved_form,
    state_at_both_capacity,
)
from .coding import TRIAL_COLUMNS, BudgetError, MemorylessSystem, design_experiment, run_experiment
from .info import DEFAULT_DELTA, SampleBudgetError, spectral_rate_estimate
from .mixture import maximize_mixed_lower_bound, mixture_spectrum_demo
from .prob import ValidationError
from .region import region_frontier, saturation_knee
from .specio import SpecError, load_spec

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

HIST_BIN_NATS = 0.005
# GP optimizer starts per map, for `capacity --restarts` and for the
# policy `simulate` solves when its spec has none
RESTARTS = 20


def _tool_version() -> str:
    try:
        return pkg_version("gpchannel")
    except PackageNotFoundError:  # run from a source tree
        return __version__


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


def _output(out_dir, seed: int, spec_path) -> tuple[Path, list[str]]:
    """The created output directory and the header every artifact starts with."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, [
        f"# gpchannel {_tool_version()}",
        f"# seed={seed}",
        f"# spec_digest={_digest(spec_path)}",
    ]


def _write_text(path: Path, header: list[str], lines: list[str]) -> None:
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in header:
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _capacity_lines(res, kind_line: str) -> list[str]:
    """value, kind line, sorted diagnostics and policy of a capacity result."""
    lines = [f"value_nats={res.value:.12g}", kind_line]
    lines += [f"diagnostics.{k}={v}" for k, v in sorted(res.diagnostics.items())]
    lines.append("policy.u_given_s:")
    lines += [f"  {np.array2string(row, precision=9)}" for row in res.policy.u_given_s.rows]
    lines.append("policy.g:")
    lines.append(f"  {np.array2string(np.asarray(res.policy.x_map))}")
    return lines


class _Main(click.Group):
    """Maps the exceptions a subcommand raises to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
        except (BudgetError, SampleBudgetError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_BUDGET)
        except Exception as exc:  # a broken invariant: one line on stderr, not a traceback
            click.echo(f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}", err=True)
            sys.exit(EXIT_INTERNAL)


@click.group(cls=_Main)
def main():
    """Capacity solvers and random-coding simulators for state-dependent channels."""


_common = [
    click.option("--spec", "spec_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False)),
    click.option("--seed", default=0, show_default=True, type=int),
    click.option("--workers", default=1, show_default=True, type=int,
                 help="Worker hint; all merges are deterministic so results never depend on it."),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


@main.command()
@common_options
@click.option("--restarts", default=RESTARTS, show_default=True, type=click.IntRange(min=1))
def capacity(spec_path, out_dir, seed, workers, restarts):
    """Single-letter capacities for a system, mixture, or structured sequence."""
    spec = load_spec(spec_path)
    out, header = _output(out_dir, seed, spec_path)
    if spec["kind"] == "system":
        side = spec.get("side_information", "encoder")
        if side == "none":
            res = no_state_capacity(spec["channel"])
        elif side == "both":
            res = state_at_both_capacity(spec["channel"], spec["state"])
        else:
            res = gp_capacity_dm(spec["channel"], spec["state"], u_size=spec.get("u_size"), restarts=restarts, seed=seed)
        lines = _capacity_lines(res, f"side_information={side}")
    elif spec["kind"] == "mixture":
        res = maximize_mixed_lower_bound(spec["mixture"], u_size=spec.get("u_size"), restarts=restarts, seed=seed)
        lines = _capacity_lines(res, "bound=lower")
    else:  # j-structured
        n_max = spec.get("n_max", 2**16)
        seq = SequenceSpec(kind="j-structured", channels=spec["channels"], states=spec["states"])
        require_interleaved_form(seq.channels["a"], seq.channels["b"], ("channels.a", "channels.b"))
        kw = {"u_size": spec.get("u_size"), "restarts": restarts, "seed": seed}
        result = cesaro_capacity(seq, n_max, solver_kwargs=kw)
        lines = [
            f"liminf_estimate_nats={result['liminf_estimate']:.12g}",
            f"analytic_value_nats={result['analytic_value']:.12g}",
            # the closed form (interleaved_capacity) blends the same three
            # constituent capacities the Cesaro path solved, in the same order
            f"closed_form_nats={result['analytic_value']:.12g}",
        ]
        partial = result["partial_averages"]
        _write_csv(
            out / "partial_averages.csv", header, ["n", "average_nats"],
            ((i + 1, f"{v:.12g}") for i, v in enumerate(partial)),
        )
    _write_text(out / "capacity.txt", header, lines)
    click.echo(f"wrote {out / 'capacity.txt'}")


@main.command()
@common_options
@click.option("--n", default=2000, show_default=True, type=int)
@click.option("--draws", default=10_000, show_default=True, type=click.IntRange(min=1))
@click.option("--delta", default=DEFAULT_DELTA, show_default=True,
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
def spectrum(spec_path, out_dir, seed, workers, n, draws, delta):
    """Information-density histogram and spectral quantile summary."""
    spec = load_spec(spec_path)
    if spec["kind"] != "mixture":
        raise SpecError("spectrum requires a mixture spec (a single system is a 1-component mixture)")
    if "policy" not in spec:
        raise SpecError("spectrum requires a policy in the spec")
    out, header = _output(out_dir, seed, spec_path)
    samples = mixture_spectrum_demo(spec["mixture"], spec["policy"], n=n, draws=draws, seed=seed)
    inf_est = spectral_rate_estimate(samples, "inf", delta)
    sup_est = spectral_rate_estimate(samples, "sup", delta)
    lo = np.floor(samples.samples.min() / HIST_BIN_NATS) * HIST_BIN_NATS
    hi = np.ceil(samples.samples.max() / HIST_BIN_NATS) * HIST_BIN_NATS + HIST_BIN_NATS
    edges = np.arange(lo, hi + HIST_BIN_NATS / 2, HIST_BIN_NATS)
    counts, _ = np.histogram(samples.samples, bins=edges)
    _write_csv(
        out / "spectrum_hist.csv", header, ["bin_left_nats", "count"],
        ((f"{edges[i]:.6f}", int(c)) for i, c in enumerate(counts)),
    )
    _write_text(
        out / "spectrum_summary.txt", header,
        [
            f"n={n}", f"draws={samples.count}", f"delta={delta:.6g}",
            f"inf_rate_estimate_nats={inf_est:.12g}",
            f"sup_rate_estimate_nats={sup_est:.12g}",
            f"tail_infinite={samples.tail_infinite}",
        ],
    )
    click.echo(f"wrote {out / 'spectrum_hist.csv'}")


@main.command()
@common_options
@click.option("--n", default=200, show_default=True, type=int)
@click.option("--trials", default=1000, show_default=True, type=int)
@click.option("--draws", default=10_000, show_default=True, type=int, help="Atypicality-estimation draws.")
@click.option("--mode", default="auto", show_default=True, type=click.Choice(["auto", "explicit", "implicit"]))
def simulate(spec_path, out_dir, seed, workers, n, trials, draws, mode):
    """Random-coding trials with the rho_n bound decomposition."""
    spec = load_spec(spec_path)
    if spec["kind"] != "system":
        raise SpecError("simulate requires a system spec")
    out, header = _output(out_dir, seed, spec_path)
    if "policy" in spec:
        policy = spec["policy"]
    else:
        policy = gp_capacity_dm(
            spec["channel"], spec["state"], u_size=spec.get("u_size"), restarts=RESTARTS, seed=seed
        ).policy
    system = MemorylessSystem(spec["state"], policy, spec["channel"])
    gamma1 = float(spec.get("gamma1", 0.02))
    gamma2 = float(spec.get("gamma2", 0.02))
    rate = spec.get("rate")
    if rate is None and "rate_scale" in spec:
        rate = float(spec["rate_scale"]) * (system.i_uy - system.i_us)
    experiment = design_experiment(
        system, n, gamma1, gamma2, rate=rate, seed=seed, trials=trials
    )
    report = run_experiment(system, experiment, mode=mode, pi_draws=draws)
    _write_csv(out / "trials.csv", header, TRIAL_COLUMNS, (r.csv_row() for r in report.trials))
    rates = report.event_rates()
    lines = [
        f"n={experiment.n}", f"trials={experiment.trials}", f"mode={report.mode}",
        f"rate_nats={experiment.rate:.12g}", f"rate_total_nats={experiment.rate_total:.12g}",
        f"gamma1={experiment.gamma1:.6g}", f"gamma2={experiment.gamma2:.6g}",
        f"empirical_error={report.empirical_error:.6g}",
        f"error_ci_low={report.error_ci[0]:.6g}", f"error_ci_high={report.error_ci[1]:.6g}",
        f"pi1={report.pi1:.6g}", f"pi2={report.pi2:.6g}",
    ]
    lines += [f"rho_term.{k}={v:.6g}" for k, v in report.rho_terms.items()]
    lines += [f"event_rate.{k}={v:.6g}" for k, v in rates.items()]
    lines += [
        f"error_within_bound={report.empirical_error <= report.rho_n + 3 * _bern_sigma(report.empirical_error, experiment.trials)}",
        f"converse_mode={report.converse_mode}",
    ]
    _write_text(out / "summary.txt", header, lines)
    click.echo(f"wrote {out / 'summary.txt'}")


def _bern_sigma(p: float, n: int) -> float:
    return (max(p * (1 - p), 1e-12) / n) ** 0.5


@main.command()
@common_options
@click.option("--v-size", default=None, type=click.IntRange(min=1), help="Defaults to the spec's v_size, then the cardinality bound.")
@click.option("--u-size", default=None, type=click.IntRange(min=1), help="Defaults to the spec's u_size, then the cardinality bound.")
@click.option("--restarts", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--grid-points", default=9, show_default=True, type=click.IntRange(min=1))
def region(spec_path, out_dir, seed, workers, v_size, u_size, restarts, grid_points):
    """(R, R_d) frontier for a rate-limited state description at the decoder."""
    spec = load_spec(spec_path)
    if spec["kind"] != "system":
        raise SpecError("region requires a system spec")
    out, header = _output(out_dir, seed, spec_path)
    rd_grid = spec.get("rd_grid")
    if rd_grid is None:
        rd_grid = np.linspace(0.0, math.log(max(spec["channel"].n_states, 2)), grid_points)
    points = region_frontier(
        spec["channel"], spec["state"],
        v_size=spec.get("v_size") if v_size is None else v_size,
        u_size=spec.get("u_size") if u_size is None else u_size,
        rd_grid=np.asarray(rd_grid, dtype=np.float64), restarts=restarts, seed=seed,
    )
    _write_csv(
        out / "frontier.csv", header, ["r_d_nats", "r_nats"],
        ((f"{p.r_d:.12g}", f"{p.r:.12g}") for p in points),
    )
    knee = saturation_knee(points)
    lines = [f"saturation_knee_r_d={'none' if knee is None else f'{knee:.12g}'}"]
    for p in points:
        lines.append(f"point r_d={p.r_d:.12g} r={p.r:.12g}")
        lines.append(f"  v_given_s={np.array2string(p.policy.v_given_s, precision=6)}")
        lines.append(f"  u_given_vs={np.array2string(p.policy.u_given_vs, precision=6)}")
        lines.append(f"  g={np.array2string(np.asarray(p.policy.x_map))}")
    _write_text(out / "region_policies.txt", header, lines)
    click.echo(f"wrote {out / 'frontier.csv'}")


if __name__ == "__main__":
    main()
