import contextlib
import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from gpchannel import __version__
from gpchannel.cli import EXIT_BUDGET, EXIT_INTERNAL, EXIT_VALIDATION, main
from gpchannel.coding import BudgetError
from gpchannel.info import SampleBudgetError
from gpchannel.prob import DimensionError, ValidationError
from gpchannel.specio import SpecError, load_spec

from conftest import bin_capacity


def bsc(p):
    return [[1.0 - p, p], [p, 1.0 - p]]


def system_spec(**extra):
    spec = {
        "kind": "system",
        "state_pmf": [0.5, 0.5],
        "channel": [bsc(0.1), bsc(0.1)],
        "policy": {"u_given_s": [[0.5, 0.5], [0.5, 0.5]], "g": [[0, 0], [1, 1]]},
    }
    spec.update(extra)
    return spec


def mixture_spec():
    return {
        "kind": "mixture",
        "channel_mixture": [
            {"weight": 0.5, "channel": [bsc(0.05), bsc(0.05)]},
            {"weight": 0.5, "channel": [bsc(0.25), bsc(0.25)]},
        ],
        "state_mixture": [{"weight": 1.0, "state_pmf": [0.5, 0.5]}],
        "policy": {"u_given_s": [[0.5, 0.5], [0.5, 0.5]], "g": [[0, 0], [1, 1]]},
    }


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def run(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def read_headers(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [l for l in lines if l.startswith("#")]


class TestCapacityCommand:
    def test_system_both_sides(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(side_information="both"))
        out = tmp_path / "out"
        res = run(["capacity", "--spec", str(spec), "--out", str(out), "--seed", "1"])
        assert res.exit_code == 0
        text = (out / "capacity.txt").read_text(encoding="utf-8")
        value = float(next(l for l in text.splitlines() if l.startswith("value_nats=")).split("=")[1])
        assert value == pytest.approx(bin_capacity(0.1), abs=1e-6)
        headers = read_headers(out / "capacity.txt")
        assert headers[0] == f"# gpchannel {__version__}"
        assert headers[1] == "# seed=1"
        assert headers[2].startswith("# spec_digest=")

    def test_encoder_side_reports_no_value_clip(self, tmp_path):
        spec = write_spec(tmp_path, system_spec())
        out = tmp_path / "out"
        res = run(["capacity", "--spec", str(spec), "--out", str(out), "--restarts", "1"])
        assert res.exit_code == 0
        lines = (out / "capacity.txt").read_text(encoding="utf-8").splitlines()
        assert "diagnostics.value_clipped=False" in lines

    def test_stateless_none(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {"kind": "system", "state_pmf": [1.0], "channel": [bsc(0.1)], "side_information": "none"},
        )
        out = tmp_path / "out"
        res = run(["capacity", "--spec", str(spec), "--out", str(out)])
        assert res.exit_code == 0
        text = (out / "capacity.txt").read_text(encoding="utf-8")
        value = float(next(l for l in text.splitlines() if l.startswith("value_nats=")).split("=")[1])
        assert value == pytest.approx(bin_capacity(0.1), abs=1e-6)

    def test_none_rejects_stateful_channel(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(side_information="none"))
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION

    def test_mixture_lower_bound(self, tmp_path):
        spec = write_spec(tmp_path, mixture_spec())
        out = tmp_path / "out"
        res = run(["capacity", "--spec", str(spec), "--out", str(out), "--restarts", "5"])
        assert res.exit_code == 0
        text = (out / "capacity.txt").read_text(encoding="utf-8")
        assert "bound=lower" in text
        value = float(next(l for l in text.splitlines() if l.startswith("value_nats=")).split("=")[1])
        # the worst component dominates the exact mixed objective
        assert 0.0 < value <= bin_capacity(0.25) + 1e-9

    def test_j_structured_outputs(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "kind": "j-structured",
                "channels": {"a": [bsc(0.05), bsc(0.05)], "b": [bsc(0.25), bsc(0.25)], "c": [bsc(0.1), bsc(0.1)]},
                "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]},
                "n_max": 2048,
            },
        )
        out = tmp_path / "out"
        res = run(["capacity", "--spec", str(spec), "--out", str(out), "--restarts", "4"])
        assert res.exit_code == 0
        text = (out / "capacity.txt").read_text(encoding="utf-8")
        assert "liminf_estimate_nats=" in text
        assert "closed_form_nats=" in text
        csv_lines = (out / "partial_averages.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[3] == "n,average_nats"
        assert len(csv_lines) == 4 + 2048

    def test_j_structured_solves_each_constituent_once(self, tmp_path, monkeypatch):
        import gpchannel.capacity as capacity

        calls = []
        solve = capacity.gp_capacity_dm

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(capacity, "gp_capacity_dm", counting)
        spec = write_spec(
            tmp_path,
            {
                "kind": "j-structured",
                "channels": {"a": [bsc(0.05), bsc(0.05)], "b": [bsc(0.25), bsc(0.25)], "c": [bsc(0.1), bsc(0.1)]},
                "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]},
                "n_max": 64,
            },
        )
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o"), "--restarts", "1"])
        assert res.exit_code == 0
        assert len(calls) == 3

    @pytest.mark.parametrize("key", ["a", "b"])
    def test_j_structured_rejects_asymmetric_odd_channel(self, tmp_path, key):
        channels = {"a": [bsc(0.05), bsc(0.05)], "b": [bsc(0.25), bsc(0.25)], "c": [bsc(0.1), bsc(0.1)]}
        channels[key] = [[[0.9, 0.1], [0.3, 0.7]], bsc(0.1)]
        spec = write_spec(
            tmp_path,
            {"kind": "j-structured", "channels": channels, "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]}},
        )
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert f"channels.{key}" in res.output

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_pmf_names_key(self, tmp_path, bad):
        spec = write_spec(tmp_path, system_spec(state_pmf=[bad, 1.0]))
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert "state_pmf" in res.output
        assert not (tmp_path / "o" / "capacity.txt").exists()

    def test_zero_u_size_rejected(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(u_size=0))
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert "u_size" in res.output

    def test_mixture_zero_u_size_rejected(self, tmp_path):
        spec = write_spec(tmp_path, dict(mixture_spec(), u_size=0))
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert "u_size" in res.output

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_rejected(self, tmp_path, restarts):
        spec = write_spec(tmp_path, system_spec())
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o"), "--restarts", restarts])
        assert res.exit_code == EXIT_VALIDATION
        assert "--restarts" in res.output
        assert not (tmp_path / "o").exists()

    def test_version_matches_project_metadata(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == __version__ == "0.1.0"

    def test_malformed_pmf_names_key(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(state_pmf=[0.6, 0.3]))
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert "state_pmf" in res.output

    def test_n_max_not_a_number_names_key(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "kind": "j-structured",
                "channels": {"a": [bsc(0.05), bsc(0.05)], "b": [bsc(0.25), bsc(0.25)], "c": [bsc(0.1), bsc(0.1)]},
                "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]},
                "n_max": "many",
            },
        )
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert "n_max" in res.output

    @pytest.mark.parametrize("n_max", [100.7, 3, "64"])
    def test_n_max_not_an_integer_horizon_names_key(self, tmp_path, n_max):
        spec = write_spec(
            tmp_path,
            {
                "kind": "j-structured",
                "channels": {"a": [bsc(0.05), bsc(0.05)], "b": [bsc(0.25), bsc(0.25)], "c": [bsc(0.1), bsc(0.1)]},
                "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]},
                "n_max": n_max,
            },
        )
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o"), "--restarts", "1"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.output.startswith("error: n_max:")

    @pytest.mark.parametrize(
        "command, args",
        [
            ("capacity", ["--restarts", "1"]),
            ("simulate", ["--n", "20", "--trials", "5"]),
            ("region", ["--restarts", "1"]),
        ],
    )
    def test_unknown_side_information_names_key(self, tmp_path, command, args):
        spec = write_spec(tmp_path, system_spec(side_information="bogus", rd_grid=[0.0]))
        res = run([command, "--spec", str(spec), "--out", str(tmp_path / "o"), *args])
        assert res.exit_code == EXIT_VALIDATION
        assert res.output.startswith("error: side_information:")
        assert not (tmp_path / "o").exists()

    def test_unexpected_exception_exits_internal(self, tmp_path, monkeypatch):
        import gpchannel.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("solver invariant\nbroken")

        monkeypatch.setattr(cli, "gp_capacity_dm", broken)
        spec = write_spec(tmp_path, system_spec())
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_INTERNAL
        assert res.output == "internal error: RuntimeError: solver invariant broken\n"


class TestSpecAlphabets:
    """Sizes that disagree across spec keys exit 2 and name the key."""

    @pytest.mark.parametrize("command", ["capacity", "simulate", "region"])
    def test_state_pmf_against_channel_states(self, tmp_path, command):
        spec = write_spec(tmp_path, system_spec(channel=[bsc(0.1)] * 3, rd_grid=[0.0]))
        res = run([command, "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert "state_pmf" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "policy, key",
        [
            ({"u_given_s": [[0.5, 0.25, 0.25]] * 2, "g": [[0, 0], [1, 1]]}, "policy.g"),
            ({"u_given_s": [[0.5, 0.5]] * 3, "g": [[0, 0, 0], [1, 1, 1]]}, "policy.u_given_s"),
            ({"u_given_s": [[0.5, 0.5]] * 2, "g": [[0, 0], [1, 2]]}, "policy.g"),
        ],
    )
    def test_policy_against_itself_and_channel(self, tmp_path, policy, key):
        spec = write_spec(tmp_path, system_spec(policy=policy))
        res = run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o"), "--n", "20", "--trials", "5"])
        assert res.exit_code == EXIT_VALIDATION
        assert key in res.output

    @pytest.mark.parametrize(
        "part, value, key",
        [
            ("state_mixture", [{"weight": 1.0, "state_pmf": [0.5, 0.25, 0.25]}], "state_mixture[0].state_pmf"),
            ("channel_mixture", [{"weight": 0.5, "channel": [bsc(0.05)] * 2},
                                 {"weight": 0.5, "channel": [bsc(0.25)] * 3}], "channel_mixture[1].channel"),
        ],
    )
    def test_mixture_components_against_first_channel(self, tmp_path, part, value, key):
        spec = write_spec(tmp_path, dict(mixture_spec(), **{part: value}))
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o"), "--restarts", "1"])
        assert res.exit_code == EXIT_VALIDATION
        assert key in res.output

    def test_j_structured_state_against_its_channel(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "kind": "j-structured",
                "channels": {"a": [bsc(0.05)] * 2, "b": [bsc(0.25)] * 2, "c": [bsc(0.1)] * 2},
                "states": {"a": [0.5, 0.5], "b": [0.5, 0.25, 0.25]},
            },
        )
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o"), "--restarts", "1"])
        assert res.exit_code == EXIT_VALIDATION
        assert "states.b" in res.output


class TestExitCodes:
    """Every subcommand reaches the one exception-to-exit-code map."""

    @pytest.mark.parametrize(
        "spec, key",
        [
            (dict(mixture_spec(), channel_mixture=[{"weight": "half", "channel": [bsc(0.05)] * 2}]),
             "channel_mixture[0].weight"),
            (system_spec(policy={"u_given_s": [["half", 0.5], [0.5, 0.5]], "g": [[0, 0], [1, 1]]}),
             "policy.u_given_s"),
            ({"kind": "j-structured", "channels": [1, 2], "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]}},
             "channels"),
            (system_spec(policy={"u_given_s": [[0.5, 0.5], [0.5, 0.5]], "g": [[0, 0], [1]]}), "policy.g"),
            (system_spec(policy=3), "policy"),
            (system_spec(state_pmf=["0.5", "0.5"]), "state_pmf"),
            (dict(mixture_spec(), state_mixture=1), "state_mixture"),
        ],
    )
    def test_malformed_spec_value_names_key(self, tmp_path, spec, key):
        spec = write_spec(tmp_path, spec)
        res = run(["capacity", "--spec", str(spec), "--out", str(tmp_path / "o"), "--restarts", "1"])
        assert res.exit_code == EXIT_VALIDATION
        assert res.output.startswith(f"error: {key}:")
        assert not (tmp_path / "o").exists()

    def test_any_malformed_spec_value_is_a_validation_error(self, tmp_path):
        """Each node of each spec kind, replaced by each bad value, loads or exits 2."""
        specs = [
            system_spec(side_information="encoder", gamma1=0.02, gamma2=0.02, rate=0.1, rate_scale=0.5,
                        u_size=2, v_size=2, rd_grid=[0.0, 0.5]),
            dict(mixture_spec(), u_size=2),
            {"kind": "j-structured", "channels": {"a": [bsc(0.05)] * 2, "b": [bsc(0.25)] * 2, "c": [bsc(0.1)] * 2},
             "states": {"a": [0.5, 0.5], "b": [0.5, 0.5]}, "n_max": 64, "u_size": 2},
        ]
        bad_values = ["x", None, True, 5, -1, 2.5, [], [1, 2], {}, {"a": 1}, [[0, 0], [1]], [["a", 0.5]], math.nan]

        def nodes(obj, path=()):
            children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
            for key, child in children:
                yield path + (key,)
                yield from nodes(child, path + (key,))

        for spec in specs:
            for path in nodes(spec):
                for value in bad_values:
                    broken = json.loads(json.dumps(spec))
                    parent = broken
                    for key in path[:-1]:
                        parent = parent[key]
                    parent[path[-1]] = value
                    with contextlib.suppress(SpecError, ValidationError):
                        load_spec(write_spec(tmp_path, broken))

    @pytest.mark.parametrize(
        "command, target, error, code, args",
        [
            ("region", "region_frontier", ValidationError, EXIT_VALIDATION, ["--restarts", "1"]),
            ("simulate", "run_experiment", BudgetError, EXIT_BUDGET, ["--n", "20", "--trials", "5"]),
            ("spectrum", "mixture_spectrum_demo", SampleBudgetError, EXIT_BUDGET, ["--n", "20", "--draws", "200"]),
            ("capacity", "gp_capacity_dm", DimensionError, EXIT_VALIDATION, ["--restarts", "1"]),
        ],
    )
    def test_solver_error_maps_to_exit_code(self, tmp_path, monkeypatch, command, target, error, code, args):
        import gpchannel.cli as cli

        def refusing(*a, **kw):
            raise error("refused by the solver")

        monkeypatch.setattr(cli, target, refusing)
        spec = write_spec(tmp_path, mixture_spec() if command == "spectrum" else system_spec(rd_grid=[0.0]))
        res = run([command, "--spec", str(spec), "--out", str(tmp_path / "o"), *args])
        assert res.exit_code == code
        assert res.output == "error: refused by the solver\n"


class TestSpectrumCommand:
    def test_round_trip(self, tmp_path):
        spec = write_spec(tmp_path, mixture_spec())
        out = tmp_path / "out"
        res = run(["spectrum", "--spec", str(spec), "--out", str(out), "--n", "500", "--draws", "2000"])
        assert res.exit_code == 0
        summary = (out / "spectrum_summary.txt").read_text(encoding="utf-8")
        assert "inf_rate_estimate_nats=" in summary
        hist = (out / "spectrum_hist.csv").read_text(encoding="utf-8").splitlines()
        assert hist[3] == "bin_left_nats,count"
        counts = [int(l.split(",")[1]) for l in hist[4:]]
        assert sum(counts) == 2000

    def test_requires_mixture(self, tmp_path):
        spec = write_spec(tmp_path, system_spec())
        res = run(["spectrum", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION

    def test_zero_blocklength(self, tmp_path):
        spec = write_spec(tmp_path, mixture_spec())
        res = run(["spectrum", "--spec", str(spec), "--out", str(tmp_path / "o"), "--n", "0"])
        assert res.exit_code == EXIT_VALIDATION
        assert "n must be positive" in res.output

    def test_zero_draws(self, tmp_path):
        spec = write_spec(tmp_path, mixture_spec())
        res = run(["spectrum", "--spec", str(spec), "--out", str(tmp_path / "o"), "--draws", "0"])
        assert res.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("delta", ["0", "1.5"])
    def test_delta_outside_unit_interval(self, tmp_path, delta):
        spec = write_spec(tmp_path, mixture_spec())
        res = run(["spectrum", "--spec", str(spec), "--out", str(tmp_path / "o"), "--n", "50",
                   "--draws", "200", "--delta", delta])
        assert res.exit_code == EXIT_VALIDATION
        assert "--delta" in res.output
        assert not (tmp_path / "o").exists()


class TestSimulateCommand:
    def test_round_trip_and_reproducibility(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(rate_scale=0.5))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--spec", str(spec), "--n", "20", "--trials", "50", "--draws", "500", "--seed", "3"]
        assert run(args + ["--out", str(out_a), "--workers", "1"]).exit_code == 0
        assert run(args + ["--out", str(out_b), "--workers", "8"]).exit_code == 0
        for name in ("trials.csv", "summary.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        lines = (out_a / "trials.csv").read_text(encoding="utf-8").splitlines()
        assert lines[3] == "trial,message,L,e1,e2,e3,decoded,ok"
        assert len(lines) == 4 + 50
        summary = (out_a / "summary.txt").read_text(encoding="utf-8")
        assert "rho_term.rho_n=" in summary
        assert "error_within_bound=True" in summary

    def test_default_policy_solved_as_capacity_solves_it(self, tmp_path, monkeypatch):
        import gpchannel.cli as cli

        calls = []
        solve = cli.gp_capacity_dm

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "gp_capacity_dm", spy)
        spec = system_spec(u_size=2)
        del spec["policy"]
        spec = write_spec(tmp_path, spec)
        for command, extra in (("capacity", []), ("simulate", ["--n", "20", "--trials", "5", "--draws", "200"])):
            res = run([command, "--spec", str(spec), "--out", str(tmp_path / command), "--seed", "4", *extra])
            assert res.exit_code == 0
        # capacity, then simulate
        assert calls == [{"u_size": 2, "restarts": cli.RESTARTS, "seed": 4}] * 2

    def test_explicit_budget_refusal(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(rate_scale=0.7))
        res = run(
            ["simulate", "--spec", str(spec), "--out", str(tmp_path / "o"),
             "--n", "400", "--trials", "10", "--mode", "explicit"]
        )
        assert res.exit_code == EXIT_BUDGET
        assert "implicit" in res.output

    def test_requires_system(self, tmp_path):
        spec = write_spec(tmp_path, mixture_spec())
        res = run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("value", ["0.02", None, math.nan, True])
    @pytest.mark.parametrize("key", ["gamma1", "gamma2", "rate", "rate_scale"])
    def test_scalar_not_a_finite_number_names_key(self, tmp_path, key, value):
        spec = write_spec(tmp_path, system_spec(**{key: value}))
        res = run(["simulate", "--spec", str(spec), "--out", str(tmp_path / "o"), "--n", "20", "--trials", "5"])
        assert res.exit_code == EXIT_VALIDATION
        assert key in res.output
        assert not (tmp_path / "o").exists()


class TestRegionCommand:
    def test_round_trip(self, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "kind": "system",
                "state_pmf": [0.5, 0.5],
                "channel": [bsc(0.1), [[0.1, 0.9], [0.9, 0.1]]],
                "rd_grid": [0.0, math.log(2)],
            },
        )
        out = tmp_path / "out"
        res = run(
            ["region", "--spec", str(spec), "--out", str(out),
             "--v-size", "3", "--u-size", "4", "--restarts", "2"]
        )
        assert res.exit_code == 0
        lines = (out / "frontier.csv").read_text(encoding="utf-8").splitlines()
        assert lines[3] == "r_d_nats,r_nats"
        rows = [tuple(map(float, l.split(","))) for l in lines[4:]]
        assert len(rows) == 2
        assert rows[0][1] <= rows[1][1] + 1e-9
        assert (out / "region_policies.txt").exists()

    def test_negative_grid(self, tmp_path):
        spec = write_spec(tmp_path, system_spec(rd_grid=[-1.0, 0.0]))
        res = run(["region", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION

    @pytest.mark.parametrize("grid", [[], "0.1", [0.0, "x"], [0.0, math.inf]])
    def test_bad_grid_names_key(self, tmp_path, grid):
        spec = write_spec(tmp_path, system_spec(rd_grid=grid))
        res = run(["region", "--spec", str(spec), "--out", str(tmp_path / "o"), "--v-size", "1", "--u-size", "1"])
        assert res.exit_code == EXIT_VALIDATION
        assert "rd_grid" in res.output

    def test_zero_grid_points_rejected(self, tmp_path):
        spec = write_spec(tmp_path, system_spec())
        res = run(["region", "--spec", str(spec), "--out", str(tmp_path / "o"), "--grid-points", "0"])
        assert res.exit_code == EXIT_VALIDATION
        assert "--grid-points" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["--restarts", "--v-size", "--u-size"])
    def test_option_below_one_rejected(self, tmp_path, option):
        spec = write_spec(tmp_path, system_spec(rd_grid=[0.0]))
        res = run(["region", "--spec", str(spec), "--out", str(tmp_path / "o"), option, "0"])
        assert res.exit_code == EXIT_VALIDATION
        assert option in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", [0, 2.5])
    @pytest.mark.parametrize("key", ["v_size", "u_size"])
    def test_spec_size_not_positive_integer_rejected(self, tmp_path, key, value):
        spec = write_spec(tmp_path, system_spec(rd_grid=[0.0], **{key: value}))
        res = run(["region", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_VALIDATION
        assert key in res.output

    def test_spec_sizes_used_unless_options_given(self, tmp_path, monkeypatch):
        import gpchannel.cli as cli

        sizes = []
        frontier = cli.region_frontier

        def recording(*args, **kwargs):
            sizes.append((kwargs["v_size"], kwargs["u_size"]))
            return frontier(*args, **kwargs)

        monkeypatch.setattr(cli, "region_frontier", recording)
        spec = write_spec(tmp_path, system_spec(rd_grid=[0.0], v_size=2, u_size=2))
        out = tmp_path / "out"
        res = run(["region", "--spec", str(spec), "--out", str(out), "--restarts", "1"])
        assert res.exit_code == 0
        res = run(["region", "--spec", str(spec), "--out", str(out), "--restarts", "1", "--u-size", "3"])
        assert res.exit_code == 0
        assert sizes == [(2, 2), (2, 3)]
