import math
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest

import gpchannel.capacity as capacity
from gpchannel.capacity import (
    SequenceSpec,
    _averaged_channel_candidate,
    blahut_arimoto,
    cesaro_capacity,
    dyadic_alternation_value,
    gp_capacity_dm,
    in_dyadic_blocks,
    interleaved_capacity,
    j_density_extrema,
    no_state_capacity,
    odd_j_mask,
    optimize_gp_policy,
    state_at_both_capacity,
)
from gpchannel.prob import ChannelKernel, Pmf, ValidationError
from gpchannel.rng import stream

from conftest import bin_capacity, bsc_matrix, full_product_maps, state_blind_bsc, state_flip_bsc


def sym_bsc_kernel(p0: float, p1: float) -> ChannelKernel:
    """State-symmetric binary channel: BSC(p0) in state 0, BSC(p1) in state 1."""
    return ChannelKernel(np.stack([bsc_matrix(p0), bsc_matrix(p1)]))


class TestBlahutArimoto:
    @pytest.mark.parametrize("p,expected", [(0.0, math.log(2)), (0.5, 0.0)])
    def test_endpoints(self, p, expected):
        value, _ = blahut_arimoto(bsc_matrix(p))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_bsc_closed_form(self):
        value, r = blahut_arimoto(bsc_matrix(0.1))
        assert value == pytest.approx(bin_capacity(0.1), abs=1e-9)
        np.testing.assert_allclose(r, 0.5, atol=1e-6)

    def test_no_state_wrapper(self):
        res = no_state_capacity(bsc_matrix(0.1))
        assert res.value == pytest.approx(bin_capacity(0.1), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
    def test_upper_bound_bsc_closed_form(self, p):
        res = no_state_capacity(bsc_matrix(p))
        assert res.diagnostics["upper_bound"] == pytest.approx(bin_capacity(p), abs=1e-9)

    def test_upper_bound_above_value_on_random_channels(self):
        rng = stream(0, 21)
        for _ in range(100):
            n_x, n_y = rng.integers(1, 6, size=2)
            w = rng.dirichlet(np.ones(n_y), size=n_x)
            w[rng.random(w.shape) < 0.2] = 0.0  # zero entries, rows kept non-empty
            w[:, 0] += w.sum(axis=1) == 0
            w /= w.sum(axis=1, keepdims=True)
            res = no_state_capacity(w)
            bound = res.diagnostics["upper_bound"]
            assert res.value <= bound + 1e-12
            # informative, not just log|Y|: BA stops within 1e-4 of it here
            assert bound - res.value < 1e-4


class TestGPCapacity:
    def test_pure_noise_zero(self, uniform_state):
        w = np.full((2, 2, 2), 0.5)
        res = gp_capacity_dm(ChannelKernel(w), uniform_state, u_size=3, restarts=4, iters=80)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_clean_channel_ln2(self, uniform_state):
        res = gp_capacity_dm(state_blind_bsc(0.0), uniform_state, u_size=3, restarts=4, iters=80)
        assert res.value == pytest.approx(math.log(2), abs=1e-6)

    def test_state_blind_bsc_matches_ba(self, uniform_state):
        res = gp_capacity_dm(state_blind_bsc(0.1), uniform_state, u_size=3, restarts=6, iters=150)
        assert res.value == pytest.approx(bin_capacity(0.1), abs=1e-4)

    def test_state_flip_reaches_ln2(self, uniform_state):
        res = gp_capacity_dm(state_flip_bsc(0.0), uniform_state, u_size=3, restarts=6, iters=150)
        assert res.value == pytest.approx(math.log(2), abs=1e-3)

    def test_sanity_cap_and_nonnegativity(self, uniform_state):
        res = gp_capacity_dm(state_flip_bsc(0.3), uniform_state, u_size=3, restarts=4, iters=80)
        assert 0.0 <= res.value <= math.log(2) + 1e-12

    def test_value_above_log_outputs_clipped_and_flagged(self, uniform_state, monkeypatch):
        solve = capacity.optimize_gp_policy

        def inflated(*args, **kwargs):
            value, v, g, diag = solve(*args, **kwargs)
            return value + 1.0, v, g, diag

        monkeypatch.setattr(capacity, "optimize_gp_policy", inflated)
        res = gp_capacity_dm(state_flip_bsc(0.1), uniform_state, u_size=2, restarts=1, iters=20)
        assert res.value == math.log(2)
        assert res.diagnostics["value_clipped"] is True

    def test_monotone_in_u_size(self, uniform_state):
        ch = sym_bsc_kernel(0.05, 0.3)
        values = [
            gp_capacity_dm(ch, uniform_state, u_size=u, restarts=4, iters=120, seed=1).value
            for u in (1, 2, 3)
        ]
        assert values[1] >= values[0] - 1e-9
        assert values[2] >= values[1] - 1e-9

    def test_sandwich_between_averaged_and_two_sided(self):
        rng = stream(0, 21)
        for _ in range(10):
            w = rng.dirichlet(np.ones(2), size=(2, 2))
            q = rng.dirichlet(np.ones(2))
            ch, state = ChannelKernel(w), Pmf(q)
            gp = gp_capacity_dm(ch, state, u_size=3, restarts=4, iters=120).value
            averaged, _ = blahut_arimoto(np.einsum("s,sxy->xy", q, w))
            both = state_at_both_capacity(ch, state).value
            assert gp >= averaged - 1e-6
            assert gp <= both + 1e-6

    def test_heuristic_mode_flagged(self, uniform_state):
        # u_size large enough to push past the exhaustive-g budget
        res = gp_capacity_dm(state_blind_bsc(0.1), uniform_state, u_size=3, restarts=2, iters=60, seed=0)
        assert res.diagnostics["exhaustive_g"]
        big = gp_capacity_dm(state_blind_bsc(0.1), uniform_state, u_size=12, restarts=2, iters=60, seed=0)
        assert big.diagnostics["heuristic_warning"]
        assert big.value == pytest.approx(bin_capacity(0.1), abs=1e-3)


class TestMapClasses:
    """The optimizer runs each distinct start of the full map product once,
    moved onto its relabelling class's smallest map."""

    @staticmethod
    def _problems():
        rng = stream(0, 23)
        q = rng.dirichlet(np.ones(2))
        system = ([q], [rng.dirichlet(np.ones(2), size=(2, 2))])
        mixture = ([q], [rng.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)])
        return [system, mixture]

    @staticmethod
    def _solve_both_ways(which, restarts, monkeypatch):
        """(class search, full product search) results on one problem."""
        states, channels = TestMapClasses._problems()[which]
        u_size = 4
        cand = (_averaged_channel_candidate(states, channels, u_size, 2),)

        def solve():
            return optimize_gp_policy(states, channels, u_size, restarts=restarts, seed=5, candidates=cand)

        classes = solve()
        monkeypatch.setattr(capacity, "_onto_relabelling_classes", lambda g, v, n_inputs: (g, v))
        return classes, solve()

    @pytest.mark.parametrize("which", [0, 1], ids=["system", "mixture"])
    def test_one_start_matches_full_product_search(self, which, monkeypatch):
        # a uniform start is relabelling-invariant, so every relabelled map
        # retraces its class's path and the class search loses nothing
        classes, full = self._solve_both_ways(which, 1, monkeypatch)
        assert classes[3]["batch"] == math.comb(4 + 4 - 1, 4) + 1 < full[3]["batch"]
        assert classes[0] == pytest.approx(full[0], abs=1e-12)
        np.testing.assert_array_equal(classes[2], full[2])
        np.testing.assert_allclose(classes[1], full[1], atol=1e-9)

    @pytest.mark.parametrize("which", [0, 1], ids=["system", "mixture"])
    def test_several_starts_keep_full_product_value(self, which, monkeypatch):
        classes, full = self._solve_both_ways(which, 4, monkeypatch)
        # every random start is kept, only repeated structured ones go
        assert 2 * 2**8 < classes[3]["batch"] < full[3]["batch"]
        assert classes[0] >= full[0] - 1e-6

    def test_top_two_gap_is_to_best_other_policy(self, monkeypatch):
        # per-map reference: each of the 64 maps solved alone; a policy is
        # the set of used rows, each cut to the states that pick it
        states, channels = self._problems()[0]
        value, _, _, diag = optimize_gp_policy(states, channels, 3, restarts=1)
        per_policy, classes_of = {}, {}
        for g in full_product_maps(3, 2, 2):
            monkeypatch.setattr(capacity, "_enumerate_g", lambda *_, g=g: g[None])
            one, v, g_win, _ = optimize_gp_policy(states, channels, 3, restarts=1)
            policy = frozenset(
                tuple(int(g_win[u, s]) if v[s, u] > 1e-6 else None for s in range(2))
                for u in range(3) if (v[:, u] > 1e-6).any()
            )
            per_policy[policy] = max(per_policy.get(policy, -np.inf), one)
            classes_of.setdefault(policy, set()).add(tuple(sorted(map(tuple, g.tolist()))))
        # some classes differ only in how often a row repeats and share a policy
        assert any(len(c) > 1 for c in classes_of.values())
        best, runner_up = sorted(per_policy.values(), reverse=True)[:2]
        assert value == pytest.approx(best, abs=1e-12)
        assert best - runner_up > 1e-6
        assert diag["top_two_gap"] == pytest.approx(best - runner_up, abs=1e-12)

    def test_top_two_gap_ignores_repeats_and_unpicked_inputs(self):
        # rows s -> x over two states; row (0, 0) and row (0, 1) are picked
        # only in state 0 by the first three rows, which share one policy
        g = np.array([
            [[0, 0], [0, 0], [1, 1]],  # rows A, A, B
            [[0, 0], [1, 1], [1, 1]],  # rows A, B, B: a row repeats differently
            [[0, 1], [1, 1], [0, 0]],  # row (0, 1) in place of A: differs where unpicked
            [[0, 1], [1, 1], [0, 0]],  # state 1 picks row (0, 1): a different policy
        ])
        v = np.array([
            [[0.5, 0.0, 0.5], [0.0, 0.0, 1.0]],
            [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]],
            [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0]],
            [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]],
        ])
        obj = np.array([0.5, 0.4, 0.45, 0.2])
        assert capacity._top_two_gap(obj, v, g, 0) == pytest.approx(0.3)
        assert capacity._top_two_gap(obj[:3], v[:3], g[:3], 0) == 0.0

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_rejects_restarts_below_one(self, restarts):
        states, channels = self._problems()[0]
        with pytest.raises(ValidationError, match="restarts"):
            optimize_gp_policy(states, channels, 2, restarts=restarts)


class TestGridOracle:
    @pytest.mark.slow
    def test_state_flip_grid_search(self, uniform_state):
        """Brute-force grid over P(u|s) at resolution 1/64 with u_size=3,
        deterministic maps deduped by auxiliary-symbol relabeling."""
        ch = state_flip_bsc(0.0)
        res = gp_capacity_dm(ch, uniform_state, u_size=3, restarts=6, iters=150)

        # grid rows: all 3-vectors of 64ths
        grid = np.array(
            [(a, b, 64 - a - b) for a in range(65) for b in range(65 - a)],
            dtype=np.float64,
        ) / 64.0
        n_rows = grid.shape[0]

        # dedup g maps (u,s)->x under permutations of u
        seen, g_classes = set(), []
        for bits in product(range(2), repeat=6):
            g = np.array(bits).reshape(3, 2)
            key = min(tuple(g[list(perm)].ravel()) for perm in permutations(range(3)))
            if key not in seen:
                seen.add(key)
                g_classes.append(g)

        q = uniform_state.probs
        best = -np.inf
        chunk = 200_000
        pairs = np.array(list(product(range(n_rows), repeat=2)), dtype=np.int64)
        for g in g_classes:
            wg = ch.w[np.arange(2)[None, :], g, :]  # (U,S,Y)
            for lo in range(0, pairs.shape[0], chunk):
                idx = pairs[lo : lo + chunk]
                v = np.stack([grid[idx[:, 0]], grid[idx[:, 1]]], axis=1)  # (B,S,U)
                pu = 0.5 * (v[:, 0] + v[:, 1])
                a = np.einsum("s,bsu,usy->buy", q, v, wg)
                py = a.sum(axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = np.where(a > 0, a * np.log(a / (pu[:, :, None] * py[:, None, :])), 0.0)
                    qv = 0.5 * v
                    t2 = np.where(qv > 0, qv * np.log(v / pu[:, None, :]), 0.0)
                obj = np.nansum(t1, axis=(1, 2)) - np.nansum(t2, axis=(1, 2))
                best = max(best, float(obj.max()))
        assert res.value >= best - 1e-9
        assert abs(res.value - best) <= 5e-3
        assert res.value == pytest.approx(math.log(2), abs=1e-3)


class TestStateAtBoth:
    def test_state_blind_equals_no_state(self, uniform_state):
        res = state_at_both_capacity(state_blind_bsc(0.1), uniform_state)
        assert res.value == pytest.approx(bin_capacity(0.1), abs=1e-9)

    def test_upper_bound_is_state_weighted(self):
        state = Pmf(np.array([0.25, 0.75]))
        res = state_at_both_capacity(sym_bsc_kernel(0.1, 0.3), state)
        want = 0.25 * bin_capacity(0.1) + 0.75 * bin_capacity(0.3)
        assert res.diagnostics["upper_bound"] == pytest.approx(want, abs=1e-9)
        assert res.value <= res.diagnostics["upper_bound"] + 1e-12

    def test_mixed_clean_and_useless(self, uniform_state):
        ch = sym_bsc_kernel(0.0, 0.5)
        res = state_at_both_capacity(ch, uniform_state)
        assert res.value == pytest.approx(0.5 * math.log(2), abs=1e-9)

    def test_degenerate_state(self):
        ch = sym_bsc_kernel(0.1, 0.4)
        res = state_at_both_capacity(ch, Pmf(np.array([1.0, 0.0])))
        assert res.value == pytest.approx(bin_capacity(0.1), abs=1e-9)

    def test_agrees_with_direct_cmi_grid(self, uniform_state):
        # direct maximization of I(X;Y|S) over a grid of per-state input laws
        ch = sym_bsc_kernel(0.05, 0.3)
        res = state_at_both_capacity(ch, uniform_state)
        grid = np.linspace(0, 1, 65)
        best = -np.inf
        for a in grid:
            for b in grid:
                joint = np.zeros((2, 2, 2))  # (x,y,s)
                joint[:, :, 0] = 0.5 * (np.array([a, 1 - a])[:, None] * ch.w[0])
                joint[:, :, 1] = 0.5 * (np.array([b, 1 - b])[:, None] * ch.w[1])
                from gpchannel.info import conditional_mutual_information

                best = max(best, conditional_mutual_information(joint))
        assert res.value == pytest.approx(best, abs=1e-4)


class TestDyadicStructure:
    def test_block_rule_matches_closed_form(self):
        # J = union of [2^(2k-1), 2^(2k)) <=> even bit length
        members = set()
        k = 1
        while 2 ** (2 * k - 1) <= 2**20:
            members.update(range(2 ** (2 * k - 1), min(2 ** (2 * k), 2**20 + 1)))
            k += 1
        for i in range(1, 2**20 + 1, 997):  # stride keeps the scan fast
            assert in_dyadic_blocks(i) == (i in members)

    def test_odd_mask_tiny_prefix(self):
        mask = odd_j_mask(16)
        expected = [i for i in range(1, 17) if i % 2 == 1 and in_dyadic_blocks(i)]
        np.testing.assert_array_equal(np.flatnonzero(mask) + 1, expected)

    def test_density_extrema_brackets_thirds(self):
        out = j_density_extrema(2**16)
        assert abs(out["liminf_odd_J"] - 1.0 / 3.0) < 0.01
        assert abs(out["limsup_odd_J"] - 2.0 / 3.0) < 0.01

    def test_n2_prefix_empty(self):
        out = j_density_extrema(2**10)
        # |odds in J up to 2| = 0: J ∩ [1,2] = {2}, which is even
        assert out["partials"][1] == 0.0

    def test_rejects_small_horizon(self):
        with pytest.raises(ValueError):
            j_density_extrema(100)


class TestCesaro:
    def test_stationary_constant(self, uniform_state):
        seq = SequenceSpec(
            kind="stationary",
            channels={"a": state_blind_bsc(0.1)},
            states={"a": uniform_state.probs},
        )
        out = cesaro_capacity(seq, 64, solver_kwargs={"u_size": 3, "restarts": 4, "iters": 120})
        assert np.allclose(out["partial_averages"], out["partial_averages"][0])
        assert out["liminf_estimate"] == pytest.approx(bin_capacity(0.1), abs=1e-4)

    def test_equal_constituents_insensitive_to_j(self, uniform_state):
        ch = state_blind_bsc(0.2)
        seq = SequenceSpec(
            kind="j-structured",
            channels={"a": ch, "b": ch, "c": ch},
            states={"a": uniform_state.probs, "b": uniform_state.probs},
        )
        out = cesaro_capacity(seq, 2**10, solver_kwargs={"u_size": 3, "restarts": 4, "iters": 120})
        c = bin_capacity(0.2)
        assert out["liminf_estimate"] == pytest.approx(c, abs=1e-4)
        assert out["analytic_value"] == pytest.approx(c, abs=1e-4)

    def test_periodic(self, uniform_state):
        seq = SequenceSpec(
            kind="explicit-periodic",
            channels={"a": state_blind_bsc(0.0), "b": state_blind_bsc(0.5)},
            states={"u": uniform_state.probs},
            period=(("a", "u"), ("b", "u")),
        )
        out = cesaro_capacity(seq, 2**10, solver_kwargs={"u_size": 3, "restarts": 4, "iters": 120})
        assert out["liminf_estimate"] == pytest.approx(0.5 * math.log(2), abs=1e-3)

    def test_rejects_small_horizon(self, uniform_state):
        seq = SequenceSpec(kind="stationary", channels={"a": state_blind_bsc(0.1)}, states={"a": uniform_state.probs})
        with pytest.raises(ValueError):
            cesaro_capacity(seq, 2)


class TestClosedForm:
    KW = {"u_size": 3, "restarts": 4, "iters": 120}

    def test_weighted_blend_equal_channels(self, uniform_state):
        ch = sym_bsc_kernel(0.1, 0.1)
        v = dyadic_alternation_value(ch, ch, uniform_state, **self.KW)
        assert v == pytest.approx(gp_capacity_dm(ch, uniform_state, **self.KW).value, abs=1e-9)

    def test_weighted_blend_arithmetic(self, uniform_state):
        # capacities c_a and c_b blend as (2/3) min + (1/3) max
        ca = gp_capacity_dm(sym_bsc_kernel(0.05, 0.05), uniform_state, **self.KW).value
        cb = gp_capacity_dm(sym_bsc_kernel(0.25, 0.25), uniform_state, **self.KW).value
        v = dyadic_alternation_value(
            sym_bsc_kernel(0.05, 0.05), sym_bsc_kernel(0.25, 0.25), uniform_state, **self.KW
        )
        assert v == pytest.approx((2 / 3) * min(ca, cb) + (1 / 3) * max(ca, cb), abs=1e-9)

    def test_all_useless_is_zero(self, uniform_state):
        ch = sym_bsc_kernel(0.5, 0.5)
        v = interleaved_capacity(ch, ch, ch, uniform_state, uniform_state, **self.KW)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_equal_pair_averages(self, uniform_state):
        wa = sym_bsc_kernel(0.1, 0.1)
        wc = sym_bsc_kernel(0.2, 0.2)
        v = interleaved_capacity(wa, wa, wc, uniform_state, uniform_state, **self.KW)
        ca = gp_capacity_dm(wa, uniform_state, **self.KW).value
        cc = gp_capacity_dm(wc, uniform_state, **self.KW).value
        assert v == pytest.approx(0.5 * (ca + cc), abs=1e-9)

    def test_rejects_asymmetric_channels(self, uniform_state):
        asym = ChannelKernel(np.stack([np.array([[0.9, 0.1], [0.3, 0.7]]), bsc_matrix(0.1)]))
        with pytest.raises(ValueError):
            interleaved_capacity(asym, asym, asym, uniform_state, uniform_state, **self.KW)

    def test_matches_cesaro_path(self, uniform_state):
        rng = stream(0, 22)
        qs = rng.uniform(0.05, 0.45, size=5)
        wa = sym_bsc_kernel(qs[0], qs[1])
        wb = sym_bsc_kernel(qs[2], qs[3])
        wc = sym_bsc_kernel(qs[4], qs[0])
        kw = self.KW
        closed = interleaved_capacity(wa, wb, wc, uniform_state, uniform_state, **kw)
        seq = SequenceSpec(
            kind="j-structured",
            channels={"a": wa, "b": wb, "c": wc},
            states={"a": uniform_state.probs, "b": uniform_state.probs},
        )
        out = cesaro_capacity(seq, 2**14, solver_kwargs=kw)
        # one blend of the same constituent solves: equal to the last bit
        assert out["analytic_value"] == closed
        assert out["analytic_value"] == pytest.approx(closed, abs=1e-9)
        assert out["liminf_estimate"] == pytest.approx(closed, abs=0.01)
