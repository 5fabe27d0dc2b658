import math
from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from scipy.special import xlogy

import gpchannel.capacity as capacity
from gpchannel.capacity import (
    blahut_arimoto,
    cesaro_capacity,
    gp_capacity_dm,
    interleaved_value,
    j_density_extrema,
    j_structured_slots,
    no_state_capacity,
    odd_j_mask,
    optimize_gp_policy,
    state_at_both_capacity,
)
from gpchannel.prob import ChannelKernel, Pmf, ValidationError, effective_kernel
from gpchannel.rng import stream

from conftest import bin_capacity, bsc_matrix, full_product_maps, state_blind_bsc, state_flip_bsc


def in_dyadic_blocks(i: int) -> bool:
    """Closed-form block rule for the alternation index set."""
    return i.bit_length() % 2 == 0


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
        res = no_state_capacity(ChannelKernel(bsc_matrix(0.1)[None]))
        assert res.value == pytest.approx(bin_capacity(0.1), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
    def test_upper_bound_bsc_closed_form(self, p):
        res = no_state_capacity(ChannelKernel(bsc_matrix(p)[None]))
        assert res.diagnostics["upper_bound"] == pytest.approx(bin_capacity(p), abs=1e-9)

    def test_upper_bound_above_value_on_random_channels(self):
        rng = stream(0, 21)
        for _ in range(100):
            n_x, n_y = rng.integers(1, 6, size=2)
            w = rng.dirichlet(np.ones(n_y), size=n_x)
            w[rng.random(w.shape) < 0.2] = 0.0  # zero entries, rows kept non-empty
            w[:, 0] += w.sum(axis=1) == 0
            w /= w.sum(axis=1, keepdims=True)
            res = no_state_capacity(ChannelKernel(w[None]))
            bound = res.diagnostics["upper_bound"]
            assert res.value <= bound + 1e-12
            # informative, not just log|Y|: BA stops within 1e-4 of it here
            assert bound - res.value < 1e-4
            # and BA stops on its duality gap, so the bound certifies the value
            assert bound - res.value <= 1e-9


class TestGPCapacity:
    def test_pure_noise_zero(self, uniform_state):
        w = np.full((2, 2, 2), 0.5)
        res = gp_capacity_dm(ChannelKernel(w), uniform_state, u_size=3, restarts=4)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_clean_channel_ln2(self, uniform_state):
        res = gp_capacity_dm(state_blind_bsc(0.0), uniform_state, u_size=3, restarts=4)
        assert res.value == pytest.approx(math.log(2), abs=1e-6)

    def test_state_blind_bsc_matches_ba(self, uniform_state):
        res = gp_capacity_dm(state_blind_bsc(0.1), uniform_state, u_size=3, restarts=6)
        assert res.value == pytest.approx(bin_capacity(0.1), abs=1e-4)

    def test_state_flip_reaches_ln2(self, uniform_state):
        res = gp_capacity_dm(state_flip_bsc(0.0), uniform_state, u_size=3, restarts=6)
        assert res.value == pytest.approx(math.log(2), abs=1e-3)

    def test_sanity_cap_and_nonnegativity(self, uniform_state):
        res = gp_capacity_dm(state_flip_bsc(0.3), uniform_state, u_size=3, restarts=4)
        assert 0.0 <= res.value <= math.log(2) + 1e-12

    def test_one_step_is_closed_form_update(self, monkeypatch):
        # with one channel and one state law, the first step from a start v
        # is v(u|s) ~ exp sum_y W_g(y|u,s) log P(u|y) on the symbols v uses;
        # the winning row starts uniform or is the averaged-channel start
        monkeypatch.setattr(capacity, "ITERATIONS", 1)
        rng = stream(0, 24)
        q = rng.dirichlet(np.ones(2))
        w = rng.dirichlet(np.ones(2), size=(2, 2))
        _, v, g, _ = optimize_gp_policy([q], [w], 5, restarts=1)
        start, g_avg = capacity._averaged_channel_candidate([q], [w], 5)
        if not np.array_equal(g, g_avg):
            start = np.full((2, 5), 0.2)
        wg = effective_kernel(w, g)  # (U,S,Y)
        joint = np.einsum("s,su,usy->uy", q, start, wg)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_post = np.where(joint > 0, np.log(joint / joint.sum(axis=0)), 0.0)
        expected = np.where(start > 0, np.exp(np.einsum("usy,uy->su", wg, log_post)), 0.0)
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(v, expected, rtol=0, atol=1e-12)

    def test_converged_rows_stop_before_the_cap(self, monkeypatch):
        # the region anchor's shape: a clean and a noisy state at |U| = 2,
        # one start per class; every row converges well before the cap and
        # the solve keeps the value of the ascent that never stops
        ch, state = sym_bsc_kernel(0.03, 0.3), Pmf(np.array([0.45, 0.55]))
        res = gp_capacity_dm(ch, state, u_size=2, restarts=1)
        assert res.diagnostics["iterations"] < capacity.ITERATIONS
        assert res.diagnostics["rows_at_cap"] == 0
        monkeypatch.setattr(capacity, "STOP_TOL", -1.0)
        monkeypatch.setattr(capacity, "PRUNE_TOL", math.inf)
        never = gp_capacity_dm(ch, state, u_size=2, restarts=1)
        assert never.diagnostics["iterations"] == capacity.ITERATIONS
        assert never.diagnostics["rows_at_cap"] == never.diagnostics["batch"]
        assert res.value == pytest.approx(never.value, abs=1e-12)

    def test_value_above_log_outputs_clipped_and_flagged(self, uniform_state, monkeypatch):
        solve = capacity.optimize_gp_policy

        def inflated(*args, **kwargs):
            value, v, g, diag = solve(*args, **kwargs)
            return value + 1.0, v, g, diag

        monkeypatch.setattr(capacity, "optimize_gp_policy", inflated)
        res = gp_capacity_dm(state_flip_bsc(0.1), uniform_state, u_size=2, restarts=1)
        assert res.value == math.log(2)
        assert res.diagnostics["value_clipped"] is True

    def test_monotone_in_u_size(self, uniform_state):
        ch = sym_bsc_kernel(0.05, 0.3)
        values = [
            gp_capacity_dm(ch, uniform_state, u_size=u, restarts=4, seed=1).value
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
            gp = gp_capacity_dm(ch, state, u_size=3, restarts=4).value
            averaged, _ = blahut_arimoto(np.einsum("s,sxy->xy", q, w))
            both = state_at_both_capacity(ch, state).value
            assert gp >= averaged - 1e-6
            assert gp <= both + 1e-6

    def test_heuristic_mode_flagged(self, uniform_state):
        # u_size large enough to push past the exhaustive-g budget
        res = gp_capacity_dm(state_blind_bsc(0.1), uniform_state, u_size=3, restarts=2, seed=0)
        assert not res.diagnostics["heuristic_warning"]
        big = gp_capacity_dm(state_blind_bsc(0.1), uniform_state, u_size=12, restarts=2, seed=0)
        assert big.diagnostics["heuristic_warning"]
        assert big.value == pytest.approx(bin_capacity(0.1), abs=1e-3)

    def test_few_classes_enumerated_past_the_alphabet_cap(self):
        # a stateless 5-input channel at the default |U| = 6 has
        # comb(10, 6) = 210 relabelling classes, fewer than the maps a
        # heuristic sample draws, so all of them are searched
        w = stream(0, 25).dirichlet(np.ones(5), size=(1, 5))
        res = gp_capacity_dm(ChannelKernel(w), Pmf(np.ones(1)), restarts=2)
        assert res.diagnostics["u_size"] == 6
        assert not res.diagnostics["heuristic_warning"]
        assert res.diagnostics["batch"] == 210 * 2 + 1  # plus the averaged-channel start
        assert res.value == pytest.approx(blahut_arimoto(w[0])[0], abs=1e-6)


class TestSearchSize:
    """optimize_gp_policy refuses a search whose kernels would not fit
    before it draws a start or builds a map."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        class Started(Exception):
            pass

        def started(*args):
            raise Started
        monkeypatch.setattr(capacity, "stream", started)
        return Started

    def test_u_size_too_large_rejected(self, uniform_state, no_search):
        w = state_flip_bsc(0.1).w
        # 256 sampled maps x 20 starts + 1 rows of 2 x 100000 x 2 cells
        with pytest.raises(ValidationError, match="u_size: 100000 needs 2048400000 kernel cells"):
            optimize_gp_policy([uniform_state.probs], [w], 100000)

    def test_largest_known_search_allowed(self, no_search):
        # |S| = |X| = 3, |Y| = 2 at |U| = 4: 27405 classes x 20 starts + 1 rows, 13.2 M cells
        w = stream(0, 26).dirichlet(np.ones(2), size=(3, 3))
        with pytest.raises(no_search):
            optimize_gp_policy([np.full(3, 1 / 3)], [w], 4)


class TestMapClasses:
    """The optimizer runs its starts once per relabelling class of maps,
    on the class's smallest map."""

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

        def solve():
            return optimize_gp_policy(states, channels, 4, restarts=restarts, seed=5)

        classes = solve()
        monkeypatch.setattr(capacity, "_relabelling_classes", full_product_maps)
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
    def test_several_starts_keep_full_product_value(self, which):
        # more starts never lower the value, which at one start is the full
        # product search's (above); the 1e-12 allows the gradient's einsum
        # to round differently at a different batch size
        states, channels = self._problems()[which]
        one, several = (optimize_gp_policy(states, channels, 4, restarts=r, seed=5) for r in (1, 4))
        assert several[3]["batch"] == 4 * math.comb(4 + 4 - 1, 4) + 1
        assert several[0] >= one[0] - 1e-12

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
        res = gp_capacity_dm(ch, uniform_state, u_size=3, restarts=6)

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

        # I(U;Y) - I(U;S) = sum a log a - sum p_Y log p_Y - sum_s q_s sum_u v log v
        # for a(u,y) = sum_s q_s v(u|s) W_g(y|u,s): each grid row's (U,Y)
        # contribution per state is computed once, and the pairs (v0, v1) of
        # grid rows are summed by broadcasting over chunks of v0 rows
        q = uniform_state.probs
        neg_h = xlogy(grid, grid).sum(axis=1)  # sum_u v log v per grid row
        best = -np.inf
        chunk = 128
        for g in g_classes:
            wg = ch.w[np.arange(2)[None, :], g, :]  # (U,S,Y)
            part = [q[s] * grid[:, :, None] * wg[None, :, s] for s in range(2)]  # (rows,U,Y) per state
            for lo in range(0, n_rows, chunk):
                a = part[0][lo : lo + chunk, None] + part[1][None]  # (chunk,rows,U,Y)
                p_y = a.sum(axis=2)
                obj = xlogy(a, a).sum(axis=(2, 3)) - xlogy(p_y, p_y).sum(axis=2)
                obj -= q[0] * neg_h[lo : lo + chunk, None] + q[1] * neg_h[None]
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
        out = cesaro_capacity(
            [(state_blind_bsc(0.1), uniform_state)], np.zeros(64, int), solver_kwargs={"u_size": 3, "restarts": 4}
        )
        assert np.allclose(out["partial_averages"], out["partial_averages"][0])
        assert out["liminf_estimate"] == pytest.approx(bin_capacity(0.1), abs=1e-4)

    def test_equal_constituents_insensitive_to_j(self, uniform_state):
        ch = state_blind_bsc(0.2)
        out = cesaro_capacity(
            [(ch, uniform_state)] * 3, j_structured_slots(2**10), solver_kwargs={"u_size": 3, "restarts": 4}
        )
        c = bin_capacity(0.2)
        assert out["liminf_estimate"] == pytest.approx(c, abs=1e-4)
        assert interleaved_value(*out["constituents"]) == pytest.approx(c, abs=1e-4)

    def test_periodic(self, uniform_state):
        out = cesaro_capacity(
            [(state_blind_bsc(0.0), uniform_state), (state_blind_bsc(0.5), uniform_state)],
            np.resize([0, 1], 2**10),
            solver_kwargs={"u_size": 3, "restarts": 4},
        )
        assert out["liminf_estimate"] == pytest.approx(0.5 * math.log(2), abs=1e-3)

    def test_rejects_small_horizon(self, uniform_state):
        with pytest.raises(ValueError):
            cesaro_capacity([(state_blind_bsc(0.1), uniform_state)], np.zeros(2, int))

    @pytest.mark.parametrize("bad", [-1, 2, 0.5])
    def test_rejects_slot_outside_constituents(self, uniform_state, bad):
        slot = np.array([0, 1, 0, bad])
        with pytest.raises(ValidationError, match="slot"):
            cesaro_capacity([(state_blind_bsc(0.1), uniform_state)] * 2, slot)

    def test_j_structured_slots(self):
        # odd indices inside the dyadic blocks use slot 0, odd ones outside slot 1, even ones slot 2
        expected = [2 if i % 2 == 0 else 0 if in_dyadic_blocks(i) else 1 for i in range(1, 65)]
        np.testing.assert_array_equal(j_structured_slots(64), expected)


class TestClosedForm:
    KW = {"u_size": 3, "restarts": 4}

    def test_weighted_blend_equal_channels(self, uniform_state):
        c = gp_capacity_dm(sym_bsc_kernel(0.1, 0.1), uniform_state, **self.KW).value
        v = interleaved_value(c, c, c)
        assert v == pytest.approx(c, abs=1e-9)

    def test_weighted_blend_arithmetic(self, uniform_state):
        # capacities c_a and c_b blend as (2/3) min + (1/3) max
        ca = gp_capacity_dm(sym_bsc_kernel(0.05, 0.05), uniform_state, **self.KW).value
        cb = gp_capacity_dm(sym_bsc_kernel(0.25, 0.25), uniform_state, **self.KW).value
        v = 2 * interleaved_value(ca, cb, 0.0)
        assert v == pytest.approx((2 / 3) * min(ca, cb) + (1 / 3) * max(ca, cb), abs=1e-9)

    def test_all_useless_is_zero(self, uniform_state):
        c = gp_capacity_dm(sym_bsc_kernel(0.5, 0.5), uniform_state, **self.KW).value
        v = interleaved_value(c, c, c)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_equal_pair_averages(self, uniform_state):
        ca = gp_capacity_dm(sym_bsc_kernel(0.1, 0.1), uniform_state, **self.KW).value
        cc = gp_capacity_dm(sym_bsc_kernel(0.2, 0.2), uniform_state, **self.KW).value
        v = interleaved_value(ca, ca, cc)
        assert v == pytest.approx(0.5 * (ca + cc), abs=1e-9)

    def test_matches_cesaro_path(self, uniform_state):
        rng = stream(0, 22)
        qs = rng.uniform(0.05, 0.45, size=5)
        wa = sym_bsc_kernel(qs[0], qs[1])
        wb = sym_bsc_kernel(qs[2], qs[3])
        wc = sym_bsc_kernel(qs[4], qs[0])
        kw = self.KW
        closed = interleaved_value(*(gp_capacity_dm(w, uniform_state, **kw).value for w in (wa, wb, wc)))
        out = cesaro_capacity(
            [(wa, uniform_state), (wb, uniform_state), (wc, uniform_state)], j_structured_slots(2**14), solver_kwargs=kw
        )
        analytic = interleaved_value(*out["constituents"])
        # one blend of the same constituent solves: equal to the last bit
        assert analytic == closed
        assert analytic == pytest.approx(closed, abs=1e-9)
        assert out["liminf_estimate"] == pytest.approx(closed, abs=0.01)
