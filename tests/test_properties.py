"""Property tests for the primitives every estimator shares: the
counts-times-log-table block score, the explicit decoder's type-count
scores and the E2 test built on it, the inverse-CDF sampler and the
table-driven draws of the trial path, the mixture spectrum's
log-sum-exp, the spectral order statistic, the GP optimizer's
enumeration of input maps up to relabelling, its objective and gradient
over batch rows and component pairs, the merging of auxiliary symbols
that share a row of the input map, the retirement of GP starts on
their concavity bound, the effective channel of an input map, the
Cesaro running averages over a slot table, the region solver's softmax,
its penalised objective and its gradient, the one check every
probability row goes through, and the stateless capacity as the
one-state case of the state-known-at-both-ends capacity."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from gpchannel import kernels
import gpchannel.capacity as capacity
from gpchannel.capacity import (
    _divergences,
    _gradient,
    _kernels_by_state,
    _objective_terms,
    _relabelling_classes,
    blahut_arimoto,
    no_state_capacity,
    optimize_gp_policy,
    state_at_both_capacity,
)
from gpchannel.coding import MemorylessSystem, _atypical, draw, inverse_cdf
from gpchannel.info import SpectrumSamples, counts_scores, spectral_rate_estimate
from gpchannel.mixture import _logsumexp
from gpchannel.prob import ChannelKernel, GPPolicy, Pmf, ValidationError, check_rows, effective_kernel
from gpchannel.region import _kernel_rates, _penalty_value_and_grad, _softmax, _unpack

from conftest import full_product_maps

_log_entries = st.one_of(st.floats(-50.0, 50.0), st.just(-math.inf))


@st.composite
def counts_and_table(draw):
    cells = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 5))
    table = np.array(draw(st.lists(_log_entries, min_size=cells, max_size=cells)))
    counts = np.array(
        draw(st.lists(st.lists(st.integers(0, 20), min_size=cells, max_size=cells), min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    return counts, table


@st.composite
def pmf(draw, size):
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=size, max_size=size))
    if sum(weights) == 0.0:
        weights[draw(st.integers(0, size - 1))] = 1.0
    w = np.array(weights)
    return w / w.sum()


@st.composite
def codebook_case(draw):
    n_u, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.one_of(st.floats(-50.0, 50.0), st.just(-math.inf), st.just(math.nan))
    table = np.array(draw(st.lists(cell, min_size=n_u * n_y, max_size=n_u * n_y))).reshape(n_u, n_y)
    n, words, blocks = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 4))

    def symbols(below, shape, dtype):
        cells = draw(st.lists(st.integers(0, below - 1), min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(cells, dtype=dtype).reshape(shape)

    codewords = symbols(n_u, (words, n), draw(st.sampled_from([np.uint8, np.int64])))
    return table, codewords, symbols(n_y, (blocks, n), np.int64)


_uniforms = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30)


@given(counts_and_table())
def test_counts_scores_matches_direct_sum(data):
    counts, table = data
    got = counts_scores(counts, table)
    assert not np.isnan(got).any()
    for row, value in zip(counts, got):
        counted = row > 0
        if np.isneginf(table[counted]).any():
            assert value == -math.inf
        else:
            direct = math.fsum(c * t for c, t in zip(row[counted], table[counted]))
            assert math.isfinite(value)
            assert math.isclose(value, direct, rel_tol=1e-12, abs_tol=1e-9)


@given(codebook_case(), st.integers(1, 64))
def test_codebook_scores_match_per_cell_sum(case, chunk_elements):
    table, codewords, y_blocks = case
    # small chunks make the kernel walk the codebook in several row chunks
    with mock.patch.object(kernels, "_CHUNK_ELEMENTS", chunk_elements):
        got = kernels.codebook_scores(table, codewords, y_blocks)
    assert got.shape == (y_blocks.shape[0], codewords.shape[0])
    assert not np.isnan(got).any()
    for block, row in zip(y_blocks, got):
        for word, value in zip(codewords, row):
            cells = table[word, block]
            if not np.isfinite(cells).all():
                assert value == -math.inf
            else:
                assert math.isfinite(value)
                assert math.isclose(value, math.fsum(cells), rel_tol=1e-12, abs_tol=1e-9)


# u = 2 is never used, so row 2 of d_uy is NaN (undefined); W(1|x=0) = 0 and
# W(2|x=1) = 0 make the cells (0, 1) and (1, 2) -inf on positive marginals
_E2_SYSTEM = MemorylessSystem(
    Pmf(np.array([1.0])),
    GPPolicy(u_given_s=np.array([[0.5, 0.5, 0.0]]), x_map=np.array([[0], [1], [0]])),
    ChannelKernel(np.array([[[0.8, 0.0, 0.2], [0.1, 0.9, 0.0]]])),
)
_E2_PAIRS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40)


@settings(max_examples=300)
@given(_E2_PAIRS, st.floats(-3.0, 3.0), st.sampled_from([np.uint8, np.int64]))
@example([(0, 0), (0, 1), (1, 1)], -3.0, np.uint8)  # a -inf cell
@example([(1, 0), (2, 0)], -3.0, np.int64)  # an undefined cell
def test_atypical_matches_sum_by_position(pairs, t1, u_dtype):
    table = _E2_SYSTEM.d_uy
    assert np.isneginf(table[0, 1]) and np.isnan(table[2]).all()
    u_block = np.array([u for u, _ in pairs], dtype=u_dtype)
    y_block = np.array([y for _, y in pairs], dtype=np.intp)
    entries = [float(table[u, y]) for u, y in pairs]
    total = sum(entries) if all(map(math.isfinite, entries)) else -math.inf
    # the two summation orders may round apart right at the threshold
    assume(not math.isfinite(total) or abs(total - len(pairs) * t1) > 1e-9)
    assert _atypical(_E2_SYSTEM, u_block, y_block, t1) == (not total >= len(pairs) * t1)


@given(st.integers(1, 6).flatmap(pmf), _uniforms)
def test_shared_pmf_sample_in_support(p, uniforms):
    u = np.array([0.0] + uniforms)
    out = draw(inverse_cdf(p), u)
    assert out.shape == u.shape
    assert ((out >= 0) & (out < p.size)).all()
    assert (p[out] > 0).all()


@given(st.integers(1, 5).flatmap(lambda m: st.lists(pmf(m), min_size=1, max_size=8)), st.data())
def test_row_sample_in_support(rows, data):
    rows = np.array(rows)
    tail = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=rows.shape[0] - 1,
                              max_size=rows.shape[0] - 1))
    u = np.array([0.0] + tail)
    out = draw(inverse_cdf(rows), u)
    assert out.shape == (rows.shape[0],)
    assert ((out >= 0) & (out < rows.shape[1])).all()
    assert (rows[np.arange(rows.shape[0]), out] > 0).all()


def _reference_symbol(row: np.ndarray, u: float) -> int:
    """The symbol j with cdf[j-1] <= u < cdf[j], capped at the first
    symbol whose cdf reaches the row's rounded total."""
    cdf = np.cumsum(row)
    return min(int((cdf[:-1] <= u).sum()), int(np.flatnonzero(cdf == cdf[-1])[0]))


@st.composite
def table_picks(draw):
    """pmf rows and (row, uniform) picks, each row also drawn at its
    rounded total and just below it."""
    m = draw(st.integers(1, 5))
    probs = np.array(draw(st.lists(pmf(m), min_size=1, max_size=6)))
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(0.0), st.just(1 - 2**-53))
    picks = draw(st.lists(st.tuples(st.integers(0, len(probs) - 1), uniform), min_size=1, max_size=40))
    totals = np.cumsum(probs, axis=1)[:, -1]
    picks += [(r, min(float(totals[r]), 1 - 2**-53)) for r in range(len(probs))]
    picks += [(r, float(np.nextafter(totals[r], 0.0))) for r in range(len(probs))]
    return probs, picks


@settings(max_examples=300)
@given(table_picks())
# ten cells of 0.1 sum to 1 - 2**-53, the largest uniform: the zero-mass
# symbol after them must not be drawn there; the second row also starts
# with a zero-mass symbol that u = 0.0 must skip
@example((np.array([[0.1] * 10 + [0.0], [0.0] + [0.1] * 10]), [(0, 0.0), (0, 1 - 2**-53), (1, 0.0), (1, 1 - 2**-53)]))
def test_table_draw_equals_draw_of_gathered_rows(case):
    probs, picks = case
    rows = np.array([r for r, _ in picks], dtype=np.intp)
    u = np.array([x for _, x in picks])
    got = draw(inverse_cdf(probs)[:, rows], u)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, draw(inverse_cdf(probs[rows]), u))
    np.testing.assert_array_equal(got, [_reference_symbol(probs[r], x) for r, x in picks])
    assert (probs[rows, got] > 0).all()
    # a shared pmf draws the same symbols as one row per uniform
    np.testing.assert_array_equal(draw(inverse_cdf(probs[0]), u), draw(inverse_cdf(probs[[0] * u.size]), u))


_log_terms = st.one_of(
    st.sampled_from([0.0, -1.5, 2.0, 700.0, -math.inf, math.inf]),  # repeats make ties
    st.floats(-800.0, 800.0),
    st.just(-math.inf),
)


@settings(max_examples=400)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.lists(_log_terms, min_size=m, max_size=m), min_size=1, max_size=5)))
@example([[-math.inf, 2.0, math.inf]])  # one component
@example([[-math.inf, 1.0], [-math.inf, 1.0], [-math.inf, 1.0]])  # an all -inf column, a 3-way tie
@example([[math.inf, 800.0], [-math.inf, 800.0]])  # +inf against -inf, a sum past the float range
def test_mixture_logsumexp_is_scipys_bit_for_bit(rows):
    a = np.array(rows, dtype=np.float64)
    got, want = _logsumexp(a), logsumexp(a, axis=0)
    assert got.shape == want.shape == a.shape[1:]
    assert got.tobytes() == want.tobytes()


_thetas = st.one_of(st.sampled_from([0.0, -1.5, 2.0]), st.floats(-1000.0, 1000.0))  # repeats make ties


@settings(max_examples=400)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.lists(_thetas, min_size=m, max_size=m), min_size=1, max_size=8)))
def test_region_softmax_is_scipys_bit_for_bit(rows):
    a = np.array(rows, dtype=np.float64)
    got, want = _softmax(a), softmax(a, axis=-1)
    assert got.shape == want.shape == a.shape
    assert got.tobytes() == want.tobytes()


@given(st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.25]), st.floats(-5.0, 5.0)), min_size=1, max_size=300),
       st.floats(0.001, 1.0))
def test_spectral_rate_is_the_sorted_order_statistic(values, delta):
    assume(len(values) >= 1.0 / delta)
    samples = SpectrumSamples(samples=np.array(values))
    ordered = np.sort(values)
    k = math.ceil(delta * len(values))
    assert spectral_rate_estimate(samples, "inf", delta) == ordered[k - 1]
    assert spectral_rate_estimate(samples, "sup", delta) == ordered[len(values) - k]

@st.composite
def map_alphabets(draw):
    """(|U|, |S|, |X|) whose full product of maps stays small."""
    n_inputs, n_states = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    u_max = max(u for u in range(1, 5) if n_inputs ** (u * n_states) <= 4096)
    return draw(st.integers(1, u_max)), n_states, n_inputs


@given(map_alphabets())
def test_relabelling_classes_one_map_per_class(sizes):
    u_size, n_states, n_inputs = sizes
    maps = _relabelling_classes(u_size, n_states, n_inputs)
    n_rows = n_inputs**n_states
    assert maps.shape == (math.comb(n_rows + u_size - 1, u_size), u_size, n_states)
    place = n_inputs ** np.arange(n_states - 1, -1, -1)
    codes = [tuple(int(r) for r in m @ place) for m in maps]
    # rows ascending within each map, maps in ascending order
    assert all(list(c) == sorted(c) for c in codes)
    assert codes == sorted(set(codes))
    # exactly one map per class of the full product
    product_maps = full_product_maps(u_size, n_states, n_inputs)
    assert set(codes) == {tuple(sorted(int(r) for r in m @ place)) for m in product_maps}


@st.composite
def kernel_and_maps(draw):
    """(w[s, x, y], a (B, U, S) batch of maps) with every alphabet at most 4."""
    n_s, n_x, n_y, n_u = (draw(st.integers(1, 4)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = rng.integers(0, n_x, size=(draw(st.integers(1, 5)), n_u, n_s))
    return rng.dirichlet(np.ones(n_y), size=(n_s, n_x)), maps


@given(kernel_and_maps())
def test_effective_kernel_batch_matches_per_map_and_loop(case):
    w, maps = case
    batch = effective_kernel(w, maps)
    assert batch.shape == maps.shape + (w.shape[2],)
    for g, wg in zip(maps, batch):
        np.testing.assert_array_equal(effective_kernel(w, g), wg)
        for u, s in np.ndindex(g.shape):
            np.testing.assert_array_equal(wg[u, s], w[s, g[u, s]])


@st.composite
def objective_batch(draw, k_n, l_n, batch=7, n_s=3):
    """(v (B,S,U), state laws (L,S), channels (K,S,X,Y), maps (B,U,S)),
    with zero-mass cells in every table."""
    n_x, n_y, n_u = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(1, 4))

    def rows(size, count):
        return np.array([draw(pmf(size)) for _ in range(count)])

    v = rows(n_u, batch * n_s).reshape(batch, n_s, n_u)
    channels = rows(n_y, k_n * n_s * n_x).reshape(k_n, n_s, n_x, n_y)
    maps = np.array(draw(st.lists(st.integers(0, n_x - 1), min_size=batch * n_u * n_s, max_size=batch * n_u * n_s)))
    return v, rows(n_s, l_n), channels, maps.reshape(batch, n_u, n_s)


@pytest.mark.parametrize("k_n, l_n", [(1, 1), (1, 2), (2, 1), (2, 2)])
@settings(max_examples=40)
@given(data=st.data())
def test_objective_terms_round_the_same_alone_and_in_a_batch(k_n, l_n, data):
    # the optimizer scores a row inside a batch of hundreds and
    # mixed_lower_bound scores it alone; both must read the same bits
    v, states, channels, maps = data.draw(objective_batch(k_n, l_n))
    batch = _objective_terms(v, states, _kernels_by_state(channels, maps))
    for b in range(len(v)):
        alone = _objective_terms(v[b : b + 1], states, _kernels_by_state(channels, maps[b : b + 1]))
        for got, want in zip(alone[:3], batch[:3]):  # obj, I1, I2
            assert got[0].tobytes() == want[b].tobytes()


def _gradient_by_pair(weights, wg, lam, i2, dens, log_pu, log_v):
    """_gradient as one accumulation per component pair (k, l), the
    reference its array form must match bit for bit."""
    grad = np.zeros_like(log_v)
    for k, l in np.ndindex(lam.shape[1:]):
        inner = np.einsum("sbuy,buy->bsu", np.ascontiguousarray(wg[:, :, k]), dens[:, k, l])
        grad += lam[:, k, l, None, None] * weights[l][None, :, None] * (inner - log_pu[:, l, None, :])
    active = i2.argmax(axis=1)
    for l, w in enumerate(weights):
        grad -= np.where((active == l)[:, None, None], w[None, :, None] * (log_v - log_pu[:, l, None, :]), 0.0)
    return grad


@pytest.mark.parametrize("k_n, l_n", [(1, 1), (1, 2), (2, 1), (2, 2)])
@settings(max_examples=40)
@given(data=st.data())
def test_objective_and_gradient_match_each_component_pair(k_n, l_n, data):
    v, states, channels, maps = data.draw(objective_batch(k_n, l_n))
    wg = _kernels_by_state(channels, maps)
    terms = _objective_terms(v, states, wg)
    for k, l in np.ndindex(k_n, l_n):
        _, i1, i2, dens, log_pu, _ = _objective_terms(v, states[l : l + 1], wg[:, :, k : k + 1])
        assert i1[:, 0, 0].tobytes() == terms[1][:, k, l].tobytes()
        assert i2[:, 0].tobytes() == terms[2][:, l].tobytes()
        assert dens[:, 0, 0].tobytes() == terms[3][:, k, l].tobytes()
        assert log_pu[:, 0].tobytes() == terms[4][:, l].tobytes()
    lam = np.array([data.draw(pmf(k_n * l_n)) for _ in v]).reshape(len(v), k_n, l_n)
    rho = states.max(axis=0)
    weights = states / np.where(rho > 0, rho, 1.0)
    got = _gradient(weights, wg, lam, *terms[2:])
    assert got.tobytes() == _gradient_by_pair(weights, wg, lam, *terms[2:]).tobytes()



@pytest.mark.parametrize("k_n", [1, 2])
@settings(max_examples=60)
@given(data=st.data())
def test_merging_symbols_with_one_row_never_lowers_the_objective(k_n, data):
    # with one state law, merging u_b into u_a when g(u_a, .) = g(u_b, .)
    # keeps Y's law given (U', S), so I(U;Y|U') <= I(U;S|U') and the
    # objective min_k I(U;Y_k) - I(U;S) cannot fall (the merging lemma
    # behind the cardinality of U); with two state laws it can
    v, states, channels, maps = data.draw(objective_batch(k_n, 1))
    assume(v.shape[2] >= 2)
    a, b = data.draw(st.permutations(range(v.shape[2])))[:2]
    maps[:, b] = maps[:, a]
    merged = v.copy()
    merged[:, :, a] += merged[:, :, b]
    merged[:, :, b] = 0.0
    wg = _kernels_by_state(channels, maps)
    before = _objective_terms(v, states, wg)[0]
    after = _objective_terms(merged, states, wg)[0]
    assert (after >= before - 1e-12).all()


@pytest.mark.parametrize("k_n, l_n", [(1, 1), (1, 2), (2, 1), (2, 2)])
@settings(max_examples=15)
@given(data=st.data())
def test_stopped_rows_keep_the_never_stopping_value(k_n, l_n, data):
    # a row retires once its ascent has converged: the solve reads no less
    # than the ascent that runs every row to the cap, and the (v, g) it
    # returns is the row that scored the returned value
    states = np.array([data.draw(pmf(2)) for _ in range(l_n)])
    channels = [np.array([[data.draw(pmf(2)) for _ in range(2)] for _ in range(2)]) for _ in range(k_n)]
    value, v, g, diag = optimize_gp_policy(states, channels, 3, restarts=1)
    assert diag["iterations"] <= capacity.ITERATIONS
    with mock.patch.object(capacity, "STOP_TOL", -1.0), mock.patch.object(capacity, "PRUNE_TOL", math.inf):
        never = optimize_gp_policy(states, channels, 3, restarts=1)
    assert never[3]["rows_at_cap"] == never[3]["batch"]
    assert value >= never[0] - 1e-9
    rescored = _objective_terms(v[None], states, _kernels_by_state(channels, g[None]))[0][0]
    assert rescored.tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("k_n, l_n", [(1, 1), (2, 1), (1, 2)])
@settings(max_examples=15)
@given(data=st.data())
def test_pruned_starts_change_no_result_bit(k_n, l_n, data):
    # with one state law the concavity bound retires a start only where it
    # can be neither the winner nor tied with it, so the search returns the
    # value, v and g of the search that prunes nothing; two state laws
    # prune nothing
    states = np.array([data.draw(pmf(2)) for _ in range(l_n)])
    n_y = data.draw(st.integers(2, 3))
    channels = [np.array([[data.draw(pmf(n_y)) for _ in range(2)] for _ in range(2)]) for _ in range(k_n)]
    seed = data.draw(st.integers(0, 2**16))
    value, v, g, diag = optimize_gp_policy(states, channels, 3, restarts=2, seed=seed)
    with mock.patch.object(capacity, "PRUNE_TOL", math.inf):
        full = optimize_gp_policy(states, channels, 3, restarts=2, seed=seed)
    assert full[3]["pruned"] == 0
    if l_n > 1:
        assert diag["pruned"] == 0
    assert np.float64(value).tobytes() == np.float64(full[0]).tobytes()
    assert v.tobytes() == full[1].tobytes() and g.tobytes() == full[2].tobytes()


@settings(max_examples=200)
@given(data=st.data())
def test_cesaro_averages_are_running_means_over_the_slot_table(data):
    # constituent capacities are preset, so no GP solve runs: index i reads
    # caps[slot[i-1]], the average at n is the plain mean of the first n
    # reads, and the liminf surrogate is the least average over [n/2, n]
    k = data.draw(st.integers(1, 4))
    caps = data.draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k))
    n = data.draw(st.integers(capacity.MIN_HORIZON, 300))
    slot = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    solves = []

    def preset(w, q, **kw):
        solves.append(w)
        return capacity.CapacityResult(value=caps[w], policy=None)

    with mock.patch.object(capacity, "gp_capacity_dm", preset):
        out = capacity.cesaro_capacity([(j, None) for j in range(k)], slot)
    reads = np.array(caps)[slot]
    means = np.array([reads[:i].mean() for i in range(1, n + 1)])
    np.testing.assert_allclose(out["partial_averages"], means, rtol=0, atol=1e-12)
    assert out["liminf_estimate"] == pytest.approx(means[n // 2 - 1:].min(), rel=0, abs=1e-12)
    assert out["constituents"] == caps
    assert solves == list(range(k))


@st.composite
def region_penalty_case(draw):
    """(theta, w, q, |V|, |U|) of a relaxed region policy on a channel
    with a zero entry; a spike of 800 in theta underflows the rest of its
    softmax row to exactly 0."""
    n_s, n_x, n_y = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, 3))
    v_size, u_size = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.dirichlet(np.ones(n_y), size=(n_s, n_x))
    w[0, 0, 0] = 0.0
    w[0, 0] /= w[0, 0].sum()
    dim = n_s * v_size + v_size * n_s * u_size + u_size * v_size * n_s * n_x
    theta = rng.normal(scale=1.5, size=dim)
    theta[rng.random(dim) < draw(st.sampled_from([0.0, 0.2]))] = 800.0
    return theta, w, rng.dirichlet(np.ones(n_s)), v_size, u_size


@settings(max_examples=60)
@given(region_penalty_case(), st.sampled_from([2.0, 20.0, 200.0]))
def test_region_penalty_gradient_matches_central_differences(case, mu):
    theta, w, q, v_size, u_size = case
    pv, pu, px = _unpack(theta, w.shape[0], v_size, u_size, w.shape[1])
    rate, cost = _kernel_rates(pv, pu, np.einsum("uvsx,sxy->vsuy", px, w), q)
    h = 1e-6
    steps = np.eye(theta.size) * h
    # budgets 0.05 nats either side of the cost: hinge active, then inactive
    for r_d in (cost - 0.05, cost + 0.05):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            value, grad = _penalty_value_and_grad(theta, w, q, v_size, u_size, mu, r_d)
        assert value == pytest.approx(-(rate - mu * max(cost - r_d, 0.0)), abs=1e-10)
        assert grad.shape == theta.shape and np.isfinite(grad).all()
        central = np.array([
            _penalty_value_and_grad(theta + e, w, q, v_size, u_size, mu, r_d)[0]
            - _penalty_value_and_grad(theta - e, w, q, v_size, u_size, mu, r_d)[0]
            for e in steps
        ]) / (2 * h)
        np.testing.assert_allclose(grad, central, rtol=0, atol=1e-7 * (1.0 + mu))


@st.composite
def rows_with_faults(draw):
    """Pmf rows on the last axis of an array of 1 to 3 axes, each of size
    1 to 4, with up to three faults injected: a NaN, an infinity, a
    negative entry -d (its mass moved to the next entry, so the row still
    sums to 1), or a row rescaled by 1 +- d. Each d sits at least 1e-13
    from both tolerances drawn below, far beyond summation error."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    fault = st.tuples(
        st.sampled_from(["nan", "inf", "-inf", "negative", "rescale"]),
        st.integers(0, rows.size - 1),
        st.sampled_from([1e-13, 1e-10, 0.3]),
        st.sampled_from([-1.0, 1.0]),
    )
    for kind, flat, d, sign in draw(st.lists(fault, max_size=3)):
        at = np.unravel_index(flat, shape)
        if kind == "negative":
            row, j = rows[at[:-1]], at[-1]
            shift = row[j] + d
            with np.errstate(invalid="ignore"):  # an earlier fault may have left inf there
                row[j] -= shift
                if row.size > 1:
                    row[(j + 1) % row.size] += shift
        elif kind == "rescale":
            rows[at[:-1]] *= 1.0 + sign * d
        else:
            rows[at] = float(kind)
    return rows


def _first_bad_row(rows, tol):
    """(index, fault) of the first row in C order that is not a pmf within tol."""
    for idx in np.ndindex(rows.shape[:-1]):
        row = rows[idx].tolist()
        if not all(map(math.isfinite, row)):
            return idx, "non-finite entry"
        if min(row) < 0:
            return idx, "negative entry"
        if abs(math.fsum(row) - 1.0) > tol:
            return idx, "sums to"
    return None


@settings(max_examples=300)
@given(rows_with_faults(), st.sampled_from([1e-12, 1e-9]))
def test_check_rows_rejects_exactly_the_first_bad_row(rows, tol):
    bad = _first_bad_row(rows, tol)
    if bad is None:
        out = check_rows(rows, "rows", tol)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, rows)
        return
    idx, fault = bad
    with pytest.raises(ValidationError) as exc:
        check_rows(rows, "rows", tol)
    row = f"row {', '.join(map(str, idx))}: " if idx else ""
    assert str(exc.value).startswith(f"rows: {row}{fault}")


@given(st.integers(1, 5).flatmap(lambda n_y: st.lists(pmf(n_y), min_size=1, max_size=5)))
def test_no_state_capacity_is_the_one_state_case_of_state_at_both(rows):
    channel = ChannelKernel(np.array(rows)[None])
    got = no_state_capacity(channel)
    want = state_at_both_capacity(channel, Pmf(np.array([1.0])))
    assert got.value == want.value
    assert got.diagnostics == want.diagnostics
    np.testing.assert_array_equal(got.policy.u_given_s, want.policy.u_given_s)
    np.testing.assert_array_equal(got.policy.x_map, want.policy.x_map)
    # and both are Blahut-Arimoto's figures, bit for bit
    value, r = blahut_arimoto(channel.w[0])
    assert got.value == value
    assert got.diagnostics["upper_bound"] == float(_divergences(channel.w[0], r).max())
    np.testing.assert_array_equal(got.policy.u_given_s, r[None])
