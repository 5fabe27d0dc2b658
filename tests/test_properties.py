"""Property tests for the primitives every estimator shares: the
counts-times-log-table block score, the explicit decoder's type-count
scores and the E2 test built on it, the inverse-CDF sampler, the GP
optimizer's enumeration of input maps up to relabelling, the effective
channel of an input map, the region solver's penalised objective and
its gradient, and the one check every probability row goes through."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpchannel import kernels
from gpchannel.capacity import _enumerate_g, _onto_relabelling_classes
from gpchannel.coding import MemorylessSystem, _atypical, sample
from gpchannel.info import counts_scores
from gpchannel.prob import ChannelKernel, ConditionalPmf, GPPolicy, Pmf, ValidationError, check_rows, effective_kernel
from gpchannel.region import _kernel_rates, _penalty_value_and_grad, _unpack

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


@settings(deadline=None)
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


@settings(deadline=None)
@given(codebook_case(), st.integers(1, 64))
def test_codebook_scores_match_per_cell_sum(case, chunk_elements):
    table, codewords, y_blocks = case
    # small chunks make the kernel walk the codebook in several row chunks
    with mock.patch.object(kernels, "_CHUNK_ELEMENTS", chunk_elements):
        got = kernels.codebook_scores(table, codewords, y_blocks)
        first = kernels.codebook_scores(table, codewords, y_blocks[0])
    assert got.shape == (y_blocks.shape[0], codewords.shape[0])
    assert first.shape == (codewords.shape[0],)
    assert not np.isnan(got).any()
    for block, row in zip(y_blocks, got):
        for word, value in zip(codewords, row):
            cells = table[word, block]
            if not np.isfinite(cells).all():
                assert value == -math.inf
            else:
                assert math.isfinite(value)
                assert math.isclose(value, math.fsum(cells), rel_tol=1e-12, abs_tol=1e-9)
    np.testing.assert_allclose(first, got[0], rtol=1e-12, atol=1e-9)


# u = 2 is never used, so row 2 of d_uy is NaN (undefined); W(1|x=0) = 0 and
# W(2|x=1) = 0 make the cells (0, 1) and (1, 2) -inf on positive marginals
_E2_SYSTEM = MemorylessSystem(
    Pmf(np.array([1.0])),
    GPPolicy(u_given_s=ConditionalPmf(np.array([[0.5, 0.5, 0.0]])), x_map=np.array([[0], [1], [0]])),
    ChannelKernel(np.array([[[0.8, 0.0, 0.2], [0.1, 0.9, 0.0]]])),
)
_E2_PAIRS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40)


@settings(deadline=None, max_examples=300)
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


@settings(deadline=None)
@given(st.integers(1, 6).flatmap(pmf), _uniforms)
def test_shared_pmf_sample_in_support(p, uniforms):
    u = np.array([0.0] + uniforms)
    out = sample(p, u)
    assert out.shape == u.shape
    assert ((out >= 0) & (out < p.size)).all()
    assert (p[out] > 0).all()


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda m: st.lists(pmf(m), min_size=1, max_size=8)), st.data())
def test_row_sample_in_support(rows, data):
    rows = np.array(rows)
    tail = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=rows.shape[0] - 1,
                              max_size=rows.shape[0] - 1))
    u = np.array([0.0] + tail)
    out = sample(rows, u)
    assert out.shape == (rows.shape[0],)
    assert ((out >= 0) & (out < rows.shape[1])).all()
    assert (rows[np.arange(rows.shape[0]), out] > 0).all()


@st.composite
def map_alphabets(draw):
    """(|U|, |S|, |X|) whose full product of maps stays small."""
    n_inputs, n_states = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    u_max = max(u for u in range(1, 5) if n_inputs ** (u * n_states) <= 4096)
    return draw(st.integers(1, u_max)), n_states, n_inputs


@settings(deadline=None)
@given(map_alphabets())
def test_uniform_starts_leave_one_map_per_relabelling_class(sizes):
    u_size, n_states, n_inputs = sizes
    product_maps = full_product_maps(u_size, n_states, n_inputs)
    np.testing.assert_array_equal(_enumerate_g(u_size, n_states, n_inputs), product_maps)
    uniform = np.full((len(product_maps), n_states, u_size), 1.0 / u_size)
    maps, v = _onto_relabelling_classes(product_maps, uniform, n_inputs)
    n_rows = n_inputs**n_states
    assert maps.shape == (math.comb(n_rows + u_size - 1, u_size), u_size, n_states)
    assert (v == 1.0 / u_size).all()
    place = n_inputs ** np.arange(n_states - 1, -1, -1)
    codes = [tuple(int(r) for r in m @ place) for m in maps]
    # rows sorted within each map, maps in the full product's order
    assert all(list(c) == sorted(c) for c in codes)
    assert codes == sorted(set(codes))
    listed = set(codes)
    for m in product_maps:
        assert tuple(sorted(int(r) for r in m @ place)) in listed


@settings(deadline=None)
@given(map_alphabets(), st.integers(0, 2**32 - 1))
def test_random_starts_are_kept_and_only_relabelled(sizes, seed):
    u_size, n_states, n_inputs = sizes
    product_maps = full_product_maps(u_size, n_states, n_inputs)
    starts = np.random.default_rng(seed).dirichlet(np.ones(u_size), size=(len(product_maps), n_states))
    maps, v = _onto_relabelling_classes(product_maps, starts, n_inputs)
    assert maps.shape == product_maps.shape
    for g_in, v_in, g_out, v_out in zip(product_maps, starts, maps, v):
        # the same (row, column of v) pairs, stably sorted by row
        pairs_in = sorted(zip(map(tuple, g_in.tolist()), map(tuple, v_in.T.tolist())), key=lambda p: p[0])
        assert list(zip(map(tuple, g_out.tolist()), map(tuple, v_out.T.tolist()))) == pairs_in


@st.composite
def kernel_and_maps(draw):
    """(w[s, x, y], a (B, U, S) batch of maps) with every alphabet at most 4."""
    n_s, n_x, n_y, n_u = (draw(st.integers(1, 4)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    maps = rng.integers(0, n_x, size=(draw(st.integers(1, 5)), n_u, n_s))
    return rng.dirichlet(np.ones(n_y), size=(n_s, n_x)), maps


@settings(deadline=None)
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


@settings(deadline=None, max_examples=60)
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


@settings(deadline=None, max_examples=300)
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
