"""Property tests for the primitives every estimator shares: the
counts-times-log-table block score, the explicit decoder's type-count
scores built on it, and the inverse-CDF sampler."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpchannel import kernels
from gpchannel.coding import sample
from gpchannel.info import counts_scores

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
