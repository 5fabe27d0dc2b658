"""Property tests for the two primitives every estimator shares: the
counts-times-log-table block score and the inverse-CDF sampler."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
