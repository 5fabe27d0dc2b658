"""Finite-alphabet probability objects and the effective channel of an input map.

All probabilities are 64-bit floats, all logs natural, all rates in nats.
Objects are immutable after construction (arrays are set read-only) and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when an input fails its invariants."""


class DimensionError(ValidationError):
    """Raised when alphabet sizes of composed objects disagree."""


def check_rows(rows, what: str, tol: float = NORM_TOL) -> np.ndarray:
    """rows as float64 after checking that each row on its last axis is a pmf.

    Raises ValidationError naming what and the first offending row in C
    order when a row holds a non-finite or negative entry or its sum is
    more than tol away from 1.
    """
    r = np.asarray(rows, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        sums = r.sum(axis=-1)
    # a non-finite entry makes its row sum non-finite, which fails the sum test
    bad = (r < 0).any(axis=-1) | ~(np.abs(sums - 1.0) <= tol)
    if bad.any():
        idx = np.unravel_index(int(bad.argmax()), bad.shape)
        row = f"row {', '.join(map(str, idx))}: " if idx else ""
        fault = ("non-finite entry" if not np.isfinite(r[idx]).all() else "negative entry" if (r[idx] < 0).any()
                 else f"sums to {sums[idx]:.12g}, off by more than {tol:g}")
        raise ValidationError(f"{what}: {row}{fault}")
    return r


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Pmf:
    """Probability vector over a finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("Pmf must be a non-empty vector")
        check_rows(p, "Pmf")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def size(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ConditionalPmf:
    """Stochastic matrix: one Pmf over outputs per condition symbol."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=np.float64)
        if r.ndim != 2:
            raise ValidationError("ConditionalPmf rows must be a matrix")
        check_rows(r, "ConditionalPmf")
        object.__setattr__(self, "rows", _freeze(r))

    @property
    def n_conditions(self) -> int:
        return self.rows.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class ChannelKernel:
    """State-dependent channel: w[s, x] is a Pmf over outputs y."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 3:
            raise ValidationError("ChannelKernel must have shape (|S|,|X|,|Y|)")
        check_rows(w, "ChannelKernel")
        object.__setattr__(self, "w", _freeze(w))

    @property
    def n_states(self) -> int:
        return self.w.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.w.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.w.shape[2]


@dataclass(frozen=True)
class GPPolicy:
    """Auxiliary-symbol policy: P(u|s) plus a deterministic input map.

    x_map is an integer table of shape (|U|,|S|): the channel input sent
    for auxiliary symbol u in state s is x_map[u, s].
    """

    u_given_s: ConditionalPmf
    x_map: np.ndarray

    def __post_init__(self):
        xm = np.asarray(self.x_map)
        if xm.ndim != 2:
            raise ValidationError("x_map must be an (|U|,|S|) table of input indices")
        if not np.issubdtype(xm.dtype, np.integer):
            xm = xm.astype(np.int64)
            if not np.array_equal(xm, np.asarray(self.x_map)):
                raise ValidationError("x_map must be integral")
        if np.any(xm < 0):
            raise ValidationError("x_map entries must be non-negative input indices")
        xm = np.ascontiguousarray(xm, dtype=np.int64)
        if xm.shape[1] != self.u_given_s.n_conditions:
            raise DimensionError("x_map state axis disagrees with u_given_s")
        if xm.shape[0] != self.u_given_s.n_outputs:
            raise DimensionError("x_map u axis disagrees with u_given_s")
        xm.setflags(write=False)
        object.__setattr__(self, "x_map", xm)

    @property
    def n_states(self) -> int:
        return self.u_given_s.n_conditions


def effective_kernel(w: np.ndarray, x_map: np.ndarray) -> np.ndarray:
    """W_g[..., u, s, :] = W(. | x_map[..., u, s], s) for a channel w[s, x, y].

    x_map holds deterministic input maps (|U|,|S|) under any leading
    batch axes; the result keeps them and appends the output axis.
    """
    x_map = np.asarray(x_map)
    if x_map.shape[-1:] != w.shape[:1]:
        raise DimensionError("x_map state axis disagrees with the channel")
    if x_map.size and (x_map.min() < 0 or x_map.max() >= w.shape[1]):
        raise ValidationError("x_map refers to an input outside the channel alphabet")
    return w[np.arange(w.shape[0]), x_map]
