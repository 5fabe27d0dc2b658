"""Finite-alphabet probability objects and the effective channel of an input map.

All probabilities are 64-bit floats, all logs natural, all rates in nats.
Objects are immutable after construction (each holds a read-only copy of
its arrays) and safe to share across threads.
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


def _freeze(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A read-only private copy of a; the caller's array stays writeable."""
    a = np.array(a, dtype=dtype, order="C")
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


def check_map(x_map, shape: tuple) -> np.ndarray:
    """x_map as a read-only int64 copy of an integral, non-negative index table of the given shape."""
    xm = np.asarray(x_map)
    if xm.ndim != len(shape):
        raise ValidationError(f"x_map must be a {len(shape)}-axis table of input indices")
    if xm.shape != shape:
        raise DimensionError(f"x_map: shape {xm.shape} disagrees with the laws' {shape}")
    if not np.issubdtype(xm.dtype, np.integer) and not np.array_equal(xm.astype(np.int64), xm):
        raise ValidationError("x_map must be integral")
    if np.any(xm < 0):
        raise ValidationError("x_map entries must be non-negative input indices")
    return _freeze(xm, np.int64)


@dataclass(frozen=True)
class GPPolicy:
    """Auxiliary-symbol policy: P(u|s) plus a deterministic input map.

    u_given_s is the (|S|,|U|) row array of P(u|s); x_map is an integer
    table of shape (|U|,|S|): the channel input sent for auxiliary symbol
    u in state s is x_map[u, s].
    """

    u_given_s: np.ndarray
    x_map: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.u_given_s, dtype=np.float64)
        if v.ndim != 2:
            raise ValidationError("u_given_s must be an (|S|,|U|) matrix")
        check_rows(v, "u_given_s")
        object.__setattr__(self, "u_given_s", _freeze(v))
        object.__setattr__(self, "x_map", check_map(self.x_map, v.shape[::-1]))


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
