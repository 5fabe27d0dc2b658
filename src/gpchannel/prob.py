"""Finite-alphabet probability objects and composition of joint laws.

All probabilities are 64-bit floats, all logs natural, all rates in nats.
Objects are immutable after construction (arrays are set read-only) and
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a probability object fails its invariants."""


class DimensionError(ValueError):
    """Raised when alphabet sizes of composed objects disagree."""


def _check_pmf(p: np.ndarray, what: str) -> None:
    if not np.isfinite(p).all():
        raise ValidationError(f"{what}: non-finite entry")
    if np.any(p < 0):
        raise ValidationError(f"{what}: negative entry")
    if abs(float(p.sum()) - 1.0) > NORM_TOL:
        raise ValidationError(f"{what}: entries sum to {p.sum()!r}, not 1")


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
        _check_pmf(p, "Pmf")
        object.__setattr__(self, "probs", _freeze(p))

    @property
    def size(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ConditionalPmf:
    """Stochastic matrix: one Pmf over outputs per condition symbol.

    Rows may be marked undefined (e.g. a conditional extracted from a
    joint on a zero-probability condition); undefined rows are not
    validated and hold no law.
    """

    rows: np.ndarray
    row_defined: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=np.float64)
        if r.ndim != 2:
            raise ValidationError("ConditionalPmf rows must be a matrix")
        defined = self.row_defined
        if defined is None:
            defined = np.ones(r.shape[0], dtype=bool)
        defined = np.asarray(defined, dtype=bool)
        for i in range(r.shape[0]):
            if defined[i]:
                _check_pmf(r[i], f"ConditionalPmf row {i}")
        object.__setattr__(self, "rows", _freeze(r))
        defined = defined.copy()
        defined.setflags(write=False)
        object.__setattr__(self, "row_defined", defined)

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
        for s in range(w.shape[0]):
            for x in range(w.shape[1]):
                _check_pmf(w[s, x], f"channel row (s={s}, x={x})")
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

    @property
    def n_aux(self) -> int:
        return self.u_given_s.n_outputs

    def x_given_us(self, n_inputs: int) -> np.ndarray:
        """The (|U|,|S|,|X|) one-hot form of the input map."""
        if int(self.x_map.max(initial=0)) >= n_inputs:
            raise ValidationError("x_map refers to an input outside the channel alphabet")
        out = np.zeros((self.n_aux, self.n_states, n_inputs))
        nu, ns = self.x_map.shape
        out[np.arange(nu)[:, None], np.arange(ns)[None, :], self.x_map] = 1.0
        return out


@dataclass(frozen=True)
class JointSystem:
    """Product law over (s, u, x, y) built by compose_joint."""

    joint: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.joint, dtype=np.float64)
        if p.ndim != 4:
            raise ValidationError("JointSystem must have axes (s,u,x,y)")
        _check_pmf(p, "joint")
        object.__setattr__(self, "joint", _freeze(p))

    AXES = "suxy"

    def axis(self, name: str) -> int:
        return self.AXES.index(name)


def compose_joint(state: Pmf, policy: GPPolicy, channel: ChannelKernel) -> JointSystem:
    """Build p(s,u,x,y) = P_S(s) P(u|s) P(x|u,s) W(y|x,s).

    The auxiliary symbol influences y only through (x, s), so the
    resulting law always satisfies the required Markov structure.
    """
    if policy.n_states != state.size or channel.n_states != state.size:
        raise DimensionError("state alphabet size disagrees across inputs")
    pxus = policy.x_given_us(channel.n_inputs)  # (U,S,X)
    joint = np.einsum(
        "s,su,usx,sxy->suxy",
        state.probs,
        policy.u_given_s.rows,
        pxus,
        channel.w,
        optimize=True,
    )
    return JointSystem(joint)


def marginal(joint: JointSystem, keep: str) -> np.ndarray:
    """Sum out every axis not named in `keep`; axes returned in s,u,x,y order."""
    keep_idx = sorted(joint.axis(a) for a in keep)
    drop = tuple(i for i in range(4) if i not in keep_idx)
    return joint.joint.sum(axis=drop)


def conditional(joint: JointSystem, target: str, given: str) -> ConditionalPmf:
    """P(target | given) with rows on zero-mass conditions marked undefined.

    A zero-probability condition never yields a silently-uniform or NaN
    row; the row is zero-filled and flagged in row_defined.
    """
    order = given + target
    m = marginal(joint, order)
    # marginal() returns axes in canonical s,u,x,y order; put given axes first
    canon = sorted(order, key=joint.axis)
    m = np.moveaxis(m, [canon.index(a) for a in order], range(len(order)))
    n_given = int(np.prod(m.shape[: len(given)]))
    n_target = int(np.prod(m.shape[len(given):]))
    flat = m.reshape(n_given, n_target)
    mass = flat.sum(axis=1)
    defined = mass > 0
    rows = np.zeros_like(flat)
    rows[defined] = flat[defined] / mass[defined, None]
    return ConditionalPmf(rows, row_defined=defined)

