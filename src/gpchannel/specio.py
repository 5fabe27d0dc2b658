"""Loading system descriptions from JSON spec files.

One spec file describes one system; the "kind" key discriminates the
variants. Probability rows off by more than 1e-9 are rejected with the
offending key named; rows off by at most 1e-9 are renormalized. Alphabet
sizes must agree across keys (state laws and policies against their
channel, mixture channels against the first), or the key is named too.

kinds (each takes an optional "u_size"):
  system        — "state_pmf", "channel" [s][x][y], optional "policy"
                  ({"u_given_s": rows, "g": [u][s]}), optional scalars
                  ("gamma1", "gamma2", "rate", "rate_scale"), optional
                  "side_information": "encoder" (the default), "both",
                  or "none" (only for a one-state channel), and for
                  region "v_size" and "rd_grid" (non-negative numbers)
  mixture       — "channel_mixture": [{"weight", "channel"}],
                  "state_mixture": [{"weight", "state_pmf"}], optional
                  shared "policy"
  j-structured  — "channels": {"a","b","c"}, "states": {"a","b"},
                  optional "n_max" (an integer from 4 to 2^22). Odd
                  indices use channel a inside the dyadic blocks and b
                  outside them, with state a; even indices use channel
                  c with state b. Channels a and b must be binary
                  symmetric in each of two states, where the
                  interleaved closed form holds.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .capacity import MIN_HORIZON
from .mixture import MixtureSpec
from .prob import ChannelKernel, GPPolicy, Pmf, ValidationError, check_rows

ROW_TOL = 1e-9
# the longest j-structured n_max: 2^22 terms take about 10 s and 250 MB peak
# RSS on a 2-CPU Xeon and write a 95 MB partial_averages.csv
MAX_HORIZON = 2**22


class SpecError(ValidationError):
    """Malformed spec file; the message names the offending key."""


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{key}: must be a JSON object")
    return value


def _require(obj: dict, key: str, context: str):
    if key not in _object(obj, context):
        raise SpecError(f"{context}: missing key {key!r}")
    return obj[key]


def _integer(raw: dict, key: str, least: int = 1) -> int:
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise SpecError(f"{key}: must be an integer of at least {least}, got {value!r}")
    return value


def _finite_number(value, key: str):
    # isfinite raises TypeError on a non-number, OverflowError on an int beyond float range
    with contextlib.suppress(TypeError, OverflowError):
        if not isinstance(value, bool) and math.isfinite(value):
            return value
    raise SpecError(f"{key}: must be a finite number, got {value!r}")


def _rd_grid(grid) -> list:
    if not isinstance(grid, list) or any(_finite_number(r_d, "rd_grid") < 0 for r_d in grid):
        raise SpecError(f"rd_grid: must be a list of non-negative numbers, got {grid!r}")
    return grid


def _array(obj, context: str, ndim: int, form: str, kinds: str) -> np.ndarray:
    """obj as an ndim-deep array whose dtype kind is one of kinds."""
    try:
        arr = np.asarray(obj)
    except ValueError as exc:  # a ragged list
        raise SpecError(f"{context}: must be {form}") from exc
    if arr.ndim != ndim or arr.dtype.kind not in kinds:
        raise SpecError(f"{context}: must be {form}")
    return arr


def _rows(obj, context: str, ndim: int, form: str) -> np.ndarray:
    """obj as an ndim-deep float64 array of pmf rows on its last axis,
    renormalizing tiny drift; every error names context."""
    arr = check_rows(_array(obj, context, ndim, form, "iuf"), context, ROW_TOL)
    return arr / arr.sum(axis=-1, keepdims=True)


def parse_pmf(obj, context: str) -> Pmf:
    return Pmf(_rows(obj, context, 1, "a numeric vector"))


def parse_channel(obj, context: str) -> ChannelKernel:
    return ChannelKernel(_rows(obj, context, 3, "a numeric 3-deep array [s][x][y]"))


def _check_symmetric(channel: ChannelKernel, key: str) -> None:
    """The interleaved closed form needs, in each of two states, a binary
    symmetric channel with crossover strictly between 0 and 1."""
    if channel.w.shape != (2, 2, 2) or not all(
        abs(m[0, 0] - m[1, 1]) < 1e-12 and abs(m[0, 1] - m[1, 0]) < 1e-12 and 0.0 < m[0, 1] < 1.0
        for m in channel.w
    ):
        raise SpecError(f"{key}: must be a binary symmetric channel in each of two states")


def _check_states(key: str, size: int, channel: ChannelKernel, channel_key: str) -> None:
    if size != channel.n_states:
        raise SpecError(f"{key}: {size} states, but {channel_key} has {channel.n_states}")


def parse_policy(obj: dict, context: str, channel: ChannelKernel, channel_key: str) -> GPPolicy:
    rows = _rows(_require(obj, "u_given_s", context), f"{context}.u_given_s", 2, "a numeric matrix [s][u]")
    _check_states(f"{context}.u_given_s", rows.shape[0], channel, channel_key)
    g = _array(_require(obj, "g", context), f"{context}.g", 2, "an integer table [u][s]", "iu")
    if g.shape != (rows.shape[1], rows.shape[0]):
        raise SpecError(f"{context}.g: shape {list(g.shape)} is not the [u][s] shape of {context}.u_given_s")
    if g.size and g.max() >= channel.n_inputs:
        raise SpecError(f"{context}.g: input {g.max()} outside the {channel.n_inputs} inputs of {channel_key}")
    # spec rows are per-state; GPPolicy stores them the same way
    return GPPolicy(u_given_s=rows, x_map=g)


def _components(raw: dict, part: str, key: str, parse) -> tuple:
    """(weight, parsed object) per entry of the mixture list raw[part]."""
    entries = _require(raw, part, "mixture")
    if not isinstance(entries, list):
        raise SpecError(f"{part}: must be a list of components")
    return tuple(
        (
            float(_finite_number(_require(c, "weight", f"{part}[{i}]"), f"{part}[{i}].weight")),
            parse(_require(c, key, f"{part}[{i}]"), f"{part}[{i}].{key}"),
        )
        for i, c in enumerate(entries)
    )


def load_spec(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    kind = _require(raw, "kind", str(path))
    out = {"kind": kind}
    if kind == "system":
        out["state"] = parse_pmf(_require(raw, "state_pmf", "system"), "state_pmf")
        out["channel"] = parse_channel(_require(raw, "channel", "system"), "channel")
        _check_states("state_pmf", out["state"].size, out["channel"], "channel")
        if "policy" in raw:
            out["policy"] = parse_policy(raw["policy"], "policy", out["channel"], "channel")
        if "side_information" in raw:
            side = out["side_information"] = raw["side_information"]
            if side not in ("encoder", "both", "none"):
                raise SpecError(f"side_information: must be encoder, both or none, got {side!r}")
            if side == "none" and out["channel"].n_states != 1:
                raise SpecError(f"side_information: none needs a stateless channel, but channel has "
                                f"{out['channel'].n_states} states")
        for key in ("gamma1", "gamma2", "rate", "rate_scale"):
            if key in raw:
                out[key] = _finite_number(raw[key], key)
        if "rd_grid" in raw:
            out["rd_grid"] = _rd_grid(raw["rd_grid"])
        if "v_size" in raw:
            out["v_size"] = _integer(raw, "v_size")
    elif kind == "mixture":
        chans = _components(raw, "channel_mixture", "channel", parse_channel)
        states = _components(raw, "state_mixture", "state_pmf", parse_pmf)
        if not chans:
            raise SpecError("channel_mixture: needs at least one component")
        first, first_key = chans[0][1], "channel_mixture[0].channel"
        for i, (_, ch) in enumerate(chans):
            if ch.w.shape != first.w.shape:
                raise SpecError(f"channel_mixture[{i}].channel: shape {list(ch.w.shape)} differs from {first_key}'s")
        for i, (_, q) in enumerate(states):
            _check_states(f"state_mixture[{i}].state_pmf", q.size, first, first_key)
        out["mixture"] = MixtureSpec(channel_components=chans, state_components=states)
        if "policy" in raw:
            out["policy"] = parse_policy(raw["policy"], "policy", first, first_key)
    elif kind == "j-structured":
        chans = _object(_require(raw, "channels", "j-structured"), "channels")
        states = _object(_require(raw, "states", "j-structured"), "states")
        chans = {k: parse_channel(_require(chans, k, "channels"), f"channels.{k}") for k in "abc"}
        states = {k: parse_pmf(_require(states, k, "states"), f"states.{k}") for k in "ab"}
        # cesaro_capacity's constituents: odd slots pair channels a, b with state a, even slots c with b
        out["constituents"] = []
        for ck, sk in ("aa", "ba", "cb"):
            _check_states(f"states.{sk}", states[sk].size, chans[ck], f"channels.{ck}")
            out["constituents"].append((chans[ck], states[sk]))
        for ck in "ab":
            _check_symmetric(chans[ck], f"channels.{ck}")
        if "n_max" in raw:
            n_max = out["n_max"] = _integer(raw, "n_max", MIN_HORIZON)
            if n_max > MAX_HORIZON:
                raise SpecError(f"n_max: must be at most {MAX_HORIZON}, got {n_max}")
    else:
        raise SpecError(f"{path}: unknown kind {kind!r}")
    if "u_size" in raw:
        out["u_size"] = _integer(raw, "u_size")
    return out
