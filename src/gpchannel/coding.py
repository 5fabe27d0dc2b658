"""Random-coding simulation for channels with encoder state knowledge.

Implements the binned random codebook: i.i.d. auxiliary codewords split
into per-message subcodebooks, a covering encoder that picks the first
codeword whose conditional atypicality eta(u,s) is below sqrt(pi1), and
a threshold decoder that looks for the unique subcodebook holding a
T1-typical codeword. The per-block error is bounded by

    rho_n = 2*sqrt(pi1) + pi2 + exp(-exp(n*gamma2)) + exp(-n*gamma1),

which the simulator reports next to the measured error.

Both execution modes run one per-trial path: state draw, covering scan,
transmission (Y^n drawn from P(y|u,s) = W(y|g(u,s),s)) and the E2 test.
They differ only in where the scan's candidates come from and how
confusion is decided:

* explicit — the codebook is materialized, the scan reads the message's
  bin, and the received blocks are decoded in batches; feasible only at
  desk scale (codewords capped at 2^22, decode work at 2^30).
* implicit — codeword counts at the analysis rates are astronomically
  large, so the simulator exploits exchangeability of the i.i.d.
  codebook: the scan reads freshly drawn candidates, and the confusion
  event is a Bernoulli draw from 1-(1-q(Y))^K with q(Y) estimated by
  importance sampling under the tilted law P_{U|Y}.

Both modes log per-trial event flags (covering failure E1, decoding
atypicality E2, confusion E3) so the error decomposition is auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .info import counts_scores, density_table, mutual_information
from .prob import ChannelKernel, DimensionError, GPPolicy, Pmf, ValidationError, effective_kernel
from .rng import stream

CODEWORD_CAP = 2**22
WORK_CAP = 2**30
# uniforms per codebook draw chunk, and scores per explicit decode batch
_DRAW_CELLS = 2**18
_DECODE_SCORES = 2**21
# implicit covering scans stop after this many fresh candidates and
# extrapolate the failure mass of the rest of the bin
SCAN_CAP = 256
# Monte-Carlo draws per eta estimate and per confusion estimate in a trial
INNER_DRAWS = 200


class BudgetError(RuntimeError):
    """Configuration exceeds the desk-scale explicit-mode guards."""


@dataclass(frozen=True)
class MemorylessSystem:
    """Single-letter system (state, policy, channel) with cached tables."""

    state: Pmf
    policy: GPPolicy
    channel: ChannelKernel

    def __post_init__(self):
        if self.policy.u_given_s.shape[0] != self.state.size or self.channel.n_states != self.state.size:
            raise DimensionError("state alphabet size disagrees across inputs")

    @cached_property
    def p_y_given_us(self) -> np.ndarray:
        """(U,S,Y): channel output law given the codeword/state symbols."""
        return effective_kernel(self.channel.w, self.policy.x_map)

    @cached_property
    def p_suy(self) -> np.ndarray:
        """(S,U,Y) single-letter law P(s) P(u|s) W(y|g(u,s),s)."""
        q, v = self.state.probs, self.policy.u_given_s
        return q[:, None, None] * (v[:, :, None] * self.p_y_given_us.transpose(1, 0, 2))

    @cached_property
    def p_uy(self) -> np.ndarray:
        return self.p_suy.sum(axis=0)

    @cached_property
    def p_us(self) -> np.ndarray:
        return self.p_suy.sum(axis=2).T.copy()

    @cached_property
    def p_u(self) -> np.ndarray:
        return self.p_uy.sum(axis=1)

    @cached_property
    def p_y(self) -> np.ndarray:
        return self.p_uy.sum(axis=0)

    @cached_property
    def d_uy(self) -> np.ndarray:
        """Per-symbol density log[p(y|u)/p(y)]; -inf on zero-mass pairs."""
        return density_table(self.p_uy)

    @cached_property
    def d_us(self) -> np.ndarray:
        return density_table(self.p_us)

    @cached_property
    def i_uy(self) -> float:
        return mutual_information(self.p_uy)

    @cached_property
    def i_us(self) -> float:
        return mutual_information(self.p_us)

    @cached_property
    def s_bounds(self) -> np.ndarray:
        """inverse_cdf table of the state law."""
        return inverse_cdf(self.state.probs)

    @cached_property
    def u_bounds(self) -> np.ndarray:
        """inverse_cdf table of the codeword symbol law p_U."""
        return inverse_cdf(self.p_u)

    @cached_property
    def y_bounds(self) -> np.ndarray:
        """inverse_cdf table of P(y|u,s), one row per u * |S| + s."""
        return inverse_cdf(self.p_y_given_us.reshape(self.p_us.size, -1))

    @cached_property
    def p_u_given_y(self) -> np.ndarray:
        """(U,Y) columns P(u|y); proposal law for confusion sampling."""
        py = self.p_y
        out = np.zeros_like(self.p_uy)
        pos = py > 0
        out[:, pos] = self.p_uy[:, pos] / py[pos]
        return out


@dataclass(frozen=True)
class TypicalityThresholds:
    """Per-symbol decoding / covering thresholds in nats."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (math.isfinite(self.t1) and math.isfinite(self.t2)):
            raise ValidationError("thresholds must be finite")


def default_thresholds(system: MemorylessSystem, gamma1: float, gamma2: float) -> TypicalityThresholds:
    """T1 at the packing density minus gamma1, T2 at the covering density
    plus gamma2. Memoryless spectra are point masses at the MIs, so the
    single-letter values stand in for the spectral estimates."""
    return TypicalityThresholds(t1=system.i_uy - gamma1, t2=system.i_us + gamma2)


@dataclass(frozen=True)
class CodingExperiment:
    """Blocklength, slacks, rates (nats), seed, and trial budget."""

    n: int
    gamma1: float
    gamma2: float
    rate: float
    rate_total: float
    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        if self.n < 1 or self.trials < 1:
            raise ValidationError("n and trials must be positive")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValidationError("slacks must be non-negative")
        if self.rate > self.rate_total + 1e-12:
            raise ValidationError("message rate exceeds total codeword rate")

    @property
    def subcodebook_size(self) -> int:
        return int(math.ceil(math.exp(min(self.n * (self.rate_total - self.rate), 62 * math.log(2)))))

    @property
    def message_count(self) -> int:
        return int(math.ceil(math.exp(min(self.n * max(self.rate, 0.0), 62 * math.log(2)))))


def design_experiment(
    system: MemorylessSystem,
    n: int,
    gamma1: float,
    gamma2: float,
    *,
    rate: float | None = None,
    seed: int = 0,
    trials: int = 1000,
) -> CodingExperiment:
    """Rates from the single-letter design point: total rate pays the
    packing slack, the message rate additionally pays covering."""
    r_total = system.i_uy - 2.0 * gamma1
    if rate is None:
        rate = r_total - (system.i_us + 2.0 * gamma2)
    r_total = max(r_total, rate + 2.0 * gamma2 + system.i_us)
    return CodingExperiment(
        n=n, gamma1=gamma1, gamma2=gamma2, rate=rate, rate_total=r_total, seed=seed, trials=trials
    )


def bernoulli_sigma(p: float, n: int) -> float:
    """Standard error of a Bernoulli frequency p over n draws, floored
    away from 0 so that a frequency of 0 or 1 still has a margin."""
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    if total <= 0:
        raise ValidationError("zero draws")
    z = 1.96  # two-sided 95%
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * math.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def inverse_cdf(probs: np.ndarray) -> np.ndarray:
    """Inverse-CDF table of the pmf rows on probs' last axis: the (m-1)
    symbol boundaries, boundary axis first, for `draw`.

    Boundary j is the cumulative mass of symbols 0..j, so symbol j is
    drawn when bound[j-1] <= u < bound[j]; a zero-mass symbol is never
    drawn, u = 0.0 included. The boundaries at and past a row's last
    symbol of positive mass are +inf, so a u at or above the rounded
    total mass falls to that symbol.
    """
    cdf = np.cumsum(probs, axis=-1)
    last = np.argmax(cdf == cdf[..., -1:], axis=-1)
    bounds = np.moveaxis(cdf[..., :-1], -1, 0).copy()
    bounds[np.arange(bounds.shape[0]).reshape((-1,) + (1,) * last.ndim) >= last] = np.inf
    return bounds


def draw(bounds: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from an `inverse_cdf` table, one symbol per
    uniform: one table row shared by all uniforms, or one per uniform
    (bounds[:, rows] picks a row per uniform from a table of rows)."""
    # idx counts the boundaries at or below u
    idx = np.zeros(np.shape(uniforms), dtype=np.intp)
    for bound in bounds:
        idx += uniforms >= bound
    return idx


def _block_densities(counts, laws, log_rows, draws: int, rng) -> np.ndarray:
    """Monte-Carlo block densities: class i holds counts[i] i.i.d. cells
    with law laws[i] and log row log_rows[i]. Each of the `draws` rows
    sums every non-empty class's score, classes drawn in order.

    The classes' draws stack class-major, one (draws, cells) matrix per
    class, so one counts_scores call scores each class with the same
    product, and sums the classes in the same order, as scoring them
    one by one; side by side in one (draws, classes*cells) row the sums
    would round differently.
    """
    classes = np.flatnonzero(counts)
    drawn = np.empty((classes.size, draws, np.shape(laws)[-1]), dtype=np.int64)
    for j, i in enumerate(classes):
        drawn[j] = rng.multinomial(int(counts[i]), laws[i], size=draws)
    return counts_scores(drawn, np.asarray(log_rows)[classes]).sum(axis=0)


def estimate_pi(
    system: MemorylessSystem,
    n: int,
    draws: int,
    thresholds: TypicalityThresholds,
    seed: int = 0,
) -> dict:
    """Monte-Carlo atypicality frequencies with Wilson 95% intervals.

    pi1 = P(block (U,Y) density below n*t1), pi2 = P(block (U,S) density
    above n*t2), both under the designed joint law.
    """
    if draws < 1:
        raise ValidationError("zero draws")
    # one class of n i.i.d. cells over the whole joint table
    s1 = _block_densities([n], [system.p_uy.ravel()], [system.d_uy], draws, stream(seed, 0x9101))
    s2 = _block_densities([n], [system.p_us.ravel()], [system.d_us], draws, stream(seed, 0x9102))
    k1 = int((s1 < n * thresholds.t1).sum())
    k2 = int((s2 > n * thresholds.t2).sum())
    return {
        "pi1": k1 / draws,
        "pi1_ci": wilson_interval(k1, draws),
        "pi2": k2 / draws,
        "pi2_ci": wilson_interval(k2, draws),
        "draws": draws,
    }


def eta(
    u_block: np.ndarray,
    s_block: np.ndarray,
    system: MemorylessSystem,
    thresholds: TypicalityThresholds,
    inner_draws: int,
    rng,
) -> float:
    """P((u_block, Y^n) not T1-typical | u_block, s_block), Monte-Carlo.

    Outputs are conditionally i.i.d. given the (u,s) symbol at each
    position, so only the (u,s) class counts matter; each class draws a
    multinomial over output symbols and dots with the density row d_uy[u].
    """
    n_s = system.p_us.shape[1]
    counts = np.bincount(u_block.astype(np.int64) * n_s + s_block, minlength=system.p_us.size)
    laws = system.p_y_given_us.reshape(counts.size, -1)
    sums = _block_densities(counts, laws, np.repeat(system.d_uy, n_s, axis=0), inner_draws, rng)
    return int((sums < u_block.size * thresholds.t1).sum()) / inner_draws


# ---------------------------------------------------------------------------
# explicit codebook


@dataclass(frozen=True)
class Codebook:
    """Materialized i.i.d. codebook partitioned into contiguous bins."""

    words: np.ndarray  # (total, n) auxiliary symbols, one byte each up to 256 symbols
    subcodebook_size: int
    message_count: int

    def bin_range(self, message: int) -> tuple[int, int]:
        lo = message * self.subcodebook_size
        return lo, lo + self.subcodebook_size


def _explicit_refusal(experiment: CodingExperiment) -> str | None:
    """Why an explicit codebook for the experiment exceeds the caps, or None if it fits."""
    total = experiment.message_count * experiment.subcodebook_size
    if total <= CODEWORD_CAP and total * experiment.n <= WORK_CAP:
        return None
    return (
        f"explicit mode needs {total} codewords / {total * experiment.n} work; caps are "
        f"{CODEWORD_CAP} / {WORK_CAP} — reduce n or rates"
    )


def build_code(experiment: CodingExperiment, p_u: np.ndarray) -> Codebook:
    refusal = _explicit_refusal(experiment)
    if refusal:
        raise BudgetError(refusal)
    total = experiment.message_count * experiment.subcodebook_size
    p_u = np.asarray(p_u, dtype=np.float64)
    rng = stream(experiment.seed, 0xB00C)
    words = np.empty((total, experiment.n), dtype=np.min_scalar_type(p_u.size - 1))
    # row chunks read the stream in the same order as one (total, n) draw
    rows = max(1, _DRAW_CELLS // experiment.n)
    bounds = inverse_cdf(p_u)
    for lo in range(0, total, rows):
        words[lo : lo + rows] = draw(bounds, rng.random(words[lo : lo + rows].shape))
    return Codebook(words=words, subcodebook_size=experiment.subcodebook_size, message_count=experiment.message_count)


def _covering_scan(candidates, s_block, system, thresholds, covering_threshold, inner_draws, rng):
    """First-index covering scan over an iterable of codeword blocks.

    Returns (position, codeword, failed): the first candidate whose
    estimated eta is at most the covering threshold, or, when none
    qualifies, position 0 and the first candidate with failed set.
    """
    first = None
    for position, u_block in enumerate(candidates):
        if eta(u_block, s_block, system, thresholds, inner_draws, rng) <= covering_threshold:
            return position, u_block, False
        if position == 0:
            first = u_block
    return 0, first, True


def encode(
    codebook: Codebook,
    message: int,
    s_block: np.ndarray,
    system: MemorylessSystem,
    thresholds: TypicalityThresholds,
    covering_threshold: float,
    inner_draws: int,
    rng,
) -> tuple[int, np.ndarray, bool]:
    """First-index covering scan over the message's bin: (codebook index
    L, codeword, failed).

    A codeword qualifies when its estimated eta is at most the covering
    threshold (sqrt(pi1) in the designed scheme). If none qualifies the
    first codeword is transmitted anyway and the failure flagged.
    """
    lo, hi = codebook.bin_range(message)
    position, u_block, failed = _covering_scan(
        codebook.words[lo:hi], s_block, system, thresholds, covering_threshold, inner_draws, rng
    )
    return lo + position, u_block, failed


def decode(
    codebook: Codebook,
    y_blocks: np.ndarray,
    system: MemorylessSystem,
    thresholds: TypicalityThresholds,
) -> list[tuple[int | None, np.ndarray]]:
    """Unique-bin threshold decoder over the rows of the (T, n) y_blocks:
    per row, (decoded message, indices of the T1-typical codewords), the
    message None when zero or several bins hold a typical codeword."""
    scores = kernels.codebook_scores(system.d_uy, codebook.words, y_blocks)
    out = []
    for typical in scores >= y_blocks.shape[1] * thresholds.t1:
        hits = np.flatnonzero(typical)
        messages = np.unique(hits // codebook.subcodebook_size)
        out.append(((int(messages[0]) if messages.size == 1 else None), hits))
    return out


def _atypical(system: MemorylessSystem, u_block: np.ndarray, y_block: np.ndarray, t1: float) -> bool:
    """E2: the sent codeword is not T1-typical with the received block."""
    n_y = system.d_uy.shape[1]
    counts = np.bincount(u_block.astype(np.int64) * n_y + y_block, minlength=system.d_uy.size)
    return not counts_scores(counts[None], system.d_uy)[0] >= u_block.size * t1


# ---------------------------------------------------------------------------
# trials


TRIAL_COLUMNS = ("trial", "message", "L", "e1", "e2", "e3", "decoded", "ok")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    message: int
    l_index: int
    e1: bool
    e2: bool
    e3: bool
    decoded: int  # -1 on failure
    ok: bool

    def csv_row(self) -> list:
        """The record as a row under TRIAL_COLUMNS."""
        return [self.trial, self.message, self.l_index, int(self.e1), int(self.e2), int(self.e3),
                self.decoded, int(self.ok)]


@dataclass(frozen=True)
class ExperimentReport:
    trials: tuple
    empirical_error: float
    error_ci: tuple
    rho_terms: dict  # rho_bound's terms and their sum rho_n
    pi: dict  # estimate_pi's frequencies with their Wilson intervals
    mode: str
    converse_mode: bool

    def event_rates(self) -> dict:
        t = len(self.trials)
        return {
            "e1": sum(r.e1 for r in self.trials) / t,
            "e2_not_e1": sum(r.e2 and not r.e1 for r in self.trials) / t,
            "e3": sum(r.e3 for r in self.trials) / t,
        }

    @property
    def error_within_bound(self) -> bool:
        """The empirical error is at most rho_n plus three standard errors."""
        sigma = bernoulli_sigma(self.empirical_error, len(self.trials))
        return self.empirical_error <= self.rho_terms["rho_n"] + 3 * sigma


def rho_bound(pi1: float, pi2: float, n: int, gamma1: float, gamma2: float) -> dict:
    terms = {
        "covering": 2.0 * math.sqrt(pi1),
        "atypical_state": pi2,
        "bin_exhaustion": math.exp(-math.exp(n * gamma2)) if n * gamma2 < 700 else 0.0,
        "confusion": math.exp(-n * gamma1),
    }
    terms["rho_n"] = sum(terms.values())
    return terms


def _confusion_probability(
    system: MemorylessSystem,
    y_block: np.ndarray,
    thresholds: TypicalityThresholds,
    log_k_out: float,
    rng,
) -> float:
    """P(some independent codeword is T1-typical with y_block).

    q(y) = P_{U ~ p_U^n}(density >= n*t1) is importance-sampled under
    the per-symbol tilted proposal P(u|y); the weight is exp(-density),
    which concentrates the indicator near certainty. q(y) is of order
    exp(-n*t1), far below the smallest float at long blocks, so the
    estimate stays in log space: log q = logsumexp(-d) - log(draws)
    over the typical draws. The count of independent codewords enters
    only through exp(log_k_out), kept in log space because it overflows
    any integer format at analysis rates.
    """
    n = y_block.size
    y_counts = np.bincount(y_block, minlength=system.p_y.size)
    # one class per output symbol y: its codeword cells draw from P(u|y)
    d = _block_densities(y_counts, system.p_u_given_y.T, system.d_uy.T, INNER_DRAWS, rng)
    neg = -d[d >= n * thresholds.t1]
    if neg.size == 0:
        return 0.0
    top = float(neg.max())
    log_q = top + math.log(float(np.exp(neg - top).sum())) - math.log(INNER_DRAWS)
    exponent = math.exp(min(log_k_out + log_q, 50.0))
    return -math.expm1(-exponent)


def _trials(system, experiment, thresholds, pi, codebook=None):
    """The per-trial path of both modes: yields (trial, message, L, e1,
    e2, y_block, rng), rng being the trial's own stream.

    A trial draws the message (explicit mode only), the state block, the
    covering scan and Y^n ~ P(y|u,s). With a codebook the scan reads the
    message's bin. Without one the bin's entries are i.i.d. p_U^n, so the
    scan draws fresh candidates, at most SCAN_CAP; a failed scan of a
    larger bin extrapolates the failure mass of the unscanned entries.
    """
    n, n_s = experiment.n, system.state.size
    covering_threshold = math.sqrt(pi["pi1"])
    log_sub = n * (experiment.rate_total - experiment.rate)
    # at least one candidate: the bin holds one entry when rate exceeds
    # rate_total by the rounding slack CodingExperiment admits
    scan_limit = max(1, int(min(math.exp(min(log_sub, 20)), SCAN_CAP)))
    for t in range(experiment.trials):
        if codebook is None:
            rng = stream(experiment.seed, 0x7122, t)
            message = t % experiment.message_count
        else:
            rng = stream(experiment.seed, 0x7121, t)
            message = int(rng.integers(codebook.message_count))
        s_block = draw(system.s_bounds, rng.random(n))
        if codebook is None:
            candidates = (draw(system.u_bounds, rng.random(n)) for _ in range(scan_limit))
            l_index, u_block, e1 = _covering_scan(
                candidates, s_block, system, thresholds, covering_threshold, INNER_DRAWS, rng
            )
            if e1 and log_sub > math.log(scan_limit) + 1e-12:
                # every unscanned bin entry fails independently with the
                # (smoothed) observed failure rate
                p_fail = (scan_limit + 1) / (scan_limit + 2)
                log_p_all_fail = math.exp(min(log_sub, 700.0)) * math.log(p_fail)
                e1 = bool(rng.random() < math.exp(max(log_p_all_fail, -700.0)))
        else:
            l_index, u_block, e1 = encode(
                codebook, message, s_block, system, thresholds, covering_threshold, INNER_DRAWS, rng
            )
        y_block = draw(system.y_bounds[:, u_block.astype(np.intp) * n_s + s_block], rng.random(n))
        yield t, message, l_index, e1, _atypical(system, u_block, y_block, thresholds.t1), y_block, rng


def _run_explicit(system, experiment, thresholds, pi) -> list[TrialRecord]:
    """Run every trial against the materialized codebook, then decode
    the received blocks in batches of trials, each batch one pass over
    the codebook."""
    codebook = build_code(experiment, system.p_u)
    sent = []  # (message, L, e1, e2) per trial
    y_blocks = np.empty((experiment.trials, experiment.n), dtype=np.intp)
    for t, message, l_index, e1, e2, y_block, _ in _trials(system, experiment, thresholds, pi, codebook):
        sent.append((message, l_index, e1, e2))
        y_blocks[t] = y_block
    batch = max(1, _DECODE_SCORES // codebook.words.shape[0])
    decoded_hits = []
    for lo in range(0, experiment.trials, batch):
        decoded_hits += decode(codebook, y_blocks[lo : lo + batch], system, thresholds)
    records = []
    for t, ((message, l_index, e1, e2), (decoded, hits)) in enumerate(zip(sent, decoded_hits)):
        lo, hi = codebook.bin_range(message)
        e3 = bool(((hits < lo) | (hits >= hi)).any())  # some other bin held a typical codeword
        decoded = -1 if decoded is None else decoded
        records.append(TrialRecord(t, message, l_index, e1, e2, e3, decoded, decoded == message))
    return records


def _run_implicit(system, experiment, thresholds, pi) -> list[TrialRecord]:
    """Exchangeable-trial simulation without materializing the codebook.

    Confusion is decided by a Bernoulli draw from the importance-sampled
    typicality probability of the out-of-bin codeword population. A
    trial counts as correct only when no event fires, which
    upper-bounds the explicit decoder's error.
    """
    records = []
    log_k_out = experiment.n * experiment.rate_total  # out-of-bin population
    for t, message, l_index, e1, e2, y_block, rng in _trials(system, experiment, thresholds, pi):
        p_e3 = _confusion_probability(system, y_block, thresholds, log_k_out, rng)
        e3 = bool(rng.random() < p_e3)
        ok = not (e1 or e2 or e3)
        records.append(TrialRecord(t, message, l_index, e1, e2, e3, message if ok else -1, ok))
    return records


def run_experiment(
    system: MemorylessSystem,
    experiment: CodingExperiment,
    *,
    mode: str = "auto",
    pi_draws: int = 10_000,
) -> ExperimentReport:
    """End-to-end trials plus the rho_n bound from estimated pi1/pi2."""
    thresholds = default_thresholds(system, experiment.gamma1, experiment.gamma2)
    pi = estimate_pi(system, experiment.n, pi_draws, thresholds, seed=experiment.seed)
    refusal = _explicit_refusal(experiment)
    if mode == "auto":
        mode = "implicit" if refusal else "explicit"
    if mode == "explicit" and refusal:
        raise BudgetError(f"{refusal}, or use implicit mode")
    if mode == "explicit":
        records = _run_explicit(system, experiment, thresholds, pi)
    elif mode == "implicit":
        records = _run_implicit(system, experiment, thresholds, pi)
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    errors = sum(not r.ok for r in records)
    terms = rho_bound(pi["pi1"], pi["pi2"], experiment.n, experiment.gamma1, experiment.gamma2)
    converse = experiment.rate > system.i_uy - 2.0 * experiment.gamma1 + 1e-12
    return ExperimentReport(
        trials=tuple(records),
        empirical_error=errors / experiment.trials,
        error_ci=wilson_interval(errors, experiment.trials),
        rho_terms=terms,
        pi=pi,
        mode=mode,
        converse_mode=converse,
    )

