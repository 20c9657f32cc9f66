"""Log-domain helpers and a deterministic Monte Carlo engine.

Tail probabilities are carried as log values throughout ("log-prob"
floats in [-inf, 0]). The Monte Carlo side is built on a counter-based
uniform generator: every variate is a pure function of
(seed, trial index, draw index), so a run can be partitioned across any
number of workers and the merged counts are bit-identical to a serial
run. There is no sequential generator state anywhere.

A UniformPanel is a contiguous block of trials (seed, start, stop). A
draw is first a mixed 64-bit word, and its uniform is the conversion
u(z) = min(((z >> 11) + 1/2) 2^-53, 1 - 2^-53), nondecreasing in z, so
the stream's uniforms run from 2^-54 to 1 - 2^-53. Every sampler reads a
panel through panel.seed, panel.start and panel.stop and these helpers:
panel_words(panel, draw) gives one draw's words for every trial, and
first_words_above the word bounds that decide u <= v on a word, so a
sampler compares words and converts (word_uniforms) only the few it must
transform. A sampler that reads many draws per trial, in whatever order
and on whichever trials it still needs, takes the trial keys from
panel_keys(panel) and mixes blocks of draws with negated_uniforms.
panel.column(draw) is word_uniforms(panel_words(panel, draw)), the
stream counter_uniforms gives, bit for bit. mc_log_tail refuses a row
whose draws exceed _DRAW_BUDGET before it draws anything, and walks each
partition in panels of at most _PANEL_TRIALS trials, so the memory of a
row does not grow with its trial count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainccinv

__all__ = [
    "stable_log_complement",
    "counter_uniforms",
    "UniformPanel",
    "panel_words",
    "first_words_above",
    "word_uniforms",
    "panel_keys",
    "key_uniforms",
    "negated_uniforms",
    "McEstimate",
    "mc_log_tail",
]

_LOG_HALF = math.log(0.5)


def stable_log_complement(log_p: float) -> float:
    """log(1 - e^{log_p}) computed without ever forming 1 - p.

    Uses expm1 above the log(1/2) branch point and log1p below it, which
    keeps full relative accuracy at both ends of [-inf, 0].
    """
    if math.isnan(log_p) or log_p > 0.0:
        raise ValueError(f"log probability must lie in [-inf, 0], got {log_p}")
    if log_p == 0.0:
        return -math.inf
    if log_p > _LOG_HALF:
        return math.log(-math.expm1(log_p))
    return math.log1p(-math.exp(log_p))


# Counter-based uniforms: splitmix64's finalizer (Steele, Lea & Flood
# 2014) used as a counter-based generator (Salmon et al. 2011), with
# golden-ratio key folding: trial t of seed s has the key
# mix((t + 1) golden + s), and its draw d the uniform from
# mix(key + (d + 1) golden), all mod 2^64. Every step writes in place
# through `out=`, one cache-sized chunk at a time, so a panel_words, a
# panel_keys or a key_uniforms call allocates its result and one scratch
# chunk and no temporaries; panel_words builds and mixes each chunk's keys
# and draw words before the next. numpy uint64 arrays wrap silently on
# overflow (scalars warn), so all arithmetic below stays in array form.

_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_BLOCK = 1 << 15  # uint64 words per chunk (256 KB)
_PANEL_TRIALS = 1 << 16  # trials per panel of mc_log_tail
# the most uniforms one mc_log_tail row may draw, trials times the
# family's draws per trial: 10^8 take under 1 s to mix and count on one
# core (minima, 10^8 trials: 0.8 s; 2 vCPU, numpy 2.4)
_DRAW_BUDGET = 10 ** 8
# i golden mod 2^64 for i < _BLOCK: a chunk of consecutive trials t0 + i
# has the unmixed keys _STEPS + ((t0 + 1) golden + s), one add
_STEPS = np.multiply(np.arange(_BLOCK, dtype=np.uint64), _GOLDEN)
_STEPS.flags.writeable = False


def _chunks(z: np.ndarray):
    """(chunk, scratch) pairs covering the C-contiguous z, _BLOCK words each."""
    flat = z.reshape(-1)
    scratch = np.empty(min(flat.size, _BLOCK), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        c = flat[lo:lo + _BLOCK]
        yield c, scratch[:c.size]


def _mix64(c: np.ndarray, s: np.ndarray) -> None:
    # splitmix64's finalizer on the chunk c, in place; s is scratch
    for shift, mult in ((30, _MIX_A), (27, _MIX_B), (31, None)):
        np.right_shift(c, np.uint64(shift), out=s)
        np.bitwise_xor(c, s, out=c)
        if mult is not None:
            np.multiply(c, mult, out=c)


def _to_uniforms(c: np.ndarray, s: np.ndarray, negate: bool = False) -> None:
    # The mixed words of the chunk c become their doubles u (or -u) in the
    # same memory: the top 53 bits go to the scratch s first, read as int64
    # (the same value, converted faster than uint64). (2^53 - 1) + 0.5
    # rounds to 2^53, so the top word is clamped below 1. Scaling by -2^-53
    # and clamping at -(1 - 2^-53) are exact, so -u has the negated bits.
    np.right_shift(c, np.uint64(11), out=s)
    u = c.view(np.float64)
    np.add(s.view(np.int64), 0.5, out=u)
    if negate:
        np.multiply(u, -2.0**-53, out=u)
        np.maximum(u, -(1.0 - 2.0**-53), out=u)
    else:
        np.multiply(u, 2.0**-53, out=u)
        np.minimum(u, 1.0 - 2.0**-53, out=u)


def word_uniforms(z: np.ndarray) -> np.ndarray:
    """The uniforms of the C-contiguous mixed words z, written over z's
    memory and returned as its float64 view."""
    for c, s in _chunks(z):
        _to_uniforms(c, s)
    return z.view(np.float64)


def first_words_above(vs) -> list:
    """For each double v of vs, the least 64-bit word whose uniform exceeds
    v, 2^64 if none does: a mixed word z draws u <= v exactly when z lies
    below it.

    u depends on k = z >> 11 alone and lies in [k 2^-53, (k + 1) 2^-53],
    so every k below k0 = floor(v 2^53) draws u <= v and every k above it
    u > v. One call of the conversion on the words of the k0 decides them.
    """
    ks = [min(int(min(v, 1.0) * 2.0**53), (1 << 53) - 1) if v > 0.0 else -1 for v in vs]
    words = np.array([max(k, 0) << 11 for k in ks], dtype=np.uint64)
    _to_uniforms(words, np.empty_like(words))
    return [(k + int(u <= v)) << 11 if k >= 0 else 0
            for k, u, v in zip(ks, words.view(np.float64).tolist(), vs)]


def _draw_offset(draw) -> np.ndarray:
    return _GOLDEN * (np.atleast_1d(np.asarray(draw, dtype=np.uint64)) + np.uint64(1))


def _trial_keys(seed: int, trials) -> np.ndarray:
    # the key mix: one 64-bit key per (seed, trial); trials is not written
    keys = np.add(np.atleast_1d(np.asarray(trials, dtype=np.uint64)), np.uint64(1))
    np.multiply(keys, _GOLDEN, out=keys)
    np.add(keys, np.uint64(seed & _U64_MASK), out=keys)
    for c, s in _chunks(keys):
        _mix64(c, s)
    return keys


def _panel_key_chunks(panel, out: np.ndarray):
    """(chunk, scratch) pairs covering out, one word per trial of the
    panel, each chunk holding the mixed keys of its trials."""
    for lo, (c, s) in zip(range(0, out.size, _BLOCK), _chunks(out)):
        base = ((panel.start + lo + 1) * _GOLDEN_INT + panel.seed) & _U64_MASK
        np.add(_STEPS[:c.size], np.uint64(base), out=c)
        _mix64(c, s)
        yield c, s


def panel_words(panel, draw: int = 0) -> np.ndarray:
    """The mixed words of draw `draw` of every trial of the panel, read
    through panel.seed, panel.start and panel.stop: word_uniforms of them
    is panel.column(draw), bit for bit."""
    offset = np.uint64(((draw + 1) * _GOLDEN_INT) & _U64_MASK)
    z = np.empty(panel.stop - panel.start, dtype=np.uint64)
    for c, s in _panel_key_chunks(panel, z):
        np.add(c, offset, out=c)
        _mix64(c, s)
    return z


def panel_keys(panel) -> np.ndarray:
    """The trial keys of panel.seed on trials panel.start, ..., panel.stop - 1."""
    keys = np.empty(panel.stop - panel.start, dtype=np.uint64)
    for _ in _panel_key_chunks(panel, keys):
        pass
    return keys


def key_uniforms(keys: np.ndarray, draw) -> np.ndarray:
    """Uniforms in (0, 1) from trial keys and draw indices, broadcast
    together: key_uniforms(panel_keys(panel), draw) is panel.column(draw)
    bitwise, and any subset of the keys gives the same subset of it."""
    offset = _draw_offset(draw)
    z = np.empty(np.broadcast_shapes(keys.shape, offset.shape), dtype=np.uint64)
    np.add(keys, offset, out=z)
    for c, s in _chunks(z):
        _mix64(c, s)
        _to_uniforms(c, s)
    return z.view(np.float64)


def negated_uniforms(keys: np.ndarray, first: int, out: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """-key_uniforms(keys, first + arange(rows)[:, None]), bit for bit,
    written into the C-contiguous uint64 out of shape (rows, keys.size),
    with scratch of the same shape; returns out's float64 view.

    Row r is row 0 plus r golden mod 2^64, so the filled rows are doubled
    by one scalar add per word instead of a broadcast add.
    """
    rows = out.shape[0]
    np.add(keys, np.uint64(((first + 1) * _GOLDEN_INT) & _U64_MASK), out=out[0])
    done = 1
    while done < rows:
        step = min(done, rows - done)
        np.add(out[:step], np.uint64((done * _GOLDEN_INT) & _U64_MASK),
               out=out[done:done + step])
        done += step
    _mix64(out, scratch)
    _to_uniforms(out, scratch, negate=True)
    return out.view(np.float64)


def counter_uniforms(seed: int, trials, draw) -> np.ndarray:
    """Uniforms in (0, 1), one per (seed, trial, draw) triple.

    trials and draw may be scalars or arrays (broadcast together). The
    result depends only on the triple, never on evaluation order, which
    is what makes partitioned Monte Carlo runs merge exactly.
    """
    u = key_uniforms(_trial_keys(seed, trials), draw)
    shape = np.broadcast_shapes(np.shape(trials), np.shape(draw))
    return u.reshape(shape)


class UniformPanel:
    """Vectorized access to the uniforms of a contiguous block of trials.

    column(draw) equals counter_uniforms(seed, range(start, stop), draw)
    bitwise, whatever the order of the calls, and is read-only. The
    samplers read no column: they take seed, start and stop through
    panel_words and panel_keys. The panel keeps no keys.
    """

    def __init__(self, seed: int, start: int, stop: int):
        if start < 0:
            raise ValueError(f"trial indices start at 0, got start={start}")
        if stop < start:
            raise ValueError("empty panel must still have stop >= start")
        if stop > 1 << 64:
            raise ValueError(f"trial indices must fit in 64 bits, got stop={stop}")
        self.seed = seed
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def column(self, draw: int) -> np.ndarray:
        """The draw-th uniform of every trial in the block."""
        u = word_uniforms(panel_words(self, draw))
        u.flags.writeable = False
        return u


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo tail estimate in log space.

    stderr_log is the delta-method standard error of log_p_hat. When no
    trial hits the event, log_p_hat is -inf and log_p_upper95 carries the
    one-sided 95% Clopper-Pearson bound so the report still says something
    useful.
    """

    log_p_hat: float
    hits: int
    trials: int
    stderr_log: float
    seed: int
    zero_hits: bool
    log_p_upper95: float


def _clopper_pearson_upper_log(hits: int, trials: int) -> float:
    """log of the 95% Clopper-Pearson upper bound on hits/trials."""
    if hits >= trials:
        return 0.0
    if hits == 0:
        # 1 - 0.05^(1/T), kept in log form
        return stable_log_complement(math.log(0.05) / trials)
    # the upper end of the interval: the beta(h + 1, T - h) isf at 0.05
    return math.log(betainccinv(hits + 1, trials - hits, 0.05))


def mc_log_tail(fam, n: int, x: float, side: str = "upper",
                trials: int = 10**5, seed: int = 0, partitions: int = 1) -> McEstimate:
    """Estimate log P(C_n >= x) (or <= for side="lower") by simulation.

    The trial range is split into `partitions` contiguous chunks, each
    counted in panels of at most _PANEL_TRIALS trials, and the integer hit
    counts are summed, so the result is bit-identical for any partition
    count. Discrete families resolve thresholds through the
    same integer convention as their exact evaluators. A row whose trials
    times fam.draws_per_trial(n) exceed _DRAW_BUDGET raises a ValueError
    before any panel is drawn.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 1 <= partitions <= trials:
        raise ValueError("partitions must lie in [1, trials]")
    draws = trials * fam.draws_per_trial(n)
    if draws > _DRAW_BUDGET:
        raise ValueError(f"{fam.label} at n={n}: {trials} trials draw {draws} uniforms, "
                         f"over the Monte Carlo budget of {_DRAW_BUDGET}")

    hits = 0
    for i in range(partitions):
        lo = i * trials // partitions
        hi = (i + 1) * trials // partitions
        for start in range(lo, hi, _PANEL_TRIALS):
            panel = UniformPanel(seed, start, min(start + _PANEL_TRIALS, hi))
            hits += int(fam.count_hits(n, x, side, panel))

    zero = hits == 0
    if zero:
        log_p = -math.inf
        stderr_log = math.inf
    else:
        log_p = math.log(hits) - math.log(trials)
        if hits == trials:
            stderr_log = 0.0
        else:
            stderr_log = math.sqrt((trials - hits) / (trials * hits))
    return McEstimate(
        log_p_hat=log_p,
        hits=hits,
        trials=trials,
        stderr_log=stderr_log,
        seed=seed,
        zero_hits=zero,
        log_p_upper95=_clopper_pearson_upper_log(hits, trials),
    )
