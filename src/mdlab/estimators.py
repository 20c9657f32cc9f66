"""Deterministic Monte Carlo on a counter-based uniform stream.

Tail probabilities are carried as log values throughout ("log-prob"
floats in [-inf, 0]). The Monte Carlo side is built on a counter-based
uniform generator: every variate is a pure function of
(seed, trial index, draw index), so a run can be partitioned across any
number of workers and the merged counts are bit-identical to a serial
run. There is no sequential generator state anywhere.

A UniformPanel is a contiguous block of trials (seed, start, stop). A
draw is first a mixed 64-bit word, and its uniform is the conversion
u(z) = min(((z >> 11) + 1/2) 2^-53, U_GREATEST), nondecreasing in z, so
the stream's uniforms run from U_LEAST = 2^-54 to U_GREATEST = 1 - 2^-53.
Every sampler reads a panel through panel.seed, panel.start and
panel.stop and these helpers. A sampler that draws C_n from one uniform
per trial through a transform f nondecreasing in u hands f and the exact
tails to count_by_bracket, which compares the panel's mixed words
(panel_words) with the word bounds of a bracket (first_words_above) and
converts (word_uniforms) only the few words inside it. A sampler that
reads many draws per trial, in whatever order and on whichever trials it
still needs, takes the trial keys from panel_keys(panel) and mixes
blocks of draws with negated_uniforms. counter_uniforms(seed, trials,
draw) is the stream's public, broadcasting form. mc_log_tail refuses a
row whose draws exceed _DRAW_BUDGET before it draws anything, and walks
each partition in panels of at most _PANEL_TRIALS trials, so the memory
of a row does not grow with its trial count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainccinv

from .distributions import stable_log_complement

__all__ = [
    "counter_uniforms",
    "UniformPanel",
    "panel_words",
    "first_words_above",
    "word_uniforms",
    "count_by_bracket",
    "panel_keys",
    "negated_uniforms",
    "McEstimate",
    "mc_log_tail",
]

# Counter-based uniforms: splitmix64's finalizer (Steele, Lea & Flood
# 2014) used as a counter-based generator (Salmon et al. 2011), with
# golden-ratio key folding: trial t of seed s has the key
# mix((t + 1) golden + s), and its draw d the uniform from
# mix(key + (d + 1) golden), all mod 2^64. Every step writes in place
# through `out=`, one cache-sized chunk at a time, so a panel_words or a
# panel_keys call allocates its result and one scratch chunk and no
# temporaries; panel_words builds and mixes each chunk's keys and draw
# words before the next. numpy uint64 arrays wrap silently on overflow
# (scalars warn), so all arithmetic below stays in array form.

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
# the least and the greatest uniform of the stream
U_LEAST, U_GREATEST = 2.0**-54, 1.0 - 2.0**-53


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
    # rounds to 2^53, so the top word is clamped to U_GREATEST. Scaling by
    # -2^-53 and clamping at -U_GREATEST are exact, so -u has the negated
    # bits.
    np.right_shift(c, np.uint64(11), out=s)
    u = c.view(np.float64)
    np.add(s.view(np.int64), 0.5, out=u)
    if negate:
        np.multiply(u, -2.0**-53, out=u)
        np.maximum(u, -U_GREATEST, out=u)
    else:
        np.multiply(u, 2.0**-53, out=u)
        np.minimum(u, U_GREATEST, out=u)


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
    so every k below k0 = floor(v' 2^53), v' the nearest point of
    [U_LEAST, U_GREATEST] to v (U_LEAST if v is nan), draws u <= v and
    every k above it u > v. One call of the conversion on the words of the
    k0 decides them.
    """
    ks = [int(min(max(U_LEAST, v), U_GREATEST) * 2.0**53) for v in vs]
    words = np.array([k << 11 for k in ks], dtype=np.uint64)
    _to_uniforms(words, np.empty_like(words))
    return [(k + int(u <= v)) << 11 for k, u, v in zip(ks, words.view(np.float64).tolist(), vs)]


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
    through panel.seed, panel.start and panel.stop."""
    offset = np.uint64(((draw + 1) * _GOLDEN_INT) & _U64_MASK)
    z = np.empty(panel.stop - panel.start, dtype=np.uint64)
    for c, s in _panel_key_chunks(panel, z):
        np.add(c, offset, out=c)
        _mix64(c, s)
    return z


def _count(values: np.ndarray, x: float, side: str) -> int:
    if side == "upper":
        return int(np.count_nonzero(values >= x))
    return int(np.count_nonzero(values <= x))


# the bracket's successive half-widths in log probability
_BRACKET_HALF_WIDTHS = (1e-6, 1e-3, 1.0, 1e3)


def count_by_bracket(panel, f, x: float, side: str,
                     log_lower: float, log_upper: float) -> int:
    """_count(f(u), x, side) on the panel's draw-0 uniforms u, for a
    transform f nondecreasing in u, with the bracket placed by the exact
    tails log P(C_n <= x) and log P(C_n >= x).

    eta = 1e-9 max(1, |x|) is orders of magnitude above the rounding of f.
    If f at the stream's least and greatest uniforms already lies at least
    eta below (above) x, every draw does, and the count is 0 or len(panel)
    without a key mixed. Otherwise the bracket [a, b] sits where the
    smaller tail p is p e^-h and p e^h, as u = p or u = -expm1(log p),
    clipped to the stream's range. Each attempt evaluates f once, on the
    stream's ends, a and b, and the bracket holds when f(a) <= x - eta and
    f(b) >= x + eta: every trial at or below a then has f(u) < x and every
    one at or above b has f(u) > x. h starts at 1e-6 and grows 1000-fold up
    to 1e3, skipping all but the last bracket where a < b fails (one
    double, or a nan tail); if none holds, f runs on every trial. The tails
    only place the bracket and f alone accepts it, so a wrong or nan tail
    can cost time but never changes the count, and Monte Carlo stays an
    independent check of the tails.

    The trials are classified on their mixed words z (panel_words): u <= a
    exactly when z lies below the word bound first_words_above gives for
    a, and u >= b exactly when z is at least the bound of the double below
    b. One comparison pass counts the trials on the smaller tail's side of
    the far bound; a second splits them only when the bracket holds a
    uniform of the stream and the first found a trial. Only the words
    strictly inside are converted and transformed.
    """
    eta = 1e-9 * max(1.0, abs(x))
    upper = log_upper < log_lower
    log_p = log_upper if upper else log_lower
    lo, hi = -math.inf, math.inf
    for h in _BRACKET_HALF_WIDTHS:
        # log p -+ h, capped at 0 so that exp stays finite; a nan stays nan
        t_lo, t_hi = min(log_p - h, 0.0), min(log_p + h, 0.0)
        if upper:
            a, b = -math.expm1(t_hi), -math.expm1(t_lo)
        else:
            a, b = math.exp(t_lo), math.exp(t_hi)
        a, b = min(max(a, U_LEAST), U_GREATEST), min(max(b, U_LEAST), U_GREATEST)
        if not a < b and h < _BRACKET_HALF_WIDTHS[-1]:
            # one double, or a nan end, cannot hold; the widest attempt
            # runs regardless, since it also makes the range decision
            continue
        least, greatest, fa, fb = f(np.array([U_LEAST, U_GREATEST, a, b]))
        if least >= x + eta:  # every draw lies above x
            return len(panel) if side == "upper" else 0
        if greatest <= x - eta:  # every draw lies below x
            return 0 if side == "upper" else len(panel)
        if fa <= x - eta and fb >= x + eta:
            lo, hi = a, b
            break
    # words below w_lo draw u <= lo, words at or above w_hi draw u >= hi
    w_lo, w_hi = first_words_above([lo, math.nextafter(hi, -math.inf)])
    z = panel_words(panel)
    if upper:
        near = int(np.count_nonzero(z >= w_lo))  # inside or above
        above = near if near == 0 or w_lo == w_hi else int(np.count_nonzero(z >= w_hi))
        below = z.size - near
    else:
        near = int(np.count_nonzero(z < w_hi))  # below or inside
        below = near if near == 0 or w_lo == w_hi else int(np.count_nonzero(z < w_lo))
        above = z.size - near
    hits = above if side == "upper" else below
    if below + above < z.size:
        hits += _count(f(word_uniforms(z[(z >= w_lo) & (z < w_hi)])), x, side)
    return hits


def panel_keys(panel) -> np.ndarray:
    """The trial keys of panel.seed on trials panel.start, ..., panel.stop - 1."""
    keys = np.empty(panel.stop - panel.start, dtype=np.uint64)
    for _ in _panel_key_chunks(panel, keys):
        pass
    return keys


def negated_uniforms(keys: np.ndarray, first: int, out: np.ndarray,
                     scratch: np.ndarray) -> np.ndarray:
    """The negated uniforms -u of draws first, ..., first + rows - 1 (one
    row each) of the trials whose keys are `keys`, written into the
    C-contiguous uint64 out of shape (rows, keys.size), with scratch of the
    same shape; returns out's float64 view.

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
    """Uniforms in (0, 1), one per (seed, trial, draw) triple: the
    stream's public, broadcasting form, and the tests' reference for the
    samplers' panel_words, panel_keys and negated_uniforms.

    trials and draw may be scalars or arrays (broadcast together). The
    result depends only on the triple, never on evaluation order, which
    is what makes partitioned Monte Carlo runs merge exactly.
    """
    keys = np.add(np.ascontiguousarray(trials, dtype=np.uint64), np.uint64(1))
    np.multiply(keys, _GOLDEN, out=keys)
    np.add(keys, np.uint64(seed & _U64_MASK), out=keys)
    for c, s in _chunks(keys):
        _mix64(c, s)
    offsets = np.add(np.atleast_1d(np.asarray(draw, dtype=np.uint64)), np.uint64(1))
    np.multiply(offsets, _GOLDEN, out=offsets)
    z = np.empty(np.broadcast_shapes(keys.shape, offsets.shape), dtype=np.uint64)
    np.add(keys, offsets, out=z)
    for c, s in _chunks(z):
        _mix64(c, s)
        _to_uniforms(c, s)
    return z.view(np.float64).reshape(np.broadcast_shapes(np.shape(trials), np.shape(draw)))


class UniformPanel:
    """A contiguous block of trials, start, ..., stop - 1, of one seed.

    The samplers read its draws through panel_words and panel_keys, which
    take seed, start and stop; the panel keeps no keys.
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

    if hits == 0:
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
        log_p_upper95=_clopper_pearson_upper_log(hits, trials),
    )
