"""The counter stream in pure Python, and panels whose draws the tests choose.

Trial t of seed s has the key mix((t + 1) golden + s) and its draw d the
word mix(key + (d + 1) golden), all mod 2^64, where mix is splitmix64's
finalizer, and the word z the uniform min(((z >> 11) + 1/2) 2^-53,
1 - 2^-53). The finalizer is a bijection, so the seed whose trial 0 draws
a given word at draw 0 follows by running both steps backwards.
"""

import numpy as np

from mdlab.estimators import UniformPanel, counter_uniforms

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def mix64(word: int) -> int:
    """splitmix64's finalizer (Steele, Lea & Flood 2014) on one 64-bit word."""
    word ^= word >> 30
    word = (word * 0xBF58476D1CE4E5B9) & MASK
    word ^= word >> 27
    word = (word * 0x94D049BB133111EB) & MASK
    return word ^ (word >> 31)


def stream_word(seed: int, trial: int, draw: int) -> int:
    """The mixed word of draw `draw` of trial `trial` of seed `seed`."""
    key = mix64(((trial + 1) * GOLDEN + seed) & MASK)
    return mix64((key + (draw + 1) * GOLDEN) & MASK)


def stream_uniform(word: int) -> float:
    """The uniform of the mixed word `word`."""
    return min(((word >> 11) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def panel_uniforms(panel, draw: int) -> np.ndarray:
    """The uniforms of draw `draw` of every trial of the panel, through the
    general key build of counter_uniforms rather than the panel's own."""
    return counter_uniforms(panel.seed, np.arange(panel.start, panel.stop, dtype=np.uint64), draw)


def unmix64(word: int) -> int:
    """The inverse of splitmix64's finalizer: each xorshift undone by
    iterating it, each multiplier by its inverse mod 2^64."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    x = unshift(word, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    x = unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unshift(x, 30)


def key_drawing(word: int, draw: int = 0) -> int:
    """The trial key whose draw `draw` is the mixed word `word`."""
    return (unmix64(word) - (draw + 1) * GOLDEN) & MASK


def word_panel(word: int) -> UniformPanel:
    """A one-trial UniformPanel whose draw-0 word is `word`."""
    return UniformPanel((unmix64(key_drawing(word)) - GOLDEN) & MASK, 0, 1)


def lattice_words(v: float, reach: int = 1) -> list:
    """Words of the stream's uniforms nearest v: the lattice indices
    k = floor(v 2^53) - reach, ..., + reach that lie in [0, 2^53), each
    with low bits that the conversion drops."""
    k0 = int(min(max(v, 0.0), 1.0) * 2.0**53)
    return [k << 11 | 0x5A5 for k in range(k0 - reach, k0 + reach + 1) if 0 <= k < 1 << 53]
