"""Panels whose draws the tests choose, through the inverse of the stream's mix.

Trial t of seed s has the key mix((t + 1) golden + s) and its draw d the
word mix(key + (d + 1) golden), all mod 2^64, where mix is splitmix64's
finalizer. The finalizer is a bijection, so the seed whose trial 0 draws a
given word at draw 0 follows by running both steps backwards.
"""

from mdlab.estimators import UniformPanel

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


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
