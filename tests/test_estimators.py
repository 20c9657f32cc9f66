"""Log-domain helpers and the counter-based Monte Carlo engine."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab import (
    UniformPanel,
    counter_uniforms,
    exponential,
    make_coupon,
    make_minima,
    mc_log_tail,
    parse_family_spec,
    stable_log_complement,
)
from mdlab.estimators import (_DRAW_BUDGET, _clopper_pearson_upper_log, first_words_above,
                               negated_uniforms, panel_keys, panel_words, word_uniforms)
from stream_words import (GOLDEN, MASK, lattice_words, mix64, panel_uniforms, stream_uniform,
                          stream_word, unmix64, word_panel)

# (spec, n, x, side) with a hit rate well inside (0, 1) at 4096 trials;
# the five canonical families plus the gamma members, whose quantiles
# take the Newton path
PARTITION_CASES = [
    ("classical:sigma=1", 25, 0.2, "upper"),
    ("minima:exponential:1", 10, 0.1, "upper"),
    ("gumbel_maxima:weibull:2", 100, 0.1, "upper"),
    ("coupon", 5, 0.4, "upper"),
    ("replacement:exponential:1,exponential:2,t=1,beta=0.4", 10, -0.1, "lower"),
    ("gumbel_maxima:gamma:2", 100, 0.1, "upper"),
    ("replacement:gamma:2,exponential:2,t=1,beta=0.4", 10, -0.1, "lower"),
    # 199 waits: panels of 4096, 2048 and 512 trials mix 8, 16 and 64
    # draws per block until decided trials drop out
    ("coupon", 200, 0.4, "upper"),
]
# the spec names a case; a spec seen before adds its n
PARTITION_IDS = [spec if [c[0] for c in PARTITION_CASES].index(spec) == i else f"{spec}-n{n}"
                 for i, (spec, n, _, _) in enumerate(PARTITION_CASES)]

# trials at a panel's chunk edges and the last trial index, and draws up
# to 10^6: the points where the stream is checked against its formula
FORMULA_TRIALS = [0, 1, 2**15 - 1, 2**15, 2**15 + 1, 2**64 - 1]
FORMULA_DRAWS = [0, 1, 10**6]


@given(log_p=st.floats(min_value=-745.0, max_value=-1e-12))
@settings(max_examples=200, deadline=None)
def test_stable_log_complement_against_mpmath(log_p):
    import mpmath as mp

    # mp.log(1 - exp(...)) would itself cancel for very negative inputs,
    # so the reference goes through log1p at high precision
    mp.mp.dps = 60
    ref = float(mp.log1p(-mp.exp(mp.mpf(log_p))))
    assert stable_log_complement(log_p) == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_stable_log_complement_edges():
    assert stable_log_complement(0.0) == -math.inf
    assert stable_log_complement(-math.inf) == 0.0
    # tiny p: log(1-p) = -p to first order
    assert stable_log_complement(-1e3) == pytest.approx(-math.exp(-1e3), rel=1e-12)
    with pytest.raises(ValueError):
        stable_log_complement(0.5)
    with pytest.raises(ValueError):
        stable_log_complement(math.nan)


@pytest.mark.parametrize("seed,grid,columns", [
    (5, "cc91a0a3f5e18283786833d9604bf082ce08f56ccb2128a003b51727d551dc06",
     "71523c83bfdd5c64a38436a796e856f8ddbe3b28c907704e7238639eb726ba86"),
    (2**63 + 5, "a36bbb95e215eeaa6f782a2b2b2585a7ac0fc09d25fc2189569f3f75e7b3481d",
     "f84d6a70362683af0e2d3854af8e06364b71191745182a130eb3cc5d071345bd"),
])
def test_counter_stream_matches_frozen_digests(seed, grid, columns):
    # frozen SHA-256 digests of the stream: any change to the key or draw
    # mix, the float conversion or the panel's word reads shows here
    u = counter_uniforms(seed, np.arange(70001)[:, None], np.arange(4)[None, :])
    assert hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest() == grid
    panel = UniformPanel(seed, 37, 2037)
    got = b"".join(word_uniforms(panel_words(panel, d)).tobytes() for d in range(300))
    assert hashlib.sha256(got).hexdigest() == columns


@pytest.mark.parametrize("seed", [-1, 0, 5, 2**63 + 5, 2**64 - 1])
def test_the_stream_follows_its_formula(seed):
    # every path to a draw against the pure-Python formula; the seeds -1
    # and 2^64 - 1 are one seed mod 2^64
    want = {(t, d): stream_word(seed, t, d) for t in FORMULA_TRIALS for d in FORMULA_DRAWS}
    # the panel build, from trial 0 across the first chunk edge, and on the
    # last trial alone
    for panel, ts in ((UniformPanel(seed, 0, 2**15 + 2), FORMULA_TRIALS[:-1]),
                      (UniformPanel(seed, 2**64 - 1, 2**64), FORMULA_TRIALS[-1:])):
        rows = [t - panel.start for t in ts]
        keys = panel_keys(panel)[rows]
        assert keys.tolist() == [mix64(((t + 1) * GOLDEN + seed) & MASK) for t in ts]
        for d in FORMULA_DRAWS:
            assert panel_words(panel, d)[rows].tolist() == [want[t, d] for t in ts]
            out, scratch = np.empty((2, 1, len(ts)), dtype=np.uint64)
            got = negated_uniforms(keys, d, out, scratch)
            assert got.tolist() == [[-stream_uniform(want[t, d]) for t in ts]]
        # a block of rows runs through the draws that follow its first
        out, scratch = np.empty((2, 3, len(ts)), dtype=np.uint64)
        got = negated_uniforms(keys, 10**6 - 1, out, scratch)
        assert got.tolist() == [[-stream_uniform(stream_word(seed, t, d)) for t in ts]
                                for d in range(10**6 - 1, 10**6 + 2)]
    # the general build, broadcast over trials and draws, and on trials
    # handed over in Fortran order
    trials = np.array(FORMULA_TRIALS, dtype=np.uint64)
    u = counter_uniforms(seed, trials[:, None], np.array(FORMULA_DRAWS)[None, :])
    assert u.tolist() == [[stream_uniform(want[t, d]) for d in FORMULA_DRAWS]
                          for t in FORMULA_TRIALS]
    block = np.asfortranarray(trials.reshape(2, 3))
    assert counter_uniforms(seed, block, 1).tolist() == [
        [stream_uniform(want[t, 1]) for t in row] for row in block.tolist()]
    assert counter_uniforms(seed, 2**64 - 1, 10**6) == stream_uniform(want[2**64 - 1, 10**6])


@pytest.mark.parametrize("m", [1, 2**15 - 1, 2**15, 2**15 + 1, 70001])
@pytest.mark.parametrize("start", [0, 37, 2**32 + 3, 2**62])
def test_chunked_panel_keys_equal_the_counter_stream(start, m):
    # panel words and keys are the counter stream: a panel builds its keys
    # one 2^15-word chunk at a time from the chunk's first trial; m covers
    # one word, a chunk less one, one, and one more, and three chunks with
    # a short tail. The reference is counter_uniforms' own key build.
    for seed in (-1, 0, 5, 2**63 + 5, 2**64 - 1):
        panel = UniformPanel(seed, start, start + m)
        keys = panel_keys(panel)
        for draw in (0, 1, 1998, 10**6):
            want = panel_uniforms(panel, draw)
            z = panel_words(panel, draw)
            assert z.dtype == np.uint64 and z.shape == (m,)
            assert np.array_equal(word_uniforms(z), want), (seed, draw)
            out, scratch = np.empty((2, 1, m), dtype=np.uint64)
            assert np.array_equal(negated_uniforms(keys, draw, out, scratch)[0], -want)


@pytest.mark.parametrize("start,stop,match", [
    (5, 4, "empty panel must still have stop >= start"),
    (-1, 5, "trial indices start at 0, got start=-1"),
    (0, 2**64 + 1, "trial indices must fit in 64 bits, got stop=18446744073709551617"),
])
def test_panel_takes_the_trials_below_2_64_only(start, stop, match):
    # the last trial index the counters hold is still served
    top = UniformPanel(7, 2**64 - 1, 2**64)
    assert np.array_equal(word_uniforms(panel_words(top, 3)), counter_uniforms(7, [2**64 - 1], 3))
    with pytest.raises(ValueError, match=match):
        UniformPanel(7, start, stop)


def test_coupon_sampler_runs_in_bounded_memory():
    # 1999 waits of 2000 trials, mixed in blocks of at most 2^15 words
    # (256 KB); an upper miss is decided only at the last wait
    fam = make_coupon()
    tracemalloc.start()
    try:
        fam.count_hits(2000, -0.3, "lower", UniformPanel(1, 0, 2000))
        fam.count_hits(2000, 0.36514, "upper", UniformPanel(1, 0, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_a_row_decided_by_the_transform_allocates_nothing_per_trial():
    # P(min of 100 Exp(1) >= 0.5) = e^-50 lies past every double in (0, 1),
    # so no trial key is mixed and no word drawn; mixing one panel of
    # 2^16 trials peaks at about 1.4 MB
    fam = make_minima(exponential(1.0))
    tracemalloc.start()
    try:
        est = mc_log_tail(fam, 100, 0.5, "upper", trials=2 * 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.hits == 0 and est.trials == 2 * 10**6
    assert peak < 1e6


def test_mc_memory_does_not_grow_with_trials():
    # an undecided row, P(C_100 >= 0.005) = e^-0.5: mc_log_tail counts in
    # panels of at most 2^16 trials, where one panel of every trial peaks
    # at 18 MB for 1e6 trials and 72 MB for 4e6
    fam = make_minima(exponential(1.0))
    peaks = []
    for trials in (10**6, 4 * 10**6):
        tracemalloc.start()
        try:
            est = mc_log_tail(fam, 100, 0.005, "upper", trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert 0 < est.hits < trials
    assert peaks[1] < 1.05 * peaks[0] and peaks[0] < 4e6


@pytest.mark.parametrize("spec,n,x,side", [("minima:exponential:1", 100, 0.005, "upper"),
                                           ("coupon", 5, 0.4, "upper")])
@pytest.mark.parametrize("seed", [3, 2**63 + 1])
def test_mc_panels_count_what_one_panel_counts(spec, n, x, side, seed):
    # 150001 trials run as panels of 2^16 trials or fewer
    fam = parse_family_spec(spec)
    whole = fam.count_hits(n, x, side, UniformPanel(seed, 0, 150_001))
    for parts in (1, 3):
        est = mc_log_tail(fam, n, x, side, trials=150_001, seed=seed, partitions=parts)
        assert est.hits == whole


def test_counter_uniforms_shape_and_range():
    u = counter_uniforms(seed=9, trials=np.arange(1000), draw=3)
    assert u.shape == (1000,)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    # same counters, same stream
    again = counter_uniforms(seed=9, trials=np.arange(1000), draw=3)
    assert np.array_equal(u, again)
    # any index change decorrelates
    assert not np.array_equal(u, counter_uniforms(seed=10, trials=np.arange(1000), draw=3))
    assert not np.array_equal(u, counter_uniforms(seed=9, trials=np.arange(1000), draw=4))
    assert not np.array_equal(u[:-1], counter_uniforms(seed=9, trials=np.arange(1, 1001), draw=3)[:-1])


def test_top_mixed_word_stays_below_one():
    # one-trial panels whose draw-0 word has the given top 53 bits: all
    # ones would round (2^53 - 1) + 0.5 up to 2^53 and give u = 1 without
    # the clamp; every other word keeps its value (t + 1/2) 2^-53
    tops = [(1 << 53) - 1, (1 << 53) - 2, (1 << 52) + 7, 0]
    want = [1.0 - 2.0**-53] + [(float(t) + 0.5) * 2.0**-53 for t in tops[1:]]
    for top, u in zip(tops, want):
        panel = word_panel(top << 11 | 0x5A5)
        assert stream_uniform(top << 11 | 0x5A5) == u
        assert word_uniforms(panel_words(panel)).tolist() == [u]
        assert panel_uniforms(panel, 0).tolist() == [u]
        out, scratch = np.empty((2, 1, 1), dtype=np.uint64)
        assert negated_uniforms(panel_keys(panel), 0, out, scratch).tolist() == [[-u]]
    assert 0.0 < min(want) and max(want) < 1.0


def test_counter_uniforms_moments():
    u = counter_uniforms(seed=3, trials=np.arange(200000), draw=0)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


@pytest.mark.parametrize("spec,n,x,side", PARTITION_CASES, ids=PARTITION_IDS)
def test_mc_partition_invariance(spec, n, x, side):
    fam = parse_family_spec(spec)
    base = mc_log_tail(fam, n=n, x=x, side=side, trials=4096, seed=11, partitions=1)
    assert 0 < base.hits < base.trials
    for parts in (2, 8):
        split = mc_log_tail(fam, n=n, x=x, side=side, trials=4096, seed=11, partitions=parts)
        assert split.log_p_hat == base.log_p_hat
        assert split.hits == base.hits


def test_mc_hits_exact_probability():
    # minima over Exp(1): P(C_10 >= 0.1) = e^-1
    fam = make_minima(exponential(1.0))
    est = mc_log_tail(fam, n=10, x=0.1, side="upper", trials=200000, seed=4)
    assert abs(est.log_p_hat - (-1.0)) <= 4.0 * est.stderr_log
    assert est.stderr_log == pytest.approx(
        math.sqrt((est.trials - est.hits) / (est.trials * est.hits)), rel=1e-12)


def test_mc_zero_hits_reports_upper_bound():
    # P(C_100 >= 0.4) = e^-40, unreachable at this budget
    fam = make_minima(exponential(1.0))
    est = mc_log_tail(fam, n=100, x=0.4, side="upper", trials=1000, seed=1)
    assert est.hits == 0
    assert est.log_p_hat == -math.inf
    assert est.stderr_log == math.inf
    ref = math.log(1.0 - 0.05 ** (1.0 / 1000.0))
    assert est.log_p_upper95 == pytest.approx(ref, rel=1e-12)


def test_clopper_pearson_upper_is_the_beta_isf():
    # betainccinv(h + 1, T - h, alpha) gives the bits of scipy.stats'
    # beta.isf(alpha, h + 1, T - h) on the (hits, trials) pairs probes meet
    from scipy.stats import beta

    for trials in (10, 37, 1000, 1024, 1500, 2000, 20000, 200000):
        for hits in sorted({1, 2, 3, trials // 100 + 1, trials // 3, trials // 2, trials - 1}):
            want = math.log(beta.isf(0.05, hits + 1, trials - hits))
            assert _clopper_pearson_upper_log(hits, trials) == want, (hits, trials)


def test_mc_rejects_bad_arguments():
    fam = make_coupon()
    with pytest.raises(ValueError):
        mc_log_tail(fam, n=5, x=0.4, side="sideways", trials=100)
    with pytest.raises(ValueError):
        mc_log_tail(fam, n=5, x=0.4, trials=0)
    with pytest.raises(ValueError):
        mc_log_tail(fam, n=5, x=0.4, trials=64, partitions=100)


@given(seed=st.integers(min_value=0, max_value=2**32), parts=st.sampled_from([2, 4]))
@settings(max_examples=12, deadline=None)
def test_mc_partition_invariance_property(seed, parts):
    fam = make_minima(exponential(1.0))
    a = mc_log_tail(fam, n=4, x=0.2, side="upper", trials=512, seed=seed, partitions=1)
    b = mc_log_tail(fam, n=4, x=0.2, side="upper", trials=512, seed=seed, partitions=parts)
    assert a.log_p_hat == b.log_p_hat


def test_word_panels_draw_the_chosen_word():
    # a one-trial panel whose seed inverts both mixes draws the given word
    for word in (0, 1, 0x5A5, 1 << 63, MASK, 0x0123456789ABCDEF):
        assert unmix64(mix64(word)) == word
        panel = word_panel(word)
        assert stream_word(panel.seed, 0, 0) == word
        assert len(panel) == 1 and panel_words(panel).tolist() == [word]
        assert panel_uniforms(panel, 0).tolist() == [stream_uniform(word)]


@pytest.mark.parametrize("left,first,rows", [(1, 0, 1), (2000, 0, 16), (2000, 1983, 16),
                                             (3, 7, 10000), (1, 0, 1999), (40000, 5, 1)])
def test_negated_uniforms_are_a_block_of_key_uniforms(left, first, rows):
    # a block of the counter stream, draws first, ..., first + rows - 1
    keys = panel_keys(UniformPanel(seed=9, start=11, stop=11 + left))
    want = counter_uniforms(9, np.arange(11, 11 + left, dtype=np.uint64)[None, :],
                            np.arange(first, first + rows)[:, None])
    out, scratch = np.empty((2, rows, left), dtype=np.uint64)
    got = negated_uniforms(keys, first, out, scratch)
    assert got.tobytes() == (-want).tobytes()


def _bracket_ends():
    # the stream's ends and their neighbouring doubles, lattice points and
    # the doubles between them around 1/2, where (k + 1/2) rounds to even,
    # and the h = 1e-6 bracket ends around p = P(C_n <= x) for the lower
    # tail (u = p) and the upper one (u = -expm1(log p)) over a wide range
    ends = [2.0**-54, 1.0 - 2.0**-53, 2.0**-53, 1.5 * 2.0**-53, 0.2, 0.5, 1.0 - 2.0**-52,
            1e-300, 5e-324]
    ends += [math.nextafter(v, d) for v in ends for d in (0.0, 1.0)]
    ends += [(2**52 + k) * 2.0**-53 for k in range(-4, 5)]
    ends += [(2**52 + k + 0.5) * 2.0**-53 for k in range(-4, 5)]
    for log_p in np.linspace(-40.0, -1e-3, 157):
        for h in (-1e-6, 1e-6):
            ends += [math.exp(log_p + h), -math.expm1(log_p + h)]
    return [v for v in ends if 0.0 < v < 1.0]


def test_first_words_above_split_the_words_at_their_uniforms():
    # at every word within 3 of each bound, u <= v exactly below the
    # bound; a bound moved by one word puts one of them on the wrong side
    ends = _bracket_ends()
    bounds = first_words_above(ends)
    words = np.array([min(max(w + d, 0), MASK) for w in bounds for d in range(-3, 4)],
                     dtype=np.uint64)
    u = word_uniforms(words.copy()).reshape(len(ends), 7)
    for v, w, row, ws in zip(ends, bounds, u, words.reshape(len(ends), 7)):
        below = [int(z) < w for z in ws]
        assert (row <= v).tolist() == below, (v, w)
    # one at a time gives the same bounds
    assert [first_words_above([v])[0] for v in ends[::17]] == bounds[::17]
    # no uniform lies at or below 0 and every one at or below 1
    assert first_words_above([-math.inf, -1.0, 0.0, math.nan]) == [0] * 4
    assert first_words_above([1.0 - 2.0**-53, 1.0, math.inf]) == [1 << 64] * 3
    assert first_words_above([2.0**-54, math.nextafter(2.0**-54, 0.0)]) == [1 << 11, 0]
    assert first_words_above([]) == []


def test_a_lower_row_below_the_stream_allocates_nothing_per_trial(monkeypatch):
    # P(C_100 <= -0.5) = e^-106.9 for replacement over gamma(2) lies below
    # the stream's least uniform 2^-54, so no trial key is mixed
    from mdlab import families

    fam = parse_family_spec("replacement:gamma:2.0,exponential:2.0,t=1.0,beta=0.4")
    assert fam.exact_log_lower_tail(100, -0.5) < math.log(2.0**-54)
    monkeypatch.setattr(families, "panel_words", lambda *a: pytest.fail("a key was mixed"))
    tracemalloc.start()
    try:
        est = mc_log_tail(fam, 100, -0.5, "lower", trials=2 * 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.hits == 0 and est.trials == 2 * 10**6
    assert peak < 1e6


def test_mc_refuses_a_row_over_the_draw_budget(monkeypatch):
    # trials times draws per trial (n - 1 for the coupon) is checked before
    # any panel is drawn; the workloads' largest coupon row, 2000 trials at
    # n = 2000, and a single-uniform row of 4e6 trials are admitted
    fam = make_coupon()
    assert fam.draws_per_trial(2000) == 1999
    assert make_minima(exponential(1.0)).draws_per_trial(10**5) == 1
    assert 2000 * 1999 <= _DRAW_BUDGET and 4 * 10**6 <= _DRAW_BUDGET
    refusing = dataclasses.replace(fam, count_hits=lambda *a: pytest.fail("a panel was drawn"))
    with pytest.raises(ValueError, match=r"coupon at n=100000: 262144 trials draw "
                                         r"26214137856 uniforms, over the Monte Carlo budget"):
        mc_log_tail(refusing, 10**5, 3.0, "upper", trials=262144, seed=1)
    trials = _DRAW_BUDGET // 99
    with pytest.raises(ValueError, match="budget"):
        mc_log_tail(refusing, 100, 3.0, "upper", trials=trials + 1, seed=1)
    minima = make_minima(exponential(1.0))
    with pytest.raises(ValueError, match="budget"):
        mc_log_tail(dataclasses.replace(minima, count_hits=lambda *a: pytest.fail("drawn")),
                    100, 0.5, "upper", trials=_DRAW_BUDGET + 1, seed=1)
    # at the budget the row runs
    assert mc_log_tail(minima, 100, 0.5, "upper", trials=_DRAW_BUDGET // 1000, seed=1).hits == 0
