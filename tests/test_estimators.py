"""Log-domain helpers and the counter-based Monte Carlo engine."""

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
from mdlab.estimators import (_clopper_pearson_upper_log, _mix64, _trial_keys, key_uniforms,
                               panel_keys)

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

# access orders for panel.column: in order, repeated, backwards and with
# jumps
COLUMN_ORDERS = {
    "sequential": list(range(300)),
    "repeats": [0, 0, 1, 1, 2, 0, 2, 3, 3, 1],
    "backwards": list(range(40, -1, -1)),
    "jumps": [1000, 7, 8, 9, 10, 1000, 1001, 3, 64, 65, 66, 0],
}


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


@pytest.mark.parametrize("start,stop", [(0, 2000), (37, 1013)])
def test_panel_columns_equal_counter_uniforms_bitwise(start, stop):
    panel = UniformPanel(seed=5, start=start, stop=stop)
    for draw in (0, 1, 7, 1998):
        ref = counter_uniforms(5, np.arange(start, stop), draw)
        assert np.array_equal(panel.column(draw), ref)


@pytest.mark.parametrize("seed,grid,columns", [
    (5, "cc91a0a3f5e18283786833d9604bf082ce08f56ccb2128a003b51727d551dc06",
     "71523c83bfdd5c64a38436a796e856f8ddbe3b28c907704e7238639eb726ba86"),
    (2**63 + 5, "a36bbb95e215eeaa6f782a2b2b2585a7ac0fc09d25fc2189569f3f75e7b3481d",
     "f84d6a70362683af0e2d3854af8e06364b71191745182a130eb3cc5d071345bd"),
])
def test_counter_stream_matches_frozen_digests(seed, grid, columns):
    # frozen SHA-256 digests of the stream: any change to the key or draw
    # mix, the float conversion or the panel's column reads shows here
    u = counter_uniforms(seed, np.arange(70001)[:, None], np.arange(4)[None, :])
    assert hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest() == grid
    panel = UniformPanel(seed, 37, 2037)
    got = b"".join(panel.column(d).tobytes() for d in range(300))
    assert hashlib.sha256(got).hexdigest() == columns


@pytest.mark.parametrize("order", COLUMN_ORDERS)
@pytest.mark.parametrize("trials", [1, 2000, 70001])
def test_panel_columns_serve_the_counter_stream_in_any_order(trials, order):
    # 70001 trials span three mixing chunks; the columns come in any order
    panel = UniformPanel(seed=5, start=37, stop=37 + trials)
    idx = np.arange(37, 37 + trials)
    first = prev = None
    for draw in COLUMN_ORDERS[order]:
        col = panel.column(draw)
        assert col.shape == (trials,)
        assert np.array_equal(col, counter_uniforms(5, idx, draw))
        if prev is not None:  # a later column read leaves what was returned alone
            assert np.array_equal(prev[1], counter_uniforms(5, idx, prev[0]))
        first = first or (draw, col)
        prev = (draw, col)
    assert np.array_equal(first[1], counter_uniforms(5, idx, first[0]))
    with pytest.raises(ValueError):
        col[0] = 0.5


@pytest.mark.parametrize("m", [1, 2**15 - 1, 2**15, 2**15 + 1, 70001])
@pytest.mark.parametrize("start", [0, 2**32 + 3, 2**62])
def test_chunked_panel_keys_equal_the_counter_stream(start, m):
    # a panel builds its keys one 2^15-word chunk at a time from the chunk's
    # first trial; m covers one word, a chunk less one, one, and one more,
    # and three chunks with a short tail
    trials = np.arange(start, start + m, dtype=np.uint64)
    for seed in (-1, 0, 2**63 + 5, 2**64 - 1):
        panel = UniformPanel(seed, start, start + m)
        assert np.array_equal(panel_keys(panel), _trial_keys(seed, trials)), seed
        for draw in (0, 1, 10**6):
            assert np.array_equal(panel.column(draw), counter_uniforms(seed, trials, draw))


@pytest.mark.parametrize("start,stop,match", [
    (5, 4, "empty panel must still have stop >= start"),
    (-1, 5, "trial indices start at 0, got start=-1"),
    (0, 2**64 + 1, "trial indices must fit in 64 bits, got stop=18446744073709551617"),
])
def test_panel_takes_the_trials_below_2_64_only(start, stop, match):
    # the last trial index the counters hold is still served
    top = UniformPanel(7, 2**64 - 1, 2**64)
    assert np.array_equal(top.column(3), counter_uniforms(7, [2**64 - 1], 3))
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
    # so no trial key is mixed and no column drawn; mixing one panel of
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


def _unmix64(word: int) -> int:
    # the inverse of splitmix64's finalizer: each xorshift undone by
    # iterating it, each multiplier by its inverse mod 2^64
    mask = (1 << 64) - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    x = unshift(word, 31)
    x = (x * pow(0x94D049BB133111EB, -1, 1 << 64)) & mask
    x = unshift(x, 27)
    x = (x * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & mask
    return unshift(x, 30)


def test_top_mixed_word_stays_below_one():
    # keys whose draw-0 word mixes to the given top 53 bits: all ones would
    # round (2^53 - 1) + 0.5 up to 2^53 and give u = 1 without the clamp
    offset = 0x9E3779B97F4A7C15  # the golden-ratio offset of draw 0
    tops = [(1 << 53) - 1, (1 << 53) - 2, (1 << 52) + 7, 0]
    keys = np.array([(_unmix64(t << 11 | 0x5A5) - offset) % (1 << 64) for t in tops],
                    dtype=np.uint64)
    mixed = keys + np.uint64(offset)
    _mix64(mixed, np.empty_like(mixed))
    assert [int(w) >> 11 for w in mixed] == tops
    u = key_uniforms(keys, 0)
    assert u[0] == 1.0 - 2.0**-53
    # every other word keeps its value (t + 1/2) 2^-53
    assert u[1:].tolist() == [(float(t) + 0.5) * 2.0**-53 for t in tops[1:]]
    assert np.all((u > 0.0) & (u < 1.0))


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
    assert est.zero_hits
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
