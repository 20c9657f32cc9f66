"""Independent derivations for every constant frozen in the test suite.

Nothing here imports the package. Closed forms are evaluated with
mpmath at 60 digits, coupon probabilities by brute-force enumeration
and exact integer arithmetic, so a disagreement in the tests points at
the implementation and not at the reference value.

Run: python3 scripts/derive_constants.py
"""

from fractions import Fraction
from itertools import product
from math import comb

import mpmath as mp

mp.mp.dps = 60


def show(label, value):
    if isinstance(value, Fraction):
        print(f"{label:58s} {value}  ({float(value)!r})")
    else:
        print(f"{label:58s} {mp.nstr(mp.mpf(value), 17)!s}")


# --- normal tail anchors ---------------------------------------------------

def normal_log_sf(x):
    return mp.log(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2)


show("log_sf(std_normal, 8)", normal_log_sf(8))
show("log_sf(std_normal, 0)", normal_log_sf(0))

# L(x) = (sf/pdf) x^(mu-1) with mu = 2 for the normal
x = mp.mpf(6)
pdf6 = mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
sf6 = mp.erfc(x / mp.sqrt(2)) / 2
show("L_normal(6) = (sf/pdf)*x", sf6 / pdf6 * x)

# classical sums: P(mean >= x) = Phi(-x sqrt(n)) at sigma = 1
show("log P(classical n=400 mean >= 0.25)", normal_log_sf(5))

# --- weibull / maxima anchors ----------------------------------------------

# weibull(a): sf = exp(-x^a), so m_n = (log n)^(1/a) and
# h_n = m_n n f(m_n) = a (log n) exactly
show("m_55 weibull(2) = sqrt(log 55)", mp.sqrt(mp.log(55)))
show("h_55 weibull(2) = 2 log 55", 2 * mp.log(55))

# deep upper tail of the scaled maximum, weibull(2), n = 10^6, x = 3:
# P(M_n >= 4 m_n) = 1 - (1 - n^-16)^n
n = mp.mpf(10) ** 6
show("log P(gumbel weibull2 n=1e6 x=3)", mp.log(-mp.expm1(n * mp.log1p(-n ** -16))))

# shallow anchor: x = 0 has P(M_n <= m_n) = (1 - 1/n)^n
show("log P(M_100 <= m_100) = 100 log 0.99", 100 * mp.log1p(mp.mpf("-0.01")))

# weibull(2) ld rate at x in {0.5, 1}: J(1+x) = ((1+x)^2 - 1)/2
show("gumbel weibull2 I_LD(0.5)", (mp.mpf("1.5") ** 2 - 1) / 2)
show("gumbel weibull2 I_LD(1)", (mp.mpf(2) ** 2 - 1) / 2)

# --- coupon collector ------------------------------------------------------

def coupon_cdf_brute(n, m):
    """P(first m draws contain all n types), enumerated exactly."""
    hits = sum(1 for seq in product(range(n), repeat=m) if len(set(seq)) == n)
    return Fraction(hits, n ** m)


def coupon_cdf_surjection(n, m):
    """Same probability through the inclusion-exclusion surjection count."""
    total = sum((-1) ** k * comb(n, k) * (n - k) ** m for k in range(n + 1))
    return Fraction(total, n ** m)


for (cn, cm) in [(2, 2), (2, 3), (3, 3), (3, 4), (3, 5), (4, 8), (5, 12)]:
    value = coupon_cdf_surjection(cn, cm)
    if cn ** cm <= 2 ** 24:
        assert value == coupon_cdf_brute(cn, cm), (cn, cm)
    show(f"P(T_{cn} <= {cm})", value)

# the 0.5 event used for Monte Carlo coverage: two coupons, not both
# seen after two draws
assert coupon_cdf_brute(2, 2) == Fraction(1, 2)
show("P(T_2 >= 3) = 1 - P(T_2 <= 2)", Fraction(1, 1) - coupon_cdf_brute(2, 2))

# the deep lower tail at n = 20000, x = -0.3 (m = floor(0.7 n log n)):
# P(T_n <= m) = sum_k (-1)^k C(n,k) (1 - k/n)^m. |term k| <= lam^k/k! with
# lam = n e^{-m/n} = 19.6, so the terms reach about 3e7 against a sum of
# 3e-9 (50 digits keep more than 30), and those past k = 300 add less than
# 1e-200 in all.
with mp.workdps(50):
    cn, cm = 20000, 138648
    assert cm == int(mp.floor(mp.mpf("0.7") * cn * mp.log(cn)))
    terms, c = [], mp.mpf(1)
    for k in range(301):
        terms.append((-1) ** k * c * (1 - mp.mpf(k) / cn) ** cm)
        c = c * (cn - k) / (k + 1)
    show(f"log P(T_{cn} <= {cm})", mp.log(mp.fsum(terms)))

# --- replacement model (F = Exp(1), G = Exp(2), t = 1, beta = 0.4) ---------

F = lambda v: -mp.expm1(-mp.mpf(v))      # Exp(1) cdf
logsfG = lambda v: -2 * mp.mpf(v)        # Exp(2) log sf
beta = mp.mpf("0.4")

show("replacement log P(C_3 <= -0.5)",
     mp.log(beta) + 3 * (mp.log(F("0.5")) - mp.log(F(1))))
show("replacement log P(C_10 <= -0.3)",
     mp.log(beta) + 10 * (mp.log(F("0.7")) - mp.log(F(1))))
show("replacement log P(C_10 >= 0.5)",
     mp.log(1 - beta) + 10 * (logsfG("1.5") - logsfG(1)))
show("replacement quantile u=0.2, n=1",
     -mp.log1p(-(mp.mpf("0.2") / beta) * F(1)))
show("replacement md left slope = e^-1/(1-e^-1)",
     mp.exp(-1) / (1 - mp.exp(-1)))
show("replacement ld residual scale |log 0.6|", -mp.log(mp.mpf("0.6")))

# --- minima ----------------------------------------------------------------

# exponential(1) minima: P(C_n >= x) = e^{-nx}; probes are exact by
# construction, anchor one point
show("minima exp log P(C_100 >= 0.4) = -40", mp.mpf(-40))

# uniform01 minima weak gap at n, x: (1-x/n)^n vs e^-x; the sup over
# x > 0 of |exp(n log(1-x/n)) - exp(-x)| at n = 10^4
f = lambda t: -(mp.exp(10000 * mp.log1p(-t / 10000)) - mp.exp(-t))
xstar = mp.findroot(lambda t: mp.diff(f, t), 2)
show("uniform01 minima weak sup gap, n=1e4 (true sup)", f(xstar))
print(f"{'':58s} attained near x = {mp.nstr(xstar, 8)}")
