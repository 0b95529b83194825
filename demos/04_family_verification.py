"""Binomial-power families over F_{q^2}: constructors, tabulated conditions,
and condition-vs-oracle sweeps.

The interesting finding reproduced at the end: the gcd-style conditions of
the q = 1 (mod 3) families 2-4 are wrong, and this toolkit finds concrete
counterexamples in milliseconds.
"""

from collections import Counter

from ppf.families import (
    FamilyParams,
    check_family,
    construct_family,
    eps_base,
    eps_ext,
    field_for_q_squared,
    ns_condition,
    sweep_families,
)

f25 = field_for_q_squared(5)
mu = f25.subgroup_mu(6)

# One instance of family 1: (x + a x^q)^m + eps (x + b x^q)^n.
ai = 1
bi = mu.index(f25.neg(mu[ai]))   # b = -a makes odd powers collapse
params = FamilyParams(1, 5, 3, 3, eps_ext(1), ai, bi)
poly = construct_family(f25, params)
print("family 1, q=5, m=n=3, b=-a:", poly)
print("condition:", ns_condition(f25, params))
report = check_family(f25, params)
print("oracle agrees:", report.agree, "| permutes:", report.oracle)

# A non-permuting instance comes with a collision witness.
bad = check_family(field_for_q_squared(7), FamilyParams(1, 7, 3, 3, eps_ext(1), 0, 1))
print("q=7, m=n=3: predicted", bad.predicted, "oracle", bad.oracle,
      "witness", bad.witness)

# Sweep the q = 2 (mod 3) families: conditions match the oracle exactly.
res = sweep_families([5, 8], 6, 6, families=[1, 5, 6, 7, 8], seed=0)
print(f"\nsweep q in (5, 8), families 1,5-8: {res.instances} instances, "
      f"{res.disagreements} disagreements")

# Sweep the q = 1 (mod 3) families: the tabulated conditions fail.
res = sweep_families([7], 6, 6, families=[2, 3, 4], seed=0)
print(f"sweep q=7, families 2-4: {res.instances} instances, "
      f"{res.disagreements} disagreements "
      f"{dict(Counter(r.family for r in res.disagreeing()))}")

# The smallest counterexample, by hand: family 2 with eps = 2w at m = n = 1
# gives (1 + eps) x + (1 + eps w) x^q whose kernel is x^(q-1) = 1.
f49 = field_for_q_squared(7)
w = f49.order3_element()
cx = check_family(f49, FamilyParams(2, 7, 1, 1, eps_base(f49.mul(2, w))))
print("\ncounterexample: family 2, q=7, m=n=1, eps=2w ->",
      "predicted", cx.predicted, "oracle", cx.oracle, "witness", cx.witness)
