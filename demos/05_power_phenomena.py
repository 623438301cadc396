"""The power laboratory: similarity, conservativeness, domination, convexity.

Four phenomena, reproduced by simulation:

1. The halfspace tests are exactly similar: their null rejection rate is the
   level for every covariance.
2. The orthant tests at the same critical value are conservative, and their
   null rate moves with the correlation structure (non-similar).
3. Pointwise domination: on every draw, an orthant rejection implies a
   halfspace rejection at the shared critical value, so halfspace power
   dominates everywhere on the orthant alternative.
4. The union-intersection acceptance regions are convex in the mean for any
   fixed covariance; the likelihood-ratio region is not, and a witness pair
   is produced.
"""

import numpy as np

from conetest import stats
from conetest.powerlab import (
    LRT_ORTHANT_ACCEPTANCE,
    UIT_HALFSPACE_ACCEPTANCE,
    UIT_ORTHANT_ACCEPTANCE,
    ExperimentConfig,
    SigmaSource,
    TestPlan,
    convexity_probe,
    domination_experiment,
    similarity_probe,
    simulate_power,
)

p, n, alpha = 2, 15, 0.05

# --- 1 & 2: size behavior across covariances -------------------------------
cfg = ExperimentConfig(
    p=p, n=n, alpha=alpha, replications=30_000, seed=99,
    sigma_source=SigmaSource.fixed(np.eye(p)),
    theta_grid=(np.zeros(p),),
    tests=(TestPlan(family=stats.UIT_HALFSPACE), TestPlan(family=stats.UIT_ORTHANT),
           TestPlan(family=stats.FUIT)),
)
print("null rejection rates at the sup-calibrated critical value:")
for row in simulate_power(cfg).rows:
    print(f"  {row.family:15s} {row.rejection_rate:.4f} +- {row.mc_std_error:.4f}")

high = np.array([[1.0, 0.9], [0.9, 1.0]])
rep = similarity_probe(stats.UIT_ORTHANT, "sup", [np.eye(p), high], cfg)
print("\northant null rate, identity vs strongly correlated covariance:")
for row in rep.rows:
    print(f"  {row['sigma_id']}: {row['rate']:.4f} +- {row['std_error']:.4f}")
rep_h = similarity_probe(stats.UIT_HALFSPACE, "sup", [np.eye(p), high], cfg)
print("halfspace null rate, same covariances (similar):")
for row in rep_h.rows:
    print(f"  {row['sigma_id']}: {row['rate']:.4f} +- {row['std_error']:.4f}")

# --- 3: paired-draw domination over a grid in the orthant ------------------
cfg_dom = ExperimentConfig(
    p=p, n=n, alpha=alpha, replications=20_000, seed=7,
    sigma_source=SigmaSource.fixed(np.array([[1.0, 0.35], [0.35, 1.0]])),
    theta_grid=(np.zeros(p), np.array([0.2, 0.2]), np.array([0.5, 0.1]),
                np.array([0.4, 0.4]), np.array([0.9, 0.0])),
    tests=(TestPlan(family=stats.UIT_ORTHANT),),
)
report = domination_experiment(cfg_dom)
print("\npaired power, halfspace vs orthant (same draws, same critical):")
for row in report.rows:
    print(f"  theta={row.theta} {row.pair}: orthant {row.power_orthant:.4f}  "
          f"halfspace {row.power_halfspace:.4f}  diff {row.difference:+.4f}  "
          f"violations {row.implication_violations}")

# --- 4: convexity of acceptance regions ------------------------------------
for region in (UIT_ORTHANT_ACCEPTANCE, UIT_HALFSPACE_ACCEPTANCE):
    probe = convexity_probe(region, trials=30_000, seed=3, n=15, p=3)
    print(f"\n{region}: {probe.violations} violations in {probe.pairs_tested} "
          f"midpoint tests across {probe.metadata['covariances_probed']} covariances")

witness = convexity_probe(LRT_ORTHANT_ACCEPTANCE, trials=0, seed=3, n=15, p=2)
w = witness.witness
print(f"\nlikelihood-ratio nonconvexity witness, found at pair {witness.pairs_tested}:")
print("  covariance :", np.round(w["covariance"], 4).tolist())
print("  member a   :", np.round(w["member_a"], 4))
print("  member b   :", np.round(w["member_b"], 4))
print(f"  midpoint statistic {w['midpoint_statistic']:.4f} > critical {w['critical']:.4f}")
