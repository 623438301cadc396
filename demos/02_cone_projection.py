"""Metric projections onto cones and dual-cone geometry.

The projection of x onto a closed convex cone under the metric
|z|^2 = z' M^{-1} z splits x into a cone part and a residual that are
metric-orthogonal (Pythagoras).  For the positive orthant the projection's
support is exactly the active subset from the sign-condition classification,
and an active-set solver reproduces the exhaustive-search answer.
"""

import numpy as np

from conetest import (
    CoordinateHalfspace,
    Orthant,
    Polyhedral,
    dual_cone_contains,
    metric_sq_norm,
    project,
    reduce_model,
)

rng = np.random.default_rng(11)

p = 4
x = np.array([1.2, -0.4, 0.8, -1.5])
m = np.array(
    [
        [1.0, 0.3, 0.0, 0.2],
        [0.3, 1.5, -0.4, 0.0],
        [0.0, -0.4, 1.2, 0.1],
        [0.2, 0.0, 0.1, 0.8],
    ]
)

proj = project(x, m, Orthant(p))
print("x =", x)
print("projection onto the orthant:", proj.point.round(4))
print("active subset:", proj.active_subset.a)
print("|proj|^2 =", round(proj.sq_norm_projection, 6), " |resid|^2 =", round(proj.sq_norm_residual, 6))
print("|x|^2    =", round(metric_sq_norm(x, m), 6), " (Pythagoras)")
inner = proj.point @ np.linalg.solve(m, proj.residual)
print("metric inner product of the two parts:", f"{inner:.2e}")

# Halfspace projection: either the identity, or a drop to the boundary.
half = project(x, m, CoordinateHalfspace(p, p - 1))
print("\nprojection onto {t: t[3] >= 0}:", half.point.round(4))
print("boundary residual contribution:", round(half.sq_norm_residual, 6))

# Projection norms grow with the cone: orthant <= halfspace <= everything.
print(
    "\nnorm ordering:",
    round(proj.sq_norm_projection, 4),
    "<=",
    round(half.sq_norm_projection, 4),
    "<=",
    round(metric_sq_norm(x, m), 4),
)

# A polyhedral cone {B t >= 0} with square B reduces to an orthant problem.
b = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
mono = project(x, m, Polyhedral(b))
print("\nprojection onto the monotone-ish cone:", mono.point.round(4))
print("constraint values B t:", (b @ mono.point).round(6))

# Dual cones: the orthant's dual is the nonpositive orthant; the dual of
# {sum(t) >= 0} is the nonpositive diagonal ray, an unbounded set.
print("\n(-1,-1,-1,-1) in orthant dual:", dual_cone_contains(-np.ones(p), Orthant(p)))
sum_halfspace = Polyhedral(np.ones((1, p)))
w = -0.3 * np.ones(p)
print("w = -0.3*ones in dual of {sum >= 0}:", dual_cone_contains(w, sum_halfspace))
print("same ray scaled by 1e6:", dual_cone_contains(1e6 * w, sum_halfspace))

# Reducing a two-matrix hypothesis pair to a cone model.
b1 = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
data = rng.standard_normal((12, 3))
reduced = reduce_model(b1, b1, data)
print("\nreduced data shape:", np.asarray(reduced.data).shape)
print("induced constraints:\n", np.asarray(reduced.cone.constraints).round(6))
