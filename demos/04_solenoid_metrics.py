"""The truncated solenoid and its metrics.

The depth-N model is the finite cover attached to the kernel K_N: a point
is a K_N-coset plus a universal-cover coordinate, and the metric layer is
exact: d_pro values are powers of e, sigma is a pruned exact minimum over
group translates, and small sigma-balls split into one leaf-ball per
profinite coordinate within epsilon.
"""

from fractions import Fraction

from commsol.freewords import Word, identity as word_identity
from commsol.solenoid import (
    INJECTIVITY_RADIUS,
    EdgePoint,
    SolenoidPoint,
    ball_structure,
    baseleaf,
    baseleaf_path,
    d_pro,
    distinct_fiber_count,
    kernel,
    sheet_count,
    sigma,
)

print("== baseleaf points over the circle ==")
p = baseleaf((1,), 3)
print(f"baseleaf(1) at depth 3: cosets {p.family()} over Z, 2Z, 3Z")
print(f"the path of 3 steps hits {len(baseleaf_path((3,), 3))} points")

print()
print("== the profinite pseudometric ==")
print(f"d_pro(0, 12) at depth 5: {d_pro('Z', 1, (0,), (12,), 5).render()}")
print(f"d_pro(0, 12) at depth 4: {d_pro('Z', 1, (0,), (12,), 4).render()}")
print(f"(12 lies in the depth-4 kernel {kernel('Z', 1, 4).cols[0][0]}Z "
      f"but not in the depth-5 kernel {kernel('Z', 1, 5).cols[0][0]}Z)")

print()
print("== the solenoid metric ==")
val = sigma(baseleaf((0,), 5), baseleaf((12,), 5))
print(f"sigma(baseleaf 0, baseleaf 12) at depth 5: {val.render()}")

W = lambda s: Word(2, s)
print(f"over F_2 at depth 2: sigma(baseleaf a, baseleaf b) = "
      f"{sigma(baseleaf(W('a'), 2), baseleaf(W('b'), 2)).render()}")

print()
print("== sheets and density ==")
print(f"depth-2 model over the rose has {sheet_count('F', 2, 2)} sheets "
      f"(= {distinct_fiber_count('F', 2, 2)} distinct coset families)")
print(f"depth-3 model has {sheet_count('F', 2, 3)} sheets")
print(f"depth-5 model over the circle has {sheet_count('Z', 1, 5)} sheets")

print()
print("== small balls are products ==")
print(f"injectivity radius of the rose: {INJECTIVITY_RADIUS}")
center = baseleaf(word_identity(2), 2)
report = ball_structure(center, Fraction(1, 10))
print(report.render())
q = SolenoidPoint("F", 2, 2, center.fiber, EdgePoint(word_identity(2), "a", Fraction(1, 16)))
print(f"inside one component sigma equals the leaf distance: "
      f"{sigma(center, q).render()}")
