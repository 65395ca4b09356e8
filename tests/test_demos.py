"""Smoke test for the narrative demos: each script runs in a fresh
interpreter and prints exactly the transcript recorded here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "01_words_and_subgroups": (
        "== free words ==\n"
        "abBA reduces to 1 (uppercase letters are inverses)\n"
        "Aba = u c u^-1 with u = A, c = b\n"
        "abbA is (abA)^2: powers of non-cyclically-reduced words cancel\n"
        "\n"
        "== lattices in Z^2 ==\n"
        "<(2,0),(1,1),(0,2)> canonicalizes to columns ((1, 1), (0, 2)), index 2\n"
        "2Z x Z meet Z x 3Z = columns ((2, 0), (0, 3)), index 6\n"
        "kernel of depth 4 over Z: 12Z (= lcm 1..4)\n"
        "\n"
        "== subgroup graphs of F_2 ==\n"
        "<aa, b, abA> folds to 2 vertices; contains 'ab'? False\n"
        "its canonical free basis: ['b', 'aa', 'abA']\n"
        "subgroups of F_2 by index: {1: 1, 2: 3, 3: 13} (1, 3, 13 at indices 1, 2, 3)\n"
        "<aa> folds incomplete (infinite index): complete = False\n"
    ),
    "02_commensurators": (
        "== Z^n: the GL_n(Q) picture ==\n"
        "(x2) o (x3) has matrix 6\n"
        "(x2)^-1 is x1/2 with domain 2Z\n"
        "swap matrix squared is the identity? True\n"
        "a matrix with denominators picks its maximal domain: index 6\n"
        "\n"
        "== F_2: the catalog ==\n"
        "swap sends a to b; swap o swap ~ identity? True\n"
        "swap restricted to an index-2 domain stays equivalent? True\n"
        "a graph-to-graph commensuration between index-2 subgroups: domain index 2, codomain index 2, equivalent to the identity? False\n"
        "its inverse round-trips? True\n"
        "\n"
        "== matrices multiply exactly ==\n"
        "to_matrix is a homomorphism: True\n"
    ),
    "03_zeta_correspondence": (
        "== the depth-2 system over Z ==\n"
        "idx=0 index=1 subgroup=Z 1 : 1\n"
        "idx=1 index=2 subgroup=Z 1 : 2\n"
        "bond 0 1\n"
        "comp 0: 1 -> 2\n"
        "comp 1: 1 -> 2\n"
        "\n"
        "== round trip and functoriality over F_2 ==\n"
        "reconstruct(zeta(swap, 3)) ~ swap? True\n"
        "zeta(swap o shift) ~ zeta(swap) o zeta(shift)? True\n"
        "zeta separates swap from the identity? True\n"
        "\n"
        "== cofinal restriction ==\n"
        "even-index objects of the depth-6 system: [2, 4, 6]\n"
        "restriction o inverse ~ identity? True\n"
        "(5Z is covered through the materialized meet 5Z ∩ 2Z = 10Z)\n"
    ),
    "04_solenoid_metrics": (
        "== baseleaf points over the circle ==\n"
        "baseleaf(1) at depth 3: cosets ((0,), (1,), (1,)) over Z, 2Z, 3Z\n"
        "the path of 3 steps hits 4 points\n"
        "\n"
        "== the profinite pseudometric ==\n"
        "d_pro(0, 12) at depth 5: exp(-4) = 0.0183156389\n"
        "d_pro(0, 12) at depth 4: 0  [pseudometric at depth 4]\n"
        "(12 lies in the depth-4 kernel 12Z but not in the depth-5 kernel 60Z)\n"
        "\n"
        "== the solenoid metric ==\n"
        "sigma(baseleaf 0, baseleaf 12) at depth 5: exp(-4) = 0.0183156389\n"
        "over F_2 at depth 2: sigma(baseleaf a, baseleaf b) = exp(-1) = 0.3678794412\n"
        "\n"
        "== sheets and density ==\n"
        "depth-2 model over the rose has 4 sheets (= 4 distinct coset families)\n"
        "depth-3 model has 972 sheets\n"
        "depth-5 model over the circle has 60 sheets\n"
        "\n"
        "== small balls are products ==\n"
        "injectivity radius of the rose: 1/2\n"
        "ball depth=2 eps=1/10 components=1\n"
        "  component at fiber 1: d_pro 0  [pseudometric at depth 2]\n"
        "  each component isometric to the leaf ball: nontrivial deck translations displace leaf points by >= 2*injrad = 1 > 4*eps = 2/5\n"
        "inside one component sigma equals the leaf distance: 1/16 = 0.0625000000\n"
    ),
    "05_quasi_isometries_and_boundary": (
        "== quasi-isometry constants ==\n"
        "identity:   R=4 L=1 (1.0000) C=0 (0.0000) upper=1 lower=1 pairs=12880\n"
        "x2 on Z:    R=10 L=2 (2.0000) C=0 (0.0000) upper=2 lower=1 pairs=210\n"
        "a -> ab:    R=4 L=2 (2.0000) C=0 (0.0000) upper=2 lower=2 pairs=12880\n"
        "\n"
        "== bounded distance versus drift ==\n"
        "shift vs its restriction: equivalent: bound 2, stabilized at R=1 (running maxima: 0 2 2 2 2 2 2 2)\n"
        "swap vs identity:         inequivalent: growth report (running maxima: 0 2 4 6 8 10 12 14)\n"
        "\n"
        "== the lift computes the same map ==\n"
        "shift|ker_a: factorization: exact agreement on 247 points\n"
        "x2 on Z:     factorization: exact agreement on 25 points\n"
        "\n"
        "== boundary fixed points ==\n"
        "(Aba)+ = u=A c=b, expanding to Abbbbbbbbb...\n"
        "conjugation by a sends b+ to u=a c=b\n"
        "the action is equivariant on ab+: True\n"
        "swap and identity are separated already by a+\n"
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_transcript(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED[name]
