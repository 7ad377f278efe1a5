"""Reference outputs the workloads are checked against.

Plain data, importable without the library: ``run.py`` needs the check
ids to report one timing per check.
"""

NBALL_RADIUS = 20
NBALL_WORDS = 295_241
NBALL_MAX_EXPONENT = 7
NBALL_MAX_DEPTH = 9
NBALL_HISTOGRAM = {1: 11795, 2: 32108, 3: 79990, 4: 147068, 5: 17968, 6: 5664, 7: 648}

RANDOM_RADII = range(2, 31)
RANDOM_WORDS_PER_RADIUS = 20_000

GROWTH_RADIUS = 16
GROWTH_PURE_RADIUS = 12
GROWTH_BALLS = [1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643, 999, 1487, 2259, 3313, 4973, 7213]

CHECK_IDS = [
    "abelianization-223",
    "core-lemma-a4-sharpness",
    "core-lemma-corpus",
    "coset-index-16-iso",
    "coset-index-4",
    "coset-xi-index-2",
    "growth-cross-pipeline",
    "h0-abelianization",
    "index-bounds-closed-form",
    "lemma-contraction",
    "nball-torsion-10",
    "nball-torsion-2",
    "nball-torsion-20",
    "nball-torsion-5",
    "order-table",
    "radius-index-exact",
    "splitting-length-identity",
    "weight-identities",
]
