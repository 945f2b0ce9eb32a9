"""Exact reference values and small independent checkers for the benchmark.

The checkers re-derive cone membership and extremality from the parity-check
rows alone, so an op's output is never judged by the code that produced it.
A ray w is extreme when the constraints tight at w have rank n - 1; since
w itself lies in their null space, the rank is never more than n - 1.
The constants were computed at the seed commit and cross-checked there
(the q = 2 rays against the support-guided oracle).
"""

from fractions import Fraction

# The 14 minimal pseudo-codewords of the PG(2, 2) cone, canonical form.
RAYS_Q2 = frozenset({
    (0, 0, 1, 0, 1, 1, 1), (0, 1, 0, 1, 1, 1, 0), (0, 1, 1, 1, 0, 0, 1),
    (1, 0, 0, 1, 0, 1, 1), (1, 0, 1, 1, 1, 0, 0), (1, 1, 0, 0, 1, 0, 1),
    (1, 1, 1, 0, 0, 1, 0), (1, 1, 1, 2, 2, 1, 2), (1, 1, 2, 2, 1, 2, 1),
    (1, 2, 1, 1, 1, 2, 2), (1, 2, 2, 1, 2, 1, 1), (2, 1, 1, 1, 2, 2, 1),
    (2, 1, 2, 1, 1, 1, 2), (2, 2, 1, 2, 1, 1, 1),
})

# Unit-width pseudo-weight histograms of RAYS_Q2, as `rays histogram` writes them.
HISTOGRAM_CSV_Q2 = {
    "AWGNC": "bin_low,bin_high,count\n4,5,7\n6,7,7\n",
    "BSC": "bin_low,bin_high,count\n4,5,7\n5,6,7\n",
    "BEC": "bin_low,bin_high,count\n4,5,7\n7,8,7\n",
}

MIN_PSEUDO_WEIGHTS_Q2 = {"AWGNC": 4, "BSC": 4, "BEC": 4}

# Budgeted q = 4 double description in lexicographic order (max_rays = 800).
LEX_Q4_CERTIFIED_RAYS = 19

# Weight-(q + 2) codewords of the PG(2, 4) code.
MIN_CODEWORDS_Q4 = 168

# AWGNC pseudo-weights of the constructions (criteria 3 and 4 and the
# conjectured family at q = 4, whose target is conjectured_wp(4)).
EX3_AWGNC = {2: Fraction(25, 4), 4: Fraction(128, 13)}
CONJECTURE_Q4_AWGNC = Fraction(128, 13)


def in_cone(rows, w):
    """Fundamental-cone membership: w >= 0 and on every check no entry
    exceeds the sum of the others."""
    if any(x < 0 for x in w):
        return False
    for row in rows:
        vals = [w[i] for i in row]
        if 2 * max(vals) > sum(vals):
            return False
    return True


P = (1 << 61) - 1


def exact_rank(rows):
    """Rank over the rationals of a matrix with entries in {-1, 0, 1} and at
    most 21 columns, by elimination mod the prime P. It is exact: every
    nonzero k x k minor (k <= 21) is at most Hadamard's bound
    21^(21/2) < 10^14 < P in absolute value, so none vanishes mod P."""
    mat = [[x % P for x in r] for r in rows]
    n_cols = len(mat[0]) if mat else 0
    if n_cols > 21:
        raise ValueError("exact only for at most 21 columns")
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = pow(prow[c], P - 2, P)
        for r in range(rank + 1, len(mat)):
            f = mat[r][c] * inv % P
            if f:
                mat[r] = [(a - f * b) % P for a, b in zip(mat[r], prow)]
        rank += 1
    return rank


def is_extreme(rows, w):
    """Extreme ray of the cone: nonzero, a member, and the constraints tight
    at w (cone rows and nonnegativity rows) have rank n - 1."""
    n = len(w)
    if not any(w) or not in_cone(rows, w):
        return False
    tight = []
    for row in rows:
        total = sum(w[i] for i in row)
        for i in row:
            if total == 2 * w[i]:
                coeffs = [0] * n
                for i2 in row:
                    coeffs[i2] = 1
                coeffs[i] = -1
                tight.append(coeffs)
    for i in range(n):
        if w[i] == 0:
            tight.append([1 if k == i else 0 for k in range(n)])
    return exact_rank(tight) == n - 1


def awgnc(w):
    """||w||_1^2 / ||w||_2^2 for a nonzero vector."""
    one = sum(Fraction(x) for x in w)
    return one * one / sum(Fraction(x) * x for x in w)
