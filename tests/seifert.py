"""Seifert matrices for tests, without numpy: random valid pairings and
block sums (connected sums)."""

from dehnsurg import SeifertMatrix


def random_seifert(rng, genus):
    """Random valid Seifert pairing: fixed standard skew part plus an
    arbitrary symmetric integer matrix."""
    n = 2 * genus
    a = [[0] * n for _ in range(n)]
    for b in range(genus):
        a[2 * b][2 * b + 1] = 1  # skew part is the standard symplectic form
    for i in range(n):
        for j in range(i, n):
            s = rng.randint(-2, 2)
            a[i][j] += s
            if j != i:
                a[j][i] += s
    return SeifertMatrix(a)


def block_sum(*matrices):
    """Seifert matrix of the connected sum: the block-diagonal sum."""
    n = sum(a.size for a in matrices)
    rows, offset = [], 0
    for a in matrices:
        rows += [[0] * offset + list(row) + [0] * (n - offset - a.size) for row in a.entries]
        offset += a.size
    return SeifertMatrix(rows)
