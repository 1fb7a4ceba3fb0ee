"""Torus knots from closed forms, for tests: the Seifert matrix of T(p, q),
its Alexander polynomial and its total signature at the m-th roots of
unity."""

from dehnsurg import SeifertMatrix, SymLaurentPoly


def torus_seifert(p, q):
    """Seifert matrix -(A_p (x) A_q) of the right-handed torus knot T(p, q),
    A_n the (n-1) x (n-1) matrix with 1 on the diagonal and -1 just above
    it (Sebastiani-Thom: the link of x^p + y^q)."""

    def a(n):
        return [[(i == j) - (j == i + 1) for j in range(n - 1)] for i in range(n - 1)]

    return SeifertMatrix([[-x * y for x in row_p for y in row_q] for row_p in a(p) for row_q in a(q)])


def torus_alexander(p, q):
    """Delta of T(p, q) from the closed form
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), centred at t^((p-1)(q-1)/2).
    Coefficient lists run from t^0 up; the divisor is monic, so the long
    division stays in the integers."""

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    def binomial(n):  # t^n - 1
        return [-1] + [0] * (n - 1) + [1]

    num = times(binomial(p * q), binomial(1))
    den = times(binomial(p), binomial(q))
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        c = quotient[k] = num[k + len(den) - 1]
        for j, y in enumerate(den):
            num[k + j] -= c * y
    assert not any(num), (p, q)  # the division is exact
    g = (p - 1) * (q - 1) // 2
    return SymLaurentPoly(quotient[g], quotient[g + 1 :])


def litherland_sigma_total(p, q, m):
    """Test-only oracle for the torus knot T(p, q) (Litherland, "Signatures
    of iterated torus knots", 1979): the signature at e^(2 pi i x) is
    -(#inside - #outside) over v = i/p + j/q, 0 < i < p, 0 < j < q, where
    inside means x < v < x + 1.  Summed over x = r/m with floor counts, so
    O(pq) at any m; None where some r/m is a jump, v or v - 1."""
    big_p = p * q
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            n = i * q + j * p  # v = n / big_p, in (0, 2)
            if m * n % big_p == 0:
                return None
            # r in [1, m - 1] with m(n - big_p) < r big_p < m n
            low = max(1, m * (n - big_p) // big_p + 1)
            high = min(m - 1, m * n // big_p)
            inside = max(0, high - low + 1)
            total += 2 * inside - (m - 1)
    return -total
