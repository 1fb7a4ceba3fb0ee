"""Torus knots from closed forms, for tests: the Seifert matrix of T(p, q)
and its Alexander polynomial."""

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
