import math

from dehnsurg import SeifertMatrix

from torus import torus_alexander, torus_seifert


def test_torus_alexander_matches_the_closed_form():
    # Every torus knot of genus <= 12 from the Seifert form +-(A_p (x) A_q),
    # both handednesses, against (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)).
    knots = [
        (p, q) for p in range(2, 26) for q in range(p + 1, 26) if math.gcd(p, q) == 1 and (p - 1) * (q - 1) <= 24
    ]
    assert len(knots) == 24
    for p, q in knots:
        want = torus_alexander(p, q)
        assert want.degree == (p - 1) * (q - 1) // 2, (p, q)
        right = torus_seifert(p, q)
        left = SeifertMatrix([[-x for x in row] for row in right.entries])
        for a in (right, left):
            assert a.alexander == want, (p, q, a.entries[0][0])
