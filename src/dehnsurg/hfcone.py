"""Homology-level model of the hat-flavor rational surgery mapping cone.

Knot Floer input is recorded at the level of homology: the rank of each
hat-A complex and whether the two induced maps to the hat-B complex are
nonzero.  Over the two-element field this is enough to assemble the
surgery mapping cone up to quasi-isomorphism and read off the total rank
of the surgered manifold's hat homology, which is what the rank oracle
does.  The closed-form rank formula is implemented independently so the
two routes can be compared.

Maps with rank-one target are encoded as bits; where a source has rank
above one, the nonzero map is realized as (1, 0, ..., 0), which matches
the one-dimensional-image lemma satisfied by data coming from knots.

The cone is truncated to the indices t with |floor(t/q)| <= W,
W = g + ceil(|p|/q) + 1 (Ozsvath-Szabo, "Knot Floer homology and rational
surgeries", section 4).  From W = g + ceil(|p|/q) on, the columns with
|floor(t/q)| <= g keep both their targets, and each further column has
rank one and one nonzero map, onto its own row, so the tails cancel; see
build_cone.

build_cone assembles one Spin^c class as GF(2) bitmask columns; the tests
rank it by elimination as the oracle's oracle.  cone_rank_oracle never
builds it: only the min(|p|, (2g+1)q) classes holding some t with
|floor(t/q)| <= g can have rank other than one, and each of those is
ranked in one scan of its columns, each of which has at most two
nonzeros, in adjacent rows.

The model keeps h_nonzero(s) = v_nonzero(-s), so it cannot tell a knot's
Floer data from its mirror's, and mirror_of is the identity.  Surgery at
p/q < 0 on K and at -p/q on K's mirror have the same hat rank, but both
are ranked on K's data, and the two cones can disagree when K's Floer
data differs from its mirror's.
"""

from __future__ import annotations

import operator

from ._value import Value
from .surgery import Slope

__all__ = [
    "KnotFloerData",
    "ConeMatrix",
    "nu_of",
    "mirror_of",
    "build_cone",
    "cone_rank_oracle",
    "rank_formula",
    "lspace_model",
    "delta_dimension",
]


class KnotFloerData(Value):
    """Homology-level knot Floer data.

    ranks[g + s] is the rank of H(hat-A_s) for -g <= s <= g (symmetric,
    equal to 1 at |s| = g); v_threshold is the least s at which the induced
    v-map is nonzero, and the h-maps are tied to the v-maps by the flip
    symmetry h_nonzero(s) = v_nonzero(-s).
    """

    _fields = ("g", "ranks", "v_threshold")

    def __init__(self, g: int, ranks, v_threshold: int):
        try:
            g, v_threshold = operator.index(g), operator.index(v_threshold)
            ranks = tuple(map(operator.index, ranks))
        except TypeError:
            raise ValueError("g, ranks and v_threshold must be integers") from None
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "v_threshold", v_threshold)
        if g < 0:
            raise ValueError("truncation degree g must be >= 0")
        if len(ranks) != 2 * g + 1:
            raise ValueError(f"need {2 * g + 1} ranks for g = {g}, got {len(ranks)}")
        if any(r < 1 for r in ranks):
            raise ValueError("all ranks must be positive")
        if ranks != ranks[::-1]:
            raise ValueError("ranks must be symmetric under s -> -s")
        if ranks[0] != 1 or ranks[-1] != 1:
            raise ValueError("rank at |s| = g must be 1")
        if not -g <= self.v_threshold <= g:
            raise ValueError("v-threshold must lie in [-g, g]")

    def a_rank(self, s: int) -> int:
        return self.ranks[self.g + s] if abs(s) <= self.g else 1

    def v_nonzero(self, s: int) -> bool:
        return s >= self.v_threshold

    def h_nonzero(self, s: int) -> bool:
        return s <= -self.v_threshold

    def excess(self) -> int:
        """Total rank above the minimum: sum_s (a_s - 1)."""
        return sum(r - 1 for r in self.ranks)


def nu_of(data: KnotFloerData) -> int:
    """Least s at which the induced v-map is nonzero."""
    return data.v_threshold


def mirror_of(data: KnotFloerData) -> KnotFloerData:
    """The model's mirror: the input itself.

    A mirror swaps the v- and h-maps and reflects s, so its ranks are the
    reversed ranks and its v-map is nonzero at s iff h is at -s, that is
    iff s >= v_threshold.  The ranks are symmetric, so nothing changes.
    It stays a named step so that the callers that mirror remain visible.
    """
    return data


def _gf2_rank(vectors) -> int:
    """Rank over GF(2) of vectors given as integer bitmasks."""
    pivots: dict[int, int] = {}
    for vec in vectors:
        while vec:
            low = vec & -vec
            other = pivots.get(low)
            if other is None:
                pivots[low] = vec
                break
            vec ^= other
    return len(pivots)


class ConeMatrix(Value):
    """Truncated mapping-cone differential for one Spin^c class, over GF(2).

    Columns follow the A-part (one bitmask column per A-index carrying the
    maps, plus zero columns for rank above one), rows the B-part.
    """

    _fields = ("spinc", "a_indices", "a_dims", "b_indices", "columns")

    def __init__(self, spinc: int, a_indices, a_dims, b_indices, columns):
        self._set_fields(spinc, a_indices, a_dims, b_indices, columns)

    @property
    def n_rows(self) -> int:
        return len(self.b_indices)

    @property
    def n_cols(self) -> int:
        return sum(self.a_dims)

    def rank(self) -> int:
        return _gf2_rank(self.columns)

    def homology_rank(self) -> int:
        r = self.rank()
        return (self.n_cols - r) + (self.n_rows - r)


def _window(data: KnotFloerData, slope: Slope, extra_window: int):
    """p, q, |p| and the A-range [a_lo, a_hi] of the truncated cone: the t
    with |floor(t/q)| <= W, W = g + ceil(|p|/q) + 1 + extra_window."""
    p, q = slope.p, slope.q
    if q < 1:
        raise ValueError("the cone is only assembled for slopes with q >= 1")
    if p == 0:
        raise ValueError("p must be nonzero")
    pp = abs(p)
    w = data.g + -(-pp // q) + 1 + extra_window
    return p, q, pp, -w * q, (w + 1) * q - 1


def build_cone(data: KnotFloerData, slope: Slope, spinc: int, extra_window: int = 0) -> ConeMatrix:
    """Assemble the truncated cone differential for one Spin^c class.

    The A-part keeps indices t with s = floor(t/q) in [-W, W],
    W = g + ceil(|p|/q) + 1 (+ extra padding), the B-part keeps t in
    [-Wq + p, (W+1)q - 1], and both keep only the class t = spinc (mod |p|).
    A_t maps to B_t when its v-map is nonzero and to B_{t+p} when its h-map
    is.  Requires q >= 1; orientation issues are the caller's business.

    Why this window suffices: from W = g + ceil(|p|/q) on, every A-column
    with |s| <= g has both targets, B_t and B_{t+p}, inside the B-range.
    Past that, widening W by one adds, per class, the A-indices with
    |s| = W + 1 and as many new B-indices beyond both ends of the B-range.
    Each new A-column has rank one and one nonzero map (the v-map above g,
    the h-map below -g), onto its own new B-row, so the matrix rank grows
    by the number of new columns and the homology rank is unchanged: the
    tails cancel.  The + 1 is a margin.
    """
    p, q, pp, a_lo, a_hi = _window(data, slope, extra_window)
    if not 0 <= spinc < pp:
        raise ValueError(f"Spin^c index must lie in [0, {pp})")
    a_indices = range(a_lo + (spinc - a_lo) % pp, a_hi + 1, pp)
    # Both index sets step by |p| and the B-part starts at a_indices[0] + p,
    # so column i, for t = a_indices[i], has its h-target B_{t+p} in row i
    # and its v-target B_t in row i - sign(p).
    b_indices = range(a_indices.start + p, a_hi + 1, pp)
    n_rows = len(b_indices)
    v_row = -1 if p > 0 else 1
    g, threshold, ranks = data.g, data.v_threshold, data.ranks
    a_dims = []
    columns = []
    for i, t in enumerate(a_indices):
        s = t // q
        vec = 0
        if s >= threshold and 0 <= i + v_row < n_rows:  # v_nonzero(s)
            vec = 1 << (i + v_row)
        if s <= -threshold and i < n_rows:  # h_nonzero(s)
            vec |= 1 << i
        a_dims.append(ranks[g + s] if -g <= s <= g else 1)
        columns.append(vec)
    return ConeMatrix(spinc, tuple(a_indices), tuple(a_dims), tuple(b_indices), tuple(columns))


def cone_rank_oracle(data: KnotFloerData, slope: Slope) -> int:
    """Total hat-homology rank of the surgered manifold, summed over Spin^c.

    The cone of each Spin^c class is build_cone's truncated matrix, ranked
    without being built.  Every call ranks twice, on build_cone's window W
    and on W + 2, and raises ArithmeticError unless the two answers agree.

    Only the classes holding some t in [-gq, (g+1)q) are ranked; every
    other class has rank exactly one.  In such a class every A_t has rank
    one and exactly one nonzero map: the v-map when s = floor(t/q) > g
    (the h-map would need s <= -threshold, so s <= g), the h-map when
    s < -g.  Write the class's A-indices t_0 < ... < t_{n-1}, steps of
    |p|.  The window reaches more than |p| past both ends of
    [-gq, (g+1)q), so the low indices t_0 .. t_k, below -gq, are followed
    by high ones t_{k+1} .. t_{n-1}, at or above (g+1)q.  A v-map sends
    A_t to B_t and an h-map to B_{t+p}.  For p > 0 the B-part is
    B_{t_1} .. B_{t_{n-1}}: low A_{t_j} hits B_{t_{j+1}}, high A_{t_j} hits
    B_{t_j}, so every row is hit, B_{t_{k+1}} twice, and the map is onto
    with a one-dimensional kernel.  For p < 0 it is B_{t_{-1}} ..
    B_{t_{n-1}}: low A_{t_j} hits B_{t_{j-1}}, high A_{t_j} hits B_{t_j},
    every column its own row and B_{t_k} none, so the map is one-to-one
    with a one-dimensional cokernel.  Either way the homology has rank one.
    """
    total = _cone_rank(data, slope, 0)
    wider = _cone_rank(data, slope, 2)
    if wider != total:
        raise ArithmeticError(f"truncation instability: rank {total} vs {wider} on a wider window")
    return total


def _cone_rank(data: KnotFloerData, slope: Slope, extra_window: int) -> int:
    """The sum over Spin^c classes of
    build_cone(data, slope, spinc, extra_window).homology_rank(), without
    the matrices: one for each class off [-gq, (g+1)q), and for the others
    n_cols + n_rows - 2 rank, the rank counted in one scan.

    Column i of a class (the first basis vector of A_t, t its i-th
    A-index) has its h-target in row i and its v-target in row
    i - sign(p), as in build_cone; the rest of A_t is a_rank(s) - 1 zero
    columns, q times the excess in all.  So column i can only link the
    row it shares with column i - 1 (the near row: v for p > 0, h for
    p < 0) to the one it shares with column i + 1 (the far row).  No
    nonzero falls outside the B-part: s < -g at the first column, whose
    v-map is zero, and s > g at the last, whose h-map is.  The columns
    with two nonzeros link distinct pairs of adjacent rows, so they cut
    the rows into runs, are independent, and add one each to the rank.
    Modulo them the rows of a run are equal, so the columns with one
    nonzero add one for each run they hit.  The scan keeps whether the
    current run is hit (grounded) and closes it at each column that does
    not link on, whose far row starts the next run.
    """
    p, q, pp, a_lo, a_hi = _window(data, slope, extra_window)
    g, threshold = data.g, data.v_threshold
    width = min(pp, (2 * g + 1) * q)
    sign = 1 if p > 0 else -1
    n_cols = q * data.excess()
    n_rows = rank = 0
    for first in range(-g * q, -g * q + width):  # one t of each class ranked
        t = a_lo + (first - a_lo) % pp
        n_a = (a_hi - t) // pp + 1
        n_cols += n_a
        n_rows += n_a - sign  # the B-part starts at the first A-index + p
        grounded = False
        for t in range(t, a_hi + 1, pp):
            s = sign * (t // q)  # near: v_nonzero for p > 0, h_nonzero for p < 0
            near, far = s >= threshold, -s >= threshold
            if near and far:
                rank += 1
            else:
                rank += grounded or near
                grounded = far
        rank += grounded
    return pp - width + n_cols + n_rows - 2 * rank


def rank_formula(data: KnotFloerData, slope: Slope) -> int:
    """Closed-form rank of the surgered hat homology.

    For nu >= 1 (any sign of p):  p + 2*max(0, (2*nu - 1)q - p) + q*excess.
    For nu <= 0:                  |p| + q*excess.

    The formula assumes nu at least the mirror's nu, which the model
    cannot violate: mirror_of is the identity (see the module docstring).
    """
    p, q = slope.p, slope.q
    if q < 1:
        raise ValueError("rank formula requires q >= 1")
    if p == 0:
        raise ValueError("p must be nonzero")
    nu = data.v_threshold
    excess = data.excess()
    if nu >= 1:
        return p + 2 * max(0, (2 * nu - 1) * q - p) + q * excess
    return abs(p) + q * excess


def lspace_model(form) -> KnotFloerData:
    """Thin model of a knot admitting L-space surgeries: every hat-A complex
    has rank one and the v-maps switch on exactly at the top exponent."""
    g = form.genus
    return KnotFloerData(g, (1,) * (2 * g + 1), g)


def delta_dimension(data: KnotFloerData) -> int:
    """Dimension of the joint image of the two induced maps at s = 0.

    Only defined when both thresholds sit at zero (nu of the data and of
    its mirror both vanish).  Then both maps are nonzero at s = 0, and the
    model realizes each as (1, 0, ..., 0), so the joint image is a line.
    """
    if data.v_threshold != 0:
        raise ValueError("delta dimension needs nu = 0 for the data and its mirror")
    return 1
