import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import dehnsurg as ds


@pytest.fixture
def clear_caches():
    """A function that empties every functools cache of the package, so the
    next call runs as in a fresh process."""

    def clear():
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dehnsurg":
                for obj in vars(module).values():
                    if callable(getattr(obj, "cache_clear", None)):
                        obj.cache_clear()

    return clear


@pytest.fixture
def fraction_calls(monkeypatch):
    """A list that gets the arguments of every Fraction.__new__ call made
    while the test runs; empty it to start a count."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return calls


@pytest.fixture
def dedekind_calls(monkeypatch):
    """A list that gets the arguments of every dedekind_numerator call made
    while the test runs, through whichever package module holds the name."""
    calls = []
    original = ds.dedekind.dedekind_numerator

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dehnsurg" and getattr(module, "dedekind_numerator", None) is original:
            monkeypatch.setattr(module, "dedekind_numerator", counting)
    return calls


@pytest.fixture(scope="session")
def corpus():
    return ds.load_knots(ds.bundled_corpus_path())


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {r.name: r for r in corpus}


def all_lspace_models(max_top):
    """All thin L-space models with top exponent at most max_top, plus the unknot."""
    out = []
    for k in range(0, max_top + 1):
        for combo in combinations(range(1, max_top + 1), k):
            out.append(ds.lspace_model(ds.LSpaceForm(combo)))
    return out


def random_floer_data(rng, g_max=3, rank_max=5):
    g = rng.randint(0, g_max)
    if g == 0:
        ranks = (1,)
    else:
        interior = [rng.randint(1, rank_max) for _ in range(g - 1)]
        middle = [rng.randint(1, rank_max)]
        ranks = tuple([1] + interior[::-1] + middle + interior + [1])
    return ds.KnotFloerData(g, ranks, rng.randint(-g, g))


@pytest.fixture(scope="session")
def model_corpus():
    """At least 500 knot Floer models: every thin L-space model with top
    exponent <= 4, padded with seeded random valid data of degree <= 3."""
    rng = random.Random(20260809)
    models = all_lspace_models(4)
    while len(models) < 520:
        models.append(random_floer_data(rng))
    return models


def reduced_slopes(p_max, q_max, signs=(1, -1)):
    return [
        ds.Slope(p * sign, q)
        for sign in signs
        for p in range(1, p_max + 1)
        for q in range(1, q_max + 1)
        if math.gcd(p, q) == 1
    ]
