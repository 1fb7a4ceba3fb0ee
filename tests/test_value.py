"""Value semantics of the package's immutable classes, and what a fresh
``import dehnsurg`` loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

import dehnsurg as ds
from dehnsurg import replace
from dehnsurg.hfcone import build_cone
from dehnsurg.obstruction import SweepRow

FLOER = ds.KnotFloerData(1, [1, 1, 1], 0)
ROW = SweepRow("k", 3, 1, 2, ds.INCONCLUSIVE, None, None)

# One value of each class, built by a fresh call each time, with its repr
# as a frozen dataclass printed it.
VALUES = {
    "LensSpace": (lambda: ds.LensSpace(5, 2), "LensSpace(p=5, q=2)"),
    "Slope": (lambda: ds.Slope(1, 2), "Slope(p=1, q=2)"),
    "PeripheralClass": (
        lambda: ds.PeripheralClass(1, 2),
        "PeripheralClass(mu_coeff=1, lambda_coeff=2)",
    ),
    "LongitudeData": (lambda: ds.LongitudeData(2), "LongitudeData(d=2)"),
    "AmbientData": (
        lambda: ds.AmbientData(Fraction(1, 2), "Y"),
        "AmbientData(lambda_value=Fraction(1, 2), name='Y')",
    ),
    "KnotFloerData": (
        lambda: ds.KnotFloerData(1, [1, 1, 1], 0),
        "KnotFloerData(g=1, ranks=(1, 1, 1), v_threshold=0)",
    ),
    "ConeMatrix": (
        lambda: build_cone(FLOER, ds.Slope(2, 1), 1),
        "ConeMatrix(spinc=1, a_indices=(-3, -1, 1, 3), a_dims=(1, 1, 1, 1), "
        "b_indices=(-1, 1, 3), columns=(1, 2, 2, 4))",
    ),
    "SeifertMatrix": (
        lambda: ds.SeifertMatrix([[-1, 1], [0, -1]]),
        "SeifertMatrix(entries=((-1, 1), (0, -1)))",
    ),
    "SymLaurentPoly": (lambda: ds.SymLaurentPoly(-1, [1]), "SymLaurentPoly(a0=-1, higher=(1,))"),
    "LSpaceForm": (lambda: ds.LSpaceForm([1, 2]), "LSpaceForm(exponents=(1, 2))"),
    "Verdict": (
        lambda: ds.Verdict(ds.BY_CASSON_WALKER, Fraction(1, 3), 2),
        "Verdict(tag='DistinguishedByCassonWalker', value1=Fraction(1, 3), value2=2)",
    ),
    "KnotRecord": (
        lambda: ds.KnotRecord("k", ds.SymLaurentPoly(1)),
        "KnotRecord(name='k', alexander=SymLaurentPoly(a0=1, higher=()), seifert=None, "
        "hf=None, ambient=AmbientData(lambda_value=Fraction(0, 1), name='S3'), "
        "tau=None, nu=None, trivial=False)",
    ),
    "SweepReport": (
        lambda: ds.SweepReport((ROW,), {ds.INCONCLUSIVE: 1}, 0),
        "SweepReport(rows=(SweepRow(name='k', p=3, q1=1, q2=2, tag='Inconclusive', "
        "witness1=None, witness2=None),), counts={'Inconclusive': 1}, nontrivial_inconclusive=0)",
    ),
}
NAMES = sorted(VALUES)


def make(name):
    value = VALUES[name][0]()
    assert type(value).__name__ == name
    return value


def same_value(a, b):
    """Equal, and equal in every attribute, derived ones included."""
    return type(a) is type(b) and a == b and vars(a) == vars(b)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = make(name), make(name)
    assert a is not b and a == b and not a != b
    if name == "SweepReport":
        # Its counts are a dict, so it was never hashable.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(make(name)) == VALUES[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = make(name)
    field = next(iter(vars(value)))
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before and not hasattr(value, "extra")


@pytest.mark.parametrize("name", NAMES)
def test_copy_deepcopy_and_pickle_round_trip(name):
    value = make(name)
    assert copy.copy(value) is not value
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert same_value(other, value)
    with pytest.raises(AttributeError):
        setattr(copy.copy(value), next(iter(vars(value))), None)


@pytest.mark.parametrize("name", NAMES)
def test_replace_with_no_changes_rebuilds_an_equal_value(name):
    value = make(name)
    other = replace(value)
    assert other is not value and same_value(other, value)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace():
    for name in NAMES:
        value = make(name)
        assert same_value(copy.replace(value), value), name
    assert copy.replace(ds.Slope(1, 2), p=3) == ds.Slope(3, 2)
    with pytest.raises(ValueError, match="not reduced"):
        copy.replace(ds.Slope(1, 2), p=2)


def test_equality_holds_only_within_one_class():
    assert ds.Slope(1, 2) != ds.PeripheralClass(1, 2)
    assert ds.Slope(5, 2) != ds.LensSpace(5, 2)
    assert ds.Slope(1, 2) != (1, 2)
    assert ds.Slope(1, 2) != ds.Slope(1, 3)
    assert ds.Verdict("x", 1, 2) != ds.Verdict("x", 1, 3)


def test_seifert_equality_ignores_the_derived_alexander():
    a, b = make("SeifertMatrix"), make("SeifertMatrix")
    # Two equal entries with distinct polynomial objects.
    assert a.alexander is not b.alexander and a == b and hash(a) == hash(b)
    mirror = a.mirror()
    assert mirror.alexander == a.alexander and mirror != a
    assert mirror == ds.SeifertMatrix(mirror.entries)


def test_replace_revalidates_and_rederives():
    with pytest.raises(ValueError, match="not reduced"):
        replace(ds.Slope(1, 2), p=2)
    with pytest.raises(ValueError, match="q >= 0"):
        replace(ds.Slope(1, 2), q=-2)
    assert replace(ds.Slope(1, 2), p=3) == ds.Slope(3, 2)
    with pytest.raises(ValueError, match="two distinct witnesses"):
        replace(make("Verdict"), value2=Fraction(1, 3))
    with pytest.raises(ValueError, match="must be positive"):
        replace(make("LSpaceForm"), exponents=[0, 1])
    with pytest.raises(TypeError):
        replace(ds.Slope(1, 2), r=3)
    figure_eight = replace(make("SeifertMatrix"), entries=[[1, 1], [0, -1]])
    assert str(figure_eight.alexander) == "-T + 3 - T^-1"
    record = replace(make("KnotRecord"), name="j", trivial=True)
    assert (record.name, record.trivial, record.ambient) == ("j", True, ds.AmbientData())


def test_constructors_keep_their_defaults_and_keywords():
    assert ds.Slope(p=1, q=2) == ds.Slope(1, 2)
    assert ds.AmbientData() == ds.AmbientData(Fraction(0), "S3")
    assert ds.LongitudeData() == ds.LongitudeData(d=1)
    assert ds.Verdict("x") == ds.Verdict("x", None, None)
    assert ds.SymLaurentPoly(1) == ds.SymLaurentPoly(a0=1, higher=())
    assert ds.LSpaceForm() == ds.LSpaceForm(exponents=())
    assert make("KnotRecord") == ds.KnotRecord(name="k", alexander=ds.SymLaurentPoly(1), trivial=False)


def test_bundled_corpus_path_is_the_resource_path():
    path = ds.bundled_corpus_path()
    assert path == Path(resources.files("dehnsurg").joinpath("data", "knots.json"))
    assert path.is_file()


def test_cold_import_loads_no_dataclasses_inspect_or_field_oracle():
    # Compared before and after, so whatever site preloads does not count.
    src = str(Path(ds.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dehnsurg\n"
        "banned = {'dataclasses', 'inspect', 'importlib.resources', 'dehnsurg.cyclotomic'}\n"
        "print(' '.join(sorted(banned & (set(sys.modules) - before))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split() == []


def test_cold_import_without_site_loads_no_typing():
    # Under -S nothing is preloaded, so every module import dehnsurg needs
    # is counted; SweepRow is a collections.namedtuple, not typing's.
    src = str(Path(ds.__file__).resolve().parent.parent)
    code = f"import sys\nsys.path.insert(0, {src!r})\nimport dehnsurg\nprint('typing' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False"]


def test_public_names_are_the_modules_all():
    modules = (ds.dedekind, ds.hfcone, ds.knots, ds.obstruction, ds.surgery)
    assert ds.__all__ == ["replace", *(name for module in modules for name in module.__all__)]
    assert len(set(ds.__all__)) == len(ds.__all__)
    assert {"dedekind_numerator", "SweepRow"} <= set(ds.__all__)
    home = {name: module for module in modules for name in module.__all__}
    home["replace"] = ds._value
    for name in ds.__all__:
        assert getattr(ds, name) is getattr(home[name], name), name
    # The re-exports load nothing more: no dataclasses, typing or numpy.
    src = str(Path(ds.__file__).resolve().parent.parent)
    code = (
        f"import sys\nsys.path.insert(0, {src!r})\nimport dehnsurg\n"
        "print(' '.join(sorted({'dataclasses', 'typing', 'numpy'} & set(sys.modules))))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
