"""Spans and counters around the package's layers, installed from outside.

Each traced function is replaced by a wrapper at every module attribute
of the package that holds it, which is where the package's own calls look
it up (``dedekind_sum`` is called through ``dehnsurg.obstruction``,
``dehnsurg.surgery`` and ``dehnsurg.cli`` as well as its home module).
Methods are replaced on their class.  Spans are kept in memory as parallel
arrays of name, parent, start and end, and written out when the run ends.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter_ns

FUNCTIONS = (
    ("obstruction", "sweep"),
    ("obstruction", "distinguish"),
    ("obstruction", "mirror_record"),
    ("obstruction", "load_knots"),
    ("obstruction", "full_invariants"),
    ("dedekind", "dedekind_sum"),
    ("knots", "alexander_from_seifert"),
    ("knots", "tl_signature"),
    ("knots", "sigma_total"),
    ("surgery", "casson_walker_surgered"),
    ("hfcone", "rank_formula"),
    ("hfcone", "cone_rank_oracle"),
    ("hfcone", "build_cone"),
    ("hfcone", "mirror_of"),
    ("cli", "main"),
)

# (module, class, method, span name)
METHODS = (
    ("knots", "SeifertMatrix", "__init__", "knots.SeifertMatrix"),
    ("cyclotomic", "FieldElement", "sign", "cyclotomic.FieldElement.sign"),
    ("cyclotomic", "FieldElement", "inverse", "cyclotomic.FieldElement.inverse"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(m[3] for m in METHODS)

COUNTERS = (
    "cyclotomic.fields_built",
    "cyclotomic.enclosure_refinements",
    "hfcone.cone_columns",
)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "dehnsurg" or name.startswith("dehnsurg.")
    ]


class Tracer:
    def __init__(self):
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._tl_hits = 0
        self._stack = []  # [span index, nanoseconds covered by children]
        self._signs = []  # [first precision asked, refined] per open sign call
        self._fields = weakref.WeakSet()
        self._restore = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        nid = SPAN_NAMES.index(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            frame = [idx, 0]
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0)
            stack.append(frame)
            start = perf_counter_ns()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.span_end[idx] = end
                stack.pop()
                dur = end - start
                self.self_ns[nid] += dur - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur

        return wrapper

    # -- counters ---------------------------------------------------------

    def _count_tl_hits(self, fn, knots):
        """Count tl_signature calls served by the package's memo, read from
        its lru_cache statistics; without a memo no call is a hit."""
        cached = getattr(knots, "_tl_signature_cached", None)
        info = getattr(cached, "cache_info", None)
        if info is None:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = info().hits
            try:
                return fn(*args, **kwargs)
            finally:
                if info().hits > before:
                    self._tl_hits += 1

        return wrapper

    def _count_cone_columns(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cone = fn(*args, **kwargs)
            self.counts["hfcone.cone_columns"] += cone.n_cols
            return cone

        return wrapper

    def _count_refinements(self, fn):
        """A sign certification is refined when it asks for an enclosure
        at a higher precision than its first one."""

        @functools.wraps(fn)
        def sign(*args, **kwargs):
            mark = [None, False]
            self._signs.append(mark)
            try:
                return fn(*args, **kwargs)
            finally:
                self._signs.pop()
                if mark[1]:
                    self.counts["cyclotomic.enclosure_refinements"] += 1

        return sign

    def _watch_enclosure(self, fn):
        @functools.wraps(fn)
        def enclosure(n, prec, *args, **kwargs):
            if self._signs:
                mark = self._signs[-1]
                if mark[0] is None:
                    mark[0] = prec
                elif prec > mark[0]:
                    mark[1] = True
            return fn(n, prec, *args, **kwargs)

        return enclosure

    def _count_fields(self, new):
        def counted(cls, *args, **kwargs):
            inst = new(cls, *args, **kwargs)
            if inst not in self._fields:
                self._fields.add(inst)
                self.counts["cyclotomic.fields_built"] += 1
            return inst

        return counted

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, orig, wrapper):
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, orig))

    def _replace_on_class(self, cls, attr, wrapper):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        names = {m for m, _ in FUNCTIONS} | {m for m, *_ in METHODS}
        mods = {m: importlib.import_module(f"dehnsurg.{m}") for m in names}
        for modname, fname in FUNCTIONS:
            orig = getattr(mods[modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            if fname == "tl_signature":
                wrapper = self._count_tl_hits(wrapper, mods["knots"])
            elif fname == "build_cone":
                wrapper = self._count_cone_columns(wrapper)
            self._replace_everywhere(orig, wrapper)
        for modname, clsname, meth, span in METHODS:
            cls = getattr(mods[modname], clsname)
            wrapper = self._wrap(span, cls.__dict__[meth])
            if meth == "sign":
                wrapper = self._count_refinements(wrapper)
            self._replace_on_class(cls, meth, wrapper)
        cyclotomic = mods["cyclotomic"]
        enclosure = getattr(cyclotomic, "_generator_enclosure", None)
        if enclosure is not None:
            self._replace_everywhere(enclosure, self._watch_enclosure(enclosure))
        field_cls = getattr(cyclotomic, "RealCyclotomicField", None)
        if field_cls is not None and "__new__" in field_cls.__dict__:
            new = field_cls.__dict__["__new__"]
            new = new.__func__ if isinstance(new, staticmethod) else new
            self._replace_on_class(field_cls, "__new__", staticmethod(self._count_fields(new)))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = (self.calls[nid], "count")
            out[f"{name}.self_s"] = (self.self_ns[nid] / 1e9, "s")
        tl_calls = self.calls[SPAN_NAMES.index("knots.tl_signature")]
        out["knots.tl_signature.cache_hit_ratio"] = (
            self._tl_hits / tl_calls if tl_calls else 0.0,
            "fraction",
        )
        for name, value in self.counts.items():
            out[name] = (value, "count")
        return out

    def write_spans(self, path: Path) -> int:
        """Write the spans as tab-separated id, parent, name, start_ns, end_ns."""
        names = SPAN_NAMES
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\n"
                )
        return len(self.span_start)
