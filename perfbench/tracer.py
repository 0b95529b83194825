"""Per-layer tracing of ppf from outside the package.

`Tracer.install()` replaces the public functions, methods, class methods and
properties of ppf.fields, ppf.polys, ppf.families, ppf.linalg and ppf.maps,
and `ppf.cli.main`, with timing wrappers; nothing under `src/` changes.
Each call is aggregated in memory by (span name, parent span name) into
calls, total seconds, self seconds (total minus the wrapped calls nested
inside it, including the recursive calls an extension field makes into its
base) and, for the `arr_*` bulk operations, array elements processed.

Span names are `<module>.<function>` and `<module>.<Class>.<method>`.  A
per-layer metric `<module>.<name>.<stat>` sums every span named
`<module>.<name>` or `<module>.<AnyClass>.<name>`, so `fields.arr_add`
covers the prime-field and extension-field implementations alike.

Deliberately left unwrapped, so their cost stays in the caller's self time:
the per-element scalar methods (field `add`, `mul`, `pow`, `decode`, ...,
`reduce_exponent`, `pack_vector`/`unpack_vector`) and the `FieldElement`
wrapper, because a wrapper costs more than the work they do; and in
`ppf.cli` everything but `main`, so `cli.main.self_s` holds argument
parsing, the command handler, JSON serialisation and the file write.
`AgreementReport` construction and `to_json` are traced as the single span
`families.report_assembly`.
"""

import contextlib
import functools
import importlib
import inspect
import sys
from time import perf_counter

MODULES = ("fields", "polys", "families", "linalg", "maps", "cli")
ONLY = {"cli": {"main"}}
SCALAR = {
    "fields": {"add", "neg", "sub", "mul", "inv", "div", "pow", "decode", "encode",
               "from_int", "frobenius", "trace", "embed", "in_base", "to_base",
               "element", "elements", "zero", "one", "FieldElement"},
    "polys": {"reduce_exponent"},
    "maps": {"pack_vector", "unpack_vector"},
}
REPORT_SPAN = "families.report_assembly"
REPORT_METHODS = {"__init__", "to_json"}
# per-layer stat -> index into an aggregate record [calls, total_s, self_s, elems]
STAT_INDEX = {"calls": 0, "self_s": 2, "elems": 3, "computed_bytes": 3}
ELEM_BYTES = 8  # int64 element indices


class Tracer:
    def __init__(self):
        self.agg = {}          # (name, parent) -> [calls, total_s, self_s, elems]
        self.stack = []        # [name, seconds spent in wrapped children]
        self.active = True
        self.reports_built = 0
        self.reports_disagreeing = 0
        self.span_names = set()
        self._patches = []     # (owner, attribute, original raw value)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, count_elems=False, after=None):
        self.span_names.add(name)
        agg, stack = self.agg, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if count_elems and len(args) > 1:
                    rec[3] += int(getattr(args[1], "size", 1))
            if after is not None:
                after(args)
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _count_report(self, args):
        self.reports_built += 1
        if not args[0].agree:
            self.reports_disagreeing += 1

    def _wrap_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            after = None
            if cls.__name__ == "AgreementReport" and attr in REPORT_METHODS:
                name = REPORT_SPAN
                after = self._count_report if attr == "__init__" else None
            elif attr.startswith("_") or attr in SCALAR.get(short, ()):
                continue
            elems = attr.startswith("arr_")
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(name, raw.__func__, elems))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw, elems, after)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self):
        """Wrap the traced modules' public callables (imports them first)."""
        wrapped = {}  # id(original function) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"ppf.{short}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in SCALAR.get(short, ())
                        or attr not in ONLY.get(short, {attr})
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj,
                                                        attr.startswith("arr_")))
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        # functions are imported by name across modules: rebind every reference
        for modname, mod in list(sys.modules.items()):
            if modname != "ppf" and not modname.startswith("ppf."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block are not recorded (reference checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------

    @staticmethod
    def _matches(span, metric_base):
        mod, rest = metric_base.split(".", 1)
        smod, srest = span.split(".", 1)
        return smod == mod and (srest == rest or srest.split(".", 1)[-1] == rest)

    def knows(self, metric_base):
        """Whether some wrapped callable feeds the metric `<module>.<name>`."""
        return any(self._matches(s, metric_base) for s in self.span_names)

    def layer_value(self, metric):
        """Value of a `<module>.<name>.<stat>` per-layer metric."""
        base, stat = metric.rsplit(".", 1)
        i = STAT_INDEX[stat]
        total = sum(rec[i] for (name, _), rec in self.agg.items()
                    if self._matches(name, base))
        return total * ELEM_BYTES if stat == "computed_bytes" else total

    def useful_report_ratio(self):
        """Disagreeing reports / reports built (0 when none were built)."""
        return self.reports_disagreeing / self.reports_built if self.reports_built else 0.0

    def records(self):
        return [{"name": n, "parent": p, "calls": r[0], "total_s": r[1],
                 "self_s": r[2], "elems": r[3]}
                for (n, p), r in sorted(self.agg.items(), key=lambda kv: -kv[1][2])]
