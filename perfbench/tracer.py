"""Span tracer that wraps the public functions of every `stratal` module.

`Tracer.install()` replaces each binding of a wrapped function wherever it
lives in `stratal.*`: the defining module, every module that copied it with
`from .x import f`, module-level dicts such as `verify.SUITES`, and the
package namespace. Selected methods are patched on their class. `uninstall()`
puts every original back; `leftover_wrappers()` proves that it did.

Spans stay in memory as lists `[name, start, end, parent, op, counts, nested]`
and are aggregated by `layer_metrics()` or written out by the caller.
"""

import functools
import importlib
import inspect
import pkgutil
import time

# Per-element helpers called once per column or entry inside the kernels; a
# span around each would cost more than the work it measures.
EXCLUDED = {
    "linalg.col_primitive",
    "linalg.dot",
    "perversity.bracket",
    "rationals.format_rational",
    "rationals.parse_rational",
}

# Methods patched on their class; accessors called per simplex are left alone.
METHODS = {
    "complexes.FilteredComplex": ("betti",),
    "intersection.StratifiedChainComplex": ("__init__", "homology"),
}

CHAIN_BUILD = "intersection.StratifiedChainComplex.__init__"
CONSTRUCTORS = ("load", "build", "cone", "suspension", "barycentric_subdivide")


def _nnz(cols):
    return sum(len(c) for c in cols)


def _linalg_hooks():
    return {
        "linalg.rank": lambda a, kw, r: {
            "cols_in": len(a[0]), "nnz_in": _nnz(a[0]), "rank_out": r},
        "linalg.kernel": lambda a, kw, r: {
            "cols_in": len(a[0]), "nnz_in": _nnz(a[0]), "dim_out": len(r)},
        "linalg.rcef": lambda a, kw, r: {
            "cols_in": len(a[0]), "nnz_in": _nnz(a[0]), "dim_out": len(r)},
        "linalg.combine_columns": lambda a, kw, r: {
            "cols_in": len(a[1]), "nnz_in": _nnz(a[1]), "nnz_out": _nnz(r)},
        "linalg.project_onto_span": lambda a, kw, r: {
            "cols_in": len(a[1]), "nnz_in": _nnz(a[1]), "nnz_out": len(r)},
        "linalg.solve_square": lambda a, kw, r: {
            "cols_in": a[2], "nnz_in": _nnz(a[0]), "nnz_out": len(r)},
    }


def _suite_checks(args, kwargs, report):
    return {"checks": len(report.checks)}


def stratal_modules():
    import stratal

    mods = [stratal]
    for info in pkgutil.iter_modules(stratal.__path__):
        mods.append(importlib.import_module(f"stratal.{info.name}"))
    return mods


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Owns the spans of one traced process and the patches that feed them."""

    def __init__(self):
        self.spans = []
        self.cli_runs = []
        self.op = None
        self._stack = []
        self._active = {}
        self._restore = []
        self._complexes = {}
        self._hooks = _linalg_hooks()
        self._hooks[CHAIN_BUILD] = self._chain_build_counts
        for name in CONSTRUCTORS:
            self._hooks[f"complexes.{name}"] = lambda a, kw, r: {
                "simplices": sum(r.counts())}

    # ------------------------------------------------------------- patching

    def _chain_build_counts(self, args, kwargs, result):
        chains, K = args[0], args[1]
        cold = id(K) not in self._complexes
        if cold:
            # holding K keeps its id from being reused by a later complex
            self._complexes[id(K)] = (len(self._complexes), K)
        seq = self._complexes[id(K)][0]
        allow = chains.allowable_indices
        return {
            "cold": int(cold),
            "degrees": len(allow),
            "allowable": sum(len(a) for a in allow),
            "regular": sum(len(r) for r in chains.reg),
            "patterns": [(seq, i, hash(tuple(a))) for i, a in enumerate(allow)],
        }

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks.get(name)
        if name.startswith("verify.suite_"):
            hook = _suite_checks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            active = tracer._active
            depth = active.get(name, 0)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, depth > 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            active[name] = depth + 1
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                active[name] = depth
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        wrapper._perfbench_original = fn
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = stratal_modules()
        wrappers = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{_short(mod.__name__)}.{attr}"
                    if name not in EXCLUDED:
                        wrappers[obj] = self._wrap(name, obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._restore.append((setattr, mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]
                            self._restore.append((dict.__setitem__, obj, key, val))
        for cls_name, methods in METHODS.items():
            mod_name, cls_attr = cls_name.split(".")
            cls = getattr(importlib.import_module(f"stratal.{mod_name}"), cls_attr)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{cls_name}.{meth}", original))
                self._restore.append((setattr, cls, meth, original))

    def uninstall(self):
        while self._restore:
            setter, target, key, original = self._restore.pop()
            setter(target, key, original)

    @staticmethod
    def leftover_wrappers():
        """Bindings in stratal.* that still hold a wrapper; empty when clean."""
        found = []
        for mod in stratal_modules():
            for attr, obj in vars(mod).items():
                if hasattr(obj, "_perfbench_original"):
                    found.append(f"{mod.__name__}.{attr}")
                elif isinstance(obj, dict):
                    found += [f"{mod.__name__}.{attr}[{k!r}]" for k, v in obj.items()
                              if hasattr(v, "_perfbench_original")]
                elif inspect.isclass(obj):
                    found += [f"{mod.__name__}.{attr}.{m}" for m, v in vars(obj).items()
                              if hasattr(v, "_perfbench_original")]
        return found

    def reset(self):
        """Start a new round: drop spans, child runs and the complexes seen."""
        self.spans = []
        self.cli_runs = []
        self._complexes = {}

    def merge_child(self, command, process_s, doc):
        """Adopt the spans a traced child process wrote, under the current op.

        Pattern keys gain the child's position so that complexes of different
        processes never count as the same complex.
        """
        offset = len(self.spans)
        tag = len(self.cli_runs)
        for name, start, end, parent, _, counts, nested in doc["spans"]:
            if counts and "patterns" in counts:
                counts["patterns"] = [(tag, *key) for key in counts["patterns"]]
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               self.op, counts, nested])
        self.cli_runs.append((command, process_s, doc["import_s"], doc["main_s"]))
