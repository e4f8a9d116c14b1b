"""Per-layer spans around qtalg's public functions and methods, from outside.

``Tracer.install()`` wraps every public function, method (dunders
included), classmethod, staticmethod and property defined in a layer
module, and rebinds each wrapped function under every name any qtalg
module holds it by (so ``dl_operator`` is wrapped inside ``spherical`` and
``acceptance`` too).  ``uninstall()`` puts every original object back.

A span opens when a wrapped callable is entered and closes when it
returns or raises.  It knows its name, layer, start, end, parent span and
task; instead of storing each one (a heavy task opens millions), spans are
folded as they close into per-function call counts and self time, where
self time is the span's duration minus the time covered by its child
spans; each task's share of self time is kept per layer.  Counts at a few
boundaries give the layer ratios (cancellation, factor reduction, product
support).
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from time import perf_counter

LAYERS = (
    "scalars",
    "linalg",
    "rootdata",
    "qtorus",
    "torusfn",
    "daha",
    "spherical",
    "mlambda",
    "loopjordan",
    "clifford",
)

# Object-protocol hooks that are not calls into the layer's algebra.
_SKIP = {
    "__getattribute__",
    "__getattr__",
    "__setattr__",
    "__delattr__",
    "__init_subclass__",
    "__subclasshook__",
    "__class_getitem__",
    "__new__",
    "__del__",
}


def _public(name: str) -> bool:
    if name in _SKIP:
        return False
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _terms(poly) -> int:
    return len(poly.terms)


class Tracer:
    """Installs spans on the qtalg package and aggregates them."""

    def __init__(self):
        self.active = False
        self._stack: list[list] = []
        self._task: tuple[str, dict] | None = None
        self.by_task: dict[str, dict[str, float]] = {}  # task key -> layer -> self s
        self._patches: list[tuple] = []
        self._stats: dict[tuple[str, str], list] = {}
        self.counters = dict.fromkeys(
            (
                "scalar_inits",
                "scalar_den_terms",
                "scalar_multi_den_in",
                "scalar_multi_den_shorter",
                "torusfn_reducing_inits",
                "torusfn_factors_in",
                "torusfn_factors_kept",
                "daha_products",
                "daha_product_terms",
            ),
            0,
        )

    # -- installation --------------------------------------------------------

    @staticmethod
    def modules():
        import qtalg

        names = [m.name for m in pkgutil.iter_modules(qtalg.__path__)]
        return [importlib.import_module(f"qtalg.{n}") for n in sorted(names)]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple] = {}  # id(original function) -> (original, wrapper)
        modules = self.modules()
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif inspect.isclass(obj):
                    self._patch_class(obj, layer)
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, obj, hit[1])

    def _patch_class(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if not _public(name):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, label))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, layer, label))
            elif isinstance(raw, property):
                if raw.fget is None:
                    continue
                new = property(
                    self._wrap(raw.fget, layer, label), raw.fset, raw.fdel, raw.__doc__
                )
            elif inspect.isfunction(raw):
                new = self._wrap(raw, layer, label)
            else:
                continue
            self._set(cls, name, raw, new)

    def _set(self, owner, name: str, original, new) -> None:
        setattr(owner, name, new)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self.active = False

    # -- spans -------------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        stack = self._stack
        stats = self._stats.setdefault((layer, name), [0, 0.0, 0])
        hook = _HOOKS.get(name)
        in_scalars = layer == "scalars"

        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            # frame: [child seconds, nearest non-scalars layer at or above]
            if in_scalars:
                ctx = parent[1] if parent is not None else None
                if ctx == "torusfn":
                    stats[2] += 1
            else:
                ctx = layer
            frame = [0.0, ctx]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    # -- results -------------------------------------------------------------------

    def _layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), s in self._stats.items():
            out[layer] += s[1]
        return out

    def begin_task(self, key: str) -> None:
        """Spans from here to end_task() belong to the task `key`."""
        self._task = (key, self._layer_self())
        self.active = True

    def end_task(self) -> None:
        self.active = False
        key, before = self._task
        row = self.by_task.setdefault(key, dict.fromkeys(LAYERS, 0.0))
        for layer, total in self._layer_self().items():
            row[layer] += total - before[layer]
        self._task = None

    def by_function(self) -> list[tuple[str, str, int, float]]:
        rows = [(layer, name, s[0], s[1]) for (layer, name), s in self._stats.items() if s[0]]
        return sorted(rows, key=lambda r: -r[3])

    def layer_metrics(self) -> dict[str, float]:
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        under_torusfn = 0
        for (layer, _), (n, s, torus_calls) in self._stats.items():
            calls[layer] += n
            self_s[layer] += s
            under_torusfn += torus_calls
        c = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["scalars.cancel_hit_ratio"] = _ratio(
            c["scalar_multi_den_shorter"], c["scalar_multi_den_in"]
        )
        out["scalars.den_terms_mean"] = _ratio(c["scalar_den_terms"], c["scalar_inits"])
        out["torusfn.scalar_calls"] = under_torusfn
        out["torusfn.factors_in"] = c["torusfn_factors_in"]
        out["torusfn.factor_cancel_ratio"] = _ratio(
            c["torusfn_factors_in"] - c["torusfn_factors_kept"], c["torusfn_factors_in"]
        )
        out["torusfn.factors_mean"] = _ratio(
            c["torusfn_factors_kept"], c["torusfn_reducing_inits"]
        )
        out["daha.terms_mean"] = _ratio(c["daha_product_terms"], c["daha_products"])
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- counting hooks at layer boundaries (run after the call returns) -------------


def _scalar_init(counters, args, kwargs, _result) -> None:
    self = args[0]
    den = args[2] if len(args) > 2 else kwargs.get("den")
    den_in = _terms(den) if den is not None else 1
    den_out = _terms(self.den)
    counters["scalar_inits"] += 1
    counters["scalar_den_terms"] += den_out
    if den_in > 1:
        counters["scalar_multi_den_in"] += 1
        if den_out < den_in:
            counters["scalar_multi_den_shorter"] += 1


def _torus_init(counters, args, kwargs, _result) -> None:
    factors = args[3] if len(args) > 3 else kwargs.get("factors", ())
    reduce = args[4] if len(args) > 4 else kwargs.get("reduce", True)
    if reduce and factors:
        counters["torusfn_reducing_inits"] += 1
        counters["torusfn_factors_in"] += len(factors)
        counters["torusfn_factors_kept"] += len(args[0].factors)


def _daha_mul(counters, _args, _kwargs, result) -> None:
    if result is not NotImplemented:
        counters["daha_products"] += 1
        counters["daha_product_terms"] += len(result.terms)


_HOOKS = {
    "Scalar.__init__": _scalar_init,
    "TorusFraction.__init__": _torus_init,
    "DiffRefOperator.__mul__": _daha_mul,
}
