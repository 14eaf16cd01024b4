"""Per-layer spans recorded from outside the library.

The tracer replaces chosen public functions of ``torsiontraj`` modules
with timing wrappers.  A function imported by name into another module
(``from .intmat import snf``) is a second reference to the same object,
so the tracer rebinds every reference it finds in every loaded
``torsiontraj`` module; otherwise calls through those names would skip
the wrapper.  ``uninstall`` puts the original objects back.

A span's self time is its duration minus the time covered by the spans
it opened, so the self times of nested spans add up to the outermost
span.  Size observers run after a span has ended and are charged to no
span.
"""

import importlib
import sys
import time
from collections import Counter


def _snf_bits(decomp):
    return max(abs(x).bit_length()
               for m in (decomp.u, decomp.d, decomp.v) for row in m.to_lists() for x in row)


def _den_bits(ratmatrix):
    return max(x.denominator.bit_length() for row in ratmatrix.to_lists() for x in row)


def _order_bits(group):
    return max((d.bit_length() for d in group.invariant_factors), default=0)


# (metric prefix, module, attribute path, size counter name, size observer)
LAYERS = (
    ("intmat.snf", "torsiontraj.intmat", "snf", "max_bits", _snf_bits),
    ("intmat.det", "torsiontraj.intmat", "det", None, None),
    ("intmat.rat_inverse", "torsiontraj.intmat", "rat_inverse", "max_den_bits", _den_bits),
    ("intmat.char_poly", "torsiontraj.intmat", "char_poly", None, None),
    ("intmat.kernel_basis", "torsiontraj.intmat", "kernel_basis", None, None),
    ("intmat.matmul", "torsiontraj.intmat", "IntMatrix.__matmul__", None, None),
    ("abgroup.group_from_cokernel", "torsiontraj.abgroup", "group_from_cokernel", None, None),
    ("abgroup.from_orders", "torsiontraj.abgroup", "FGAbGroup.from_orders",
     "max_order_bits", _order_bits),
    ("abgroup.hom_analyze", "torsiontraj.abgroup", "hom_analyze", None, None),
    ("lattice.discriminant_package", "torsiontraj.lattice", "discriminant_package", None, None),
    ("lattice.forms_isomorphic", "torsiontraj.lattice", "forms_isomorphic", None, None),
    ("links.link_profile", "torsiontraj.links", "link_profile", None, None),
    ("monodromy.coxeter_element", "torsiontraj.monodromy", "coxeter_element", None, None),
    ("monodromy.variation_cokernel", "torsiontraj.monodromy", "variation_cokernel", None, None),
    ("bockstein.shadow", "torsiontraj.bockstein", "shadow", None, None),
    ("products.product_profile", "torsiontraj.products", "product_profile", None, None),
    ("trajectory.trajectory_row", "torsiontraj.trajectory", "trajectory_row", None, None),
    ("trajectory.realization_crosscheck", "torsiontraj.trajectory", "realization_crosscheck",
     None, None),
    ("trajectory.transport_kernel", "torsiontraj.trajectory", "transport_kernel", None, None),
    ("serialize.row_to_json", "torsiontraj.serialize", "row_to_json", None, None),
    ("serialize.to_json_text", "torsiontraj.serialize", "to_json_text", None, None),
    ("serialize.markdown_table", "torsiontraj.serialize", "markdown_table", None, None),
    ("cli.run", "torsiontraj.cli", "run", None, None),
)

LAYER_NAMES = tuple(layer[0] for layer in LAYERS)
SIZE_NAMES = tuple(f"{layer[0]}.{layer[3]}" for layer in LAYERS if layer[3])


class Tracer:
    """Counts calls, self time and size maxima of wrapped functions."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = Counter()
        self.self_ns = Counter()
        self.sizes = {}
        self._open = []  # time covered by the children of each open span
        self._restore = []

    def wrap(self, name, fn, size_name=None, observe=None):
        """A wrapper that records one span named ``name`` per call of ``fn``."""
        clock, open_spans = self.clock, self._open

        def traced(*args, **kwargs):
            start = clock()
            open_spans.append(0)
            end = None
            try:
                result = fn(*args, **kwargs)
                end = clock()
                if observe is not None:
                    key = f"{name}.{size_name}"
                    self.sizes[key] = max(self.sizes.get(key, 0), observe(result))
                return result
            finally:
                children = open_spans.pop()
                stop = clock()
                if end is None:
                    end = stop
                self.calls[name] += 1
                self.self_ns[name] += end - start - children
                if open_spans:
                    open_spans[-1] += stop - start

        traced.__wrapped__ = fn
        return traced

    def install(self, layers=LAYERS):
        """Wrap every listed function wherever a torsiontraj module names it."""
        for layer in layers:
            importlib.import_module(layer[1])
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "torsiontraj" or key.startswith("torsiontraj."))]
        for name, module_name, path, size_name, observe in layers:
            home = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, size_name, observe))
                else:
                    new = self.wrap(name, raw, size_name, observe)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(home, path)
            traced = self.wrap(name, original, size_name, observe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self):
        """Plain-data totals, for merging traces from several processes."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns), "sizes": dict(self.sizes)}

    def merge(self, snapshot):
        self.calls.update(snapshot["calls"])
        self.self_ns.update(snapshot["self_ns"])
        for key, value in snapshot["sizes"].items():
            self.sizes[key] = max(self.sizes.get(key, 0), value)

    def layer_metrics(self, passes):
        """Calls and self milliseconds per pass, and size maxima, for every layer."""
        metrics = {}
        for name in LAYER_NAMES:
            metrics[f"{name}.calls"] = (self.calls[name] / passes, "count")
            metrics[f"{name}.self_ms"] = (self.self_ns[name] / passes / 1e6, "ms")
        for key in SIZE_NAMES:
            metrics[key] = (self.sizes.get(key, 0), "bits")
        return metrics
