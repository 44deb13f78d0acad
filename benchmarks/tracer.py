"""Per-layer call counts and self times for plexcount, from outside the package.

The package's modules call each other through module globals (for example
``cycle_index`` calls its own imported ``power_cycle_type``), so a wrapper is
installed under every name, in every loaded ``plexcount`` module, that is
bound to the wrapped function.  ``IntPolynomial.__mul__`` is replaced on the
class.  A target that cannot be found is listed in ``Tracer.missing``, which
must be empty: a renamed function would otherwise read as an idle layer.
``Tracer.remove`` puts every original back and counts any wrapper that is
still reachable, which must be zero.

Self time is a call's duration minus the time spent in wrapped calls made
from inside it, so the self times of one pass add up to the time spent in
wrapped code without counting anything twice.
"""

from __future__ import annotations

import inspect
import sys
from math import comb, factorial
from time import perf_counter

# (module, function) pairs whose calls and self times are recorded.
TARGETS = (
    ("partitions", "partitions_of"),
    ("partitions", "power_cycle_type"),
    ("partitions", "permutation_count"),
    ("cycle_index", "fixed_subset_count"),
    ("cycle_index", "induced_cycle_type"),
    ("cycle_index", "subset_action_terms"),
    ("cycle_index", "cycle_index_subset_action"),
    ("counting", "substitute"),
    ("counting", "plex_count"),
    ("oracle", "exhaustive_plex_histogram"),
    ("oracle", "burnside_polynomial"),
    ("oracle", "induce_on_subsets"),
    ("verify", "check_counts"),
    ("verify", "check_formulas"),
    ("verify", "check_oracle"),
    ("golden", "load_golden"),
    ("cli", "main"),
)

_MARK = "_plexcount_bench_wrapper"


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "plexcount" or name.startswith("plexcount."))]


class Tracer:
    """Wraps the layer functions of the loaded plexcount modules until removed."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # layer name -> [calls, self seconds]
        self.counts: dict[str, int] = {}   # work counters filled by the after-hooks
        self._children = [0.0]             # wrapped time inside each open call
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []       # targets that could not be found
        self._cached = None                # the lru_cache'd partitions_of, unwrapped
        self._cache_before = None

    def _wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat[0] += 1
                stat[1] += perf_counter() - start - children.pop()
            if after is not None:
                after(args, result)
            # The caller's self time excludes this call and its bookkeeping.
            children[-1] += perf_counter() - start
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> None:
        """Wrap every target; all of plexcount's layer modules must be imported."""
        hooks = {
            "cycle_index.subset_action_terms":
                lambda args, result: self._count("cycle_index.subset_action_terms.terms",
                                                 len(result)),
            "cycle_index.cycle_index_subset_action":
                lambda args, result: self._count(
                    "cycle_index.cycle_index_subset_action.terms", len(result.terms)),
            "oracle.exhaustive_plex_histogram": self._after_exhaustive,
        }
        for module_name, function_name in TARGETS:
            module = sys.modules.get(f"plexcount.{module_name}")
            original = getattr(module, function_name, None)
            name = f"{module_name}.{function_name}"
            if original is None:
                self.missing.append(name)
                continue
            if name == "partitions.partitions_of" and hasattr(original, "cache_info"):
                self._cached = original
                self._cache_before = original.cache_info()
            self._patch_everywhere(original, self._wrap(name, original, hooks.get(name)))

        render = sys.modules.get("plexcount.render")
        namespace = vars(render) if render is not None else {}
        functions = [value for attr, value in namespace.items()
                     if inspect.isfunction(value) and value.__module__ == "plexcount.render"
                     and not attr.startswith("_")]
        if not functions:
            self.missing.append("render")
        for function in functions:
            self._patch_everywhere(function, self._wrap("render", function))

        cls = getattr(sys.modules.get("plexcount.counting"), "IntPolynomial", None)
        original = vars(cls).get("__mul__") if cls is not None else None
        if original is None:
            self.missing.append("counting.poly_mul")
        else:
            self._patches.append((cls, "__mul__", original))
            cls.__mul__ = self._wrap("counting.poly_mul", original, self._after_mul)

    def _after_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        self._count("counting.poly_mul.coeff_products", len(a.coeffs) * len(b.coeffs))
        bits = max(map(int.bit_length, result.coeffs), default=0)
        if bits > self.counts.get("counting.max_coeff_bits", 0):
            self.counts["counting.max_coeff_bits"] = bits

    def _after_exhaustive(self, args, result) -> None:
        p, n = args[0], args[1]
        self._count("oracle.mask_images", 2 ** comb(p, n + 1) * (factorial(p) - 1))

    def remove(self) -> int:
        """Restore every original; return the number of wrappers still reachable."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        left = 0
        for module in _package_modules():
            left += sum(1 for value in vars(module).values() if getattr(value, _MARK, False))
        counting = sys.modules.get("plexcount.counting")
        if counting is not None:
            left += sum(1 for value in vars(counting.IntPolynomial).values()
                        if getattr(value, _MARK, False))
        return left

    def metrics(self) -> dict[str, float]:
        """Flat {metric name: value} for this process; absent layers are left out."""
        out: dict[str, float] = dict(self.counts)
        for name, (calls, seconds) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = seconds
        if self._cached is not None:
            after = self._cached.cache_info()
            out["partitions.partitions_of.cache_hits"] = after.hits - self._cache_before.hits
            out["partitions.partitions_of.cache_misses"] = (after.misses
                                                            - self._cache_before.misses)
        return out
