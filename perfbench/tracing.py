"""Spans around the calls into each k3lattice layer, recorded from outside.

`Tracer.install` wraps every public function of the library's modules (and
the private primality and factoring helpers, grouped as the `factoring`
layer) and rebinds each name that refers to an original, including the
copies that `from .x import y` made in other modules; otherwise calls from
those modules would skip the wrappers.  The O(n) matrix helpers stay
unwrapped: a span would cost more than the call.

A span has a name, start, end, parent span and request id.  Spans are kept
in memory (the first `MAX_SPANS` of them) and written out at the end.  Calls,
self time and counters are accumulated for every span as it closes, so the
metrics cover the whole traced run whatever the cap.  A span's self time is
its duration minus the durations of its child spans.
"""

import array
import functools
import json
import sys
import types
from time import perf_counter

from workloads import double_factorial_odd

MODULES = ("cli", "_intlinalg", "lattice_core", "disc_form", "local_arith",
           "enumeration", "bb_form", "moduli_arith", "prime_density")
# metric names start with a letter, so `_intlinalg` reports as `intlinalg`
LAYER = {m: m.lstrip("_") for m in MODULES}
FACTORING = {("cli", "_prime_factors"), ("local_arith", "_is_prime"),
             ("local_arith", "_odd_prime_divisors"),
             ("moduli_arith", "_is_prime_small"),
             ("prime_density", "is_prime"),
             ("prime_density", "squarefree_part")}
UNWRAPPED = {"identity", "transpose", "mat_mul", "mat_vec", "vec_mat_vec",
             "as_vector"}
MAX_SPANS = 100_000

# Per-function metrics reported on top of each layer's calls and self time,
# by defining module; they are named <layer>.<function>.<what>.
FUNCTION_METRICS = {
    "_intlinalg": (("smith_normal_form", "calls"),
                   ("smith_normal_form", "self_s"), ("det", "calls"),
                   ("det", "self_s"), ("hermite_normal_form", "self_s"),
                   ("rational_inverse", "self_s"),
                   ("symmetric_sign_counts", "self_s")),
    "lattice_core": (("orthogonal_complement", "self_s"),
                     ("signature", "self_s")),
    "disc_form": (("discriminant_group", "self_s"),
                  ("forms_isomorphic", "calls"),
                  ("forms_isomorphic", "self_s")),
    "local_arith": (("jordan_decomposition", "self_s"),
                    ("artin_invariant", "self_s"),
                    ("pointed_invariants", "self_s")),
    "enumeration": (("vectors_of_norm", "calls"),
                    ("vectors_of_norm", "self_s")),
    "bb_form": (("symmetrized_power", "calls"),
                ("symmetrized_power", "self_s"),
                ("recover_form", "self_s")),
    "moduli_arith": (("newton_polygon", "self_s"),
                     ("mukai_perp_disc_check", "self_s")),
    "prime_density": (("sieve_primes", "self_s"), ("is_prime", "calls"),
                      ("kronecker_symbol", "calls")),
}
LAYERS = tuple(LAYER[m] for m in MODULES) + ("factoring",)
DERIVED = (("intlinalg.smith_normal_form.max_bits", "bits", "lower"),
           ("disc_form.max_group_order", "count", "lower"),
           ("enumeration.vectors_found", "count", "higher"),
           ("enumeration.vectors_per_s", "1/s", "higher"),
           ("bb_form.matchings_evaluated", "count", "lower"),
           ("bb_form.w_calls_per_recover", "count", "lower"),
           ("prime_density.primes_sieved", "count", "higher"),
           ("prime_density.is_prime_calls_per_sieved_prime", "ratio",
            "lower"),
           ("factoring.max_input_bits", "bits", "lower"),
           ("trace.wall_s", "s", "lower"),
           ("trace.self_s_share", "ratio", "higher"),
           ("trace.overhead_rps", "1/s", "higher"))


def per_layer_metrics():
    """(name, unit, better) of every metric `Tracer.metrics` reports."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.self_s", "s", "lower")]
    for mod, fns in FUNCTION_METRICS.items():
        out += [(f"{LAYER[mod]}.{fn}.{what}",
                 "count" if what == "calls" else "s", "lower")
                for fn, what in fns]
    return out + list(DERIVED)


def _max_bits(matrices):
    return max((abs(x).bit_length() for m in matrices for row in m
                for x in row), default=0)


class Tracer:
    """Wraps the library's functions; see the module docstring."""

    def __init__(self):
        self.names = []              # "<module>.<function>" per name id
        self.layers = []             # layer per name id
        self.stats = []              # per name id: [calls, self seconds]
        self.counters = {"smith_bits": 0, "group_order": 0, "vectors": 0,
                         "matchings": 0, "w_calls": 0, "sieved": 0,
                         "factoring_bits": 0}
        self.request = 0
        self.stack = []              # open spans: [span id, child seconds]
        self.next_id = 0
        self.spans = {k: array.array(t) for k, t in
                      (("id", "q"), ("name", "l"), ("start", "d"),
                       ("end", "d"), ("parent", "q"), ("request", "q"))}
        self._rebound = []           # (module, attribute, original)

    def install(self):
        wrapped = {}
        for mod in MODULES:
            module = sys.modules[f"k3lattice.{mod}"]
            for attr, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__
                        and attr not in UNWRAPPED
                        and (not attr.startswith("_")
                             or (mod, attr) in FACTORING)):
                    layer = ("factoring" if (mod, attr) in FACTORING
                             else LAYER[mod])
                    wrapped[fn] = self._wrap(fn, f"{mod}.{attr}", layer)
        for name, module in list(sys.modules.items()):
            if name == "k3lattice" or name.startswith("k3lattice."):
                for attr, value in list(vars(module).items()):
                    if isinstance(value, types.FunctionType) \
                            and value in wrapped:
                        self._rebound.append((module, attr, value))
                        setattr(module, attr, wrapped[value])

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound = []

    def _wrap(self, fn, name, layer):
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        stat = [0, 0.0]
        self.stats.append(stat)
        hook = self._hook(name, layer)
        count_w = name == "bb_form.recover_form"
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            if count_w:
                args = (self._count_w(args[0]),) + args[1:]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span_id < MAX_SPANS:
                    for key, value in (("id", span_id), ("name", name_id),
                                       ("start", start), ("end", end),
                                       ("parent", parent),
                                       ("request", self.request)):
                        spans[key].append(value)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_w(self, w):
        counters = self.counters

        def counted(vecs):
            counters["w_calls"] += 1
            return w(vecs)
        return counted

    def _hook(self, name, layer):
        c = self.counters

        def keep_max(key, value):
            if value > c[key]:
                c[key] = value

        def add(key, value):
            c[key] += value

        if layer == "factoring":
            return lambda a, r: keep_max("factoring_bits",
                                         abs(a[0]).bit_length())
        return {
            "_intlinalg.smith_normal_form":
                lambda a, r: keep_max("smith_bits", _max_bits(r)),
            "disc_form.discriminant_group":
                lambda a, r: keep_max("group_order", r.order),
            "enumeration.vectors_of_norm":
                lambda a, r: add("vectors", len(r)),
            "bb_form.symmetrized_power":
                lambda a, r: add("matchings", double_factorial_odd(a[1])),
            "prime_density.sieve_primes":
                lambda a, r: add("sieved", len(r)),
        }.get(name)

    def metrics(self, wall_s, overhead_rps):
        """Per-layer metrics over everything traced so far; ratios whose
        base is zero read 0."""
        by_fn = dict(zip(self.names, self.stats))

        def stat(name):  # a function the library no longer has reads 0
            return by_fn.get(name, (0, 0.0))

        out = {}
        for layer in LAYERS:
            mine = [s for s, l in zip(self.stats, self.layers) if l == layer]
            out[f"{layer}.calls"] = sum(calls for calls, _ in mine)
            out[f"{layer}.self_s"] = sum(self_s for _, self_s in mine)
        for mod, fns in FUNCTION_METRICS.items():
            for fn, what in fns:
                calls, self_s = stat(f"{mod}.{fn}")
                out[f"{LAYER[mod]}.{fn}.{what}"] = \
                    calls if what == "calls" else self_s
        c = self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        total_self = sum(self_s for _, self_s in self.stats)
        out.update({
            "intlinalg.smith_normal_form.max_bits": c["smith_bits"],
            "disc_form.max_group_order": c["group_order"],
            "enumeration.vectors_found": c["vectors"],
            "enumeration.vectors_per_s": ratio(
                c["vectors"], stat("enumeration.vectors_of_norm")[1]),
            "bb_form.matchings_evaluated": c["matchings"],
            "bb_form.w_calls_per_recover": ratio(
                c["w_calls"], stat("bb_form.recover_form")[0]),
            "prime_density.primes_sieved": c["sieved"],
            "prime_density.is_prime_calls_per_sieved_prime": ratio(
                stat("prime_density.is_prime")[0], c["sieved"]),
            "factoring.max_input_bits": c["factoring_bits"],
            "trace.wall_s": wall_s,
            "trace.self_s_share": ratio(total_self, wall_s),
            "trace.overhead_rps": overhead_rps,
        })
        return out

    def write(self, path):
        """Write the kept spans as JSON lines: a header with the name table
        and span counts, then one [id, name, start, end, parent, request]
        array per span."""
        s = self.spans
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names, "layers": self.layers,
                                "kept": len(s["id"]),
                                "dropped": self.next_id - len(s["id"])})
                    + "\n")
            for row in zip(s["id"], s["name"], s["start"], s["end"],
                           s["parent"], s["request"]):
                f.write(json.dumps(row) + "\n")
