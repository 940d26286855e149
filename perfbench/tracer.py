"""Outside-in tracer for the sbw layers.

The benchmark wraps public functions of each layer from outside the
program: nothing under src/ knows it is traced.  Modules bind names with
``from .sections import star``, so every sbw module namespace that holds a
wrapped function object gets the wrapper.  ``Subgroup`` is traced by
patching ``Subgroup.__init__`` on the class, so ``isinstance`` still holds.

Millions of calls are made per workload, so spans are not kept one by one:
they are aggregated in memory by (name, parent name) as call count, total
seconds and self seconds, and handed out once at the end.  Self time is a
span's duration minus the spans of wrapped functions it called.
"""

import functools
import sys
import time

# layer -> public functions traced in it; "Subgroup" means its constructor
TRACED = {
    "groups": ("Subgroup", "isomorphisms", "subgroup_lattice",
               "double_cosets"),
    "sections": ("star", "conj_left", "canonical_section", "subgroup_parts",
                 "constrained_sections", "enumerate_sections"),
    "gamma": ("compose_classes", "compose"),
    "posets": ("f_idempotent", "build_poset"),
    "crossed": ("iso_search", "link_section", "aut_out"),
    "classify": ("rational_rank", "gamma_group", "covering_basis",
                 "reduced_status", "transport_check"),
    "jsonio": ("dumps",),
}

ROOT = "workload"


class Tracer:
    """Aggregated spans and argument-derived counters of one traced pass."""

    def __init__(self):
        self.spans = {}           # (name, parent) -> [calls, seconds, self seconds]
        self.outer = {}           # name -> seconds of outermost activations
        self.depth = {}           # name -> active activations
        self.stack = [[ROOT, 0.0]]
        self.pairs = set()        # compose_classes argument keys seen
        self.rows = 0             # vectors handed to rational_rank
        self.dumped_bytes = 0     # bytes returned by jsonio.dumps

    def wrap(self, name, fn):
        spans, outer, depth, stack = (self.spans, self.outer, self.depth,
                                      self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[1]
                depth[name] -= 1
                if not depth[name]:
                    outer[name] = outer.get(name, 0.0) + dt

        return functools.wraps(fn)(traced)

    def _counted(self, name, fn):
        """Wrappers that derive counters from arguments and results only."""
        if name == "gamma.compose_classes":
            pairs = self.pairs

            def compose_classes(a, b):
                pairs.add((a, b))
                return fn(a, b)
            return functools.wraps(fn)(compose_classes)
        if name == "classify.rational_rank":
            def rational_rank(vectors):
                if not isinstance(vectors, (list, tuple)):
                    vectors = list(vectors)
                self.rows += len(vectors)
                return fn(vectors)
            return functools.wraps(fn)(rational_rank)
        if name == "jsonio.dumps":
            def dumps(obj):
                out = fn(obj)
                self.dumped_bytes += len(out.encode("utf-8"))
                return out
            return functools.wraps(fn)(dumps)
        return fn

    def install(self):
        """Rebind every traced function in every loaded sbw module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sbw" or n.startswith("sbw.")]
        for layer, names in TRACED.items():
            mod = sys.modules["sbw." + layer]
            for fname in names:
                name = f"{layer}.{fname}"
                if fname == "Subgroup":
                    mod.Subgroup.__init__ = self.wrap(
                        name, mod.Subgroup.__init__)
                    continue
                original = getattr(mod, fname)
                wrapper = self.wrap(name, self._counted(name, original))
                bound = 0
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{name} is bound in no sbw module")

    def table(self):
        """Spans as rows [name, parent, calls, seconds, self seconds]."""
        return [[n, p, c, t, s] for (n, p), (c, t, s) in sorted(
            self.spans.items())]

    def per_function(self):
        """name -> (calls, total seconds, self seconds) over all parents."""
        out = {}
        for (name, _), (calls, _, self_s) in self.spans.items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + self_s)
        return {name: (c, self.outer.get(name, 0.0), s)
                for name, (c, s) in out.items()}
