"""Spans around goursat's public functions, installed from the benchmark's files.

``Tracer.install`` replaces each listed function by a wrapper in every
namespace that bound the original: the defining module, every other
goursat module that imported it with ``from .x import f``, and the
benchmark modules passed in.  A wrapper records one span (name, start,
end, parent) in memory while the tracer is active; ``summary`` turns the
spans into per-layer call counts, self times and derived counts, and
``write_spans`` stores them when the pass ends.
"""

import sys
import time

TARGETS = {
    "relations": ("congruence_generated", "con_lattice", "join", "require_congruence",
                  "direct_image", "inverse_image"),
    "algebras": ("quotient", "product", "subalgebra", "all_subuniverses",
                 "load_algebra", "save_algebra"),
    "closure": ("birkhoff_congruence", "closure_effective", "closure_goursat", "check_axioms"),
    "distributivity": ("is_distributive", "image_meet_check", "check_axiom7", "dist_report"),
    "permutability": ("permutability_level", "goursat_join_check", "find_maltsev_term",
                      "find_hm_terms"),
    "terms": ("satisfies_identity", "parse_identity"),
    "corpus": ("builtin",),
    "cli": ("main",),
}

LAYER_FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

DERIVED_UNITS = {
    "relations.con_lattice.distinct_frac": "ratio",
    "algebras.quotient.distinct_frac": "ratio",
    "relations.congruence_generated.per_congruence": "count",
    "closure.birkhoff_congruence.rounds": "count",
    "permutability.tables_explored": "count",
    "permutability.table_bytes": "bytes",
    "permutability.tables_per_s": "1/s",
}

_SEARCHES = ("permutability.find_maltsev_term", "permutability.find_hm_terms")

# What a span keeps of its call for the derived counts.  Keys are computed
# at the end, so that hashing tables does not add to any span.
_CAPTURE = {
    "relations.con_lattice": lambda args, result: (args[0], len(result)),
    "algebras.quotient": lambda args, result: (args[0], args[1]),
    "permutability.find_maltsev_term": lambda args, result: (args[0].n, result.explored),
    "permutability.find_hm_terms": lambda args, result: (args[0].n, result.explored),
}

NAME, START, END, PARENT, DATA = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.absent = []

    def install(self, extra_modules=()):
        """Wrap every target; a target the package no longer defines is noted as absent."""
        modules = [m for name, m in sys.modules.items()
                   if name == "goursat" or name.startswith("goursat.")]
        modules += list(extra_modules)
        for name in LAYER_FUNCTIONS:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"goursat.{mod_name}"), fn_name, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        capture = _CAPTURE.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if capture is not None:
                span[DATA] = capture(args, result)
            return result

        return wrapper

    def summary(self):
        """Per-layer ``.calls`` and ``.self_s`` for every target, and the derived counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i, span in enumerate(spans):
            out[f"{span[NAME]}.calls"] += 1
            out[f"{span[NAME]}.self_s"] += span[END] - span[START] - child_time[i]

        lattices = [s[DATA] for s in spans if s[NAME] == "relations.con_lattice"]
        quotients = [s[DATA] for s in spans if s[NAME] == "algebras.quotient"]
        out["relations.con_lattice.distinct_frac"] = _distinct_frac(
            [alg.structure_key() for alg, _ in lattices])
        out["algebras.quotient.distinct_frac"] = _distinct_frac(
            [(alg.structure_key(), theta.blocks) for alg, theta in quotients])

        # congruence_generated calls under each con_lattice call that did
        # work, over the congruences those calls found.
        under = {}
        for span in spans:
            if span[NAME] == "relations.congruence_generated":
                anc = _ancestor(spans, span, "relations.con_lattice")
                if anc is not None:
                    under[anc] = under.get(anc, 0) + 1
        found = sum(spans[i][DATA][1] for i in under)
        out["relations.congruence_generated.per_congruence"] = (
            sum(under.values()) / found if found else 0.0)

        # quotient calls made directly by each birkhoff call that did work
        rounds = {}
        for span in spans:
            parent = span[PARENT]
            if (span[NAME] == "algebras.quotient" and parent >= 0
                    and spans[parent][NAME] == "closure.birkhoff_congruence"):
                rounds[parent] = rounds.get(parent, 0) + 1
        out["closure.birkhoff_congruence.rounds"] = (
            sum(rounds.values()) / len(rounds) if rounds else 0.0)

        searches = [s for s in spans if s[NAME] in _SEARCHES]
        explored = sum(s[DATA][1] for s in searches)
        busy = sum(s[END] - s[START] for s in searches)
        out["permutability.tables_explored"] = explored
        out["permutability.table_bytes"] = sum(s[DATA][1] * s[DATA][0] ** 3 for s in searches)
        out["permutability.tables_per_s"] = explored / busy if busy else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, span in enumerate(self.spans):
                fh.write(f"{i},{span[NAME]},{span[START]:.9f},{span[END]:.9f},{span[PARENT]}\n")


def _distinct_frac(keys):
    return len(set(keys)) / len(keys) if keys else 0.0


def _ancestor(spans, span, name):
    """Index of the nearest enclosing span with this name, or None."""
    i = span[PARENT]
    while i >= 0:
        if spans[i][NAME] == name:
            return i
        i = spans[i][PARENT]
    return None
