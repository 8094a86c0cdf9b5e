"""Run one omlkit CLI command with timers around each layer's public functions.

    PYTHONPATH=src python3 perfbench/launch.py TRACE.json <omlkit arguments>

Behaves like the ``omlkit`` console script (same arguments, output and exit
status) and, when the command ends, writes TRACE.json with per-function call
counts, total and self time, and a few work counters.  Self time is total
time minus the time of nested traced calls.  The timers are installed from
here, so nothing in omlkit changes:

- functions imported by name (``from .lattice import check_oml``) are
  rebound in every omlkit module namespace that holds them;
- ``suite.CRITERIA`` is rebuilt from the wrapped criteria;
- ``states`` calls the LP through the module attribute ``simplex.maximize``,
  which the rebinding covers.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

#: The traced public functions, by module.
TRACED = {
    "cli": ("main",),
    "structfile": ("parse_structure", "serialize_structure", "to_oml_input",
                   "to_rlse", "to_events", "from_oml", "from_rlse"),
    "lattice": ("build_poset", "lattice_tables", "check_oml", "direct_product",
                "is_distributive"),
    "rlse": ("check_rlse", "rlse_from_oml", "derived_lattice",
             "check_derived_identities", "check_r4_orthogonal_form",
             "check_correspondence", "is_boolean_ring", "check_r5"),
    "terms": ("enumerate_canonical_terms", "filter_symmetric_difference_terms",
              "chain_check", "term_function"),
    "states": ("check_state", "find_full_state_set", "check_full",
               "events_from_states", "check_s_probability_algebra",
               "boolean_test"),
    "simplex": ("maximize",),
    "suite": tuple(f"criterion_{i}" for i in range(1, 10)) + ("run_all",),
    "corpus": ("builtin",),
}


class Tracer:
    """Per-function [calls, total_s, self_s] plus work counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.counters = {"simplex.lp_rows": 0, "simplex.lp_cols": 0,
                         "states.states_found": 0}
        self._children = []  # time spent in traced callees, one slot per open span

    def wrap(self, name, fn, after=None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children

        @wraps(fn)
        def traced(*args, **kwargs):
            rec[0] += 1
            children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                inner = children.pop()
                rec[1] += spent
                rec[2] += spent - inner
                if children:
                    children[-1] += spent
            if after is not None:
                after(args, result)
            return result

        return traced

    def _lp(self, args, result):
        c, rows = args[0], args[1]
        self.counters["simplex.lp_rows"] = max(self.counters["simplex.lp_rows"], len(rows))
        self.counters["simplex.lp_cols"] = max(self.counters["simplex.lp_cols"], len(c))

    def _found(self, args, result):
        if result.states is not None:
            self.counters["states.states_found"] += len(result.states)

    def install(self):
        """Wrap every TRACED function wherever an omlkit module holds it."""
        from omlkit import suite

        after = {"simplex.maximize": self._lp,
                 "states.find_full_state_set": self._found}
        modules = [m for name, m in sys.modules.items()
                   if name == "omlkit" or name.startswith("omlkit.")]
        originals = {}
        for mod_name, names in TRACED.items():
            mod = sys.modules[f"omlkit.{mod_name}"]
            for fname in names:
                original = getattr(mod, fname)
                qual = f"{mod_name}.{fname}"
                originals[qual] = original
                wrapper = self.wrap(qual, original, after.get(qual))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        suite.CRITERIA = tuple(getattr(suite, fn.__name__) for fn in suite.CRITERIA)
        return originals


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import omlkit.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    originals = tracer.install()
    code = 1
    try:
        code = omlkit.cli.main(cli_args)
    finally:
        tracer.counters["rlse.check_rlse.cache_hits"] = \
            originals["rlse.check_rlse"].cache_info().hits
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "stats": tracer.stats,
                       "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
