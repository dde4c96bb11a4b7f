"""Per-layer tracing from outside the program.

The tracer replaces the public functions and methods of each slvir module
(the layers) with wrappers that time a span around every call and count
work at the same boundary.  Nothing under ``src/slvir`` changes: the
wrappers are installed on the freshly imported package, after set-up, and
only for ``--trace 1`` runs.

A layer's self time is the duration of its spans minus the time covered by
spans nested inside them, both in CPU time of the thread that ran them.  Spans are aggregated as they close instead of
being kept one by one, because the scalar layer alone opens millions per
run.  Scalar operations are leaves: a Scalar operation that calls another
one (``x + 1`` coerces the 1) counts twice but is timed once.

Raw ``Fraction`` arithmetic done inside ``Module.act`` and the induced
modules' private helpers never reaches ``Scalar``, so it is self time of
``modules``; ``scalar.ops`` counts only calls that cross the ``Scalar``
boundary.
"""

from __future__ import annotations

import sys
import threading
import time

LAYERS = ("scalar", "laurent", "lie", "pbw", "modules", "induced", "linalg",
          "verify", "cli")

_SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__")

# layer -> (module, name) of functions; classes are handled in install()
_FUNCTIONS = {
    "laurent": [("slvir.laurent", "divmod_window"), ("slvir.laurent", "reduce_power")],
    "lie": [("slvir.lie", "bracket_vir"), ("slvir.lie", "classify_subalgebra_1d")],
    "pbw": [("slvir.pbw", n) for n in ("nf_multiply", "gen_times_mono", "aut_extend",
                                      "casimir_elt")],
    "modules": [("slvir.modules", "act_word"), ("slvir.modules", "act_uenv")],
    "verify": [("slvir.verify", n) for n in (
        "check_module_map", "suite_dense", "suite_restriction", "suite_tensor_vermas",
        "suite_twist_induction", "simplicity_test", "generator_test")],
    "cli": [("slvir.cli", "main")],
}

# functions whose calls are counted, and the counter each one feeds
_COUNTED = {
    "divmod_window": "laurent.calls",
    "reduce_power": "laurent.calls",
    "bracket_vir": "lie.calls",
    "classify_subalgebra_1d": "lie.calls",
    "nf_multiply": "pbw.nf_multiply.calls",
    "check_module_map": "verify.check_module_map.calls",
}


class _ThreadState:
    """Totals and open spans of one thread."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self.times = {"induced.table_build.s": 0.0, "induced.vir_act.s": 0.0}
        self.rank_max = 0
        # child-time accumulators of the open spans; [0] belongs to the caller
        self.stack = [0.0]
        self.in_scalar = False
        self.outer = {"table_build": 0, "vir_act": 0}


_COUNTERS = ("scalar.ops", "laurent.calls", "lie.calls", "pbw.nf_multiply.calls",
             "modules.act.calls", "modules.act.terms_out", "induced.table_build.calls",
             "induced.basis_keys", "linalg.insert.calls", "linalg.insert.useful",
             "verify.check_module_map.calls")


class Tracer:
    """Span totals per thread, timed in thread CPU time.

    ``slvir report`` runs its suites on a thread pool.  With the interpreter
    lock only one thread runs at a time, so wall-clock spans of concurrent
    threads would overlap and count the same time twice; CPU time of the
    thread that ran each span does not.  Each thread keeps its own totals,
    so no update is shared between threads.
    """

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._threads.append(state)
        return state

    # -- span primitives -------------------------------------------------------

    def _span(self, layer, fn, after=None, outer=None):
        """Wrap fn in a span of ``layer``; ``after(state, args, result)`` counts work.

        ``outer`` is (name, predicate, timer): an inclusive timer that only
        the outermost of nested calls satisfying the predicate adds to.
        """
        state_of, clock = self._state, time.thread_time

        def wrapper(*args, **kwargs):
            st = state_of()
            is_outer = outer is not None and st.outer[outer[0]] == 0 and outer[1](args)
            if is_outer:
                st.outer[outer[0]] += 1
            st.stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.self_s[layer] += dt - st.stack.pop()
                st.stack[-1] += dt
                if is_outer:
                    st.outer[outer[0]] -= 1
                    st.times[outer[2]] += dt
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def _scalar_op(self, fn):
        state_of, clock = self._state, time.thread_time

        def wrapper(*args):
            st = state_of()
            st.counts["scalar.ops"] += 1
            if st.in_scalar:
                return fn(*args)
            st.in_scalar = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                st.in_scalar = False
                st.self_s["scalar"] += dt
                st.stack[-1] += dt

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every layer's public surface in the imported slvir package."""
        mods = {name: sys.modules[name] for name in list(sys.modules)
                if name == "slvir" or name.startswith("slvir.")}
        def count(key):
            def after(st, args, result):
                st.counts[key] += 1
            return after

        scalar_cls = mods["slvir.scalar"].Scalar
        for op in _SCALAR_OPS:
            setattr(scalar_cls, op, self._scalar_op(getattr(scalar_cls, op)))

        for layer, entries in _FUNCTIONS.items():
            for modname, name in entries:
                original = getattr(mods[modname], name)
                key = _COUNTED.get(name)
                wrapped = self._span(layer, original, count(key) if key else None)
                # rebind every module-level reference, so internal calls go through it
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

        lie, modules = mods["slvir.lie"], mods["slvir.modules"]
        induced, linalg = mods["slvir.induced"], mods["slvir.linalg"]
        lie.Automorphism.apply = self._span("lie", lie.Automorphism.apply,
                                            count("lie.calls"))

        vir_poly, vir_elt = induced.VirPolyModule, lie.VirElt

        def after_act(st, args, result):
            st.counts["modules.act.calls"] += 1
            st.counts["modules.act.terms_out"] += len(result.terms)

        modules.Module.act = self._span(
            "modules", modules.Module.act, after_act,
            outer=("vir_act",
                   lambda a: isinstance(a[0], vir_poly) and isinstance(a[1], vir_elt),
                   "induced.vir_act.s"))
        for op in ("__add__", "__sub__", "scale", "__eq__"):
            setattr(modules.ModVec, op, self._span("modules", getattr(modules.ModVec, op)))

        def after_build(st, args, result):
            module = args[0]
            if st.outer["table_build"] == 0:
                st.counts["induced.table_build.calls"] += 1
                st.counts["induced.basis_keys"] += len(module.basis_keys(module.depth))

        build_outer = ("table_build", lambda a: True, "induced.table_build.s")
        for cls in (induced.InducedModule, induced.VirPolyModule):
            cls.__init__ = self._span("induced", cls.__init__, after_build, build_outer)

        def after_insert(st, args, result):
            st.counts["linalg.insert.calls"] += 1
            st.counts["linalg.insert.useful"] += bool(result)
            st.rank_max = max(st.rank_max, args[0].rank)

        linalg.Echelon.insert = self._span("linalg", linalg.Echelon.insert, after_insert)
        for name in ("reduce", "contains", "reduction_table"):
            setattr(linalg.Echelon, name, self._span("linalg", getattr(linalg.Echelon, name)))

    # -- reading ---------------------------------------------------------------------

    def snapshot(self):
        """Totals over all threads so far, for differencing around each check.

        Returns (self_s, counts, times, covered): covered is the time of the
        outermost spans of every thread, the part of a check that some
        layer accounts for.
        """
        self_s = dict.fromkeys(LAYERS, 0.0)
        counts = dict.fromkeys(_COUNTERS, 0)
        times = {"induced.table_build.s": 0.0, "induced.vir_act.s": 0.0}
        covered = 0.0
        for st in list(self._threads):
            for total, mine in ((self_s, st.self_s), (counts, st.counts), (times, st.times)):
                for key, value in mine.items():
                    total[key] += value
            covered += st.stack[0]
        return self_s, counts, times, covered

    @property
    def rank_max(self) -> int:
        return max((st.rank_max for st in self._threads), default=0)
