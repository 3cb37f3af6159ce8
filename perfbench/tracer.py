"""Spans and counts around karalcp's public functions, wrapped from outside.

Many karalcp modules bind these functions by name (`from .matrix import
rref`), and the predicate registry holds some of them in closures, so a
wrapper replaces the original in every karalcp module namespace and in
every closure cell of a module-level function or registry entry.

A span is (name, start, end, parent span, op id); spans stay in memory in
flat arrays and are written out once, at the end.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import sys
import types
from array import array
from time import perf_counter

# module -> public functions that get a span each.
TARGETS = {
    "matrix": ("rref", "determinant", "inverse", "solve_linear", "subspace_bases",
               "full_rank_factorization"),
    "lp": ("lp_feasible", "lp_optimize"),
    "geninv": ("moore_penrose", "group_inverse"),
    "minor_classes": ("structural_flags", "minor_class"),
    "lcp_classes": ("is_p_hash", "is_semimonotone", "is_strictly_semimonotone",
                    "is_strictly_range_semimonotone", "copositivity_on_cone"),
    "lcp": ("lcp_solutions", "is_q_matrix"),
    "conelcp": ("cone_K", "cone_lcp_only_zero", "cone_lcp_solutions", "int_dual_membership",
                "is_karamardian"),
    "predicates": ("evaluate_predicate",),
    "search": ("run_search",),
}

# Functions whose calls are compared, within one op, with the earlier calls.
REPEAT_TRACKED = ("matrix.rref", "matrix.determinant", "matrix.solve_linear",
                  "matrix.subspace_bases", "lp.lp_feasible", "minor_classes.structural_flags",
                  "minor_classes.minor_class", "conelcp.is_karamardian")

# Verdict rules each cascade can return; anything else counts as "other".
RULES = {
    "lcp.is_q_matrix": (
        "NONPOSITIVE_ROW", "NONNEG_ZERO_DIAGONAL", "Z_AND_P", "Z_NOT_P", "NONNEG_POS_DIAG",
        "P_MATRIX", "N_FIRST_CATEGORY", "STRICTLY_COPOSITIVE", "KARAMARDIAN_INVERTIBLE",
        "UNSOLVABLE_Q", "Unknown", "other"),
    "conelcp.is_karamardian": (
        "K_TRIVIAL", "HOMOGENEOUS_NONZERO", "RANK_ONE", "CLASS_2X2", "NONNEG_POS_DIAG",
        "P_MATRIX", "STRICT_COPOSITIVE_ON_K", "STRICTLY_SEMIMONOTONE_NONSINGULAR",
        "SEMIMONOTONE_NONSINGULAR", "ALMOST_SEMIMONOTONE", "Z_NOT_P_NONSINGULAR",
        "N_FIRST_CATEGORY", "CANDIDATE_D", "Unknown", "other"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _freeze(x):
    """A hashable value equal for equal arguments."""
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in x.items()))
    if hasattr(x, "equalities") and hasattr(x, "nonneg"):  # lp.LinearSystem
        return ("system", x.n_vars, tuple(x.equalities), tuple(x.inequalities_ge),
                tuple(x.nonneg))
    if hasattr(x, "data") and hasattr(x, "_cache"):  # matrix.RationalMatrix
        return ("matrix", x.rows, x.cols, tuple(map(tuple, x.data)))
    return x


class Tracer:
    def __init__(self, predicate_names):
        self.names = FUNCTIONS
        self.calls = [0] * len(FUNCTIONS)
        self.repeats = [0] * len(FUNCTIONS)
        self.rules = {fn: dict.fromkeys(rules, 0) for fn, rules in RULES.items()}
        self.predicate_incl = dict.fromkeys(predicate_names, 0.0)
        self._seen: dict[int, set] = {}
        self._stack: list[int] = []
        self.op = -1
        # one entry per span
        self.span_fn = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "karalcp" or name.startswith("karalcp.")]
        wrappers = {}
        for idx, qual in enumerate(FUNCTIONS):
            mod, fn = qual.split(".")
            orig = getattr(sys.modules[f"karalcp.{mod}"], fn)
            wrappers[id(orig)] = self._wrap(orig, idx, qual)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in wrappers:
                    self._undo.append((setattr, m, attr, value))
                    setattr(m, attr, wrappers[id(value)])
                for fn in _closures(value):
                    for cell in fn.__closure__:
                        try:
                            inner = cell.cell_contents
                        except ValueError:  # empty cell
                            continue
                        if id(inner) in wrappers:
                            self._undo.append((_set_cell, cell, None, inner))
                            cell.cell_contents = wrappers[id(inner)]

    def uninstall(self) -> None:
        for setter, target, attr, value in reversed(self._undo):
            setter(target, attr, value)
        self._undo.clear()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._seen = {}

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, idx: int, qual: str):
        sig = inspect.signature(fn)
        track = qual in REPEAT_TRACKED
        rules = self.rules.get(qual)
        is_predicate = qual == "predicates.evaluate_predicate"
        stack, calls, repeats = self._stack, self.calls, self.repeats
        s_fn, s_parent, s_op = self.span_fn, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if track:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = _freeze(tuple(bound.arguments.values()))
                seen = self._seen.setdefault(idx, set())
                if key in seen:
                    repeats[idx] += 1
                else:
                    seen.add(key)
            sid = len(s_fn)
            s_fn.append(idx)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(self.op)
            s_end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                s_end[sid] = t1
                stack.pop()
            if rules is not None:
                rule = "Unknown" if result.status == "Unknown" else result.rule
                rules[rule if rule in rules else "other"] += 1
            if is_predicate:
                self.predicate_incl[args[0]] += t1 - t0
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [0.0] * len(self.names)
        for sid in range(len(self.span_fn)):
            dur = self.span_end[sid] - self.span_start[sid]
            out[self.span_fn[sid]] += dur
            parent = self.span_parent[sid]
            if parent >= 0:
                out[self.span_fn[parent]] -= dur
        return out

    def counts(self) -> dict:
        """Every deterministic count: must repeat exactly for the same ops."""
        out = {}
        for idx, qual in enumerate(self.names):
            out[f"{qual}.calls"] = self.calls[idx]
            if qual in REPEAT_TRACKED:
                out[f"{qual}.repeat_share"] = (self.repeats[idx] / self.calls[idx]
                                               if self.calls[idx] else 0.0)
        for qual, rules in self.rules.items():
            for rule, count in rules.items():
                out[f"{qual}.rule.{rule}"] = count
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            base = self.span_start[0] if self.span_start else 0.0
            for sid in range(len(self.span_fn)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                         f"{self.names[self.span_fn[sid]]}\t"
                         f"{self.span_start[sid] - base:.9f}\t{self.span_end[sid] - base:.9f}\n")


def _set_cell(cell, _attr, value) -> None:
    cell.cell_contents = value


def _closures(value):
    """Module-level functions with closures, and those held in a registry dict."""
    if isinstance(value, types.FunctionType) and value.__closure__:
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            if isinstance(v, types.FunctionType) and v.__closure__:
                yield v
