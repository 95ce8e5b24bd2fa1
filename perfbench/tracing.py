"""In-process traced run: spans around the calls into each module.

The benchmark rebinds the module attributes through which the CLI reaches
each layer (for example `gamecomonads.ef.decide_exist_ef`, which `cli` calls
as `ef_mod.decide_exist_ef`), so no file of the program changes.  Spans are
kept in memory as (name, start, end, parent, job), written out when each
traced round ends, and reduced to per-layer self times.  Partial-map checks
run millions of times, so they are aggregated into a count and a summed
time charged to the enclosing span instead of being stored one by one.
"""

from __future__ import annotations

import functools
import io
import json
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter

from measure import self_times

PARTIAL_CHECK = "structures.partial_check"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent, job)
        self.leaf: dict[int, float] = {}  # span index -> leaf seconds inside it
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[i] = (name, start, end, parent, self.job)

    def wrap(self, name, fn, count=None):
        """Span every call of `fn`; `name` is a string or a function of the
        call's arguments, and `count(counts, result, *args)` records counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            res = self.call(label, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, res, *args, **kwargs)
            return res
        return traced

    def wrap_leaf(self, name: str, fn):
        """Count and time every call of `fn` without storing a span."""
        stack, leaf, counts, leaf_s = self._stack, self.leaf, self.counts, self.leaf_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts[name] += 1
                leaf_s[name] += dt
                if stack:
                    leaf[stack[-1]] = leaf.get(stack[-1], 0.0) + dt
        return traced


def _count_plays(counts, res, a, b, k):
    counts["ef.plays"] += sum(len(a.universe) ** i for i in range(1, k + 1))


def _count_pebble(counts, res, a, b, k):
    if res.wins:
        counts["pebbling.family_parts"] += len(res.family.parts)
        return
    seen, todo = set(), [res.refutation]
    while todo:
        node = todo.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        todo.append(node.child)
        todo.extend(child for _, child in node.branches)
    counts["pebbling.refutation_nodes"] += len(seen)


def _count_backforth(counts, res, a, b, k, comonad, *rest, **kw):
    if res.duplicator is not None:
        counts["equivalence.duplicator_entries"] += len(res.duplicator)


def _count_pebble_positions(counts, res, a, b, k):
    n = sum(comb(k, s) * (len(a.universe) * len(b.universe)) ** s for s in range(k + 1))
    counts["equivalence.pebble_positions"] += n
    if res.wins:
        counts["equivalence.pebble_positions_won"] += n
        counts["equivalence.pebble_safe"] += len(res.safe_positions)


def _count_bytes(counts, text, cert):
    counts["certificates.bytes"] += len(text.encode("utf-8"))


def _kappa_name(a, comonad, *rest, **kw):
    return f"parameters.kappa_{comonad}_s"


def _instrument(tracer: Tracer, stack: ExitStack) -> None:
    """Rebind the traced functions for the life of `stack`."""
    from gamecomonads import (certificates, cli, ef, equivalence, logic, modal,
                              parameters, pebbling)

    def rebind(module, attr, wrapped):
        original = getattr(module, attr)
        setattr(module, attr, wrapped(original))
        stack.callback(setattr, module, attr, original)

    def span(module, attr, name, count=None):
        rebind(module, attr, lambda fn: tracer.wrap(name, fn, count))

    span(cli, "parse_structure", "structures.parse_s")
    span(cli, "find_hom", "structures.find_hom_s")
    span(ef, "decide_exist_ef", "ef.decide_s", _count_plays)
    span(modal, "decide_sim_k", "modal.decide_s")
    span(pebbling, "decide_exist_pebble", "pebbling.decide_s", _count_pebble)
    span(equivalence, "solve_back_forth", "equivalence.backforth_s", _count_backforth)
    span(equivalence, "_solve_pebble_backforth", "equivalence.pebble_backforth_s",
         _count_pebble_positions)
    span(equivalence, "decide_cokleisli_iso", "equivalence.iso_s")
    span(parameters, "coalgebra_number", _kappa_name)
    span(parameters, "oracle_treedepth", "parameters.oracle_treedepth_s")
    span(parameters, "oracle_treewidth", "parameters.oracle_treewidth_s")
    for attr in sorted(vars(certificates)):
        if attr.startswith("cert_"):
            span(certificates, attr, "certificates.emit_s")
    span(certificates, "format_certificate", "certificates.emit_s", _count_bytes)
    span(certificates, "parse_certificate", "certificates.parse_s")
    span(certificates, "verify_certificate", "certificates.verify_s")
    span(logic, "sample_formulas", "logic.sample_s")
    span(logic, "parse_formula", "logic.eval_s")
    span(logic, "evaluate", "logic.eval_s")
    # the partial-map checks that the solver and audit modules call
    for module in (ef, pebbling, modal, equivalence, certificates):
        for attr in ("is_partial_hom", "is_partial_iso", "check_hom"):
            if hasattr(module, attr):
                rebind(module, attr, lambda fn: tracer.wrap_leaf(PARTIAL_CHECK, fn))


def _clear_caches() -> None:
    """Drop memoised tables so each job starts as cold as a fresh process."""
    from gamecomonads import parameters
    parameters._forest_table.cache_clear()


def traced_round(jobs, spans_path: Path) -> tuple[dict, dict]:
    """Run every job through `cli.main` in this process with spans on.

    Writes the round's spans to `spans_path` as JSON lines and returns
    per-layer values for the round and, per job id, the exit code and stdout
    bytes the job produced.
    """
    from gamecomonads import cli

    tracer = Tracer()
    results = {}
    with ExitStack() as stack:
        _instrument(tracer, stack)
        for job in jobs:
            _clear_caches()
            tracer.job = job.id
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = tracer.call("cli.main", cli.main, list(job.argv))
            results[job.id] = (code, out.getvalue().encode("utf-8"))
    write_spans(tracer, spans_path)
    return layer_values(tracer, len(jobs)), results


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON object per span, with its self time and the summed time of
    the partial-map checks made directly inside it."""
    selfs = self_times(tracer.spans, tracer.leaf)
    with open(path, "w", encoding="utf-8") as out:
        for i, ((name, start, end, parent, job), own) in enumerate(zip(tracer.spans, selfs)):
            out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                  "parent": parent, "job": job, "self": own,
                                  "partial_check_s": tracer.leaf.get(i, 0.0)}) + "\n")


SPAN_LAYERS = (
    "structures.parse_s", "structures.find_hom_s", "ef.decide_s", "modal.decide_s",
    "equivalence.backforth_s", "equivalence.iso_s", "pebbling.decide_s",
    "equivalence.pebble_backforth_s", "parameters.kappa_ef_s", "parameters.kappa_pebble_s",
    "parameters.kappa_modal_s", "parameters.oracle_treedepth_s",
    "parameters.oracle_treewidth_s", "certificates.emit_s", "certificates.parse_s",
    "certificates.verify_s", "logic.sample_s", "logic.eval_s",
)
COUNTS = (
    "ef.plays", "equivalence.duplicator_entries", "pebbling.family_parts",
    "pebbling.refutation_nodes", "equivalence.pebble_positions", "certificates.bytes",
)


def layer_values(tracer: Tracer, n_jobs: int) -> dict:
    """Self seconds per layer, counters, and the summed `cli.main` span time."""
    own = Counter()
    main_s = 0.0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans, tracer.leaf)):
        own[span[0]] += self_s
        if span[0] == "cli.main":
            main_s += span[2] - span[1]
    c = tracer.counts
    values = {name: own[name] for name in SPAN_LAYERS}
    values.update({name: c[name] for name in COUNTS})
    values["cli.main_self_ms"] = own["cli.main"] / n_jobs * 1000
    values["structures.partial_checks"] = c[PARTIAL_CHECK]
    values["structures.partial_check_s"] = tracer.leaf_s[PARTIAL_CHECK]
    won = c["equivalence.pebble_positions_won"]
    values["equivalence.pebble_safe_ratio"] = c["equivalence.pebble_safe"] / won if won else 0.0
    values["main_s"] = main_s
    return values
