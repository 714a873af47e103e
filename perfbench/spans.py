"""Span recorder that wraps echofeed's public functions from the outside.

Each traced function is replaced at its module boundary: the module
attribute plus every ``from ... import`` binding of the same function in any
loaded ``echofeed`` module (``echofeed.cli.top_k``, ``echofeed.top_k``, ...).
One span is recorded per call: name, start, end, parent span, run id and
the counters measured at that boundary. Spans stay in memory until the
benchmark writes them out. Nothing is installed unless ``install`` is
called, so an untraced run executes the program untouched.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _verify_counters(args, kwargs, report):
    chain = args[0]
    checked = len(chain) if report.valid else report.bad_index + 1
    return {"blocks": checked, "failures": 0 if report.valid else 1}


def _top_k_counters(args, kwargs, recs):
    return {"scored": args[0].n_events, "returned": len(recs.events)}


def _train_counters(args, kwargs, result):
    return {"steps": result[1].epochs_run * len(args[1])}


# span name -> (module, function, counters taken from (args, kwargs, result))
TARGETS = {
    "ratings.load_csv": ("echofeed.ratings", "load_csv",
                         lambda a, k, r: {"rows": len(r)}),
    "ratings.write_csv": ("echofeed.ratings", "write_csv", None),
    "ratings.split_holdout": ("echofeed.ratings", "split_holdout", None),
    "ratings.filter_users": ("echofeed.ratings", "filter_users", None),
    "model.objective": ("echofeed.model", "objective", None),
    "model.save_model": ("echofeed.model", "save_model", None),
    "model.load_model": ("echofeed.model", "load_model", None),
    "training.train": ("echofeed.training", "train", _train_counters),
    "training.rmse": ("echofeed.training", "rmse", None),
    "simulate.top_k": ("echofeed.simulate", "top_k", _top_k_counters),
    "ledger.verify_chain": ("echofeed.ledger", "verify_chain", _verify_counters),
    "ledger.consent_state": ("echofeed.ledger", "consent_state",
                             lambda a, k, r: {"blocks": len(a[0])}),
    "ledger.consented_ratings": ("echofeed.ledger", "consented_ratings", None),
    "ledger.append_event": ("echofeed.ledger", "append_event", None),
    "ledger.credit_tokens": ("echofeed.ledger", "credit_tokens", None),
    "ledger.load_ledger": ("echofeed.ledger", "load_ledger",
                           lambda a, k, r: {"blocks": len(r)}),
    "ledger.save_ledger": ("echofeed.ledger", "save_ledger",
                           lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    "ledger.import_profile": ("echofeed.ledger", "import_profile", None),
    "ledger.load_profile": ("echofeed.ledger", "load_profile", None),
    "ed25519.verify": ("echofeed._ed25519", "verify", None),
    "ed25519.sign": ("echofeed._ed25519", "sign", None),
    "ed25519.public_from_seed": ("echofeed._ed25519", "public_from_seed", None),
    "cli.main": ("echofeed.cli", "main", None),
}


class Tracer:
    """In-memory span store plus the wrappers that feed it.

    A span is ``(id, parent, run, name, start, end, counters)``; times are
    ``time.perf_counter`` seconds. The benchmark is single-threaded, so one
    stack of open spans gives every span its parent.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, counters):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (sid, parent, self.run, name, start, clock(), {"errors": 1})
                raise
            finally:
                stack.pop()
            end = clock()
            try:
                counted = counters(args, kwargs, result) if counters else None
            except Exception:  # a changed signature must not fail the program
                counted = {"counter_errors": 1}
            spans[sid] = (sid, parent, self.run, name, start, end, counted)
            return result

        return wrapper

    def install(self):
        """Swap every binding of every target for its wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "echofeed" or n.startswith("echofeed."))]
        for name, (module, attr, counters) in TARGETS.items():
            # a function a later version removed simply reports no spans
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, counters)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)
                        self._patched.append((mod, binding, original))

    def uninstall(self):
        for mod, binding, original in reversed(self._patched):
            setattr(mod, binding, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, run, name, start, end, counters in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "run": run, "name": name,
                                     "start": start, "end": end,
                                     "counters": counters or {}}) + "\n")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def _ratio(num, den):
    return num / den if den else 0.0


def _union(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _pass_layers(spans, wall):
    """Per-layer totals for the spans of one pass that took `wall` seconds."""
    child_time = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[5] - span[4]
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for sid, parent, _run, name, start, end, counters in spans:
        self_s[name] += end - start - child_time[sid]
        incl_s[name] += end - start
        calls[name] += 1
        for key, value in (counters or {}).items():
            counts[f"{name}.{key}"] += value
    top = [(s[4], s[5]) for s in spans if s[1] is None]
    return {
        "ratings.load_csv.s": self_s["ratings.load_csv"],
        "ratings.load_csv.rows_per_s": _ratio(counts["ratings.load_csv.rows"],
                                              incl_s["ratings.load_csv"]),
        "ratings.write_csv.s": self_s["ratings.write_csv"],
        "ratings.split_holdout.s": self_s["ratings.split_holdout"],
        "ratings.filter_users.s": self_s["ratings.filter_users"],
        "model.objective.s": self_s["model.objective"],
        "model.objective.calls": calls["model.objective"],
        "model.save_model.s": self_s["model.save_model"],
        "model.load_model.s": self_s["model.load_model"],
        "training.train.s": self_s["training.train"],
        "training.train.steps": counts["training.train.steps"],
        "training.train.steps_per_s": _ratio(counts["training.train.steps"],
                                             self_s["training.train"]),
        "training.rmse.s": self_s["training.rmse"],
        "simulate.top_k.calls": calls["simulate.top_k"],
        "simulate.top_k.s": self_s["simulate.top_k"],
        "simulate.top_k.scored_per_returned": _ratio(counts["simulate.top_k.scored"],
                                                     counts["simulate.top_k.returned"]),
        "ledger.verify_chain.s": self_s["ledger.verify_chain"],
        "ledger.verify_chain.blocks_per_s": _ratio(counts["ledger.verify_chain.blocks"],
                                                   incl_s["ledger.verify_chain"]),
        "ledger.consent_state.calls": calls["ledger.consent_state"],
        "ledger.consent_state.s": self_s["ledger.consent_state"],
        "ledger.replay.blocks_per_reward": _ratio(counts["ledger.consent_state.blocks"],
                                                  calls["ledger.credit_tokens"]),
        "ledger.consented_ratings.s": self_s["ledger.consented_ratings"],
        "ledger.append_event.calls": calls["ledger.append_event"],
        "ledger.load_ledger.s": self_s["ledger.load_ledger"],
        "ledger.load_ledger.blocks_per_s": _ratio(counts["ledger.load_ledger.blocks"],
                                                  incl_s["ledger.load_ledger"]),
        "ledger.save_ledger.s": self_s["ledger.save_ledger"],
        "ledger.save_ledger.bytes_per_appended_block": _ratio(
            counts["ledger.save_ledger.bytes"], calls["ledger.append_event"]),
        "ed25519.verify.calls": calls["ed25519.verify"],
        "ed25519.verify.s": self_s["ed25519.verify"],
        "ed25519.sign.calls": calls["ed25519.sign"],
        "ed25519.public_from_seed.calls": calls["ed25519.public_from_seed"],
        "ed25519.public_from_seed.s": self_s["ed25519.public_from_seed"],
        "cli.main.self_s": self_s["cli.main"],
        "trace.uncovered_share": _ratio(wall - _union(top), wall),
    }


# per-call latency metrics: metric name -> (span name, percentile)
_LATENCIES = {
    "simulate.top_k.us_p50": ("simulate.top_k", 50),
    "simulate.top_k.us_p90": ("simulate.top_k", 90),
    "ledger.append_event.us_p50": ("ledger.append_event", 50),
    "ledger.import_profile.us_p50": ("ledger.import_profile", 50),
    "ledger.load_profile.us_p50": ("ledger.load_profile", 50),
    "ed25519.verify.us_p50": ("ed25519.verify", 50),
    "ed25519.sign.us_p50": ("ed25519.sign", 50),
}


def layer_metrics(tracer, pass_walls, untraced_walls):
    """Per-layer metrics of a traced run.

    `pass_walls` maps each traced pass's run id to its wall time. Totals
    and rates are per pass, as the median over traced passes; latency
    percentiles pool every traced call. `trace.overhead` is the median
    traced pass over the median untraced pass, minus one.
    """
    by_run = defaultdict(list)
    for span in tracer.spans:
        by_run[span[2]].append(span)
    per_pass = [_pass_layers(by_run[run], wall) for run, wall in pass_walls.items()]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    durations = defaultdict(list)
    for span in tracer.spans:
        if span[2] in pass_walls:
            durations[span[3]].append((span[5] - span[4]) * 1e6)
    for metric, (span_name, q) in _LATENCIES.items():
        out[metric] = percentile(durations[span_name], q)
    # the tamper guard's deliberate failure runs outside the passes
    out["ledger.verify_chain.failures"] = sum(
        (s[6] or {}).get("failures", 0) for s in tracer.spans
        if s[3] == "ledger.verify_chain" and s[2] in pass_walls)
    out["trace.overhead"] = (statistics.median(pass_walls.values())
                             / statistics.median(untraced_walls) - 1.0)
    return out
