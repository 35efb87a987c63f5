"""Span tracing from outside the program, and the per-layer metrics built on it.

Wrappers replace public functions of agentauth at every place a caller looks
them up: the defining module and every agentauth module that imported the name
(for example both agentauth.hypo.hypothesis_test and
agentauth.net.hypothesis_test).  Each call records a span
[name, start, end, parent, op]; spans of one operation share an op id.  A name
that a later version of the program no longer has is skipped, and the metrics
built on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time


class Tracer:
    """In-memory spans and counts.  Safe to use from several threads: each
    thread keeps its own span stack and op id."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent record or None, op]
        self.counts = []  # (name, value, op)
        self.broken: dict[str, str] = {}  # span name -> why its count failed
        self._local = threading.local()
        self._op_ids = itertools.count(1)

    def begin_op(self) -> None:
        """Start a new operation on this thread; later spans carry its id."""
        self._local.op = next(self._op_ids)

    def _op(self) -> int:
        op = getattr(self._local, "op", None)
        if op is None:  # a thread the benchmark does not drive, e.g. a server session
            op = self._local.op = next(self._op_ids)
        return op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, self._op()]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the benchmark itself rather than by a wrapper."""
        self.spans.append([name, start, end, None, self._op()])

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self._op()))

    def to_json(self) -> dict:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        return {
            "spans": [
                [n, s, e, -1 if p is None else index[id(p)], op]
                for n, s, e, p, op in self.spans
            ],
            "counts": [list(c) for c in self.counts],
        }

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json(), f)


def _traced(tracer: Tracer, name: str, fn, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if measure is not None:
            try:
                for count_name, value in measure(fn, args, kwargs, result):
                    tracer.count(count_name, value)
            except (TypeError, KeyError, IndexError) as exc:
                # The program's signature changed; the count reads 0, say why once.
                if name not in tracer.broken:
                    tracer.broken[name] = f"{type(exc).__name__}: {exc}"
        return result

    return wrapper


def _mc_draws(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    yield "hypo.mc_draws", bound.arguments["M"] * len(bound.arguments["server_actions"])


def _saved_bytes(fn, args, kwargs, result):
    path = inspect.signature(fn).bind(*args, **kwargs).arguments["path"]
    yield "models.file_bytes", os.path.getsize(path)


def _sent_bytes(fn, args, kwargs, result):
    # send_frame(sock, ftype, payload=b""); called ~400 times a session, so no bind().
    payload = args[2] if len(args) > 2 else kwargs.get("payload", b"")
    yield "net.bytes", 5 + len(payload)


def _received_bytes(fn, args, kwargs, result):
    yield "net.bytes", 5 + len(result[1])


# (span name, module, attribute path, measure).  Span names are the layer and
# the public function; the attribute path may name a method of a class.
TARGETS = [
    ("models.generate_random_pdt", "agentauth.models", "generate_random_pdt", None),
    ("models.fit_mle_pdt", "agentauth.models", "fit_mle_pdt", None),
    ("models.save_pdt", "agentauth.models", "save_pdt", _saved_bytes),
    ("models.load_pdt", "agentauth.models", "load_pdt", None),
    ("engine.run_interaction", "agentauth.engine", "run_interaction", None),
    ("engine.derive_key", "agentauth.engine", "derive_key", None),
    ("hypo.hypothesis_test", "agentauth.hypo", "hypothesis_test", None),
    ("hypo.null_summary", "agentauth.hypo", "null_summary", _mc_draws),
    ("hypo.test_statistic", "agentauth.hypo", "test_statistic", None),
    ("hypo.RunningPValue.update", "agentauth.hypo", "RunningPValue.update", None),
    ("adv.make_random_adversary", "agentauth.adv", "make_random_adversary", None),
    ("adv.sample_population", "agentauth.adv", "sample_population", None),
    ("clf.encode_history", "agentauth.clf", "encode_history", None),
    ("clf.generate_dataset", "agentauth.clf", "generate_dataset", None),
    ("rl.train_probe", "agentauth.rl", "train_probe", None),
    ("rl.act", "agentauth.rl", "act", None),
    ("rl.ProbeEnv.step", "agentauth.rl", "ProbeEnv.step", None),
    ("net.exchange_step", "agentauth.net", "exchange_step", None),
    ("net.send_frame", "agentauth.net", "send_frame", _sent_bytes),
    ("net.recv_frame", "agentauth.net", "recv_frame", _received_bytes),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the span names that could not be installed
    because the program no longer has them."""
    import agentauth.cli  # noqa: F401  (imports every agentauth module)

    program = [m for name, m in sys.modules.items() if name.split(".")[0] == "agentauth"]
    missing = []
    for span, module_name, path, measure in TARGETS:
        owner = sys.modules.get(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(span)
            continue
        wrapper = _traced(tracer, span, original, measure)
        setattr(owner, attr, wrapper)
        if not parents:
            for module in program:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
    return missing


# Per-layer metric -> (span name, scale): the median duration of one call.
CALL_MEDIANS = {
    "models.generate_ms": ("models.generate_random_pdt", 1e3),
    "models.save_s": ("models.save_pdt", 1.0),
    "models.load_s": ("models.load_pdt", 1.0),
    "models.fit_mle_ms": ("models.fit_mle_pdt", 1e3),
    "cli.serve_ready_s": ("cli.serve_ready", 1.0),
    "engine.run_ms": ("engine.run_interaction", 1e3),
    "engine.derive_key_ms": ("engine.derive_key", 1e3),
    "hypo.test_ms": ("hypo.hypothesis_test", 1e3),
    "hypo.null_ms": ("hypo.null_summary", 1e3),
    "hypo.statistic_ms": ("hypo.test_statistic", 1e3),
    "hypo.running_update_us": ("hypo.RunningPValue.update", 1e6),
    "adv.build_ms": ("adv.make_random_adversary", 1e3),
    "adv.population_ms": ("adv.sample_population", 1e3),
    "clf.encode_ms": ("clf.encode_history", 1e3),
    "clf.generate_s": ("clf.generate_dataset", 1.0),
    "rl.env_step_us": ("rl.ProbeEnv.step", 1e6),
    "rl.act_us": ("rl.act", 1e6),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _durations(spans) -> dict[str, list]:
    out: dict[str, list] = {}
    for name, start, end, _, _ in spans:
        out.setdefault(name, []).append(end - start)
    return out


def per_layer(client: dict, server: dict | None) -> dict[str, float]:
    """Per-layer metrics from the benchmark's spans (client) and, on the TCP
    workload, the server's.  Both are in Tracer.to_json() form.  A layer the
    workload does not call reads 0."""
    sides = [client] + ([server] if server else [])
    durations = _durations(span for side in sides for span in side["spans"])
    out = {
        metric: _median(durations.get(span, [])) * scale
        for metric, (span, scale) in CALL_MEDIANS.items()
    }
    # The net metrics are the client's.
    out["net.exchange_step_us"] = _median(_durations(client["spans"]).get("net.exchange_step", [])) * 1e6

    counts: dict[str, list] = {}
    for side in sides:
        for name, value, _ in side["counts"]:
            counts.setdefault(name, []).append(value)
    out["hypo.mc_draws"] = _median(counts.get("hypo.mc_draws", []))
    out["models.file_mb"] = _median(counts.get("models.file_bytes", [])) / 1e6

    # Self time of train_probe: its duration minus its direct children.
    spans = client["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out["rl.train_self_s"] = _median(
        [end - start - child_time[i]
         for i, (name, start, end, _, _) in enumerate(spans) if name == "rl.train_probe"]
    )

    # Per client session: wait in recv_frame, the last wait (for DECISION),
    # frames and bytes both ways.
    sessions: dict[int, dict] = {}
    for name, start, end, _, op in spans:
        if name in ("net.recv_frame", "net.send_frame"):
            s = sessions.setdefault(op, {"recv": [], "frames": 0})
            s["frames"] += 1
            if name == "net.recv_frame":
                s["recv"].append((start, end - start))
    session_bytes: dict[int, float] = {}
    for name, value, op in client["counts"]:
        if name == "net.bytes":
            session_bytes[op] = session_bytes.get(op, 0) + value
    out["net.recv_wait_ms"] = _median([sum(d for _, d in s["recv"]) for s in sessions.values()]) * 1e3
    out["net.decision_wait_ms"] = _median(
        [max(s["recv"])[1] for s in sessions.values() if s["recv"]]
    ) * 1e3
    out["net.frames_per_session"] = _median([s["frames"] for s in sessions.values()])
    out["net.bytes_per_session"] = _median(list(session_bytes.values()))
    return out
