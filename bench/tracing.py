"""Spans around the public functions of each ``fedkdx`` module, recorded
from outside the program.

The package imports with ``from .x import y``, so a wrapper replaces the
name where the caller looks it up (``federation.forward``,
``compression.thin_svd``, ...), not the definition.  Spans stay in memory
as (name, start, end, parent, thread, round) and are written out once the
run is over.  A span's self time is its duration minus the part of it that
its child spans cover.

Packets are observed by keeping the bytes each ``encode_packet`` call
returns and decoding them with ``compression.decode_packet`` after the
round's span has closed, so decoding is in no timed span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

from fedkdx import compression, data, experiment, federation, metrics, nn

# every tensor with two or more dimensions, across both architectures
TENSORS = ("fc1.w", "fc2.w", "head.w", "conv1.w", "conv2.w")

ROUND = "federation.round"
POOL = "federation.client_pool"
UPLINK = "federation.client_uplink"
EVALUATE = "federation.evaluate"
SVD = "linalg.thin_svd"


class Tracer:
    def __init__(self, threads: int):
        self.spans: list[list] = []      # [name, start, end, parent, thread, round]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._fanout: int | None = None  # parent of spans opened on pool threads
        self.round = -1                  # running round number, -1 outside rounds
        self.rounds: list[int] = []      # span index of each traced round
        self._pending: list[bytes] = []
        self.entries: dict[str, list] = defaultdict(list)   # tensor -> [(mode, rank, bytes)]
        self.svd_s: Counter = Counter()   # tensor -> seconds in its SVDs
        self.svd_failures = 0
        self.threads = threads           # client threads, for the idle share

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main:
            parent = self._fanout
        else:
            parent = None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), 0.0, parent,
                               threading.get_ident(), self.round])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def parent_name(self) -> str | None:
        stack = self._stack()
        if stack:
            return self.spans[stack[-1]][0]
        if threading.get_ident() != self._main and self._fanout is not None:
            return self.spans[self._fanout][0]
        return None

    def wrap(self, name, fn):
        """``name`` is a span name or a callable choosing one per call."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name() if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    # ----------------------------------------------------- special cases

    def wrap_round(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.round = len(self.rounds)
            sid = self.open(ROUND)
            self.rounds.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
                self.round = -1
                self._observe_packets()
        return traced

    def wrap_svd(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(SVD)
            try:
                return fn(*args, **kwargs)
            except compression.SvdNonConvergence:
                self.svd_failures += 1
                raise
            finally:
                self.close(sid)
                start, end = self.spans[sid][1:3]
                self.svd_s[getattr(self._local, "tensor", "?")] += end - start
        return traced

    def wrap_layer(self, fn):
        # names the tensor for the SVD span below it; no span of its own
        @functools.wraps(fn)
        def named(name, *args, **kwargs):
            self._local.tensor = name
            return fn(name, *args, **kwargs)
        return named

    def wrap_encode(self, fn):
        traced = self.wrap("compression.encode", fn)

        @functools.wraps(fn)
        def keep(pkt):
            blob = traced(pkt)
            with self._lock:
                self._pending.append(blob)
            return blob
        return keep

    def pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.open(POOL)
                tracer._fanout = self._span
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._fanout = None
                    tracer.close(self._span)
        return TracedPool

    def _observe_packets(self) -> None:
        pending, self._pending = self._pending, []
        for blob in pending:
            pkt = compression.decode_packet(blob)
            for e in pkt.entries:
                if len(e.shape) >= 2:
                    size = compression.packet_size_bytes(compression.GradientPacket([e])) \
                        - compression.packet_size_bytes(compression.GradientPacket([]))
                    self.entries[e.name].append((e.mode, e.rank, size))

    # ----------------------------------------------------------- patching

    def patches(self) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every layer boundary."""
        def forward_name():
            return "nn.eval_forward" if self.parent_name() == EVALUATE else "nn.forward"
        f, c, w = federation, compression, self.wrap
        return [
            (data, "load_ucihar", w("data.load", data.load_ucihar)),
            (data, "make_synthetic", w("data.load", data.make_synthetic)),
            (data, "partition", w("data.partition", data.partition)),
            (experiment, "build_experiment", w("experiment.build", experiment.build_experiment)),
            (experiment, "run_experiment", w("experiment.run", experiment.run_experiment)),
            (f, "run_round", self.wrap_round(f.run_round)),
            (f, "ThreadPoolExecutor", self.pool_class()),
            (f, "_client_uplink", w(UPLINK, f._client_uplink)),
            (f, "client_local_step_fedkdx", w("federation.client_step", f.client_local_step_fedkdx)),
            (f, "client_local_step_fedavg", w("federation.client_step", f.client_local_step_fedavg)),
            (f, "server_aggregate", w("federation.aggregate", f.server_aggregate)),
            (f, "evaluate", w(EVALUATE, f.evaluate)),
            (f, "forward", w(forward_name, f.forward)),
            (f, "backward", w("nn.backward", f.backward)),
            (f, "combined_loss", w("losses.combined_loss", f.combined_loss)),
            (f, "ce_batch", w("losses.ce_batch", f.ce_batch)),
            (f, "compress_gradient", w("compression.compress", f.compress_gradient)),
            (f, "raw_packet", w("compression.raw_packet", f.raw_packet)),
            (f, "encode_packet", self.wrap_encode(f.encode_packet)),
            (f, "decode_packet", w("compression.decode", f.decode_packet)),
            (f, "decompress", w("compression.decompress", f.decompress)),
            (c, "compress_layer", self.wrap_layer(c.compress_layer)),
            (c, "thin_svd", self.wrap_svd(c.thin_svd)),
            (c, "select_rank", w("compression.select_rank", c.select_rank)),
            (metrics, "EvalBatch", w("metrics.score", metrics.EvalBatch)),
            (metrics, "accuracy", w("metrics.score", metrics.accuracy)),
            (metrics, "macro_f1", w("metrics.score", metrics.macro_f1)),
            (metrics, "macro_recall", w("metrics.score", metrics.macro_recall)),
            (metrics, "macro_auc_ovr", w("metrics.score", metrics.macro_auc_ovr)),
            (nn, "save_checkpoint", w("experiment.checkpoint", nn.save_checkpoint)),
        ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """The tracer's wrappers are in place inside the block."""
    patches = tracer.patches()
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, wrapper in patches:
        setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


# --------------------------------------------------------------- analysis

def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of child intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds, as name -> (value, unit).

    Time spent inside rounds is a share of the summed traced round time, so
    a layer a workload never calls reads 0 as a share, not as a time;
    ``federation.round.s`` (median traced round) scales shares back to
    seconds.  Set-up and writes happen outside rounds and are seconds,
    median over experiments.  Call counts are per round.
    """
    spans = tracer.spans
    own = self_times(spans)
    n_rounds = len(tracer.rounds)
    total: Counter = Counter()
    self_: Counter = Counter()
    calls: Counter = Counter()
    outside_total: dict[str, list[float]] = defaultdict(list)
    outside_self: dict[str, list[float]] = defaultdict(list)
    for sid, (name, start, end, _, _, rnd) in enumerate(spans):
        if rnd >= 0:
            total[name] += end - start
            self_[name] += own[sid]
            calls[name] += 1
        else:
            outside_total[name].append(end - start)
            outside_self[name].append(own[sid])
    round_time = total[ROUND]

    def share(counter, name):
        return (counter[name] / round_time if round_time else 0.0, "ratio")

    def per_round_calls(name):
        return (calls[name] / n_rounds if n_rounds else 0.0, "calls/round")

    out: dict[str, tuple[float, str]] = {}
    out["federation.round.s"] = (_median(spans[i][2] - spans[i][1] for i in tracer.rounds), "s")
    out["federation.round.self_share"] = share(self_, ROUND)
    out["federation.client_uplink.self_share"] = share(self_, UPLINK)
    out["federation.client_step.self_share"] = share(self_, "federation.client_step")
    out["federation.aggregate.self_share"] = share(self_, "federation.aggregate")
    out["federation.evaluate.share"] = share(total, EVALUATE)
    out["federation.evaluate.self_share"] = share(self_, EVALUATE)
    out["federation.client_pool.self_share"] = share(self_, POOL)
    out["federation.thread_idle_share"] = (_idle_share(tracer), "ratio")
    out["linalg.thin_svd.share"] = share(total, SVD)
    out["linalg.thin_svd.calls"] = per_round_calls(SVD)
    for t in TENSORS:
        out[f"linalg.svd_share.{t}"] = share(tracer.svd_s, t)
    out["compression.compress.self_share"] = share(self_, "compression.compress")
    for short in ("select_rank", "raw_packet", "encode", "decode", "decompress"):
        out[f"compression.{short}.share"] = share(total, f"compression.{short}")
    factored = seen_total = 0
    for t in TENSORS:
        seen = tracer.entries.get(t, [])
        modes = Counter(m for m, _, _ in seen)
        lowrank = [r for m, r, _ in seen if m != compression.MODE_RAW]
        factored += len(lowrank)
        seen_total += len(seen)
        out[f"compression.rank.{t}"] = (_median(lowrank), "count")
        out[f"compression.bytes.{t}"] = (statistics.fmean(b for _, _, b in seen) if seen else 0.0, "B")
        out[f"compression.mode.{t}"] = (float(modes.most_common(1)[0][0]) if seen else 0.0, "code")
    out["compression.lowrank_ratio"] = (factored / seen_total if seen_total else 0.0, "ratio")
    out["compression.svd_fallback_ratio"] = (
        tracer.svd_failures / calls[SVD] if calls[SVD] else 0.0, "ratio")
    for name in ("losses.combined_loss", "losses.ce_batch", "nn.forward", "nn.backward"):
        out[f"{name}.share"] = share(total, name)
        out[f"{name}.calls"] = per_round_calls(name)
    out["nn.eval_forward.share"] = share(total, "nn.eval_forward")
    out["metrics.score.share"] = share(total, "metrics.score")
    out["data.load.s"] = (_median(outside_total["data.load"]), "s")
    out["data.partition.s"] = (_median(outside_total["data.partition"]), "s")
    out["experiment.build.self_s"] = (_median(outside_self["experiment.build"]), "s")
    # what run_experiment does besides set-up and rounds is writing its
    # outputs: metrics.csv rows, summary.json and the checkpoint
    writes = [own + ckpt for own, ckpt in zip(outside_self["experiment.run"],
                                              outside_total["experiment.checkpoint"])]
    out["experiment.write.s"] = (_median(writes), "s")
    out["experiment.checkpoint.s"] = (_median(outside_total["experiment.checkpoint"]), "s")
    return out


def _idle_share(tracer: Tracer) -> float:
    """Per round: 1 - client busy time / (threads x client-phase wall).

    The client phase is the pool's span when clients run on threads, else
    the interval from the first client's start to the last one's end.
    """
    phase: dict[int, tuple[float, float]] = {}
    busy: Counter = Counter()
    for name, start, end, _, _, rnd in tracer.spans:
        if rnd < 0:
            continue
        if name == POOL:
            phase[rnd] = (start, end)
        elif name == UPLINK:
            busy[rnd] += end - start
            if tracer.threads == 1:
                s0, e0 = phase.get(rnd, (start, end))
                phase[rnd] = (min(s0, start), max(e0, end))
    shares = [1.0 - busy[r] / (tracer.threads * (e - s))
              for r, (s, e) in phase.items() if e > s]
    return _median(shares)


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        for name, start, end, parent, thread, rnd in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                 "thread": thread, "round": rnd}) + "\n")
