"""In-memory span tracer for the benchmark's traced mode.

Spans are recorded only here, in the benchmark: :func:`instrument` wraps
the public functions of each HAM layer, in every ``repro`` module that
binds them, with a timing wrapper.  Nothing in the program is edited.

Each span carries its name, the traced span that caused it (its parent
on the same thread), the benchmark operation it belongs to (the request
identifier, shared by every span of one operation), the run phase
(``setup``, ``timed``, ``checkpoint``, ``probe``, ``reopen``, ``verify``)
and its start and end.  Aggregates are kept per (phase, name, parent):
calls, inclusive time, and self time -- the span minus the child spans
it covers.  A bounded sample of raw spans is kept as well and written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

__all__ = ["Tracer", "instrument"]


class Tracer:
    """Thread-aware span recorder.

    ``phase`` and ``request`` are set by the workload driver between
    operations; the server threads of the remote workload read them
    too, which is sound because the load is one closed-loop client.
    """

    def __init__(self, max_raw_spans: int = 20000):
        self.phase = "setup"
        self.request = 0
        #: Serial RPCs in flight from the client thread (0 or 1).
        self.rpc_inflight = 0
        self.client_thread = threading.get_ident()
        self.max_raw_spans = max_raw_spans
        self.raw: list[tuple] = []
        self._local = threading.local()
        self._tables: list[dict] = []
        self._tables_lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict = {}
            state = self._local.state = ([], table)
            with self._tables_lock:
                self._tables.append(table)
        return state

    def wrap(self, name: str, fn, measure=None, kind: str | None = None):
        """A traced version of ``fn`` recording spans named ``name``.

        ``measure(result)`` adds a size (bytes, records) to the span's
        aggregate.  ``kind`` marks the RPC boundary: ``"rpc_client"``
        for the client's serial call, ``"ham_op"`` for HAM operations,
        which on a server thread during a serial call are that call's
        server-side time.
        """
        perf = time.perf_counter_ns
        tracer = self
        client_thread = self.client_thread

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table = tracer._state()
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            if kind == "rpc_client" and not parent:
                tracer.rpc_inflight += 1
            start = perf()
            size = 0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    size = measure(result)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                phase = tracer.phase
                key = (phase, name, parent)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                entry[3] += size
                if kind == "rpc_client" and not parent:
                    tracer.rpc_inflight -= 1
                elif (kind == "ham_op" and not parent
                      and tracer.rpc_inflight
                      and threading.get_ident() != client_thread):
                    key = (phase, "rpc.server_op", None)
                    entry = table.get(key)
                    if entry is None:
                        entry = table[key] = [0, 0, 0, 0]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration
                if len(tracer.raw) < tracer.max_raw_spans:
                    tracer.raw.append((tracer.request, phase, name, parent,
                                       threading.get_ident(), start, end))

        return traced

    # ------------------------------------------------------------------
    # reading the aggregates

    def merged(self) -> dict:
        """``{(phase, name, parent): [calls, total_ns, self_ns, size]}``
        summed over every thread."""
        merged: dict = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for key, (calls, total, own, size) in list(table.items()):
                entry = merged.setdefault(key, [0, 0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
                entry[3] += size
        return merged

    def write(self, path: str) -> None:
        """Write the aggregates and the raw span sample as JSON lines."""
        with open(path, "w") as handle:
            for (phase, name, parent), row in sorted(
                    self.merged().items(), key=lambda kv: str(kv[0])):
                handle.write(json.dumps({
                    "phase": phase, "name": name, "parent": parent,
                    "calls": row[0], "total_ns": row[1], "self_ns": row[2],
                    "size": row[3]}) + "\n")
            for request, phase, name, parent, thread, start, end in self.raw:
                handle.write(json.dumps({
                    "span": name, "request": request, "phase": phase,
                    "parent": parent, "thread": thread,
                    "start_ns": start, "end_ns": end}) + "\n")


class Totals:
    """Sums over the merged aggregates, filtered by phase, name, parent."""

    def __init__(self, merged: dict):
        self._merged = merged

    def _rows(self, phases, names, parent=None):
        for (phase, name, span_parent), row in self._merged.items():
            if phase in phases and name in names and (
                    parent is None or span_parent == parent):
                yield row

    def calls(self, phases, *names, parent=None) -> int:
        return sum(row[0] for row in self._rows(phases, names, parent))

    def total_ns(self, phases, *names, parent=None) -> int:
        return sum(row[1] for row in self._rows(phases, names, parent))

    def self_ns(self, phases, *names) -> int:
        return sum(row[2] for row in self._rows(phases, names))

    def size(self, phases, *names) -> int:
        return sum(row[3] for row in self._rows(phases, names))

    def names(self, prefix: str) -> set[str]:
        return {name for (__, name, ___) in self._merged
                if name.startswith(prefix)}


# ----------------------------------------------------------------------
# instrumentation


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement`` (``from x import f`` makes one binding per module)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap_function(tracer, module, attribute, name, measure=None):
    original = getattr(module, attribute)
    _rebind(original, tracer.wrap(name, original, measure))


def _wrap_method(tracer, cls, attribute, name, measure=None, kind=None):
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        wrapped = classmethod(tracer.wrap(name, raw.__func__, measure, kind))
    else:
        wrapped = tracer.wrap(name, raw, measure, kind)
    # Aliases (an Appendix camelCase name bound to the same function)
    # get the same wrapper.
    for alias, value in list(cls.__dict__.items()):
        if value is raw:
            setattr(cls, alias, wrapped)


def _length(result) -> int:
    return len(result)


def _updates(result) -> int:
    return len(result.updates)


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions.  Import-time order matters
    only in that every ``repro`` module must be loaded first, so that
    each binding is found."""
    import repro.server  # noqa: F401  (loads client, server, protocol)
    import repro.tools.stats  # noqa: F401
    from repro.core import graph, ham, operations
    from repro.query import graph_query, planner, traversal
    from repro.server import client, protocol
    from repro.storage import blockcache, cas, deltas, diff, log, serializer
    from repro.txn import locks, manager, recovery, writeset

    # core: every HAM operation of the Appendix vocabulary.
    for operation in operations.REGISTRY.ham_operations():
        _wrap_method(tracer, ham.HAM, operation.name,
                     f"core.{operation.name}", kind="ham_op")
    # txn
    _wrap_method(tracer, manager.Transaction, "commit", "txn.commit")
    _wrap_method(tracer, writeset.WriteSet, "apply", "txn.writeset_apply")
    _wrap_method(tracer, locks.LockManager, "acquire", "txn.lock_acquire")
    # codec
    _wrap_function(tracer, serializer, "encode_value", "codec.encode_value",
                   measure=_length)
    _wrap_function(tracer, serializer, "decode_value", "codec.decode_value")
    _wrap_method(tracer, log.LogRecord, "encode", "codec.record_encode")
    _wrap_method(tracer, log.LogRecord, "decode", "codec.record_decode")
    _wrap_function(tracer, protocol, "encode_message", "codec.encode_message")
    _wrap_method(tracer, protocol.FrameDecoder, "feed", "codec.frame_feed")
    # storage.log
    for method in ("append", "append_many", "force", "force_up_to"):
        _wrap_method(tracer, log.WriteAheadLog, method, f"wal.{method}")
    # storage.diff / storage.deltas
    _wrap_function(tracer, diff, "diff_bytes", "diff.diff_bytes")
    _wrap_function(tracer, diff, "apply_differences_bytes",
                   "diff.apply_differences_bytes")
    _wrap_method(tracer, deltas.DeltaStore, "check_in", "delta.check_in")
    _wrap_method(tracer, deltas.DeltaStore, "get", "delta.get")
    _wrap_method(tracer, deltas.DeltaStore, "get_exact", "delta.get_exact")
    # storage.blockcache / storage.cas
    _wrap_method(tracer, blockcache.BlockCache, "get", "cache.get")
    _wrap_method(tracer, blockcache.BlockCache, "put", "cache.put")
    _wrap_function(tracer, cas, "content_hash", "cas.content_hash")
    _wrap_method(tracer, cas.BlobCatalog, "intern", "cas.intern")
    # snapshot and recovery
    _wrap_method(tracer, graph.GraphDirectory, "append_snapshot",
                 "snapshot.append_snapshot")
    _wrap_method(tracer, graph.GraphDirectory, "load_snapshot",
                 "snapshot.load_snapshot")
    _wrap_function(tracer, recovery, "replay_log", "recovery.replay_log",
                   measure=_updates)
    # query
    _wrap_function(tracer, planner, "plan_query", "query.plan_query")
    _wrap_function(tracer, planner, "compile_predicate",
                   "query.compile_predicate")
    _wrap_function(tracer, graph_query, "get_graph_query",
                   "query.get_graph_query")
    _wrap_function(tracer, traversal, "linearize_graph",
                   "traversal.linearize_graph")
    # server: the client's serial stubs (generated from the registry).
    for operation in operations.REGISTRY.ham_operations():
        _wrap_method(tracer, client.RemoteHAM, operation.name,
                     f"rpc.{operation.name}", kind="rpc_client")
