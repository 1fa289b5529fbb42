"""The three closed-loop workloads of the HAM benchmark.

Every workload follows the same shape:

1. generate its inputs from the seed (outside any timing);
2. build its graph through the public API ``SETUPS`` times, each in a
   fresh directory, and keep the last one (``setup_s`` is the median);
3. run a timed phase of a fixed number of operations, with checkpoints
   at fixed operation counts;
4. in traced runs of the two workloads without a server, a short wire
   probe (serial RPCs, one pipelined window and a few ``linearizeGraph``
   calls) so that every layer reports on every workload;
5. reopen copies of the final directory ``REOPENS`` times and check
   each reopened graph against the model (history_browse instead runs
   ``HISTORY_CYCLES`` checkpoint-and-reopen cycles inside its phase).

One client thread drives the load; the remote workload adds one TCP
connection to an in-process server.  Every graph is opened with
``synchronous=False``: commits reach the OS through the WAL's ``write``
and checkpoints still force.

The benchmark keeps its own model of every node's contents, attributes
and links, built from what it sent.  Every read and every query result
is compared with the model (a query with a naive filter over it), every
past-version read with the bytes the trace generator produced, and every
``getNodeDifferences`` script is applied to the old version by the
benchmark's own applier.  A mismatch is recorded and fails the run.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import time

from repro import HAM, LinkPt
from repro.server import HAMServer, RemoteHAM
from repro.tools.stats import (
    cache_stats,
    catalog_stats,
    lock_stats,
    planner_counters,
    server_counters,
    wal_stats,
)
from repro.workloads.trace import EditTrace, generate_versions

__all__ = ["WORKLOADS", "Sizes", "Run"]

ATTRIBUTES = ("document", "contentType", "status")
CONTENT_TYPES = ("code", "design", "spec", "test")
STATUSES = ("draft", "review", "approved")
_WORDS = (
    "module procedure interface record layout schematic netlist gate "
    "register clock signal buffer parser lexer symbol table version "
    "release review design spec test node link attribute graph query "
    "document annotation context merge delta archive server client"
).split()

SETUPS = 3
#: Checkpoints in the phase, and reopens of the final directory, of
#: edit_local and remote_browse; history_browse runs this many
#: checkpoint-and-reopen cycles in its phase instead.
CHECKPOINTS = 5
REOPENS = 5
HISTORY_CYCLES = 9

#: Operations per second of ``--seconds``: the timed phase is a fixed
#: number of operations (so sizes and counts repeat exactly), sized to
#: last about ``--seconds`` on a 2-core x86 box.
RATES = {"edit_local": 1200, "remote_browse": 550, "history_browse": 1400}


class Sizes:
    """Graph sizes; ``small`` shrinks everything for the self-tests."""

    def __init__(self, small: bool = False):
        self.doc_nodes = 8 if small else 32
        self.docs = 4 if small else 64
        self.hot_nodes = 16 if small else 256
        self.hot_versions = 3
        self.history_docs = 2
        self.history_versions = 6 if small else 48
        #: Block cache for history_browse: the materialized versions
        #: are several times this (see the README).
        self.history_cache_bytes = (64 if small else 4096) * 1024
        self.probe_calls = 40 if small else 400


# ----------------------------------------------------------------------
# the run: samples, counters and output checks


class Run:
    """Samples, counts and mismatches of one workload run."""

    def __init__(self, name: str, seed: int, seconds: float, small: bool,
                 tracer=None):
        self.name = name
        self.seed = seed
        self.sizes = Sizes(small)
        self.operations = max(40, round(RATES[name] * seconds))
        self.tracer = tracer
        self.samples: dict[str, list[int]] = {}
        #: Nanoseconds inside the program, per timed operation.
        self.op_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.setup_s: list[float] = []
        self.checkpoint_s: list[float] = []
        self.reopen_s: list[float] = []
        self.write_commits = 0
        self.checkins = 0
        self.wal_checkin_bytes = 0
        self.layer: dict[str, float] = {}
        #: Wall seconds spent in each phase (where a run's time goes).
        self.phase_s: dict[str, float] = {}
        self._phase = ("start", time.perf_counter())
        self.probe_calls = 0
        #: Milliseconds of a fixed pure-Python loop, once per phase
        #: change: how fast the machine ran (a reference, not a metric).
        self.calibration: list[float] = []
        self.store_bytes = 0
        self.user_bytes = 0
        self.workdir = ""

    def phase(self, name: str) -> None:
        self.calibration.append(_calibrate())
        now = time.perf_counter()
        previous, since = self._phase
        self.phase_s[previous] = self.phase_s.get(previous, 0.0) + now - since
        self._phase = (name, now)
        if self.tracer is not None:
            self.tracer.phase = name

    def sample(self, metric: str, ns: int) -> None:
        self.samples.setdefault(metric, []).append(ns)

    def check(self, ok: bool, what) -> None:
        if not ok and len(self.mismatches) < 1000:
            self.mismatches.append(what() if callable(what) else what)


def _calibrate() -> float:
    started = time.perf_counter()
    total = 0
    for value in range(20000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1e3


def _percentile(values: list[int], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory))


# ----------------------------------------------------------------------
# the model


class Model:
    """What the benchmark sent, kept apart from the program."""

    def __init__(self, keep_versions: bool):
        self.keep_versions = keep_versions
        #: node -> [(time, contents)], oldest first (last only, unless
        #: ``keep_versions``).  The creation version is empty.
        self.versions: dict[int, list[tuple[int, bytes]]] = {}
        self.created: dict[int, int] = {}
        #: node -> name -> [(time, value)]
        self.attrs: dict[int, dict[str, list[tuple[int, str]]]] = {}
        #: node -> name -> value now
        self.current_attrs: dict[int, dict[str, str]] = {}
        #: link -> (from node, to node, time)
        self.links: dict[int, tuple[int, int, int]] = {}
        self.out: dict[int, list[int]] = {}
        self.into: dict[int, list[int]] = {}
        self.documents: list[list[int]] = []
        self.user_bytes = 0

    def add_node(self, node: int, time: int) -> None:
        self.versions[node] = [(time, b"")]
        self.created[node] = time
        self.attrs[node] = {}
        self.current_attrs[node] = {}
        self.out[node] = []
        self.into[node] = []

    def check_in(self, node: int, time: int, contents: bytes) -> None:
        self.user_bytes += len(contents)
        if self.keep_versions:
            self.versions[node].append((time, contents))
        else:
            self.versions[node] = [(time, contents)]

    def set_attr(self, node: int, name: str, value: str, time: int) -> None:
        self.attrs[node].setdefault(name, []).append((time, value))
        self.current_attrs[node][name] = value

    def add_link(self, link: int, source: int, target: int, time: int):
        self.links[link] = (source, target, time)
        self.out[source].append(link)
        self.into[target].append(link)

    def current(self, node: int) -> tuple[int, bytes]:
        return self.versions[node][-1]

    def contents_at(self, node: int, when: int) -> bytes:
        found = b""
        for stamp, contents in self.versions[node]:
            if stamp > when:
                break
            found = contents
        return found

    def attr_at(self, node: int, name: str, when: int = 0) -> str | None:
        found = None
        for stamp, value in self.attrs[node].get(name, ()):
            if when and stamp > when:
                break
            found = value
        return found

    def attachments(self, node: int) -> set[tuple[int, str]]:
        return ({(link, "from") for link in self.out[node]}
                | {(link, "to") for link in self.into[node]})

    def query(self, matches, when: int = 0) -> tuple[set, set]:
        """Naive filter: every node alive at ``when`` (0 = now) whose
        attributes satisfy ``matches(get)``, and every link alive at
        ``when`` joining two of them."""
        if when:
            nodes = {node for node, created in self.created.items()
                     if created <= when and matches(
                         lambda name, node=node: self.attr_at(node, name,
                                                              when))}
        else:
            nodes = {node for node, values in self.current_attrs.items()
                     if matches(values.get)}
        links = {link for node in nodes for link in self.out[node]
                 if self.links[link][1] in nodes
                 and (not when or self.links[link][2] <= when)}
        return nodes, links


def apply_script(old: bytes, script) -> bytes:
    """Apply a line-level difference script, independently of the
    program's own applier: positions index the old version's lines."""
    lines = old.splitlines(keepends=True)
    out: list[bytes] = []
    cursor = 0
    for difference in script:
        if difference.position < cursor:
            raise ValueError("overlapping difference")
        out.extend(lines[cursor:difference.position])
        removed = tuple(lines[difference.position:
                              difference.position + len(difference.old)])
        if removed != tuple(difference.old):
            raise ValueError("difference does not match the old version")
        out.extend(difference.new)
        cursor = difference.position + len(difference.old)
    out.extend(lines[cursor:])
    return b"".join(out)


# ----------------------------------------------------------------------
# inputs


def _line_pool(rng: random.Random, count: int = 4096) -> list[bytes]:
    return [(" ".join(rng.choice(_WORDS) for __ in range(rng.randint(5, 9)))
             + ".\n").encode() for __ in range(count)]


def _edit(rng: random.Random, pool: list[bytes], contents: bytes,
          stamp: int) -> bytes:
    """One editor write: 1-3 line edits, keeping the text 2-6 KB."""
    lines = contents.splitlines(keepends=True)
    for __ in range(rng.randint(1, 3)):
        position = rng.randrange(1, len(lines))
        roll = rng.random()
        fresh = b"rev %d: " % stamp + pool[rng.randrange(len(pool))]
        size = sum(map(len, lines))
        if roll < 0.6 or (roll < 0.8 and size > 5800) or (
                roll >= 0.8 and size < 2200):
            lines[position] = fresh
        elif roll < 0.8:
            lines.insert(position, fresh)
        else:
            del lines[position]
    return b"".join(lines)


class CaseSpec:
    """A CASE-style graph: documents of ``doc_nodes`` text nodes (2-6 KB)
    with ``document``/``contentType``/``status`` attributes, a chain of
    links through each document and cross references between them."""

    def __init__(self, rng: random.Random, sizes: Sizes, pool: list[bytes]):
        self.nodes = []
        for doc in range(sizes.docs):
            for slot in range(sizes.doc_nodes):
                header = b"# doc%d/%d\n" % (doc, slot)
                body = b"".join(rng.choices(pool, k=rng.randint(40, 110)))
                self.nodes.append((header + body, {
                    "document": f"doc{doc}",
                    "contentType": rng.choice(CONTENT_TYPES),
                    "status": rng.choice(STATUSES)}))
        count = len(self.nodes)
        self.cross = [(rng.randrange(count), rng.randrange(count))
                      for __ in range(count)]
        self.doc_nodes = sizes.doc_nodes


def build_case_graph(ham, spec: CaseSpec, model: Model) -> None:
    """Build ``spec`` through the public API, one transaction per
    document, then the cross references one transaction per document."""
    attrs = {name: ham.get_attribute_index(name) for name in ATTRIBUTES}
    slots: list[int] = []
    for start in range(0, len(spec.nodes), spec.doc_nodes):
        members = []
        with ham.begin() as txn:
            for contents, values in spec.nodes[start:start
                                               + spec.doc_nodes]:
                node, created = ham.add_node(txn)
                model.add_node(node, created)
                stamp = ham.modify_node(txn, node=node, expected_time=created,
                                        contents=contents)
                model.check_in(node, stamp, contents)
                for name, value in values.items():
                    ham.set_node_attribute_value(
                        txn, node=node, attribute=attrs[name], value=value)
                    model.set_attr(node, name, value, ham.now)
                members.append(node)
            for source, target in zip(members, members[1:]):
                link, stamp = ham.add_link(txn, from_pt=LinkPt(source),
                                           to_pt=LinkPt(target))
                model.add_link(link, source, target, stamp)
        model.documents.append(members)
        slots.extend(members)
    for start in range(0, len(spec.cross), spec.doc_nodes):
        with ham.begin() as txn:
            for source, target in spec.cross[start:start + spec.doc_nodes]:
                if source == target:
                    continue
                link, stamp = ham.add_link(txn, from_pt=LinkPt(slots[source]),
                                           to_pt=LinkPt(slots[target]))
                model.add_link(link, slots[source], slots[target], stamp)


# ----------------------------------------------------------------------
# shared steps


def _fresh_graph(run: Run, tag: str, cache_bytes=None):
    directory = os.path.join(run.workdir, tag)
    project, __ = HAM.create_graph(directory)
    ham = HAM.open_graph(project, directory, synchronous=False,
                         cache_bytes=cache_bytes)
    return directory, project, ham


def _setups(run: Run, build, release=None) -> tuple:
    """Build the graph ``SETUPS`` times; keep the last build.

    ``build(run, tag)`` returns ``(directory, project, ham, extra)``;
    the time it takes is one ``setup_s`` sample.  Earlier builds are
    released (``release(extra)``), closed and removed outside the
    timing.
    """
    kept = None
    for attempt in range(SETUPS):
        run.phase("setup")
        if kept is not None:
            directory, project, ham, extra = kept
            if release is not None:
                release(extra)
            _discard(ham)
            HAM.destroy_graph(project, directory)
            kept = None
            gc.collect()
        started = time.perf_counter()
        kept = build(run, f"graph{attempt}")
        run.setup_s.append(time.perf_counter() - started)
    return kept


def _discard(ham) -> None:
    """Release a graph whose files are thrown away next.

    ``close()`` checkpoints a graph only when no transaction is in
    flight; holding one open skips a snapshot nobody will read.
    """
    ham.begin(read_only=True)
    ham.close()


def _checkpoint(run: Run, ham) -> None:
    run.phase("checkpoint")
    started = time.perf_counter_ns()
    ham.checkpoint()
    run.checkpoint_s.append((time.perf_counter_ns() - started) / 1e9)


def _checkpoint_marks(run: Run) -> set[int]:
    """Checkpoints at fixed operation counts, evenly over the first nine
    tenths of the phase; the last tenth stays in the WAL, so that a
    reopen replays it."""
    span = run.operations * 9 // 10
    return {span * index // CHECKPOINTS
            for index in range(1, CHECKPOINTS + 1)}


def _open_counters(ham) -> dict:
    wal = wal_stats(ham)
    cache = cache_stats()
    return {"wal_appends": wal.appends, "wal_fsyncs": wal.fsyncs,
            "lock_acquires": lock_stats(ham).acquires,
            "cache_hits": cache.hits, "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "planner": planner_counters()}


def _close_counters(run: Run, ham, before: dict) -> None:
    after = _open_counters(ham)
    layer = run.layer
    layer["wal.appends"] = after["wal_appends"] - before["wal_appends"]
    layer["wal.fsyncs"] = after["wal_fsyncs"] - before["wal_fsyncs"]
    layer["txn.lock_acquires"] = (after["lock_acquires"]
                                  - before["lock_acquires"])
    layer["cache.hits"] = after["cache_hits"] - before["cache_hits"]
    layer["cache.misses"] = after["cache_misses"] - before["cache_misses"]
    layer["cache.evictions"] = (after["cache_evictions"]
                                - before["cache_evictions"])
    for name, value in after["planner"].items():
        layer[f"planner.{name}"] = value - before["planner"].get(name, 0)
    layer["cas.dedup_ratio"] = catalog_stats(ham).dedup_ratio


def _verify_graph(run: Run, ham, model: Model, label: str,
                  past_per_node: int = 0) -> None:
    """Every node's current contents, version time, attachments and
    attribute values must equal the model; optionally a few past
    versions of each node too."""
    indexes = [ham.get_attribute_index(name) for name in ATTRIBUTES]
    rng = random.Random(run.seed)
    for node in model.versions:
        contents, points, values, current = ham.open_node(
            node, attributes=indexes)
        stamp, expected = model.current(node)
        run.check(contents == expected and current == stamp,
                  lambda: f"{label}: node {node} contents/time")
        got = {(link, end) for link, end, __ in points}
        run.check(got == model.attachments(node),
                  lambda: f"{label}: node {node} attachments")
        want = [model.attr_at(node, name) for name in ATTRIBUTES]
        run.check(list(values) == want,
                  lambda: f"{label}: node {node} attributes")
        history = model.versions[node]
        for __ in range(min(past_per_node, len(history) - 2)):
            stamp, expected = history[rng.randrange(1, len(history) - 1)]
            run.check(ham.open_node(node, time=stamp)[0] == expected,
                      lambda: f"{label}: node {node} version {stamp}")


def _reopen(run: Run, directory: str, project: int, model: Model,
            past_per_node: int = 0) -> None:
    """Open a copy of ``directory`` (so every open sees the same files,
    WAL tail included) and check the reopened graph against the
    model."""
    copy = os.path.join(run.workdir, f"reopen{len(run.reopen_s)}")
    shutil.copytree(directory, copy)
    gc.collect()
    run.phase("reopen")
    started = time.perf_counter_ns()
    reopened = HAM.open_graph(project, copy, synchronous=False)
    run.reopen_s.append((time.perf_counter_ns() - started) / 1e9)
    run.phase("verify")
    _verify_graph(run, reopened, model, f"reopen {len(run.reopen_s)}",
                  past_per_node)
    _discard(reopened)
    shutil.rmtree(copy)


def _wire_probe(run: Run, ham, model: Model) -> None:
    """Traced runs only: serial RPCs, one pipelined window and a few
    ``linearizeGraph`` calls against the workload's final graph, so the
    wire and traversal layers report on every workload."""
    run.phase("probe")
    rng = random.Random(run.seed + 1)
    nodes = list(model.versions)
    document = model.documents[0]
    with HAMServer(ham) as server:
        client = RemoteHAM(*server.address)
        try:
            for __ in range(run.sizes.probe_calls):
                node = rng.choice(nodes)
                run.check(client.open_node(node)[0] == model.current(node)[1],
                          lambda: f"probe: node {node}")
                run.probe_calls += 1
            with client.pipeline() as pipeline:
                futures = [pipeline.open_node(node) for node in document]
            for node, future in zip(document, futures):
                run.check(future.result()[0] == model.current(node)[1],
                          lambda: f"probe: refresh node {node}")
            run.probe_calls += len(document)
            name = model.current_attrs[document[0]]["document"]
            for __ in range(8):
                found = client.linearize_graph(
                    document[0], node_predicate=f'document = "{name}"')
                run.check(set(found.node_indexes) == set(document),
                          "probe: linearizeGraph")
                run.probe_calls += 1
        finally:
            client.close()
    run.layer["server.pipelined_depth"] = server_counters().get(
        "pipelined_depth", 0)


def _finish(run: Run, ham, directory: str) -> None:
    run.phase("finish")
    run.store_bytes = _dir_bytes(directory)
    _discard(ham)


# ----------------------------------------------------------------------
# edit_local


def _build_case(run: Run, tag: str, spec: CaseSpec, hot: int = 0,
                pool=None):
    model = Model(keep_versions=hot > 0)
    directory, project, ham = _fresh_graph(run, tag)
    build_case_graph(ham, spec, model)
    if hot:
        # A few versions on the hot nodes, so remote past-version reads
        # have recent history to read from the first operation on.
        rng = random.Random(run.seed * 7 + 1)
        for round_ in range(run.sizes.hot_versions):
            for node in list(model.versions)[:hot]:
                stamp, contents = model.current(node)
                new = _edit(rng, pool, contents, round_)
                stamp = ham.modify_node(node=node, expected_time=stamp,
                                        contents=new)
                model.check_in(node, stamp, new)
    return directory, project, ham, model


#: The attribute query of edit_local and remote_browse: an index
#: intersection matching about a twelfth of the nodes.  One shape only,
#: so that ``query_p50_us`` is the median of one distribution.
_QUERY = 'status = "{b}" and contentType = "{c}"'


def _query(run: Run, invoke, model: Model, rng: random.Random) -> int:
    b, c = rng.choice(STATUSES), rng.choice(CONTENT_TYPES)
    predicate = _QUERY.format(b=b, c=c)
    started = time.perf_counter_ns()
    result = invoke(predicate)
    elapsed = time.perf_counter_ns() - started
    nodes, links = model.query(
        lambda get: get("status") == b and get("contentType") == c)
    run.check(set(result.node_indexes) == nodes
              and set(result.link_indexes) == links,
              lambda: f"query {predicate!r}")
    run.sample("query", elapsed)
    return elapsed


def _checkin(run: Run, ham, model: Model, node: int, read, write,
             revise) -> int:
    """One check-in: ``read(node)`` (openNode) then an auto-committed
    ``write`` (modifyNode) of ``revise(contents)``; ``read``/``write``
    are the local HAM's methods or a RemoteHAM's.  Only the two calls
    are timed.  Traced runs count the bytes it added to ``ham``'s WAL."""
    tracing = run.tracer is not None
    lsn = ham.end_lsn if tracing else 0
    started = time.perf_counter_ns()
    contents, __, ___, current = read(node)
    middle = time.perf_counter_ns()
    stamp, expected = model.current(node)
    run.check(contents == expected and current == stamp,
              lambda: f"checkin read {node}")
    new = revise(expected)
    resumed = time.perf_counter_ns()
    stamp = write(node=node, expected_time=current, contents=new)
    ended = time.perf_counter_ns()
    model.check_in(node, stamp, new)
    run.checkins += 1
    run.write_commits += 1
    if tracing:
        run.wal_checkin_bytes += ham.end_lsn - lsn
    elapsed = (middle - started) + (ended - resumed)
    run.sample("checkin", elapsed)
    return elapsed


def _loop(run: Run, step, marks: set[int], at_mark) -> None:
    """The timed phase: ``run.operations`` calls of ``step(index)``,
    each returning the nanoseconds spent inside the program, with
    ``at_mark()`` (a checkpoint, say) before each index in ``marks``."""
    run.phase("timed")
    gc.collect()
    for index in range(run.operations):
        if index in marks:
            at_mark()
            run.phase("timed")
        if run.tracer is not None:
            run.tracer.request = index
        run.attempted += 1
        try:
            run.op_ns.append(step(index))
        except Exception as exc:  # counted, reported, and fails checks
            run.failed += 1
            run.check(False, f"operation {index} raised {exc!r}")


def edit_local(run: Run) -> None:
    rng = random.Random(run.seed)
    pool = _line_pool(rng)
    spec = CaseSpec(rng, run.sizes, pool)
    directory, project, ham, model = _setups(
        run, lambda run, tag: _build_case(run, tag, spec))
    attrs = [ham.get_attribute_index(name) for name in ATTRIBUTES]
    nodes = list(model.versions)
    documents = model.documents
    perf = time.perf_counter_ns

    def checkin(index: int) -> int:
        return _checkin(run, ham, model, rng.choice(nodes), ham.open_node,
                        ham.modify_node,
                        lambda old: _edit(rng, pool, old, index))

    def set_status(index: int) -> int:
        node = rng.choice(nodes)
        value = rng.choice(STATUSES)
        started = perf()
        ham.set_node_attribute_value(node=node, attribute=attrs[2],
                                     value=value)
        elapsed = perf() - started
        model.set_attr(node, "status", value, ham.now)
        run.write_commits += 1
        return elapsed

    def annotate(index: int) -> int:
        target = rng.choice(nodes)
        note = b"note %d on node %d: " % (index, target) + rng.choice(pool)
        started = perf()
        with ham.begin() as txn:
            node, created = ham.add_node(txn)
            stamp = ham.modify_node(txn, node=node, expected_time=created,
                                    contents=note)
            link, linked = ham.add_link(txn, from_pt=LinkPt(node),
                                        to_pt=LinkPt(target))
        elapsed = perf() - started
        model.add_node(node, created)
        model.check_in(node, stamp, note)
        model.add_link(link, node, target, linked)
        run.write_commits += 1
        return elapsed

    def read(index: int) -> int:
        node = rng.choice(nodes)
        started = perf()
        contents, points, values, current = ham.open_node(
            node, attributes=attrs)
        elapsed = perf() - started
        stamp, expected = model.current(node)
        run.check(contents == expected and current == stamp
                  and {(link, end) for link, end, __ in points}
                  == model.attachments(node)
                  and list(values) == [model.attr_at(node, name)
                                       for name in ATTRIBUTES],
                  lambda: f"read {node}")
        run.sample("open", elapsed)
        return elapsed

    def refresh(index: int) -> int:
        document = documents[rng.randrange(len(documents))]
        started = perf()
        with ham.begin(read_only=True) as txn:
            got = [ham.open_node(node, txn=txn)[0] for node in document]
        elapsed = perf() - started
        run.check(got == [model.current(node)[1] for node in document],
                  "refresh")
        run.sample("refresh", elapsed)
        return elapsed

    def query(index: int) -> int:
        return _query(run, lambda predicate: ham.get_graph_query(
            node_predicate=predicate), model, rng)

    mix = ([checkin] * 45 + [set_status] * 10 + [annotate] * 5
           + [read] * 25 + [refresh] * 5 + [query] * 10)
    before = _open_counters(ham)
    _loop(run, lambda index: rng.choice(mix)(index), _checkpoint_marks(run),
          lambda: _checkpoint(run, ham))
    _close_counters(run, ham, before)
    run.phase("verify")
    _verify_graph(run, ham, model, "final")
    if run.tracer is not None:
        _wire_probe(run, ham, model)
    for __ in range(REOPENS):
        _reopen(run, directory, project, model)
    run.user_bytes = model.user_bytes
    _finish(run, ham, directory)


# ----------------------------------------------------------------------
# remote_browse


def remote_browse(run: Run) -> None:
    rng = random.Random(run.seed)
    pool = _line_pool(rng)
    spec = CaseSpec(rng, run.sizes, pool)
    hot_count = run.sizes.hot_nodes

    def build(run, tag):
        directory, project, ham, model = _build_case(
            run, tag, spec, hot=hot_count, pool=pool)
        server = HAMServer(ham).start()
        client = RemoteHAM(*server.address)
        return directory, project, ham, (model, server, client)

    def release(extra):
        __, server, client = extra
        client.close()
        server.stop()

    directory, project, ham, (model, server, client) = _setups(
        run, build, release)

    attrs_by_name = {name: ham.get_attribute_index(name)
                     for name in ATTRIBUTES}
    nodes = list(model.versions)
    hot = nodes[:hot_count]
    documents = model.documents
    perf = time.perf_counter_ns

    def open_(index: int) -> int:
        node = rng.choice(nodes)
        started = perf()
        contents, points, __, current = client.open_node(node)
        elapsed = perf() - started
        stamp, expected = model.current(node)
        run.check(contents == expected and current == stamp
                  and {(link, end) for link, end, __ in points}
                  == model.attachments(node), lambda: f"open {node}")
        run.sample("open", elapsed)
        return elapsed

    def links_from(index: int) -> int:
        node = rng.choice(nodes)
        started = perf()
        got = client.links_from(node)
        elapsed = perf() - started
        run.check(list(got) == sorted(model.out[node]),
                  lambda: f"linksFrom {node}")
        return elapsed

    def attributes(index: int) -> int:
        node = rng.choice(nodes)
        started = perf()
        got = client.get_node_attributes(node)
        elapsed = perf() - started
        run.check({name: value for name, __, value in got}
                  == {name: model.attr_at(node, name)
                      for name in ATTRIBUTES},
                  lambda: f"getNodeAttributes {node}")
        run.check(all(attrs_by_name[name] == attr
                      for name, attr, __ in got), "attribute indexes")
        return elapsed

    def refresh(index: int) -> int:
        document = documents[rng.randrange(len(documents))]
        started = perf()
        with client.pipeline() as pipeline:
            futures = [pipeline.open_node(node) for node in document]
        got = [future.result()[0] for future in futures]
        elapsed = perf() - started
        run.check(got == [model.current(node)[1] for node in document],
                  "pipelined refresh")
        run.sample("refresh", elapsed)
        return elapsed

    def query(index: int) -> int:
        return _query(run, lambda predicate: client.get_graph_query(
            node_predicate=predicate), model, rng)

    def linearize(index: int) -> int:
        doc = rng.randrange(len(documents))
        document = documents[doc]
        started = perf()
        found = client.linearize_graph(
            document[0], node_predicate=f'document = "doc{doc}"')
        elapsed = perf() - started
        run.check(set(found.node_indexes) == set(document)
                  and found.node_indexes[0] == document[0],
                  lambda: f"linearizeGraph doc{doc}")
        return elapsed

    def past(index: int) -> int:
        node = rng.choice(hot)
        history = model.versions[node]
        back = rng.randint(1, min(5, len(history) - 2))
        stamp, expected = history[-1 - back]
        started = perf()
        contents = client.open_node(node, time=stamp)[0]
        elapsed = perf() - started
        run.check(contents == expected,
                  lambda: f"past read {node}@{stamp}")
        return elapsed

    def checkin(index: int) -> int:
        node = rng.choice(hot) if index % 2 else rng.choice(nodes)
        return _checkin(run, ham, model, node, client.open_node,
                        client.modify_node,
                        lambda old: _edit(rng, pool, old, index))

    mix = ([open_] * 28 + [links_from] * 10 + [attributes] * 10
           + [refresh] * 5 + [query] * 5 + [linearize] * 2 + [past] * 25
           + [checkin] * 15)
    before = _open_counters(ham)
    _loop(run, lambda index: rng.choice(mix)(index), _checkpoint_marks(run),
          lambda: _checkpoint(run, ham))
    _close_counters(run, ham, before)
    run.layer["server.pipelined_depth"] = server_counters().get(
        "pipelined_depth", 0)
    release((model, server, client))
    run.phase("verify")
    _verify_graph(run, ham, model, "final", past_per_node=1)
    for __ in range(REOPENS):
        _reopen(run, directory, project, model, past_per_node=1)
    run.user_bytes = model.user_bytes
    _finish(run, ham, directory)


# ----------------------------------------------------------------------
# history_browse


class HistorySpec:
    """Archive nodes whose check-ins follow an ``EditTrace`` each: two
    documents of ``doc_nodes`` nodes, ``history_versions`` versions in
    the graph at set-up and enough trace left for the timed phase's
    check-ins.  Every eighth version also moves the node's status."""

    def __init__(self, seed: int, sizes: Sizes, extra_versions: int):
        self.doc_nodes = sizes.doc_nodes
        count = sizes.history_docs * sizes.doc_nodes
        self.versions = sizes.history_versions
        self.traces = [generate_versions(EditTrace(
            initial_lines=110, versions=self.versions + extra_versions,
            edits_per_version=3, line_width=40,
            seed=seed * 1000 + node)) for node in range(count)]
        rng = random.Random(seed)
        self.statuses = [[rng.choice(STATUSES)
                          for __ in range(len(trace))]
                         for trace in self.traces]
        self.types = [rng.choice(CONTENT_TYPES) for __ in range(count)]


def build_history_graph(ham, spec: HistorySpec, model: Model) -> list[int]:
    attrs = {name: ham.get_attribute_index(name) for name in ATTRIBUTES}
    nodes: list[int] = []
    for start in range(0, len(spec.traces), spec.doc_nodes):
        members = []
        with ham.begin() as txn:
            for slot in range(start, start + spec.doc_nodes):
                node, created = ham.add_node(txn)
                model.add_node(node, created)
                for name, value in (
                        ("document", f"hist{start // spec.doc_nodes}"),
                        ("contentType", spec.types[slot]),
                        ("status", spec.statuses[slot][0])):
                    ham.set_node_attribute_value(
                        txn, node=node, attribute=attrs[name], value=value)
                    model.set_attr(node, name, value, ham.now)
                members.append(node)
            for source, target in zip(members, members[1:]):
                link, stamp = ham.add_link(txn, from_pt=LinkPt(source),
                                           to_pt=LinkPt(target))
                model.add_link(link, source, target, stamp)
        model.documents.append(members)
        nodes.extend(members)
    for version in range(spec.versions):
        for slot, node in enumerate(nodes):
            history_checkin(ham, spec, model, attrs, slot, node, version)
    return nodes


def history_checkin(ham, spec: HistorySpec, model: Model, attrs: dict,
                    slot: int, node: int, version: int) -> None:
    contents = spec.traces[slot][version]
    stamp = model.current(node)[0]
    if version % 8 == 7:
        with ham.begin() as txn:
            stamp = ham.modify_node(txn, node=node, expected_time=stamp,
                                    contents=contents)
            ham.set_node_attribute_value(
                txn, node=node, attribute=attrs["status"],
                value=spec.statuses[slot][version])
            model.set_attr(node, "status", spec.statuses[slot][version],
                           ham.now)
    else:
        stamp = ham.modify_node(node=node, expected_time=stamp,
                                contents=contents)
    model.check_in(node, stamp, contents)


def history_browse(run: Run) -> None:
    sizes = run.sizes
    # Check-ins are a tenth of the mix, drawn at random: leave each
    # node's trace eight versions beyond its expected share (over ten
    # standard deviations of the total check-in count).
    checkins = run.operations // 10 + 1
    count = sizes.history_docs * sizes.doc_nodes
    spec = HistorySpec(run.seed, sizes, extra_versions=checkins // count + 8)
    cache_bytes = sizes.history_cache_bytes

    def build(run, tag):
        model = Model(keep_versions=True)
        directory, project, ham = _fresh_graph(run, tag, cache_bytes)
        nodes = build_history_graph(ham, spec, model)
        return directory, project, ham, (model, nodes)

    directory, project, ham, (model, nodes) = _setups(run, build)
    rng = random.Random(run.seed)
    documents = model.documents
    first_time = max(model.current(node)[0] for node in nodes)
    next_version = {node: spec.versions for node in nodes}
    perf = time.perf_counter_ns
    turn = [0]

    def past_time() -> int:
        return rng.randint(first_time, ham.now)

    def open_past(index: int) -> int:
        node = rng.choice(nodes)
        history = model.versions[node]
        stamp, expected = history[rng.randrange(1, len(history) - 1)]
        started = perf()
        contents = ham.open_node(node, time=stamp)[0]
        elapsed = perf() - started
        run.check(contents == expected,
                  lambda: f"past read {node}@{stamp}")
        run.sample("open", elapsed)
        return elapsed

    def differences(index: int) -> int:
        node = rng.choice(nodes)
        history = model.versions[node]
        first, second = sorted(rng.sample(range(1, len(history)), 2))
        (old_time, old), (new_time, new) = history[first], history[second]
        started = perf()
        script = ham.get_node_differences(node, old_time, new_time)
        elapsed = perf() - started
        try:
            applied = apply_script(old, script)
        except ValueError:
            applied = None
        run.check(applied == new,
                  lambda: f"differences {node} {old_time}->{new_time}")
        return elapsed

    def versions(index: int) -> int:
        node = rng.choice(nodes)
        started = perf()
        major, __ = ham.get_node_versions(node)
        elapsed = perf() - started
        run.check([version.time for version in major]
                  == [stamp for stamp, __ in model.versions[node]],
                  lambda: f"getNodeVersions {node}")
        return elapsed

    def query(index: int) -> int:
        status = rng.choice(STATUSES)
        when = past_time()
        predicate = f'status = "{status}"'
        started = perf()
        result = ham.get_graph_query(when, node_predicate=predicate)
        elapsed = perf() - started
        want_nodes, want_links = model.query(
            lambda get: get("status") == status, when)
        run.check(set(result.node_indexes) == want_nodes
                  and set(result.link_indexes) == want_links,
                  lambda: f"query {predicate!r} at {when}")
        run.sample("query", elapsed)
        return elapsed

    def refresh(index: int) -> int:
        document = documents[rng.randrange(len(documents))]
        when = past_time()
        started = perf()
        with ham.begin(read_only=True) as txn:
            got = [ham.open_node(node, time=when, txn=txn)[0]
                   for node in document]
        elapsed = perf() - started
        run.check(got == [model.contents_at(node, when)
                          for node in document],
                  lambda: f"refresh at {when}")
        run.sample("refresh", elapsed)
        return elapsed

    def checkin(index: int) -> int:
        slot = turn[0] % len(nodes)
        turn[0] += 1
        node = nodes[slot]
        version = next_version[node]
        next_version[node] += 1
        return _checkin(run, ham, model, node, ham.open_node,
                        ham.modify_node,
                        lambda old: spec.traces[slot][version])

    def cycle() -> None:
        _checkpoint(run, ham)
        _reopen(run, directory, project, model, past_per_node=2)

    mix = ([open_past] * 40 + [differences] * 15 + [versions] * 10
           + [query] * 15 + [refresh] * 10 + [checkin] * 10)
    before = _open_counters(ham)
    # Checkpoint-and-reopen cycles of the archive graph, spread through
    # the phase so that their medians do not hang on one moment of a
    # shared machine.
    marks = {run.operations * index // (HISTORY_CYCLES + 1)
             for index in range(1, HISTORY_CYCLES + 1)}
    _loop(run, lambda index: rng.choice(mix)(index), marks, cycle)
    _close_counters(run, ham, before)
    run.phase("verify")
    _verify_graph(run, ham, model, "final", past_per_node=2)
    if run.tracer is not None:
        _wire_probe(run, ham, model)
    run.user_bytes = model.user_bytes
    _finish(run, ham, directory)


WORKLOADS = {
    "edit_local": edit_local,
    "remote_browse": remote_browse,
    "history_browse": history_browse,
}


# ----------------------------------------------------------------------
# end-to-end metrics


#: The timed phase is cut into this many blocks of consecutive
#: operations for ``ops_per_s``.
BLOCKS = 20


def ops_per_s(op_ns: list[int]) -> float:
    """Throughput of the timed phase: the median over ``BLOCKS`` blocks
    of consecutive operations of each block's operations per second
    spent inside the program.  A median of blocks, not one quotient,
    so that a burst of CPU frequency change during the run (seconds
    long on a shared box) moves a few blocks and not the figure."""
    size = max(1, len(op_ns) // BLOCKS)
    rates = [size / (sum(op_ns[start:start + size]) / 1e9)
             for start in range(0, size * BLOCKS, size)
             if op_ns[start:start + size]]
    return statistics.median(rates)


def end_to_end(run: Run) -> dict[str, float]:
    """The ten end-to-end metrics (medians; p99s go to ``reference``)."""
    def p50_us(name):
        return statistics.median(run.samples[name]) / 1000
    return {
        "ops_per_s": ops_per_s(run.op_ns),
        "setup_s": statistics.median(run.setup_s),
        "checkin_p50_us": p50_us("checkin"),
        "open_p50_us": p50_us("open"),
        "refresh_p50_us": p50_us("refresh"),
        "query_p50_us": p50_us("query"),
        "checkpoint_s": statistics.median(run.checkpoint_s),
        "reopen_s": statistics.median(run.reopen_s),
        "store_bytes_per_user_byte": run.store_bytes / run.user_bytes,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def reference(run: Run) -> dict[str, dict]:
    """Sample counts and p99s of each latency, and every checkpoint and
    reopen time, for the printed table."""
    found = {name: {"samples": len(values),
                    "p50_us": statistics.median(values) / 1000,
                    "p99_us": _percentile(values, 0.99) / 1000}
             for name, values in sorted(run.samples.items())}
    found["checkpoint_s"] = run.checkpoint_s
    found["reopen_s"] = run.reopen_s
    return found
