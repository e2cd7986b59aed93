"""The traced run's instrumentation: timed wrappers around each layer's entry points.

The wrappers are installed from the benchmark's own files, at class or module
level, and removed afterwards; the program itself carries no spans.  Each
wrapped call is a span.  Its *self* time is its duration minus the time of
the timed calls nested inside it, so the self times of every layer under a
publish, plus the publish call's own self time (``pubsub.broker``, the
time no timed child covers), add up to the publish time.

A module-level function is patched in every ``repro`` module that imported
it by name, so callers holding their own reference are traced too.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

#: ``(import path of the owner, attribute, layer)``: the timed entry points.
#: An owner is a class (``module:Class``) or a module (``module``).
TIMED = [
    ("repro.pubsub.broker:Broker", "publish", "pubsub.broker"),
    ("repro.pubsub.broker:Broker", "publish_many", "pubsub.broker"),
    ("repro.runtime.sharded_broker:ShardedBroker", "publish", "pubsub.broker"),
    ("repro.runtime.sharded_broker:ShardedBroker", "publish_many", "pubsub.broker"),
    ("repro.xmlmodel.parser", "parse_document", "xmlmodel.parse"),
    ("repro.xmlmodel.serialize", "to_xml", "xmlmodel.to_xml"),
    ("repro.xpath.evaluator:XPathEvaluator", "evaluate", "xpath.stage1"),
    ("repro.xpath.evaluator:XPathEvaluator", "evaluate_text", "xpath.stage1"),
    ("repro.core.witnesses:WitnessRelations", "from_witnesses", "core.witnesses.build"),
    ("repro.core.processor:MMQJPJoinProcessor", "process", "core.processor.process"),
    ("repro.core.processor:MMQJPJoinProcessor", "maintain_state", "core.processor.maintain_state"),
    ("repro.core.processor:MMQJPJoinProcessor", "prune_state", "core.processor.prune_state"),
    ("repro.relational.plan:CompiledPlan", "reduced_step_relations", "relational.plan.delta_reduce"),
    ("repro.relational.plan:CompiledPlan", "execute", "relational.plan.execute"),
    ("repro.relational.columnar:ColumnStore", "sync", "relational.columnar.sync"),
    ("repro.relational.database:IndexedDatabase", "bind", "relational.database.bind"),
    ("repro.core.engine:_BaseEngine", "output_document", "core.engine.output_document"),
    ("repro.core.engine:_BaseEngine", "register_query", "core.engine.register"),
    ("repro.core.engine:_BaseEngine", "deregister_query", "core.engine.deregister"),
    ("repro.xscl.parser", "parse_query", "xscl.parse_query"),
    ("repro.xscl.normalize", "canonicalize_query", "xscl.canonicalize"),
    ("repro.templates.registry:TemplateRegistry", "add_query", "templates.registry.add_query"),
    ("repro.templates.registry:TemplateRegistry", "remove_query", "templates.registry.remove_query"),
    ("repro.runtime.router:ShardRouter", "route", "runtime.router.route"),
    ("repro.runtime.wire", "encode_document_batch", "runtime.wire.encode"),
    ("repro.runtime.process:ShardWorkerGroup", "recv", "runtime.process.worker_wait"),
    ("repro.runtime.process", "decode_match_batch", "runtime.process.decode_matches"),
    ("repro.storage.sqlite:SQLiteStore", "commit_epoch", "storage.sqlite.commit"),
    ("repro.storage.sqlite:SQLiteStore", "upsert_rows", "storage.sqlite.upsert"),
    ("repro.storage.sqlite:SQLiteStore", "delete_documents", "storage.sqlite.delete"),
    ("repro.pubsub.subscription:Subscription", "deliver", "pubsub.subscription.deliver"),
]

#: Entry points whose calls are only counted (too hot or too small to time).
COUNTED = [
    ("repro.templates.registry:TemplateRegistry", "rt_relation", "core.processor.templates_visited"),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Collects per-layer self time and call counts while installed."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        #: Self time of the spans inside a publish call (publish-rooted).
        self.publish_self_s: dict = defaultdict(float)
        #: Duration of the publish calls themselves.
        self.publish_s = 0.0
        self.calls: Counter = Counter()
        #: Calls made inside a publish call.
        self.publish_calls: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    # -------------------------------------------------------------- wrappers
    def _timed(self, layer: str, fn):
        stack = self._stack
        self_s, publish_self_s = self.self_s, self.publish_self_s
        calls, publish_calls = self.calls, self.publish_calls
        is_publish = layer == "pubsub.broker"

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else is_publish]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                own = elapsed - frame[0]
                self_s[layer] += own
                if frame[1]:
                    publish_self_s[layer] += own
                    publish_calls[layer] += 1
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                elif is_publish:
                    self.publish_s += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, layer: str, fn):
        stack, calls, publish_calls = self._stack, self.calls, self.publish_calls

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            if stack and stack[-1][1]:
                publish_calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- installation
    def _patch(self, owner, name: str, make) -> None:
        if isinstance(owner, type):
            own = owner.__dict__.get(name)
            if isinstance(own, classmethod):
                replacement = classmethod(make(own.__func__))
            else:
                replacement = make(getattr(owner, name))
            self._patches.append((owner, name, own))
            setattr(owner, name, replacement)
            return
        original = getattr(owner, name)
        replacement = make(original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                module.__dict__.get(name) is original
            ):
                self._patches.append((module, name, original))
                setattr(module, name, replacement)

    def install(self) -> "Tracer":
        """Wrap every entry point of :data:`TIMED` and :data:`COUNTED`."""
        for owner, name, layer in TIMED:
            self._patch(_resolve(owner), name, lambda fn, layer=layer: self._timed(layer, fn))
        for owner, name, layer in COUNTED:
            self._patch(_resolve(owner), name, lambda fn, layer=layer: self._counted(layer, fn))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order of patching)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def entry_points() -> dict:
    """``{(owner, attribute): current value}`` of every traced entry point.

    Module-level functions are listed once per ``repro`` module importing
    them.  Comparing two snapshots shows whether the wrappers were removed.
    """
    out = {}
    for owner, name, _ in TIMED + COUNTED:
        resolved = _resolve(owner)
        if isinstance(resolved, type):
            out[(owner, name)] = resolved.__dict__.get(name)
            continue
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name.startswith("repro") and name in module.__dict__:
                out[(module_name, name)] = module.__dict__[name]
    return out
