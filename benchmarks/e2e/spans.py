"""Outside-in span tracing: time calls into each layer's functions.

Nothing under ``src/`` knows about this module.  For the one traced
repetition, :func:`install` replaces the callables it is given (``layers.TARGETS``) with
timing wrappers (class attributes, so every instance is covered) and
:func:`Installed.remove` puts the originals back.  A target that no longer
exists is reported in ``Installed.missing`` and skipped: the metrics built on
it read 0 and the run carries on.

Per span name the tracer keeps a call count, total time (outermost
activations only, so recursion is not counted twice), self time (duration
minus the time spent in child spans) and, where asked, the summed ``len()``
of the results.  Per (parent, child) pair it keeps count and total, which is
the "span that caused it" of a full trace, aggregated.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Parent name of spans entered from un-traced code.
ROOT = "<root>"


class SpanStat:
    __slots__ = ("count", "total_s", "self_s", "items", "depth")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        #: Summed len() of results (spans wrapped with ``sized=True``).
        self.items = 0
        #: Live activations of this name (re-entrancy guard for ``total_s``).
        self.depth = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "items": self.items,
        }


class Tracer:
    """Aggregating span recorder for one single-threaded repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStat] = {}
        #: (parent, child) -> [count, total_s]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        #: Last ``self`` seen by a span wrapped with ``keep_self=True``.
        self.instances: Dict[str, object] = {}
        # Each live span is [name, seconds spent in its child spans].
        self._stack: List[list] = []

    def stat(self, name: str) -> SpanStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStat()
        return stat

    def wrap(
        self, name: str, fn: Callable, *, sized: bool = False, keep_self: bool = False
    ) -> Callable:
        """``fn`` timed as one ``name`` span per call."""
        clock = self.clock
        stack = self._stack
        edges = self.edges
        instances = self.instances
        stat = self.stat(name)

        def span(*args, **kwargs):
            if keep_self:
                instances[name] = args[0]
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            stat.depth += 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.count += 1
                stat.self_s += elapsed - frame[1]
                if stat.depth == 0:
                    stat.total_s += elapsed
                if sized and result is not None:
                    stat.items += len(result)
                edge_key = (parent[0] if parent is not None else ROOT, name)
                edge = edges.get(edge_key)
                if edge is None:
                    edge = edges[edge_key] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                if parent is not None:
                    parent[1] += elapsed

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def self_total_s(self) -> float:
        return sum(stat.self_s for stat in self.stats.values())

    def layer_self_s(self) -> Dict[str, float]:
        """Self seconds per layer (the span name's prefix)."""
        layers: Dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + stat.self_s
        return layers

    def as_dict(self) -> Dict[str, object]:
        return {
            "spans": {name: self.stats[name].as_dict() for name in sorted(self.stats)},
            "edges": {
                f"{parent}>{child}": {"count": edge[0], "total_s": edge[1]}
                for (parent, child), edge in sorted(self.edges.items())
            },
            "layer_self_s": dict(sorted(self.layer_self_s().items())),
        }


class Target(NamedTuple):
    """One callable to wrap under a span name."""

    span: str
    #: ``module:Class.attr`` (or ``module:function``).
    where: str
    #: Sum the ``len()`` of the results into the span's ``items``.
    sized: bool = False
    #: Remember the last ``self`` in ``Tracer.instances``.
    keep_self: bool = False


class Installed:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self) -> None:
        #: (owner, attribute, original ``__dict__`` entry) in install order.
        self._patched: List[Tuple[object, str, object]] = []
        #: ``module:Class.attr`` of targets that could not be resolved.
        self.missing: List[str] = []

    def remove(self) -> None:
        """Put every original back (reverse order; idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _resolve(target: Target) -> Optional[Tuple[object, str, object]]:
    """(owner, attribute, raw ``__dict__`` entry) or ``None`` when gone."""
    module, path = target.where.split(":")
    try:
        owner: object = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Only a callable the owner itself defines: patching an inherited
    # attribute in place would leave a copy behind on removal.
    original = vars(owner).get(attr)
    if original is None or not callable(original):
        return None
    return owner, attr, original


def install(tracer: Tracer, targets: List[Target]) -> Installed:
    installed = Installed()
    for target in targets:
        resolved = _resolve(target)
        if resolved is None:
            installed.missing.append(target.where)
            continue
        owner, attr, original = resolved
        wrapper = tracer.wrap(
            target.span, original, sized=target.sized, keep_self=target.keep_self
        )
        setattr(owner, attr, wrapper)
        installed._patched.append((owner, attr, original))
    return installed
