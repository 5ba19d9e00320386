"""Per-layer accounting for the traced run.

The tracer wraps each layer's public function where its callers look it
up.  The package imports names by value (``trace_codes`` holds its own
``locate_index``), so a function is replaced under every ``strandcode``
module attribute that refers to it, and a method on its class.  Each
wrapper records a span: calls, seconds, exceptions raised and results
that are ``True``.  A layer's self time is its span minus the spans of
the wrapped layers it called.  Spans are summed in memory per layer, not
stored one by one.
"""

from __future__ import annotations

import importlib
import sys
import time

# (name, module, attribute path).  Names read "<module>.<function>", with
# the leading underscore of a private module dropped.
LAYERS = (
    ("positioning.build_index_book", "positioning", "build_index_book"),
    ("positioning.find_marker", "positioning", "find_marker"),
    ("positioning.locate_index", "positioning", "locate_index"),
    ("bitseq.is_sd", "bitseq", "is_sd"),
    ("bitseq.is_wwl", "bitseq", "is_wwl"),
    ("bitseq.majority_merge", "bitseq", "majority_merge"),
    ("bitseq.BitSeq.to_numpy", "bitseq", "BitSeq.to_numpy"),
    ("bitseq.BitSeq.from_numpy", "bitseq", "BitSeq.from_numpy"),
    ("constrained.ConstrainedCodec.encode", "constrained", "ConstrainedCodec.encode"),
    ("constrained.ConstrainedCodec.decode", "constrained", "ConstrainedCodec.decode"),
    ("trace_codes.encode_trace", "trace_codes", "encode_trace"),
    ("trace_codes.reconstruct_trace", "trace_codes", "reconstruct_trace"),
    ("trace_codes.encode_trace_rs", "trace_codes", "encode_trace_rs"),
    ("trace_codes.reconstruct_trace_rs", "trace_codes", "reconstruct_trace_rs"),
    ("multistrand.multi_gamma0_encode", "multistrand", "multi_gamma0_encode"),
    ("multistrand.multi_gamma0_decode", "multistrand", "multi_gamma0_decode"),
    ("sd_encoder.encode_sd", "sd_encoder", "encode_sd"),
    ("sd_encoder.decode_sd", "sd_encoder", "decode_sd"),
    ("sd_encoder.scaffold_for", "sd_encoder", "scaffold_for"),
    ("bitops.close_pairs", "_bitops", "close_pairs"),
    ("channel.fragment", "channel", "fragment"),
    ("channel.corrupt", "channel", "corrupt"),
)
LAYER_NAMES = tuple(name for name, _, _ in LAYERS)


class Span:
    """Sums over every call of one layer."""

    __slots__ = ("calls", "self_s", "raised", "returned_true")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.returned_true = 0


class Tracer:
    """Context manager that wraps every layer in ``LAYERS`` and restores them.

    ``take()`` returns the spans recorded since the last ``take()`` and
    starts fresh ones, so set-up and timed passes can be read apart.
    """

    def __init__(self) -> None:
        self.spans = {name: Span() for name in LAYER_NAMES}
        self._open = [0.0]  # child seconds of each open span; [0] is the root
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, module, path in LAYERS:
                self._install(name, importlib.import_module(f"strandcode.{module}"), path)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def take(self) -> dict[str, Span]:
        out, self.spans = self.spans, {name: Span() for name in LAYER_NAMES}
        return out

    def _restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _install(self, name: str, module, path: str) -> None:
        cls_name, _, attr = path.rpartition(".")
        if cls_name:
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._replace(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._replace(cls, attr, self._wrap(name, raw))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "strandcode" and not mod_name.startswith("strandcode."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = self.spans[name]
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised += 1
                raise
            finally:
                elapsed = clock() - start
                child = open_spans.pop()
                open_spans[-1] += elapsed
                span.calls += 1
                span.self_s += elapsed - child
            if result is True:
                span.returned_true += 1
            return result

        return traced
