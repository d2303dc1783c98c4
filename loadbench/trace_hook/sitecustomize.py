"""Span recorder for the benchmark's traced runs (imported at start-up).

The traced run puts this directory on the server processes'
``PYTHONPATH``, so every process that starts from it — the server, a
cluster router and its spawned shard workers — imports this file before
anything else.  When ``LOADBENCH_TRACE_OUT`` names a directory, an
import hook wraps public functions of the serving modules as they load
and records one span per call.  The program's source is not edited.

A span is ``(name, start, end, id, parent, op, root)``: ``parent`` is
the innermost open span on the same thread (0 for a root), ``root`` the
outermost, and ``op`` the root's request kind (``read``, ``ingest`` or
``other``).  Times are ``time.perf_counter()``, the system-wide
monotonic clock on Linux, so they compare across processes.  The profiler's
named phases (``gtg.eval_round``, ``wal.fsync``, ...) become spans
``phase:<name>`` nested the same way.  Spans stay in memory and are
written to ``<dir>/spans-<pid>.json`` when the process exits.
"""

from __future__ import annotations

import os

_OUT = os.environ.get("LOADBENCH_TRACE_OUT")

if _OUT:
    import atexit
    import functools
    import importlib.abc
    import itertools
    import json
    import sys
    import threading
    from time import perf_counter
    from urllib.parse import urlsplit

    _spans: list[tuple] = []
    _ids = itertools.count(1)
    _local = threading.local()

    def _push(name: str, op: str) -> None:
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        sid = next(_ids)
        if stack:
            parent, op, root = stack[-1][0], stack[-1][1], stack[-1][5]
        else:
            parent, root = 0, sid
        stack.append((sid, op, name, parent, perf_counter(), root))

    def _pop(rename: str | None = None) -> None:
        end = perf_counter()
        sid, op, name, parent, start, root = _local.stack.pop()
        _spans.append((rename or name, start, end, sid, parent, op, root))

    def _request_op(handler) -> str:
        parts = [p for p in urlsplit(handler.path).path.split("/") if p]
        if handler.command == "POST" and parts == ["runs"]:
            return "ingest"
        if (
            handler.command == "GET"
            and len(parts) == 3
            and parts[0] == "runs"
            and parts[2] in ("leaderboard", "contributions", "weights")
        ):
            return "read"
        return "other"

    def _wrap(owner, attr: str, name: str, *, root_op=None) -> None:
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _push(name, root_op(args[0]) if root_op else "other")
            try:
                return fn(*args, **kwargs)
            finally:
                _pop()

        setattr(owner, attr, wrapper)

    def _patch_profile(module) -> None:
        phase_cls = module._Phase
        enter, exit_ = phase_cls.__enter__, phase_cls.__exit__

        def __enter__(self):
            _push("phase:" + self._name, "other")
            return enter(self)

        def __exit__(self, *exc):
            try:
                return exit_(self, *exc)
            finally:
                _pop()

        phase_cls.__enter__ = __enter__
        phase_cls.__exit__ = __exit__

    def _patch_http(module) -> None:
        _wrap(module._Handler, "_dispatch", "http.dispatch", root_op=_request_op)
        _wrap(module, "register_from_spec", "spec.register")
        _wrap(module, "hfl_validation_and_model", "spec.validation_build")
        _wrap(module, "load_training_log", "io.load_log")
        _wrap(module, "load_vfl_training_log", "io.load_log")

    def _patch_cluster(module) -> None:
        handler = module._RouterHandler
        _wrap(handler, "_dispatch", "router.dispatch", root_op=_request_op)
        _wrap(handler, "_proxy_raw", "router.proxy")

    def _patch_service(module) -> None:
        service = module.EvaluationService
        _wrap(service, "query", "service.query")
        _wrap(service, "ingest", "service.ingest")

    def _patch_cache(module) -> None:
        _wrap(module.ResultCache, "get", "cache.get")
        _wrap(module.ResultCache, "put", "cache.put")
        _wrap(module.RunDigest, "update_hfl", "cache.digest_update")
        _wrap(module.RunDigest, "update_vfl", "cache.digest_update")

    def _patch_streaming(module) -> None:
        _wrap(module.StreamingHFLEstimator, "ingest", "estimator.ingest.digfl")
        _wrap(module.StreamingVFLEstimator, "ingest", "estimator.ingest.digfl_vfl")

    def _patch_gtg(module) -> None:
        _wrap(module.StreamingGTGShapley, "ingest", "estimator.ingest.gtg")

    def _patch_dpvs(module) -> None:
        _wrap(module.StreamingDPVSEstimator, "ingest", "estimator.ingest.dpvs")

    def _patch_coalitions(module) -> None:
        value = module.CoalitionValuer.value

        @functools.wraps(value)
        def counted_value(self, coalition):
            # A call that evaluated nothing was served from the valuer's
            # coalition cache; the span's name records which it was.
            before = self.evaluations
            _push("coalition.value", "other")
            try:
                return value(self, coalition)
            finally:
                _pop(None if self.evaluations > before else "coalition.cache_hit")

        module.CoalitionValuer.value = counted_value

    def _patch_wal(module) -> None:
        _wrap(module.WriteAheadLog, "append", "wal.append")

    _PATCHES = {
        "repro.obs.profile": _patch_profile,
        "repro.serve.http": _patch_http,
        "repro.serve.cluster": _patch_cluster,
        "repro.serve.service": _patch_service,
        "repro.serve.cache": _patch_cache,
        "repro.serve.streaming": _patch_streaming,
        "repro.estimators.gtg": _patch_gtg,
        "repro.estimators.dpvs": _patch_dpvs,
        "repro.estimators._coalitions": _patch_coalitions,
        "repro.serve.wal": _patch_wal,
    }

    class _PatchingLoader(importlib.abc.Loader):
        def __init__(self, inner, patch) -> None:
            self.inner = inner
            self.patch = patch

        def create_module(self, spec):
            return self.inner.create_module(spec)

        def exec_module(self, module) -> None:
            self.inner.exec_module(module)
            self.patch(module)

    class _PatchingFinder(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            patch = _PATCHES.get(name)
            if patch is None:
                return None
            for finder in sys.meta_path:
                if finder is self or not hasattr(finder, "find_spec"):
                    continue
                spec = finder.find_spec(name, path, target)
                if spec is not None:
                    spec.loader = _PatchingLoader(spec.loader, patch)
                    return spec
            return None

    def _dump() -> None:
        if not _spans:
            return
        path = os.path.join(_OUT, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": _spans}, fh)

    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_dump)
