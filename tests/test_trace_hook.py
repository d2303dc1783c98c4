"""The benchmark's span recorder still finds the request core it patches.

``loadbench/trace_hook/sitecustomize.py`` wraps names of the serving
modules by attribute as they import — ``_Handler._dispatch``,
``_RouterHandler._dispatch`` and ``_proxy_raw``, ``register_from_spec``
and friends.  A rename in ``repro.serve`` would break every traced
benchmark server at import, so this boots a worker behind a
:class:`StaticTopology` router in a fresh interpreter with the hook
armed, sends one POST and one GET through the router, and checks the
spans each patched name records.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.io import save_vfl_training_log

pytestmark = pytest.mark.timeout(300)

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
from http.client import HTTPConnection
from repro.serve import (
    ClusterRouter, EvaluationHTTPServer, EvaluationService, StaticTopology,
)

worker = EvaluationHTTPServer(("127.0.0.1", 0), EvaluationService())
worker.serve_background()
router = ClusterRouter(
    ("127.0.0.1", 0), StaticTopology({0: ("127.0.0.1", worker.port)})
)
router.serve_background()
statuses = []
for method, path, body in (
    ("POST", "/runs", json.dumps(
        {"kind": "vfl", "log_path": sys.argv[1], "run_id": "traced"})),
    ("GET", "/runs/traced/leaderboard", None),
):
    conn = HTTPConnection("127.0.0.1", router.port, timeout=60)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    response.read()
    statuses.append(response.status)
    conn.close()
router.shutdown()
router.server_close()
worker.shutdown()
worker.server_close()
worker.service.close()
print(json.dumps(statuses))
"""


def test_traced_servers_record_every_patched_layer(vfl_result, tmp_path):
    log_path = tmp_path / "vfl_run.npz"
    save_vfl_training_log(vfl_result.log, log_path)
    out = tmp_path / "spans"
    out.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "loadbench" / "trace_hook"), str(ROOT / "src")]
        ),
        LOADBENCH_TRACE_OUT=str(out),
    )
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(log_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [201, 200]
    names = {
        span[0]
        for dump in out.glob("spans-*.json")
        for span in json.loads(dump.read_text())["spans"]
    }
    assert {
        "http.dispatch",
        "router.dispatch",
        "router.proxy",
        "spec.register",
    } <= names
