"""``repro.serve`` re-exports its public names lazily (PEP 562).

Every name the package exported when it imported all of its submodules
eagerly must still import from it, and a client that needs only
``repro.serve.http`` must not pay for the cluster, replication and chaos
modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serve

ROOT = Path(__file__).resolve().parents[1]

# The package's exports while it imported every submodule eagerly, less
# QueryFailed and CircuitOpen, deleted with the query-side breakers.
EXPORTED_BEFORE = [
    "AdmissionQueue",
    "Backoff",
    "CacheMemo",
    "ChaosError",
    "ChaosPolicy",
    "CircuitBreaker",
    "ClusterRouter",
    "ClusterSupervisor",
    "ContributionPublisher",
    "Deadline",
    "DeadlineExceeded",
    "EvaluationHTTPServer",
    "EvaluationService",
    "FlakyProxy",
    "HashRing",
    "RecoveryReport",
    "ReplicationError",
    "ResizePlan",
    "ResultCache",
    "RetryPolicy",
    "RunDigest",
    "ServiceClosed",
    "ServiceOverloaded",
    "ShardTimeout",
    "ShardUnavailable",
    "StaticTopology",
    "StreamingHFLEstimator",
    "StreamingVFLEstimator",
    "WalApplier",
    "WalFollower",
    "WorkerController",
    "WorkerSpec",
    "WriteAheadLog",
    "fingerprint_arrays",
    "inject_chaos",
    "recover",
    "register_from_spec",
    "scan_wal",
    "serve",
    "serve_cluster",
    "validate_wal_record",
]


def test_all_is_unchanged():
    assert repro.serve.__all__ == EXPORTED_BEFORE


@pytest.mark.parametrize("name", EXPORTED_BEFORE)
def test_every_name_still_imports(name):
    namespace: dict = {}
    exec(f"from repro.serve import {name}", namespace)
    assert namespace[name] is getattr(repro.serve, name)
    assert name in dir(repro.serve)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.serve.no_such_name  # noqa: B018


def test_the_http_client_does_not_load_the_cluster():
    probe = (
        "import json, sys\n"
        "import repro.serve.http\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith('repro.serve'))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "repro.serve.http" in loaded
    assert not loaded & {
        "repro.serve.cluster",
        "repro.serve.replication",
        "repro.serve.chaos",
        "repro.serve.ring",
        "repro.serve.wal",
    }
