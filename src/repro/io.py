"""Persistence for training logs and contribution reports.

DIG-FL's whole premise is "evaluate from the training log", so the log must
outlive the training process: the server archives it per round and any
auditor replays the estimators later.  Logs serialise to a single ``.npz``
(arrays stay binary, metadata rides along as JSON); contribution reports
serialise to plain JSON for downstream dashboards.

Saved logs embed a SHA-256 content checksum over every array, verified on
load — a silently bit-rotted or truncated log would otherwise surface as
subtly wrong contribution scores rather than an error.  Files written
before the checksum existed still load, with a :class:`UserWarning`;
unreadable or mismatching files raise
:class:`TrainingLogIntegrityError`, which the checkpoint/resume machinery
in :mod:`repro.robust.checkpoint` relies on to refuse corrupt state.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.core.contribution import ContributionReport
from repro.hfl.log import EpochRecord, TrainingLog
from repro.vfl.log import VFLEpochRecord, VFLTrainingLog

_HFL_FORMAT = "repro.hfl.training_log.v1"
_VFL_FORMAT = "repro.vfl.training_log.v1"
_REPORT_FORMAT = "repro.contribution_report.v1"


class TrainingLogIntegrityError(ValueError):
    """A training-log file is unreadable, truncated, or fails its checksum."""


def hash_arrays(digest, arrays: dict[str, np.ndarray]) -> None:
    """Feed named arrays (name, dtype, shape, raw bytes) into ``digest``.

    This is *the* array-hashing scheme of the repo: the embedded ``.npz``
    checksums and the incremental per-epoch digests of
    :mod:`repro.serve.cache` both use it, so a streamed run and a
    round-tripped file agree on content identity.
    """
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())


def _content_checksum(arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and raw bytes."""
    digest = hashlib.sha256()
    hash_arrays(digest, arrays)
    return digest.hexdigest()


def json_checksum(payload) -> str:
    """SHA-256 of a JSON-serialisable payload in canonical form.

    Canonical = sorted keys, no whitespace — so the checksum is a pure
    function of the *content*, not of dict insertion order or formatting.
    The write-ahead log of :mod:`repro.serve.wal` stamps every record
    with this, making a torn or bit-rotted line detectable on replay,
    exactly as :func:`hash_arrays` does for the array payloads the WAL's
    ingested-prefix digests summarise.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _name(source: str | Path | BinaryIO) -> str:
    """How messages name a log: its path, or a file object's ``name``."""
    return str(getattr(source, "name", source))


def _read_log(
    source: str | Path | BinaryIO, fmt: str, what: str
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify one saved log: ``(meta, arrays)``.

    Every way the archive can fail to read — not a zip, truncated, a
    member that fails its CRC or does not inflate — is a
    :class:`TrainingLogIntegrityError`; a readable file of another
    format is a ``ValueError`` naming ``what`` was expected.
    """
    path = _name(source)
    try:
        with np.load(source, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {name: data[name] for name in data.files if name != "meta"}
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, ValueError) as exc:
        raise TrainingLogIntegrityError(
            f"{path} is not a readable training log (corrupt or truncated): {exc}"
        ) from exc
    if meta.get("format") != fmt:
        raise ValueError(
            f"{path} is not {what} training log (format={meta.get('format')!r})"
        )
    _verify_checksum(path, meta, arrays)
    return meta, arrays


def _verify_checksum(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Check the embedded checksum; warn on legacy files that lack one."""
    expected = meta.get("checksum")
    if expected is None:
        warnings.warn(
            f"{path} has no embedded checksum (written before integrity "
            "checking existed); loading without verification",
            UserWarning,
            stacklevel=4,
        )
        return
    actual = _content_checksum(arrays)
    if actual != expected:
        raise TrainingLogIntegrityError(
            f"{path} failed its integrity check "
            f"(checksum {actual[:12]}… != recorded {expected[:12]}…)"
        )


def _hfl_arrays(log: TrainingLog) -> dict[str, np.ndarray]:
    """The array payload of an HFL log, as :func:`save_training_log` writes it."""
    arrays = {
        "theta_before": np.stack([r.theta_before for r in log.records]),
        "local_updates": np.stack([r.local_updates for r in log.records]),
        "weights": np.stack([r.weights for r in log.records]),
        "participation": np.stack(
            [r.participation_mask() for r in log.records]
        ).astype(np.uint8),
    }
    if any(r.applied_update is not None for r in log.records):
        # Robust aggregators apply a G_t that is not weights @ updates; the
        # stored vector (with per-round presence flags) keeps the loaded
        # trajectory exact.  Rounds without one store their linear G_t.
        arrays["applied_update"] = np.stack(
            [
                r.applied_update if r.applied_update is not None else r.global_update
                for r in log.records
            ]
        )
        arrays["applied_mask"] = np.array(
            [r.applied_update is not None for r in log.records], dtype=np.uint8
        )
    return arrays


def training_log_checksum(log: TrainingLog) -> str:
    """The SHA-256 content checksum :func:`save_training_log` would embed.

    Computable without touching disk, so an in-memory log and its saved
    ``.npz`` share one content identity — :mod:`repro.serve` keys its
    result cache on it.
    """
    if log.n_epochs == 0:
        raise ValueError("cannot checksum an empty training log")
    return _content_checksum(_hfl_arrays(log))


def save_training_log(log: TrainingLog, path: str | Path) -> None:
    """Write an HFL training log to ``path`` (``.npz``), checksummed."""
    if log.n_epochs == 0:
        raise ValueError("refusing to save an empty training log")
    meta = {
        "format": _HFL_FORMAT,
        "participant_ids": log.participant_ids,
        "epochs": [r.epoch for r in log.records],
        "lrs": [r.lr for r in log.records],
        "val_losses": [r.val_loss for r in log.records],
        "val_accuracies": [r.val_accuracy for r in log.records],
    }
    arrays = _hfl_arrays(log)
    meta["checksum"] = _content_checksum(arrays)
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


def _mask_or_none(participation, t: int) -> np.ndarray | None:
    """Round ``t``'s stored mask, collapsed to ``None`` when everyone arrived.

    ``participation`` is absent in logs written before the runtime existed
    (format v1 files predating the mask) — treat those as full attendance.
    """
    if participation is None:
        return None
    mask = participation[t].astype(bool)
    return None if mask.all() else mask


def load_training_log(source: str | Path | BinaryIO) -> TrainingLog:
    """Read an HFL training log written by :func:`save_training_log`.

    ``source`` is a path or a binary file object (messages name it by its
    ``name`` attribute).  Verifies the embedded content checksum (legacy
    files without one load with a warning); unreadable or mismatching
    files raise :class:`TrainingLogIntegrityError`.
    """
    meta, arrays = _read_log(source, _HFL_FORMAT, "an HFL")
    log = TrainingLog(participant_ids=list(meta["participant_ids"]))
    theta_before = arrays["theta_before"]
    local_updates = arrays["local_updates"]
    weights = arrays["weights"]
    participation = arrays.get("participation")
    applied = arrays.get("applied_update")
    applied_mask = arrays.get("applied_mask")
    for t in range(len(meta["epochs"])):
        log.records.append(
            EpochRecord(
                epoch=int(meta["epochs"][t]),
                lr=float(meta["lrs"][t]),
                theta_before=theta_before[t],
                local_updates=local_updates[t],
                weights=weights[t],
                val_loss=float(meta["val_losses"][t]),
                val_accuracy=float(meta["val_accuracies"][t]),
                participation=_mask_or_none(participation, t),
                applied_update=(
                    applied[t]
                    if applied is not None and bool(applied_mask[t])
                    else None
                ),
            )
        )
    return log


def _vfl_arrays(log: VFLTrainingLog) -> dict[str, np.ndarray]:
    """The array payload of a VFL log, as :func:`save_vfl_training_log` writes it."""
    return {
        "theta_before": np.stack([r.theta_before for r in log.records]),
        "train_gradient": np.stack([r.train_gradient for r in log.records]),
        "val_gradient": np.stack([r.val_gradient for r in log.records]),
        "weights": np.stack([r.weights for r in log.records]),
        "participation": np.stack(
            [r.participation_mask() for r in log.records]
        ).astype(np.uint8),
    }


def vfl_training_log_checksum(log: VFLTrainingLog) -> str:
    """The SHA-256 content checksum :func:`save_vfl_training_log` would embed."""
    if log.n_epochs == 0:
        raise ValueError("cannot checksum an empty training log")
    return _content_checksum(_vfl_arrays(log))


def save_vfl_training_log(log: VFLTrainingLog, path: str | Path) -> None:
    """Write a VFL training log to ``path`` (``.npz``), checksummed."""
    if log.n_epochs == 0:
        raise ValueError("refusing to save an empty training log")
    meta = {
        "format": _VFL_FORMAT,
        "active_parties": log.active_parties,
        "feature_blocks": [b.tolist() for b in log.feature_blocks],
        "epochs": [r.epoch for r in log.records],
        "lrs": [r.lr for r in log.records],
        "train_losses": [r.train_loss for r in log.records],
        "val_losses": [r.val_loss for r in log.records],
    }
    arrays = _vfl_arrays(log)
    meta["checksum"] = _content_checksum(arrays)
    np.savez_compressed(path, meta=json.dumps(meta), **arrays)


def load_vfl_training_log(source: str | Path | BinaryIO) -> VFLTrainingLog:
    """Read a VFL training log written by :func:`save_vfl_training_log`.

    ``source`` and the integrity semantics match
    :func:`load_training_log`: checksums are verified, legacy files warn,
    corruption raises :class:`TrainingLogIntegrityError`.
    """
    meta, arrays = _read_log(source, _VFL_FORMAT, "a VFL")
    log = VFLTrainingLog(
        feature_blocks=[np.array(b, dtype=np.int64) for b in meta["feature_blocks"]],
        active_parties=list(meta["active_parties"]),
    )
    theta_before = arrays["theta_before"]
    train_gradient = arrays["train_gradient"]
    val_gradient = arrays["val_gradient"]
    weights = arrays["weights"]
    participation = arrays.get("participation")
    for t in range(len(meta["epochs"])):
        log.records.append(
            VFLEpochRecord(
                epoch=int(meta["epochs"][t]),
                lr=float(meta["lrs"][t]),
                theta_before=theta_before[t],
                train_gradient=train_gradient[t],
                val_gradient=val_gradient[t],
                weights=weights[t],
                train_loss=float(meta["train_losses"][t]),
                val_loss=float(meta["val_losses"][t]),
                participation=_mask_or_none(participation, t),
            )
        )
    return log


def save_report(report: ContributionReport, path: str | Path) -> None:
    """Write a contribution report as JSON (per-epoch matrix included)."""
    payload = {
        "format": _REPORT_FORMAT,
        "method": report.method,
        "participant_ids": report.participant_ids,
        "totals": report.totals.tolist(),
        "per_epoch": None if report.per_epoch is None else report.per_epoch.tolist(),
        "cost": report.ledger.summary(),
        "extra": {k: v for k, v in report.extra.items() if _json_safe(v)},
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_report(path: str | Path) -> ContributionReport:
    """Read a contribution report written by :func:`save_report`.

    The cost ledger is not round-tripped (wall-clock is not portable);
    the loaded report carries a fresh empty ledger.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != _REPORT_FORMAT:
        raise ValueError(
            f"{path} is not a contribution report "
            f"(format={payload.get('format')!r})"
        )
    per_epoch = payload["per_epoch"]
    return ContributionReport(
        method=payload["method"],
        participant_ids=list(payload["participant_ids"]),
        totals=np.array(payload["totals"], dtype=np.float64),
        per_epoch=None if per_epoch is None else np.array(per_epoch, dtype=np.float64),
        extra=dict(payload.get("extra", {})),
    )


def _json_safe(value) -> bool:
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True
