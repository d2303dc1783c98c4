"""Fig. 7: the effect of the DIG-FL reweight mechanism on convergence.

Two settings as in Sec. V-E: CIFAR10-like with non-IID participants and
MOTOR-like with mislabeled participants.  For each fraction of low-quality
participants, train plain FedSGD and DIG-FL-reweighted FedSGD and report
final validation accuracy; for the worst case, also emit the per-epoch
convergence curves (Fig. 7 b/d).
"""

from __future__ import annotations

import zlib

from repro.core import DIGFLReweighter
from repro.experiments.common import ExperimentReport
from repro.experiments.workloads import build_hfl_workload
from repro.utils.rng import derive_seed


def cell_seed(seed: int, dataset: str, kind: str, m: int) -> int:
    """The training seed of one Fig. 7 cell, the same in every process.

    The setting is mixed in by CRC-32, not ``hash()``: Python salts str
    hashes per process, which made the figure change from run to run.
    """
    return derive_seed(seed, zlib.crc32(f"{dataset}/{kind}".encode()), m)


def run_reweight(
    *,
    settings: tuple[tuple[str, str], ...] = (
        ("cifar10", "noniid"),
        ("motor", "mislabeled"),
    ),
    n_parties: int = 5,
    ms: tuple[int, ...] = (0, 2, 4),
    epochs: int = 25,
    noniid_max_classes: int = 2,
    seed: int = 0,
) -> ExperimentReport:
    """Accuracy-vs-m rows plus convergence curves for the largest m.

    Non-IID participants are restricted to ``noniid_max_classes`` classes:
    the Fig. 7 effect needs sharply skewed parties (with mild skew,
    full-batch FedSGD aggregation is already close to training on the
    union, and reweighting has nothing to fix).
    """
    report = ExperimentReport(name="reweight", paper_reference="Fig. 7")
    for dataset, kind in settings:
        for m in ms:
            base = build_hfl_workload(
                dataset,
                n_parties=n_parties,
                n_mislabeled=m if kind == "mislabeled" else 0,
                n_noniid=m if kind == "noniid" else 0,
                noniid_max_classes=noniid_max_classes if kind == "noniid" else None,
                epochs=epochs,
                seed=cell_seed(seed, dataset, kind, m),
            )
            fed = base.federation
            reweighted = base.trainer.train(
                fed.locals,
                fed.validation,
                reweighter=DIGFLReweighter(fed.validation),
                track_validation=True,
            )
            acc_plain = float(base.result.log.records[-1].val_accuracy)
            acc_reweight = float(reweighted.log.records[-1].val_accuracy)
            report.add(
                {"dataset": dataset, "kind": kind, "m": m},
                {"acc_fedsgd": acc_plain, "acc_digfl": acc_reweight},
            )
            if m == max(ms):
                plain_curve = base.result.log.val_accuracy_curve()
                reweight_curve = reweighted.log.val_accuracy_curve()
                for t in range(epochs):
                    report.add(
                        {"dataset": dataset, "kind": kind, "m": m, "epoch": t + 1},
                        {
                            "acc_fedsgd": float(plain_curve[t]),
                            "acc_digfl": float(reweight_curve[t]),
                        },
                    )
    report.notes.append(
        "Expected shape per Fig. 7: plain FedSGD degrades as m grows; the "
        "reweight mechanism recovers most of the lost accuracy and "
        "stabilises convergence."
    )
    return report
