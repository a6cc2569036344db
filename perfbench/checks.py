"""Output checks: the score each check reports as ``output_f1``."""

from __future__ import annotations

import numpy as np


class CheckFailed(Exception):
    """An iteration's outputs are wrong; ``score`` is what the check
    measured all the same."""

    def __init__(self, msg: str, score: float):
        super().__init__(msg)
        self.score = score


def keep_f1(pred_keep: np.ndarray, label_keep: np.ndarray) -> float:
    """F1 of the pipeline's keep/drop verdicts, with keep as positive."""
    tp = int(np.sum(pred_keep & label_keep))
    fp = int(np.sum(pred_keep & ~label_keep))
    fn = int(np.sum(~pred_keep & label_keep))
    return 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
