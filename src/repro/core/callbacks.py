"""Training callbacks and history recording."""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

import numpy as np


@dataclasses.dataclass
class EpochRecord:
    """Metrics recorded at the end of one training epoch.

    Attributes
    ----------
    epoch:
        1-based epoch index.
    loss:
        Mean training loss across classes.
    per_class_loss:
        Training loss of each class's discriminator state.
    train_accuracy, validation_accuracy:
        Classification accuracy on the training / validation split (validation
        is ``None`` when no validation data was supplied).
    gradient_norm:
        Euclidean norm of the concatenated gradient over all classes.
    elapsed_seconds:
        Wall-clock time spent in the epoch.
    """

    epoch: int
    loss: float
    per_class_loss: List[float]
    train_accuracy: float
    validation_accuracy: Optional[float]
    gradient_norm: float
    elapsed_seconds: float


@dataclasses.dataclass
class TrainingHistory:
    """Complete record of a training run."""

    records: List[EpochRecord] = dataclasses.field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def epochs(self) -> List[int]:
        return [r.epoch for r in self.records]

    @property
    def losses(self) -> List[float]:
        return [r.loss for r in self.records]

    @property
    def train_accuracies(self) -> List[float]:
        return [r.train_accuracy for r in self.records]

    @property
    def validation_accuracies(self) -> List[Optional[float]]:
        return [r.validation_accuracy for r in self.records]

    def per_class_losses(self) -> np.ndarray:
        """Array of shape ``(n_epochs, n_classes)`` of per-class losses."""
        return np.array([r.per_class_loss for r in self.records], dtype=float)

    @property
    def final_loss(self) -> float:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].loss

    @property
    def best_validation_accuracy(self) -> Optional[float]:
        accuracies = [r.validation_accuracy for r in self.records if r.validation_accuracy is not None]
        return max(accuracies) if accuracies else None

    def as_dict(self) -> Dict[str, list]:
        """Plain-dict view for serialisation and reporting."""
        return {
            "epoch": self.epochs,
            "loss": self.losses,
            "train_accuracy": self.train_accuracies,
            "validation_accuracy": self.validation_accuracies,
        }


class Callback:
    """Base class for training callbacks (all hooks are optional no-ops)."""

    def on_train_begin(self, trainer) -> None:  # pragma: no cover - trivial
        """Called once before the first epoch."""

    def on_epoch_end(self, trainer, record: EpochRecord) -> None:  # pragma: no cover - trivial
        """Called after each epoch with its metrics."""

    def on_train_end(self, trainer, history: TrainingHistory) -> None:  # pragma: no cover - trivial
        """Called once after the last epoch."""

    def should_stop(self) -> bool:
        """Whether training should halt early after the current epoch."""
        return False


class EarlyStopping(Callback):
    """Stop when the monitored loss has not improved for ``patience`` epochs."""

    def __init__(self, patience: int = 5, min_delta: float = 1e-4) -> None:
        if patience <= 0:
            raise ValueError(f"patience must be positive, got {patience}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self._best = float("inf")
        self._stale_epochs = 0
        self._stop = False

    def on_epoch_end(self, trainer, record: EpochRecord) -> None:
        if record.loss < self._best - self.min_delta:
            self._best = record.loss
            self._stale_epochs = 0
        else:
            self._stale_epochs += 1
            if self._stale_epochs >= self.patience:
                self._stop = True

    def should_stop(self) -> bool:
        return self._stop


class ProgressLogger(Callback):
    """Print one line of metrics per epoch (handy in the examples)."""

    def __init__(self, every: int = 1, prefix: str = "") -> None:
        if every <= 0:
            raise ValueError(f"every must be positive, got {every}")
        self.every = int(every)
        self.prefix = prefix

    def on_epoch_end(self, trainer, record: EpochRecord) -> None:
        if record.epoch % self.every:
            return
        validation = (
            f" val_acc={record.validation_accuracy:.4f}"
            if record.validation_accuracy is not None
            else ""
        )
        print(
            f"{self.prefix}epoch {record.epoch:3d}: loss={record.loss:.4f} "
            f"train_acc={record.train_accuracy:.4f}{validation} "
            f"({record.elapsed_seconds:.2f}s)"
        )


class Timer:
    """Tiny context-free stopwatch used by the trainer."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction or the last reset."""
        return time.perf_counter() - self._start

    def reset(self) -> None:
        self._start = time.perf_counter()
