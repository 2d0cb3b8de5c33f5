"""K-fold cross-validation for the explanation classifier.

Used as an over-fitting guard (Section 4.3): explanations whose
cross-validated accuracy is poor are discarded in favour of the fine-grained
lookup table or the simpler baseline strategies.
"""

from __future__ import annotations

from typing import Sequence

from repro.explain.dataset import LabeledSample
from repro.explain.decision_tree import DecisionTree
from repro.utils.rng import SeededRng

#: number of cross-validation folds.
FOLDS = 5


def cross_validate(
    samples: Sequence[LabeledSample],
    attribute_names: Sequence[str],
    rng: SeededRng | None = None,
) -> float:
    """Return the mean held-out accuracy over :data:`FOLDS` folds.

    Falls back to fitting on everything (accuracy on the training set) when
    there are too few samples to make folding meaningful.
    """
    samples = list(samples)
    if len(samples) < FOLDS * 2:
        tree = DecisionTree().fit(samples, attribute_names)
        return tree.accuracy(samples)
    rng = rng or SeededRng(0)
    shuffled = list(samples)
    rng.shuffle(shuffled)
    fold_size = len(shuffled) // FOLDS
    accuracies: list[float] = []
    for fold in range(FOLDS):
        start = fold * fold_size
        end = start + fold_size if fold < FOLDS - 1 else len(shuffled)
        held_out = shuffled[start:end]
        training = shuffled[:start] + shuffled[end:]
        tree = DecisionTree().fit(training, attribute_names)
        accuracies.append(tree.accuracy(held_out))
    return sum(accuracies) / len(accuracies)
