"""Orchestration of the explanation phase (Sections 4.3 and 5.2).

For each table touched by the workload the explainer:

1. takes the frequently used WHERE-clause attributes of the table
   (pre-computed by :func:`repro.workload.analysis.frequent_attributes`);
2. builds the training set of (attribute values, partition label) pairs from
   the graph phase's assignment;
3. runs correlation-based feature selection to keep only attributes that
   actually predict the partition label;
4. trains a C4.5-style decision tree with pruning, estimating its accuracy by
   cross-validation;
5. extracts and simplifies the root-to-leaf rules into a :class:`RuleSet`.

The per-table rule sets together form the candidate *range-predicate
partitioning* that the final validation phase compares against the lookup
table, hash partitioning, and full replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.database import Database
from repro.explain.crossval import cross_validate
from repro.explain.dataset import Dataset, build_training_sets
from repro.explain.decision_tree import DecisionTree
from repro.explain.feature_selection import select_attributes
from repro.explain.rules import PredicateRule, RuleSet, simplify_rules
from repro.graph.assignment import PartitionAssignment
from repro.utils.rng import SeededRng
from repro.workload.analysis import frequent_attributes
from repro.workload.trace import Workload


@dataclass
class ExplainerOptions:
    """Knobs for the explanation phase."""

    #: attributes must appear in at least this fraction of a table's statements.
    min_attribute_frequency: float = 0.1
    #: maximum training tuples per table (the paper uses a few hundred).
    max_samples_per_table: int = 2000
    #: random seed for sampling and cross-validation shuffling.
    seed: int = 0


@dataclass
class TableExplanation:
    """Explanation result for one table."""

    table: str
    rule_set: RuleSet
    selected_attributes: tuple[str, ...]
    candidate_attributes: tuple[str, ...]
    training_samples: int
    cross_validated_accuracy: float
    tree_text: str = ""

    @property
    def usable(self) -> bool:
        """Whether the explanation can route queries (some attribute was predictive)."""
        return bool(self.selected_attributes) or self.rule_set.is_trivial


@dataclass
class Explanation:
    """Explanations for every table the workload touches."""

    tables: dict[str, TableExplanation] = field(default_factory=dict)

    def rule_sets(self) -> dict[str, RuleSet]:
        """Mapping of table -> rule set."""
        return {table: explanation.rule_set for table, explanation in self.tables.items()}

    def describe(self) -> str:
        """Human-readable description of every table's rules."""
        return "\n\n".join(
            self.tables[table].rule_set.describe() for table in sorted(self.tables)
        )


class Explainer:
    """Builds an :class:`Explanation` from a partition assignment."""

    def __init__(self, options: ExplainerOptions | None = None) -> None:
        self.options = options or ExplainerOptions()

    def explain(
        self,
        assignment: PartitionAssignment,
        database: Database,
        workload: Workload,
    ) -> Explanation:
        """Run the explanation phase."""
        options = self.options
        rng = SeededRng(options.seed)
        schema_tables = {
            table.name: table.column_names for table in database.schema.tables
        }
        frequents = frequent_attributes(
            workload, schema_tables, min_frequency=options.min_attribute_frequency
        )
        candidate_attributes: dict[str, tuple[str, ...]] = {}
        for table, attribute_frequencies in frequents.items():
            if not database.schema.has_table(table):
                continue
            table_columns = set(database.schema.table(table).column_names)
            columns = tuple(
                frequency.column
                for frequency in attribute_frequencies
                if frequency.column in table_columns
            )
            if columns:
                candidate_attributes[table] = columns
        datasets = build_training_sets(
            assignment,
            database,
            candidate_attributes,
            max_samples_per_table=options.max_samples_per_table,
            rng=rng.fork("dataset"),
        )
        explanation = Explanation()
        for table, dataset in datasets.items():
            explanation.tables[table] = self._explain_table(table, dataset, rng)
        return explanation

    # -- single table -------------------------------------------------------------------
    def _explain_table(self, table: str, dataset: Dataset, rng: SeededRng) -> TableExplanation:
        labels = set(dataset.labels)
        majority = dataset.majority_label()
        if len(labels) == 1:
            # Every training tuple of the table has the same label (e.g. the
            # fully replicated TPC-C item table): the explanation is the
            # trivial "<empty>: partition X" rule from the paper.
            rule_set = RuleSet(
                table,
                (PredicateRule((), majority, len(dataset), 0.0),),
                default_label=majority,
                attributes=(),
            )
            return TableExplanation(
                table=table,
                rule_set=rule_set,
                selected_attributes=(),
                candidate_attributes=dataset.attribute_names,
                training_samples=len(dataset),
                cross_validated_accuracy=1.0,
            )
        selected = select_attributes(dataset.samples, dataset.attribute_names)
        if not selected:
            rule_set = RuleSet(
                table,
                (PredicateRule((), majority, len(dataset), 1.0 - dataset.label_counts()[majority] / len(dataset)),),
                default_label=majority,
                attributes=(),
            )
            return TableExplanation(
                table=table,
                rule_set=rule_set,
                selected_attributes=(),
                candidate_attributes=dataset.attribute_names,
                training_samples=len(dataset),
                cross_validated_accuracy=dataset.label_counts()[majority] / len(dataset),
            )
        accuracy = cross_validate(dataset.samples, selected, rng=rng.fork((table, "cv")))
        tree = DecisionTree().fit(dataset.samples, selected)
        rules = simplify_rules(tree.rules())
        rule_set = RuleSet(
            table,
            tuple(rules),
            default_label=majority,
            attributes=tuple(selected),
        )
        return TableExplanation(
            table=table,
            rule_set=rule_set,
            selected_attributes=tuple(selected),
            candidate_attributes=dataset.attribute_names,
            training_samples=len(dataset),
            cross_validated_accuracy=accuracy,
            tree_text=tree.to_text(),
        )
