"""Unit tests for the baseline comparators (keyed diff, similarity linking, trivial).

This file is the one place outside :mod:`repro.baselines` that may use the
raw comparator classes directly — it tests them.  Everything else goes
through the :class:`repro.baselines.Explainer` protocol, which the boundary
test at the bottom enforces repo-wide.
"""

import re
from pathlib import Path

import pytest

from repro.baselines import (
    Explainer,
    KeyedDiff,
    KeyedDiffExplainer,
    SimilarityExplainer,
    SimilarityLinker,
    TrivialExplainer,
    baseline_explainer,
    run_trivial_baseline,
)
from repro.dataio import Schema, Table
from repro.datagen.running_example import (
    reference_alignment,
    running_example_instance,
)


@pytest.fixture
def stable_key_snapshots():
    schema = Schema(["key", "value", "status"])
    source = Table(schema, [("k1", "10", "old"), ("k2", "20", "old"), ("k3", "30", "old")])
    target = Table(schema, [("k2", "20", "new"), ("k1", "11", "old"), ("k9", "90", "new")])
    return source, target


class TestKeyedDiff:
    def test_alignment_and_changes_with_stable_keys(self, stable_key_snapshots):
        source, target = stable_key_snapshots
        report = KeyedDiff(["key"]).diff(source, target)
        assert report.alignment == {0: 1, 1: 0}
        assert report.deleted_source_ids == (2,)
        assert report.inserted_target_ids == (2,)
        changed = {(c.attribute, c.old_value, c.new_value) for c in report.cell_changes}
        assert ("value", "10", "11") in changed
        assert ("status", "old", "new") in changed
        assert report.n_changed_cells == 2

    def test_description_length_counts_inserts_and_changes(self, stable_key_snapshots):
        source, target = stable_key_snapshots
        report = KeyedDiff(["key"]).diff(source, target)
        # 1 inserted record × 3 attributes + 2 changed cells × 2 values
        assert report.description_length(n_attributes=3) == 3 + 4

    def test_requires_key_attribute(self):
        with pytest.raises(ValueError):
            KeyedDiff([])

    def test_unknown_key_attribute_raises(self, stable_key_snapshots):
        source, target = stable_key_snapshots
        with pytest.raises(Exception):
            KeyedDiff(["missing"]).diff(source, target)

    def test_summary_mentions_counts(self, stable_key_snapshots):
        source, target = stable_key_snapshots
        text = KeyedDiff(["key"]).diff(source, target).summary()
        assert "2 aligned" in text

    def test_breaks_down_under_key_reassignment(self):
        # The motivating failure mode: on the running example the composite key
        # was reassigned, so a keyed diff on ID2 produces a wrong alignment.
        instance = running_example_instance()
        report = KeyedDiff(["ID2"]).diff(instance.source, instance.target)
        reference = reference_alignment()
        wrong = sum(
            1 for source_id, target_id in report.alignment.items()
            if reference.get(source_id) != target_id
        )
        assert wrong > len(report.alignment) / 2
        # and the per-record change script is much longer than Affidavit's
        # 77-cost explanation
        assert report.description_length(instance.n_attributes) > 77


class TestSimilarityLinker:
    def test_links_records_sharing_values(self, stable_key_snapshots):
        source, target = stable_key_snapshots
        result = SimilarityLinker().link(source, target)
        assert result.alignment[1] == 0  # k2 rows share key and value
        assert result.n_aligned >= 2

    def test_one_to_one_matching(self):
        schema = Schema(["v"])
        source = Table(schema, [("a",), ("a",)])
        target = Table(schema, [("a",)])
        result = SimilarityLinker().link(source, target)
        assert result.n_aligned == 1
        assert len(result.deleted_source_ids) == 1

    def test_min_score_threshold(self, stable_key_snapshots):
        source, target = stable_key_snapshots
        result = SimilarityLinker(min_score=3).link(source, target)
        # only exact triples would reach score 3; none exist
        assert result.n_aligned == 0

    def test_invalid_min_score(self):
        with pytest.raises(ValueError):
            SimilarityLinker(min_score=0)

    def test_degrades_on_running_example(self):
        # Val and Unit are transformed, ID1/ID2 reassigned: pure similarity
        # matching cannot recover the full reference alignment.
        instance = running_example_instance()
        result = SimilarityLinker().link(instance.source, instance.target)
        reference = reference_alignment()
        correct = sum(
            1 for source_id, target_id in result.alignment.items()
            if reference.get(source_id) == target_id
        )
        assert correct < len(reference)


class TestTrivialBaseline:
    def test_costs_and_structure(self):
        instance = running_example_instance()
        result = run_trivial_baseline(instance)
        assert result.cost == 112
        assert result.n_deleted == instance.n_source_records
        assert result.n_inserted == instance.n_target_records
        assert result.explanation.is_valid(instance)

    def test_alpha_scaling(self):
        instance = running_example_instance()
        assert run_trivial_baseline(instance, alpha=1.0).cost == 2 * 112
        assert run_trivial_baseline(instance, alpha=0.0).cost == 0


class TestExplainerProtocol:
    def test_all_explainers_satisfy_the_protocol(self):
        for explainer in (KeyedDiffExplainer(), SimilarityExplainer(),
                          TrivialExplainer()):
            assert isinstance(explainer, Explainer)

    def test_registry_lookup_by_tier_name(self):
        assert baseline_explainer("keyed_diff").name == "keyed_diff"
        assert baseline_explainer("trivial").name == "trivial"
        with pytest.raises(KeyError, match="unknown baseline"):
            baseline_explainer("oracle")

    def test_keyed_diff_auto_selects_the_most_distinct_column(self):
        instance = running_example_instance()
        keys = KeyedDiffExplainer().keys_for(instance)
        assert len(keys) == 1
        distinct = len(set(instance.source.column_view(keys[0])))
        for attribute in instance.schema.attributes:
            assert distinct >= len(set(instance.source.column_view(attribute)))

    def test_trivial_explainer_aligns_nothing(self):
        instance = running_example_instance()
        assert TrivialExplainer().align(instance) == {}
        outcome = TrivialExplainer().explain(instance)
        assert outcome.cost == outcome.trivial_cost == 112

    def test_exact_match_filter_keeps_outcomes_valid(self, stable_key_snapshots):
        # Both keyed pairs changed at least one cell between the snapshots,
        # so they are dropped from the explanation's alignment (identity
        # functions cannot map them) while the raw align() still reports
        # them — the honest-cost rule in action.
        source, target = stable_key_snapshots
        from repro.core import ProblemInstance

        instance = ProblemInstance(source=source, target=target)
        explainer = KeyedDiffExplainer(["key"])
        assert explainer.align(instance) == {0: 1, 1: 0}
        outcome = explainer.explain(instance)
        outcome.explanation.validate(instance)
        assert outcome.explanation.alignment == {}
        assert outcome.cost == outcome.trivial_cost

    def test_baseline_answer_at_the_trivial_cost_is_labelled_trivial(
            self, stable_key_snapshots):
        # No keyed pair survives the exact-match filter, so the keyed diff
        # answers with the trivial explanation and says so.
        source, target = stable_key_snapshots
        from repro.core import ProblemInstance

        instance = ProblemInstance(source=source, target=target)
        for explainer in (KeyedDiffExplainer(["key"]), SimilarityExplainer()):
            outcome = explainer.explain(instance)
            assert outcome.cost == outcome.trivial_cost
            assert outcome.provenance.tier == explainer.name
            assert outcome.provenance.confidence == "trivial"

    def test_baseline_answer_below_the_trivial_cost_keeps_its_label(self):
        schema = Schema(["key", "value"])
        source = Table(schema, [("k1", "10"), ("k2", "20"), ("k3", "30")])
        target = Table(schema, [("k1", "10"), ("k2", "20"), ("k4", "40")])
        from repro.core import ProblemInstance

        instance = ProblemInstance(source=source, target=target)
        outcome = KeyedDiffExplainer(["key"]).explain(instance)
        assert outcome.cost < outcome.trivial_cost
        assert outcome.provenance.confidence == "baseline"


class TestExplainerBoundary:
    """Nothing outside repro.baselines may call the raw comparators — the
    Explainer protocol (and the strategy chain) is the supported surface."""

    RAW_CALLS = re.compile(
        r"\b(KeyedDiff|SimilarityLinker|run_trivial_baseline)\s*\("
    )

    def test_raw_baseline_calls_stay_inside_the_package(self):
        root = Path(__file__).resolve().parent.parent
        offenders = []
        for base in ("src/repro", "benchmarks", "examples", "tests"):
            directory = root / base
            if not directory.exists():
                continue
            for path in sorted(directory.rglob("*.py")):
                relative = path.relative_to(root)
                if relative.parts[:3] == ("src", "repro", "baselines"):
                    continue  # the package may use its own internals
                if relative == Path("tests/test_baselines.py"):
                    continue  # this file tests the raw classes
                for match in self.RAW_CALLS.finditer(path.read_text(encoding="utf-8")):
                    offenders.append(f"{relative}: {match.group(0)}")
        assert not offenders, (
            "raw baseline internals used outside repro.baselines "
            f"(go through the Explainer protocol instead): {offenders}"
        )
