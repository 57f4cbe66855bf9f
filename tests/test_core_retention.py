"""What a search leaves on the heap.

The evaluator's blocking LRU keeps the blockings of the most recent search
states; each entry must hold block-id arrays only, never the per-block
:class:`~repro.core.blocking.Block` views the expander builds for the state
it expands.  And a search must not create reference cycles: refcounting
alone frees everything it allocates, which is why the search needs no
garbage-collector tuning.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.core import Affidavit, identity_configuration
from repro.core import affidavit as affidavit_module
from repro.core.blocking import Block, BlockingResult
from repro.core.evaluator import StateEvaluator
from repro.datagen import generate_problem_instance
from repro.datagen.datasets import load_dataset


def _instance(records=150, seed=3):
    table = load_dataset("flight-500k", records, seed=seed)
    return generate_problem_instance(table, eta=0.3, tau=0.3, seed=seed).instance


def _reachable(roots):
    """Every object reachable from *roots* through ``gc.get_referents``,
    not descending into classes, modules or functions."""
    seen = set()
    found = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("columnar", [True, False])
def test_blocking_lru_holds_no_block_views(monkeypatch, columnar):
    evaluators = []

    class RecordingEvaluator(StateEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)

    monkeypatch.setattr(affidavit_module, "StateEvaluator", RecordingEvaluator)
    config = identity_configuration(seed=0, columnar_cache=columnar)
    result = Affidavit(config).explain(_instance())
    assert result.expansions > 0
    (evaluator,) = evaluators
    cached = list(evaluator._blocking_cache.values())
    assert cached
    assert all(isinstance(blocking, BlockingResult) for blocking in cached)
    reachable = _reachable(cached)
    assert not [obj for obj in reachable if isinstance(obj, Block)]
    assert not [obj for obj in reachable if isinstance(obj, list)]


def test_search_leaves_no_cyclic_garbage():
    instance = _instance()
    config = identity_configuration(seed=0)
    Affidavit(config).explain(instance)  # warm imports and module caches
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = Affidavit(config).explain(instance)
        del result
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert unreachable == 0
