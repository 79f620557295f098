from __future__ import annotations

import pytest

from streamrag import orchestrator
from streamrag.core import SessionConfig, Strategy
from streamrag.labeling import SimilarityContext
from streamrag.orchestrator import Backends, LatencyModel
from streamrag.retrieval import KgStore, index_documents
from streamrag.synth import FixtureWorld


@pytest.fixture(scope="session")
def world() -> FixtureWorld:
    return FixtureWorld()


@pytest.fixture(scope="session")
def index(world):
    return index_documents(world.corpus)


@pytest.fixture(scope="session")
def kg_store(world):
    return KgStore.from_records(world.kg_records)


@pytest.fixture(scope="session")
def backends(index, kg_store):
    return Backends(index=index, kg_store=kg_store)


@pytest.fixture(scope="session")
def reflect_ctx(index, kg_store):
    return SimilarityContext(index=index, compare_k=5, retrieve_k=50, ordered=True,
                             kg_store=kg_store)


@pytest.fixture(scope="session")
def similarity_ctx(index):
    return SimilarityContext(index=index, compare_k=5, retrieve_k=50, ordered=False)


@pytest.fixture(scope="session")
def headline_latency() -> LatencyModel:
    """Constant stage delays matching the headline open-book breakdown."""
    return LatencyModel(
        query_gen=590, web_fetch=2780, chunk_rerank=0, kg_lookup=2780,
        response_gen=2520, response_tail=0, seed=0,
    )


@pytest.fixture
def sessions(monkeypatch) -> list:
    """Every ``orchestrator._Session`` that runs while the test does, in order,
    so a test can read each session's tool calls after its run."""
    made = []

    class Recorded(orchestrator._Session):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(orchestrator, "_Session", Recorded)
    return made


def session_config(strategy: Strategy, **kwargs) -> SessionConfig:
    defaults = dict(block_ms=500, ref_length_tokens=120, rng_seed=0)
    defaults.update(kwargs)
    return SessionConfig(strategy=strategy, **defaults)

