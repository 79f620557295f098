"""Trace-driven streaming tool-query orchestration engine and latency simulator."""

from .core import (
    NO_QUERY,
    KgDomain,
    KgQuery,
    SessionConfig,
    Strategy,
    Tool,
    ToolQuery,
    UtteranceTrace,
    Word,
    blocks_of,
)
from .orchestrator import (
    Backends,
    LatencyModel,
    SessionOutcome,
    run_batch,
    run_session,
)
from .retrieval import (
    DocIndex,
    KgStore,
    ReferenceBundle,
    WebResult,
    assemble_references,
    chunk_and_rerank,
    index_documents,
    kg_lookup,
    web_search,
)

__version__ = "0.1.0"

__all__ = [
    "NO_QUERY",
    "Backends",
    "DocIndex",
    "KgDomain",
    "KgQuery",
    "KgStore",
    "LatencyModel",
    "ReferenceBundle",
    "SessionConfig",
    "SessionOutcome",
    "Strategy",
    "Tool",
    "ToolQuery",
    "UtteranceTrace",
    "WebResult",
    "Word",
    "assemble_references",
    "blocks_of",
    "chunk_and_rerank",
    "index_documents",
    "kg_lookup",
    "run_batch",
    "run_session",
    "web_search",
    "__version__",
]
