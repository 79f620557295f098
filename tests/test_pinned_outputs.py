"""Every file the CLI writes on ``fixtures/`` is pinned by its sha256, and so
is every session outcome over a batch of random traces (see below).

The digests were recorded before the search path moved from a doc-major CSR
walk to a term-major inverted index, so a refactor of retrieval (or of
anything else below the CLI) that changes a single output byte fails here.
Manifests hold input digests and config, never paths, so the digests do not
depend on where the checkout or the temporary directory lives. A change that
means to alter outputs must re-record these values and say why.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path

import pytest

from conftest import session_config
from streamrag.cli import cli, generator_factory
from streamrag.core import Strategy
from streamrag.errors import SimulatedFault
from streamrag.orchestrator import Backends, LatencyModel, run_batch
from streamrag.retrieval import KgStore, index_documents
from streamrag.synth import FixtureWorld, random_batch

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# The five manifest.json digests were re-recorded when manifests began to
# record the block size that ran (1000 or 500 ms) instead of null when it came
# from a default; no other byte of any manifest changed. model_triggered's was
# re-recorded again when its web-match mode became a per-strategy default:
# "reflect_ordered" went from true to false, the set mode its trigger runs.
# All five were re-recorded when each manifest began to record only the
# settings its command reads: simulate's lost "negative_prob", and label's
# kept block_ms, negative_prob, reflect_ordered, reflect_top_k, seed and
# top_docs; no value changed and no key was added.
PINNED: dict[str, dict[str, str]] = {
    "closed_book": {
        "events.jsonl": "07cb87a15a905b3a0d90aebe29258cf79c501a73c4b0c07626b155409b726c3e",
        "latency_table.csv": "ecf8be4a4de5e1690501ee012e4ac1581215eac7f4b5f46cf3d4fd3528052232",
        "latency_table.json": "4585d56e9323db1031618ca31fccde6db2208a69cbda4e3ee0317e72a91b2ffd",
        "manifest.json": "5b4c1d454d19552c2ccb13a7e0f6574def0a23e88625e625a7a0e1b478c61b0c",
        "outcomes.jsonl": "08365b42a1a421cbb2dad965289bef18bc77207fef3093236af7570733db8a8a",
    },
    "open_book": {
        "events.jsonl": "eccfd53ca628bb55b66f5f1f0a16fa9e22c98257e6cbdec25a52894f84adbd0e",
        "latency_table.csv": "bde0106587541179c6920258e3710a8f47e33d2141068555dd826666374b9ec0",
        "latency_table.json": "24272154185332a7e687d30703eefd47f83d9263d011090f2cd7ab553ef79acb",
        "manifest.json": "5896b56337d0fec9e47c639e8bdc7a61a2372e6aba0671a0afd65a3ddf41ed79",
        "outcomes.jsonl": "2e37673a4c107473561b37224c571228af8bf1a82376a566905ec835b750f944",
    },
    "fixed_interval": {
        # re-recorded at --block-ms 500 when a script with blocks past an
        # utterance's last became an input error: at its default of 1000 ms,
        # fixed_interval had read the 500 ms fixtures as 1000 ms blocks
        "events.jsonl": "8bb4f1650713eee368474c0b06f49e0e8013f550236a92b6b1ab750c879c1bf3",
        "latency_table.csv": "53f662afc573b358afd47d55bf90c0aac95ea5b44215546f7de19df7266769c1",
        "latency_table.json": "f2044ea955eb9332cb1a965831df1f10c0af3553c2e9c1e82ae8ca7d5598e01c",
        "manifest.json": "a25b17693581c1b132914aa23f1355f7b98ebab59a001f4149037753d55bccc3",
        "outcomes.jsonl": "b5e404b9d3130b012f3f554ffaf63e924aa72172171281a7bc3e1a2d58237aa7",
    },
    "model_triggered": {
        "events.jsonl": "8e0ac809bf0195f35f112bf5cf7279c57d855da767ad9e8edbdae4df039cbc74",
        "latency_table.csv": "eb3edcb231b96b85234539f2a4d1a0ab734a4c54937c8bfff32fa1e7cd4c8d1e",
        "latency_table.json": "99867ee873d7edcf43126e3b949598e61a1aa08539a27f4310169f7569b8f07b",
        "manifest.json": "e61f1eab9b3eea7e79e4d9664edd24b1a6b02ca5e0eac9429111a045530b16b0",
        "outcomes.jsonl": "a1ae203c5647481ad785847d1244388a1e62f812faa7d700fb9916bf685d4f76",
    },
    "label": {
        # re-recorded when the manifest began to record --web-match (default
        # set) as reflect_ordered, and again for block_ms (see above)
        "manifest.json": "31f38afcc9599958d68e1d98e77dcf2597b53e0e127d010b80c50c6b2bd11e60",
        "summary.json": "8c96d3a4142ce379a467c6762357ad5f993dfdd5a78e8c2a7275ae6ce53e37c2",
        "training.jsonl": "8b686afb8ff601a867fa17c8dffe77f006e87196d7c3f9030baed648797aa5bd",
    },
}

INPUTS = ["--traces", str(FIXTURES / "traces.jsonl"), "--corpus", str(FIXTURES / "corpus.jsonl")]


def _command(name: str, out_dir: Path) -> list[str]:
    if name == "label":
        return ["label", *INPUTS, "--seed", "7", "--out-dir", str(out_dir)]
    # the fixtures are scripted for 500 ms blocks, fixed_interval's default is 1000
    block = ["--block-ms", "500"] if name == "fixed_interval" else []
    return ["simulate", *INPUTS, "--kg", str(FIXTURES / "kg.json"),
            "--strategy", name, *block, "--seed", "7", "--out-dir", str(out_dir)]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cli_outputs_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("STREAMRAG_CONFIG", raising=False)
    out = tmp_path / name
    cli.main(args=_command(name, out), standalone_mode=False)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir())}
    assert written == PINNED[name]


# ``report`` of the pinned model_triggered outcomes against the pinned
# open_book ones, judged by fixtures/judgments.jsonl, at --format both.
# Recorded before the CLI's settings were gathered into one table.
REPORT_PINNED: dict[str, str] = {
    "manifest.json": "1a00e6a664c0895fff173f52b082befb74dcc51ce801f483ee0cf8e83205fb26",
    "savings.csv": "ffdb097964db113dbc68ed05604b3f775d00e91a1dbdb5a613b5883af5d21d6d",
    "savings.json": "b903e61dfc13e6df5f3d458b09b786bfb301a2fb3547288ce51a67b132264103",
    "savings_per_utterance.csv": "9c4688658297cce602c1d771d10f450edb585b5a9287b9e440cc8f651821b796",
    "scores.json": "73c5ee479484cb9d1c883204feb9ae683c90cfb13e417adbd43e7d497a764d8f",
}
# the file --format json or csv leaves out
REPORT_OMITS = {"both": None, "json": "savings.csv", "csv": "savings.json"}


@pytest.fixture(scope="module")
def pinned_outcomes(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("pinned")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("STREAMRAG_CONFIG", raising=False)
        for strategy in ("open_book", "model_triggered"):
            cli.main(args=_command(strategy, root / strategy), standalone_mode=False)
    return {s: root / s / "outcomes.jsonl" for s in ("open_book", "model_triggered")}


@pytest.mark.parametrize("out_format", sorted(REPORT_OMITS))
def test_report_outputs_match_pinned_digests(out_format, pinned_outcomes, tmp_path):
    out = tmp_path / "report"
    cli.main(args=["report", "--baseline", str(pinned_outcomes["open_book"]),
                   "--strategy", str(pinned_outcomes["model_triggered"]),
                   "--judgments", str(FIXTURES / "judgments.jsonl"),
                   "--format", out_format, "--out-dir", str(out)], standalone_mode=False)
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir())}
    expected = {name: digest for name, digest in REPORT_PINNED.items()
                if name != REPORT_OMITS[out_format]}
    if out_format != "both":  # the manifest lists the files written
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["outputs"] == sorted(set(expected) - {"manifest.json"})
        del written["manifest.json"], expected["manifest.json"]
    assert written == expected


# --- session-level pins --------------------------------------------------
#
# Every strategy's outcomes, event logs included, over 200 random traces, as
# is and (closed_book has no generator) with a generator that fails on a
# fixed pattern of (utterance, call number). The flaky runs cover failed-query
# records, preemption and cancellation; the sampled stage delays make the
# order of RNG draws show.
# Recorded before the orchestrator's thread objects and the reflector's cache
# entries were merged into one call record.

SESSION_PINS: dict[tuple[str, bool], str] = {
    ("closed_book", False): "a4bc862c1d137f85fbeaf779d0112f34af23bf285692b155bbfe649005519e55",
    ("open_book", False): "c4a90f1e99b9431728ef6da7bba0af3649f4ed9c843b0eb8bcae224582c6d7ba",
    ("open_book", True): "09e114ec11ac10f7c860445a6874fcb040b5db03cb32436dfbd4319dcdaa48e5",
    ("fixed_interval", False): "fe7f3257c266ec1b540e9b00bd75bade223c38c10cf8fa1939a01ba36f73a51e",
    ("fixed_interval", True): "bde5e167ed26a5d21981e9ae68b16d5ad8a85f7c97212a52250c223066a9dbe3",
    ("model_triggered", False): "3eaed72746cea64e15f444d99b8087e60dea7a415c9dd2f12be4a00390b53224",
    ("model_triggered", True): "a8cbeece670671dda4384c63a1a6cdef979ff6c0dd1679697c2277e2362e9915",
}


class FlakyGenerator:
    """Wraps a generator; raises on calls picked by a hash of (utterance, call number)."""

    def __init__(self, inner, utterance_id: str) -> None:
        self._inner = inner
        self._utterance_id = utterance_id
        self._calls = 0

    def generate(self, prefix, prev_web, prev_kg):
        self._calls += 1
        if zlib.crc32(f"{self._utterance_id}/{self._calls}".encode()) % 4 == 0:
            raise SimulatedFault("flaky generator")
        return self._inner.generate(prefix, prev_web, prev_kg)


@pytest.fixture(scope="module")
def pin_world():
    world = FixtureWorld(200, seed=3)
    backends = Backends(index_documents(world.corpus), KgStore.from_records(world.kg_records))
    return backends, random_batch(world, 200, seed=7, block_ms=500)


def session_digest(strategy: Strategy, flaky: bool, backends, traces) -> str:
    config = session_config(strategy)
    latency = LatencyModel(query_gen=(450, 590, 730), web_fetch=(1900, 2500, 3100),
                           chunk_rerank=(200, 280), kg_lookup=(150, 250),
                           response_gen=(2300, 2520), response_tail=(0, 400), seed=5)

    make = generator_factory(config, backends.index)

    def factory(trace):
        gen = make(trace)
        return FlakyGenerator(gen, trace.utterance_id) if flaky else gen

    outcomes, errors = run_batch(traces, config, factory, backends, latency)
    assert errors == []
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(json.dumps(outcome.to_dict(include_events=True), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("strategy, flaky", list(SESSION_PINS),
                         ids=[f"{s}-{'flaky' if f else 'plain'}" for s, f in SESSION_PINS])
def test_session_outcomes_match_pinned_digests(strategy, flaky, pin_world):
    backends, traces = pin_world
    digest = session_digest(Strategy(strategy), flaky, backends, traces)
    assert digest == SESSION_PINS[strategy, flaky]
