"""Correctness checks run on every benchmark round, and output digests.

Every operation the benchmark attempts (a session, a CLI command, a check)
is counted in a Ledger; a session error, a non-zero CLI exit or a failed
check is a failure. The printed result reports both counts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence


class Ledger:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def check_outcomes(ledger: Ledger, trace_ids: Sequence[str], outcomes: dict[str, list]) -> None:
    """The guarantees the paper's strategies make, on one round's outcomes.

    ``outcomes`` maps a strategy name to its SessionOutcome list.
      - every strategy has one outcome per trace, each with a latency record;
      - fixed_interval's reference bundle equals open_book's for every trace;
      - model_triggered never has more than one call in flight per tool.
    """
    for strategy, found in outcomes.items():
        ledger.check(
            [o.utterance_id for o in found] == list(trace_ids),
            f"{strategy}: outcomes do not match the traces one to one",
        )
        for outcome in found:
            ledger.check(
                outcome.latency is not None,
                f"{strategy} {outcome.utterance_id}: no latency record",
            )
    open_book = {o.utterance_id: o.references.to_canonical_text() for o in outcomes["open_book"]}
    for outcome in outcomes["fixed_interval"]:
        ledger.check(
            outcome.references.to_canonical_text() == open_book.get(outcome.utterance_id),
            f"fixed_interval {outcome.utterance_id}: bundle differs from open_book's",
        )
    for outcome in outcomes["model_triggered"]:
        ledger.check(
            outcome.max_parallel_threads <= 1,
            f"model_triggered {outcome.utterance_id}: "
            f"{outcome.max_parallel_threads} calls in flight for one tool",
        )


def check_repeat(ledger: Ledger, first: object, again: object, what: str) -> None:
    """A rerun of the same inputs must give the same digest or counts."""
    ledger.check(first == again, f"{what} changed between rounds: {first!r} != {again!r}")


def digest(records: Iterable[dict], base: Path, files: Iterable[Path]) -> str:
    """sha256 over JSON records and the bytes of files named relative to base."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
    for path in files:
        hasher.update(path.relative_to(base).as_posix().encode("utf-8") + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()
