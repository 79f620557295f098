"""Exception types shared across the package.

``InputError`` and its subclasses mark problems with user-supplied data
(files, flags, trace contents); ``SimulatedFault`` is the one failure the
simulation models. The CLI treats anything else as an internal error.
"""


class InputError(Exception):
    """Bad input data: malformed files, misaligned ids, invalid config."""


class EmptyTraceError(InputError):
    """An utterance trace without words cannot be blocked or simulated."""


class DuplicateDocIdError(InputError):
    """Corpus contains the same doc_id more than once."""


class AlignmentError(InputError):
    """Records that must pair by utterance_id do not."""


class WrongToolError(ValueError):
    """A query of one tool kind was passed to an operation for another."""


class SimulatedFault(Exception):
    """A modelled failure, only where a tool call's backend (a failed call) or
    a generator step (NO_QUERY) raises it; raised anywhere else, as in the
    fixed_interval reflector's searches, it ends the command (exit 3)."""
