"""Exceptions raised by the CONGEST simulator.

The simulator is strict by design: violations of the model (sending over a
non-existent link, or exceeding the per-edge bandwidth in strict mode)
raise rather than silently degrade, so that every algorithm in this
repository is validated against the model it claims to run in.
"""


class CongestError(Exception):
    """Base class for all simulator errors."""


class UnknownVertexError(CongestError):
    """A message was addressed to or from a vertex not in the network."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} is not part of the network")
        self.vertex = vertex


class NotALinkError(CongestError):
    """A message was sent along a pair that is not a communication link."""

    def __init__(self, sender, receiver):
        super().__init__(
            f"no communication link between {sender!r} and {receiver!r}"
        )
        self.sender = sender
        self.receiver = receiver


class BandwidthExceededError(CongestError):
    """A link carried more words in one round than the bandwidth allows.

    Only raised when the network is constructed with ``strict=True``;
    otherwise the violation is recorded in the ledger and execution
    continues (useful for measuring congestion of deliberately congested
    schedules).
    """

    def __init__(self, sender, receiver, words, bandwidth):
        super().__init__(
            f"link {sender!r}->{receiver!r} carried {words} words in one "
            f"round; bandwidth is {bandwidth} words"
        )
        self.sender = sender
        self.receiver = receiver
        self.words = words
        self.bandwidth = bandwidth


class InvalidInstanceError(CongestError):
    """A problem instance violates its declared invariants.

    Raised, for example, when the path handed to an RPaths solver is not a
    shortest s-t path of the graph, or when edge weights are not positive
    integers.
    """
