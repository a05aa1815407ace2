"""Exception hierarchy for the ``repro`` package.

All errors raised by this library derive from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause without
swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Invalid graph input (bad vertex ids, malformed edge lists, ...)."""


class VertexError(GraphError):
    """A vertex id is out of range for the graph it was used with."""

    def __init__(self, vertex: int, n: int) -> None:
        super().__init__(f"vertex {vertex} out of range for graph with {n} vertices")
        self.vertex = vertex
        self.n = n


class LandmarkError(ReproError):
    """Invalid landmark set (empty, duplicates, out-of-range ids, ...)."""


class NotBuiltError(ReproError):
    """An oracle was queried before :meth:`build` was called."""


class CapabilityError(ReproError):
    """An operation needs a capability the oracle does not advertise.

    Raised by capability-negotiating callers (e.g.
    :class:`~repro.serving.DistanceService`) instead of an
    ``AttributeError`` from duck-typing, so the failure names the missing
    :class:`~repro.api.Capability` explicitly.
    """


class ServiceClosedError(ReproError):
    """A query or update reached a :class:`~repro.serving.DistanceService`
    after (or while) it was closed."""


class ShardError(ReproError):
    """A shard worker process failed or died mid-request.

    Raised by :class:`~repro.serving.ShardedDistanceService` when a
    worker reports an unexpected error or its pipe closes; the message
    names the shard and the worker-side exception. Malformed requests
    (bad vertex ids, missing capabilities) are validated in the parent
    process and raise their usual typed errors instead.
    """


class WalError(ReproError):
    """A write-ahead log operation failed or the log file is corrupt.

    Raised by :class:`~repro.core.wal.WriteAheadLog` on bad
    magic/version, a checksum mismatch or impossible record length
    inside the valid region (real corruption — a *torn tail* from a
    crash mid-append is repaired silently instead), appends to a closed
    log, and replay records that do not fit the target graph.
    """


class KernelError(ReproError):
    """Invalid kernel backend selection.

    Raised for an unknown backend name — whether it arrived via the
    ``kernel=`` keyword of :func:`repro.api.make_oracle` or the
    ``REPRO_KERNEL`` environment variable.
    """


class KernelUnavailableError(KernelError):
    """An explicitly requested kernel backend cannot run here.

    For example ``kernel="cext"`` on a machine without a C compiler.
    Auto-detection (``kernel=None``) never raises this; it silently
    falls back to the best available backend instead.
    """


class ProtocolError(ReproError):
    """A wire-protocol frame is malformed or violates the protocol.

    Raised by :mod:`repro.serving.net.wire` for bad magic, an
    unsupported protocol version, an unknown opcode/status, a frame
    exceeding the negotiated size limit, or a payload whose length does
    not match its opcode's layout. On the server a protocol violation
    is answered with ``Status.PROTOCOL_ERROR`` and the connection is
    closed (the stream offset can no longer be trusted); on the client
    it surfaces as this exception.
    """


class OverloadedError(ReproError):
    """The server shed this request under admission control.

    Carries ``retry_after`` — the server's backpressure hint, in
    seconds — so well-behaved clients (e.g.
    :class:`repro.serving.net.client.NetClient`) can wait it out and
    retry instead of hammering a saturated ingress queue. Maps onto the
    wire as ``Status.OVERLOADED``.
    """

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class StaleGenerationError(ReproError):
    """A request demanded a newer snapshot generation than is serving.

    Requests carry a *minimum acceptable generation* (0 = any); when
    the server's current generation is older — e.g. a client observed
    generation N+1 elsewhere and insists on read-your-writes — the
    request is rejected with ``Status.STALE_GENERATION`` and the
    serving generation, instead of silently answering from the stale
    snapshot. ``generation`` is the generation that *was* serving.
    """

    def __init__(self, message: str, generation: int = 0) -> None:
        super().__init__(message)
        self.generation = int(generation)


class ConstructionBudgetExceeded(ReproError):
    """A labelling construction exceeded its time budget.

    The experiment harness renders this as ``DNF`` (did not finish), which
    is how the paper reports methods that ran out of time or memory.
    """

    def __init__(self, method: str, budget_s: float) -> None:
        super().__init__(f"{method}: construction exceeded budget of {budget_s:.1f}s")
        self.method = method
        self.budget_s = budget_s


class CompressionError(ReproError):
    """A labelling cannot be encoded with the requested codec.

    For example HL(8) requires at most 256 landmarks and distances < 256.
    """
