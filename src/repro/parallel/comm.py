"""A simulated communicator.

:class:`SimComm` provides the subset of MPI semantics that the distributed
algorithms in this reproduction use — point-to-point messages with mailboxes,
broadcasts, allgathers and reductions — while recording all traffic in a
:class:`repro.parallel.stats.TrafficLog`.  Rank "programs" are executed
sequentially inside one Python process (or via the executor for the
embarrassingly parallel parts), so messages are delivered through in-memory
mailboxes instead of a network.

The point of this class is *accounting fidelity*, not concurrency: the
byte/message counts it produces feed the machine model used for the scaling
experiments.
"""

from __future__ import annotations

import collections
import sys
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.parallel.stats import TrafficLog

__all__ = [
    "SimComm",
    "payload_nbytes",
    "CommError",
    "CommRankError",
    "CommRecvError",
]


class CommError(RuntimeError):
    """A communicator-level failure with the rank and mailbox context.

    Attributes
    ----------
    rank:
        The rank the failing operation addressed (``None`` when not
        applicable).
    mailbox_state:
        Snapshot ``{(destination, tag): pending count}`` of the non-empty
        mailboxes at the time of the failure.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        mailbox_state: Optional[Dict[Tuple[int, Hashable], int]] = None,
    ):
        self.rank = rank
        self.mailbox_state = dict(mailbox_state or {})
        super().__init__(message)


class CommRankError(CommError, IndexError):
    """An operation addressed a rank outside the communicator.

    Also an :class:`IndexError` so legacy call sites that treated
    out-of-range ranks as index errors keep working.
    """


class CommRecvError(CommError, LookupError):
    """A receive found no matching pending message.

    Also a :class:`LookupError` — the historical type for the simulated
    deadlock — so existing ``except``/``pytest.raises`` sites keep working.
    """


def payload_nbytes(payload: Any) -> int:
    """Estimate the wire size of a message payload in bytes.

    NumPy arrays report their buffer size; lists/tuples/dicts are summed
    recursively; other objects fall back to ``sys.getsizeof``.
    """
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (list, tuple, set)):
        return int(sum(payload_nbytes(item) for item in payload))
    if isinstance(payload, dict):
        return int(
            sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
        )
    if isinstance(payload, (int, float, complex, bool)):
        return 8
    if payload is None:
        return 0
    return int(sys.getsizeof(payload))


class SimComm:
    """Simulated communicator with traffic accounting.

    Parameters
    ----------
    n_ranks:
        Number of simulated ranks.
    log:
        Optional existing :class:`TrafficLog` to record into; a new one is
        created if omitted.
    """

    def __init__(self, n_ranks: int, log: Optional[TrafficLog] = None):
        if n_ranks < 1:
            raise ValueError("n_ranks must be positive")
        self.n_ranks = int(n_ranks)
        self.log = log if log is not None else TrafficLog(self.n_ranks)
        if self.log.n_ranks != self.n_ranks:
            raise ValueError("traffic log rank count does not match communicator")
        # mailboxes[(destination, tag)] -> FIFO of (source, payload)
        self._mailboxes: Dict[Tuple[int, Hashable], collections.deque] = (
            collections.defaultdict(collections.deque)
        )

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self.n_ranks

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #
    def send(
        self, source: int, destination: int, payload: Any, tag: Hashable = 0
    ) -> None:
        """Send ``payload`` from ``source`` to ``destination``.

        The payload is stored in the destination's mailbox and its size is
        recorded.  Self-sends are allowed and free.

        Raises
        ------
        CommRankError
            If either endpoint is out of range.
        """
        self._check(source)
        self._check(destination)
        self.log.record_message(source, destination, payload_nbytes(payload))
        self._mailboxes[(destination, tag)].append((source, payload))

    def recv(self, destination: int, tag: Hashable = 0, source: Optional[int] = None):
        """Receive the next pending message for ``destination`` (FIFO order).

        Parameters
        ----------
        destination:
            Receiving rank.
        tag:
            Message tag to match.
        source:
            Optional source filter; the first message from that source is
            returned.

        Returns
        -------
        (source, payload)

        Raises
        ------
        CommRecvError
            If no matching message is pending — the simulated equivalent of
            a deadlock.  Also a :class:`LookupError`, the historical type.
        CommRankError
            If ``destination`` is out of range.
        """
        self._check(destination)
        queue = self._mailboxes.get((destination, tag))
        if not queue:
            raise CommRecvError(
                f"no pending message for rank {destination} with tag {tag!r} "
                f"({self._mailbox_summary()})",
                rank=destination,
                mailbox_state=self.mailbox_state(),
            )
        if source is None:
            return queue.popleft()
        for index, (src, payload) in enumerate(queue):
            if src == source:
                del queue[index]
                return src, payload
        raise CommRecvError(
            f"no pending message for rank {destination} from {source} "
            f"(tag {tag!r}; {self._mailbox_summary()})",
            rank=destination,
            mailbox_state=self.mailbox_state(),
        )

    def pending_messages(self, destination: int, tag: Hashable = 0) -> int:
        """Number of messages waiting in a mailbox."""
        self._check(destination)
        return len(self._mailboxes.get((destination, tag), ()))

    # ------------------------------------------------------------------ #
    # collectives (accounting + convenience return values)
    # ------------------------------------------------------------------ #
    def bcast(self, root: int, payload: Any) -> List[Any]:
        """Broadcast ``payload`` from ``root``; returns the per-rank copies."""
        self._check(root)
        self.log.record_broadcast(root, payload_nbytes(payload))
        return [payload for _ in range(self.n_ranks)]

    def allgather(self, contributions: List[Any]) -> List[Any]:
        """Allgather: every rank contributes one item, all ranks get the list."""
        if len(contributions) != self.n_ranks:
            raise ValueError(
                f"allgather needs exactly {self.n_ranks} contributions, "
                f"got {len(contributions)}"
            )
        per_rank = max(payload_nbytes(c) for c in contributions)
        self.log.record_allgather(per_rank)
        return list(contributions)

    def allreduce_sum(self, contributions: List[float]) -> float:
        """Allreduce (sum) over scalar contributions.

        Traffic is modelled as a recursive-doubling reduction: each rank sends
        and receives log2(P) messages of the scalar size.
        """
        if len(contributions) != self.n_ranks:
            raise ValueError(
                f"allreduce needs exactly {self.n_ranks} contributions, "
                f"got {len(contributions)}"
            )
        nbytes = 8
        steps = max(1, int(np.ceil(np.log2(self.n_ranks)))) if self.n_ranks > 1 else 0
        for _ in range(steps):
            for rank in range(self.n_ranks):
                partner = rank ^ 1 if self.n_ranks > 1 else rank
                if partner < self.n_ranks and partner != rank:
                    self.log.record_message(rank, partner, nbytes)
        return float(sum(contributions))

    def alltoallv(self, send_matrix: np.ndarray) -> None:
        """Record an all-to-all-v exchange.

        Parameters
        ----------
        send_matrix:
            (P, P) array where entry (i, j) is the number of bytes rank i
            sends to rank j.
        """
        send_matrix = np.asarray(send_matrix, dtype=float)
        if send_matrix.shape != (self.n_ranks, self.n_ranks):
            raise ValueError(
                f"send matrix must have shape ({self.n_ranks}, {self.n_ranks})"
            )
        for i in range(self.n_ranks):
            for j in range(self.n_ranks):
                if i != j and send_matrix[i, j] > 0:
                    self.log.record_message(i, j, float(send_matrix[i, j]))

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    def mailbox_state(self) -> Dict[Tuple[int, Hashable], int]:
        """Snapshot ``{(destination, tag): pending count}`` (non-empty only)."""
        return {
            address: len(queue)
            for address, queue in self._mailboxes.items()
            if queue
        }

    def _mailbox_summary(self) -> str:
        state = self.mailbox_state()
        if not state:
            return "all mailboxes empty"
        entries = ", ".join(
            f"rank {destination}/tag {tag!r}: {count}"
            for (destination, tag), count in sorted(
                state.items(), key=lambda item: (item[0][0], repr(item[0][1]))
            )
        )
        return f"pending mailboxes: {entries}"

    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise CommRankError(
                f"rank {rank} out of range for {self.n_ranks} ranks "
                f"({self._mailbox_summary()})",
                rank=rank,
                mailbox_state=self.mailbox_state(),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimComm(n_ranks={self.n_ranks})"
