"""MPI request objects (non-blocking operation handles)."""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import MPIRequestError, MPITruncationError
from repro.mpi.adi.rhandle import RecvHandle
from repro.mpi.status import Status
from repro.sim.coroutines import wait
from repro.sim.sync import Flag


class Request:
    """Base request: completion is a :class:`~repro.sim.sync.Flag`."""

    def __init__(self, flag: Flag):
        self._flag = flag

    @property
    def completed(self) -> bool:
        return self._flag.is_set

    def wait(self) -> Generator:
        """Block until complete; evaluates to the operation's result."""
        yield wait(self._flag)
        return self._result()

    def test(self) -> tuple[bool, Any]:
        """Non-blocking completion check: (done, result-or-None)."""
        if self._flag.is_set:
            return True, self._result()
        return False, None

    def _result(self) -> Any:
        return None

    @staticmethod
    def waitall(requests: list["Request"]) -> Generator:
        """Wait for every request; evaluates to the list of results."""
        results = []
        for request in requests:
            result = yield from request.wait()
            results.append(result)
        return results

    @staticmethod
    def testall(requests: list["Request"]) -> tuple[bool, list[Any] | None]:
        """MPI_Testall: (True, results) only when every request is done."""
        results = []
        for request in requests:
            done, result = request.test()
            if not done:
                return False, None
            results.append(result)
        return True, results

    @staticmethod
    def testany(requests: list["Request"]) -> tuple[bool, int, Any]:
        """MPI_Testany: (flag, index, result) of the first completed."""
        for i, request in enumerate(requests):
            done, result = request.test()
            if done:
                return True, i, result
        from repro.mpi.constants import UNDEFINED
        return False, UNDEFINED, None

    @staticmethod
    def waitany(requests: list["Request"]) -> Generator:
        """Wait until at least one completes; evaluates to
        ``(index, result)`` of the first completed request (lowest index
        on ties — deterministic under the cooperative scheduler).
        """
        if not requests:
            raise MPIRequestError("waitany over an empty request list")
        while True:
            done, index, result = Request.testany(requests)
            if done:
                return index, result
            # Block until any request's flag fires: register a one-shot
            # forwarding waiter on every pending flag, and take it back
            # from the flags that did not fire.
            wake = Flag(name="waitany")
            forwarder = _FlagForwarder(wake)
            flags = [request._flag for request in requests]
            for flag in flags:
                flag._waiters.append(forwarder)
            yield wait(wake)
            for flag in flags:
                if not flag.is_set:
                    flag._waiters.remove(forwarder)

    @staticmethod
    def waitsome(requests: list["Request"]) -> Generator:
        """MPI_Waitsome: wait for >= 1 completion; evaluates to the list
        of ``(index, result)`` pairs completed at that moment."""
        index, result = yield from Request.waitany(requests)
        completed = [(index, result)]
        for i, request in enumerate(requests):
            if i == index:
                continue
            done, extra = request.test()
            if done:
                completed.append((i, extra))
        return completed


class _FlagForwarder:
    """A pseudo-task whose wake-up sets a flag (waitany plumbing).

    Quacks like a blocked Task just enough for Flag.set() to wake it.
    """

    finished = False

    def __init__(self, target: Flag):
        self._target = target
        self.cpu = self

    # Flag.set calls task.cpu.make_ready(task, value).
    def make_ready(self, task: "_FlagForwarder", value: Any = None) -> None:
        task._target.set(value)


class SendRequest(Request):
    """Handle for a non-blocking send (paper: a temporary Marcel thread
    runs the actual transfer, §4.2.3).

    When the transfer thread hits a fault-tolerance error (peer death,
    revoked communicator) it completes the request anyway and stashes
    the exception here; ``wait()``/``test()`` re-raise it in the caller,
    mirroring how a blocking send would have failed.
    """

    #: Exception stashed by the isend worker thread (None = clean).
    error: Exception | None = None

    def _result(self) -> Any:
        if self.error is not None:
            raise self.error
        return None


class RecvRequest(Request):
    """Handle for a non-blocking receive.

    Its completion flag is the :class:`RecvHandle` itself.
    """

    #: Unexpected-buffer bytes whose copy into the user buffer has not
    #: been charged yet (paid by the thread that waits; see
    #: :func:`repro.mpi.point2point.recv_wait`).
    pending_copy_bytes = 0
    #: The posted queue this receive sits in (set by irecv_impl),
    #: enabling :meth:`cancel`.
    posted_queue = None

    def __init__(self, handle: RecvHandle, comm=None):
        # No Request.__init__: every blocking receive builds one of these.
        self._flag = self.handle = handle
        #: The communicator, for translating the sender's world rank into
        #: a communicator-relative (or remote-group) rank in the status.
        self.comm = comm

    def cancel(self) -> bool:
        """Withdraw a pending receive (MPI_Cancel).

        Returns True if the receive was cancelled, False if it had
        already matched a message (cancellation came too late, as MPI
        allows).  A cancelled request completes with
        ``status.cancelled`` set and ``(None, status)`` as its result.
        """
        if self.handle.completed:
            return False
        if self.posted_queue is None or not self.posted_queue.remove(self.handle):
            return False
        self.handle.status.cancelled = True
        self.handle.set()
        return True

    def _result(self) -> tuple[Any, Status]:
        handle = self.handle
        status = handle.status
        if status.error:
            from repro.mpi.constants import ERR_PROC_FAILED, ERR_REVOKED
            if status.error == ERR_PROC_FAILED:
                from repro.errors import MPIProcFailedError
                raise MPIProcFailedError(
                    f"receive failed: rank {status.failed_rank} died",
                    failed_rank=status.failed_rank,
                )
            if status.error == ERR_REVOKED:
                from repro.errors import MPIRevokedError
                raise MPIRevokedError("receive failed: communicator revoked")
            raise MPITruncationError(
                f"message of {status.count} bytes truncates a receive of "
                f"capacity {handle.capacity}"
            )
        comm = self.comm
        if comm is not None and status.source_world >= 0:
            status.source = comm._rank_of_world(status.source_world)
        return handle.data, status
