"""Run one function in a worker process while the caller does other work.

``survey`` and ``analyze`` each split into a pure-Python half and a numpy
half that draw from independent random substreams, so the halves can run on
two cores without changing a byte of output.  :class:`Worker` runs one half
in a child process; only small messages and the final result cross the pipe.

The target is a module-level function called as ``target(send, *args)``.  It
may call ``send(message)`` any number of times; its return value is the
result.  The child sends ``("message", m)`` for each message, then
``("done", result)`` or ``("error", (exception, traceback text))``.  The
platform's default start method is used: under ``fork`` the child inherits
the caller's memory, under ``spawn`` the target and its arguments are
pickled, which is why the target must be module-level and its arguments
picklable.
"""

from __future__ import annotations

import traceback


class RemoteTraceback(Exception):
    """The worker's formatted traceback, chained as the cause of its error."""


def _serve(conn, target, args) -> None:
    def send(message) -> None:
        conn.send(("message", message))

    try:
        reply = ("done", target(send, *args))
    except Exception as exc:  # the caller re-raises it; this process only reports
        reply = ("error", (exc, traceback.format_exc()))
    conn.send(reply)
    conn.close()


class Worker:
    """``with Worker(target, *args) as worker:`` runs the target in a child
    process.  Leaving the block, by any path, terminates and joins it."""

    def __init__(self, target, *args) -> None:
        self._target = target
        self._args = args
        self._reply = None

    def __enter__(self) -> Worker:
        import multiprocessing

        self._conn, child_conn = multiprocessing.Pipe(duplex=False)
        self._process = multiprocessing.Process(target=_serve, args=(child_conn, self._target, self._args))
        self._process.start()
        # Only the child may hold the sending end, so that its death reads
        # as end-of-file here instead of a wait that never ends.
        child_conn.close()
        return self

    def __exit__(self, *exc_info) -> None:
        self._conn.close()
        self._process.terminate()
        self._process.join()
        self._process.close()

    def _receive(self):
        try:
            return self._conn.recv()
        except EOFError:
            self._process.join()
            raise RuntimeError(f"worker process exited with code {self._process.exitcode} before it replied") from None

    def messages(self):
        """Yield each message the target sends, until it returns or raises."""
        while self._reply is None:
            kind, payload = self._receive()
            if kind == "message":
                yield payload
            else:
                self._reply = (kind, payload)

    def result(self):
        """Wait for the target; return its result or raise its exception.

        Messages not read through :meth:`messages` are discarded.
        """
        for _ in self.messages():
            pass
        kind, payload = self._reply
        if kind == "error":
            exc, remote_traceback = payload
            raise exc from RemoteTraceback(remote_traceback)
        return payload
