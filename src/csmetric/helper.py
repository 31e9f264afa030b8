"""Work split between this process and one forked helper.

The report writer (``cli._write``) and the audit (``axiom_audit._audit``)
both split their work here, and nothing else forks.  Each imports this
module only when it forks, after its own size threshold and the one helper
rule (``axiom_audit._may_fork``), so a command that does not never loads it.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable

__all__ = ["split"]

_BLOCK = 1 << 16  # bytes per read of the helper's file


def split(front: Callable[[], None], back: Callable[[], Iterable[bytes]],
          read: Callable[[Iterable[bytes]], None]) -> bool:
    """Run front() here while a forked helper writes the bytes back() yields
    to an anonymous file; then hand read() those bytes, in 64 KiB blocks
    read one at a time, and return True.  Where the file, the fork or the
    helper fails, return False, and the caller does back's half itself.
    The helper never returns, flushes inherited buffers or runs exit
    handlers; it is killed if front() raises, and reaped on every exit."""
    fd = pid = -1
    try:
        try:
            fd = os.memfd_create("helper")
            pid = os.fork()
        except OSError:  # no file or no process to spare
            pass
        if pid == 0:  # the helper
            try:
                for data in back():
                    if os.write(fd, data) < len(data):
                        os._exit(1)
                os._exit(0)
            finally:
                os._exit(1)
        front()
        status = os.waitpid(pid, 0)[1] if pid > 0 else 1
        pid = -1  # reaped
        if status != 0:
            return False
        read(os.pread(fd, _BLOCK, offset) for offset in range(0, os.fstat(fd).st_size, _BLOCK))
        return True
    finally:
        if pid > 0:  # still running: front() raised
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        if fd >= 0:
            os.close(fd)
