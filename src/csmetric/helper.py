"""Work split between this process and one forked helper.

The audit imports this module only when it forks (see
``axiom_audit._audit``, and ``axiom_audit._may_fork`` for the one helper
rule), so a command that does not never loads it.
"""

from __future__ import annotations

import marshal
import os
from collections.abc import Callable

__all__ = ["split"]


def split(run: Callable[[int], None], state: Callable[[], object]):
    """Run run(0) here and run(1) in a forked helper, which sends state()
    back through a pipe, marshalled; return it.  Where the fork or the
    helper fails, this process runs run(1) itself and returns None.  The
    helper never returns, flushes inherited buffers or runs exit handlers;
    it is killed if run(0) raises, and reaped on every exit."""
    r, w = os.pipe()
    with open(r, "rb") as pipe, open(w, "wb") as sink:
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            pid = -1
        if pid == 0:
            try:
                run(1)
                data = marshal.dumps(state())
                os._exit(0 if os.write(w, data) == len(data) else 1)
            finally:
                os._exit(1)
        sink.close()  # so that reading ends with the helper's writes
        try:
            run(0)
            data = pipe.read()
        except BaseException:
            if pid > 0:
                from signal import SIGKILL
                os.kill(pid, SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1] if pid > 0 else 1
    if status != 0:
        run(1)
        return None
    return marshal.loads(data)
