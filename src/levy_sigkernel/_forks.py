"""Forked child processes: the guard, the fork, the reap and the kill; the
raw float64 codec of their pipes; and the writers and the group map that
use them.

A child is made only with ``os.fork`` present and no other Python thread
alive, so it meets no lock that another thread holds.  It ends with
``os._exit``, so no atexit handler runs and no inherited buffer is
flushed.  That makes the fork safe beside the threads that are not
Python's: numpy's OpenBLAS starts one, and stops its workers before a
fork (its ``pthread_atfork`` handler), so a child may call BLAS.  The
warning that Python 3.12+ gives for a fork beside such threads is
therefore not shown; the filter cannot race another thread's, as there is
none.  Every caller has a fallback that gives the same result in the
calling process: without a child, or when a child does not exit with 0 or
was reaped elsewhere (as under ``SIGCHLD = SIG_IGN``), the caller does the
child's work itself.  A caller that raises kills and reaps its children.

The users: ``KernelSurface.to_csv`` writes its row blocks through
:func:`write_blocks`; the corner-only sweep of
``kernel_solver._solve_truncated_batch`` (the MMD's surfaces) computes its
surface groups through :func:`map_groups`; ``mc_oracle.estimate_kernel``
runs one side in a child (``_ForkedSide``) that talks to the parent
through :func:`send` and :func:`receive`.  These children are the
package's only way to use a second core: it starts no Python thread, so
the guard fails only beside a thread of the caller's.  The CLI writes
every other output whole or not at all through :func:`write_text`.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import threading
import warnings

import numpy as np


def can_fork() -> bool:
    """True where ``fork`` may make a child: ``os.fork`` exists and no
    other Python thread is alive."""
    return hasattr(os, "fork") and threading.active_count() == 1


def fork(run) -> int | None:
    """Fork a child that calls ``run()`` and ends with ``os._exit``: code 0
    if ``run`` returned, 1 if it raised.  Returns the child's pid to the
    parent, or None, with no child, where ``can_fork()`` is False or the
    fork raised ``OSError``."""
    if not can_fork():
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            run()
            code = 0
        finally:
            os._exit(code)
    return pid


def exited_cleanly(pid: int) -> bool:
    """Reap the child ``pid``; True if it exited with 0, False if it failed
    or was reaped elsewhere."""
    try:
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:   # reaped already, as under SIGCHLD = SIG_IGN
        return False
    return os.waitstatus_to_exitcode(status) == 0


def kill(pid: int) -> None:
    """Kill the child ``pid`` and reap it, if it is still there."""
    import signal   # only on this path: importing the CLI must not load it
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):
        pass   # reaped already, as under SIGCHLD = SIG_IGN


def send(writer, levels: list[np.ndarray]) -> None:
    """Write the arrays ``levels`` to ``writer`` as raw float64 bytes, in
    order, and flush."""
    for lev in levels:
        writer.write(np.ascontiguousarray(lev, dtype=np.float64).data)
    writer.flush()


def receive(reader, sizes: list[int]) -> list[np.ndarray] | None:
    """Float64 arrays of lengths ``sizes`` read from ``reader``; None at an
    early end of the pipe."""
    flat = np.empty(sum(sizes))
    if reader.readinto(flat) < flat.nbytes:
        return None
    return np.split(flat, np.cumsum(sizes)[:-1])


def map_groups(compute, edges: list[int]) -> np.ndarray:
    """The float64 values ``compute(lo, hi)`` (one per item, shape ``(hi -
    lo,)``) of each group of items ``edges[g]:edges[g + 1]`` (``edges[0]``
    is 0), concatenated.

    The calling process computes group 0.  Every later group goes to a
    child (:func:`_fork_group`) that sends its values back over a pipe
    (:func:`send`), with warnings turned into errors there.  A group whose
    pipe or child cannot be made, or whose child sends short, does not
    exit with 0 or was reaped elsewhere, is computed by the parent, so
    every path gives the same bits, errors and warnings, as long as a
    group's values do not depend on the split.  If the parent raises,
    every child is killed and reaped and every pipe closed.
    """
    out = np.empty(edges[-1])
    children: dict[int, list] = {}   # group -> [pid, None once reaped; reader]
    try:
        for g in range(1, len(edges) - 1):
            child = _fork_group(compute, edges[g], edges[g + 1])
            if child is not None:
                children[g] = child
        out[:edges[1]] = compute(0, edges[1])
        for g in range(1, len(edges) - 1):
            lo, hi = edges[g], edges[g + 1]
            got, child = None, children.get(g)
            if child is not None:
                with child[1]:
                    got = receive(child[1], [hi - lo])
                clean, child[0] = exited_cleanly(child[0]), None
                del children[g]
                if not clean:
                    got = None
            out[lo:hi] = compute(lo, hi) if got is None else got[0]
    finally:
        for pid, reader in children.values():
            reader.close()
            if pid is not None:
                kill(pid)
    return out


def _fork_group(compute, lo: int, hi: int) -> list | None:
    """Fork a child that sends ``compute(lo, hi)`` down a new pipe; return
    ``[pid, reader]``, or None if no pipe or no child was made."""
    if not can_fork():
        return None
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None

    def send_group() -> None:
        os.close(read_fd)
        # a warning is an error here, so the parent computes the group
        # again and shows it
        warnings.simplefilter("error")
        with open(write_fd, "wb") as writer:
            send(writer, [compute(lo, hi)])

    try:
        pid = fork(send_group)
    finally:
        os.close(write_fd)
    if pid is None:
        os.close(read_fd)
        return None
    return [pid, open(read_fd, "rb")]


def write_text(path, text: str) -> None:
    """Write ``text`` into the text file ``path`` whole or not at all:
    into a new file next to it, which then replaces it (:func:`_replaced`)."""
    with _replaced(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _replaced(path):
    """A text file opened under the new name ``<path>.<pid>.tmp`` (created
    exclusively), which replaces ``path`` (``os.replace``) when the block
    ends; if anything raises, that file is removed and a file already at
    ``path`` is left as it was."""
    path = os.fsdecode(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    # opened before the try: a name already taken is not ours to remove
    fh = open(tmp, "x")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        _remove(tmp)
        raise


def write_blocks(path, header: str, write_rows, edges: list[int]) -> None:
    """Write ``header``, then ``write_rows(fh, lo, hi)`` for each block of
    rows ``edges[b]:edges[b + 1]`` in order, into the text file ``path``.

    The blocks go into a new file next to ``path`` that replaces it once
    the last block is in (:func:`_replaced`), so no partial file is left.
    The calling process writes block 0.
    Every later block goes to a child (:func:`_fork_block`) that writes it
    into a part file next to ``path``; the parent appends the part files
    in block order and removes them.  A block whose part file or child
    cannot be made, or whose child does not exit with 0 or was reaped
    elsewhere, is written by the parent, so every path gives the same
    bytes.  If the parent raises, every child is killed and reaped and
    every part file removed.  ``write_rows`` runs in the children too.
    """
    path = os.fsdecode(path)
    children: dict[int, list] = {}   # block -> [pid, None once reaped; part file]
    try:
        with _replaced(path) as fh:
            for b in range(1, len(edges) - 1):
                _fork_block(children, b, f"{path}.{os.getpid()}.{b}.part",
                            write_rows, edges[b], edges[b + 1])
            fh.write(header)
            write_rows(fh, edges[0], edges[1])
            for b in range(1, len(edges) - 1):
                child, clean = children.get(b), False
                if child is not None and child[0] is not None:
                    clean, child[0] = exited_cleanly(child[0]), None
                if clean:
                    fh.flush()
                    with open(child[1], "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
                else:
                    write_rows(fh, edges[b], edges[b + 1])
                if child is not None:
                    os.remove(child[1])
                    del children[b]
    finally:
        for pid, part in children.values():
            if pid is not None:
                kill(pid)
            _remove(part)


def _remove(name: str) -> None:
    try:
        os.remove(name)
    except FileNotFoundError:
        pass


def _fork_block(children: dict, b: int, part: str, write_rows, lo: int, hi: int) -> None:
    """Create the file ``part`` (``O_EXCL``) and fork a child that writes
    rows ``lo:hi`` into it; record ``children[b] = [pid, part]``, with pid
    None if no child was made.  Where ``can_fork()`` is False, or when
    ``part`` cannot be created, record nothing."""
    if not can_fork():
        return
    try:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return
    children[b] = child = [None, part]

    def write_part() -> None:
        with open(fd, "w") as fh:
            write_rows(fh, lo, hi)

    try:
        child[0] = fork(write_part)
    finally:
        os.close(fd)
