"""Forked child processes, and files written whole or not at all.

A child (:func:`start`) runs a function and sends the float64 arrays it
returns down one pipe, in sizes that the parent states; the parent's
:meth:`Child.join` returns them and reaps the child.  A child is made
only with ``os.fork`` present and no other Python thread alive, so it
meets no lock that another thread holds.  It ends with ``os._exit``, so
no atexit handler runs and no inherited buffer is flushed.  That makes
the fork safe beside the threads that are not Python's: numpy's OpenBLAS
starts one, and stops its workers before a fork (its ``pthread_atfork``
handler), so a child may call BLAS.  The warning that Python 3.12+ gives
for a fork beside such threads is therefore not shown; the filter cannot
race another thread's, as there is none.  A warning in the child is an
error there.  Every caller has a fallback that gives the same result in
the calling process: where ``join`` returns None (no child was made, or
it sent short, did not exit with 0 or was reaped elsewhere, as under
``SIGCHLD = SIG_IGN``), the caller does the child's work itself, and so
shows its warnings and raises its errors.  A caller that raises kills
and reaps its children (:meth:`Child.kill`).

The users: ``KernelSurface.to_csv`` writes its row blocks through
:func:`write_blocks`; the corner-only sweep of
``kernel_solver._solve_truncated_batch`` (the MMD's surfaces) computes its
surface groups through :func:`map_groups`; ``mc_oracle.estimate_kernel``
computes one side in a child.  These children are the package's only way
to use a second core: it starts no Python thread, so the guard fails only
beside a thread of the caller's.  The CLI writes every other output whole
or not at all through :func:`write_text`.
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


class Child:
    """A forked child that sends float64 arrays (:func:`start`);
    ``Child()`` is no child."""

    def __init__(self, pid: int | None = None, reader=None, sizes=()):
        self.pid, self.reader, self.sizes = pid, reader, sizes

    def join(self) -> list[np.ndarray] | None:
        """The child's arrays, once it has sent them all and exited with 0;
        None if there is no child, or it sent short, did not exit with 0 or
        was reaped elsewhere.  Closes the pipe and reaps the child."""
        if self.pid is None:
            return None
        with self.reader:   # closed first: a child still writing then fails
            got = receive(self.reader, self.sizes)
        try:
            _, status = os.waitpid(self.pid, 0)
            clean = os.waitstatus_to_exitcode(status) == 0
        except ChildProcessError:   # reaped already, as under SIGCHLD = SIG_IGN
            clean = False
        self.pid = None
        return got if clean else None

    def kill(self) -> None:
        """Close the pipe, and kill and reap the child, unless it was joined."""
        if self.pid is None:
            return
        import signal   # only on this path: importing the CLI must not load it
        self.reader.close()
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass   # reaped already, as under SIGCHLD = SIG_IGN
        self.pid = None


def start(run, sizes: list[int]) -> Child:
    """Fork a child that calls ``run()`` with warnings as errors, sends
    the float64 arrays it returns, of ``sizes`` elements each, down a new
    pipe (:func:`send`) and ends with ``os._exit``: code 0 if it sent them
    all, 1 if anything raised, arrays of other sizes included.  No child
    (``Child()``) where ``can_fork()`` is False or the pipe or the fork
    raised ``OSError``."""
    if not can_fork():
        return Child()
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return Child()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return Child()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            warnings.simplefilter("error")
            arrays = run()
            if [np.size(a) for a in arrays] != list(sizes):
                raise ValueError(f"arrays of other sizes than {sizes}")
            with open(write_fd, "wb") as writer:
                send(writer, arrays)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return Child(pid, open(read_fd, "rb"), sizes)


def send(writer, arrays: list[np.ndarray]) -> None:
    """Write ``arrays`` to ``writer`` as raw float64 bytes, in order, and
    flush."""
    for a in arrays:
        writer.write(np.ascontiguousarray(a, dtype=np.float64))
    writer.flush()


def receive(reader, sizes: list[int]) -> list[np.ndarray] | None:
    """Float64 arrays of lengths ``sizes``, each its own allocation, read
    from ``reader``; None at an early end of the pipe."""
    out = [np.empty(n) for n in sizes]
    for a in out:
        if reader.readinto(a) < a.nbytes:
            return None
    return out


def map_groups(compute, edges: list[int]) -> np.ndarray:
    """The float64 values ``compute(lo, hi)`` (one per item, shape ``(hi -
    lo,)``) of each group of items ``edges[g]:edges[g + 1]`` (``edges[0]``
    is 0), concatenated.

    The calling process computes group 0, and a child (:func:`start`) each
    later group.  A group whose child :meth:`Child.join` gives nothing is
    computed by the parent, so every path gives the same bits, errors and
    warnings, as long as a group's values do not depend on the split.  If
    the parent raises, every child is killed and reaped.
    """
    out = np.empty(edges[-1])
    later = list(zip(edges[1:-1], edges[2:]))
    children = []
    try:
        for lo, hi in later:
            children.append(start(lambda lo=lo, hi=hi: [compute(lo, hi)], [hi - lo]))
        out[:edges[1]] = compute(0, edges[1])
        for child, (lo, hi) in zip(children, later):
            got = child.join()
            out[lo:hi] = compute(lo, hi) if got is None else got[0]
    finally:
        for child in children:
            child.kill()
    return out


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
    The calling process writes block 0.  Every later block goes to a child
    (:func:`_start_block`) that writes it into a part file next to
    ``path`` and sends nothing; the parent appends the part files in block
    order.  A block whose part file cannot be made, or whose child's
    :meth:`Child.join` gives nothing, is written by the parent, so every
    path gives the same bytes.  Every part file is removed at the end, and
    if the parent raises, every child is killed and reaped first.
    ``write_rows`` runs in the children too.
    """
    path = os.fsdecode(path)
    later = list(zip(edges[1:-1], edges[2:]))
    blocks: list[tuple[Child, str | None]] = []
    try:
        with _replaced(path) as fh:
            for b, (lo, hi) in enumerate(later, 1):
                _start_block(blocks, f"{path}.{os.getpid()}.{b}.part", write_rows, lo, hi)
            fh.write(header)
            write_rows(fh, edges[0], edges[1])
            for (child, part), (lo, hi) in zip(blocks, later):
                if child.join() is None:
                    write_rows(fh, lo, hi)
                else:
                    fh.flush()
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
    finally:
        for child, part in blocks:
            child.kill()
            if part is not None:
                _remove(part)


def _remove(name: str) -> None:
    try:
        os.remove(name)
    except FileNotFoundError:
        pass


def _start_block(blocks: list, part: str, write_rows, lo: int, hi: int) -> None:
    """Append ``(child, part)`` to ``blocks``: the file ``part``, created
    (``O_EXCL``) before the child (:func:`start`) that writes rows
    ``lo:hi`` into it.  ``(Child(), None)`` where ``can_fork()`` is False
    or ``part`` cannot be created."""
    blocks.append((Child(), None))
    if not can_fork():
        return
    try:
        fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError:
        return
    blocks[-1] = (Child(), part)

    def write_part() -> list:
        with open(fd, "w") as fh:
            write_rows(fh, lo, hi)
        return []

    try:
        blocks[-1] = (start(write_part, []), part)
    finally:
        os.close(fd)
