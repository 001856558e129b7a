import math
import os
import signal
import threading
import warnings

import numpy as np
import pytest

from levy_sigkernel import _forks

from conftest import open_fds


class TestWriteText:
    """``_forks.write_text`` writes a file whole or not at all."""

    def test_bytes_of_a_plain_write(self, tmp_path):
        text = "a,b\n1.5,-0.0\nünïcode\n"
        _forks.write_text(tmp_path / "new.csv", text)
        with open(tmp_path / "plain.csv", "w") as fh:
            fh.write(text)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.csv", "plain.csv"]

    def test_replaces_an_old_file(self, tmp_path):
        (tmp_path / "out.csv").write_text("old\n")
        _forks.write_text(str(tmp_path / "out.csv").encode(), "new\n")
        assert (tmp_path / "out.csv").read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_raise_mid_write_keeps_the_old_file(self, tmp_path):
        # a lone surrogate cannot be encoded: the write raises after the
        # temporary file was made
        (tmp_path / "out.csv").write_text("old\n")
        fds = open_fds()
        with pytest.raises(UnicodeEncodeError):
            _forks.write_text(tmp_path / "out.csv", "new\n" * 1000 + "\udc80")
        assert open_fds() == fds
        assert (tmp_path / "out.csv").read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_taken_temporary_name_is_left_alone(self, tmp_path):
        taken = tmp_path / f"out.csv.{os.getpid()}.tmp"
        taken.write_text("someone else's")
        with pytest.raises(FileExistsError):
            _forks.write_text(tmp_path / "out.csv", "new\n")
        assert taken.read_text() == "someone else's"
        assert [p.name for p in tmp_path.iterdir()] == [taken.name]


class TestMapGroups:
    """``_forks.map_groups`` concatenates its groups' values in order."""

    @pytest.mark.parametrize("edges", [[0, 7], [0, 3, 7], [0, 1, 2, 7], [0, 2, 4, 5, 7]])
    def test_groups_in_order(self, forks, edges):
        values = np.linspace(-1.0, 1.0, 7) ** 3
        got = _forks.map_groups(lambda lo, hi: values[lo:hi], edges)
        assert got.tobytes() == values.tobytes()
        assert len(forks) == len(edges) - 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestChild:
    """``_forks.start``: ``join`` gives the arrays of a child that sent
    them all and exited with 0, and None however else the child ended or
    where none was made; no way of ending leaves a child process or an
    open descriptor behind."""

    @staticmethod
    def join(run, sizes):
        """``start(run, sizes).join()``, checked to leave no child and no
        descriptor."""
        fds = open_fds()
        got = _forks.start(run, sizes).join()
        assert open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return got

    def test_arrays_in_order(self, forks):
        want = [np.array([-0.0]), np.array([math.nan, math.inf, -math.inf]), np.empty(0),
                np.arange(6.0).reshape(2, 3) / 7, np.arange(3)]
        got = self.join(lambda: want, [1, 3, 0, 6, 3])
        assert len(forks) == 1
        assert [g.shape for g in got] == [(1,), (3,), (0,), (6,), (3,)]
        assert [g.tobytes() for g in got] == [np.asarray(w, dtype=float).tobytes()
                                              for w in want]

    def test_payload_larger_than_a_pipe_buffer(self, rng, forks):
        # 1 MiB in three arrays, sixteen times a 64 KiB pipe buffer
        want = [rng.normal(size=n) for n in (70_000, 1, 61_072)]
        got = self.join(lambda: want, [len(w) for w in want])
        assert len(forks) == 1
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_no_arrays(self, tmp_path, forks):
        # the child's work is what it leaves behind: join gives [], not None
        def run():
            (tmp_path / "done").write_text("in the child")
            return []
        assert self.join(run, []) == []
        assert len(forks) == 1 and (tmp_path / "done").read_text() == "in the child"

    @pytest.mark.parametrize("how", ["raise", "warn", "other_sizes", "killed_before_send",
                                     "short_send", "exit_1_after_send", "killed_mid_send"])
    def test_child_failing(self, monkeypatch, forks, how):
        parent, real_send = os.getpid(), _forks.send
        want = [np.ones(4), np.full(3, 2.0)]

        def run():
            if how == "raise":
                raise RuntimeError("child fails")
            if how == "warn":   # an error in the child
                warnings.warn("child warns", UserWarning)
            if how == "other_sizes":   # as many floats, split otherwise
                return [np.ones(3), np.ones(4)]
            if how == "killed_before_send":
                os.kill(os.getpid(), signal.SIGKILL)
            return want

        def send(writer, arrays):
            assert os.getpid() != parent
            if how not in ("short_send", "exit_1_after_send", "killed_mid_send"):
                return real_send(writer, arrays)
            if how == "short_send":   # and exits with 0
                return real_send(writer, [arrays[0], arrays[1][:-1]])
            real_send(writer, arrays if how == "exit_1_after_send" else arrays[:1])
            if how == "killed_mid_send":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(1)
        monkeypatch.setattr(_forks, "send", send)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            assert self.join(run, [4, 3]) is None
        assert len(forks) == 1 and shown == []

    def test_child_reaped_by_sigchld_ignore(self, forks):
        # the child sent everything and exited with 0, but waitpid cannot
        # see its status
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert self.join(lambda: [np.ones(2)], [2]) is None
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert len(forks) == 1

    @pytest.mark.parametrize("how", ["no_fork", "fork_raising", "pipe_raising"])
    def test_no_child(self, monkeypatch, how):
        def fail(*args):
            raise OSError(11, "Resource temporarily unavailable")
        if how == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork" if how == "fork_raising" else "pipe", fail)
        calls = []
        assert self.join(lambda: calls.append(None) or [np.ones(1)], [1]) is None
        assert calls == []

    def test_no_fork_beside_another_python_thread(self, forks):
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert self.join(lambda: [np.ones(1)], [1]) is None
        finally:
            stop.set()
            other.join()
        assert forks == []

    @pytest.mark.parametrize("read", [0, 1000, 8 * 65_536 + 8])
    def test_kill(self, forks, read):
        # the child blocks on a full pipe: killed before the parent reads,
        # after part of an array, or after the first of two arrays
        fds = open_fds()
        child = _forks.start(lambda: [np.ones(65_537), np.ones(65_536)], [65_537, 65_536])
        assert len(child.reader.read(read)) == read
        child.kill()
        assert open_fds() == fds
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert child.join() is None   # a killed child gives nothing
        child.kill()                  # and is not killed twice
        assert len(forks) == 1

    def test_kill_after_join_does_nothing(self, forks):
        child = _forks.start(lambda: [np.full(2, 0.5)], [2])
        got = child.join()
        child.kill()
        assert [g.tolist() for g in got] == [[0.5, 0.5]] and len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
