import os

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
