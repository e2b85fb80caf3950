"""Tests for the RemoteFile shim layer."""

import pytest

from repro.data.remote_file import GlobusFile, RemoteDirectory, RemoteFile, RsyncFile


class TestRemoteFile:
    def test_create_mirrors_listing1(self):
        out_file = GlobusFile.create("fp.txt", size_mb=1.0, location="qiming")
        assert isinstance(out_file, GlobusFile)
        assert out_file.available_at("qiming")
        assert "qiming" in out_file.get_remote_file_path()
        assert out_file.name in out_file.get_remote_file_path()

    def test_unique_file_ids(self):
        assert RemoteFile("a").file_id != RemoteFile("a").file_id

    def test_mechanisms(self):
        assert GlobusFile("x").mechanism == "globus"
        assert RsyncFile("x").mechanism == "rsync"
        assert RemoteFile("x").mechanism == "globus"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            RemoteFile("x", size_mb=-1.0)

    def test_replica_tracking(self):
        f = RemoteFile("x", size_mb=10.0, location="a")
        assert f.primary_location == "a"
        f.add_location("b")
        assert f.available_at("b")
        f.remove_location("a")
        assert not f.available_at("a")
        assert f.primary_location == "b"

    def test_primary_location_none_when_unplaced(self):
        f = RemoteFile("x")
        assert f.primary_location is None
        assert "unplaced" in f.get_remote_file_path()

    def test_local_path_preferred(self):
        f = RemoteFile("x", local_path="/tmp/real.dat")
        assert f.get_remote_file_path() == "/tmp/real.dat"

    def test_primary_location_is_stable(self):
        f = RemoteFile("x", location="zeta")
        f.add_location("alpha")
        assert f.primary_location == "alpha"
        assert f.primary_location == "alpha"


class TestRemoteDirectory:
    def test_aggregates_size_and_availability(self):
        a = RemoteFile("a", size_mb=5.0, location="ep1")
        b = RemoteFile("b", size_mb=7.0, location="ep1")
        d = RemoteDirectory("inputs")
        d.add(a)
        d.add(b)
        assert d.size_mb == pytest.approx(12.0)
        assert d.available_at("ep1")
        b.remove_location("ep1")
        assert not d.available_at("ep1")

    def test_add_and_iterate(self):
        d = RemoteDirectory("inputs")
        d.add(RemoteFile("a", size_mb=1.0))
        d.add(RemoteFile("b", size_mb=2.0))
        assert len(d) == 2
        assert [f.name for f in d] == ["a", "b"]

    def test_directory_path(self):
        d = RemoteDirectory("batch")
        d.add(RemoteFile("a", location="ep2"))
        assert "batch" in d.get_remote_file_path()
        assert "ep2" in d.get_remote_file_path()
