"""Unit tests for the pseudo-filesystem."""

from __future__ import annotations

import pytest

from repro.dproc import ProcDir, ProcFS, ProcFile
from repro.errors import ProcfsError


@pytest.fixture
def fs():
    fs = ProcFS()
    fs.mount("/proc/loadavg", ProcFile(lambda: "0.50\n"))
    written = []
    fs.mount("/proc/cluster/maui/control",
             ProcFile(lambda: "log\n", written.append))
    fs.written = written  # type: ignore[attr-defined]
    return fs


class TestMounting:
    def test_read_mounted_file(self, fs):
        assert fs.read("/proc/loadavg") == "0.50\n"

    def test_duplicate_mount_rejected(self, fs):
        with pytest.raises(ProcfsError, match="already"):
            fs.mount("/proc/loadavg", ProcFile(lambda: ""))

    def test_file_cannot_shadow_directory(self, fs):
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/cluster", ProcFile(lambda: ""))

    def test_directory_cannot_shadow_file(self, fs):
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/loadavg/sub", ProcFile(lambda: ""))

    def test_bad_path_rejected(self, fs):
        with pytest.raises(ProcfsError):
            fs.read("")
        with pytest.raises(ProcfsError):
            fs.read("///")


class TestAccess:
    def test_read_missing_raises(self, fs):
        with pytest.raises(ProcfsError, match="no such file"):
            fs.read("/proc/nothing")

    def test_write_to_readonly_raises(self, fs):
        with pytest.raises(ProcfsError, match="read-only"):
            fs.write("/proc/loadavg", "x")

    def test_write_dispatches_to_handler(self, fs):
        fs.write("/proc/cluster/maui/control", "period cpu 2")
        assert fs.written == ["period cpu 2"]

    def test_reads_are_fresh(self):
        fs = ProcFS()
        counter = {"n": 0}

        def read():
            counter["n"] += 1
            return str(counter["n"])

        fs.mount("/proc/dynamic", ProcFile(read))
        assert fs.read("/proc/dynamic") == "1"
        assert fs.read("/proc/dynamic") == "2"

    def test_exists(self, fs):
        assert fs.exists("/proc/loadavg")
        assert fs.exists("/proc/cluster")          # implicit directory
        assert fs.exists("/proc/cluster/maui")
        assert not fs.exists("/proc/cluster/etna")

    def test_is_dir(self, fs):
        assert fs.is_dir("/proc/cluster")
        assert not fs.is_dir("/proc/loadavg")
        assert not fs.is_dir("/does/not/exist")

    def test_listdir(self, fs):
        assert fs.listdir("/proc") == ["cluster", "loadavg"]
        assert fs.listdir("/proc/cluster") == ["maui"]
        assert fs.listdir("/proc/cluster/maui") == ["control"]

    def test_listdir_of_file_raises(self, fs):
        with pytest.raises(ProcfsError, match="is a file"):
            fs.listdir("/proc/loadavg")

    def test_listdir_missing_raises(self, fs):
        with pytest.raises(ProcfsError, match="no such directory"):
            fs.listdir("/proc/ghost")


class TestProcDir:
    @pytest.fixture
    def routed(self):
        fs = ProcFS()
        fs.mount("/proc/loadavg", ProcFile(lambda: "0.50\n"))
        written = []
        hosts = ProcDir({
            "loadavg": (lambda host: f"{host} load\n", None),
            "control": (lambda host: "",
                        lambda host, text: written.append((host, text))),
            "dproc/overhead": (lambda host: f"{host} cost\n", None),
        })
        fs.mount("/proc/cluster", hosts)
        return fs, hosts, written

    def test_empty_directory_does_not_exist(self, routed):
        fs, _hosts, _written = routed
        assert not fs.exists("/proc/cluster")
        assert fs.listdir("/proc") == ["loadavg"]
        with pytest.raises(ProcfsError, match="no such directory"):
            fs.listdir("/proc/cluster")

    def test_members_resolve_on_lookup(self, routed):
        fs, hosts, written = routed
        hosts.members.update({"maui", "alan"})
        assert fs.listdir("/proc") == ["cluster", "loadavg"]
        assert fs.listdir("/proc/cluster") == ["alan", "maui"]
        assert fs.listdir("/proc/cluster/maui") == [
            "control", "dproc", "loadavg"]
        assert fs.listdir("/proc/cluster/maui/dproc") == ["overhead"]
        assert fs.read("/proc/cluster/maui/loadavg") == "maui load\n"
        assert fs.read("//proc/cluster/alan/dproc/overhead/") == \
            "alan cost\n"
        fs.write("/proc/cluster/alan/control", "period cpu 2")
        assert written == [("alan", "period cpu 2")]
        assert fs.is_dir("/proc/cluster/alan/dproc")
        assert not fs.is_dir("/proc/cluster/alan/loadavg")

    def test_unknown_member_or_file(self, routed):
        fs, hosts, _written = routed
        hosts.members.add("maui")
        with pytest.raises(ProcfsError, match="no such file"):
            fs.read("/proc/cluster/etna/loadavg")
        with pytest.raises(ProcfsError, match="no such file"):
            fs.read("/proc/cluster/maui/freemem")
        with pytest.raises(ProcfsError, match="read-only"):
            fs.write("/proc/cluster/maui/loadavg", "x")
        with pytest.raises(ProcfsError, match="is a file"):
            fs.listdir("/proc/cluster/maui/loadavg")
        assert not fs.exists("/proc/cluster/etna")

    def test_mounts_cannot_overlap_a_routed_directory(self, routed):
        fs, _hosts, _written = routed
        with pytest.raises(ProcfsError, match="already"):
            fs.mount("/proc/cluster", ProcDir({}))
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc/cluster/maui/x", ProcFile(lambda: ""))
        with pytest.raises(ProcfsError, match="conflicts"):
            fs.mount("/proc", ProcFile(lambda: ""))
