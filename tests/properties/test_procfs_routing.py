"""Routed /proc directories behave exactly like an eagerly mounted tree.

The reference mounts one :class:`ProcFile` per member and file, the way
``/proc/cluster`` used to be built.  The routed side serves the same
layout from :class:`ProcDir` tables.  Every operation must return the
same result or raise the same :class:`ProcfsError` message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dproc import METRIC_FILES, ProcDir, ProcFS, ProcFile, deploy_dproc
from repro.errors import ProcfsError
from repro.sim import Environment, build_cluster

FAST = settings(max_examples=150, deadline=None)

#: The /proc/cluster/<host>/ layout of a Dproc.
CLUSTER_FILES = (*METRIC_FILES.values(), "control", "status", "proc_top",
                 "dproc/overhead", "dproc/channels", "dproc/dmon")
#: The /proc/grid/<site>/ layout of a federation gateway.
GRID_FILES = ("n_nodes", "mean_loadavg", "total_free_bytes")
WRITABLE = {"control"}
STATIC = ("proc/loadavg", "proc/meminfo")

HOSTS = ("alan", "maui", "etna", "node7")
SITES = ("east", "west")
NAMES = (*HOSTS, *SITES, "proc", "cluster", "grid", "dproc", "bogus",
         "loadavg", "meminfo", "control", "overhead", "n_nodes")


def _read(root: str, member: str, rel: str) -> str:
    return f"{root}:{member}:{rel}\n"


def _routed(hosts: set[str], sites: set[str], log: list) -> ProcFS:
    fs = ProcFS()
    for path in STATIC:
        fs.mount(path, ProcFile(lambda p=path: p))
    for root, layout, members in (("cluster", CLUSTER_FILES, hosts),
                                  ("grid", GRID_FILES, sites)):
        table = {
            rel: (lambda m, root=root, rel=rel: _read(root, m, rel),
                  (lambda m, text, rel=rel: log.append((m, rel, text)))
                  if rel in WRITABLE else None)
            for rel in layout}
        fs.mount(f"/proc/{root}", ProcDir(table, members=members))
    return fs


def _eager(hosts: set[str], sites: set[str], log: list) -> ProcFS:
    fs = ProcFS()
    for path in STATIC:
        fs.mount(path, ProcFile(lambda p=path: p))
    for root, layout, members in (("cluster", CLUSTER_FILES, hosts),
                                  ("grid", GRID_FILES, sites)):
        for member in members:
            for rel in layout:
                write = None
                if rel in WRITABLE:
                    def write(text, m=member, rel=rel):
                        log.append((m, rel, text))
                fs.mount(f"/proc/{root}/{member}/{rel}",
                         ProcFile(lambda r=root, m=member, rel=rel:
                                  _read(r, m, rel), write))
    return fs


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ProcfsError as exc:
        return "error", str(exc)


_valid = st.builds(
    lambda root, member, rel: f"/proc/{root}/{member}/{rel}",
    st.sampled_from(("cluster", "grid")),
    st.sampled_from(HOSTS + SITES),
    st.sampled_from(CLUSTER_FILES + GRID_FILES + ("dproc", "bogus")))

_free = st.builds(
    lambda parts, seps, lead, trail: (
        lead + "".join(p + s for p, s in zip(parts, seps)).rstrip("/")
        + trail),
    st.lists(st.sampled_from(NAMES), max_size=5),
    st.lists(st.sampled_from(("/", "//")), min_size=5, max_size=5),
    st.sampled_from(("", "/", "//")),
    st.sampled_from(("", "/", "//")))

paths = st.one_of(_valid, _free,
                  st.sampled_from(("", "/", "///", " ", "/proc/")))


class TestRoutedMatchesEager:
    @FAST
    @given(st.sets(st.sampled_from(HOSTS)), st.sets(st.sampled_from(SITES)),
           st.lists(paths, min_size=1, max_size=12))
    def test_every_operation_agrees(self, hosts, sites, probes):
        routed_log, eager_log = [], []
        routed = _routed(hosts, sites, routed_log)
        eager = _eager(hosts, sites, eager_log)
        for path in probes:
            for op in ("read", "listdir", "exists", "is_dir"):
                assert _outcome(getattr(routed, op), path) == \
                    _outcome(getattr(eager, op), path), (op, path)
            assert _outcome(routed.write, path, "period cpu 2") == \
                _outcome(eager.write, path, "period cpu 2"), path
        assert routed_log == eager_log

    def test_layout_matches_a_deployed_dproc(self):
        env = Environment()
        cluster = build_cluster(env, nodes=3, seed=1)
        dproc = deploy_dproc(cluster, start=False)["alan"]
        for host in cluster.names:
            top = {rel.split("/")[0] for rel in CLUSTER_FILES}
            assert dproc.listdir(f"/proc/cluster/{host}") == sorted(top)
            assert dproc.listdir(f"/proc/cluster/{host}/dproc") == sorted(
                rel.split("/")[1] for rel in CLUSTER_FILES if "/" in rel)
            for rel in CLUSTER_FILES:
                assert isinstance(
                    dproc.read(f"/proc/cluster/{host}/{rel}"), str)
