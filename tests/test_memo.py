"""The memo discipline: every per-process memo in ``repro`` is a bounded
``lru_cache`` registered with :func:`repro.memo.clear_memos`, which empties
them all."""

import importlib
import pkgutil

import repro
from repro import memo
from repro.cluster.aio import HTTPRequest
from repro.explore import space
from repro.serve.core import keyed_jobs
from repro.sim.batched import simulate_jobs_batched, simulate_layer_table
from repro.sim.jobs.spec import _spec_layer_table, build_accelerator
from repro.sim.results import NetworkResult

#: Memos over a fixed domain (accelerator kinds, config classes): the only
#: unbounded ones.
FIXED_DOMAIN = frozenset({"_kind_defaults", "_config_layout"})


def all_memos():
    """``(qualified name, memo)`` for every object with ``cache_info`` found
    in a ``repro`` module or on one of its classes."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        owners = [module] + [value for value in vars(module).values()
                             if isinstance(value, type)]
        for owner in owners:
            for value in vars(owner).values():
                if callable(getattr(value, "cache_info", None)):
                    found.setdefault(id(value), (
                        f"{value.__module__}.{value.__qualname__}", value))
    return sorted(found.values(), key=lambda item: item[0])


def warm_every_memo():
    """Reach every memo once: raw points with overrides, a shared plane,
    a live accelerator (the event engine's and instances' path), a packed
    round trip and an ``Accept`` header."""
    points = [{"network": network, "accelerator": "loom",
               "equivalent_macs": macs, **overrides}
              for network, overrides in (("resnet18", {"groups": 2}),
                                         ("tiny_transformer", {"heads": 2}))
              for macs in (64, 128)]
    assert space._structural_overrides_feasible(points[0])
    jobs = [job for job, _ in keyed_jobs(points)]
    result = simulate_jobs_batched(jobs)[0]
    NetworkResult.from_packed(result.to_packed())
    HTTPRequest(method="GET", path="/", headers={"accept": "*/*"}, body=b"",
                client="").wants("application/json")
    simulate_layer_table(build_accelerator(jobs[0].accelerator, jobs[0].config),
                         _spec_layer_table(jobs[0].network))


class TestRegistry:
    def test_every_memo_is_registered(self):
        memos = all_memos()
        assert len(memos) >= 13
        unregistered = [name for name, cached in memos
                        if not any(cached is known for known in memo._MEMOS)]
        assert unregistered == []
        assert len(memos) == len(memo._MEMOS)

    def test_every_memo_is_bounded_but_the_fixed_domain_ones(self):
        for name, cached in all_memos():
            maxsize = cached.cache_info().maxsize
            if name.rsplit(".", 1)[-1] in FIXED_DOMAIN:
                assert maxsize is None, name
            else:
                assert maxsize in (memo.POINT_MEMO_SIZE,
                                   memo.DESIGN_MEMO_SIZE), name

    def test_clear_memos_empties_every_memo(self):
        memo.clear_memos()
        warm_every_memo()
        cold = [name for name, cached in all_memos()
                if cached.cache_info().currsize == 0]
        assert cold == []  # the warm-up reached every memo
        memo.clear_memos()
        for name, cached in all_memos():
            info = cached.cache_info()
            assert (info.currsize, info.hits, info.misses) == (0, 0, 0), name
