"""Scale-out serving tests: mmap artifacts, the router, the fleet.

Covers the pre-fork serving tier end to end at tiny deterministic scale:

* ``GenerativeModel.load(mmap_mode="r")`` lazily maps ``.npz`` weights
  and scores bit-identically to an eager load;
* :class:`~repro.serve.artifact.ArtifactStore` publish/flip/bump/prune
  atomicity and registry hot-swaps straight from published artifacts;
* :func:`~repro.obs.metrics.merge_snapshots` fleet aggregation;
* the router's least-loaded candidate order, the same for every path;
* transport tuning from :class:`ServiceConfig` (backlog, SO_REUSEADDR,
  SO_REUSEPORT) and the no-FD-leak guarantee under handler crashes;
* the live fleet: supervisor restart of a SIGKILLed worker, graceful
  drain, hot-swap convergence, a rejected candidate generation leaving
  every worker serving the incumbent bit-identically, routed answers
  equal to every worker's direct ones, and workers that drain when
  their supervisor is killed.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import signal
import socket
import time
import urllib.request

import numpy as np
import pytest

from repro.experiments.common import make_experiment_data
from repro.models.base import GenerativeModel, mmap_npz_arrays
from repro.models.lda import LatentDirichletAllocation
from repro.models.ngram import NGramModel
from repro.obs.metrics import merge_snapshots
from repro.serve import (
    ArtifactStore,
    FleetSupervisor,
    ModelRegistry,
    RecommendationService,
    ServiceConfig,
    ServiceHTTPServer,
    build_demo_models,
    demo_service_factory,
    publish_demo_artifacts,
    WorkerState,
    read_fleet_state,
)
from repro.serve.router import FleetRouter, _WorkerUnavailable, start_router

N_COMPANIES = 60
SEED = 7
LDA_ITERS = 8

_HAS_REUSEPORT = hasattr(socket, "SO_REUSEPORT")


def _post_raw(url: str, path: str, payload: dict) -> tuple[int, bytes]:
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _post(url: str, path: str, payload: dict) -> tuple[int, dict]:
    status, body = _post_raw(url, path, payload)
    return status, json.loads(body or b"{}")


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


# ----------------------------------------------------------------------
# Satellite: lazy mmap loading of model artifacts
# ----------------------------------------------------------------------
class TestMmapLoading:
    @pytest.fixture(scope="class")
    def fitted(self):
        data = make_experiment_data(N_COMPANIES, seed=SEED)
        lda = LatentDirichletAllocation(
            n_topics=3, inference="variational", n_iter=LDA_ITERS, seed=0
        ).fit(data.split.train)
        ngram = NGramModel(order=2).fit(data.split.train)
        return data, lda, ngram

    def test_mmap_load_bit_identical(self, fitted, tmp_path):
        data, lda, ngram = fitted
        reference = data.split.validation
        for name, model in (("lda", lda), ("ngram", ngram)):
            path = tmp_path / f"{name}.npz"
            model.save(path)
            eager = type(model).load(path)
            mapped = type(model).load(path, mmap_mode="r")
            assert eager.perplexity(reference) == mapped.perplexity(reference)
            history = reference.sequences()[0][:3]
            np.testing.assert_array_equal(
                eager.next_product_proba(history),
                mapped.next_product_proba(history),
            )

    def test_mmap_arrays_are_memory_mapped(self, fitted, tmp_path):
        _data, lda, _ngram = fitted
        path = tmp_path / "lda.npz"
        lda.save(path)
        _meta, arrays = mmap_npz_arrays(path)
        assert arrays, "no arrays mapped"
        for array in arrays.values():
            base = array
            while getattr(base, "base", None) is not None:
                base = base.base
            assert isinstance(base, mmap.mmap), type(base)
            assert array.dtype != object

    def test_load_any_forwards_mmap_mode(self, fitted, tmp_path):
        _data, lda, _ngram = fitted
        path = tmp_path / "lda.npz"
        lda.save(path)
        model = GenerativeModel.load_any(path, mmap_mode="r")
        assert isinstance(model, LatentDirichletAllocation)
        assert model.is_fitted

    def test_mmap_load_rejects_wrong_class(self, fitted, tmp_path):
        _data, _lda, ngram = fitted
        path = tmp_path / "ngram.npz"
        ngram.save(path)
        with pytest.raises(ValueError):
            LatentDirichletAllocation.load(path, mmap_mode="r")


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    @pytest.fixture(scope="class")
    def models(self):
        _data, models = build_demo_models(
            N_COMPANIES, seed=SEED, lda_iterations=LDA_ITERS
        )
        return models

    def test_publish_layout_and_handles(self, models, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        published = store.publish(models)
        assert published.number == 1
        assert store.generation() == 1
        assert published.slots() == ["lda", "ngram"]
        assert (store.root / "current").resolve() == published.path.resolve()
        assert store.current().number == 1
        loaded = published.load("lda", mmap_mode="r")
        assert isinstance(loaded, LatentDirichletAllocation)

    def test_prune_keeps_retention_window(self, models, tmp_path):
        store = ArtifactStore(tmp_path / "store", keep=1)
        for _ in range(3):
            store.publish(models)
        # keep=1: the current generation plus one predecessor survive.
        assert store.generations() == [2, 3]
        assert store.generation() == 3

    def test_publish_rejects_unfitted_and_empty(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError, match="empty"):
            store.publish({})
        with pytest.raises(ValueError, match="fitted"):
            store.publish({"lda": LatentDirichletAllocation(n_topics=2)})
        assert store.generation() is None
        assert not list(store.root.glob(".staging-*"))

    def test_registry_swap_from_published_artifact(self, models, tmp_path):
        data = make_experiment_data(N_COMPANIES, seed=SEED)
        store = ArtifactStore(tmp_path / "store")
        published = store.publish(models)
        registry = ModelRegistry(data.split.validation)
        registry.install("lda", models["lda"])
        report = registry.swap(
            "lda", published.slot_path("lda"), mmap_mode="r"
        )
        assert report.status == "promoted"
        assert registry.version("lda") == 2


# ----------------------------------------------------------------------
# Fleet metrics aggregation
# ----------------------------------------------------------------------
class TestMergeSnapshots:
    def test_counters_sum_and_gauges_merge(self):
        a = {
            "counters": {'serve.requests{endpoint="/recommend"}': 10.0},
            "gauges": {
                "serve.inflight": 2.0,
                'serve.breaker.state{tier="lda"}': 0.0,
            },
            "histograms": {},
        }
        b = {
            "counters": {'serve.requests{endpoint="/recommend"}': 5.0},
            "gauges": {
                "serve.inflight": 1.0,
                'serve.breaker.state{tier="lda"}': 2.0,
            },
            "histograms": {},
        }
        merged = merge_snapshots([a, b])
        assert merged["workers"] == 2
        assert merged["counters"]['serve.requests{endpoint="/recommend"}'] == 15.0
        assert merged["gauges"]["serve.inflight"] == 3.0
        # Breaker state takes the worst worker, not the sum.
        assert merged["gauges"]['serve.breaker.state{tier="lda"}'] == 2.0

    def test_histograms_merge_conservatively(self):
        a = {
            "histograms": {
                "serve.latency_ms": {
                    "count": 4, "sum": 40.0, "mean": 10.0,
                    "min": 5.0, "max": 20.0, "p50": 9.0, "p90": 18.0, "p99": 20.0,
                }
            }
        }
        b = {
            "histograms": {
                "serve.latency_ms": {
                    "count": 6, "sum": 30.0, "mean": 5.0,
                    "min": 1.0, "max": 12.0, "p50": 4.0, "p90": 10.0, "p99": 12.0,
                }
            }
        }
        merged = merge_snapshots([a, b])["histograms"]["serve.latency_ms"]
        assert merged["count"] == 10
        assert merged["sum"] == 70.0
        assert merged["mean"] == pytest.approx(7.0)
        assert merged["min"] == 1.0 and merged["max"] == 20.0
        assert merged["p99"] == 20.0  # max across workers: upper bound

    def test_empty_input(self):
        merged = merge_snapshots([])
        assert merged["workers"] == 0
        assert merged["counters"] == {}


# ----------------------------------------------------------------------
# Satellite: transport tuning + FD hygiene
# ----------------------------------------------------------------------
def _tiny_service(config: ServiceConfig | None = None) -> RecommendationService:
    data = make_experiment_data(40, seed=SEED)
    registry = ModelRegistry(data.split.validation)
    registry.install("ngram", NGramModel(order=2).fit(data.split.train))
    return RecommendationService(
        corpus=data.corpus,
        registry=registry,
        tiers=("ngram",),
        config=config or ServiceConfig(),
    )


class TestTransportConfig:
    def test_backlog_and_reuse_address_from_config(self):
        service = _tiny_service(
            ServiceConfig(listen_backlog=7, reuse_address=True)
        )
        server = ServiceHTTPServer(("127.0.0.1", 0), service)
        try:
            assert server.request_queue_size == 7
            assert (
                server.socket.getsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR)
                != 0
            )
        finally:
            server.server_close()
            service.close()

    @pytest.mark.skipif(not _HAS_REUSEPORT, reason="platform lacks SO_REUSEPORT")
    def test_reuse_port_allows_shared_bind(self):
        service = _tiny_service(ServiceConfig(reuse_port=True))
        first = ServiceHTTPServer(("127.0.0.1", 0), service)
        port = first.server_address[1]
        try:
            second = ServiceHTTPServer(("127.0.0.1", port), service)
            second.server_close()
        finally:
            first.server_close()
            service.close()

    def test_handler_crash_closes_socket_no_fd_leak(self, monkeypatch):
        from repro.runtime import faults
        from repro.serve.http import start_server

        service = _tiny_service()
        server, _thread = start_server(service)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        payload = {"history": [list(service.corpus.vocabulary)[0]]}
        try:
            status, _ = _post(url, "/recommend", payload)
            assert status == 200
            fds_before = len(os.listdir("/proc/self/fd"))

            monkeypatch.setenv("REPRO_FAULTS", "crash:serve/http/handler")
            faults.reset_firing_counts()
            for _ in range(20):
                try:
                    status, body = _post(url, "/recommend", payload)
                    assert status == 500, (status, body)
                except (urllib.error.URLError, OSError, ConnectionError):
                    pass  # a torn-down connection is an acceptable answer
            monkeypatch.delenv("REPRO_FAULTS")

            time.sleep(0.3)  # let handler threads finish closing
            fds_after = len(os.listdir("/proc/self/fd"))
            assert fds_after <= fds_before + 3, (fds_before, fds_after)
            # The transport recovered: a clean request still answers.
            status, _ = _post(url, "/recommend", payload)
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.close()


# ----------------------------------------------------------------------
# The live fleet
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """One published artifact store + service factory for every fleet test."""
    root = tmp_path_factory.mktemp("fleet")
    store = ArtifactStore(root / "artifacts")
    publish_demo_artifacts(
        store, N_COMPANIES, seed=SEED, lda_iterations=LDA_ITERS
    )
    config = ServiceConfig(reuse_port=_HAS_REUSEPORT)
    factory = demo_service_factory(store, N_COMPANIES, seed=SEED, config=config)
    data = make_experiment_data(N_COMPANIES, seed=SEED)
    payload = {
        "history": list(data.corpus.vocabulary)[:2],
        "top_n": 5,
        "deadline_ms": 4000,
    }
    duns = [company.duns.value for company in data.corpus.companies[:20]]
    return {"store": store, "factory": factory, "payload": payload,
            "duns": duns, "root": root}


def _supervisor(fleet_store, tag: str, **kwargs) -> FleetSupervisor:
    defaults = dict(
        n_workers=2,
        state_dir=fleet_store["root"] / f"state-{tag}",
        store=fleet_store["store"],
        poll_interval=0.1,
        drain_grace_s=3.0,
    )
    defaults.update(kwargs)
    return FleetSupervisor(fleet_store["factory"], **defaults)


class TestFleet:
    def test_serves_restarts_and_drains(self, fleet_store):
        supervisor = _supervisor(fleet_store, "lifecycle")
        supervisor.start()
        try:
            states = supervisor.wait_ready(timeout=120)
            assert [s.index for s in states] == [0, 1]
            assert all(s.generation == 1 for s in states)

            status, body = _post(
                supervisor.fleet_url, "/recommend", fleet_store["payload"]
            )
            assert status == 200 and body["recommendations"]

            # SIGKILL one worker: the supervisor restarts it and the
            # fleet keeps answering throughout.
            victim = supervisor.live_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                pids = supervisor.live_pids()
                if supervisor.restarts >= 1 and len(pids) == 2:
                    break
                time.sleep(0.05)
            assert supervisor.restarts >= 1
            assert supervisor.live_pids()[0] != victim
            supervisor.wait_ready(timeout=120)
            status, _ = _post(
                supervisor.fleet_url, "/recommend", fleet_store["payload"]
            )
            assert status == 200
        finally:
            supervisor.stop()
        # Drain removed every worker and its state file.
        assert supervisor.live_pids() == {}
        assert read_fleet_state(supervisor.state_dir) == []

    def test_hotswap_converges_bit_identically(self, fleet_store):
        supervisor = _supervisor(fleet_store, "hotswap")
        supervisor.start()
        try:
            supervisor.wait_ready(timeout=120)
            _data, models = build_demo_models(
                N_COMPANIES, seed=SEED, lda_iterations=LDA_ITERS
            )
            published = supervisor.publish(models)
            states = supervisor.wait_generation(published.number, timeout=60)
            answers = []
            for state in states:
                status, body = _post(
                    state.direct_url, "/recommend", fleet_store["payload"]
                )
                assert status == 200, (state.index, body)
                answers.append((body["recommendations"], body["model_versions"]))
            assert all(a == answers[0] for a in answers), answers
            assert answers[0][1]["lda"] == 2  # the swap really happened
        finally:
            supervisor.stop()

    def test_rejected_candidate_keeps_incumbent_everywhere(self, fleet_store):
        store: ArtifactStore = fleet_store["store"]
        good_number = store.generation()
        good_name = store.current().path.name
        bad_dir = None
        supervisor = _supervisor(fleet_store, "rejected")
        supervisor.start()
        try:
            states = supervisor.wait_ready(timeout=120)
            baseline_gen = states[0].generation
            before = [
                _post(s.direct_url, "/recommend", fleet_store["payload"])[1]
                for s in states
            ]

            # Hand-roll a bad generation: a published directory whose lda
            # artifact is garbage.  Every worker must reject it at the
            # stage step and keep the incumbent serving.
            bad_number = store.generations()[-1] + 1
            bad_dir = store.root / f"gen-{bad_number:06d}"
            shutil.copytree(store.current().path, bad_dir)
            (bad_dir / "lda.npz").write_bytes(b"\x00not a model\x00")
            manifest = json.loads((bad_dir / "manifest.json").read_text())
            manifest["generation"] = bad_number
            (bad_dir / "manifest.json").write_text(json.dumps(manifest))
            store._flip_current(bad_dir.name)
            store._bump(bad_number)
            supervisor.signal_workers(signal.SIGHUP)

            time.sleep(1.5)  # several poll cycles: ample time to (not) apply
            states_after = supervisor.workers()
            assert all(s.generation == baseline_gen for s in states_after), (
                states_after
            )
            after = [
                _post(s.direct_url, "/recommend", fleet_store["payload"])[1]
                for s in states_after
            ]
            for old, new in zip(before, after):
                assert old["recommendations"] == new["recommendations"]
                assert old["model_versions"] == new["model_versions"]
        finally:
            supervisor.stop()
            # Point the shared store back at the good generation so later
            # fleet tests don't boot workers against the garbage artifact.
            store._flip_current(good_name)
            store._bump(good_number)
            if bad_dir is not None:
                shutil.rmtree(bad_dir, ignore_errors=True)

    def test_router_routes_and_aggregates(self, fleet_store):
        supervisor = _supervisor(fleet_store, "router")
        supervisor.start()
        router_server = None
        try:
            states = supervisor.wait_ready(timeout=120)
            router_server, _thread = start_router(supervisor.state_dir)
            url = "http://127.0.0.1:%d" % router_server.server_address[1]

            status, body = _post(url, "/recommend", fleet_store["payload"])
            assert status == 200 and body["recommendations"]

            # Every worker is a full replica: a routed /similar answer is
            # byte-identical to each worker's direct one.
            for duns in fleet_store["duns"]:
                request = {"duns": duns, "k": 5}
                status, routed = _post_raw(url, "/similar", request)
                assert status == 200, routed
                for state in states:
                    assert _post_raw(state.direct_url, "/similar", request) == (
                        200,
                        routed,
                    ), (duns, state.index)

            status, health = _get(url, "/healthz")
            assert status == 200 and health["healthy"] == 2
            status, ready = _get(url, "/readyz")
            assert status == 200
            status, metrics = _get(url, "/metrics")
            assert metrics["workers"] == 2
            assert any(
                key.startswith("serve.requests") for key in metrics["counters"]
            )
            status, topology = _get(url, "/fleet")
            assert [w["index"] for w in topology["workers"]] == [0, 1]
            for view in (health, metrics, topology):
                assert not [k for k in _keys(view) if "shard" in k], view
        finally:
            if router_server is not None:
                router_server.shutdown()
                router_server.server_close()
            supervisor.stop()

    def test_workers_drain_when_the_supervisor_dies(
        self, fleet_store, orphaned_stdout_eof
    ):
        # An orphaned worker would keep accepting on the fleet port beside
        # whatever fleet binds it next.  It drains instead, then exits and
        # closes the stdout it inherited.
        drain_grace_s = 3.0
        assert orphaned_stdout_eof(
            _ORPHAN_FLEET_SCRIPT,
            fleet_store["store"].root,
            fleet_store["root"] / "state-orphaned",
            N_COMPANIES,
            SEED,
            int(_HAS_REUSEPORT),
            drain_grace_s,
            marker=b"ready\n",
            timeout=drain_grace_s + 5.0,
        ), "fleet workers outlived their supervisor"

    def test_router_with_no_workers_sheds(self, tmp_path):
        router = FleetRouter(lambda: [])
        status, payload, headers = router.forward("POST", "/recommend", b"{}", {})
        assert status == 503
        assert headers.get("Retry-After")


_ORPHAN_FLEET_SCRIPT = """
import sys, time
from repro.serve import ArtifactStore, FleetSupervisor, ServiceConfig, demo_service_factory

root, state_dir, companies, seed, reuse_port, drain_grace_s = sys.argv[1:]
store = ArtifactStore(root)
config = ServiceConfig(reuse_port=bool(int(reuse_port)))
factory = demo_service_factory(store, int(companies), seed=int(seed), config=config)
supervisor = FleetSupervisor(
    factory, n_workers=2, state_dir=state_dir, store=store,
    drain_grace_s=float(drain_grace_s),
)
supervisor.start().wait_ready(timeout=120)
print("ready", flush=True)
time.sleep(600)
"""


def _keys(node: object) -> set[str]:
    """Every mapping key anywhere in a decoded JSON document."""
    if isinstance(node, dict):
        return set(node).union(*(_keys(value) for value in node.values()))
    if isinstance(node, list):
        return set().union(*(_keys(value) for value in node))
    return set()


class TestRouterCandidates:
    @staticmethod
    def _worker(index: int) -> WorkerState:
        return WorkerState(
            index=index,
            pid=1000 + index,
            fleet_port=1,
            direct_port=2 + index,
            generation=1,
            started_at=0.0,
        )

    def test_every_path_gets_the_same_least_loaded_order(self):
        workers = [self._worker(index) for index in range(3)]
        router = FleetRouter(lambda: workers, retries=2)
        router._inflight.update({0: 2, 1: 0, 2: 1})
        assert [w.index for w in router._candidates()] == [1, 2, 0]

        tried: dict[str, list[int]] = {}

        def refuse(worker, method, path, body, headers):
            tried.setdefault(path, []).append(worker.index)
            raise _WorkerUnavailable("connection refused")

        router._forward_once = refuse
        for path, body in (
            ("/similar", b'{"duns": "000000001", "k": 3}'),
            ("/recommend", b'{"history": ["server_HW"]}'),
        ):
            status, _payload, _headers = router.forward("POST", path, body, {})
            assert status == 503
        # Least-loaded first, then down the same order on refusal.
        assert tried == {"/similar": [1, 2, 0], "/recommend": [1, 2, 0]}
        assert router._inflight == {0: 2, 1: 0, 2: 1}
