"""Tests for the DSE service (:mod:`repro.serve`).

The load-bearing guarantees: served results are byte-identical to
``python -m repro dse --json`` on the same study (for every evaluator),
identical re-submissions hit the result cache without re-scoring, jobs
survive a server kill and resume from their completion records, and
malformed submissions bounce with a 400 before touching the disk.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.dist import (
    ResultStore,
    StoreMismatchError,
    build_manifest,
    model_workload_spec,
)
from repro.serve import (
    JobFailedError,
    JobManager,
    ServeClient,
    ServeError,
    ServeRequestError,
    UnknownJobError,
    serving,
    study_fingerprint,
)
from repro.hw.params import VITCOD_DEFAULT
from repro.serve.app import MAX_BODY_BYTES
from repro.sim.evaluator import evaluator_from_spec

GRID = {"mac_lines": [16, 32], "ae_compression": [None, 0.5]}
GRID_ARGS = ["--grid", "mac_lines=16,32", "--grid", "ae_compression=none,0.5"]


def _cli_reference(tmp_path, evaluator) -> bytes:
    """The ``dse`` command's JSON for the test study — the golden bytes."""
    out = tmp_path / f"cli-{evaluator}.json"
    cli.main(
        ["dse", "--models", "deit-tiny", "--evaluator", evaluator,
         "--json", str(out)] + GRID_ARGS
    )
    return out.read_bytes()


def _drain(manager):
    while manager.run_next():
        pass


def _request(**overrides):
    request = {"grid": GRID, "evaluator": "analytical", "model": "deit-tiny"}
    request.update(overrides)
    return request


class TestStudyFingerprint:
    def _manifest(self, n_shards=1, grid=GRID):
        return build_manifest(
            grid, n_shards, evaluator_from_spec("analytical"), VITCOD_DEFAULT,
            model_workload_spec("deit-tiny", sparsity=0.9),
        )

    def test_shard_count_is_an_execution_detail(self):
        assert study_fingerprint(self._manifest(1)) == study_fingerprint(
            self._manifest(3)
        )

    def test_study_content_changes_the_id(self):
        other = {"mac_lines": [16, 64], "ae_compression": [None, 0.5]}
        assert study_fingerprint(self._manifest(grid=other)) != study_fingerprint(
            self._manifest()
        )

    def test_shape(self):
        digest = study_fingerprint(self._manifest())
        assert len(digest) == 16
        assert set(digest) <= set("0123456789abcdef")


class TestJobManager:
    """Deterministic white-box runs: ``workers=0`` + :meth:`run_next`."""

    def test_submit_run_results(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert info["created"] is True
        assert info["cache_hit"] is False
        assert info["state"] == "queued"
        assert info["grid_size"] == 4
        _drain(manager)
        status = manager.status(info["id"])
        assert status["state"] == "done"
        assert status["done"] == status["grid_size"] == 4
        text, partial = manager.results(info["id"])
        assert partial is False
        payload = json.loads(text)
        assert len(payload["points"]) == 4
        assert payload["evaluator"] == "analytical"

    def test_partial_results_stream_from_the_ledger(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert manager.run_next() is True  # exactly one shard ran
        text, partial = manager.results(info["id"])
        assert partial is True
        payload = json.loads(text)
        assert payload["partial"] is True
        assert payload["state"] == "running"
        assert 0 < payload["done"] < payload["grid_size"]
        assert len(payload["points"]) == payload["done"]
        indices = [point["index"] for point in payload["points"]]
        assert indices == sorted(indices)
        status = manager.status(info["id"])
        assert status["state"] == "running"
        assert status["done"] == payload["done"]
        _drain(manager)
        _, partial = manager.results(info["id"])
        assert partial is False

    def test_cache_hit_skips_all_scoring(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request(n_shards=2))
        _drain(manager)
        store = ResultStore(tmp_path / "jobs" / first["id"] / "store")
        stamps = {
            path: path.stat().st_mtime_ns
            for _, _, path in store.shard_files()
        }
        assert manager.stats["shards_run"] == 2
        again = manager.submit(_request(n_shards=2))
        assert again["cache_hit"] is True
        assert again["created"] is False
        assert again["id"] == first["id"]
        assert manager.run_next() is False  # nothing was queued
        assert manager.stats["shards_run"] == 2
        for path, stamp in stamps.items():
            assert path.stat().st_mtime_ns == stamp

    def test_different_shard_count_still_hits_the_cache(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request(n_shards=1))
        _drain(manager)
        again = manager.submit(_request(n_shards=4))
        assert again["id"] == first["id"]
        assert again["cache_hit"] is True

    def test_identical_submission_deduplicates_while_queued(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        first = manager.submit(_request(n_shards=2))
        second = manager.submit(_request(n_shards=2))
        assert second["id"] == first["id"]
        assert second["created"] is False
        assert second["cache_hit"] is False
        assert manager.stats["deduplicated"] == 1
        _drain(manager)
        assert manager.stats["shards_run"] == 2  # one job's worth, not two

    def test_sharded_results_match_serial(self, tmp_path):
        serial = JobManager(tmp_path / "a", workers=0)
        sharded = JobManager(tmp_path / "b", workers=0)
        one = serial.submit(_request(n_shards=1))
        three = sharded.submit(_request(n_shards=3))
        assert one["id"] == three["id"]
        _drain(serial)
        _drain(sharded)
        assert serial.results(one["id"])[0] == sharded.results(three["id"])[0]

    def test_failed_job_reports_and_retries(self, tmp_path, monkeypatch):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=1))

        def boom(*args, **kwargs):
            raise RuntimeError("shard exploded")

        import repro.serve.jobs as jobs_module

        monkeypatch.setattr(jobs_module, "run_shard", boom)
        _drain(manager)
        status = manager.status(info["id"])
        assert status["state"] == "failed"
        assert "shard exploded" in status["error"]
        assert (tmp_path / "jobs" / info["id"] / "error.json").is_file()
        with pytest.raises(JobFailedError, match="shard exploded"):
            manager.results(info["id"])
        monkeypatch.undo()
        retry = manager.submit(_request(n_shards=1))
        assert retry["id"] == info["id"]
        assert retry["state"] == "queued"
        assert retry["cache_hit"] is False
        assert not (tmp_path / "jobs" / info["id"] / "error.json").exists()
        _drain(manager)
        assert manager.status(info["id"])["state"] == "done"

    def test_resume_picks_up_unfinished_jobs(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        info = manager.submit(_request(n_shards=2))
        assert manager.run_next() is True  # half the job, then "crash"
        reborn = JobManager(tmp_path, workers=0)
        resumed = reborn.resume()
        assert resumed == [info["id"]]
        _drain(reborn)
        assert reborn.status(info["id"])["state"] == "done"
        # Resumption skipped the recorded shard: only the missing one ran.
        assert reborn.stats["shards_run"] == 2
        store = ResultStore(tmp_path / "jobs" / info["id"] / "store")
        total = sum(count for _, count, _ in store.shard_files())
        assert total == 4  # no index evaluated twice

    def test_resume_registers_finished_and_failed_jobs(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        done = manager.submit(_request(n_shards=1))
        _drain(manager)
        reborn = JobManager(tmp_path, workers=0)
        assert reborn.resume() == []
        assert reborn.status(done["id"])["state"] == "done"
        text, partial = reborn.results(done["id"])
        assert partial is False
        assert text == manager.results(done["id"])[0]

    def test_unknown_job(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        with pytest.raises(UnknownJobError):
            manager.status("0" * 16)
        with pytest.raises(UnknownJobError):
            manager.results("0" * 16)


class TestValidation:
    @pytest.fixture()
    def manager(self, tmp_path):
        return JobManager(tmp_path, workers=0, max_grid_points=64, max_shards=4)

    @pytest.mark.parametrize(
        "request_patch, match",
        [
            ({"grid": None}, "grid"),
            ({"grid": {}}, "grid"),
            ({"grid": {"warp_drives": [1]}}, "unknown grid parameter"),
            ({"grid": {"mac_lines": []}}, "non-empty list"),
            ({"grid": {"mac_lines": 16}}, "non-empty list"),
            ({"grid": {"mac_lines": [16, "wat"]}}, "must be a number"),
            ({"grid": {"mac_lines": [True]}}, "must be a number"),
            ({"evaluator": "quantum"}, "evaluator"),
            ({"evaluator": {"name": "cycle", "engine": "abacus"}}, "engine"),
            (
                {"evaluator": {"name": "hybrid", "adaptive": True}},
                "adaptive",
            ),
            ({"n_shards": 0}, "n_shards"),
            ({"n_shards": 99}, "n_shards"),
            ({"n_shards": 2.5}, "n_shards"),
            ({"handicap": -1}, "handicap"),
            ({"model": 7}, "model"),
            ({"flux_capacitor": True}, "unknown request field"),
            (
                {"workload_spec": {"kind": "model", "model": "deit-tiny"},
                 "model": "deit-tiny"},
                "not both",
            ),
            ({"workload_spec": {"kind": "opaque"}}, "kind='model'"),
            (
                {"workload_spec": {"kind": "model", "model": "deit-tiny",
                                   "blur": 1}},
                "unknown workload_spec field",
            ),
            ({"evaluator": {"name": "cycle", "scan": "split"}}, "scan"),
        ],
    )
    def test_rejects_before_touching_disk(self, manager, tmp_path,
                                          request_patch, match):
        request = _request()
        if "workload_spec" in request_patch and "model" not in request_patch:
            request.pop("model")  # the shorthand would conflict first
        request.update(request_patch)
        with pytest.raises(ServeRequestError, match=match):
            manager.submit(request)
        assert list((tmp_path / "jobs").iterdir()) == []
        assert manager.run_next() is False

    def test_rejects_oversized_grids(self, manager):
        with pytest.raises(ServeRequestError, match="limit"):
            manager.submit(_request(grid={"mac_lines": list(range(1, 100))}))

    def test_rejects_unknown_models(self, manager):
        with pytest.raises(ServeRequestError, match="workload"):
            manager.submit(_request(model="resnet-9000"))

    def test_rejects_non_dict_bodies(self, manager):
        with pytest.raises(ServeRequestError, match="JSON object"):
            manager.submit(["not", "a", "study"])

    def test_spec_spellings_share_one_job(self, manager):
        """Implicit and explicit workload defaults fingerprint identically."""
        shorthand = manager.submit(_request())
        explicit = manager.submit(
            {
                "grid": GRID,
                "evaluator": {"name": "analytical"},
                "workload_spec": {
                    "kind": "model", "model": "deit-tiny", "sparsity": 0.9,
                    "theta_d": 0.25, "seed": 0, "index_format": "csc",
                    "reordered": True,
                },
            }
        )
        assert explicit["id"] == shorthand["id"]
        assert manager.stats["deduplicated"] == 1


class TestHTTPService:
    """End-to-end over a real socket: the byte-identity contract."""

    @pytest.mark.parametrize("evaluator", ["analytical", "cycle", "hybrid"])
    def test_served_results_byte_identical_to_cli(self, tmp_path, evaluator):
        expected = _cli_reference(tmp_path, evaluator)
        with serving(tmp_path / "data", workers=2) as server:
            client = ServeClient(server.url)
            info = client.submit(_request(evaluator=evaluator, n_shards=2))
            status = client.wait(info["id"], timeout=300)
            assert status["state"] == "done"
            assert client.raw_results(info["id"]) == expected
            again = client.submit(_request(evaluator=evaluator, n_shards=2))
            assert again["cache_hit"] is True
            assert client.raw_results(again["id"]) == expected

    def test_http_validation_and_routing(self, tmp_path):
        with serving(tmp_path / "data", workers=0) as server:
            client = ServeClient(server.url)
            assert client.health()["ok"] is True
            assert client.jobs() == []
            with pytest.raises(ServeError) as excinfo:
                client.submit(_request(grid={"warp_drives": [1]}))
            assert excinfo.value.status == 400
            with pytest.raises(ServeError) as excinfo:
                client.status("0" * 16)
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client.status("not-a-job-id")
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client._request("/jobs", data=b"{not json")
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("length, status", [
        ("-1", 400),
        ("99999999999", 413),
        (str(MAX_BODY_BYTES + 1), 413),
    ], ids=["negative", "huge", "just-over-limit"])
    def test_bad_content_length_rejected_unread(self, tmp_path, length,
                                                status):
        """A bad length is answered without reading the body, and the
        connection closes; the socket timeout fails the test instead of
        hanging it if the server blocks on the read."""
        import socket
        from urllib.parse import urlsplit

        with serving(tmp_path / "data", workers=0) as server:
            url = urlsplit(server.url)
            with socket.create_connection((url.hostname, url.port),
                                          timeout=10) as sock:
                sock.sendall(
                    "POST /jobs HTTP/1.1\r\nHost: test\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode()
                )
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode()
        assert "error" in json.loads(body)

    def test_submission_returns_201_only_on_creation(self, tmp_path):
        import urllib.request

        with serving(tmp_path / "data", workers=2) as server:
            body = json.dumps(_request()).encode()

            def post():
                request = urllib.request.Request(
                    f"{server.url}/jobs", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read())

            first_code, first = post()
            assert first_code == 201
            ServeClient(server.url).wait(first["id"], timeout=120)
            second_code, second = post()
            assert second_code == 200
            assert second["cache_hit"] is True


class _ServerProcess:
    """A real ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, tmp_path, data_dir):
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root] + ([env["PYTHONPATH"]] if "PYTHONPATH" in env
                              else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--data-dir", str(data_dir)],
            cwd=str(tmp_path), env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        banner = self.proc.stdout.readline()
        assert "listening on http://" in banner, banner
        self.url = banner.split("listening on ")[1].split()[0]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


class TestRestartResume:
    """Acceptance: a killed server's jobs finish after a restart."""

    def test_job_survives_a_server_kill(self, tmp_path):
        expected = _cli_reference(tmp_path, "analytical")
        data_dir = tmp_path / "data"
        first = _ServerProcess(tmp_path, data_dir)
        job_id = None
        try:
            client = ServeClient(first.url)
            # The handicap slows each recorded point so the kill lands
            # mid-grid deterministically, not by racing a fast sweep.
            info = client.submit(_request(n_shards=2, handicap=0.4))
            job_id = info["id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status = client.status(job_id)
                if status["done"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("server never recorded a completed point")
            assert status["done"] < status["grid_size"], (
                "job finished before the kill; raise the handicap"
            )
        finally:
            first.kill()

        second = _ServerProcess(tmp_path, data_dir)
        try:
            client = ServeClient(second.url)
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "done"
            assert client.raw_results(job_id) == expected
            # And the finished study now serves straight from the cache.
            again = client.submit(_request(n_shards=2, handicap=0.4))
            assert again["id"] == job_id
            assert again["cache_hit"] is True
        finally:
            second.kill()


class TestCreateOrAttach:
    """The shared create-or-attach helper is race-safe (O_EXCL publish)."""

    def _manifest(self, grid=GRID):
        return build_manifest(
            grid, 2, evaluator_from_spec("analytical"), VITCOD_DEFAULT,
            model_workload_spec("deit-tiny", sparsity=0.9),
        )

    def test_concurrent_identical_creations_all_succeed(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        manifest = self._manifest()
        root = tmp_path / "store"
        with ThreadPoolExecutor(max_workers=8) as pool:
            stores = list(
                pool.map(
                    lambda _: ResultStore.create_or_attach(root, manifest),
                    range(8),
                )
            )
        assert all(store.read_manifest() == stores[0].read_manifest()
                   for store in stores)
        assert not list(root.glob("*.tmp.*"))  # losers cleaned up

    def test_concurrent_mismatched_creation_one_winner(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        manifest_a = self._manifest()
        manifest_b = self._manifest(
            grid={"mac_lines": [16, 64], "ae_compression": [None, 0.5]}
        )
        root = tmp_path / "store"

        def attempt(manifest):
            try:
                ResultStore.create_or_attach(root, manifest)
                return "ok"
            except StoreMismatchError:
                return "mismatch"

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(
                pool.map(attempt, [manifest_a, manifest_b] * 4)
            )
        published = ResultStore(root).read_manifest()
        assert published in (manifest_a, manifest_b)
        winner = manifest_a if published == manifest_a else manifest_b
        expected = ["ok" if m == winner else "mismatch"
                    for m in [manifest_a, manifest_b] * 4]
        assert outcomes == expected
        assert not list(root.glob("*.tmp.*"))

    def test_attach_validates_against_existing(self, tmp_path):
        root = tmp_path / "store"
        ResultStore.create_or_attach(root, self._manifest())
        with pytest.raises(StoreMismatchError):
            ResultStore.create_or_attach(
                root,
                self._manifest(
                    grid={"mac_lines": [16], "ae_compression": [None]}
                ),
            )


class TestBackpressure:
    """Bounded queue: overflow is a 503 + Retry-After, never silent loss."""

    def test_overload_raises_before_touching_disk(self, tmp_path):
        from repro.serve import ServeOverloadError

        manager = JobManager(tmp_path, workers=0, max_pending=1)
        with pytest.raises(ServeOverloadError) as err:
            manager.submit(_request(n_shards=2))
        assert err.value.retry_after >= 1.0
        assert manager.stats["overload_rejections"] == 1
        assert not any(manager.jobs_root.iterdir()), (
            "a rejected submission must not leave a job directory"
        )

    def test_resume_is_exempt_from_the_bound(self, tmp_path):
        roomy = JobManager(tmp_path, workers=0, max_pending=16)
        info = roomy.submit(_request(n_shards=4))
        # A restarted server re-queues accepted work even when the bound
        # would reject the same study as a fresh submission.
        tight = JobManager(tmp_path, workers=0, max_pending=1)
        assert info["id"] in tight.resume()
        assert tight._jobs[info["id"]].state == "queued"
        _drain(tight)
        assert tight._jobs[info["id"]].state == "done"

    def test_http_overload_is_503_with_retry_after(self, tmp_path):
        import urllib.error
        import urllib.request

        with serving(tmp_path / "data", workers=0, max_pending=1) as server:
            body = json.dumps(_request(n_shards=2)).encode()
            request = urllib.request.Request(
                f"{server.url}/jobs", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 503
            assert float(err.value.headers["Retry-After"]) >= 1
            payload = json.loads(err.value.read())
            assert "retry_after" in payload

    def test_client_surfaces_503_without_retries(self, tmp_path):
        with serving(tmp_path / "data", workers=0, max_pending=1) as server:
            client = ServeClient(server.url, retries=0)
            with pytest.raises(ServeError) as err:
                client.submit(_request(n_shards=2))
            assert err.value.status == 503


class TestTaskRetries:
    """Shard-task failures spend a budget before poisoning the job."""

    def test_injected_fsync_failure_heals_within_budget(self, tmp_path):
        expected = _cli_reference(tmp_path, "analytical")
        manager = JobManager(tmp_path / "data", workers=0, task_retries=2)
        info = manager.submit(_request(
            evaluator={"name": "analytical", "faults": {"fsync_error": True}}
        ))
        _drain(manager)
        job = manager._jobs[info["id"]]
        assert job.state == "done"
        assert manager.stats["task_retries"] == 1
        text, partial = manager.results(info["id"])
        assert not partial and text.encode() == expected
        events = [e["event"] for e in manager.events(info["id"])]
        assert "shard_retry" in events

    def test_transient_evaluator_faults_cost_no_task_retries(self, tmp_path):
        """In-shard point retries absorb seeded evaluator errors."""
        expected = _cli_reference(tmp_path, "analytical")
        manager = JobManager(tmp_path / "data", workers=0)
        info = manager.submit(_request(
            evaluator={
                "name": "analytical",
                "faults": {"seed": 3, "evaluator_error_rate": 0.5},
            }
        ))
        _drain(manager)
        assert manager._jobs[info["id"]].state == "done"
        assert manager.stats["task_retries"] == 0
        text, _ = manager.results(info["id"])
        assert text.encode() == expected

    def test_exhausted_budget_fails_the_job(self, tmp_path, monkeypatch):
        import repro.serve.jobs as jobs_mod

        def explode(*args, **kwargs):
            raise RuntimeError("persistent shard crash")

        monkeypatch.setattr(jobs_mod, "run_shard", explode)
        manager = JobManager(tmp_path, workers=0, task_retries=1)
        info = manager.submit(_request())
        _drain(manager)
        job = manager._jobs[info["id"]]
        assert job.state == "failed"
        assert "persistent shard crash" in job.error
        assert manager.stats["task_retries"] == 1
        assert manager.stats["jobs_failed"] == 1

    def test_kill_fault_plans_are_rejected(self, tmp_path):
        manager = JobManager(tmp_path, workers=0)
        with pytest.raises(ServeRequestError, match="kill_after_records"):
            manager.submit(_request(
                evaluator={"name": "analytical",
                           "faults": {"kill_after_records": 1}}
            ))


class TestTaskWatchdog:
    def test_hung_task_times_out_and_fails(self, tmp_path):
        manager = JobManager(
            tmp_path, workers=0, task_timeout=0.3, task_retries=0
        )
        # handicap sleeps per recorded point: 4 points x 0.5s >> 0.3s.
        info = manager.submit(_request(handicap=0.5))
        _drain(manager)
        job = manager._jobs[info["id"]]
        assert job.state == "failed"
        assert "task timeout" in job.error
        assert manager.stats["task_timeouts"] >= 1

    def test_fast_tasks_never_meet_the_watchdog(self, tmp_path):
        manager = JobManager(tmp_path, workers=0, task_timeout=60.0)
        info = manager.submit(_request())
        _drain(manager)
        assert manager._jobs[info["id"]].state == "done"
        assert manager.stats["task_timeouts"] == 0


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        server = _ServerProcess(tmp_path, tmp_path / "data")
        server.proc.send_signal(signal.SIGTERM)
        assert server.proc.wait(timeout=30) == 0
        out = server.proc.stdout.read()
        server.proc.stdout.close()
        assert "draining" in out

    def test_sigterm_mid_job_resumes_cleanly(self, tmp_path):
        expected = _cli_reference(tmp_path, "analytical")
        data_dir = tmp_path / "data"
        first = _ServerProcess(tmp_path, data_dir)
        try:
            client = ServeClient(first.url)
            info = client.submit(_request(n_shards=2, handicap=0.4))
            job_id = info["id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if client.status(job_id)["done"] >= 1:
                    break
                time.sleep(0.02)
        finally:
            first.proc.send_signal(signal.SIGTERM)
        assert first.proc.wait(timeout=60) == 0
        first.proc.stdout.close()

        second = _ServerProcess(tmp_path, data_dir)
        try:
            client = ServeClient(second.url)
            status = client.wait(job_id, timeout=120)
            assert status["state"] == "done"
            assert client.raw_results(job_id) == expected
        finally:
            second.kill()


class TestClientRetries:
    def test_5xx_retries_honour_retry_after(self):
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        hits = []

        class Flaky(BaseHTTPRequestHandler):
            def do_GET(self):
                hits.append(self.path)
                if len(hits) == 1:
                    body = b'{"error": "warming up"}'
                    self.send_response(503)
                    self.send_header("Retry-After", "0")
                else:
                    body = b'{"ok": true, "stats": {}}'
                    self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        httpd = HTTPServer(("127.0.0.1", 0), Flaky)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{httpd.server_address[1]}",
                retries=2, backoff_s=0.01,
            )
            assert client.health()["ok"] is True
            assert len(hits) == 2
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=10)

    def test_4xx_never_retries(self, tmp_path):
        with serving(tmp_path / "data", workers=0) as server:
            client = ServeClient(server.url, retries=3, backoff_s=0.01)
            begin = time.monotonic()
            with pytest.raises(ServeError) as err:
                client.submit({"grid": {"bogus": [1]}})
            assert err.value.status == 400
            assert time.monotonic() - begin < 1.0  # no backoff sleeps

    def test_connection_errors_retry_then_raise(self):
        import urllib.error

        client = ServeClient("http://127.0.0.1:9", retries=2, backoff_s=0.01)
        with pytest.raises(urllib.error.URLError):
            client.health()
