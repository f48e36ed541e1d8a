"""Run plumbing for the benchmark: Ray sessions, timed calls, spans, memory.

Everything here measures the program from outside.  A timed call runs in a
helper thread so that a hang becomes a timeout instead of a stuck run; spans
are kept in memory and written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import threading
import time

import ray  # noqa: F401 - puts Ray's bundled psutil on sys.path
import psutil  # noqa: E402

RAY_DAEMONS = ("raylet", "gcs_server")


class CallFailed(Exception):
    """A timed call raised, timed out or returned a wrong result."""


# -- spans -----------------------------------------------------------------
class Tracer:
    """In-memory span recorder.  Calls are issued one at a time, so one
    stack serves every thread that a timed call runs on."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def write_jsonl(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.id = tracer, name, None

    def __enter__(self):
        t = self.tracer
        if t.enabled:
            self.id = len(t.spans)
            t.spans.append({"run_id": t.run_id, "id": self.id,
                            "parent": t._stack[-1] if t._stack else None,
                            "name": self.name, "start": time.perf_counter(),
                            "end": None})
            t._stack.append(self.id)
        return self

    def set(self, **attrs):
        if self.id is not None:
            self.tracer.spans[self.id].update(attrs)

    def __exit__(self, *exc):
        if self.id is not None:
            self.tracer.spans[self.id]["end"] = time.perf_counter()
            self.tracer._stack.pop()


# -- peak memory -----------------------------------------------------------
class MemSampler:
    """Peak RSS summed over this process and all its descendants (the Ray
    daemons and workers started by ``ray.init``), sampled while active."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak = 0
        self.active = False
        self._stop = False
        self._me = psutil.Process()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def sample(self) -> int:
        total = 0
        try:
            procs = [self._me] + self._me.children(recursive=True)
        except psutil.Error:
            return 0
        for p in procs:
            try:
                total += p.memory_info().rss
            except psutil.Error:
                pass
        return total

    def _loop(self):
        while not self._stop:
            if self.active:
                self.peak = max(self.peak, self.sample())
            time.sleep(self.interval)

    def close(self):
        self._stop = True
        self._thread.join()


# -- Ray session -----------------------------------------------------------
def wait_ray_gone(timeout: float = 60.0):
    """Block until no raylet / GCS process is left (ours or a previous run's)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and _running(
            p for p in psutil.process_iter(["name"]) if p.info["name"] in RAY_DAEMONS):
        time.sleep(0.1)


def ray_temp_dir(work_dir: str) -> str:
    """Ray's session dir goes inside ``work_dir`` unless the unix socket
    path it implies would pass the 107-byte limit."""
    d = os.path.join(work_dir, "ray")
    # <d>/session_YYYY-MM-DD_HH-MM-SS_uuuuuu_PID/sockets/plasma_store
    if len(d) + 70 <= 107:
        return d
    return os.path.join("/tmp", f"pb-{os.getpid()}-{time.time_ns() % 10**8}")


def start_ray(num_cpus: int, object_store_bytes: int, temp_dir: str):
    import ray

    ray.init(
        address="local",
        num_cpus=num_cpus,
        object_store_memory=object_store_bytes,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=temp_dir,
        _system_config={
            # keep idle workers for the whole run: by default Ray kills them
            # after 1 s, and a later call pays process start-up at random
            "idle_worker_killing_time_threshold_ms": 600_000,
            # run workers at the driver's priority: at Ray's default of
            # nice 15, any other load on the host starves them
            "worker_niceness": 0,
        },
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def _running(procs):
    out = []
    for p in procs:
        try:
            if p.status() != psutil.STATUS_ZOMBIE:
                out.append(p)
        except psutil.Error:
            pass
    return out


def stop_ray(temp_dir: str):
    """Shut Ray down and wait until every process it started has exited;
    kill what is still running 5 s after the shutdown."""
    import ray

    started = psutil.Process().children(recursive=True)
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + 5
    while _running(started) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = _running(started)
    for p in left:
        try:
            print(f"perfbench: killing {p.pid} {p.name()}", file=sys.stderr)
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(left, timeout=5)
    wait_ray_gone()
    shutil.rmtree(temp_dir, ignore_errors=True)


# -- timed calls ------------------------------------------------------------
def run_with_timeout(fn, timeout: float):
    """Run ``fn`` on a helper thread; raise TimeoutError if it is still
    running after ``timeout`` seconds (the thread is then abandoned)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 - reported to the caller
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        raise TimeoutError(f"call still running after {timeout:.0f}s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


class Runner:
    """Issues timed calls one at a time and keeps the failure ledger."""

    def __init__(self, tracer: Tracer, mem: MemSampler, deadline: float,
                 call_timeout: float):
        self.tracer = tracer
        self.mem = mem
        self.deadline = deadline
        self.call_timeout = call_timeout
        self.attempted = 0
        self.failures: list[str] = []
        self.new_pass()

    def new_pass(self):
        self.pass_wall = 0.0  # timed seconds in the current pass
        self.calls: dict[str, float] = {}  # name -> seconds
        # one (graph edges, seconds, rows out, bytes in) per PageRank superstep
        self.steps: list[tuple] = []

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def call(self, name: str, fn):
        """Time ``fn()`` under the call timeout.  Returns its result, or
        raises CallFailed after recording why."""
        self.attempted += 1
        timeout = max(1.0, min(self.call_timeout, self.remaining()))
        self.mem.active = True
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name):
                return run_with_timeout(fn, timeout)
        except Exception as e:  # noqa: BLE001 - any error fails the call
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            raise CallFailed(name) from e
        finally:
            dt = time.perf_counter() - t0
            self.mem.active = False
            self.pass_wall += dt
            self.calls[name] = self.calls.get(name, 0.0) + dt

    def check(self, name: str, bad):
        """Untimed result check: ``bad`` is None/empty, or why the result
        of call ``name`` is wrong (which fails the call)."""
        if bad:
            self.failures.append(f"{name}: wrong result: {bad}")
            raise CallFailed(name)

    @property
    def failed(self) -> int:
        return len(self.failures)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def dir_bytes(path: str, skip=()) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f not in skip:
                total += os.path.getsize(os.path.join(root, f))
    return total
