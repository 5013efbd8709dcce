"""Open-loop load generator for the ``service-mixed`` workload.

    python3 perfbench/loadgen.py --plan PLAN.json --work-dir DIR
        [--no-journal] [--trace] [--boots N] [--label NAME]

Starts the daemon the way users start it (``python -m repro.harness serve
--port 0 --jobs 2 --state-dir <fresh>``, with a fresh result-cache dir),
then one thread submits every job of the plan at its due time and another
polls the outstanding jobs; a job's latency runs from its due time to the
poll that first sees it terminal.  ``--boots`` extra spawn/``/healthz``/
SIGTERM cycles before the measured one give repeated set-up samples.  The
host-speed probe (``hostspeed.py``) runs twenty times before the first boot
and twenty times after the last daemon has stopped, while nothing else of
the run is busy.  The last stdout line is one JSON object of raw
measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import hostspeed  # noqa: E402

sys.path.insert(0, str(common.SRC))

from repro.service.client import ServiceClient, ServiceError  # noqa: E402

BOOT_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0
POLL_PAUSE_S = 0.02
TERMINAL = ("done", "failed", "cancelled")
PROBES_EACH_SIDE = 20


class Daemon:
    """One ``repro.harness serve`` child process."""

    def __init__(self, work_dir: str, journal: bool, label: str):
        self.state_dir = os.path.join(work_dir, f"{label}-state")
        cache_dir = os.path.join(work_dir, f"{label}-cache")
        cmd = [sys.executable, "-m", "repro.harness", "serve", "--port", "0",
               "--jobs", "2"]
        if journal:
            cmd += ["--state-dir", self.state_dir]
        # Users set no hash seed: neither do we, so the daemon and its
        # workers hash as a plain ``python -m`` start does.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
        env.update(REPRO_CACHE_DIR=cache_dir, PYTHONPATH=str(common.SRC))
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.port = None
        self.t_ready = None

    def wait_ready(self) -> ServiceClient:
        line = _readline(self.proc, BOOT_TIMEOUT_S)
        if "listening on http://" not in line:
            raise RuntimeError(f"daemon did not announce a port: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        client = ServiceClient(port=self.port, tenant="loadgen", timeout=30.0)
        deadline = self.t_spawn + BOOT_TIMEOUT_S
        while True:
            try:
                client.health()
                break
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)
        self.t_ready = time.perf_counter()
        return client

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    box = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(timeout)
    if not box:
        proc.kill()
        raise RuntimeError("daemon did not start in time")
    return box[0]


class OpenLoop:
    """Submit each job at its due time; poll until every job is terminal.

    ``clock`` and ``sleep`` are injectable so the timing rule — latency
    from the due time, not the send time — can be tested without a
    daemon."""

    def __init__(self, plan, submit, status, fetch, spans: common.SpanLog,
                 clock=time.perf_counter, sleep=time.sleep):
        self.plan = plan
        self.submit, self.status, self.fetch = submit, status, fetch
        self.spans = spans
        self.clock, self.sleep = clock, sleep
        self.jobs = {j["job"]: dict(j) for j in plan}
        self._lock = threading.Lock()
        self._submitted = []
        self._all_sent = threading.Event()
        self.poll_s = []

    def run_submitter(self, t0: float) -> None:
        for job in self.plan:
            rec = self.jobs[job["job"]]
            due = t0 + job["due"]
            delay = due - self.clock()
            if delay > 0:
                self.sleep(delay)
            sent = self.clock()
            rec["due_t"], rec["lag_s"] = due, sent - due
            try:
                rec["id"] = self.submit(job["runs"])
            except ServiceError as err:
                rec["refused"] = err.status
            done = self.clock()
            rec["submit_s"] = done - sent
            self.spans.add("service.submit", sent, done, req=f"job{job['job']}",
                           lane=1)
            with self._lock:
                if "id" in rec:
                    self._submitted.append(rec)
        self._all_sent.set()

    def run_poller(self, give_up: float) -> None:
        outstanding = []
        while True:
            with self._lock:
                outstanding.extend(self._submitted)
                self._submitted.clear()
            sent_all = self._all_sent.is_set()
            if not outstanding and sent_all:
                return
            if self.clock() > give_up:
                return
            for rec in list(outstanding):
                t0 = self.clock()
                state = self.status(rec["id"])
                t1 = self.clock()
                self.poll_s.append(t1 - t0)
                req = f"job{rec['job']}"
                self.spans.add("service.poll", t0, t1, req=req, lane=2)
                if state not in TERMINAL:
                    continue
                rec["done_t"], rec["status"] = t1, state
                rec["latency_s"] = t1 - rec["due_t"]
                payload = self.fetch(rec["id"])
                t2 = self.clock()
                rec["result_s"] = t2 - t1
                rec["result"] = payload
                self.spans.add("service.result", t1, t2, req=req, lane=2)
                outstanding.remove(rec)
            self.sleep(POLL_PAUSE_S)

    def run(self, give_up_after: float) -> None:
        t0 = self.clock() + 0.05
        submitter = threading.Thread(target=self.run_submitter, args=(t0,))
        submitter.start()
        try:
            self.run_poller(t0 + give_up_after)
        finally:
            submitter.join()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--plan", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--no-journal", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--boots", type=int, default=0)
    ap.add_argument("--label", default="loadgen")
    args = ap.parse_args(argv)

    plan = common.load_json(args.plan)
    spans = common.SpanLog(process=args.label, enabled=args.trace)
    probes = []
    for _ in range(PROBES_EACH_SIDE):
        probes.append(hostspeed.probe())
    boots = []
    for i in range(args.boots):
        daemon = Daemon(args.work_dir, not args.no_journal, f"{args.label}-boot{i}")
        try:
            daemon.wait_ready()
            boots.append(daemon.t_ready - daemon.t_spawn)
        finally:
            daemon.stop()

    daemon = Daemon(args.work_dir, not args.no_journal, args.label)
    try:
        client = daemon.wait_ready()
        boots.append(daemon.t_ready - daemon.t_spawn)
        spans.add("service.boot", daemon.t_spawn, daemon.t_ready, lane=0)
        poller = ServiceClient(port=daemon.port, tenant="loadgen", timeout=30.0)

        def submit(keys):
            runs = []
            for key in keys:
                app, backend, entries = common.parse_cell(key)
                runs.append({"benchmark": app, "backend": backend,
                             "osu_entries": entries})
            return client.submit(runs)["id"]

        loop = OpenLoop(plan, submit, lambda jid: poller.job(jid)["status"],
                        poller.result, spans)
        horizon = max((j["due"] for j in plan), default=0.0)
        loop.run(horizon + DRAIN_TIMEOUT_S)
        metrics = client.metrics("service")
    finally:
        rc = daemon.stop()
    for _ in range(PROBES_EACH_SIDE):
        probes.append(hostspeed.probe())
    out = {
        "boot_s": boots,
        "peak_rss_kb": common.peak_rss_kb(),
        "jobs": [loop.jobs[j["job"]] for j in plan],
        "poll_s": loop.poll_s,
        "metrics": metrics,
        "daemon_rc": rc,
        "probe_s": probes,
        "spans": spans.spans,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
