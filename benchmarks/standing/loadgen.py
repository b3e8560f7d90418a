"""The load generator: owns the server child and drives it over the wire
with closed-loop ``ServeClient`` connections.

Closed loop - each client sends its next query when the previous reply
arrives - models applications and analysts that wait for an answer; a
slower server is therefore offered less load, and throughput is reported
per client count, not against an offered rate.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import GISError
from repro.serve.client import ServeClient

from . import spec
from .mix import Op
from .oracle import Answer

HOST = "127.0.0.1"
#: Seconds the parent waits for any one reply of the child.
CHILD_TIMEOUT_S = 60.0


class HarnessError(RuntimeError):
    """The benchmark itself could not run or failed its own validation."""


class Sample(NamedTuple):
    shape: str
    latency_ms: float
    done_at: float
    ok: bool


class Phase(NamedTuple):
    """One timed phase: its samples and the server marks around it."""

    clients: int
    started: float
    samples: List[Sample]
    before: Dict[str, Any]
    after: Dict[str, Any]

    @property
    def ok_samples(self) -> List[Sample]:
        return [sample for sample in self.samples if sample.ok]

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)


class ServerChild:
    """The server process; ``setup_s`` is spawn to port printed."""

    def __init__(self, workload: str, seed: int, trace_out: Optional[Path] = None) -> None:
        spec.OUT_DIR.mkdir(exist_ok=True)
        self._scratch = tempfile.mkdtemp(prefix="csv-", dir=spec.OUT_DIR)
        command = [
            sys.executable, "-m", "benchmarks.standing.server_main",
            "--workload", workload, "--seed", str(seed),
            "--scratch", self._scratch,
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(spec.REPO_ROOT / "src"), str(spec.REPO_ROOT)]
        )
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            command, cwd=spec.REPO_ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            hello = self._read()
        except HarnessError:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port: int = hello["port"]
        self.setup_stages: Dict[str, float] = hello["setup"]

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Leaving without ``quit`` (an error on the way) kills the child."""
        self.kill()

    def _read(self) -> Dict[str, Any]:
        assert self._proc.stdout is not None
        # One line per reply and one reply per command, so nothing is ever
        # left in the reader's buffer for select() to miss.
        ready, _, _ = select.select([self._proc.stdout], [], [], CHILD_TIMEOUT_S)
        if not ready:
            raise HarnessError(f"server child gave no reply in {CHILD_TIMEOUT_S:.0f} s")
        line = self._proc.stdout.readline()
        if not line:
            raise HarnessError(
                f"server child exited (code {self._proc.poll()}) without a reply"
            )
        return json.loads(line)

    def command(self, text: str) -> Dict[str, Any]:
        assert self._proc.stdin is not None
        self._proc.stdin.write(text + "\n")
        self._proc.stdin.flush()
        return self._read()

    def mark(self) -> Dict[str, Any]:
        return self.command("mark")

    def quit(self) -> Dict[str, Any]:
        """Stop the child and wait for it; returns its last reply."""
        try:
            final = self.command("quit")
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except (HarnessError, OSError, subprocess.TimeoutExpired):
            self.kill()
            raise
        self._cleanup()
        return final

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._cleanup()

    def _cleanup(self) -> None:
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream is not None:
                stream.close()
        shutil.rmtree(self._scratch, ignore_errors=True)


def _client_loop(
    port: int,
    name: str,
    ops: Sequence[Op],
    answers: Dict[str, Answer],
    barrier: threading.Barrier,
    samples: List[Sample],
    before_op: Any,
) -> None:
    """One closed-loop client. A dropped connection fails every op left."""
    try:
        client = ServeClient(HOST, port, tenant=name)
    except (GISError, OSError):
        barrier.abort()
        raise
    try:
        barrier.wait()
        for index, op in enumerate(ops):
            if before_op is not None:
                before_op(index)
            started = time.perf_counter()
            try:
                result = client.query(op.sql)
            except GISError:
                # A typed error or a refusal: this op failed, the
                # connection is still good.
                samples.append(Sample(op.shape, 0.0, time.perf_counter(), False))
                continue
            except OSError:
                done = time.perf_counter()
                samples.extend(
                    Sample(rest.shape, 0.0, done, False) for rest in ops[index:]
                )
                return
            done = time.perf_counter()
            ok = result.complete and answers[op.sql].accepts(result.rows)
            samples.append(Sample(op.shape, (done - started) * 1000.0, done, ok))
    finally:
        client.close()


def run_phase(
    child: ServerChild,
    client_ops: Sequence[Sequence[Op]],
    answers: Dict[str, Answer],
    notify_sources: Sequence[str] = (),
) -> Phase:
    """Run one phase with ``len(client_ops)`` closed-loop clients, each on
    its own connection and thread. With ``notify_sources``, client 0 sends
    ``notify`` round-robin before every ``CHURN_NOTIFY_EVERY``-th op."""
    per_client: List[List[Sample]] = [[] for _ in client_ops]
    barrier = threading.Barrier(len(client_ops) + 1)

    def notify_before(index: int) -> None:
        if index and index % spec.CHURN_NOTIFY_EVERY == 0:
            turn = index // spec.CHURN_NOTIFY_EVERY
            child.command(f"notify {notify_sources[turn % len(notify_sources)]}")

    threads = [
        threading.Thread(
            target=_client_loop,
            args=(
                child.port, f"client{index}", ops, answers, barrier,
                per_client[index],
                notify_before if notify_sources and index == 0 else None,
            ),
            name=f"standing-client-{index}",
        )
        for index, ops in enumerate(client_ops)
    ]
    before = child.mark()
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        raise HarnessError("a client could not connect to the server child") from None
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    after = child.mark()
    samples = [sample for client in per_client for sample in client]
    attempted = sum(len(ops) for ops in client_ops)
    if len(samples) != attempted:
        raise HarnessError(
            f"a client thread died: {len(samples)} samples for {attempted} ops"
        )
    return Phase(len(client_ops), started, samples, before, after)


def verify_clean(
    child: ServerChild, ops: Sequence[Op], answer_for: Callable[[str], Answer]
) -> Tuple[Dict[str, Answer], List[float]]:
    """Run every distinct SQL text once, before any timing, against the
    answer ``answer_for`` gives (the oracle's, or a record of it);
    disagreement stops the run. Returns the answers by text and each op's
    latency in ms - the first execution of everything after server start."""
    answers: Dict[str, Answer] = {}
    latencies: List[float] = []
    with ServeClient(HOST, child.port, tenant="verify") as client:
        for op in ops:
            answer = answer_for(op.sql)
            started = time.perf_counter()
            result = client.query(op.sql)
            latencies.append((time.perf_counter() - started) * 1000.0)
            if not (result.complete and answer.accepts(result.rows)):
                raise HarnessError(
                    f"verify-clean: engine and oracle disagree on {op.shape}: "
                    f"{op.sql!r} (oracle {answer.row_count} rows, engine "
                    f"{len(result.rows)} rows)"
                )
            answers[op.sql] = answer
    return answers, latencies
