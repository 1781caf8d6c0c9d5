"""Building the programs and running them: timed commands, the daemon's
life cycle, and the harness subcommands."""

import json
import os
import select
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

BUILD_DIR = ".bench_build"
TARGETS = ["pb", "panagree-sweep", "panagree-serve", "panagree-compile"]


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def build(root, jobs):
    """Configures (once) and builds the harness and the tools from the
    source tree at `root`; returns {target: path}. Output goes to
    .bench_build/build.log."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"{root} holds no panagree source tree to build")
    out = root / BUILD_DIR / "cmake"
    log_path = root / BUILD_DIR / "build.log"
    tmp = root / BUILD_DIR / "tmp"      # the compiler's scratch files too
    tmp.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(root / "perfbench" / "harness"),
                          "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", str(jobs),
                      "--target", *TARGETS])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env, timeout=840) != 0:
                raise BenchError(f"build failed; see {log_path}")
    return {"pb": out / "pb",
            **{t: out / "panagree" / t for t in TARGETS if t != "pb"}}


def run_timed(argv, env, stdout_path, timeout=150):
    """Runs a command to completion. Returns (exit code, wall seconds,
    peak RSS in KiB). stdout goes to `stdout_path`, stderr after it in
    `stdout_path`.err."""
    with open(stdout_path, "wb") as out, \
            open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Daemon:
    """One panagree-serve process: started, waited on until its readiness
    line, stopped with SIGTERM (its graceful drain)."""

    def __init__(self, argv, env, stderr_path, timeout=60):
        self.stderr = open(stderr_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.stderr, env=env)
        line = b""
        deadline = start + timeout
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self.proc.stdout], [], [],
                                              left)[0]:
                self.stop()
                raise BenchError("daemon not ready in time")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.stop()
                raise BenchError("daemon exited before readiness")
            line += chunk
        self.ready_s = time.perf_counter() - start
        self.readiness = line.decode().strip()
        if not self.readiness.startswith("listening on 127.0.0.1:"):
            self.stop()
            raise BenchError(f"unexpected readiness line: {self.readiness}")
        self.port = int(self.readiness.split()[2].rsplit(":", 1)[1])

    def peak_rss_kb(self):
        """VmHWM of the running daemon."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1])
        raise BenchError("no VmHWM in /proc status")

    def stop(self):
        """SIGTERM, then wait for the drain; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        return self.proc.returncode


def request_once(port, line, timeout=10):
    """Sends one request on a fresh connection; returns the parsed
    response (used for the daemon's `stats` kind)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(line.encode() + b"\n")
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


def harness(pb, *args, timeout=150):
    """Runs a pb subcommand; returns its stdout."""
    result = subprocess.run([str(pb), *map(str, args)], capture_output=True,
                            timeout=timeout)
    if result.returncode != 0:
        raise BenchError(f"pb {args[0]} failed: "
                         f"{result.stderr.decode(errors='replace').strip()}")
    return result.stdout


def read_tsv(path):
    with open(path) as f:
        return [row.rstrip("\n").split("\t") for row in f]


def workdir(root, name):
    path = Path(root) / BUILD_DIR / "runs" / name
    path.mkdir(parents=True, exist_ok=True)
    return path
