"""Launch and control the server processes of one workload.

Each server is ``child.py`` in its own process, started with
``PYTHONHASHSEED=0``; it inherits the generator's CPU affinity (one
CPU, set by ``run.py``).  The parent talks to a child only over its
control pipe and its socket.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from workloads import Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
HOST = "127.0.0.1"


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def write_site(root: str, documents: Dict[str, bytes]) -> None:
    """Lay the site out the way ``DiskStore`` reads it."""
    for name, data in documents.items():
        path = os.path.join(root, *name.strip("/").split("/"))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)


class Cluster:
    """The home server and its co-ops, as child processes."""

    def __init__(self, workload: Workload, home_root: str, scratch: str,
                 entry_points: List[str]) -> None:
        self.workload = workload
        self.home_root = home_root
        self.scratch = scratch
        self.entry_points = entry_points
        self.children: List[subprocess.Popen] = []
        self.addresses: List[Tuple[str, int]] = []
        self.launched_at = 0.0

    @property
    def home(self) -> Tuple[str, int]:
        return self.addresses[0]

    def start(self) -> None:
        workload = self.workload
        self.launched_at = time.perf_counter()
        os.makedirs(self.scratch, exist_ok=True)
        self.addresses = [(HOST, free_port())
                          for __ in range(1 + workload.coops)]
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC)
        for index, (host, port) in enumerate(self.addresses):
            spec = {
                "host": host, "port": port,
                "front_end": workload.front_end,
                "time_factor": workload.time_factor,
                "root": self.home_root if index == 0 else
                os.path.join(self.scratch, f"coop{index}"),
                "entry_points": self.entry_points if index == 0 else [],
                "peers": [f"{h}:{p}" for h, p in self.addresses
                          if (h, p) != (host, port)],
                "journal": os.path.join(self.scratch, "home.wal")
                if workload.journal and index == 0 else None,
                # The checkout's disk is not tmpfs; with fsync on, update
                # timings would measure that disk, not the program.
                "store_fsync": False,
            }
            self.children.append(subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps(spec)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                env=env, text=True, bufsize=1))
        for child in self.children:
            self._read(child)       # its "ready" line

    @staticmethod
    def _read(child: subprocess.Popen) -> dict:
        line = child.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server process {child.pid} exited (code {child.poll()})")
        return json.loads(line)

    def ask(self, index: int, **command: object) -> dict:
        child = self.children[index]
        child.stdin.write(json.dumps(command) + "\n")
        child.stdin.flush()
        return self._read(child)

    def cpu_s(self) -> float:
        """CPU seconds used so far by all server processes."""
        return sum(self.ask(index, op="cpu")["cpu_s"]
                   for index in range(len(self.children)))

    def stats(self) -> List[dict]:
        return [self.ask(index, op="stats")
                for index in range(len(self.children))]

    def stop(self) -> None:
        """Stop every child and wait for it; kill what does not answer."""
        for child in self.children:
            if child.poll() is None:
                try:
                    child.stdin.write('{"op": "stop"}\n')
                    child.stdin.close()
                except OSError:
                    pass
        for child in self.children:
            try:
                child.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
            child.stdout.close()
        self.children = []
