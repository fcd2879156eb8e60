#!/usr/bin/env python3
"""Self-test: the benchmark's peak-memory readings can tell O(n) from O(1).

The benchmark reads peak RSS two ways, both as the ru_maxrss of a fresh
child process, never by resetting VmHWM:

  * end to end, from wait4 on a tool that dmspawn forks and execs
    (run.py run_child);
  * per layer, from wait4 on a fork()ed child that runs one layer's calls
    (the replay's ChildPeakMb, driven here through `dmbench rss-probe`).

For each, a child that keeps every 1 MiB block it allocates (O(n)) must read
higher at 256 MiB than at 64 MiB by most of the difference, and a child that
reuses one 1 MiB block (O(1)) must read the same at both sizes.

A child's ru_maxrss starts at its parent's resident set, so the readings
must also not depend on what the spawning process holds: an O(1) tool must
read its own size while this driver holds a large buffer, and while a large
file streams into its stdin. A per-layer probe must refuse to fork from a
parent that holds a large buffer.

Run from the repository root:  python3 perfbench/test_rss.py
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL_MIB, LARGE_MIB = 64, 256
# What the driver holds, and streams into a tool's stdin, in those tests.
BALLAST_MIB = 256
STREAM_MIB = 128
MIB_IN_MB = (1 << 20) / run.MB
# An O(n) reading must grow by at least this share of the extra allocation.
MIN_GROWTH = 0.75
# An O(1) reading may differ by at most this many MB between the sizes.
MAX_DRIFT_MB = 8

CHILD = """
import sys
n, linear = int(sys.argv[1]), sys.argv[2] == "on"
kept, reused = [], bytearray(1 << 20)
for i in range(n):
    block = bytearray(1 << 20) if linear else reused
    block[::4096] = bytes([i % 251 + 1]) * len(range(0, 1 << 20, 4096))
    if linear:
        kept.append(block)
"""


# Reads its stdin to the end in 64 KiB chunks.
DRAIN = """
import sys
while sys.stdin.buffer.read(1 << 16):
    pass
"""


def exec_peak_mb(mib, linear):
    result = run.run_child([sys.executable, "-c", CHILD, str(mib),
                            "on" if linear else "o1"], sys.stderr)
    assert result["rc"] == 0
    return result["rss_mb"]


def drain_peak_mb(stdin_path):
    result = run.run_child([sys.executable, "-c", DRAIN], sys.stderr,
                           feed_path=stdin_path)
    assert result["rc"] == 0
    return result["rss_mb"]


def fork_peak_mb(mib, linear):
    out = subprocess.run([run.BIN["dmbench"], "rss-probe", str(mib),
                          "on" if linear else "o1"],
                         check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["peak_rss_mb"]


class RssReadingTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.work = os.path.join(run.BUILD_DIR, "work", "test_rss")
        os.makedirs(cls.work, exist_ok=True)
        # Baselines, read while this process is still small: a vfork()ed
        # child would start at this process's peak, not its current size.
        cls.empty = os.path.join(cls.work, "empty")
        open(cls.empty, "wb").close()
        cls.alone_mb = exec_peak_mb(SMALL_MIB, False)
        cls.drain_alone_mb = drain_peak_mb(cls.empty)

    @classmethod
    def tearDownClass(cls):
        run.rmtree(cls.work)

    def check_separates(self, peak_mb):
        extra = (LARGE_MIB - SMALL_MIB) * MIB_IN_MB
        linear = peak_mb(LARGE_MIB, True) - peak_mb(SMALL_MIB, True)
        constant = peak_mb(LARGE_MIB, False) - peak_mb(SMALL_MIB, False)
        self.assertGreaterEqual(linear, MIN_GROWTH * extra)
        self.assertLessEqual(abs(constant), MAX_DRIFT_MB)

    def test_exec_child(self):
        self.check_separates(exec_peak_mb)

    def test_forked_child(self):
        self.check_separates(fork_peak_mb)

    def test_exec_child_ignores_driver_memory(self):
        ballast = bytearray(BALLAST_MIB << 20)
        ballast[::4096] = b"\x01" * len(range(0, len(ballast), 4096))
        beside = exec_peak_mb(SMALL_MIB, False)
        del ballast
        self.assertLessEqual(abs(beside - self.alone_mb), MAX_DRIFT_MB)

    def test_exec_child_ignores_stdin_size(self):
        big = os.path.join(self.work, "big")
        block = (b"x" * 4095 + b"\n") * 256  # 1 MiB
        with open(big, "wb") as f:
            for _ in range(STREAM_MIB):
                f.write(block)
        fed = drain_peak_mb(big)
        self.assertLessEqual(abs(fed - self.drain_alone_mb), MAX_DRIFT_MB)

    def test_forked_child_refuses_large_parent(self):
        out = subprocess.run([run.BIN["dmbench"], "rss-probe", str(SMALL_MIB),
                              "o1", str(BALLAST_MIB)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertNotEqual(out.returncode, 0)


if __name__ == "__main__":
    unittest.main()
