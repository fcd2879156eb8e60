#!/usr/bin/env python3
"""End-to-end benchmark of the datamaran tools.

Run from the repository root:

    python3 perfbench/run.py --workload batch_mixed --seed 1 --seconds 40 \
        --trace 0

The first run builds the library, datamaran_cli, datamaran_crawl and the
benchmark helpers dmbench and dmspawn (perfbench/src) into .bench_build/.
Each run generates its inputs from --seed with src/datagen, runs the
shipped binaries on them with tracing off for --seconds seconds, checks
every output against the ground truth, and prints one JSON object as the
last line of stdout. With --trace 1
it runs the tools once, then replays the workload in-process with a span
around each layer's public call and prints the per-layer metrics instead.
perfbench/NOTES.md lists the workloads and metrics.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BIN = {name: os.path.join(BUILD_DIR, name)
       for name in ("datamaran_cli", "datamaran_crawl", "dmbench",
                    "dmspawn")}

# Every tool invocation runs at this fixed thread count: it exercises the
# parallel paths while keeping scheduler noise out of the timings.
THREADS = 2
# Repetitions of the empty-input commands behind setup_s, made before the
# first timed visit and again after every visit, so that the samples span
# the run like the timed commands do.
SETUP_REPS = 8
# Input variants per run. A run visits each at least once and one of them
# twice, then goes on visiting them in turn while the next visit still ends
# within --seconds of the run's start.
VARIANTS = {"batch_mixed": 3, "lake_github": 4, "follow_drift": 2}
# A command that ends sooner than this (the warm re-crawl) is repeated
# within a visit until its runs add up to it; each run is one sample.
MIN_COMMAND_S = 1.0
# --follow input is written to the tool's stdin in chunks of this size; the
# determinism check writes the same bytes in 4 KiB chunks.
FOLLOW_CHUNK = 1 << 20
SMALL_CHUNK = 4 << 10
MB = 1e6


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    for rel in ("src/core/datamaran.h", "tools/datamaran_cli.cc",
                "tools/datamaran_crawl.cc"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError("repository sources not found: missing " + rel)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configured on every run, so that a build directory left by an older
    # perfbench/CMakeLists.txt learns its new targets.
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                    *BIN.keys()], check=True, stdout=sys.stderr)


def run_child(argv, stderr, feed_path=None, chunk=FOLLOW_CHUNK):
    """Runs one tool invocation in a fresh process, spawned by dmspawn.

    Returns its wall time, peak RSS (ru_maxrss of that child alone, from
    wait4), user+sys CPU time and exit code. With feed_path, dmspawn writes
    the file to the child's stdin in `chunk`-sized reads, inside the timed
    interval. The child is not forked from this process: a child's ru_maxrss
    starts at the resident set of its parent, and dmspawn's is about 1 MB
    where this driver's is tens of MB.
    """
    spawn = [BIN["dmspawn"]]
    if feed_path is not None:
        spawn += ["--stdin", feed_path, "--chunk", str(chunk)]
    proc = subprocess.run([*spawn, "--", *argv], stdout=subprocess.PIPE,
                          stderr=stderr, stdin=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise BenchError("dmspawn %s failed (exit %d)"
                         % (os.path.basename(argv[0]), proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit_code"] != 0:
        log("%s exited %d (stderr in %s)"
            % (os.path.basename(argv[0]), result["exit_code"], stderr.name))
    return {"wall": result["wall_s"], "rss_mb": result["peak_rss_mb"],
            "cpu_s": result["cpu_s"], "rc": result["exit_code"]}


def dmbench(*args):
    proc = subprocess.run([BIN["dmbench"], *map(str, args)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("dmbench %s failed (exit %d)"
                         % (args[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rmtree(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def same_tree(a, b):
    """True when directories a and b hold the same files, byte for byte."""
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    if mismatch or errors:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d))
               for d in cmp.common_dirs)


class Ledger:
    """Operations attempted in a run.

    An operation fails when the program got it wrong in a way a correct
    implementation never does: a nonzero exit, output that differs between
    thread counts, chunkings or repetitions, record counts that differ from
    the checked extraction, or, on follow_drift, other than one evolution.
    An operation that only misses the Section 5.1 ground-truth criterion is
    counted as inaccurate instead: discovery is a heuristic whose known
    misses (the paper's own Fig. 17 accuracy is 95.5%) are reported by the
    failed_pct and accuracy.missed_ops metrics, not as failed operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = []
        self.inaccurate = []

    def add(self, name, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed.append("%s: %s" % (name, reason))

    def add_check(self, report, exit_codes):
        """Folds in a dmbench check report; exit_codes maps each command
        (cold, warm) to its invocation's exit code."""
        self.attempted += report["attempted"]
        for failure in report["failures"]:
            text = "%(command)s %(file)s: %(reason)s" % failure
            rc = exit_codes[failure["command"]]
            if rc != 0:
                self.failed.append("%s (exit %d)" % (text, rc))
            elif failure["kind"] == "criterion":
                self.inaccurate.append(text)
            else:
                self.failed.append(text)
        failed_commands = {f["command"] for f in report["failures"]}
        for command, rc in exit_codes.items():
            if rc != 0 and command not in failed_commands:
                self.add(command, False, "exit %d" % rc)


class Workload:
    """The commands of one workload. `cold` is the first timed invocation,
    `warm` the second one, which reuses the catalog the first wrote."""

    def __init__(self, name, work, stderr):
        self.name = name
        self.work = work
        self.stderr = stderr

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    # Inputs ---------------------------------------------------------------
    def input_path(self):
        return self.path({"batch_mixed": "mixed.log",
                          "lake_github": "lake",
                          "follow_drift": "stream.log"}[self.name])

    def input_bytes(self):
        p = self.input_path()
        if os.path.isdir(p):
            return sum(os.path.getsize(os.path.join(p, f))
                       for f in os.listdir(p))
        return os.path.getsize(p)

    # Commands -------------------------------------------------------------
    def cold(self, name, source=None, chunk=FOLLOW_CHUNK, threads=THREADS):
        source = source or self.input_path()
        prefix = self.path(name)
        out = ["--out=%s.out" % prefix, "--catalog-out=%s.catalog" % prefix]
        t = "--threads=%d" % threads
        if self.name == "lake_github":
            return run_child([BIN["datamaran_crawl"], source, t, *out,
                              "--manifest=%s.manifest.json" % prefix],
                             self.stderr)
        summary = "--summary-json=%s.summary.json" % prefix
        if self.name == "follow_drift":
            return run_child([BIN["datamaran_cli"], "--follow=-", t, *out,
                              summary], self.stderr, feed_path=source,
                             chunk=chunk)
        return run_child([BIN["datamaran_cli"], source, t, *out, summary],
                         self.stderr)

    def warm(self, name, catalog, source=None):
        source = source or self.input_path()
        prefix = self.path(name)
        args = ["--threads=%d" % THREADS, "--catalog-in=" + catalog,
                "--out=%s.out" % prefix]
        if self.name == "lake_github":
            return run_child([BIN["datamaran_crawl"], source, *args,
                              "--catalog-out=%s.catalog" % prefix,
                              "--manifest=%s.manifest.json" % prefix],
                             self.stderr)
        return run_child([BIN["datamaran_cli"], source, *args,
                          "--summary-json=%s.summary.json" % prefix],
                         self.stderr)

    def clear(self, name):
        for ext in (".out", ".catalog", ".catalog.lock", ".summary.json",
                    ".manifest.json"):
            rmtree(self.path(name + ext))

    def outputs_digest(self, name):
        """What a repeated invocation must reproduce: the templates and
        per-template record counts of every file."""
        if self.name == "lake_github":
            with open(self.path(name + ".manifest.json")) as f:
                files = json.load(f)["files"]
            return sorted((f["path"], f["templates"],
                           f["records_per_template"]) for f in files)
        with open(self.path(name + ".summary.json")) as f:
            s = json.load(f)
        return (s["templates"], s["records_per_template"], s["noise_lines"])


def measure_setup(wl, catalog):
    """Wall times of the workload's exact commands on an empty input, the
    warm one with `catalog`: process start, option parsing, pool start and,
    for the warm command, catalog load."""
    empty = wl.path("setup.empty.log")
    open(empty, "wb").close()
    empty_dir = wl.path("setup.empty")
    os.makedirs(empty_dir, exist_ok=True)
    source = empty_dir if wl.name == "lake_github" else empty
    samples = []
    for _ in range(SETUP_REPS):
        cold = wl.cold("setup.cold", source=source)
        warm = wl.warm("setup.warm", catalog, source=source)
        if cold["rc"] != 0 or warm["rc"] != 0:
            raise BenchError("empty-input run exited %d/%d"
                             % (cold["rc"], warm["rc"]))
        samples.append(cold["wall"] + warm["wall"])
        wl.clear("setup.cold")
        wl.clear("setup.warm")
    return samples


def run_workload(name, seed, seconds, trace):
    work = os.path.join(BUILD_DIR, "work", name)
    rmtree(work)
    os.makedirs(work)
    with open(os.path.join(work, "tools.stderr"), "wb") as stderr:
        # Discovery's cost and outcome depend on the sampled values (and on
        # lake_github, on the crawl order), so a run cycles through several
        # input variants generated from its seed and averages over them.
        variants = [Workload(name, os.path.join(work, "v%d" % k), stderr)
                    for k in range(1 if trace else VARIANTS[name])]
        return measure(variants, seed, seconds, trace)


def measure(variants, seed, seconds, trace):
    start = time.perf_counter()
    name = variants[0].name
    ledger = Ledger()
    samples = {"cold": [], "warm": []}  # (variant, run) per tool invocation
    mb = {}  # input MB per variant
    digests = {}

    def timed(k, kind, command):
        runs = [command()]
        while runs[-1]["rc"] == 0 and \
                sum(r["wall"] for r in runs) < MIN_COMMAND_S:
            variants[k].clear(kind)
            runs.append(command())
        samples[kind] += [(k, r) for r in runs]
        return runs[-1]

    # Every input is written, and flushed to disk, before the first timed
    # command, so that no timed command shares the disk with the writeback.
    for k, wl in enumerate(variants):
        os.makedirs(wl.work)
        dmbench("gen", name, seed * 1000 + k, wl.work)
        mb[k] = wl.input_bytes() / MB
    os.sync()

    def visit(k, keep=False):
        wl = variants[k]
        first = k not in digests
        cold = timed(k, "cold", lambda: wl.cold("cold"))
        warm = timed(k, "warm",
                     lambda: wl.warm("warm", wl.path("cold.catalog")))
        runs = (("cold", cold), ("warm", warm))
        if first:
            report = dmbench("check", name, seed * 1000 + k, wl.work,
                             THREADS)
            ledger.add_check(report, {"cold": cold["rc"], "warm": warm["rc"]})
            if report["mismatch_files"]:
                log("%s: warm run differs from cold on %s"
                    % (name, ", ".join(report["mismatch_files"])))
            digests[k] = {kind: wl.outputs_digest(kind)
                          for kind, run in runs if run["rc"] == 0}
        else:
            for kind, run in runs:
                ledger.add("variant %d %s" % (k, kind),
                           run["rc"] == 0 and
                           wl.outputs_digest(kind) == digests[k].get(kind),
                           "exit %d or output differs from its first run"
                           % run["rc"])
        if not keep:
            wl.clear("cold")
            wl.clear("warm")

    # Determinism invariants, once per run: the first command again at
    # --threads=1 (batch_mixed) or fed in 4 KiB writes (follow_drift) must
    # write the same --out tree. That extra invocation runs before the timed
    # ones, so that it also warms the caches they use.
    wl = variants[0]
    invariant = {
        "batch_mixed": ("t1", "threads=1 vs %d" % THREADS, {"threads": 1}),
        "follow_drift": ("c4k", "4 KiB vs 1 MiB chunks",
                         {"chunk": SMALL_CHUNK}),
    }.get(name)
    if invariant:
        other = wl.cold(invariant[0], **invariant[2])
    visit(0, keep=True)
    if invariant:
        ledger.add(invariant[1],
                   other["rc"] == 0 and same_tree(
                       wl.path(invariant[0] + ".out"), wl.path("cold.out")),
                   "--out trees differ")
        wl.clear(invariant[0])

    metrics = {}
    if trace:
        tool_wall = samples["cold"][-1][1]["wall"] + \
            samples["warm"][-1][1]["wall"]
        proc = subprocess.run(
            [BIN["dmbench"], "replay", name, wl.work, str(THREADS),
             repr(tool_wall)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError("traced replay does not reproduce the tools "
                             "(exit %d); no per-layer numbers reported"
                             % proc.returncode)
        layers = json.loads(proc.stdout.strip().splitlines()[-1])
        # The share of operations that failed any check, ground-truth
        # criterion misses included.
        layers["failed_pct"] = (
            100.0 * (len(ledger.failed) + len(ledger.inaccurate))
            / ledger.attempted, "%")
        layers["accuracy.missed_ops"] = (len(ledger.inaccurate), "count")
        for key, (value, unit) in layers.items():
            metrics[key] = {"value": value, "unit": unit}
    else:
        catalog = wl.path("setup.catalog")
        shutil.copyfile(wl.path("cold.catalog"), catalog)
        setup = measure_setup(wl, catalog)
        wl.clear("cold")
        wl.clear("warm")
        took = {}  # variant -> wall time of its latest visit
        visits = 1
        while True:
            k = visits % len(variants)
            now = time.perf_counter()
            expected = took.get(k, max(took.values(), default=0))
            if visits > len(variants) and now - start + expected > seconds:
                break
            visit(k)
            setup += measure_setup(wl, catalog)
            took[k] = time.perf_counter() - now
            visits += 1
        log("%s: %d visits of %d variants in %.1f s; %d cold, %d warm and "
            "%d set-up samples"
            % (name, visits, len(variants), time.perf_counter() - start,
               len(samples["cold"]), len(samples["warm"]), len(setup)))

        # Medians over every run of the command in this run, whatever its
        # variant: the variants of a workload are inputs of one size.
        def median(kind, value):
            return statistics.median(value(k, r) for k, r in samples[kind])

        values = {
            "mb_per_s": (median("cold", lambda k, r: mb[k] / r["wall"]),
                         "MB/s"),
            "warm_mb_per_s": (median("warm", lambda k, r: mb[k] / r["wall"]),
                              "MB/s"),
            "peak_rss_mb": (median("cold", lambda k, r: r["rss_mb"]), "MB"),
            "cpu_s": (median("cold", lambda k, r: r["cpu_s"]), "s"),
            "setup_s": (statistics.median(setup), "s"),
        }
        for key, (value, unit) in values.items():
            metrics[key] = {"value": value, "unit": unit}

    for failure in ledger.failed:
        log("FAILED " + failure)
    if ledger.inaccurate:
        log("%s: %d of %d operations miss the ground-truth criterion"
            % (name, len(ledger.inaccurate), ledger.attempted))
    return {"correct": not ledger.failed, "attempted": ledger.attempted,
            "failed": len(ledger.failed), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(VARIANTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace == 1)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as err:
        log("error: %s" % err)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
