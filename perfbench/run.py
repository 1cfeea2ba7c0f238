#!/usr/bin/env python3
"""End-to-end benchmark of the shipped staratlas_cli and its daemon.

    python3 perfbench/run.py --workload bulk_r111 --seed 1 --seconds 10 \
        --trace 0

Builds staratlas_cli and perfbench_tool from the tree this file sits in,
generates the workload's inputs from --seed, times the CLI's `index`,
`align` and `serve` processes as a user runs them, checks their outputs
(checks.py) and prints one JSON object as the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
A failed check prints "correct": false; a failed build or process exits
non-zero without that line. Workloads, metrics and reference figures: README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from the process's start

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import checks  # noqa: E402

WORKLOADS = ("bulk_r111", "bulk_r108", "atlas_corpus", "service_tenants")
THREADS = 4          # align --threads and serve --workers
INDEX_BUILDS = 8     # index builds around the service_tenants daemon
TAIL_PERCENTILE = 90
STARTUP_RUNS = 20    # cli.startup_ms samples
PROBE_RUNS = 5       # service.rpc_ms samples
SOCKET = "serve.sock"  # relative to the run directory
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark's CMake project; returns the
    build directory."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    with open(build_log, "w") as out:
        for cmd in (["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", str(THREADS),
                     "--target", "staratlas_cli", "perfbench_tool"]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return build_dir


class Proc:
    """Wall time, CPU time and peak RSS of one finished child process."""

    def __init__(self, wall, cpu, rss_mib):
        self.wall = wall
        self.cpu = cpu
        self.rss_mib = rss_mib


def run_proc(cmd, cwd, ok_status=0):
    """Runs a child to completion and reads its accounting from wait4."""
    err_path = os.path.join(cwd, "stderr.log")
    with open(err_path, "w") as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                                 stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != ok_status:
        with open(err_path) as f:
            log(f.read()[-2000:])
        raise BenchError("%s exited %d" % (" ".join(cmd), child.returncode))
    return Proc(wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[int(rank) - 1]


def sync_tree(top):
    """fsyncs every file and directory under top. Without it the kernel
    writes the freshly generated inputs back while the first align
    processes run, and their own writes stall behind that flush in some
    runs and not in others (53 aligns took 0.8 s or 1.3-1.7 s)."""
    for path, _, files in os.walk(top):
        for name in files + ["."]:
            fd = os.open(os.path.join(path, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def read_text(path):
    with open(path) as f:
        return f.read()


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args, build_dir):
        self.args = args
        self.cli = os.path.join(build_dir, "staratlas_cli")
        self.tool = os.path.join(build_dir, "perfbench_tool")
        self.work = os.path.join(ROOT, ".bench_run",
                                 "%s-%d" % (args.workload, args.seed))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.procs = []          # every timed program process
        self.rounds = []         # per round: wall, cpu, samples, reads
        self.latencies_ms = []   # per-sample latencies
        self.first_round_wall = {}   # sample -> CLI align wall, round 1
        self.outputs = {}        # sample -> output digest of round 1
        self.index_walls = []    # index process walls
        self.daemon = None

    # ---- set-up ---------------------------------------------------------
    def setup(self):
        """The cold set-up setup_s times: inputs generated and synced, the
        index built, the first sample aligned."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(os.path.join(self.work, "out"))
        run_proc([self.tool, "gen", "--workload", self.args.workload,
                  "--seed", str(self.args.seed), "--out", self.work],
                 self.work)
        sync_tree(self.work)
        self.manifest = json.loads(read_text(
            os.path.join(self.work, "manifest.json")))
        self.samples = self.manifest["samples"]
        self.op([self.cli, "index", "--fasta", "genome.fa", "--out",
                 "genome.idx", "--release", str(self.manifest["release"])])
        self.op(self.align_cmd(self.samples[0], self.early_stop(),
                               "out/setup"))

    # ---- timed phase ----------------------------------------------------
    def op(self, cmd):
        """One operation: a program process whose accounting counts."""
        self.attempted += 1
        proc = run_proc(cmd, self.work)
        self.procs.append(proc)
        return proc

    def build_index(self):
        """One `staratlas_cli index` process: one index_build_s sample."""
        self.index_walls.append(self.op([
            self.cli, "index", "--fasta", "genome.fa", "--out", "genome.idx",
            "--release", str(self.manifest["release"])]).wall)

    def align_cmd(self, sample, early_stop, prefix):
        cmd = [self.cli, "align", "--index", "genome.idx", "--fastq",
               sample["fastq"], "--gtf", "annotation.gtf", "--out-prefix",
               prefix, "--threads", str(THREADS), "--no-sam"]
        return cmd + (["--early-stop"] if early_stop else [])

    def cli_round(self, early_stop):
        """Every sample aligned once, one process after another."""
        wall = cpu = 0.0
        reads = 0
        first = not self.rounds
        for sample in self.samples:
            prefix = "out/" + sample["name"]
            proc = self.op(self.align_cmd(sample, early_stop, prefix))
            wall += proc.wall
            cpu += proc.cpu
            self.latencies_ms.append(1e3 * proc.wall)
            counts = checks.log_counts(checks.parse_final_log(read_text(
                os.path.join(self.work, prefix + ".Log.final.out"))))
            reads += counts["processed"]
            digest = self.digest(prefix)
            if first:
                self.first_round_wall[sample["name"]] = proc.wall
                self.outputs[sample["name"]] = digest
            elif digest != self.outputs[sample["name"]]:
                self.errors.append("%s: outputs differ between rounds"
                                   % sample["name"])
        self.rounds.append({"wall": wall, "cpu": cpu,
                            "samples": len(self.samples), "reads": reads})

    def digest(self, prefix):
        h = hashlib.sha256()
        for suffix in (".Log.final.out", ".ReadsPerGene.out.tab",
                       ".SJ.out.tab"):
            text = read_text(os.path.join(self.work, prefix + suffix))
            if suffix == ".Log.final.out":  # drop the timing-dependent row
                text = "".join(line for line in text.splitlines(True)
                               if "Mapping speed" not in line)
            h.update(text.encode())
        return h.hexdigest()

    def start_daemon(self):
        """Starts `staratlas_cli serve` and returns once it accepts."""
        sock_path = os.path.join(self.work, SOCKET)
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.daemon_out = open(os.path.join(self.work, "serve.log"), "w")
        self.daemon = subprocess.Popen(
            [self.cli, "serve", "--index", "genome.idx", "--socket", SOCKET,
             "--gtf", "annotation.gtf", "--workers", str(THREADS),
             "--chunk", "256"],
            cwd=self.work, stdout=self.daemon_out, stderr=subprocess.STDOUT)
        deadline = time.perf_counter() + 60
        while True:
            if self.daemon.poll() is not None or \
                    time.perf_counter() > deadline:
                raise BenchError("serve did not come up")
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                try:
                    # relative: AF_UNIX paths are limited to 107 bytes
                    probe.connect(os.path.relpath(sock_path))
                    return
                except (FileNotFoundError, ConnectionRefusedError):
                    time.sleep(0.005)

    def stop_daemon(self):
        """Drains the daemon and reaps it; the run fails if it lingers or
        exits non-zero. The DRAIN reply itself is sometimes lost (the
        daemon shuts the connection down before answering; CHANGES.md), so
        the daemon's exit, not the reply, decides."""
        daemon, self.daemon = self.daemon, None
        try:
            if subprocess.run([self.cli, "submit", "--socket", SOCKET,
                               "--drain"], cwd=self.work,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode != 0:
                log("submit --drain got no reply; waiting for serve")
            deadline = time.perf_counter() + 30
            while True:
                pid, status, usage = os.wait4(daemon.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise BenchError("serve still running after DRAIN")
                time.sleep(0.01)
        except BaseException:
            daemon.kill()  # polls first, so an exited daemon is reaped
            daemon.wait()
            raise
        finally:
            self.daemon_out.close()
        daemon.returncode = os.waitstatus_to_exitcode(status)
        if daemon.returncode != 0:
            raise BenchError("serve exited %d" % daemon.returncode)
        return Proc(0.0, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)

    def write_plan(self, name, lines):
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in lines))
        return path

    def tenant_plan(self):
        lines = ["probe " + self.manifest["probe"]["fastq"]]
        for s in self.samples:
            lines.append("tenant %s %s %s" % (s["tenant"], s["name"],
                                              s["fastq"]))
        return lines

    def service_rounds(self, seconds):
        self.start_daemon()
        os.makedirs(os.path.join(self.work, "replies"), exist_ok=True)
        plan = self.write_plan("load.plan", self.tenant_plan())
        result_path = os.path.join(self.work, "load.json")
        load_cmd = [self.tool, "load", "--socket", SOCKET, "--plan", plan,
                    "--seconds", "%.3f" % seconds, "--daemon-pid",
                    str(self.daemon.pid), "--replies", "replies", "--out",
                    result_path, "--probe-runs", "0"]
        try:
            run_proc(load_cmd, self.work)
        finally:
            daemon = self.stop_daemon()
        self.procs.append(daemon)
        load = json.loads(read_text(result_path))
        self.attempted += load["submitted"]
        self.failed += load["rejected"]
        if load["rejected"]:
            self.errors.append("%d submissions rejected" % load["rejected"])
        if load["mismatched"]:
            self.errors.append("%d replies differ from the sample's first "
                               "reply" % load["mismatched"])
        reads = 0
        for s in self.samples:
            reply = read_text(os.path.join(self.work, "replies",
                                           s["name"] + ".reply"))
            reads += checks.log_counts(checks.parse_final_log(
                checks.split_reply(reply)[0]))["processed"]
        for wall, cpu in zip(load["round_wall_s"], load["round_cpu_s"]):
            self.rounds.append({"wall": wall, "cpu": cpu,
                                "samples": len(self.samples),
                                "reads": reads})
        self.latencies_ms = load["light_ms"]

    def warm_up(self):
        """One untimed align of every sample between set-up and the timed
        phase. After a pause of some seconds the host runs the first
        second or so of four-thread work at the speed of one thread (a
        cold round took 1.2-1.4 s where a warm one takes 0.8 s, CPU time
        unchanged); set-up is mostly one-thread work, so this round keeps
        that effect out of both. On service_tenants its outputs are the
        reference the daemon's replies are checked against: the CLI's own
        align path on every FASTQ the tenants submit."""
        for s in self.samples:
            proc = self.op(self.align_cmd(s, self.early_stop(),
                                          "out/" + s["name"]))
            if self.args.workload == "service_tenants":
                self.first_round_wall[s["name"]] = proc.wall
        self.procs = []

    def early_stop(self):
        return self.args.workload == "atlas_corpus"

    def timed_phase(self):
        start = time.perf_counter()
        deadline = start + self.args.seconds
        if self.args.workload == "service_tenants":
            # Half the index builds before the daemon's rounds and half
            # after, so their median spans the run as on the other
            # workloads.
            for _ in range(INDEX_BUILDS // 2):
                self.build_index()
            self.service_rounds(max(0.0, deadline - time.perf_counter()))
            for _ in range(INDEX_BUILDS // 2):
                self.build_index()
        else:
            # Each round opens with an index build, so a drift in machine
            # speed during the run reaches both timings alike.
            while True:
                self.build_index()
                self.cli_round(self.early_stop())
                if time.perf_counter() >= deadline:
                    break
        self.index_mib = os.path.getsize(
            os.path.join(self.work, "genome.idx")) / MIB

    # ---- correctness ----------------------------------------------------
    def check(self):
        contigs = checks.read_fasta(os.path.join(self.work, "genome.fa"))
        introns = checks.annotated_introns(
            os.path.join(self.work, "annotation.gtf"), contigs)
        service = self.args.workload == "service_tenants"
        on_annotated = total_junction = 0
        atlas = []
        for s in self.samples:
            prefix = os.path.join(self.work, "out", s["name"])
            counts = checks.log_counts(checks.parse_final_log(
                read_text(prefix + ".Log.final.out")))
            rpg_text = read_text(prefix + ".ReadsPerGene.out.tab")
            sj_text = read_text(prefix + ".SJ.out.tab")
            rpg = checks.parse_reads_per_gene(rpg_text)
            sj = checks.parse_sj(sj_text)
            junk = checks.fastq_junk_flags(
                os.path.join(self.work, s["fastq"]))
            errors = checks.check_read_conservation(counts, s["reads"])
            if len(junk) != s["reads"]:
                errors.append("FASTQ holds %d records, manifest says %d"
                              % (len(junk), s["reads"]))
            errors += checks.check_gene_counts(counts, rpg, sj, introns)
            errors += checks.check_mapping_rate(
                counts, sum(junk[:counts["processed"]]))
            junction_errors, on, total = checks.check_junctions(
                rpg, sj, introns)
            errors += junction_errors
            on_annotated += on
            total_junction += total
            if service:
                errors += checks.check_service_reply(
                    s["name"], read_text(os.path.join(
                        self.work, "replies", s["name"] + ".reply")),
                    rpg_text, sj_text)
            atlas.append(dict(s, processed=counts["processed"],
                              stopped=counts["stopped"]))
            self.errors += ["%s: %s" % (s["name"], e) for e in errors]
        self.errors += checks.check_junction_share(on_annotated,
                                                   total_junction)
        self.errors += checks.check_atlas(atlas)
        self.junction_share = on_annotated / max(1, total_junction)
        self.stopped = [a for a in atlas if a["stopped"]]

    # ---- metrics --------------------------------------------------------
    def end_to_end(self, setup_s):
        walls = [r["wall"] for r in self.rounds]
        lat = self.latencies_ms
        return {
            "setup_s": (setup_s, "s"),
            "index_build_s": (statistics.median(self.index_walls), "s"),
            "index_mib": (self.index_mib, "MiB"),
            "align_wall_s": (statistics.median(walls), "s"),
            "samples_per_s": (sum(r["samples"] for r in self.rounds)
                              / sum(walls), "1/s"),
            "reads_aligned": (statistics.median(
                r["reads"] for r in self.rounds), "reads"),
            "cpu_s": (statistics.median(r["cpu"] for r in self.rounds), "s"),
            "peak_rss_mib": (max(p.rss_mib for p in self.procs), "MiB"),
            "latency_p50_ms": (statistics.median(lat), "ms"),
            "latency_tail_ms": (percentile(lat, TAIL_PERCENTILE), "ms"),
        }

    def per_layer(self):
        """The traced replay (perfbench_tool replay) of the round's CLI
        invocations, plus the probes only a separate process can take."""
        stop = self.early_stop()
        plan = ["index genome.fa %d 1" % self.manifest["release"]]
        plan += ["sample %s %s %d" % (s["name"], s["fastq"], stop)
                 for s in self.samples]
        plan += self.tenant_plan() if self.args.workload == \
            "service_tenants" else ["probe " + self.manifest["probe"]["fastq"]]
        plan_path = self.write_plan("replay.plan", plan)
        trace_dir = os.path.join(ROOT, ".bench_run", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, "%s-%d.json" % (self.args.workload,
                                                        self.args.seed))
        metrics_path = os.path.join(self.work, "replay.json")
        run_proc([self.tool, "replay", "--plan", plan_path, "--out",
                  "replay", "--index", "genome.idx", "--gtf",
                  "annotation.gtf", "--threads", str(THREADS), "--spans",
                  spans, "--metrics", metrics_path], self.work)
        m = json.loads(read_text(metrics_path))

        startup = [run_proc([self.cli], self.work, ok_status=1).wall
                   for _ in range(STARTUP_RUNS)]
        self.start_daemon()
        probe_plan = self.write_plan(
            "probe.plan", ["probe " + self.manifest["probe"]["fastq"]])
        probe_path = os.path.join(self.work, "probe.json")
        try:
            run_proc([self.tool, "load", "--socket", SOCKET, "--plan",
                      probe_plan, "--seconds", "0", "--daemon-pid",
                      str(self.daemon.pid), "--replies", ".", "--out",
                      probe_path, "--probe-runs", str(PROBE_RUNS)], self.work)
        finally:
            self.stop_daemon()
        probe = json.loads(read_text(probe_path))
        unattributed = sum(self.first_round_wall[s["name"]]
                           - m["sample.%s.cli_path_s" % s["name"]]
                           for s in self.samples)
        layer = {
            "index.build_s": "s", "index.save_s": "s", "index.load_s": "s",
            "index.text_mib": "MiB", "index.sa_mib": "MiB",
            "index.lut_mib": "MiB", "io.fastq_read_s": "s",
            "io.fastq_block_s": "s", "io.fastq_mib": "MiB",
            "genome.annotation_s": "s", "align.engine_setup_s": "s",
            "align.render_s": "s", "align.execute_s": "s",
            "align.seed_s": "s", "align.extend_classify_s": "s",
            "align.parallel_efficiency": "ratio",
            "align.gene_count_s": "s", "align.junction_s": "s",
            "align.seeds": "count", "align.windows": "count",
            "align.bases_compared": "count", "align.unique_reads": "count",
            "align.multi_reads": "count", "align.stopped_samples": "count",
            "align.stop_fraction": "ratio", "service.inproc_ms": "ms",
            "service.queue_ms": "ms",
        }
        out = {name: (m[name], unit) for name, unit in layer.items()}
        out["service.rpc_ms"] = (statistics.median(probe["probe_ms"]), "ms")
        out["cli.startup_ms"] = (1e3 * statistics.median(startup), "ms")
        out["cli.unattributed_s"] = (unattributed, "s")
        log("spans: " + os.path.relpath(spans, ROOT))
        return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_start = time.perf_counter()
    build_dir = build()
    build_s = time.perf_counter() - build_start

    run = Run(args, build_dir)
    try:
        run.setup()
        setup_s = time.perf_counter() - T0 - build_s
        run.warm_up()
        run.timed_phase()
        run.check()
        e2e = run.end_to_end(setup_s)
        metrics = run.per_layer() if args.trace else e2e
    finally:
        if run.daemon is not None:
            run.daemon.kill()
            run.daemon.wait()
    for error in run.errors:
        log("CHECK FAILED: " + error)
    summary = "rounds=%d latency_samples=%d junction_share=%.4f " \
        "stopped=%s" % (len(run.rounds), len(run.latencies_ms),
                        run.junction_share,
                        ",".join(s["name"] for s in run.stopped) or "-")
    print(summary)
    if args.trace:
        print("traced run end-to-end: " + json.dumps(
            {k: round(v, 6) for k, (v, _) in e2e.items()}))
    shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log("perfbench: " + str(error))
        sys.exit(1)
