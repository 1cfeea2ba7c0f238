#!/usr/bin/env python3
"""End-to-end test of the built staratlas_cli.

Runs synthesize -> index -> simulate (one bulk and one single-cell
sample) -> align, and checks that:
  * align's outputs (Log.final.out without its speed row, ReadsPerGene,
    SJ.out.tab, SAM) are byte-identical at --threads 1 and 4, with
    --early-stop on a sample that does not stop, and against --shards 2,
    which runs the scatter/gather path as an independent oracle;
  * an early stop lands on the same read count at every thread count and
    leaves no SAM file behind;
  * an empty FASTQ aligns to an empty sample (mean read length 0.0);
  * a malformed or missing FASTQ fails with exit code 2, a clean message
    and no outputs;
  * `submit --drain` gets its reply from a running `serve` daemon.

usage: cli_e2e_test.py PATH_TO_STARATLAS_CLI
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

CLI = None
FAILURES = []


def run(args, cwd, expect_code=0, timeout=120):
    proc = subprocess.run([CLI] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != expect_code:
        raise AssertionError(
            "%s exited %d (expected %d)\nstdout: %s\nstderr: %s"
            % (" ".join(args), proc.returncode, expect_code, proc.stdout,
               proc.stderr))
    return proc


def check(condition, message):
    if not condition:
        FAILURES.append(message)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def outputs(cwd, prefix, sam):
    """The comparable outputs of one align run, speed row dropped."""
    log = b"".join(line for line in read(os.path.join(cwd, prefix +
                                                      ".Log.final.out"))
                   .splitlines(keepends=True)
                   if b"Mapping speed" not in line)
    out = {
        "Log.final.out": log,
        "ReadsPerGene.out.tab": read(os.path.join(cwd, prefix +
                                                  ".ReadsPerGene.out.tab")),
        "SJ.out.tab": read(os.path.join(cwd, prefix + ".SJ.out.tab")),
    }
    if sam:
        out["sam"] = read(os.path.join(cwd, prefix + ".sam"))
    return out


def align(cwd, fastq, prefix, *flags, expect_code=0):
    return run(["align", "--index", "idx.bin", "--fastq", fastq, "--gtf",
                "annotation.gtf", "--out-prefix", prefix] + list(flags),
               cwd, expect_code)


def aligned_line(proc):
    return [line for line in proc.stdout.splitlines()
            if line.startswith("aligned ")][0]


def log_field(cwd, prefix, label):
    for line in read(os.path.join(cwd, prefix + ".Log.final.out")) \
            .decode().splitlines():
        if "|" in line and line.split("|")[0].strip() == label:
            return line.split("|", 1)[1].strip()
    return None


def check_identical(runs, what):
    (base_name, base), *rest = runs
    for name, out in rest:
        for key in base:
            check(out[key] == base[key],
                  "%s: %s differs between %s and %s"
                  % (what, key, base_name, name))


def main():
    global CLI
    if len(sys.argv) != 2:
        print(__doc__)
        return 1
    CLI = os.path.abspath(sys.argv[1])
    cwd = tempfile.mkdtemp(prefix="staratlas_cli_e2e_")
    try:
        run(["synthesize", "--out-dir", ".", "--release", "111", "--seed",
             "5"], cwd)
        run(["index", "--fasta", "genome.fa", "--out", "idx.bin"], cwd)
        run(["simulate", "--fasta", "genome.fa", "--gtf", "annotation.gtf",
             "--out", "bulk.fq", "--profile", "bulk", "--reads", "3000",
             "--seed", "11"], cwd)
        run(["simulate", "--fasta", "genome.fa", "--gtf", "annotation.gtf",
             "--out", "sc.fq", "--profile", "single_cell", "--reads", "3000",
             "--seed", "12"], cwd)

        # Every mode that runs to completion gives the same bytes.
        for sample in ("bulk", "sc"):
            fastq = sample + ".fq"
            runs = []
            for name, flags in (("t1", ["--threads", "1"]),
                                ("t4", ["--threads", "4"]),
                                ("shards2", ["--threads", "2", "--shards",
                                             "2"])):
                prefix = "%s_%s" % (sample, name)
                proc = align(cwd, fastq, prefix, *flags)
                check(aligned_line(proc).startswith("aligned 3000/3000 "),
                      "%s %s: %s" % (sample, name, aligned_line(proc)))
                runs.append((name, outputs(cwd, prefix, sam=True)))
            if sample == "bulk":
                prefix = "bulk_es"
                align(cwd, fastq, prefix, "--threads", "4", "--early-stop")
                runs.append(("early-stop", outputs(cwd, prefix, sam=True)))
            check_identical(runs, sample)
            check(log_field(cwd, sample + "_t1", "Number of input reads") ==
                  "3000", "%s: input read count" % sample)

        # An early stop lands on the same read count at every thread count
        # and leaves no SAM behind.
        stops = []
        for threads in ("1", "2", "4"):
            prefix = "sc_es_t" + threads
            proc = align(cwd, "sc.fq", prefix, "--threads", threads,
                         "--early-stop")
            line = aligned_line(proc)
            check(line.endswith("[EARLY-STOPPED]"),
                  "single-cell sample did not stop: " + line)
            stops.append((threads, line.split()[1],
                          outputs(cwd, prefix, sam=False)))
            for leftover in (".sam", ".sam.partial"):
                check(not os.path.exists(os.path.join(cwd, prefix + leftover)),
                      prefix + leftover + " left behind by an early stop")
        check(len({count for _, count, _ in stops}) == 1,
              "early stop landed on different read counts: %s"
              % [(t, c) for t, c, _ in stops])
        check(stops[0][1].endswith("/3000") and stops[0][1] != "3000/3000",
              "early stop read count " + stops[0][1])
        check_identical([("threads " + t, out) for t, _, out in stops],
                        "early stop")

        # A 0-byte FASTQ is an empty sample.
        open(os.path.join(cwd, "empty.fq"), "w").close()
        for name, flags in (("plain", []), ("es", ["--early-stop"]),
                            ("shards", ["--shards", "2"])):
            prefix = "empty_" + name
            proc = align(cwd, "empty.fq", prefix, *flags)
            check(aligned_line(proc).startswith("aligned 0/0 "),
                  "empty %s: %s" % (name, aligned_line(proc)))
            check(log_field(cwd, prefix, "Average input read length") ==
                  "0.0", "empty %s: mean read length %s" % (
                      name, log_field(cwd, prefix,
                                      "Average input read length")))
            check(log_field(cwd, prefix, "Number of input reads") == "0",
                  "empty %s: input reads" % name)

        # A malformed record, even one far past the early-stop checkpoint,
        # fails the run with the parser's message and writes nothing.
        with open(os.path.join(cwd, "bad.fq"), "wb") as f:
            f.write(read(os.path.join(cwd, "sc.fq")))
            f.write(b"@bad\nACGT\n+\nII\n")
        errors = set()
        for name, flags in (("plain", []), ("es", ["--early-stop"]),
                            ("shards", ["--shards", "2"])):
            prefix = "bad_" + name
            proc = align(cwd, "bad.fq", prefix, *flags, expect_code=2)
            errors.add(proc.stderr)
            check(proc.stderr.startswith("error: parse error: FASTQ "),
                  "malformed %s: %s" % (name, proc.stderr))
            left = [p for p in os.listdir(cwd) if p.startswith(prefix)]
            check(not left, "malformed %s left %s" % (name, left))
        check(len(errors) == 1, "malformed input messages differ: %s" % errors)

        proc = align(cwd, "missing.fq", "missing", expect_code=2)
        check(proc.stderr == "error: io error: cannot open FASTQ file: "
              "missing.fq\n", "missing input: " + proc.stderr)

        # The daemon answers DRAIN before it exits.
        sock = os.path.join(cwd, "sa.sock")
        daemon = subprocess.Popen(
            [CLI, "serve", "--index", "idx.bin", "--gtf", "annotation.gtf",
             "--socket", sock, "--workers", "2"], cwd=cwd,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            for _ in range(200):
                if os.path.exists(sock):
                    break
                time.sleep(0.05)
            run(["submit", "--socket", sock, "--fastq", "bulk.fq", "--tenant",
                 "t", "--out-prefix", "svc"], cwd)
            run(["submit", "--socket", sock, "--drain"], cwd)
            check(daemon.wait(timeout=60) == 0, "serve exited nonzero")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    except AssertionError as error:
        FAILURES.append(str(error))
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    for failure in FAILURES:
        print("FAIL:", failure)
    if not FAILURES:
        print("cli_e2e: all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
