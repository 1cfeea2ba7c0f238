"""Correctness checks of the benchmark, computed apart from the program.

Every expected value here comes from the inputs the benchmark generated
(FASTA, GTF, FASTQ read names, the catalog) or from a second, separate
execution path of the program, never from the output under test itself.
Each check returns a list of error strings; an empty list means it passed.
test_checks.py feeds each check an output corrupted on purpose.
"""

# Largest allowed gap between the mapped rate and the share of reads the
# simulator did not name "junk" (absolute, over the reads processed).
MAPPED_RATE_TOLERANCE = 0.03
# Smallest allowed share of unique junction reads that land on annotated
# introns, pooled over one round of a workload. The collector misplaces
# some junctions (see CHANGES.md), so the share is below 1 today.
JUNCTION_SHARE_MIN = 0.90
# A gene counts as expressed, for the every-intron-is-found check, once
# this many reads were counted to it.
EXPRESSED_MIN_COUNT = 500
# Early stopping decides at this fraction of the reads (EarlyStopPolicy).
CHECKPOINT_FRACTION = 0.10


def parse_final_log(text):
    """Log.final.out as {label: value string}."""
    fields = {}
    for line in text.splitlines():
        if "|" in line:
            label, value = line.split("|", 1)
            fields[label.strip()] = value.strip()
    return fields


def log_counts(log):
    """The integer read counts of a parsed Log.final.out."""
    names = {
        "input": "Number of input reads",
        "processed": "Reads processed",
        "unique": "Uniquely mapped reads number",
        "multi": "Number of reads mapped to multiple loci",
        "too_many": "Number of reads mapped to too many loci",
        "unmapped": "Number of unmapped reads",
    }
    counts = {key: int(log[label]) for key, label in names.items()}
    counts["stopped"] = "Run terminated early (early stopping)" in log
    return counts


def read_fasta(path):
    """{contig name: sequence} of a FASTA file (name = first header word)."""
    contigs = {}
    name = None
    parts = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith(">"):
                if name is not None:
                    contigs[name] = "".join(parts)
                name = line[1:].split()[0]
                parts = []
            elif line:
                parts.append(line.upper())
    if name is not None:
        contigs[name] = "".join(parts)
    return contigs


def left_normalize(seq, start, end):
    """Leftmost equivalent placement of intron [start, end) (0-based)."""
    while start > 0 and seq[start - 1] == seq[end - 1]:
        start -= 1
        end -= 1
    return start, end


def annotated_introns(gtf_path, contigs):
    """{gene_id: [(contig, start1, end1)]}: each gene's introns, left-
    normalised against the FASTA, in SJ.out.tab's 1-based inclusive form."""
    exons = {}
    with open(gtf_path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            cols = line.rstrip("\n").split("\t")
            if len(cols) < 9 or cols[2] != "exon":
                continue
            gene = cols[8].split('gene_id "', 1)[1].split('"', 1)[0]
            # GTF is 1-based inclusive; keep 0-based half-open internally.
            exons.setdefault(gene, []).append(
                (cols[0], int(cols[3]) - 1, int(cols[4])))
    introns = {}
    for gene, rows in exons.items():
        rows.sort(key=lambda r: r[1])
        gene_introns = []
        for (contig, _, a_end), (_, b_start, _) in zip(rows, rows[1:]):
            start, end = left_normalize(contigs[contig], a_end, b_start)
            gene_introns.append((contig, start + 1, end))
        introns[gene] = gene_introns
    return introns


def fastq_junk_flags(path):
    """One bool per FASTQ record, in file order: True when the simulator
    named the read as junk (read.<n>.junk)."""
    flags = []
    with open(path) as f:
        for i, line in enumerate(f):
            if i % 4 == 0:
                flags.append(line.rstrip("\n").endswith(".junk"))
    return flags


def parse_reads_per_gene(text):
    """(special rows {N_...: n}, [(gene_id, count)]) of ReadsPerGene."""
    special = {}
    genes = []
    for line in text.splitlines():
        name, count = line.split("\t")
        if name.startswith("N_"):
            special[name] = int(count)
        else:
            genes.append((name, int(count)))
    return special, genes


def parse_sj(text):
    """SJ.out.tab rows as (contig, start, end, unique, multi, overhang)."""
    rows = []
    for line in text.splitlines():
        cols = line.split("\t")
        rows.append((cols[0], int(cols[1]), int(cols[2]), int(cols[6]),
                     int(cols[7]), int(cols[8])))
    return rows


def split_reply(body):
    """A service reply -> (Log.final text, ReadsPerGene text, SJ text)."""
    lines = body.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("N_unmapped\t"))
    end = start
    while end < len(lines) and "\t" in lines[end] and \
            lines[end].count("\t") == 1:
        end += 1
    return "".join(lines[:start]), "".join(lines[start:end]), \
        "".join(lines[end:])


def check_read_conservation(counts, records_written):
    errors = []
    if counts["input"] != records_written:
        errors.append("Number of input reads %d != %d records written"
                      % (counts["input"], records_written))
    total = (counts["unique"] + counts["multi"] + counts["too_many"]
             + counts["unmapped"])
    if total != counts["processed"]:
        errors.append("unique+multi+too_many+unmapped %d != processed %d"
                      % (total, counts["processed"]))
    return errors


def check_gene_counts(counts, reads_per_gene, sj_rows, introns):
    """Conservation, and a lower bound per gene from the junction reads:
    a unique read across one of a gene's annotated introns is that gene's
    read, so no gene may count fewer reads than its best-supported intron."""
    special, genes = reads_per_gene
    errors = []
    total = sum(n for _, n in genes) + special["N_noFeature"] + \
        special["N_ambiguous"]
    if total != counts["unique"]:
        errors.append("genes+N_noFeature+N_ambiguous %d != unique %d"
                      % (total, counts["unique"]))
    support = {(c, s, e): u for c, s, e, u, _, _ in sj_rows}
    for gene, count in genes:
        best = max((support.get(i, 0) for i in introns.get(gene, [])),
                   default=0)
        if count < best:
            errors.append("%s counts %d reads but an intron of it has %d "
                          "unique junction reads" % (gene, count, best))
    return errors


def check_mapping_rate(counts, junk_processed):
    """`junk_processed`: junk-named reads among the reads processed."""
    errors = []
    processed = counts["processed"]
    mapped = counts["unique"] + counts["multi"]
    non_junk = processed - junk_processed
    if mapped > non_junk:
        errors.append("%d reads mapped but only %d processed reads are not "
                      "junk" % (mapped, non_junk))
    if processed and abs(mapped - non_junk) > \
            MAPPED_RATE_TOLERANCE * processed:
        errors.append("mapped rate %.4f vs non-junk share %.4f"
                      % (mapped / processed, non_junk / processed))
    return errors


def check_junctions(reads_per_gene, sj_rows, introns):
    """Every annotated intron of an expressed gene is in SJ.out.tab.
    Returns (errors, unique reads on annotated introns, all unique
    junction reads) so the share can be pooled over a round."""
    _, genes = reads_per_gene
    found = {(c, s, e) for c, s, e, _, _, _ in sj_rows}
    errors = []
    for gene, count in genes:
        if count < EXPRESSED_MIN_COUNT:
            continue
        for intron in introns.get(gene, []):
            if intron not in found:
                errors.append("annotated intron %s:%d-%d of %s (%d reads) "
                              "missing from SJ.out.tab"
                              % (intron + (gene, count)))
    annotated = {i for gene_introns in introns.values() for i in gene_introns}
    on_annotated = sum(u for c, s, e, u, _, _ in sj_rows
                       if (c, s, e) in annotated)
    total = sum(row[3] for row in sj_rows)
    return errors, on_annotated, total


def check_junction_share(on_annotated, total):
    if total == 0:
        return ["no unique junction reads at all"]
    share = on_annotated / total
    if share < JUNCTION_SHARE_MIN:
        return ["share of unique junction reads on annotated introns "
                "%.4f < %.2f" % (share, JUNCTION_SHARE_MIN)]
    return []


def check_atlas(samples):
    """`samples`: dicts with type ('bulk' / 'single_cell'), reads,
    processed and stopped. Early stopping must stop exactly the
    single-cell samples, after the checkpoint and before the end."""
    errors = []
    for s in samples:
        name = s["name"]
        if s["stopped"] != (s["type"] == "single_cell"):
            errors.append("%s (%s) stopped=%s" % (name, s["type"],
                                                  s["stopped"]))
        if s["stopped"]:
            if not (CHECKPOINT_FRACTION * s["reads"] <= s["processed"]
                    < s["reads"]):
                errors.append("%s stopped after %d of %d reads"
                              % (name, s["processed"], s["reads"]))
        elif s["processed"] != s["reads"]:
            errors.append("%s processed %d of %d reads"
                          % (name, s["processed"], s["reads"]))
    return errors


def check_service_reply(name, reply, cli_reads_per_gene, cli_sj):
    """The reply's ReadsPerGene and SJ sections must be byte-identical to
    `staratlas_cli align` on the same FASTQ."""
    try:
        _, rpg, sj = split_reply(reply)
    except StopIteration:
        return ["%s: reply has no ReadsPerGene section" % name]
    errors = []
    if rpg != cli_reads_per_gene:
        errors.append("%s: ReadsPerGene differs from the CLI's" % name)
    if sj != cli_sj:
        errors.append("%s: SJ rows differ from the CLI's" % name)
    return errors
