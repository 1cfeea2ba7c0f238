"""Self-tests of checks.py: each check passes on a consistent output and
fails on the same output corrupted on purpose.

    python3 perfbench/test_checks.py
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

# A 60-base contig. Gene G1 has exons [5,15) and [25,40) (0-based), so its
# intron is [15,25); seq[14] == seq[24] == "A", so the intron also sits at
# [14,24), and left-normalising moves it there: 1-based 15..24.
CONTIG = "CCCCCGGGGGTTTTACCCCCGGGGACCCCCGGGGGTTTTTCCCCCGGGGGTTTTTCCCCC"
GTF = (
    "c1\ttest\tgene\t6\t40\t.\t+\t.\tgene_id \"G1\";\n"
    "c1\ttest\texon\t6\t15\t.\t+\t.\tgene_id \"G1\"; transcript_id \"T1\";\n"
    "c1\ttest\texon\t26\t40\t.\t+\t.\tgene_id \"G1\"; transcript_id \"T1\";\n"
    "c1\ttest\texon\t45\t50\t.\t+\t.\tgene_id \"G2\"; transcript_id \"T2\";\n"
)
LOG = """                          staratlas Log.final.out
                     Number of input reads |\t1000
                 Average input read length |\t100.0
                           Reads processed |\t1000
                            UNIQUE READS:
              Uniquely mapped reads number |\t800
                   Uniquely mapped reads % |\t80.00%
                            MULTI-MAPPING READS:
   Number of reads mapped to multiple loci |\t100
        % of reads mapped to multiple loci |\t10.00%
   Number of reads mapped to too many loci |\t0
        % of reads mapped to too many loci |\t0.00%
                            UNMAPPED READS:
                  Number of unmapped reads |\t100
                       % of reads unmapped |\t10.00%
                            SPEED:
  Mapping speed, Million of reads per hour |\t0.00
"""
RPG = ("N_unmapped\t100\nN_multimapping\t100\nN_noFeature\t40\n"
       "N_ambiguous\t10\nG1\t600\nG2\t150\n")
SJ = "c1\t15\t24\t0\t0\t0\t570\t3\t40\nc1\t10\t19\t0\t0\t0\t30\t0\t22\n"


def corrupt(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


class Fixture(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        fasta = os.path.join(tmp.name, "g.fa")
        gtf = os.path.join(tmp.name, "a.gtf")
        with open(fasta, "w") as f:
            f.write(">c1 chromosome\n%s\n%s\n" % (CONTIG[:30], CONTIG[30:]))
        with open(gtf, "w") as f:
            f.write(GTF)
        self.introns = checks.annotated_introns(
            gtf, checks.read_fasta(fasta))

    def counts(self, log=LOG):
        return checks.log_counts(checks.parse_final_log(log))


class IntronTest(Fixture):
    def test_left_normalised(self):
        self.assertEqual(self.introns, {"G1": [("c1", 15, 24)], "G2": []})


class ReadConservationTest(Fixture):
    def test_passes(self):
        self.assertEqual(checks.check_read_conservation(self.counts(), 1000),
                         [])

    def test_fails_on_wrong_input_count(self):
        self.assertTrue(checks.check_read_conservation(self.counts(), 999))

    def test_fails_on_lost_read(self):
        log = corrupt(LOG, "unmapped reads |\t100", "unmapped reads |\t99")
        self.assertTrue(checks.check_read_conservation(self.counts(log),
                                                       1000))


class GeneCountsTest(Fixture):
    def check(self, rpg):
        return checks.check_gene_counts(
            self.counts(), checks.parse_reads_per_gene(rpg),
            checks.parse_sj(SJ), self.introns)

    def test_passes(self):
        self.assertEqual(self.check(RPG), [])

    def test_fails_on_lost_count(self):
        self.assertTrue(self.check(corrupt(RPG, "G2\t150", "G2\t149")))

    def test_fails_on_count_moved_between_genes(self):
        # G1 keeps fewer reads than its intron's 570 unique junction reads.
        moved = corrupt(corrupt(RPG, "G1\t600", "G1\t500"), "G2\t150",
                        "G2\t250")
        self.assertTrue(self.check(moved))


class MappingRateTest(Fixture):
    def test_passes(self):
        self.assertEqual(checks.check_mapping_rate(self.counts(), 100), [])

    def test_fails_when_junk_maps(self):
        # 900 mapped but only 850 reads are not junk.
        self.assertTrue(checks.check_mapping_rate(self.counts(), 150))

    def test_fails_outside_tolerance(self):
        log = corrupt(corrupt(LOG, "Uniquely mapped reads number |\t800",
                              "Uniquely mapped reads number |\t700"),
                      "unmapped reads |\t100", "unmapped reads |\t200")
        self.assertTrue(checks.check_mapping_rate(self.counts(log), 100))


class JunctionTest(Fixture):
    def check(self, sj):
        return checks.check_junctions(checks.parse_reads_per_gene(RPG),
                                      checks.parse_sj(sj), self.introns)

    def test_passes(self):
        errors, on, total = self.check(SJ)
        self.assertEqual((errors, on, total), ([], 570, 600))
        self.assertEqual(checks.check_junction_share(on, total), [])

    def test_fails_on_junction_shifted_by_one_base(self):
        errors, on, total = self.check(corrupt(SJ, "c1\t15\t24", "c1\t16\t25"))
        self.assertTrue(errors)
        self.assertTrue(checks.check_junction_share(on, total))

    def test_share_fails_below_bound(self):
        self.assertTrue(checks.check_junction_share(89, 100))
        self.assertTrue(checks.check_junction_share(0, 0))


class AtlasTest(unittest.TestCase):
    SAMPLES = [
        {"name": "b1", "type": "bulk", "reads": 1000, "processed": 1000,
         "stopped": False},
        {"name": "s1", "type": "single_cell", "reads": 1000,
         "processed": 256, "stopped": True},
    ]

    def test_passes(self):
        self.assertEqual(checks.check_atlas(self.SAMPLES), [])

    def test_fails_on_bulk_sample_marked_stopped(self):
        samples = [dict(self.SAMPLES[0], stopped=True, processed=256),
                   self.SAMPLES[1]]
        self.assertTrue(checks.check_atlas(samples))

    def test_fails_on_single_cell_sample_not_stopped(self):
        samples = [self.SAMPLES[0],
                   dict(self.SAMPLES[1], stopped=False, processed=1000)]
        self.assertTrue(checks.check_atlas(samples))

    def test_fails_on_stop_before_checkpoint(self):
        samples = [self.SAMPLES[0], dict(self.SAMPLES[1], processed=50)]
        self.assertTrue(checks.check_atlas(samples))

    def test_fails_on_partial_bulk_sample(self):
        samples = [dict(self.SAMPLES[0], processed=999), self.SAMPLES[1]]
        self.assertTrue(checks.check_atlas(samples))


class ServiceReplyTest(unittest.TestCase):
    REPLY = LOG + RPG + SJ

    def test_passes(self):
        self.assertEqual(checks.check_service_reply("x", self.REPLY, RPG, SJ),
                         [])

    def test_fails_on_reply_byte_changed(self):
        for old, new in (("G2\t150", "G2\t151"), ("\t570\t", "\t571\t")):
            reply = corrupt(self.REPLY, old, new)
            self.assertTrue(checks.check_service_reply("x", reply, RPG, SJ))

    def test_fails_without_counts(self):
        self.assertTrue(checks.check_service_reply("x", LOG + SJ, RPG, SJ))


if __name__ == "__main__":
    unittest.main()
