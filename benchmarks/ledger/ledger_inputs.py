"""Seeded inputs and the untimed reference for the layer ledger.

Everything the program under test sees is generated here from the
workload seed and written as FASTA: the resident bank every serve
workload searches, the query pools requests are drawn from, and the
protein bank + genome of the one-shot workload.  The reference answers
come from a cold in-process ``SeedComparisonPipeline(PipelineConfig())``
run at ``workers=1``, computed before any timing starts.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import SeedComparisonPipeline
from repro.seqs.alphabet import AMINO, DNA
from repro.seqs.fasta import load_bank, read_fasta, write_fasta
from repro.seqs.generate import (
    make_family,
    plant_homologs,
    random_genome,
    random_protein,
    random_protein_bank,
)
from repro.seqs.sequence import BankBuilder, Sequence, SequenceBank

#: One alignment as the service returns it; floats compare bit for bit.
Row = tuple[str, str, int, int, int, int, int, int, float, float]


@dataclass(frozen=True)
class Scale:
    """Input sizes and run shape; ``FULL`` is the benchmark, ``SMOKE`` the test."""

    resident: int = 4000
    resident_mean: float = 200.0
    motif_every: int = 1000
    motif_length: int = 60
    homolog_pool: int = 40
    homolog_length: int = 120
    homolog_per_request: int = 8
    short_pool: int = 240
    short_length: int = 100
    short_per_request: int = 2
    genome_proteins: int = 400
    protein_length: int = 335
    genome_families: int = 4
    family_length: int = 250
    genome_nt: int = 600_000
    boots: int = 3
    warmup_requests: int = 2
    #: Requests the traced pass drives and replays, per serve workload.
    trace_requests: dict[str, int] = field(
        default_factory=lambda: {"homolog-closed": 12, "short-closed": 200}
    )


FULL = Scale()

SMOKE = Scale(
    resident=300,
    motif_every=100,
    homolog_pool=6,
    homolog_per_request=3,
    short_pool=12,
    genome_proteins=40,
    genome_families=2,
    family_length=150,
    genome_nt=30_000,
    boots=1,
    warmup_requests=1,
    trace_requests={"homolog-closed": 3, "short-closed": 6},
)


def _text(codes: np.ndarray) -> str:
    return Sequence("_", codes, AMINO).text()


def _pool(
    rng: np.random.Generator, n: int, length: int, prefix: str, suffix: str = ""
) -> list[tuple[str, str]]:
    # One fixed length: step-2 pairs and random step-3 hits grow with query
    # length, and a per-seed swing in it would read as a speed change.
    return [
        (f"{prefix}{i:04d}", _text(random_protein(rng, length)) + suffix)
        for i in range(n)
    ]


@dataclass
class ServeInputs:
    """Resident bank + query pools of the serve workloads (one seed)."""

    resident_path: Path
    resident: SequenceBank
    homolog: list[tuple[str, str]]
    short: list[tuple[str, str]]


def make_serve_inputs(seed: int, scale: Scale, workdir: Path) -> ServeInputs:
    """Resident bank shaped like ``bench_serve.make_workload`` plus pools.

    Every ``motif_every``-th resident protein ends with a 60-aa family
    motif and every homolog query carries it, so a homolog request
    yields real alignments whose gapped extension dominates the request.
    Short queries are unrelated background proteins.
    """
    rng = np.random.default_rng([seed, 1])
    motif = _text(random_protein(rng, scale.motif_length))
    raw = random_protein_bank(
        rng, scale.resident, mean_length=scale.resident_mean, name_prefix="res"
    )
    builder = BankBuilder()
    for i in range(len(raw)):
        text = raw[i].text()
        builder.add(raw.names[i], text + motif if i % scale.motif_every == 0 else text)
    path = workdir / "resident.fasta"
    write_fasta(iter(builder.build()), path)
    return ServeInputs(
        resident_path=path,
        # The reference reads the same file the server loads.
        resident=load_bank(path),
        homolog=_pool(rng, scale.homolog_pool, scale.homolog_length, "hom", motif),
        short=_pool(rng, scale.short_pool, scale.short_length, "sht"),
    )


def request_stream(
    seed: int, pool_size: int, per_request: int, stream: int
) -> Iterator[tuple[int, ...]]:
    """Endless requests, each *per_request* distinct pool indices.

    Requests are fresh combinations of pool queries, so no two requests
    in a run are likely to be equal, while the reference only has to be
    computed once per pool query.
    """
    rng = np.random.default_rng([seed, stream])
    while True:
        yield tuple(int(x) for x in rng.choice(pool_size, per_request, replace=False))


def report_rows(report) -> list[Row]:
    """Rows of a :class:`ComparisonReport`, in report order."""
    return [
        (a.seq0_name, a.seq1_name, a.start0, a.end0, a.start1, a.end1,
         a.raw_score, a.ungapped_score, a.bit_score, a.evalue)
        for a in report.alignments
    ]


def serve_reference(
    resident: SequenceBank, queries: list[tuple[str, str]]
) -> dict[str, list[Row]]:
    """Reference alignment rows of every pool query, keyed by query name.

    One cold ``compare_banks`` over all pool queries at once: each query
    is a separate sequence of bank 0 (pad-separated, its own length in
    the E-value), so its alignments do not depend on which other
    queries share its request.  A request's expected rows are the union
    of its queries' rows.
    """
    builder = BankBuilder()
    for name, text in queries:
        builder.add(name, text)
    report = SeedComparisonPipeline(PipelineConfig()).compare_banks(
        builder.build(), resident
    )
    out: dict[str, list[Row]] = {name: [] for name, _ in queries}
    for row in report_rows(report):
        out[row[0]].append(row)
    return out


def response_rows(alignments: list[dict]) -> list[Row]:
    """Rows of a ``/search`` response body, in response order."""
    return [
        (a["query"], a["subject"], *a["query_range"], *a["subject_range"],
         a["raw_score"], a["ungapped_score"], a["bit_score"], a["evalue"])
        for a in alignments
    ]


def rows_match(got: list[Row], reference: dict[str, list[Row]], names: list[str]) -> bool:
    """Same rows as the reference, bit for bit, in best-first order."""
    order_ok = all(
        (a[9], -a[6]) <= (b[9], -b[6]) for a, b in zip(got, got[1:], strict=False)
    )
    expected = sorted(row for name in names for row in reference[name])
    return order_ok and sorted(got) == expected


@dataclass
class GenomeInputs:
    """Protein bank + genome of the one-shot workload (one seed)."""

    proteins_path: Path
    genome_path: Path
    tiny_proteins_path: Path
    tiny_genome_path: Path
    families: list[str]


def make_genome_inputs(seed: int, scale: Scale, workdir: Path) -> GenomeInputs:
    """Background proteins plus planted families, as ``repro-psc synth`` does.

    Protein and family lengths are fixed and member identity kept high,
    so every family is found and the work does not swing with the seed.
    A tiny pair of files measures the fixed cost of one ``compare``.
    """
    rng = np.random.default_rng([seed, 2])
    bank = [
        Sequence(f"prot{i:06d}", random_protein(rng, scale.protein_length))
        for i in range(scale.genome_proteins - scale.genome_families)
    ]
    genome = random_genome(rng, scale.genome_nt)
    families = [
        make_family(rng, f, scale.family_length, 2, identity_range=(0.7, 0.9))
        for f in range(scale.genome_families)
    ]
    genome, _truth = plant_homologs(rng, genome, families)
    extras = [Sequence(f"family{f.family_id:03d}", f.ancestor) for f in families]
    out = GenomeInputs(
        proteins_path=workdir / "proteins.fasta",
        genome_path=workdir / "genome.fasta",
        tiny_proteins_path=workdir / "tiny_proteins.fasta",
        tiny_genome_path=workdir / "tiny_genome.fasta",
        families=[s.name for s in extras],
    )
    write_fasta(bank + extras, out.proteins_path)
    write_fasta([genome], out.genome_path)
    write_fasta([bank[0]], out.tiny_proteins_path)
    write_fasta([random_genome(rng, 3000, name="tiny")], out.tiny_genome_path)
    return out


def load_genome_inputs(inputs: GenomeInputs) -> tuple[SequenceBank, Sequence]:
    """The one-shot inputs exactly as the ``compare`` CLI reads them."""
    proteins = load_bank(inputs.proteins_path)
    genome = next(iter(read_fasta(inputs.genome_path, DNA)))
    return proteins, genome


def genome_reference(proteins: SequenceBank, genome: Sequence):
    """Cold in-process ``compare_with_genome`` at ``workers=1``."""
    return SeedComparisonPipeline(PipelineConfig()).compare_with_genome(
        proteins, genome
    )
