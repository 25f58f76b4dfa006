"""The seed-based comparison pipeline (the paper's §2 algorithm).

:class:`SeedComparisonPipeline` orchestrates the three steps over two
sequence banks:

1. **indexing** — both banks are indexed with the configured seed model and
   joined (:class:`~repro.index.kmer.TwoBankIndex`);
2. **ungapped extension** — every ``IL0[k] × IL1[k]`` pair is window-scored
   (the step-2 engine, :class:`~repro.core.executor.ShardedStep2Executor`);
   survivors become *anchors*;
3. **gapped extension** — anchors are extended with the gapped X-drop
   engine, deduplicated BLAST-style (an anchor falling inside an already
   extended alignment of the same sequence pair is skipped), scored in
   bits, and filtered at the configured E-value.

The pipeline is structured so step 2 is swappable: the accelerated pipeline
(:mod:`repro.rasc.accelerated`) substitutes the PSC-operator model for
the step-2 engine while reusing steps 1 and 3 verbatim — exactly the
split the paper deploys on the Altix + RASC-100.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from typing import Any

import numpy as np

from ..extend.gapped import xdrop_gapped_extend
from ..extend.stats import evalue as evalue_of
from ..extend.stats import gapped_params
from ..extend.ungapped import UngappedHits
from ..index.kmer import BankIndex, TwoBankIndex
from ..obs import trace
from ..seqs.sequence import Sequence, SequenceBank
from ..seqs.translate import translated_bank
from . import determinism as detsan
from .config import PipelineConfig
from .executor import ShardedStep2Executor
from .profile import PipelineProfile
from .results import Alignment, ComparisonReport

__all__ = ["SeedComparisonPipeline", "gapped_stage"]

#: Type of a step-2 implementation: index → surviving anchor pairs.
Step2Fn = Callable[[TwoBankIndex], UngappedHits]


def _alignment_rows(report: ComparisonReport) -> list[np.ndarray]:
    """Parallel columns of the final report for the detsan stage digest.

    Floats (bit score, E-value) ride along as float64 columns and are
    bit-cast by the digest, so the stage asserts bit-identical statistics,
    not merely equal-within-rounding ones.
    """
    alignments = report.alignments
    return [
        np.array([a.seq0_id for a in alignments], dtype=np.int64),
        np.array([a.start0 for a in alignments], dtype=np.int64),
        np.array([a.end0 for a in alignments], dtype=np.int64),
        np.array([a.seq1_id for a in alignments], dtype=np.int64),
        np.array([a.start1 for a in alignments], dtype=np.int64),
        np.array([a.end1 for a in alignments], dtype=np.int64),
        np.array([a.raw_score for a in alignments], dtype=np.int64),
        np.array([a.ungapped_score for a in alignments], dtype=np.int64),
        np.array([a.bit_score for a in alignments], dtype=np.float64),
        np.array([a.evalue for a in alignments], dtype=np.float64),
    ]


def gapped_stage(
    bank0: SequenceBank,
    bank1: SequenceBank,
    hits: UngappedHits,
    config: PipelineConfig,
    profile: PipelineProfile | None = None,
) -> ComparisonReport:
    """Step 3: gapped extension + dedup + statistics over anchor pairs.

    Shared by the software and accelerated pipelines.  Anchors are
    processed in descending ungapped-score order; an anchor contained in a
    previously extended alignment of the same sequence pair is skipped
    (BLAST's HSP-containment rule), which collapses the many seed hits one
    true alignment generates.
    """
    params = gapped_params(config.matrix.name, config.gaps.open, config.gaps.extend)
    db_len = bank1.total_residues
    report = ComparisonReport(
        n_seed_pairs=hits.stats.pairs, n_ungapped_hits=len(hits)
    )
    if len(hits) == 0:
        return report
    order = np.argsort(-hits.scores, kind="stable")
    seq0_ids = bank0.seq_id_of(hits.offsets0)
    seq1_ids = bank1.seq_id_of(hits.offsets1)
    pos0 = hits.offsets0 - bank0.starts[seq0_ids]
    pos1 = hits.offsets1 - bank1.starts[seq1_ids]
    covered: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    cells = 0
    n_ext = 0
    for r in order:
        s0, s1 = int(seq0_ids[r]), int(seq1_ids[r])
        p0, p1 = int(pos0[r]), int(pos1[r])
        key = (s0, s1)
        ranges = covered.setdefault(key, [])
        if any(a0 <= p0 < b0 and a1 <= p1 < b1 for a0, b0, a1, b1 in ranges):
            continue
        ext = xdrop_gapped_extend(
            bank0.buffer,
            int(hits.offsets0[r]),
            bank1.buffer,
            int(hits.offsets1[r]),
            matrix=config.matrix,
            gaps=config.gaps,
            x_drop=config.gapped_x_drop,
        )
        n_ext += 1
        cells += ext.cells
        l0 = int(bank0.starts[s0])
        l1 = int(bank1.starts[s1])
        ranges.append((ext.start0 - l0, ext.end0 - l0, ext.start1 - l1, ext.end1 - l1))
        e = evalue_of(ext.score, int(bank0.lengths[s0]), db_len, params)
        if e > config.max_evalue:
            continue
        report.alignments.append(
            Alignment(
                seq0_id=s0,
                seq0_name=bank0.names[s0],
                start0=ext.start0 - l0,
                end0=ext.end0 - l0,
                seq1_id=s1,
                seq1_name=bank1.names[s1],
                start1=ext.start1 - l1,
                end1=ext.end1 - l1,
                raw_score=ext.score,
                bit_score=params.bit_score(ext.score),
                evalue=e,
                ungapped_score=int(hits.scores[r]),
            )
        )
    report.n_gapped_extensions = n_ext
    if profile is not None:
        profile.step3.operations += cells
        profile.step3.items += n_ext
    report.sort()
    return report


class SeedComparisonPipeline:
    """End-to-end software implementation of the paper's algorithm.

    Parameters
    ----------
    config:
        Pipeline parameters; defaults to the paper-equivalent configuration
        (span-4 subset seed, N=12 flanks, BLOSUM62, E ≤ 10⁻³).
    step2:
        Optional replacement for the step-2 engine (signature
        ``TwoBankIndex -> UngappedHits``).  Used by the accelerated
        pipeline to deport step 2 to the PSC-operator model.
    """

    def __init__(
        self, config: PipelineConfig | None = None, step2: Step2Fn | None = None
    ) -> None:
        self.config = config or PipelineConfig()
        self._step2 = step2
        #: Profile of the most recent run.
        self.profile = PipelineProfile()
        #: Joint index of the most recent run (reused by cost models).
        self.last_index: TwoBankIndex | None = None
        #: Step-2 hits of the most recent run.
        self.last_hits: UngappedHits | None = None
        #: Determinism-sanitizer manifest of the most recent run, when the
        #: sanitizer was active (``REPRO_DETSAN=1`` or a verify harness).
        self.last_detsan: dict[str, Any] | None = None

    @staticmethod
    def _root_span() -> AbstractContextManager[Any]:
        """The run's root ``pipeline`` span, unless one is already open.

        ``compare_with_genome`` opens it around translation + comparison;
        ``compare_banks`` must then nest under it, not start a second root.
        """
        if trace.current_span_id() is not None:
            return nullcontext()
        return trace.span("pipeline")

    def index_banks(self, bank0: SequenceBank, bank1: SequenceBank) -> TwoBankIndex:
        """Step 1 only: build and join both bank indexes."""
        return self._step1(bank0, bank1, None)

    def _step1(
        self,
        bank0: SequenceBank,
        bank1: SequenceBank,
        resident: BankIndex | None,
    ) -> TwoBankIndex:
        """Step 1: index *bank0* and join it with bank 1's index.

        Bank 1's index is built here, or is *resident*: built once by a
        server, whose cost was charged at startup, so only the query side
        is charged per request.  :class:`TwoBankIndex.build` is nothing
        but this join, so both routes yield the identical joint index.
        """
        with self.profile.timing(self.profile.step1, "step1.index") as ctr:
            if resident is None:
                resident = BankIndex(bank1, self.config.seed_model)
                ctr.operations += bank1.total_residues
                ctr.items += len(bank1)
            index = TwoBankIndex(BankIndex(bank0, resident.model), resident)
            ctr.operations += bank0.total_residues
            ctr.items += len(bank0)
        # Shared keys are emitted ascending, so the joint index has exactly
        # one valid byte image — order-sensitive digest.
        detsan.record_arrays(
            "step1.index",
            [index.shared_keys(), index.pair_counts()],
            order_sensitive=True,
        )
        return index

    def run_step2(self, index: TwoBankIndex) -> UngappedHits:
        """Step 2 only: ungapped extension over the joint index.

        The default engine is the sharded executor at ``config.workers``
        processes (in-process batched scoring at the default of 1); its
        per-shard timings land in ``profile.step2_shards``.
        """
        with self.profile.timing(self.profile.step2, "step2.ungapped") as ctr:
            if self._step2 is not None:
                hits = self._step2(index)
            else:
                executor = ShardedStep2Executor(
                    self.config.ungapped_config(),
                    workers=self.config.workers,
                    supervisor=self.config.supervisor_config(),
                    fault_plan=self.config.fault_plan,
                    min_pairs_per_shard=self.config.min_pairs_per_shard,
                )
                hits = executor.run(index)
                self.profile.step2_shards.extend(executor.last_timings)
                self.profile.run_health.merge(executor.last_health)
            ctr.operations += hits.stats.cells
            ctr.items += hits.stats.pairs
        # The survivor *set* must not depend on sharding — order-independent
        # multiset digest.  The merged *arrays* additionally claim a single
        # canonical emission order — order-sensitive digest over the same
        # rows.  A merge that scrambles order (RC100's target) keeps the
        # first digest and breaks the second.
        hit_rows = [hits.offsets0, hits.offsets1, hits.scores]
        detsan.record_arrays("step2.survivors", hit_rows, order_sensitive=False)
        detsan.record_arrays("step2.merged", hit_rows, order_sensitive=True)
        return hits

    def compare_banks(
        self, bank0: SequenceBank, bank1: SequenceBank, reset_profile: bool = True
    ) -> ComparisonReport:
        """Run the full three-step comparison of two protein banks.

        When the determinism sanitizer is active (an enclosing
        ``--verify-determinism`` harness, or ``REPRO_DETSAN=1``), every
        stage records its digest and the run's manifest lands in
        :attr:`last_detsan` (and ``$REPRO_DETSAN_OUT``, if set).
        """
        return self._compare(bank0, bank1, None, reset_profile)

    def compare_against_index(
        self,
        bank0: SequenceBank,
        resident: BankIndex,
        reset_profile: bool = True,
    ) -> ComparisonReport:
        """Compare *bank0* against a bank whose index is already built.

        The warm-serving path: the server indexes the resident bank once
        at startup and every request pays only its own (small) query-side
        indexing before the join.  Joining a fresh query index with the
        prebuilt resident index yields the identical joint index — and
        therefore bit-identical hits and alignments — to a cold
        :meth:`compare_banks` run of the same pair.
        """
        return self._compare(bank0, resident.bank, resident, reset_profile)

    def _compare(
        self,
        bank0: SequenceBank,
        bank1: SequenceBank,
        resident: BankIndex | None,
        reset_profile: bool,
    ) -> ComparisonReport:
        """The one comparison body; *resident* only changes step 1."""
        if reset_profile:
            self.profile = PipelineProfile()
        recorder, created = detsan.ensure_recorder()
        with detsan.activate(recorder), self._root_span():
            index = self._step1(bank0, bank1, resident)
            self.last_index = index
            hits = self.run_step2(index)
            self.last_hits = hits
            with self.profile.timing(self.profile.step3, "step3.gapped"):
                report = gapped_stage(bank0, bank1, hits, self.config, self.profile)
            detsan.record_arrays(
                "step3.alignments", _alignment_rows(report), order_sensitive=True
            )
        if recorder is not None:
            self.last_detsan = recorder.manifest()
            if created:
                detsan.maybe_write_manifest(recorder)
        return report

    def compare_with_genome(
        self, proteins: SequenceBank, genome: Sequence
    ) -> ComparisonReport:
        """tblastn-style comparison: protein bank vs 6-frame translated genome.

        Translation is charged to step 1 (it is part of the indexing
        preprocessing in the paper's workflow).
        """
        self.profile = PipelineProfile()
        with self._root_span():
            with self.profile.timing(self.profile.step1, "step1.translate"):
                frames = translated_bank(genome, pad=max(64, self.config.flank + 8))
            report = self.compare_banks(proteins, frames, reset_profile=False)
        return report
