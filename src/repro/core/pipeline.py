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
   bits, and filtered at the configured E-value.  As in the paper, this
   step runs on the host, in-process, whichever engine ran step 2, and
   all of its policy lives here (:func:`gapped_stage`): anchor order, pair
   key, containment, waves, lane floor, deadline, funnel counters and
   E-values.  The X-drop engines it drives are :mod:`repro.extend.gapped`'s.

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

from ..extend.gapped import GapPenalties, lockstep_halves, xdrop_gapped_extend
from ..extend.stats import evalue as evalue_of
from ..extend.stats import gapped_params
from ..extend.ungapped import UngappedHits
from ..index.kmer import BankIndex, TwoBankIndex
from ..obs import metrics as obsmetrics
from ..obs import trace
from ..seqs.matrices import SubstitutionMatrix
from ..seqs.sequence import Sequence, SequenceBank
from ..seqs.translate import translated_bank
from . import determinism as detsan
from .config import PipelineConfig
from .executor import ShardedStep2Executor
from .profile import PipelineProfile, RunHealth
from .results import Alignment, ComparisonReport
from .supervisor import DeadlineExceeded

__all__ = ["STEP3_MIN_LANES", "SeedComparisonPipeline", "gapped_stage"]

#: Type of a step-2 implementation: index → surviving anchor pairs.
Step2Fn = Callable[[TwoBankIndex], UngappedHits]

#: Step-3 lane floor (:func:`_extend_wave`): a wave of fewer X-drop halves
#: than this runs one extension at a time on the plain-int loop, a larger
#: one as lanes of one lockstep batch.  The two cross between 12 and 16
#: halves (DESIGN §11, "The lockstep engine").
STEP3_MIN_LANES = 16


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


def _deadline_tick(deadline: float | None) -> Callable[[], None] | None:
    """A step-3 checkpoint: raises :class:`DeadlineExceeded` (one
    cancelled unit) once the clock passes *deadline*; ``None`` when the
    run is unbounded."""
    if deadline is None:
        return None

    def tick() -> None:
        if trace.clock() >= deadline:
            raise DeadlineExceeded(
                "request deadline expired during in-process gapped extension",
                RunHealth(cancelled=1),
                (0,),
            )

    return tick


def _extend_wave(
    buf0: np.ndarray,
    buf1: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    matrix: SubstitutionMatrix,
    gaps: GapPenalties,
    x_drop: int,
    tick: Callable[[], None] | None,
) -> np.ndarray:
    """Extend independent anchors at bank offsets *p0* / *p1*: one row
    ``(score, start0, end0, start1, end1, cells)`` per anchor, in order.

    Their halves (two per anchor) run as lanes of one lockstep batch
    (:func:`~repro.extend.gapped.lockstep_halves`) from
    :data:`STEP3_MIN_LANES` halves up, and one extension at a time on the
    plain-int loop below it.
    """
    k = len(p0)
    if 2 * k < STEP3_MIN_LANES:
        rows = []
        for a0, a1 in zip(p0.tolist(), p1.tolist()):
            if tick is not None:
                tick()
            ext = xdrop_gapped_extend(
                buf0, a0, buf1, a1, matrix=matrix, gaps=gaps, x_drop=x_drop
            )
            rows.append(
                (ext.score, ext.start0, ext.end0, ext.start1, ext.end1, ext.cells)
            )
        return np.array(rows, dtype=np.int64).reshape(k, 6)
    anchors0 = np.concatenate([p0, p0])
    anchors1 = np.concatenate([p1, p1])
    halves = lockstep_halves(
        buf0, buf1, anchors0, anchors1, np.arange(2 * k, dtype=np.int64) >= k,
        matrix.scores, gaps, x_drop, tick=tick,
    )
    right, left = halves[:k], halves[k:]
    return np.stack(
        [
            right[:, 0] + left[:, 0],
            p0 - left[:, 1],
            p0 + right[:, 1],
            p1 - left[:, 2],
            p1 + right[:, 2],
            right[:, 3] + left[:, 3],
        ],
        axis=1,
    )


def _extend_anchors(
    buf0: np.ndarray,
    buf1: np.ndarray,
    offsets0: np.ndarray,
    offsets1: np.ndarray,
    pairs: np.ndarray,
    matrix: SubstitutionMatrix,
    gaps: GapPenalties,
    x_drop: int,
    deadline: float | None = None,
) -> np.ndarray:
    """Step 3's loop: gapped X-drop over the anchors at bank offsets
    *offsets0* / *offsets1*, in their order; *pairs* is each anchor's
    (query, subject) pair key.

    An anchor inside an earlier extension of the *same* pair is skipped
    (BLAST's HSP-containment rule), so anchors of different pairs never
    interact, and the loop may extend one anchor of every pair at once.
    Containment is tested in bank offsets: a pair's anchors and
    extensions share one sequence start per bank, so the comparison is the
    per-sequence one shifted by a constant.

    The extensions run in waves.  Each wave extends, for every pair, its
    first anchor (in order) that is neither extended nor contained, all
    together (:func:`_extend_wave`); then every later anchor of a pair that
    the pair's new extension contains is dropped.  A pair's extensions thus
    run in order, and each anchor is tested against every earlier
    extension of its pair, as in the serial loop.  Past *deadline* (the
    :mod:`repro.obs.trace` clock) the loop raises
    :class:`~repro.core.supervisor.DeadlineExceeded`.  Returns one row
    ``(anchor, start0, end0, start1, end1, score, cells)`` per extension,
    *anchor* being the anchor's position in the input, in that order.
    """
    tick = _deadline_tick(deadline)
    n = len(pairs)
    # Each pair's anchors side by side, still in order within the pair.
    keys, pair = np.unique(pairs, return_inverse=True)
    grouped = np.argsort(pair, kind="stable")
    pair = pair[grouped]
    p0 = offsets0[grouped].astype(np.int64)
    p1 = offsets1[grouped].astype(np.int64)
    pending = np.ones(n, dtype=np.bool_)
    wave_of = np.full(keys.size, -1, dtype=np.int64)
    waves: list[tuple[np.ndarray, np.ndarray]] = []
    live = np.arange(n, dtype=np.int64)
    while live.size:
        # The first pending anchor of every pair still pending.
        starts = np.ones(live.size, dtype=np.bool_)
        np.not_equal(pair[live[1:]], pair[live[:-1]], out=starts[1:])
        heads = live[starts]
        table = _extend_wave(
            buf0, buf1, p0[heads], p1[heads], matrix, gaps, x_drop, tick
        )
        waves.append((heads, table))
        pending[heads] = False
        # Drop the later anchors each new extension contains.
        wave_of[pair[heads]] = np.arange(heads.size, dtype=np.int64)
        rest = np.flatnonzero(pending)
        ext = wave_of[pair[rest]]
        mine = ext >= 0
        rest, ext = rest[mine], table[ext[mine]]
        inside = (
            (ext[:, 1] <= p0[rest]) & (p0[rest] < ext[:, 2])
            & (ext[:, 3] <= p1[rest]) & (p1[rest] < ext[:, 4])
        )
        pending[rest[inside]] = False
        wave_of[pair[heads]] = -1
        live = np.flatnonzero(pending)
    if not waves:
        return np.zeros((0, 7), dtype=np.int64)
    heads = np.concatenate([h for h, _ in waves])
    rows = np.concatenate([t for _, t in waves])
    table = np.column_stack(
        [grouped[heads], rows[:, 1:5], rows[:, 0], rows[:, 5]]
    ).astype(np.int64)
    return table[np.argsort(table[:, 0])]


def gapped_stage(
    bank0: SequenceBank,
    bank1: SequenceBank,
    hits: UngappedHits,
    config: PipelineConfig,
    profile: PipelineProfile | None = None,
    deadline_at: float | None = None,
) -> ComparisonReport:
    """Step 3: gapped extension + dedup + statistics over anchor pairs.

    Shared by the software and accelerated pipelines.  Anchors are
    processed in descending ungapped-score order; an anchor contained in a
    previously extended alignment of the same sequence pair is skipped
    (BLAST's HSP-containment rule), which collapses the many seed hits one
    true alignment generates.

    The extensions run in-process (:func:`_extend_anchors`), and raise
    :class:`~repro.core.supervisor.DeadlineExceeded` once the clock passes
    *deadline_at* (a served request's deadline), published as one
    cancelled step-3 unit.
    """
    params = gapped_params(config.matrix.name, config.gaps.open, config.gaps.extend)
    db_len = bank1.total_residues
    report = ComparisonReport(
        n_seed_pairs=hits.stats.pairs, n_ungapped_hits=len(hits)
    )
    order = np.argsort(-hits.scores, kind="stable")
    offsets0 = hits.offsets0[order].astype(np.int64)
    offsets1 = hits.offsets1[order].astype(np.int64)
    seq0_ids = bank0.seq_id_of(offsets0)
    seq1_ids = bank1.seq_id_of(offsets1)
    try:
        table = _extend_anchors(
            bank0.buffer, bank1.buffer, offsets0, offsets1,
            seq0_ids.astype(np.int64) * len(bank1) + seq1_ids,
            config.matrix, config.gaps, config.gapped_x_drop, deadline_at,
        )
    except DeadlineExceeded as exc:
        exc.health.publish("step3")
        raise
    ungapped = hits.scores[order]
    for anchor, start0, end0, start1, end1, score, _ in table.tolist():
        s0, s1 = int(seq0_ids[anchor]), int(seq1_ids[anchor])
        e = evalue_of(score, int(bank0.lengths[s0]), db_len, params)
        if e > config.max_evalue:
            continue
        l0 = int(bank0.starts[s0])
        l1 = int(bank1.starts[s1])
        report.alignments.append(
            Alignment(
                seq0_id=s0,
                seq0_name=bank0.names[s0],
                start0=start0 - l0,
                end0=end0 - l0,
                seq1_id=s1,
                seq1_name=bank1.names[s1],
                start1=start1 - l1,
                end1=end1 - l1,
                raw_score=score,
                bit_score=params.bit_score(score),
                evalue=e,
                ungapped_score=int(ungapped[anchor]),
            )
        )
    n_ext = table.shape[0]
    cells = int(table[:, 6].sum())
    report.n_gapped_extensions = n_ext
    registry = obsmetrics.active()
    if registry is not None:
        # The step-3 funnel: anchors in, contained ones skipped, extensions
        # run, their DP cells, and the alignments the E-value filter keeps.
        registry.counter("step3_anchors_total").inc(order.size)
        registry.counter("step3_contained_total").inc(order.size - n_ext)
        registry.counter("step3_extensions_total").inc(n_ext)
        registry.counter("step3_cells_total").inc(cells)
        registry.counter("step3_alignments_total").inc(len(report.alignments))
    if profile is not None:
        profile.step3.operations += cells
        profile.step3.items += n_ext
    if detsan.active() is not None:
        # The extension *set* must not depend on the worker count —
        # order-independent digest (the anchor order is checked by
        # ``step3.alignments``).
        detsan.record_arrays("step3.extensions", list(table.T), order_sensitive=False)
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
    deadline_at:
        Absolute deadline (:func:`repro.obs.trace.clock` timeline) that
        step 3 stops at — a served request's; ``None`` runs unbounded.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        step2: Step2Fn | None = None,
        deadline_at: float | None = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self._step2 = step2
        self._deadline_at = deadline_at
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

    def _executor(self) -> ShardedStep2Executor:
        """The one-shot step-2 engine at ``config.workers`` processes."""
        return ShardedStep2Executor(
            self.config.ungapped_config(),
            workers=self.config.workers,
            supervisor=self.config.supervisor_config(),
            fault_plan=self.config.fault_plan,
            min_pairs_per_shard=self.config.min_pairs_per_shard,
        )

    def run_step2(self, index: TwoBankIndex) -> UngappedHits:
        """Step 2 only: ungapped extension over the joint index.

        The default engine is a one-shot sharded executor at
        ``config.workers`` processes (in-process batched scoring at the
        default of 1), whose pool and staged bank go before this returns;
        its per-shard timings land in ``profile.step2_shards``.
        """
        with self.profile.timing(self.profile.step2, "step2.ungapped") as ctr:
            if self._step2 is not None:
                hits = self._step2(index)
            else:
                executor = self._executor()
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
                report = gapped_stage(
                    bank0, bank1, hits, self.config, self.profile,
                    self._deadline_at,
                )
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
