"""Runtime determinism sanitizer (``REPRO_DETSAN=1``).

The static RC1xx rules prove the *code* cannot smuggle nondeterministic
order into the merge; this module proves it about a *run*.  When enabled,
each pipeline stage records a digest into a JSON-able manifest:

=====================  ==============================================
``step1.index``        order-sensitive digest of the joint index
                       (shared keys + per-key pair counts)
``step2.survivors``    **order-independent** multiset digest of the
                       step-2 hit set — identical for any worker
                       count, shard order, retry or fallback path
``step2.merged``       order-sensitive digest of the merged hit
                       arrays — the bit-identical-merge claim itself
``step3.alignments``   order-sensitive digest of the final report
=====================  ==============================================

``detail`` events (per-shard digests, supervisor fallbacks) carry run
diagnostics and are excluded from comparison — shard counts legitimately
differ between runs.

Two manifests from runs with *different* worker counts and shard orders
must agree on every stage; :func:`verify_pipeline_determinism` (the
``repro-check --verify-determinism`` mode) runs exactly that experiment
and :func:`diff_manifests` renders any disagreement.  An ordering bug that
RC100 would flag statically — e.g. merging shard results in ``set``
iteration order — shows up here as a ``step2.merged`` digest mismatch.

The recorder is activated per run (:func:`activate`); recording calls
sprinkled through :mod:`repro.core` are no-ops when no recorder is active,
so the sanitizer costs one module-attribute check per stage when off.
Order-independent digests combine per-row BLAKE2 hashes by addition modulo
2**128 — a commutative reduction over a 128-bit space, so equal multisets
give equal digests regardless of arrival order while duplicates still
count.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "DetsanRecorder",
    "activate",
    "active",
    "detsan_enabled",
    "diff_manifests",
    "digest_arrays",
    "record_arrays",
    "record_detail",
    "verify_pipeline_determinism",
]

#: Enables the sanitizer for plain pipeline runs (tests, production).
DETSAN_ENV = "REPRO_DETSAN"
#: Optional path the pipeline writes its manifest to after each run.
DETSAN_OUT_ENV = "REPRO_DETSAN_OUT"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Modulus of the commutative digest combination.
_MOD = 1 << 128

#: Manifest schema version.
_VERSION = 1


def detsan_enabled() -> bool:
    """True when ``REPRO_DETSAN`` asks for per-run manifests."""
    return os.environ.get(DETSAN_ENV, "").strip().lower() in _TRUTHY


def _row_matrix(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack parallel 1-D arrays into an ``(n, k)`` int64 row matrix.

    Float columns are bit-cast (not value-cast) to int64, so the digest
    distinguishes every representable value including ``-0.0`` and NaN
    payloads — "bit-identical" means bit-identical.
    """
    columns: list[np.ndarray] = []
    for arr in arrays:
        a = np.asarray(arr)
        if a.dtype.kind == "f":
            columns.append(a.astype(np.float64).view(np.int64).ravel())
        else:
            columns.append(a.astype(np.int64, copy=False).ravel())
    if not columns:
        return np.empty((0, 0), dtype=np.int64)
    return np.column_stack(columns)


def digest_arrays(
    arrays: Sequence[np.ndarray], order_sensitive: bool
) -> tuple[str, int]:
    """Digest parallel arrays as rows; returns ``(hex digest, n rows)``.

    Order-sensitive: one BLAKE2 over the whole row buffer.  Order-
    independent: per-row BLAKE2 truncated to 128 bits, summed mod 2**128 —
    a commutative multiset digest.
    """
    rows = _row_matrix(arrays)
    n = int(rows.shape[0])
    if order_sensitive:
        h = hashlib.blake2b(digest_size=16)
        h.update(np.ascontiguousarray(rows).tobytes())
        h.update(str(rows.shape).encode())
        return h.hexdigest(), n
    total = 0
    for row in np.ascontiguousarray(rows):
        total = (
            total
            + int.from_bytes(
                hashlib.blake2b(row.tobytes(), digest_size=16).digest(), "big"
            )
        ) % _MOD
    return f"{total:032x}", n


class DetsanRecorder:
    """Accumulates one run's stage digests and detail events."""

    def __init__(self, meta: dict[str, Any] | None = None) -> None:
        self.meta: dict[str, Any] = dict(meta or {})
        self._stages: dict[str, dict[str, Any]] = {}
        self._detail: list[dict[str, Any]] = []
        # In a served context merge points run on dispatcher threads, so
        # the accumulators need a lock of their own.
        self._mu = threading.Lock()

    def record_stage(self, name: str, digest: str, n: int) -> None:
        """Record one compared stage digest (last write wins per name)."""
        with self._mu:
            self._stages[name] = {"digest": digest, "n": n}

    def record_detail(self, event: str, **info: Any) -> None:
        """Record one non-compared diagnostic event."""
        with self._mu:
            self._detail.append({"event": event, **info})

    def manifest(self) -> dict[str, Any]:
        """The JSON-able manifest of everything recorded so far."""
        with self._mu:
            stages = {k: dict(v) for k, v in sorted(self._stages.items())}
            detail = [dict(d) for d in self._detail]
        return {
            "version": _VERSION,
            "meta": dict(self.meta),
            "stages": stages,
            "detail": detail,
        }

    def write(self, path: str | Path) -> None:
        """Write the manifest as JSON to *path*."""
        Path(path).write_text(
            json.dumps(self.manifest(), indent=2) + "\n", encoding="utf-8"
        )


#: The recorder of the run in flight, or None — module state on purpose:
#: recording spans pipeline, executor and supervisor without threading a
#: recorder through every signature.  Recording happens only in the parent
#: process (at merge points), never inside pool workers.
_ACTIVE: DetsanRecorder | None = None


def active() -> DetsanRecorder | None:
    """The currently active recorder, if any."""
    return _ACTIVE


@contextmanager
def activate(recorder: DetsanRecorder | None) -> Iterator[DetsanRecorder | None]:
    """Make *recorder* current for the dynamic extent; ``None`` is a no-op."""
    global _ACTIVE
    if recorder is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


def record_arrays(
    stage: str, arrays: Sequence[np.ndarray], order_sensitive: bool
) -> None:
    """Digest *arrays* into the active recorder; no-op when inactive."""
    recorder = _ACTIVE
    if recorder is None:
        return
    digest, n = digest_arrays(arrays, order_sensitive=order_sensitive)
    recorder.record_stage(stage, digest, n)


def record_detail(event: str, **info: Any) -> None:
    """Record a detail event on the active recorder; no-op when inactive."""
    recorder = _ACTIVE
    if recorder is None:
        return
    recorder.record_detail(event, **info)


def shard_digest(arrays: Sequence[np.ndarray]) -> str:
    """Order-independent digest of one shard's hit rows (detail events)."""
    digest, _ = digest_arrays(arrays, order_sensitive=False)
    return digest


def maybe_write_manifest(recorder: DetsanRecorder) -> Path | None:
    """Write the manifest to ``$REPRO_DETSAN_OUT`` if configured."""
    out = os.environ.get(DETSAN_OUT_ENV, "").strip()
    if not out:
        return None
    path = Path(out)
    recorder.write(path)
    return path


def ensure_recorder() -> tuple[DetsanRecorder | None, bool]:
    """Recorder for a pipeline run: ``(recorder, this_run_created_it)``.

    An already-active recorder (a ``--verify-determinism`` harness) is
    reused; otherwise a new one is created when ``REPRO_DETSAN`` is set.
    """
    current = active()
    if current is not None:
        return current, False
    if detsan_enabled():
        return DetsanRecorder(), True
    return None, False


def diff_manifests(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """Human-readable stage disagreements between two manifests.

    Only ``stages`` is compared — ``meta`` and ``detail`` legitimately
    differ between runs with different worker counts.
    """
    out: list[str] = []
    stages_a: dict[str, Any] = a.get("stages", {})
    stages_b: dict[str, Any] = b.get("stages", {})
    for name in sorted(set(stages_a) | set(stages_b)):
        sa, sb = stages_a.get(name), stages_b.get(name)
        if sa is None or sb is None:
            present = "first" if sa is not None else "second"
            out.append(f"{name}: recorded only in the {present} run")
        elif sa["digest"] != sb["digest"] or sa["n"] != sb["n"]:
            out.append(
                f"{name}: digest {sa['digest'][:12]}… (n={sa['n']}) != "
                f"{sb['digest'][:12]}… (n={sb['n']})"
            )
    return out


def verify_pipeline_determinism(
    queries_path: str,
    genome_path: str,
    worker_counts: Sequence[int] = (1, 2),
    threshold: int = 45,
    flank: int = 12,
) -> tuple[bool, list[dict[str, Any]], list[str]]:
    """Run the pipeline once per worker count and diff the manifests.

    Different worker counts exercise different shard cuts, pool schedules
    and merge paths; a bit-identical pipeline produces identical stage
    digests for all of them.  The pair-count floor is off
    (``min_pairs_per_shard=0``), so every multi-worker run really scores
    on the pool, even on demo-sized inputs.  Returns ``(ok, manifests,
    diff lines)`` where the diff lines compare every run against the
    first.
    """
    # Imported lazily: the pipeline records into this module, so a
    # top-level import would be circular.
    from ..seqs.alphabet import DNA
    from ..seqs.fasta import load_bank, read_fasta
    from .config import PipelineConfig
    from .pipeline import SeedComparisonPipeline

    queries = load_bank(queries_path)
    genome = next(iter(read_fasta(genome_path, DNA)))
    manifests: list[dict[str, Any]] = []
    for workers in worker_counts:
        recorder = DetsanRecorder(meta={"workers": int(workers)})
        config = PipelineConfig(
            workers=int(workers),
            ungapped_threshold=threshold,
            flank=flank,
            min_pairs_per_shard=0,
        )
        with activate(recorder):
            SeedComparisonPipeline(config).compare_with_genome(queries, genome)
        manifests.append(recorder.manifest())
    diffs: list[str] = []
    for manifest in manifests[1:]:
        diffs.extend(diff_manifests(manifests[0], manifest))
    return not diffs, manifests, diffs
