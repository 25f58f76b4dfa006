"""Deterministic fault injection for pool tasks and the hw simulator.

The paper's two-FPGA runs assume every compute unit finishes every dispatch;
a production host cannot.  To test the supervision layer
(:mod:`repro.core.supervisor`) without flaky, timing-dependent tests, faults
are *data*: a :class:`FaultPlan` is a seeded, serialisable list of
:class:`FaultSpec` records addressed by shard id and dispatch attempt (for
worker faults) or by event count (for simulator faults).  The same plan
can

* make a step-2 worker process crash, hang, return truncated result
  arrays or corrupt its bank view (applied inside the pool task, see
  :mod:`repro.core.executor`), and
* drive the :mod:`repro.hwsim` FIFO/DMA hooks, so the cycle simulator's
  overflow/transfer-error handling is exercised by the identical plan.

Because every fault is addressable and the plan is seeded, a failing chaos
run replays exactly from its plan JSON — no nondeterministic monkey.
"""

from __future__ import annotations

import enum
import json
import zlib
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultError",
    "BankCorruption",
    "bank_digest",
    "WORKER_KINDS",
    "HWSIM_KINDS",
    "SERVICE_KINDS",
]


class FaultError(RuntimeError):
    """An injected (or detected) fault inside a step-2 worker."""


class BankCorruption(FaultError):
    """A worker's bank view failed its digest check (corrupt residues)."""


class FaultKind(enum.Enum):
    """What the injected fault does at its site."""

    #: Worker process exits immediately (models a segfaulted blade host).
    CRASH = "crash"
    #: Worker sleeps ``hang_seconds`` before computing (models a stall).
    HANG = "hang"
    #: Worker drops ``drop`` hits from the tail of its result arrays while
    #: reporting the untruncated stats (models a short DMA readback).
    TRUNCATE = "truncate"
    #: Worker's private bank view is overwritten with seeded garbage
    #: (models bit-flipped board SRAM; caught by the digest check).
    CORRUPT_BANK = "corrupt-bank"
    #: hwsim: a :class:`~repro.hwsim.fifo.SyncFifo` raises overflow at the
    #: ``at_count``-th push event.
    FIFO_OVERFLOW = "fifo-overflow"
    #: hwsim: a :class:`~repro.hwsim.dma.DmaStream` raises a transfer error
    #: at the ``at_count``-th word.
    DMA_ERROR = "dma-error"
    #: serve: the load client stalls ``hang_seconds`` mid-request (models a
    #: slow reader holding a handler thread; applied client-side).
    SLOW_CLIENT = "slow-client"
    #: serve: the admission queue reports itself full for this request, so
    #: the service must shed it with 429 + ``Retry-After``.
    QUEUE_OVERFLOW = "queue-overflow"
    #: serve: every warm-pool worker process is killed immediately before
    #: the request dispatches (models the pool dying mid-request; the
    #: supervisor's rebuild path must recover).
    POOL_DEATH = "pool-death"
    #: serve: the resident warm bank's staged shared-memory copy is
    #: overwritten with seeded garbage before the request; the service's
    #: CRC check must detect it and self-heal by re-staging.
    CORRUPT_WARM_BANK = "corrupt-warm-bank"


#: Kinds applied inside step-2 worker processes.
WORKER_KINDS = frozenset(
    {FaultKind.CRASH, FaultKind.HANG, FaultKind.TRUNCATE, FaultKind.CORRUPT_BANK}
)
#: Kinds applied inside the cycle simulator.
HWSIM_KINDS = frozenset({FaultKind.FIFO_OVERFLOW, FaultKind.DMA_ERROR})
#: Kinds applied at the serving layer (addressed by request index).
SERVICE_KINDS = frozenset(
    {
        FaultKind.SLOW_CLIENT,
        FaultKind.QUEUE_OVERFLOW,
        FaultKind.POOL_DEATH,
        FaultKind.CORRUPT_WARM_BANK,
    }
)


@dataclass(frozen=True)
class FaultSpec:
    """One addressable fault.

    Worker faults are addressed by ``(shard, attempt)``: the fault fires
    when step-2 shard ``shard`` (``None`` = any shard) is dispatched for
    the ``attempt``-th time (``None`` = every attempt — an *unrecoverable*
    fault that forces the supervisor's in-process fallback).  Simulator
    faults are addressed by ``at_count``, the 0-based event index at the
    hook site.  Service faults are addressed by ``request``, the 0-based
    index of the search request as admitted by the server (``None`` =
    every request).
    """

    kind: FaultKind
    shard: int | None = None
    attempt: int | None = 0
    at_count: int | None = None
    #: Service faults: 0-based request index the fault fires on.
    request: int | None = None
    #: ``HANG``/``SLOW_CLIENT`` stall duration; keep well above any test
    #: deadline (service plans use sub-second stalls).
    hang_seconds: float = 30.0
    #: ``TRUNCATE``: hits dropped from the tail of the result arrays.
    drop: int = 1

    @property
    def site(self) -> str:
        """Where the fault applies: ``"worker"``, ``"service"`` or ``"hwsim"``."""
        if self.kind in WORKER_KINDS:
            return "worker"
        if self.kind in SERVICE_KINDS:
            return "service"
        return "hwsim"

    def matches(self, shard: int, attempt: int) -> bool:
        """True when this worker fault fires for ``(shard, attempt)``."""
        if self.kind not in WORKER_KINDS:
            return False
        if self.shard is not None and self.shard != shard:
            return False
        return self.attempt is None or self.attempt == attempt

    def matches_request(self, request: int) -> bool:
        """True when this service fault fires for request index *request*."""
        if self.kind not in SERVICE_KINDS:
            return False
        return self.request is None or self.request == request

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "kind": self.kind.value,
            "shard": self.shard,
            "attempt": self.attempt,
            "at_count": self.at_count,
            "request": self.request,
            "hang_seconds": self.hang_seconds,
            "drop": self.drop,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> FaultSpec:
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown FaultSpec fields: {sorted(extra)}")
        kwargs = dict(data)
        kwargs["kind"] = FaultKind(kwargs["kind"])
        return cls(**kwargs)


#: Signature of an hwsim fault hook: event index -> fire?
HwFaultHook = Callable[[int], bool]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable set of faults.

    The ``seed`` both identifies the plan and derives any random payload a
    fault needs (garbage bytes for ``CORRUPT_BANK``), so two runs of the
    same plan inject bit-identical damage.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __len__(self) -> int:
        return len(self.specs)

    # Worker-side addressing ------------------------------------------------
    def worker_fault(self, shard: int, attempt: int) -> FaultSpec | None:
        """First worker fault firing for ``(shard, attempt)``, if any."""
        for spec in self.specs:
            if spec.matches(shard, attempt):
                return spec
        return None

    def corruption(self, shard: int, n: int) -> np.ndarray:
        """Seeded garbage bytes used by ``CORRUPT_BANK`` on *shard*."""
        rng = np.random.default_rng(self.seed * 1_000_003 + shard)
        return rng.integers(0, 256, size=n, dtype=np.uint8)

    # Service-side addressing -----------------------------------------------
    def service_fault(
        self, request: int, kind: FaultKind | None = None
    ) -> FaultSpec | None:
        """First service fault firing for *request*, optionally of *kind*.

        The serving layer consults this at each fault site with the site's
        own kind (admission asks for ``QUEUE_OVERFLOW``, dispatch for
        ``POOL_DEATH``, …), so one request can carry several service faults
        without them shadowing each other.
        """
        for spec in self.specs:
            if kind is not None and spec.kind is not kind:
                continue
            if spec.matches_request(request):
                return spec
        return None

    def service_faults(self, request: int) -> tuple[FaultSpec, ...]:
        """Every service fault firing for *request*, in plan order."""
        return tuple(s for s in self.specs if s.matches_request(request))

    # hwsim addressing ------------------------------------------------------
    def hwsim_hook(self, kind: FaultKind) -> HwFaultHook | None:
        """Event-count hook for one simulator fault kind, or ``None``.

        The returned callable is handed to
        :class:`~repro.hwsim.fifo.SyncFifo` / :class:`~repro.hwsim.dma.DmaStream`
        as their ``fault_hook``; it fires when the component's event index
        equals a spec's ``at_count``.
        """
        if kind not in HWSIM_KINDS:
            raise ValueError(f"{kind} is not a simulator fault kind")
        counts = frozenset(
            s.at_count for s in self.specs if s.kind is kind and s.at_count is not None
        )
        if not counts:
            return None

        def fire(count: int) -> bool:
            return count in counts

        return fire

    # Serialisation ---------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the plan to a JSON string."""
        return json.dumps(
            {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
        """Parse a plan from JSON text (inverse of :meth:`to_json`)."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("fault plan JSON must be an object")
        specs = tuple(FaultSpec.from_dict(d) for d in data.get("specs", ()))
        return cls(specs=specs, seed=int(data.get("seed", 0)))

    @classmethod
    def parse(cls, source: str | Path) -> FaultPlan:
        """Parse a plan from a file path or an inline JSON string.

        The CLI's ``--fault-plan`` accepts either; anything starting with
        ``{`` is treated as inline JSON, everything else as a path.
        """
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="ascii")
        return cls.from_json(text)

    @classmethod
    def random(
        cls,
        seed: int,
        shards: int,
        n_faults: int = 2,
        max_attempt: int = 1,
        hang_seconds: float = 0.2,
    ) -> FaultPlan:
        """A reproducible random plan of recoverable worker faults.

        Used by the chaos CI job: any plan this generates must leave the
        merged step-2 output bit-identical (the supervisor guarantees it),
        so the seed can rotate freely without flaking the suite.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        rng = np.random.default_rng(seed)
        kinds = (FaultKind.CRASH, FaultKind.TRUNCATE, FaultKind.CORRUPT_BANK,
                 FaultKind.HANG)
        specs = []
        for _ in range(n_faults):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            specs.append(
                FaultSpec(
                    kind=kind,
                    shard=int(rng.integers(0, shards)),
                    attempt=int(rng.integers(0, max_attempt + 1)),
                    hang_seconds=hang_seconds,
                )
            )
        return cls(specs=tuple(specs), seed=seed)

    def scaled(self, **changes: Any) -> FaultPlan:
        """Copy with fields replaced (convenience for tests)."""
        return replace(self, **changes)


def bank_digest(buf: np.ndarray) -> int:
    """CRC-32 digest of a contiguous uint8 bank buffer.

    Cheap enough to verify per shard dispatch; a mismatch between a
    worker's view and the digest the parent computed at publish time means
    the view was corrupted after staging (the software analogue of board
    SRAM bit-flips).
    """
    arr = np.ascontiguousarray(buf, dtype=np.uint8)
    return zlib.crc32(arr.data) & 0xFFFFFFFF
