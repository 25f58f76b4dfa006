"""Command-line front end.

Subcommands mirror the deployment stages of the paper's system::

    repro-psc compare  QUERIES.fasta GENOME.fasta   # software pipeline
    repro-psc accel    QUERIES.fasta GENOME.fasta   # RASC-100 model
    repro-psc baseline QUERIES.fasta GENOME.fasta   # tblastn-like baseline
    repro-psc synth    --proteins 50 --genome-nt 100000 out_prefix
    repro-psc simulate --pes 64 --entries 200       # PSC cycle simulation
    repro-psc serve    RESIDENT.fasta --port 8641   # warm-bank service

``compare``/``accel``/``baseline`` print alignments in a BLAST-tabular-like
format; ``synth`` writes a reproducible synthetic workload to FASTA files;
``simulate`` runs the cycle-level operator on a random workload and prints
the schedule breakdown.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from contextlib import contextmanager
from typing import Any

import numpy as np

from .core.config import PipelineConfig
from .core.errors import (
    EXIT_OK,
    CliError,
    ConfigError,
    InputError,
    RuntimeFault,
)
from .core.pipeline import SeedComparisonPipeline
from .core.results import ComparisonReport

__all__ = ["main", "serve_main", "build_parser"]


def positive_int(text: str) -> int:
    """Argparse type for options that must be strictly positive integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type for options that must be integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """Argparse type for options that must be strictly positive floats."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_obs_args(sp: argparse.ArgumentParser) -> None:
    """Observability flags shared by every command that runs a workload."""
    sp.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a JSON run report (spans + metrics + profile)",
    )
    sp.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write metrics in Prometheus text exposition format",
    )
    sp.add_argument(
        "--obs-summary", action="store_true",
        help="print the span tree after the run",
    )


def _add_min_pairs_arg(
    sp: argparse.ArgumentParser, default: int, instead: str
) -> None:
    sp.add_argument(
        "--min-pairs-per-shard", type=nonnegative_int, default=default,
        help="below this many step-2 pairs per shard, a multi-worker "
        f"run scores in-process instead of {instead} "
        "(0 disables the heuristic)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    p = argparse.ArgumentParser(
        prog="repro-psc",
        description="Seed-based protein/genome comparison with a simulated "
        "SGI RASC-100 accelerator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_compare_args(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("queries", help="protein FASTA file")
        sp.add_argument("genome", help="DNA FASTA file (first record used)")
        sp.add_argument("--evalue", type=float, default=1e-3, help="E-value cutoff")
        sp.add_argument(
            "--threshold", type=int, default=45, help="ungapped score threshold"
        )
        sp.add_argument("--flank", type=int, default=12, help="window flank N")
        sp.add_argument(
            "--workers", type=positive_int, default=1,
            help="step-2 shard processes (1 = in-process batched scoring)",
        )
        sp.add_argument(
            "--batch-pairs", type=positive_int, default=1 << 20,
            help="max seed pairs per step-2 kernel batch",
        )
        sp.add_argument(
            "--shard-timeout", type=positive_float, default=None, metavar="SECONDS",
            help="per-shard step-2 dispatch deadline (default: derived from "
            "each shard's pair count)",
        )
        sp.add_argument(
            "--max-retries", type=nonnegative_int, default=2,
            help="re-dispatches per failed/hung step-2 shard before "
            "in-process fallback",
        )
        sp.add_argument(
            "--fault-plan", default=None, metavar="JSON|FILE",
            help="deterministic fault-injection plan (inline JSON or a "
            "path) applied to step-2 workers — chaos testing only",
        )
        _add_min_pairs_arg(sp, 1 << 18, "paying pool startup")
        sp.add_argument("--max-hits", type=int, default=25, help="alignments to print")
        sp.add_argument(
            "--render", type=int, default=0, metavar="N",
            help="render the top N alignments BLAST-style",
        )
        _add_obs_args(sp)

    sc = sub.add_parser("compare", help="run the software pipeline")
    add_compare_args(sc)
    sa = sub.add_parser("accel", help="run the RASC-100 accelerated pipeline")
    add_compare_args(sa)
    sa.add_argument("--pes", type=int, default=192, help="PE array size")
    sa.add_argument("--dual", action="store_true", help="use both FPGAs")
    sb = sub.add_parser("baseline", help="run the tblastn-like baseline")
    add_compare_args(sb)

    sg = sub.add_parser("synth", help="generate a synthetic workload")
    sg.add_argument("prefix", help="output file prefix")
    sg.add_argument("--proteins", type=int, default=100)
    sg.add_argument("--genome-nt", type=int, default=200_000)
    sg.add_argument("--families", type=int, default=5)
    sg.add_argument("--seed", type=int, default=0)

    si = sub.add_parser("index", help="build or inspect a persisted bank index")
    si.add_argument("action", choices=["build", "info"])
    si.add_argument("path", help="index file (.npz)")
    si.add_argument("--fasta", help="protein FASTA to index (build)")
    si.add_argument(
        "--seed", dest="seed_pattern", default="#11#",
        help="seed pattern (subset symbols) or 'contiguous:W'",
    )

    ss = sub.add_parser("simulate", help="cycle-simulate the PSC operator")
    ss.add_argument("--pes", type=int, default=16)
    ss.add_argument("--slot-size", type=int, default=8)
    ss.add_argument("--entries", type=int, default=100)
    ss.add_argument("--seed", type=int, default=0)
    _add_obs_args(ss)

    sv = sub.add_parser(
        "serve", help="run the warm-bank search service (see also repro-serve)"
    )
    sv.add_argument("bank", help="resident protein FASTA held warm in memory")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=nonnegative_int, default=8641)
    sv.add_argument(
        "--workers", type=positive_int, default=2,
        help="warm step-2 worker processes (1 = in-process only)",
    )
    _add_min_pairs_arg(sv, 1 << 15, "shipping it to the warm pool")
    sv.add_argument(
        "--queue-depth", type=positive_int, default=8,
        help="admission queue depth; beyond it requests shed with 429",
    )
    sv.add_argument(
        "--default-deadline-ms", type=positive_float, default=None,
        help="deadline applied to requests that do not carry their own",
    )
    sv.add_argument(
        "--breaker-threshold", type=positive_int, default=3,
        help="consecutive pool failures that open the circuit breaker",
    )
    sv.add_argument(
        "--breaker-reset-seconds", type=positive_float, default=5.0,
        help="open-state dwell before a half-open probe",
    )
    sv.add_argument(
        "--fault-plan", default=None, metavar="JSON|FILE",
        help="deterministic fault plan (worker + service kinds) — chaos only",
    )
    sv.add_argument(
        "--threshold", type=int, default=45, help="ungapped score threshold"
    )
    sv.add_argument("--flank", type=int, default=12, help="window flank N")
    sv.add_argument("--evalue", type=float, default=1e-3, help="E-value cutoff")
    sv.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="spool per-request trace JSON (and the drain flight dump) here",
    )
    sv.add_argument(
        "--flight-records", type=positive_int, default=256,
        help="flight-recorder ring capacity (/debug/requests)",
    )
    sv.add_argument(
        "--trace-records", type=positive_int, default=64,
        help="retained span-tree documents (/debug/trace/<id>)",
    )
    sv.add_argument(
        "--no-request-tracing", action="store_true",
        help="disable per-request span trees (flight records stay on)",
    )
    sv.add_argument(
        "--slo-latency-ms", type=positive_float, default=1000.0,
        help="latency SLO objective for burn-rate accounting",
    )
    sv.add_argument(
        "--profile", action="store_true",
        help="enable /debug/profile (on-demand sampling profiler windows)",
    )
    sv.add_argument(
        "--profile-out", default=None, metavar="FILE",
        help="profile continuously and write the collapsed-stack report "
        "on shutdown (implies --profile)",
    )
    return p


class _ObsSession:
    """Live tracing/metrics state for one CLI command.

    Commands attach their profile/health/detsan artefacts before the
    session closes so the run report can merge them.
    """

    def __init__(self, tracer: Any, registry: Any) -> None:
        self.tracer = tracer
        self.registry = registry
        self.profile: Any = None
        self.health: Any = None
        self.detsan: Any = None


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "obs_summary", False)
    )


@contextmanager
def _obs_session(args: argparse.Namespace, command: str):
    """Activate ambient tracing/metrics for one command, when requested.

    Off by default: without one of the obs flags no tracer or registry is
    installed and the instrumentation throughout the pipeline stays on its
    no-op paths.  Yields the session (or ``None`` when off); on exit the
    requested artefacts are written.
    """
    if not _obs_requested(args):
        yield None
        return
    from .obs import metrics as obsmetrics
    from .obs import trace
    from .obs.export import build_run_report, render_span_tree
    from .obs.metrics import prometheus_text

    session = _ObsSession(
        trace.Tracer(meta={"command": command}), obsmetrics.MetricsRegistry()
    )
    with trace.activate(session.tracer), obsmetrics.activate(session.registry):
        yield session
    if args.trace_out:
        report = build_run_report(
            tracer=session.tracer,
            registry=session.registry,
            profile=session.profile,
            health=session.health,
            detsan=session.detsan,
        )
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"# wrote run report: {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(session.registry))
        print(f"# wrote metrics: {args.metrics_out}")
    if args.obs_summary:
        print(render_span_tree(session.tracer))


def _print_report(report: ComparisonReport, max_hits: int) -> None:
    print(
        f"# seed pairs={report.n_seed_pairs}  ungapped hits="
        f"{report.n_ungapped_hits}  gapped extensions="
        f"{report.n_gapped_extensions}  alignments={len(report)}"
    )
    print("# query\tsubject\tqstart\tqend\tsstart\tsend\traw\tbits\tevalue")
    for a in report.best(max_hits):
        print(
            f"{a.seq0_name}\t{a.seq1_name}\t{a.start0}\t{a.end0}\t"
            f"{a.start1}\t{a.end1}\t{a.raw_score}\t{a.bit_score:.1f}\t"
            f"{a.evalue:.2e}"
        )


def _parse_fault_plan(text: str):
    """Parse a ``--fault-plan`` argument; malformed plans are config errors."""
    from .core.faults import FaultPlan

    try:
        return FaultPlan.parse(text)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise ConfigError(f"bad --fault-plan: {exc}") from exc


def _load_fasta_bank(path: str, alphabet=None):
    """Load a FASTA bank; missing/unreadable/empty files are input errors."""
    from .seqs.fasta import load_bank

    try:
        bank = load_bank(path) if alphabet is None else load_bank(path, alphabet)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot load {path}: {exc}") from exc
    if len(bank) == 0:
        raise InputError(f"no sequences in {path}")
    return bank


def _load_compare_inputs(args):
    from .seqs.alphabet import DNA
    from .seqs.fasta import read_fasta

    queries = _load_fasta_bank(args.queries)
    try:
        genome = next(iter(read_fasta(args.genome, DNA)))
    except (OSError, ValueError, StopIteration) as exc:
        raise InputError(f"cannot load {args.genome}: {exc}") from exc
    plan_arg = getattr(args, "fault_plan", None)
    config = PipelineConfig(
        flank=args.flank,
        ungapped_threshold=args.threshold,
        max_evalue=args.evalue,
        workers=getattr(args, "workers", 1),
        pair_chunk=getattr(args, "batch_pairs", 1 << 20),
        shard_timeout=getattr(args, "shard_timeout", None),
        max_retries=getattr(args, "max_retries", 2),
        fault_plan=_parse_fault_plan(plan_arg) if plan_arg else None,
        min_pairs_per_shard=getattr(args, "min_pairs_per_shard", 1 << 18),
    )
    return queries, genome, config


def _cmd_compare(args) -> int:
    queries, genome, config = _load_compare_inputs(args)
    pipe = SeedComparisonPipeline(config)
    with _obs_session(args, "compare") as obs:
        report = pipe.compare_with_genome(queries, genome)
        if obs is not None:
            obs.profile = pipe.profile
            obs.health = pipe.profile.run_health
            obs.detsan = pipe.last_detsan
    _print_report(report, args.max_hits)
    f1, f2, f3 = pipe.profile.wall_fractions()
    print(f"# wall profile: step1={f1:.1%} step2={f2:.1%} step3={f3:.1%}")
    if config.workers > 1:
        from .core.render import render_run_health

        shards = pipe.profile.step2_shards
        imb = pipe.profile.step2_shard_imbalance()
        print(
            f"# step2 shards: {len(shards)} workers, imbalance={imb:.2f}"
        )
        for s in shards:
            print(
                f"#   shard {s.shard}: entries={s.entries} pairs={s.pairs} "
                f"hits={s.hits} batches={s.batches} wall={s.wall_seconds:.3f}s "
                f"attempts={s.attempts} via={s.via}"
            )
        print(f"# {render_run_health(pipe.profile.run_health)}")
    if args.render:
        from .core.render import render_alignment
        from .seqs.translate import translated_bank

        frames = translated_bank(genome, pad=max(64, config.flank + 8))
        for a in report.best(args.render):
            print()
            print(render_alignment(queries, frames, a, config.matrix, config.gaps))
    return 0


def _cmd_index(args) -> int:
    from .index.kmer import BankIndex, ContiguousSeedModel
    from .index.persist import load_index, save_index
    from .index.subset_seed import SubsetSeedModel

    if args.action == "build":
        if not args.fasta:
            raise ConfigError("index build requires --fasta")
        try:
            if args.seed_pattern.startswith("contiguous:"):
                model = ContiguousSeedModel(int(args.seed_pattern.split(":")[1]))
            else:
                model = SubsetSeedModel.from_pattern(args.seed_pattern)
        except (ValueError, IndexError, KeyError) as exc:
            raise ConfigError(
                f"bad --seed pattern {args.seed_pattern!r}: {exc}"
            ) from exc
        bank = _load_fasta_bank(args.fasta)
        index = BankIndex(bank, model)
        save_index(index, args.path)
        print(
            f"indexed {len(bank)} sequences ({bank.total_residues:,} aa): "
            f"{index.n_anchors:,} anchors, "
            f"{len(index.unique_keys):,} distinct keys -> {args.path}"
        )
        return 0
    try:
        index = load_index(args.path)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load index {args.path}: {exc}") from exc
    lengths = index.list_lengths()
    print(f"sequences   : {len(index.bank)}")
    print(f"residues    : {index.bank.total_residues:,}")
    print(f"seed model  : span={index.model.span} key_space={index.model.key_space:,}")
    print(f"anchors     : {index.n_anchors:,}")
    print(f"keys used   : {len(index.unique_keys):,}")
    if lengths.size:
        print(f"list length : mean={lengths.mean():.2f} max={int(lengths.max())}")
    print(f"memory      : {index.memory_bytes():,} bytes")
    from .index.stats import index_stats

    st = index_stats(index)
    print(f"p99 length  : {st.p99_length:.0f}")
    print(f"load factor : {st.load_factor:.1%}")
    print(f"gini        : {st.gini:.3f}")
    return 0


def _cmd_accel(args) -> int:
    from .psc.schedule import PscArrayConfig
    from .rasc.accelerated import AcceleratedPipeline

    queries, genome, config = _load_compare_inputs(args)
    psc = PscArrayConfig(
        n_pes=args.pes,
        window=config.window,
        threshold=config.ungapped_threshold,
        matrix=config.matrix,
    )
    pipe = AcceleratedPipeline(config, psc)
    with _obs_session(args, "accel"):
        result = (
            pipe.run_dual(queries, genome) if args.dual else pipe.run(queries, genome)
        )
    _print_report(result.report, args.max_hits)
    print(
        f"# modelled: step1={result.host_seconds.step1:.3f}s "
        f"accel={result.accel_seconds:.4f}s "
        f"step3={result.host_seconds.step3:.3f}s "
        f"total={result.total_seconds:.3f}s"
    )
    return 0


def _cmd_baseline(args) -> int:
    from .baseline.tblastn import TblastnConfig, TblastnSearch

    queries, genome, _config = _load_compare_inputs(args)
    search = TblastnSearch(TblastnConfig(max_evalue=args.evalue))
    with _obs_session(args, "baseline"):
        report = search.search_genome(queries, genome)
    _print_report(report, args.max_hits)
    s = search.stats
    print(
        f"# word hits={s.word_hits} triggers={s.triggers} "
        f"ungapped ext={s.ungapped_extensions} gapped ext={s.gapped_extensions}"
    )
    return 0


def _cmd_synth(args) -> int:
    from .seqs.fasta import write_fasta
    from .seqs.generate import make_family, plant_homologs, random_genome, random_protein_bank
    from .seqs.sequence import Sequence

    rng = np.random.default_rng(args.seed)
    bank = random_protein_bank(rng, args.proteins)
    genome = random_genome(rng, args.genome_nt)
    families = [
        make_family(rng, f, int(rng.integers(120, 400)), 2)
        for f in range(args.families)
    ]
    genome, truth = plant_homologs(rng, genome, families)
    extras = [Sequence(f"family{f.family_id:03d}", f.ancestor) for f in families]
    write_fasta(list(bank) + extras, f"{args.prefix}_proteins.fasta")
    write_fasta([genome], f"{args.prefix}_genome.fasta")
    print(f"wrote {args.prefix}_proteins.fasta ({len(bank) + len(extras)} sequences)")
    print(f"wrote {args.prefix}_genome.fasta ({args.genome_nt} nt)")
    for t in truth:
        print(
            f"# planted family={t.family_id} member={t.member_index} "
            f"[{t.genome_start}:{t.genome_end}] strand={t.strand:+d}"
        )
    return 0


def _cmd_simulate(args) -> int:
    from .index.kmer import TwoBankIndex
    from .index.subset_seed import DEFAULT_SUBSET_SEED
    from .psc.operator import PscOperator
    from .psc.schedule import PscArrayConfig
    from .psc.workload import build_jobs
    from .seqs.generate import random_protein_bank

    rng = np.random.default_rng(args.seed)
    b0 = random_protein_bank(rng, max(2, args.entries // 20), mean_length=150)
    b1 = random_protein_bank(rng, max(2, args.entries // 10), mean_length=150)
    index = TwoBankIndex.build(b0, b1, DEFAULT_SUBSET_SEED)
    cfg = PscArrayConfig(n_pes=args.pes, slot_size=args.slot_size, threshold=20)
    op = PscOperator(cfg)
    with _obs_session(args, "simulate"):
        result = op.run(build_jobs(index, flank=12, window=cfg.window))
    b = result.breakdown
    print(f"entries={index.n_shared_keys} pairs={index.total_pairs} hits={len(result)}")
    print(
        f"cycles: load={b.load_cycles} compute={b.compute_cycles} "
        f"overhead={b.overhead_cycles} total={b.total_cycles}"
    )
    print(f"PE utilisation: {b.utilization:.1%}")
    print(f"time @100MHz: {cfg.seconds(b.total_cycles) * 1e3:.3f} ms")
    return 0


def _cmd_serve(args) -> int:
    import json as _json
    import os

    from .obs.slo import SloConfig
    from .serve import (
        BreakerConfig,
        SearchHTTPServer,
        SearchService,
        ServiceConfig,
        serve_forever,
    )

    resident = _load_fasta_bank(args.bank)
    plan = _parse_fault_plan(args.fault_plan) if args.fault_plan else None
    config = PipelineConfig(
        flank=args.flank,
        ungapped_threshold=args.threshold,
        max_evalue=args.evalue,
        workers=args.workers,
        fault_plan=plan,
    )
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
    deadline = args.default_deadline_ms
    service = SearchService(
        config,
        resident,
        ServiceConfig(
            workers=args.workers,
            min_pairs_per_shard=args.min_pairs_per_shard,
            queue_depth=args.queue_depth,
            default_deadline_seconds=None if deadline is None else deadline / 1e3,
            breaker=BreakerConfig(
                failure_threshold=args.breaker_threshold,
                reset_seconds=args.breaker_reset_seconds,
            ),
            tracing=not args.no_request_tracing,
            flight_records=args.flight_records,
            trace_records=args.trace_records,
            trace_dir=args.trace_dir,
            slo=SloConfig(latency_objective_seconds=args.slo_latency_ms / 1e3),
        ),
        fault_plan=plan,
    )

    profiler = None
    if args.profile or args.profile_out:
        from .obs.profile import SamplingProfiler

        profiler = SamplingProfiler()
        if args.profile_out:
            profiler.start()

    service.start(warm=True)
    try:
        server = SearchHTTPServer((args.host, args.port), service, profiler=profiler)
    except OSError as exc:
        service.drain(timeout=5.0)
        raise RuntimeFault(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from exc
    host, port = server.server_address[:2]
    print(
        f"serving {len(resident)} resident sequences "
        f"({resident.total_residues:,} aa) on http://{host}:{port} "
        f"(workers={args.workers}, queue={args.queue_depth}, "
        f"tracing={'on' if not args.no_request_tracing else 'off'})",
        flush=True,
    )
    serve_forever(server)
    if profiler is not None and args.profile_out:
        profiler.stop()
        with open(args.profile_out, "w", encoding="utf-8") as fh:
            _json.dump(profiler.report(), fh, indent=2)
        print(f"profile written to {args.profile_out}", flush=True)
    return 0


_COMMANDS = {
    "compare": _cmd_compare,
    "index": _cmd_index,
    "accel": _cmd_accel,
    "baseline": _cmd_baseline,
    "synth": _cmd_synth,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Exit codes follow the contract in :mod:`repro.core.errors`: 0 ok,
    2 config error, 3 input error, 4 runtime fault; an uncaught exception
    keeps Python's traceback and exit code 1 (a bug, not an outcome).
    """
    from .core.faults import BankCorruption
    from .core.supervisor import DeadlineExceeded

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (DeadlineExceeded, BankCorruption) as exc:
        print(f"error: runtime fault: {exc}", file=sys.stderr)
        return RuntimeFault.exit_code
    except BrokenPipeError:  # downstream pager/head closed the pipe
        return EXIT_OK


def serve_main(argv: Sequence[str] | None = None) -> int:
    """``repro-serve`` entry point: ``repro-psc serve`` without the prefix."""
    if argv is None:
        argv = sys.argv[1:]
    return main(["serve", *argv])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
