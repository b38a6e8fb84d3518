"""Command-line interface.

Single-variable chains operate on ``.npy`` arrays::

    python -m repro init   chain.nmk first.npy
    python -m repro append chain.nmk second.npy --error-bound 1e-3 \
        --nbits 8 --strategy clustering
    python -m repro extract chain.nmk --iteration 2 --output state.npy
    python -m repro inspect chain.nmk

The same commands take whole checkpoints (every variable in one file) as
``.npz`` archives, mirroring how a simulation writes one multi-variable
checkpoint; ``extract`` writes ``.npz`` when the file's records are
named::

    python -m repro init    ckpt.nmk step000.npz --error-bound 1e-3
    python -m repro append  ckpt.nmk step010.npz
    python -m repro extract ckpt.nmk -o restart.npz

``append`` writes one fsynced record per variable onto the file (first
cutting a torn tail, or a checkpoint only some variables got) and
reuses the previous delta's parameters when flags are omitted, so a
chain stays self-consistent without repeating configuration;
``inspect`` understands both file flavours.  When every iteration is
already on disk, ``compress-chain`` builds the whole chain in one shot --
with ``--adaptive`` the bin model is reused across iterations (deltas
report ``model=reused`` under ``inspect``)::

    python -m repro compress-chain chain.nmk step*.npy \
        --error-bound 1e-3 --strategy clustering --adaptive

Integrity tooling (any file flavour)::

    python -m repro verify ckpt.nmk   # per-record CRC walk, exit 1 on damage
    python -m repro repair ckpt.nmk   # backup, then truncate to valid prefix

Telemetry: run any workflow with ``NUMARCK_TRACE=trace.jsonl`` to capture
spans, then summarise them::

    python -m repro stats trace.jsonl   # stage breakdown + metrics tables
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.core import CheckpointChain, NumarckConfig
from repro.core.metrics import compression_ratio_paper
from repro.io.container import (CheckpointFile, ChainWriter, resume_chains,
                                save_chain, save_chains)
from repro.io.format import last_delta_head

__all__ = ["main"]


def _config_from_args(args: argparse.Namespace,
                      fallback: NumarckConfig | None = None) -> NumarckConfig:
    base = fallback if fallback is not None else NumarckConfig()
    kwargs = {}
    if args.error_bound is not None:
        kwargs["error_bound"] = args.error_bound
    elif fallback is not None:
        kwargs["error_bound"] = base.error_bound
    if args.nbits is not None:
        kwargs["nbits"] = args.nbits
    elif fallback is not None:
        kwargs["nbits"] = base.nbits
    if args.strategy is not None:
        kwargs["strategy"] = args.strategy
    elif fallback is not None:
        kwargs["strategy"] = base.strategy
    if getattr(args, "adaptive", False):
        kwargs["adaptive"] = True
    if getattr(args, "drift_threshold", None) is not None:
        kwargs["drift_threshold"] = args.drift_threshold
    return NumarckConfig(**kwargs) if kwargs else NumarckConfig()


def _config_parent() -> argparse.ArgumentParser:
    """Shared parent holding the compression flags, so every subcommand
    spells them identically (``-E`` is the short form of
    ``--error-bound``)."""
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("compression options")
    g.add_argument("--error-bound", "-E", type=float, default=None,
                   help="per-point tolerance E on the change ratio")
    g.add_argument("--nbits", type=int, default=None,
                   help="index width B (table has 2^B - 1 bins)")
    g.add_argument("--strategy", default=None,
                   choices=("equal_width", "log_scale", "clustering"))
    g.add_argument("--adaptive", action="store_true",
                   help="reuse the fitted bin model across iterations, "
                        "refitting only on drift (see --drift-threshold)")
    g.add_argument("--drift-threshold", type=float, default=None,
                   help="refit when the incompressible fraction rises more "
                        "than this above the last fit's (default 0.05)")
    return parent


def _output_parent(*, required: bool = False,
                   default: str | None = None,
                   help_text: str = "output file") -> argparse.ArgumentParser:
    """Shared parent for the destination flag ``--output``/``-o``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--output", "-o", dest="output",
                        default=default, help=help_text)
    # main() enforces presence after parsing, so a missing flag is a
    # returned exit code 2 rather than a SystemExit from argparse.
    parent.set_defaults(_require_output=required)
    return parent




def _load_checkpoint(path: str) -> dict[str | None, np.ndarray]:
    """``{None: array}`` from a ``.npy`` file; one array per variable, in
    name order, from a ``.npz`` archive."""
    loaded = np.load(path, allow_pickle=False)
    if not isinstance(loaded, np.lib.npyio.NpzFile):
        return {None: np.asarray(loaded, dtype=np.float64)}
    with loaded:
        return {k: np.asarray(loaded[k], dtype=np.float64)
                for k in sorted(loaded.files)}


def _cmd_init(args: argparse.Namespace) -> int:
    checkpoint = _load_checkpoint(args.array)
    if not checkpoint:
        print("error: checkpoint archive is empty", file=sys.stderr)
        return 2
    config = _config_from_args(args)
    chains = {v: CheckpointChain(d, config) for v, d in checkpoint.items()}
    if None in chains:
        nbytes = save_chain(args.chain, chains[None])
        what = f"full checkpoint, {checkpoint[None].size} points"
    else:
        nbytes = save_chains(args.chain, chains)
        what = f"{len(chains)} variables ({', '.join(chains)})"
    print(f"{args.chain}: {what}, {nbytes} bytes")
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    chain_path = Path(args.chain)
    if not chain_path.exists():
        print(f"error: {args.chain} does not exist (run 'init' first)",
              file=sys.stderr)
        return 2
    with CheckpointFile.open(chain_path) as f:
        stored = f.read_chains(strict=False)
    checkpoint = _load_checkpoint(args.array)
    if set(stored) - set(checkpoint):
        want = ("a .npy array" if None in stored
                else f"a .npz checkpoint of {', '.join(stored)}")
        print(f"error: {args.chain} takes {want}", file=sys.stderr)
        return 2
    # Records are the fulls, then the deltas interleaved by iteration, so
    # the first depth * len(stored) are whole checkpoints.  A torn record,
    # or a checkpoint some variables never got, is cut before appending.
    depth = min(1 + len(payloads) for _full, payloads in stored.values())
    stored = {v: (full, payloads[:depth - 1])
              for v, (full, payloads) in stored.items()}
    # The last delta's head says what the chain was encoded with.
    fallback = None
    last = last_delta_head(next(iter(stored.values()))[1])
    if last is not None:
        fallback = NumarckConfig(error_bound=last.error_bound,
                                 nbits=last.nbits, strategy=last.strategy)
    chains = resume_chains(stored, _config_from_args(args, fallback))
    # Every variable encodes before the first record is written, so bad
    # input leaves the file as it was.
    stats = [c.append(checkpoint[v]) for v, c in chains.items()]
    # One fsynced record per variable; the file then holds the bytes
    # save_chain/save_chains would write for the same chains.
    writer = ChainWriter(chain_path, depth * len(chains))
    try:
        for v, c in chains.items():
            writer.write_delta(c.payloads[-1], v)
    finally:
        writer.close()
    # Means over the variables of a multi-variable checkpoint.
    print(f"{args.chain}: iteration {depth} appended | "
          f"gamma={np.mean([s.incompressible_ratio for s in stats]):.4f} "
          f"R={np.mean([s.ratio_paper for s in stats]):.2f}% "
          f"mean_err={np.mean([s.mean_error for s in stats]):.2e} | "
          f"file {writer.end} bytes")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    with CheckpointFile.open(args.chain) as f:
        chains = resume_chains(f.read_chains())
    # A multi-variable file torn mid-checkpoint ends at the last
    # iteration every variable holds.
    it = (args.iteration if args.iteration is not None
          else min(len(c) for c in chains.values()) - 1)
    state = {v: c.reconstruct(it) for v, c in chains.items()}
    if None in state:
        np.save(args.output, state[None])
        print(f"{args.output}: iteration {it}, shape {state[None].shape}")
    else:
        np.savez(args.output, **state)
        print(f"{args.output}: iteration {it}, "
              f"{len(state)} variables ({', '.join(sorted(state))})")
    return 0


def _cmd_compress_chain(args: argparse.Namespace) -> int:
    from repro.codec import Codec

    codec = Codec(config=_config_from_args(args))
    chain = codec.compress_chain(_load_checkpoint(p)[None]
                                 for p in args.arrays)
    nbytes = save_chain(args.chain, chain)
    line = (f"{args.chain}: {len(chain)} iterations "
            f"(1 full + {len(chain) - 1} deltas), {nbytes:,} bytes")
    stats = chain.reuse_stats
    if stats is not None:
        line += (f" | adaptive: {stats.reuse_hits}/{stats.encodes} reuse "
                 f"hits, {stats.refits} refits")
    print(line)
    return 0


def _memmap_chunks(path: str, chunk_size: int):
    """Replayable chunk-iterator factory over a memory-mapped .npy file
    (chunks keep the file's dtype, so float32 stays float32)."""

    def factory():
        arr = np.load(path, mmap_mode="r")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, chunk_size):
            yield np.asarray(flat[start : start + chunk_size])

    return factory


def _cmd_compress_stream(args: argparse.Namespace) -> int:
    from repro.codec import Codec
    from repro.io import save_streamed

    if len(args.paths) != 2:
        print("error: give exactly PREV CURR (and --output OUTPUT)",
              file=sys.stderr)
        return 2
    prev, curr = args.paths

    codec = Codec(config=_config_from_args(args), chunk_size=args.chunk_size)
    streamed = codec.compress_stream(_memmap_chunks(prev, args.chunk_size),
                                     _memmap_chunks(curr, args.chunk_size))
    nbytes = save_streamed(args.output, streamed)
    n_exact = sum(c.exact_values.size for c in streamed.chunks)
    raw = streamed.n_points * streamed.value_bits // 8
    print(f"{args.output}: {streamed.n_points:,} points in "
          f"{len(streamed.chunks)} chunks | exact {n_exact:,} "
          f"({n_exact / max(streamed.n_points, 1):.2%}) | "
          f"{nbytes:,} bytes ({nbytes / raw:.1%} of raw)")
    return 0


def _cmd_decompress_stream(args: argparse.Namespace) -> int:
    from repro.core import decode_stream
    from repro.io import load_streamed

    streamed = load_streamed(args.stream)
    ref = np.load(args.prev, mmap_mode="r")
    if ref.size != streamed.n_points:
        print(f"error: reference has {ref.size} points, stream has "
              f"{streamed.n_points}", file=sys.stderr)
        return 2
    chunk_sizes = [c.n_points for c in streamed.chunks]

    def ref_chunks():
        flat = ref.reshape(-1)
        pos = 0
        for n in chunk_sizes:
            yield np.asarray(flat[pos : pos + n], dtype=np.float64)
            pos += n

    out = np.lib.format.open_memmap(args.output, mode="w+",
                                    dtype=np.float64,
                                    shape=(streamed.n_points,))
    pos = 0
    for decoded in decode_stream(ref_chunks(), streamed):
        out[pos : pos + decoded.size] = decoded
        pos += decoded.size
    out.flush()
    print(f"{args.output}: {pos:,} points decoded")
    return 0


def _describe_chain(name: str, chain: CheckpointChain,
                    indent: str = "") -> None:
    from repro.telemetry.accounting import (
        full_payload_nbytes,
        raw_nbytes,
        record_nbytes,
    )

    full = chain.full_checkpoint
    print(f"{indent}{name}: {len(chain)} iterations "
          f"(1 full + {len(chain) - 1} deltas), "
          f"{full.size} points of shape {full.shape}")
    full_bytes = record_nbytes(full_payload_nbytes(full))
    stored = full_bytes
    raw = raw_nbytes(full.size)
    print(f"{indent}  full: {full_bytes:,} bytes on disk "
          f"({raw:,} raw)")
    for i, (enc, payload) in enumerate(zip(chain.deltas, chain.payloads), 1):
        ratio = compression_ratio_paper(enc.n_points, enc.n_incompressible,
                                        enc.nbits,
                                        value_bits=enc.value_bits)
        nbytes = record_nbytes(len(payload))
        stored += nbytes
        raw += raw_nbytes(enc.n_points, value_bits=enc.value_bits)
        reused = " model=reused" if enc.model_reused else ""
        print(f"{indent}  delta {i}: strategy={enc.strategy} B={enc.nbits} "
              f"E={enc.error_bound:g} bins={enc.representatives.size}"
              f"{reused} gamma={enc.incompressible_ratio:.4f} R={ratio:.2f}% | "
              f"{nbytes:,} bytes, chain {stored / raw:.1%} of raw")


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.errors import FormatError

    with CheckpointFile.open(args.file) as f:
        index = 0
        damage: str | None = None
        try:
            for tag, payload in f.records(strict=False):
                index += 1
                print(f"  record {index}: tag={tag.decode('ascii', 'replace')}"
                      f" {len(payload)} bytes  crc ok")
            if f.damage is not None:
                damage = f"torn tail: {f.damage[0]}"
        except FormatError as exc:
            damage = f"interior damage: {exc}"
    if damage is None:
        print(f"{args.file}: clean ({index} records)")
        return 0
    print(f"{args.file}: DAMAGED after {index} valid records -- {damage}",
          file=sys.stderr)
    print(f"run 'repro repair {args.file}' to truncate to the valid prefix",
          file=sys.stderr)
    return 1


def _cmd_repair(args: argparse.Namespace) -> int:
    import shutil

    from repro.io import salvage_truncate

    backup = args.backup if args.backup else f"{args.file}.bak"
    shutil.copy2(args.file, backup)
    report = salvage_truncate(args.file)
    if report.clean:
        Path(backup).unlink()
        print(f"{args.file}: already clean ({report.records_kept} records), "
              f"backup removed")
        return 0
    print(f"{args.file}: kept {report.records_kept} records, truncated "
          f"{report.bytes_truncated} damaged bytes ({report.reason})")
    print(f"original preserved at {backup}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        diff_table,
        metrics_table,
        read_trace,
        self_time_ranking,
        stage_table,
        trace_totals,
    )

    if args.diff is not None:
        a_path, b_path = args.diff
        a = read_trace(a_path)
        b = read_trace(b_path)
        if not any(r.get("type") == "span" for r in a) or \
                not any(r.get("type") == "span" for r in b):
            print("error: both traces must contain spans to diff",
                  file=sys.stderr)
            return 1
        print(diff_table(a, b, top=args.top,
                         title=f"trace diff: A={a_path} B={b_path}"))
        return 0

    if args.trace is None:
        print("error: stats needs a trace file (or --diff A B)",
              file=sys.stderr)
        return 2
    records = read_trace(args.trace)
    spans = [r for r in records if r.get("type") == "span"]
    if not spans:
        print(f"error: {args.trace}: trace contains no spans", file=sys.stderr)
        return 1
    totals = trace_totals(spans)
    print(f"{args.trace}: {len(spans)} spans, "
          f"{totals['root_wall_s'] * 1e3:.2f} ms traced, "
          f"{totals['bytes_out'] / 1e6:.2f} MB out")
    print()
    print(stage_table(spans))
    if args.top is not None:
        ranked = self_time_ranking(spans, args.top)
        print()
        print(f"top {args.top} stages by self time:")
        for i, agg in enumerate(ranked, start=1):
            print(f"  {i}. {agg['stage']}: {agg['self_s'] * 1e3:.2f} ms self "
                  f"({agg['calls']} calls)")
    metrics = [r for r in records if r.get("type") == "metrics"]
    if metrics:
        print()
        print(metrics_table(metrics[-1]))
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import run_suite, scenario_names

    unknown = [n for n in (args.scenario or []) if n not in scenario_names()]
    if unknown:
        print(f"error: unknown scenarios {unknown}; "
              f"available: {scenario_names()}", file=sys.stderr)
        return 2

    def progress(doc):
        total = doc["total"]["wall_s"]
        print(f"{doc['scenario']}: median {total['median'] * 1e3:.2f} ms "
              f"(MAD {total['mad'] * 1e3:.2f} ms, {doc['repeats']} repeats, "
              f"{doc['mode']}) -> "
              f"{args.out}/BENCH_{doc['scenario']}.json")

    run_suite(args.scenario or None, quick=args.quick, repeats=args.repeats,
              memory=not args.no_memory, out_dir=args.out, progress=progress)
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import Thresholds, compare_dirs, comparison_table

    thresholds = Thresholds(k=args.k, rel_floor=args.rel_floor,
                            abs_floor=args.abs_floor)
    comparison = compare_dirs(args.baseline, args.current, thresholds)
    print(comparison_table(comparison, top=args.top))
    for note in comparison.notes:
        print(f"note: {note}")
    improved = comparison.improvements
    if improved:
        print(f"{len(improved)} metric(s) improved beyond the noise gate")
    regressions = comparison.regressions
    if regressions:
        print(f"REGRESSION: {len(regressions)} metric(s) exceeded the "
              f"noise gate", file=sys.stderr)
        return 1
    print(f"ok: no regressions across {len(comparison.deltas)} gated metrics")
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.bench import load_bench

    files = sorted(Path(args.dir).glob("BENCH_*.json"))
    if not files:
        print(f"error: no BENCH_*.json files under {args.dir}",
              file=sys.stderr)
        return 1
    rows = []
    for path in files:
        doc = load_bench(path)
        total = doc["total"]["wall_s"]
        hottest = max(doc["stages"].items(),
                      key=lambda kv: kv[1]["self_s"]["median"],
                      default=(None, None))
        mem = (doc.get("memory") or {}).get("rss_peak_kb")
        rows.append([
            doc["scenario"], doc["mode"], doc["repeats"],
            f"{total['median'] * 1e3:.2f}", f"{total['mad'] * 1e3:.2f}",
            hottest[0] or "-",
            f"{mem / 1024:.1f}" if mem is not None else "-",
        ])
    print(format_table(
        ["scenario", "mode", "reps", "median ms", "MAD ms",
         "hottest stage", "RSS MB"],
        rows, title=f"benchmark results: {args.dir}"))
    return 0


def _chaos_worker(comm, prev_shards, curr_shards, cfg):
    """Rank body for ``repro chaos``: encode under telemetry, verify the
    bound locally, and ship the summary plus telemetry records home."""
    from repro.core import decode_iteration
    from repro.parallel import parallel_encode
    from repro.telemetry import Telemetry, use

    tel = Telemetry(keep_spans=True)
    with use(tel):
        enc, stats = parallel_encode(comm, prev_shards[comm.rank],
                                     curr_shards[comm.rank], cfg)
    prev = prev_shards[comm.rank]
    curr = curr_shards[comm.rank]
    out = decode_iteration(prev, enc)
    # The NUMARCK guarantee is on change ratios: |out - curr| / |prev| <= E
    # for every compressible point.
    rel = np.abs((out - curr) / prev)
    rel[enc.incompressible] = 0
    return {
        "rank": comm.rank,
        "degraded": stats.degraded,
        "lost_ranks": list(stats.lost_ranks),
        "max_rel_err": float(rel.max()),
        "n_points": stats.n_points,
        "n_bins": stats.n_bins,
        "records": tel.records(),
    }


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.parallel import RankFaultInjector, block_partition, run_spmd

    if args.rank >= args.ranks:
        print(f"error: --rank {args.rank} out of range for "
              f"--ranks {args.ranks}", file=sys.stderr)
        return 2
    fault_kwargs = {
        "crash": {"crash_in_phase": args.phase},
        "hang": {"hang_in_phase": args.phase, "hang_seconds": args.timeout * 3},
        "drop": {"drop_in_phase": args.phase},
        "flip": {"flip_in_phase": args.phase},
        "transient": {"error_in_phase": args.phase},
        "none": None,
    }[args.fault]
    faults = (None if fault_kwargs is None
              else {args.rank: RankFaultInjector(**fault_kwargs)})

    rng = np.random.default_rng(args.seed)
    prev = rng.uniform(1.0, 2.0, args.n)
    curr = prev * (1.0 + rng.normal(0.0, args.error_bound * 3, args.n))
    cfg = NumarckConfig(error_bound=args.error_bound, nbits=8)
    prev_shards = block_partition(prev, args.ranks)
    curr_shards = block_partition(curr, args.ranks)

    outcomes = run_spmd(
        _chaos_worker, args.ranks, prev_shards, curr_shards, cfg,
        strict=False, comm_timeout=args.timeout, faults=faults,
        timeout=max(10.0 * args.timeout, 30.0))

    trace_records = []
    bad = 0
    for o in outcomes:
        if o.ok:
            r = o.value
            honored = r["max_rel_err"] <= args.error_bound * (1 + 1e-9)
            state = "degraded" if r["degraded"] else "complete"
            print(f"rank {o.rank}: {state} lost={r['lost_ranks']} "
                  f"max_err={r['max_rel_err']:.3e} "
                  f"bound={'ok' if honored else 'VIOLATED'}")
            if not honored:
                bad += 1
            for rec in r["records"]:
                trace_records.append({"rank": o.rank, **rec})
        else:
            kind = "timeout" if o.timed_out else "failed"
            print(f"rank {o.rank}: {kind}: {o.error}")
    survivors = [o for o in outcomes if o.ok]
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for rec in trace_records:
                fh.write(json.dumps(rec) + "\n")
        print(f"wrote {len(trace_records)} telemetry records to {args.trace}")
    if not survivors:
        print("error: no rank completed", file=sys.stderr)
        return 1
    if bad:
        print(f"error: {bad} rank(s) violated the error bound",
              file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig
    from repro.service.http import serve

    config = ServiceConfig(workers=args.workers, capacity=args.capacity,
                           retry_after=args.retry_after,
                           store_dir=args.store_dir,
                           codec=_config_from_args(args))
    serve(config, host=args.host, port=args.port)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with CheckpointFile.open(args.chain) as f:
        chains = resume_chains(f.read_chains())
    if None in chains:
        _describe_chain(str(args.chain), chains[None])
        return 0
    print(f"{args.chain}: multi-variable checkpoint, "
          f"{len(chains)} variables")
    for name, chain in chains.items():
        _describe_chain(name, chain, indent="  ")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NUMARCK error-bounded checkpoint compression",
    )
    parser.add_argument("--trace", dest="trace_out", metavar="FILE",
                        default=None,
                        help="write telemetry spans of this invocation to a "
                             ".jsonl file (flag form of NUMARCK_TRACE)")
    cfg = _config_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[cfg],
                       help="create a chain from a full checkpoint")
    p.add_argument("chain", help="output .nmk chain file")
    p.add_argument("array", help="input .npy array, or .npz archive (one "
                                 "array per variable) for a multi-variable "
                                 "chain")
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("append", parents=[cfg],
                       help="append one iteration to a chain")
    p.add_argument("chain", help=".nmk chain file")
    p.add_argument("array", help="input .npy array (.npz archive for a "
                                 "multi-variable chain)")
    p.set_defaults(func=_cmd_append)

    p = sub.add_parser("extract", help="decode an iteration to .npy (.npz "
                                       "for a multi-variable chain)",
                       parents=[_output_parent(required=True,
                                               help_text="output .npy or "
                                                         ".npz file")])
    p.add_argument("chain", help=".nmk chain file")
    p.add_argument("--iteration", "-i", type=int, default=None,
                   help="iteration index (default: latest)")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("compress-chain", parents=[cfg],
                       help="build a whole chain from .npy iterations in "
                            "one shot (first array is the full checkpoint); "
                            "--adaptive reuses the bin model across them")
    p.add_argument("chain", help="output .nmk chain file")
    p.add_argument("arrays", nargs="+",
                   help="iteration .npy arrays, in simulation order")
    p.set_defaults(func=_cmd_compress_chain)

    p = sub.add_parser("compress-stream",
                       parents=[cfg,
                                _output_parent(required=True,
                                               help_text="output .nms "
                                                         "stream file")],
                       help="chunked compression of one iteration pair "
                            "(out-of-core, memory-mapped)")
    p.add_argument("paths", nargs="+", metavar="PATH",
                   help="PREV CURR .npy arrays")
    p.add_argument("--chunk-size", type=int, default=1 << 20,
                   help="points per chunk (default 1M)")
    p.set_defaults(func=_cmd_compress_stream)

    p = sub.add_parser("decompress-stream",
                       parents=[_output_parent(required=True,
                                               help_text="output .npy file")],
                       help="chunked decode of a .nms stream against its "
                            "reference iteration")
    p.add_argument("stream", help=".nms stream file")
    p.add_argument("prev", help="reference iteration (.npy)")
    p.set_defaults(func=_cmd_decompress_stream)

    p = sub.add_parser("serve", parents=[cfg],
                       help="run the compression service: an HTTP job API "
                            "over per-tenant checkpoint chains (the "
                            "compression flags set the default chain "
                            "config)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="bind port, 0 for ephemeral (default 8765)")
    p.add_argument("--workers", type=int, default=2,
                   help="compression worker threads (default 2)")
    p.add_argument("--capacity", type=int, default=32,
                   help="queued-job bound before submits get 429 "
                        "(default 32)")
    p.add_argument("--retry-after", type=float, default=0.05,
                   help="Retry-After hint on 429 responses, seconds "
                        "(default 0.05)")
    p.add_argument("--store-dir", default=None, metavar="DIR",
                   help="persist chains under DIR (crash-consistent "
                        "appends; chains are recovered on restart)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("inspect", help="summarise a chain file (either flavour)")
    p.add_argument("chain", help=".nmk chain file")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("stats",
                       help="stage-breakdown and metrics tables from a "
                            "telemetry trace; exits 1 when the trace is "
                            "missing, unreadable, or contains no spans")
    p.add_argument("trace", nargs="?", default=None,
                   help="trace .jsonl file (see NUMARCK_TRACE); omit only "
                        "with --diff")
    p.add_argument("--top", type=int, default=None, metavar="N",
                   help="also print the top-N stages ranked by self time "
                        "(with --diff: keep only the top-N rows)")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                   help="attribute the wall-time delta between two traces "
                        "to stages (per-stage self-time deltas; positive "
                        "delta means B is slower)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("bench",
                       help="scenario benchmarks: run, compare against a "
                            "baseline, report")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("run",
                             help="run scenarios and write schema-validated "
                                  "BENCH_<scenario>.json documents")
    b.add_argument("--quick", action="store_true",
                   help="reduced sizes for CI / pre-commit (seconds, "
                        "not minutes)")
    b.add_argument("--scenario", action="append", metavar="NAME",
                   help="run only this scenario (repeatable; default: all)")
    b.add_argument("--repeats", type=int, default=5,
                   help="timed repeats per scenario (default 5)")
    b.add_argument("--output", "-o", dest="out", default="bench_results",
                   help="output directory (default: bench_results)")
    b.add_argument("--no-memory", action="store_true",
                   help="skip the separate memory-gauged pass")
    b.set_defaults(func=_cmd_bench_run)

    b = bench_sub.add_parser("compare",
                             help="gate a run against a baseline; exits 1 "
                                  "when any metric regresses beyond its "
                                  "MAD-based noise threshold")
    b.add_argument("baseline", help="baseline BENCH_*.json file or directory")
    b.add_argument("current", help="current BENCH_*.json file or directory")
    b.add_argument("--k", type=float, default=4.0,
                   help="noise-gate width in MAD-derived sigmas (default 4)")
    b.add_argument("--rel-floor", type=float, default=0.25,
                   help="minimum gate as a fraction of the baseline median "
                        "(default 0.25)")
    b.add_argument("--abs-floor", type=float, default=5e-4,
                   help="minimum gate in seconds (default 5e-4)")
    b.add_argument("--top", type=int, default=None, metavar="N",
                   help="print only the top-N rows")
    b.set_defaults(func=_cmd_bench_compare)

    b = bench_sub.add_parser("report",
                             help="summarise the BENCH_*.json documents in "
                                  "a directory")
    b.add_argument("dir", nargs="?", default="bench_results",
                   help="results directory (default: bench_results)")
    b.set_defaults(func=_cmd_bench_report)

    p = sub.add_parser("verify",
                       help="walk a checkpoint file and report per-record "
                            "CRC status (exit 1 on damage)")
    p.add_argument("file", help="checkpoint file (any flavour)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chaos",
                       help="run a distributed encode with an injected rank "
                            "fault and verify degraded-mode recovery (exit "
                            "1 if no rank completes or any completed rank "
                            "violates the error bound)")
    p.add_argument("--ranks", type=int, default=3,
                   help="number of SPMD ranks (default 3)")
    p.add_argument("--fault", default="crash",
                   choices=["crash", "hang", "drop", "flip", "transient",
                            "none"],
                   help="fault family to inject (default crash)")
    p.add_argument("--phase", default="insitu.sample_gather",
                   help="pipeline phase to strike "
                        "(default insitu.sample_gather)")
    p.add_argument("--rank", type=int, default=1,
                   help="rank to inject the fault into (default 1)")
    p.add_argument("--timeout", type=float, default=2.0,
                   help="per-message comm silence deadline in seconds "
                        "(default 2)")
    p.add_argument("--n", type=int, default=50_000,
                   help="synthetic data points (default 50000)")
    p.add_argument("--error-bound", type=float, default=1e-3,
                   help="NUMARCK relative error bound E (default 1e-3)")
    p.add_argument("--seed", type=int, default=0,
                   help="synthetic data seed (default 0)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write merged per-rank telemetry records (fault "
                        "spans included) to this .jsonl file")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("repair",
                       help="truncate a damaged checkpoint file to its last "
                            "valid record (a backup is written first)")
    p.add_argument("file", help="checkpoint file (any flavour)")
    p.add_argument("--backup", default=None,
                   help="backup path (default: FILE.bak)")
    p.set_defaults(func=_cmd_repair)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "_require_output", False) and args.output is None:
        print(f"error: {args.command}: --output/-o is required",
              file=sys.stderr)
        return 2
    try:
        if args.trace_out is not None:
            from repro.telemetry import JsonlSink, Telemetry, use

            tel = Telemetry(sink=JsonlSink(args.trace_out), keep_spans=False)
            try:
                with use(tel):
                    return args.func(args)
            finally:
                tel.close()
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
