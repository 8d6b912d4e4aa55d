"""Command-line interface: ``repro-ind``.

Subcommands:

* ``generate`` — write one of the synthetic paper datasets as a CSV directory;
* ``profile``  — per-column statistics of a CSV directory;
* ``discover`` — run IND discovery with any strategy, optionally dumping JSON;
* ``serve``    — long-lived session: JSON-lines requests on stdin, one warm
  worker pool multiplexed across all of them (up to ``--max-inflight``
  concurrently), id-tagged results as JSON lines on stdout, clean drain on
  SIGINT/SIGTERM;
* ``watch``    — poll a CSV directory on an interval and keep its
  satisfied-IND set current with incremental (delta-planned) runs on one
  warm session, emitting one JSON line per round with the delta
  accounting;
* ``cache``    — list or evict entries of the content-addressed spool cache;
* ``spool``    — inspect an on-disk spool directory: format version,
  compression ratio, per-attribute block counts and value coverage;
* ``accession`` — list accession-number candidates (strict or softened);
* ``pipeline`` — run the Aladin-style pipeline over one or more CSV dumps;
* ``trace``    — dump the span tree of a ``discover --trace --json`` result
  as plain JSON or Chrome ``chrome://tracing`` events.

Everything the CLI does goes through the public library API, so it doubles as
executable documentation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro._util import format_count, format_duration
from repro.core.candidates import PretestConfig
from repro.core.runner import (
    ALL_STRATEGIES,
    DEFAULT_CACHE_DIR,
    DiscoveryConfig,
    DiscoverySession,
    discover_inds,
)
from repro.datagen import generate_biosql, generate_openmms, generate_scop
from repro.datagen.sizes import SCALES
from repro.db.csvio import load_csv_directory, write_csv_directory
from repro.db.stats import collect_column_stats
from repro.discovery.accession import AccessionRule, find_accession_candidates
from repro.discovery.pipeline import AladinPipeline
from repro.errors import ReproError
from repro.obs import chrome_events, coverage, get_registry, phase_summary
from repro.storage.spool_cache import SpoolCache

_GENERATORS = {
    "biosql": generate_biosql,
    "scop": generate_scop,
    "openmms": generate_openmms,
}


def _add_validation_flags(parser: argparse.ArgumentParser) -> None:
    """Spool/parallel/cache flags shared by ``discover`` and ``serve``."""
    parser.add_argument(
        "--spool-compression",
        choices=("none", "zlib"),
        default="none",
        help="per-block payload compression of the binary value files; "
        "'zlib' writes v3 frames (default: none — v2 frames, "
        "byte-identical to older builds)",
    )
    parser.add_argument(
        "--validation-workers",
        type=int,
        default=1,
        metavar="N",
        help="validate in up to N worker processes; applies only to the "
        "brute-force and merge-single-pass strategies, and 1 (the default) "
        "runs the plain sequential validator with no processes spawned. "
        "Above 1, brute force validates on a worker pool; merge-single-pass "
        "still merges in this process, and N sizes only the --overlap "
        "pool. Decisions are identical at every N",
    )
    parser.add_argument(
        "--sampling-size",
        type=int,
        default=0,
        metavar="K",
        help="pretest each candidate against a K-value random sample of its "
        "dependent attribute before full validation; external strategies "
        "only (default: 0, pretest off)",
    )
    parser.add_argument(
        "--overlap",
        action="store_true",
        help="run export, then the sampling pretest, as pool tasks on one "
        "worker fleet; brute force validates the survivors on the same "
        "fleet, the merge in this process; "
        "requires the brute-force or merge-single-pass "
        "strategy; results are identical to the in-process pipeline "
        "(default: off)",
    )
    parser.add_argument(
        "--skip-scans",
        action="store_true",
        help="skip whole spool blocks the validator can prove irrelevant: "
        "brute-force seeks past blocks below the sought value, and the "
        "merge engine seeks purely-referenced attributes to the dependent "
        "frontier; needs the brute-force or merge-single-pass strategy "
        "(default: off, matching the paper's Figure 5 I/O accounting)",
    )
    parser.add_argument(
        "--reuse-spool",
        action="store_true",
        help="reuse a cached spool when the database catalog is unchanged, "
        "and cache this run's spool otherwise (default: off; external "
        "strategies only, and mutually exclusive with an explicit spool "
        "directory)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="spool cache root; only consulted with --reuse-spool "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU size budget for the spool cache: after each cached "
        "export, least-recently-hit entries are evicted until the cache "
        "fits; only consulted with --reuse-spool (default: unbounded)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree of the run — per-phase spans plus "
        "worker-stamped per-task spans — attached to the result as the "
        "'trace' key (discover: in the --json file; serve: in each "
        "response); every other output byte is identical with tracing on "
        "or off (default: off)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="delta-plan each run against the previous result over the "
        "same database: only candidates touching changed columns (per the "
        "per-attribute fingerprint map) re-validate, the rest re-derive "
        "from the prior, and the result carries a 'delta' accounting key; "
        "answers are byte-identical to full re-runs.  External strategies "
        "only; the first run (no prior) is a full run that seeds the "
        "chain (default: off)",
    )


def _validation_config_kwargs(args: argparse.Namespace) -> dict:
    """The :class:`DiscoveryConfig` kwargs mirroring ``_add_validation_flags``.

    Declaration (the flags) and consumption (these kwargs) live side by
    side so a flag added to one cannot be silently dropped by the other's
    copy in ``discover`` or ``serve``.
    """
    return {
        "strategy": args.strategy,
        "spool_compression": args.spool_compression,
        "sampling_size": args.sampling_size,
        "overlap": args.overlap,
        "validation_workers": args.validation_workers,
        "skip_scans": args.skip_scans,
        "reuse_spool": args.reuse_spool,
        "cache_dir": args.cache_dir,
        "cache_max_bytes": args.cache_max_bytes,
        "trace": args.trace,
        "incremental": args.incremental,
    }


def build_parser() -> argparse.ArgumentParser:
    """Construct the complete ``repro-ind`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ind",
        description="Unary IND discovery for schema discovery "
        "(Bauckmann/Leser/Naumann, ICDE 2006 reproduction).",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        metavar="LEVEL",
        help="emit repro.* log records at LEVEL or above to stderr — "
        "pool lifecycle events (worker spawn/death/requeue/reap) log at "
        "debug/warning/info (default: logging stays unconfigured)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("dataset", choices=sorted(_GENERATORS))
    gen.add_argument("directory", help="output CSV directory")
    gen.add_argument("--scale", choices=sorted(SCALES), default="small")
    gen.add_argument("--seed", type=int, default=7)

    prof = sub.add_parser("profile", help="per-column statistics of a CSV dump")
    prof.add_argument("directory")

    disc = sub.add_parser("discover", help="discover satisfied INDs")
    disc.add_argument("directory")
    disc.add_argument(
        "--strategy", choices=sorted(ALL_STRATEGIES), default="merge-single-pass"
    )
    disc.add_argument("--no-max-value-pretest", action="store_true")
    disc.add_argument("--transitivity", action="store_true")
    _add_validation_flags(disc)
    disc.add_argument("--json", dest="json_path", help="write full result JSON")

    serve = sub.add_parser(
        "serve",
        help="session mode: JSON-lines requests on stdin, one warm worker "
        "pool reused across all of them",
        description="Read requests as JSON lines from stdin — at minimum "
        '{"directory": "<csv dump>"}, optionally {"strategy": ...} and a '
        'client-chosen {"id": ...} — and answer each with one JSON result '
        'line on stdout, tagged with the request id ("line-<n>" for input '
        "line n when the request names none — namespaced apart from bare "
        "integer ids; clients choosing their own ids should keep them "
        "unique).  Requests run off the "
        "reading thread, up to --max-inflight at a time, all multiplexed "
        "over one warm validation worker pool; responses are emitted in "
        "completion order, so overlapping requests rely on the id to "
        "match them up.  A request of {\"kind\": \"stats\"} answers with "
        "the process metrics snapshot and pool statistics instead of "
        "running a discovery; every response carries a trace_id.  "
        "SIGINT/SIGTERM stop intake, drain the in-flight "
        "requests, and shut the pool down cleanly.  Shutdown statistics "
        "go to stderr as one JSON object.  Combine with --reuse-spool to "
        "also skip re-exporting unchanged databases.",
    )
    serve.add_argument(
        "--strategy",
        choices=sorted(ALL_STRATEGIES),
        default="brute-force",
        help="default strategy for requests that do not name one "
        "(default: brute-force — the strategy the warm pool accelerates)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=1,
        metavar="N",
        help="answer up to N requests concurrently over the shared pool "
        "(default: 1 — responses then keep request order; above 1 they "
        "arrive in completion order, matched by id)",
    )
    serve.add_argument(
        "--idle-reap-seconds",
        type=float,
        default=None,
        metavar="S",
        help="after each request, drain pool workers that have been idle "
        "for at least S seconds — a stretch of requests that validate in "
        "process (merges, single-candidate brute force) then releases the "
        "warm fleet instead of pinning it; the next pooled request "
        "respawns workers at the cold price "
        "(default: never reap)",
    )
    _add_validation_flags(serve)

    watch = sub.add_parser(
        "watch",
        help="poll a CSV directory and keep its satisfied-IND set current "
        "with incremental runs on one warm session",
        description="Re-load DIRECTORY every --interval seconds and run an "
        "incremental discovery against the previous round's result: the "
        "per-attribute fingerprint map pins down which columns changed, "
        "only candidates touching them re-validate, and every other "
        "decision is re-derived from the prior.  Each round prints one "
        "JSON line with the satisfied set and the delta accounting "
        "(attributes_changed / candidates_revalidated / decisions_reused)."
        "  The first round has no prior and runs full.  Combine with "
        "--reuse-spool to also adopt unchanged columns' spool files "
        "instead of re-exporting them.  Stop with Ctrl-C or --rounds.",
    )
    watch.add_argument("directory", help="CSV dump directory to poll")
    watch.add_argument(
        "--strategy",
        choices=sorted(ALL_STRATEGIES),
        default="merge-single-pass",
        help="validation strategy for every round (must be external: "
        "delta planning replays per-candidate set decisions; "
        "default: merge-single-pass)",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds to sleep between rounds (default: 2.0)",
    )
    watch.add_argument(
        "--rounds",
        type=int,
        default=0,
        metavar="N",
        help="stop after N rounds (default: 0 = poll until interrupted)",
    )
    _add_validation_flags(watch)

    cache = sub.add_parser(
        "cache", help="inspect or evict the content-addressed spool cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_list = cache_sub.add_parser(
        "list", help="list cache entries, stalest (= next evicted) first"
    )
    cache_list.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"spool cache root (default: {DEFAULT_CACHE_DIR})",
    )
    cache_evict = cache_sub.add_parser(
        "evict", help="remove cache entries by fingerprint, budget, or all"
    )
    cache_evict.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"spool cache root (default: {DEFAULT_CACHE_DIR})",
    )
    which = cache_evict.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--fingerprint",
        metavar="PREFIX",
        help="evict entries whose catalog fingerprint starts with PREFIX "
        "(as printed by 'cache list')",
    )
    which.add_argument(
        "--max-bytes",
        type=int,
        metavar="BYTES",
        help="LRU-evict least-recently-hit entries until the cache fits "
        "the byte budget",
    )
    which.add_argument(
        "--all", action="store_true", help="evict every entry"
    )
    which.add_argument(
        "--orphans",
        action="store_true",
        help="reclaim orphaned working directories (in-progress or "
        "abandoned .staging-* exports that never published, interrupted "
        ".doomed-* deletions) without touching published entries; run "
        "only when no export is in flight",
    )

    spool_cmd = sub.add_parser(
        "spool", help="inspect on-disk spool directories"
    )
    spool_sub = spool_cmd.add_subparsers(dest="spool_command", required=True)
    spool_inspect = spool_sub.add_parser(
        "inspect",
        help="describe one spool directory: format version, compression, "
        "per-attribute block counts and value coverage",
        description="Open PATH (a directory with an index.json: a "
        "spool-cache entry that 'discover --reuse-spool' published, listed "
        "by 'cache list' under the cache root, or a directory kept through "
        "the library with DiscoveryConfig(spool_dir=..., keep_spool=True)) "
        "without touching any value payloads, and print its "
        "frame version (v2 binary, v3 compressed binary), block "
        "size, per-attribute value/block counts with min..max coverage, "
        "and — for compressed spools — the raw vs stored payload bytes "
        "and overall compression ratio.",
    )
    spool_inspect.add_argument(
        "path", help="spool directory (contains index.json)"
    )

    acc = sub.add_parser("accession", help="list accession-number candidates")
    acc.add_argument("directory")
    acc.add_argument(
        "--min-fraction",
        type=float,
        default=1.0,
        help="softened rule threshold (paper: 0.9998); 1.0 = strict",
    )

    pipe = sub.add_parser("pipeline", help="run the Aladin pipeline")
    pipe.add_argument("directories", nargs="+", help="one CSV dump per source")
    pipe.add_argument("--no-surrogate-filter", action="store_true")

    trace = sub.add_parser(
        "trace", help="inspect span trees recorded by --trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_dump = trace_sub.add_parser(
        "dump",
        help="export a traced result's span tree",
        description="Read a result file written by 'discover --trace "
        "--json RESULT.json' (or a bare trace object) and write its span "
        "tree as plain JSON or as Chrome trace events loadable in "
        "chrome://tracing / Perfetto.",
    )
    trace_dump.add_argument(
        "result_json",
        help="result JSON from 'discover --trace --json', or a bare "
        "trace object with a 'spans' key",
    )
    trace_dump.add_argument(
        "--format",
        choices=("chrome", "json"),
        default="chrome",
        help="chrome: chrome://tracing event list; json: the trace "
        "object verbatim (default: chrome)",
    )
    trace_dump.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="OUT",
        help="write to OUT instead of stdout",
    )
    return parser


def _configure_logging(level: str) -> None:
    """Point the ``repro`` logger hierarchy at stderr at the given level.

    Idempotent: repeated calls (tests invoke :func:`main` many times in one
    process) adjust the level but never stack a second handler.
    """
    logger = logging.getLogger("repro")
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` (default ``sys.argv``), run, return exit code."""
    args = build_parser().parse_args(argv)
    if args.log_level:
        _configure_logging(args.log_level)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A reader closed stdout early (`| head -1`).  The `with` blocks
        # on the way here have unwound, so sessions drained their pools.
        # Point stdout at devnull so the interpreter's final flush stays
        # quiet, and exit as a shell reports a writer that SIGPIPE ended.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "discover":
        return _cmd_discover(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "spool":
        return _cmd_spool(args)
    if args.command == "accession":
        return _cmd_accession(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command}")


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _GENERATORS[args.dataset](args.scale, seed=args.seed)
    path = write_csv_directory(dataset.db, args.directory)
    summary = dataset.db.summary()
    print(
        f"wrote {args.dataset} ({args.scale}) to {path}: "
        f"{summary['tables']} tables, {summary['attributes']} attributes, "
        f"{format_count(summary['rows'])} rows"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    db = load_csv_directory(args.directory)
    stats = collect_column_stats(db)
    print(f"{'attribute':40} {'type':8} {'rows':>8} {'nulls':>7} "
          f"{'distinct':>9} {'unique':>6}")
    for ref in sorted(stats):
        st = stats[ref]
        print(
            f"{ref.qualified:40} {st.dtype.value:8} {st.row_count:>8} "
            f"{st.null_count:>7} {st.distinct_count:>9} "
            f"{'yes' if st.is_unique else 'no':>6}"
        )
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    db = load_csv_directory(args.directory)
    config = DiscoveryConfig(
        pretests=PretestConfig(
            cardinality=True, max_value=not args.no_max_value_pretest
        ),
        use_transitivity=args.transitivity,
        **_validation_config_kwargs(args),
    )
    result = discover_inds(db, config)
    print(
        f"{result.database}: {result.raw_candidates} candidates, "
        f"{result.candidates_after_pretests} after pretests, "
        f"{result.satisfied_count} satisfied INDs "
        f"({format_duration(result.timings.total_seconds)}, "
        f"strategy={result.strategy})"
    )
    if args.reuse_spool:
        print(
            f"spool cache: {'hit' if result.spool_cache_hit else 'miss'}"
            f" ({result.spool_path})"
        )
    if result.delta is not None:
        if result.delta.get("mode") == "delta":
            print(
                f"delta: {result.delta['attributes_changed']} attributes "
                f"changed, {result.delta['candidates_revalidated']} "
                f"candidates revalidated, "
                f"{result.delta['decisions_reused']} decisions reused"
            )
        else:
            print(f"delta: full run ({result.delta.get('reason')})")
    if result.trace is not None:
        phases = " ".join(
            f"{name}={seconds:.3f}s"
            for name, seconds in sorted(phase_summary(result.trace).items())
        )
        print(
            f"trace {result.trace['trace_id']}: "
            f"coverage={coverage(result.trace):.1%} {phases}"
        )
    for ind in result.satisfied:
        print(f"  {ind}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(result.to_dict(), fh, indent=2)
        print(f"full result written to {args.json_path}")
    return 0


def _stdin_lines():
    """Yield stdin lines without holding Python buffer locks while blocked.

    ``for line in sys.stdin`` blocks *inside* the text wrapper's lock.  That
    is fatal for concurrent serve: request threads fork pool workers, each
    forked child's ``multiprocessing`` bootstrap closes its inherited
    ``sys.stdin`` — which needs that same (forked-while-held, never to be
    released) lock — and the child deadlocks before reaching its worker
    loop.  Reading the raw file descriptor with ``os.read`` keeps the
    blocked state lock-free, so forks started by other threads are safe.
    Falls back to plain iteration when stdin has no file descriptor (tests
    and embedded callers substitute ``io.StringIO``, and they also run
    single-shot pools from the main thread, where the lock is moot).
    """
    try:
        fd = sys.stdin.fileno()
    except (AttributeError, OSError, ValueError):
        yield from sys.stdin
        return
    pending = b""
    while True:
        chunk = os.read(fd, 65536)
        if not chunk:
            if pending:
                yield pending.decode("utf-8", errors="replace")
            return
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode("utf-8", errors="replace")


class _ServeDrain(Exception):
    """Raised by the serve signal handler to unwind into the drain path."""

    def __init__(self, signum: int) -> None:
        """Remember which signal asked for the drain."""
        super().__init__(signum)
        self.signum = signum


def _serve_signal_handlers() -> dict[int, object]:
    """Install SIGINT/SIGTERM → :class:`_ServeDrain`; return the old handlers.

    Either signal stops request intake and lets the in-flight jobs finish
    instead of dying mid-job with orphaned worker processes.  The previous
    handlers are restored before the drain, so a *second* signal falls
    through to the default behaviour — the operator's escape hatch when a
    drain hangs.  Installing is skipped quietly off the main thread, where
    CPython forbids it.
    """
    previous: dict[int, object] = {}

    def handler(signum, frame):
        raise _ServeDrain(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except ValueError:  # not the main thread (embedded callers)
            pass
    return previous


def _cmd_serve(args: argparse.Namespace) -> int:
    """Session mode: serve JSON-line discovery requests over one warm pool.

    The stdin loop only reads and parses; every request executes on an
    executor thread (at most ``--max-inflight`` at a time), all sharing the
    session's one warm :class:`~repro.parallel.pool.WorkerPool`.  Responses
    are written as they complete, tagged with the request id, under a lock
    so concurrent completions never interleave bytes.
    """
    if args.max_inflight < 1:
        raise ReproError(
            f"--max-inflight must be >= 1, got {args.max_inflight}"
        )
    base = DiscoveryConfig(**_validation_config_kwargs(args))
    counters = {"served": 0, "errors": 0}
    counters_lock = threading.Lock()
    write_lock = threading.Lock()

    def emit(response: dict) -> None:
        with write_lock:
            print(json.dumps(response), flush=True)

    def run_request(request_id, request: dict) -> None:
        try:
            response = _serve_one(session, request)
            response["id"] = request_id
            with counters_lock:
                counters["served"] += 1
        except ReproError as exc:
            response = {"id": request_id, "error": str(exc)}
            with counters_lock:
                counters["errors"] += 1
        except Exception as exc:  # never die silently on an executor thread
            response = {"id": request_id, "error": f"internal error: {exc!r}"}
            with counters_lock:
                counters["errors"] += 1
        emit(response)

    drained_by: int | None = None
    previous_handlers = _serve_signal_handlers()
    with DiscoverySession(
        base, idle_reap_seconds=args.idle_reap_seconds
    ) as session:
        executor = ThreadPoolExecutor(
            max_workers=args.max_inflight, thread_name_prefix="serve"
        )
        gate = threading.BoundedSemaphore(args.max_inflight)

        def run_gated(request_id, request: dict) -> None:
            try:
                run_request(request_id, request)
            finally:
                gate.release()

        try:
            for ordinal, line in enumerate(_stdin_lines(), start=1):
                line = line.strip()
                if not line:
                    continue
                if line.lower() in ("quit", "exit"):
                    break
                # The fallback id is namespaced ("line-3", never bare 3) so
                # it cannot collide with a client-chosen integer id; clients
                # that pick their own ids own their uniqueness.
                try:
                    request = _parse_request(line)
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    with counters_lock:
                        counters["errors"] += 1
                    emit({"id": f"line-{ordinal}", "error": f"bad request: {exc}"})
                    continue
                request_id = request.get("id", f"line-{ordinal}")
                gate.acquire()  # bound in-flight work; backpressure on stdin
                executor.submit(run_gated, request_id, request)
        except _ServeDrain as drain:
            drained_by = drain.signum
        finally:
            # Restore handlers first: a second signal during the drain gets
            # the default (fatal) behaviour instead of another drain.
            for signum, old in previous_handlers.items():
                signal.signal(signum, old)
            executor.shutdown(wait=True)
        stats = session.pool_stats
        shutdown = {
            "event": "serve-shutdown",
            "workers": args.validation_workers,
            "max_inflight": args.max_inflight,
            "requests": counters["served"],
            "errors": counters["errors"],
            "drained-on-signal": (
                signal.Signals(drained_by).name
                if drained_by is not None
                else None
            ),
            "pool": stats.as_dict() if stats is not None else None,
        }
        print(json.dumps(shutdown), file=sys.stderr)
    return 0


def _parse_request(line: str) -> dict:
    """Parse one serve request line; raises on malformed input."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise KeyError("request must be a JSON object")
    if request.get("kind") == "stats":
        return request
    if "directory" not in request:
        raise KeyError(
            "request must be a JSON object with a 'directory' key "
            "(or {\"kind\": \"stats\"})"
        )
    return request


def _serve_one(session: DiscoverySession, request: dict) -> dict:
    """Answer one parsed serve request (runs on an executor thread)."""
    if request.get("kind") == "stats":
        return _serve_stats(session)
    overrides = {
        key: request[key]
        for key in ("strategy", "candidate_mode", "validation_workers")
        if key in request
    }
    # Every request is traced — the span tree costs microseconds and gives
    # each response a trace_id — but the full tree is only shipped back
    # when the session (--trace) or the request ({"trace": true}) asks.
    config = dataclasses.replace(session.config, trace=True, **overrides)
    started = time.monotonic()
    result = session.discover(load_csv_directory(request["directory"]), config)
    response = {
        "database": result.database,
        "strategy": result.strategy,
        "candidates": result.candidates_after_pretests,
        "satisfied_count": result.satisfied_count,
        "satisfied": sorted(
            [ind.dependent.qualified, ind.referenced.qualified]
            for ind in result.satisfied
        ),
        "spool_cache_hit": result.spool_cache_hit,
        "validation_workers": result.validation_workers,
        "bytes_read": result.validator_stats.bytes_read,
        "bytes_stored": result.validator_stats.bytes_stored,
        "pool": result.pool_stats,
        "delta": result.delta,
        "seconds": round(time.monotonic() - started, 6),
        "trace_id": result.trace["trace_id"] if result.trace else None,
    }
    if result.trace is not None and (
        session.config.trace or request.get("trace")
    ):
        response["trace"] = result.trace
    return response


def _cmd_watch(args: argparse.Namespace) -> int:
    """Poll a CSV directory; keep its IND set current with delta runs.

    One :class:`~repro.core.runner.DiscoverySession` survives the whole
    loop, so the warm worker fleet and the remembered prior both carry
    across rounds: the session threads each round's result in as the next
    round's prior automatically.  Every round emits exactly one JSON line
    (flushed — the loop is built to be tailed by another process), carrying
    the full satisfied set and the planner's ``delta`` accounting.
    """
    if args.interval < 0:
        raise ReproError(f"--interval must be >= 0, got {args.interval}")
    if args.rounds < 0:
        raise ReproError(f"--rounds must be >= 0, got {args.rounds}")
    overrides = _validation_config_kwargs(args)
    overrides["incremental"] = True
    base = DiscoveryConfig(**overrides)
    rounds_done = 0
    with DiscoverySession(base) as session:
        try:
            while True:
                rounds_done += 1
                started = time.monotonic()
                db = load_csv_directory(args.directory)
                result = session.discover(db)
                line = {
                    "round": rounds_done,
                    "database": result.database,
                    "strategy": result.strategy,
                    "candidates": result.candidates_after_pretests,
                    "satisfied_count": result.satisfied_count,
                    "satisfied": sorted(
                        [ind.dependent.qualified, ind.referenced.qualified]
                        for ind in result.satisfied
                    ),
                    "delta": result.delta,
                    "spool_cache_hit": result.spool_cache_hit,
                    "seconds": round(time.monotonic() - started, 6),
                }
                print(json.dumps(line), flush=True)
                if args.rounds and rounds_done >= args.rounds:
                    break
                time.sleep(args.interval)
        except KeyboardInterrupt:
            pass
    return 0


def _serve_stats(session: DiscoverySession) -> dict:
    """Answer a ``{"kind": "stats"}`` serve request: telemetry, no discovery."""
    stats = session.pool_stats
    return {
        "kind": "stats",
        "metrics": get_registry().snapshot(),
        "pool": stats.as_dict() if stats is not None else None,
    }


def _cmd_cache(args: argparse.Namespace) -> int:
    """``repro-ind cache list|evict`` — operate on the spool cache."""
    cache = SpoolCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.cache_command == "list":
        return _cmd_cache_list(cache)
    if args.cache_command == "evict":
        return _cmd_cache_evict(cache, args)
    raise AssertionError(f"unhandled cache command {args.cache_command}")


def _cmd_cache_list(cache: SpoolCache) -> int:
    entries = cache.list_entries()
    orphans = cache.list_orphans()
    if not entries and not orphans:
        print(f"spool cache at {cache.root} is empty")
        return 0
    if entries:
        print(f"{'fingerprint':34} {'format':10} {'comp':6} {'block':>6} "
              f"{'attrs':>6} {'bytes':>12} last-hit")
        for info in entries:
            block = str(info.block_size) if info.block_size is not None else "-"
            print(
                f"{info.fingerprint_prefix:34} {info.spool_format:10} "
                f"{info.compression:6} "
                f"{block:>6} {info.attribute_count:>6} {info.size_bytes:>12,} "
                + time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(info.mtime))
            )
        print(
            f"total: {len(entries)} entries, "
            f"{format_count(sum(i.size_bytes for i in entries))} bytes "
            f"({cache.root}); listed stalest first — the eviction order"
        )
    else:
        print(f"no published entries ({cache.root})")
    if orphans:
        # Published entries are complete by construction (atomic rename);
        # anything below never finished and never serves a hit.
        print(
            f"orphans: {len(orphans)} in-progress/abandoned temp dirs, "
            f"{format_count(sum(o.size_bytes for o in orphans))} bytes — "
            "reclaim with 'cache evict --orphans' once no export is in flight"
        )
        for orphan in orphans:
            print(
                f"  {orphan.kind:8} {orphan.name:44} {orphan.size_bytes:>12,} "
                + time.strftime(
                    "%Y-%m-%d %H:%M:%S", time.localtime(orphan.mtime)
                )
            )
    return 0


def _cmd_cache_evict(cache: SpoolCache, args: argparse.Namespace) -> int:
    if args.orphans:
        evicted = cache.evict_orphans()
    elif args.all:
        evicted = cache.evict_all()
    elif args.fingerprint:
        evicted = cache.evict_prefix(args.fingerprint)
    else:
        evicted = cache.enforce_budget(max_bytes=args.max_bytes)
    for info in evicted:
        print(f"evicted {info.name} ({info.size_bytes:,} bytes)")
    print(
        f"evicted {len(evicted)} entries; "
        f"{format_count(cache.total_bytes())} bytes remain"
    )
    return 0


def _cmd_spool(args: argparse.Namespace) -> int:
    """``repro-ind spool inspect`` — describe an on-disk spool directory."""
    if args.spool_command == "inspect":
        return _cmd_spool_inspect(args)
    raise AssertionError(f"unhandled spool command {args.spool_command}")


def _clip(value: str | None, width: int = 16) -> str:
    """A value shortened for the coverage column, with an ellipsis marker."""
    if value is None:
        return "-"
    return value if len(value) <= width else value[: width - 1] + "…"


def _cmd_spool_inspect(args: argparse.Namespace) -> int:
    """Print format version, per-attribute blocks and compression ratio.

    Reads only the index document — value payloads are never touched, so
    inspecting a multi-gigabyte spool costs one JSON parse.
    """
    from repro.storage.codec import COMPRESSION_NONE
    from repro.storage.sorted_sets import SpoolDirectory

    spool = SpoolDirectory.open(args.path)
    attributes = sorted(spool.attributes())
    version = 2 if spool.compression == COMPRESSION_NONE else 3
    print(
        f"spool at {spool.root}: frame v{version} (binary), "
        f"compression {spool.compression}, block size {spool.block_size}, "
        f"{len(attributes)} attributes, "
        f"{format_count(spool.total_values())} values"
    )
    if not attributes:
        return 0
    print(
        f"{'attribute':36} {'values':>9} {'blocks':>7} {'raw':>12} "
        f"{'stored':>12} coverage"
    )
    total_raw = total_stored = 0
    for ref in attributes:
        svf = spool.get(ref)
        raw = sum(block.raw_bytes for block in svf.blocks)
        stored = sum(block.stored_bytes for block in svf.blocks)
        total_raw += raw
        total_stored += stored
        coverage = (
            f"{_clip(svf.min_value)} .. {_clip(svf.max_value)}"
            if svf.count
            else "(empty)"
        )
        blocks = str(len(svf.blocks)) if svf.blocks else "-"
        print(
            f"{ref.qualified:36} {svf.count:>9} {blocks:>7} "
            f"{raw if raw else '-':>12} {stored if stored else '-':>12} "
            f"{coverage}"
        )
    if total_stored:
        ratio = total_raw / total_stored
        print(
            f"compression: {total_raw:,} raw -> {total_stored:,} stored "
            f"payload bytes ({ratio:.2f}x)"
        )
    return 0


def _cmd_accession(args: argparse.Namespace) -> int:
    db = load_csv_directory(args.directory)
    rule = AccessionRule(min_fraction=args.min_fraction)
    candidates = find_accession_candidates(db, rule)
    if not candidates:
        print("no accession-number candidates")
        return 0
    for profile in candidates:
        print(
            f"{profile.ref.qualified}: {profile.conforming_values}/"
            f"{profile.total_values} conforming, spread "
            f"{profile.length_spread:.2%}"
        )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    databases = [load_csv_directory(d) for d in args.directories]
    pipeline = AladinPipeline(
        apply_surrogate_filter=not args.no_surrogate_filter
    )
    report = pipeline.run(databases)
    for name, db_report in report.databases.items():
        primary = db_report.primary_relation
        shortlist = ", ".join(primary.shortlist) or "(none)"
        print(f"[{name}] {db_report.summary['tables']} tables, "
              f"{len(db_report.inds)} satisfied INDs")
        print(f"  primary relation shortlist: {shortlist}")
        if db_report.surrogate_report is not None:
            print(
                f"  surrogate filter: kept {len(db_report.surrogate_report.kept)}, "
                f"filtered {db_report.surrogate_report.filtered_count}"
            )
        for guess in db_report.fk_guesses[:10]:
            print(f"  FK guess: {guess}")
        if db_report.duplicate_rows:
            print(f"  duplicate rows: {db_report.duplicate_rows}")
    for link in report.links:
        print(f"link: {link}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro-ind trace dump`` — export a recorded span tree."""
    try:
        with open(args.result_json, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read {args.result_json}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.result_json} is not JSON: {exc}") from exc
    if isinstance(doc, dict) and "spans" in doc:
        trace = doc  # a bare trace object, e.g. a previous 'trace dump --format json'
    elif isinstance(doc, dict) and isinstance(doc.get("trace"), dict):
        trace = doc["trace"]
    else:
        raise ReproError(
            f"{args.result_json} carries no trace — rerun discover with "
            "--trace --json"
        )
    payload = chrome_events(trace) if args.format == "chrome" else trace
    rendered = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
        print(
            f"trace {trace.get('trace_id', '?')}: {len(trace['spans'])} "
            f"spans written to {args.output} ({args.format} format)"
        )
    else:
        print(rendered)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
