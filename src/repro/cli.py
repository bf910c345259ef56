"""Command-line interface that regenerates the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli fig4 --model samejima --vary num_items --trials 3
    python -m repro.cli fig5 --dimension users --max-size 2000
    python -m repro.cli fig6
    python -m repro.cli fig7
    python -m repro.cli fig12 --students 100
    python -m repro.cli fig13
    python -m repro.cli rank crowd.npz --method HnD --repeat 3

Each ``figN`` command prints a plain-text table with the same rows/series
the paper reports; the figure-to-command mapping follows the benchmark
scripts in ``benchmarks/`` (one ``bench_figN_*.py`` per reproduced figure).

``rank`` is the serving entry point: it loads a saved matrix (NPZ or CSV
triples) with :meth:`ResponseMatrix.load
<repro.core.response.ResponseMatrix.load>` and ranks it through
:func:`repro.api.rank` on the fused in-process kernels — the method name
resolves in the ranker registry.  Repeated calls are served from the
hash-keyed :class:`~repro.engine.cache.RankCache`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api import REGISTRY
from repro.core.response import ResponseMatrix
from repro.datasets import dataset_summary_table, list_datasets, load_dataset
from repro.engine import RankCache
from repro.evaluation import (
    accuracy_sweep,
    c1p_dataset_factory,
    default_ranker_suite,
    evaluate_rankers,
    irt_dataset_factory,
    measure_scalability,
    stability_experiment,
)
from repro.exceptions import InvalidResponseMatrixError
from repro.irt.simulated import (
    generate_american_experience_dataset,
    generate_halfmoon_dataset,
)
from repro.truth_discovery import TrueAnswerRanker


def _print_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print a fixed-width table without external dependencies."""
    formatted_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in formatted_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers))
    print(line)
    print("-" * len(line))
    for row in formatted_rows:
        print("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def _below_least(*checks: Tuple[str, int, int]) -> bool:
    """Print one ``error:`` line for the first ``(flag, value, least)`` below least.

    Commands run it before any work, so a count or size that cannot mean
    anything exits 2 at once instead of printing an empty table or a
    traceback from deep inside an experiment.
    """
    for flag, value, least in checks:
        if value < least:
            print("error: %s must be >= %d, got %d" % (flag, least, value),
                  file=sys.stderr)
            return True
    return False


# --------------------------------------------------------------------------- #
# Sub-commands
# --------------------------------------------------------------------------- #
def command_list(args: argparse.Namespace) -> int:
    print("Registered datasets (simulated stand-ins, shapes from paper Figure 10):")
    _print_table(("dataset", "users", "questions", "options"), dataset_summary_table())
    return 0


#: The cheating baselines fit the GRM estimator, which needs two users.
_GRM_LEAST_USERS = 2


def command_fig4(args: argparse.Namespace) -> int:
    least_users = _GRM_LEAST_USERS if args.cheating else 1
    if _below_least(("--trials", args.trials, 1), ("--users", args.users, 1),
                    ("--users", args.users, least_users),
                    ("--items", args.items, 1)):
        return 2
    if args.vary == "c1p":
        factory = c1p_dataset_factory(num_users=args.users, num_options=args.options)
        values: List[object] = [int(v) for v in (args.values or [25, 50, 100, 200])]
        parameter = "num_items(C1P)"
    else:
        factory = irt_dataset_factory(
            args.model,
            num_users=args.users,
            num_items=args.items,
            num_options=args.options,
            vary=args.vary,
        )
        defaults = {
            "num_items": [25, 50, 100, 200],
            "num_users": [25, 50, 100, 200],
            "num_options": [2, 3, 4, 5, 6],
            "answer_probability": [0.6, 0.7, 0.8, 0.9, 1.0],
        }
        values = args.values or defaults.get(args.vary, [25, 50, 100, 200])
        if args.vary != "answer_probability":
            # Count-valued parameters arrive as floats from argparse.
            values = [int(v) for v in values]
        parameter = args.vary
    # Refuse what the generators and the GRM estimator would: a swept
    # count below 1 (below 2 for swept users with --cheating), an IRT
    # model with fewer than two options (the C1P generator takes one), or
    # an answer probability outside (0, 1].
    if args.vary == "answer_probability":
        outside = [value for value in values if not 0 < value <= 1]
        if outside:
            print("error: --values must lie in (0, 1] for answer_probability, "
                  "got %g" % outside[0], file=sys.stderr)
            return 2
        checks = []
    else:
        least = {"num_options": 2, "num_users": least_users}.get(args.vary, 1)
        checks = [("--values", value, least) for value in values]
    if args.vary not in ("c1p", "num_options"):
        checks.append(("--options", args.options, 2))
    if _below_least(*checks):
        return 2
    sweep = accuracy_sweep(
        parameter,
        values,
        factory,
        include_cheating=args.cheating,
        num_trials=args.trials,
        random_state=args.seed,
    )
    print(f"Accuracy sweep over {parameter} (model={args.model}, trials={args.trials})")
    _print_table((parameter, "method", "mean accuracy", "std"), sweep.to_rows())
    return 0


def command_fig5(args: argparse.Namespace) -> int:
    if _below_least(("--repeats", args.repeats, 1),
                    ("--fixed-size", args.fixed_size, 1)):
        return 2
    sizes = args.values or [50, 100, 200, 400, 800]
    sizes = [size for size in sizes if size <= args.max_size]
    result = measure_scalability(
        sizes,
        dimension=args.dimension,
        fixed_size=args.fixed_size,
        num_repeats=args.repeats,
        timeout_seconds=args.timeout,
        random_state=args.seed,
    )
    print(f"Scalability in the number of {args.dimension} (median of {args.repeats} runs)")
    _print_table((args.dimension, "method", "seconds", "iterations"), result.to_rows())
    return 0


def command_fig6(args: argparse.Namespace) -> int:
    if _below_least(("--repeats", args.repeats, 1), ("--users", args.users, 1),
                    ("--items", args.items, 1)):
        return 2
    result = stability_experiment(
        args.values or [1.0, 2.0, 4.0, 8.0, 16.0],
        num_users=args.users,
        num_items=args.items,
        num_repeats=args.repeats,
        random_state=args.seed,
    )
    print("Stability of HnD vs ABH across question discriminations")
    _print_table(
        ("discrimination", "method", "eigvec variance", "displacement", "accuracy"),
        result.to_rows(),
    )
    return 0


def command_fig7(args: argparse.Namespace) -> int:
    rows = []
    for name in list_datasets():
        dataset = load_dataset(name)
        reference = TrueAnswerRanker(dataset.correct_options).rank(dataset.response)
        suite = default_ranker_suite(random_state=args.seed)
        result = evaluate_rankers(dataset, suite, reference_abilities=reference.scores)
        for method, accuracy in result.accuracies.items():
            rows.append((name, method, 100.0 * accuracy))
    print("Correlation (x100) of user rankings with the True-answer reference ranking")
    _print_table(("dataset", "method", "accuracy x100"), rows)
    return 0


def command_fig12(args: argparse.Namespace) -> int:
    if _below_least(("--runs", args.runs, 1), ("--students", args.students, 1),
                    ("--students", args.students, _GRM_LEAST_USERS)):
        return 2
    rows = []
    for run in range(args.runs):
        dataset = generate_american_experience_dataset(
            args.students, random_state=None if args.seed is None else args.seed + run
        )
        suite = default_ranker_suite(
            include_cheating=True,
            correct_options=dataset.correct_options,
            random_state=args.seed,
        )
        result = evaluate_rankers(dataset, suite)
        for method, accuracy in result.accuracies.items():
            rows.append((run, method, 100.0 * accuracy))
    print(f"Simulated American Experience test ({args.students} students, {args.runs} runs)")
    _print_table(("run", "method", "accuracy x100"), rows)
    return 0


def command_fig13(args: argparse.Namespace) -> int:
    if _below_least(("--runs", args.runs, 1), ("--users", args.users, 1),
                    ("--items", args.items, 1),
                    ("--users", args.users, _GRM_LEAST_USERS)):
        return 2
    rows = []
    for run in range(args.runs):
        dataset = generate_halfmoon_dataset(
            args.users, args.items, random_state=None if args.seed is None else args.seed + run
        )
        suite = default_ranker_suite(
            include_cheating=True,
            correct_options=dataset.correct_options,
            random_state=args.seed,
        )
        result = evaluate_rankers(dataset, suite)
        for method, accuracy in result.accuracies.items():
            rows.append((run, method, 100.0 * accuracy))
    print(f"Simulated half-moon data ({args.users} users x {args.items} items, {args.runs} runs)")
    _print_table(("run", "method", "accuracy x100"), rows)
    return 0


def _append_random_answers(session, count: int, rng: np.random.Generator) -> int:
    """Append ``count`` random conflict-free answers to a CrowdSession.

    Candidate ``(user, item)`` cells are drawn uniformly and filtered
    against the already-answered cells (a repeated cell with a different
    option would be a *conflicting* answer and raise), so the append
    demonstrates warm-started re-convergence on a valid growing crowd.
    """
    matrix = session.matrix
    num_users, num_items = matrix.num_users, matrix.num_items
    users, items, _ = matrix.triples
    taken = users.astype(np.int64) * num_items + items  # int64: m * n may pass 2**31
    fresh = np.array([], dtype=np.int64)
    for _ in range(16):
        candidates = rng.integers(
            0, num_users * num_items, size=2 * count + 16, dtype=np.int64
        )
        # Accumulate survivors across attempts: on dense crowds any single
        # draw may yield only a handful of free cells.
        fresh = np.union1d(fresh, np.setdiff1d(candidates, taken))
        if fresh.size >= count:
            break
    fresh = rng.permutation(fresh)[:count]
    if fresh.size == 0:
        return 0
    # Draw each option below its own item's option count — items may have
    # heterogeneous counts, and an out-of-range option would be rejected at
    # the next materialization.
    items = fresh % num_items
    options = rng.integers(0, np.asarray(matrix.num_options)[items])
    session.add_answers(fresh // num_items, items, options)
    return int(fresh.size)


def command_rank(args: argparse.Namespace) -> int:
    import time

    from repro.api import CrowdSession, method_fingerprint

    # Everything resolves through repro.api: the registry supplies the
    # method (with a did-you-mean hint on typos, and its one refusal of a
    # supervised baseline).  All validation runs before the input is
    # loaded, so a bad invocation fails fast.
    if _below_least(("--cache-size", args.cache_size, 1), ("--top", args.top, 0),
                    ("--append", args.append, 0)):
        return 2
    try:
        spec = REGISTRY.get_unsupervised(args.method)
    except (KeyError, ValueError) as error:
        print("error:", error.args[0], file=sys.stderr)
        return 2
    params = {}
    if args.random_state is not None:
        # Parse and target-check the flag whenever it is given: a typo'd
        # value or a method that takes no random_state must not be
        # silently dropped.
        if not spec.takes("random_state"):
            print(
                "error: method %r takes no random_state parameter; "
                "--random-state has no effect on it" % spec.name,
                file=sys.stderr,
            )
            return 2
        if args.random_state.lower() in ("none", "null"):
            params["random_state"] = None
        else:
            try:
                params["random_state"] = int(args.random_state)
            except ValueError:
                print(
                    "error: --random-state takes an integer seed or 'none', "
                    "got %r" % args.random_state,
                    file=sys.stderr,
                )
                return 2
    elif spec.takes("random_state"):
        params["random_state"] = args.seed
    if args.acceleration is not None:
        # Same contract as --random-state: an accelerator flag aimed at a
        # method without the parameter is a user error, not a no-op.
        if not spec.takes("acceleration"):
            print(
                "error: method %r takes no acceleration parameter; "
                "--acceleration has no effect on it" % spec.name,
                file=sys.stderr,
            )
            return 2
        params["acceleration"] = (
            None if args.acceleration == "none" else args.acceleration
        )
    if args.warm_start:
        # Fail fast, before the input loads, with the library's own
        # eligibility rules (one shared source of truth and error prose).
        try:
            method_fingerprint(args.method, params, warm_start=True)
        except ValueError as error:
            print("error:", error, file=sys.stderr)
            return 2
    store = None
    if args.store is not None:
        from repro.store import SnapshotStore

        store = SnapshotStore(args.store)
    cache = RankCache(maxsize=args.cache_size, store=store)

    start = time.perf_counter()
    try:
        response = ResponseMatrix.load(args.input)
    except (OSError, ValueError, InvalidResponseMatrixError) as error:
        # Missing, unreadable or malformed input: one line, no traceback.
        print("error: cannot load %s: %s" % (args.input, error),
              file=sys.stderr)
        return 2
    load_seconds = time.perf_counter() - start
    print(
        "loaded %s: %d users x %d items, %s answers (%.3f s)"
        % (
            args.input,
            response.num_users,
            response.num_items,
            format(response.num_answers, ","),
            load_seconds,
        )
    )
    print("method %s%s"
          % (spec.name, ", warm-started" if args.warm_start else ""))

    # Every call ranks through a CrowdSession serving the loaded matrix as
    # is: --append grows the crowd between calls and --warm-start resumes
    # each solve from the cached solver state instead of recomputing cold.
    session = CrowdSession.from_matrix(response, cache=cache)
    rng = np.random.default_rng(args.seed)

    ranking = None
    try:
        for call in range(max(args.repeat, 1)):
            if call and args.append:
                appended = _append_random_answers(session, args.append, rng)
                print("appended %d answers (crowd now %s answers)"
                      % (appended, format(session.num_answers, ",")))
            before = cache.stats()
            start = time.perf_counter()
            ranking = session.rank(args.method, warm_start=args.warm_start,
                                   **params)
            elapsed = time.perf_counter() - start
            after = cache.stats()
            if after["hits"] > before["hits"]:
                served = "cache hit"
            elif after["disk_hits"] > before["disk_hits"]:
                served = "snapshot hit"
            else:
                served = "computed"
            detail = ""
            if served == "computed":
                iterations = ranking.diagnostics.get("iterations")
                warm_mode = ranking.diagnostics.get("warm_start")
                if iterations is not None:
                    detail = ", %s iterations" % iterations
                if warm_mode is not None and args.warm_start:
                    detail += ", warm_start=%s" % warm_mode
            print("rank() call %d: %.4f s (%s%s)"
                  % (call + 1, elapsed, served, detail))
    except ValueError as error:
        # A clean error, not a traceback.
        print("error:", error, file=sys.stderr)
        return 2
    print("cache stats:", cache.stats())
    if store is not None:
        # Drain the write-behind queue so the next invocation (or a
        # `store ls`) sees everything this run computed.
        store.close()
        print("store stats:", {
            key: value for key, value in store.stats().items()
            if key in ("snapshots", "bytes", "writes", "hits", "misses")
        })

    top = ranking.top_users(args.top)
    rows = [
        (int(rank + 1), int(user), float(ranking.scores[user]))
        for rank, user in enumerate(top)
    ]
    print("top %d users by %s score:" % (len(rows), ranking.method))
    _print_table(("rank", "user", "score"), rows)
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """Host named crowds behind the ``repro.serve`` front end.

    All validation happens before the socket binds, so a bad invocation
    exits 2 with prose instead of a traceback; once bound, a single
    ``READY host=... port=...`` line goes to stdout (harnesses and CI parse
    it to learn the ephemeral port).
    """
    import asyncio

    from repro.serve import CrowdServer, ServeConfig

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            solver_threads=args.solver_threads,
            rate=args.rate,
            burst=args.burst,
            max_pending_answers=args.max_pending_answers,
            max_sessions=args.max_sessions,
            cache_size=args.cache_size,
            store_dir=args.store,
        )
    except ValueError as error:
        print("error:", error, file=sys.stderr)
        return 2

    async def _run() -> None:
        server = CrowdServer(config=config)
        await server.start()
        print("READY host=%s port=%d" % (server.host, server.port),
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


def _parse_scales(text: str) -> List[tuple]:
    scales = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        users_text, _, items_text = chunk.partition("x")
        if not items_text:
            raise ValueError(
                "scale %r is not of the form MxN (e.g. 240x60)" % chunk
            )
        scales.append((int(users_text), int(items_text)))
    if not scales:
        raise ValueError("--scales needs at least one MxN entry")
    return scales


def command_screen(args: argparse.Namespace) -> int:
    """Mass-screen registry methods across stress scenarios, resumably.

    Every cell of the ``scenario x scale x method`` grid checkpoints to
    its own artifact under ``--out`` the moment it finishes, so a killed
    sweep rerun with the same arguments resumes — recomputing only the
    missing cells and reproducing the finished ones byte-for-byte.  With
    ``--baseline`` the run is gated against committed per-cell accuracy
    floors (exit 1 on any breach); ``--update-screening`` refreezes the
    floors from this run instead.
    """
    from repro.scenarios import SCENARIOS
    from repro.screening import (
        GATE_METRIC,
        ScreeningPlan,
        check_baseline,
        load_baseline,
        run_screening,
        write_baseline,
    )

    def _split(text: str) -> tuple:
        return tuple(chunk.strip() for chunk in text.split(",") if chunk.strip())

    try:
        scenarios = _split(args.scenarios) or SCENARIOS.names()
        plan = ScreeningPlan(
            scenarios=scenarios,
            methods=_split(args.methods),
            scales=tuple(_parse_scales(args.scales)),
            trials=args.trials,
            seed=args.seed,
        )
    except (KeyError, ValueError) as error:
        # KeyError carries the registry's did-you-mean hint in its args.
        message = error.args[0] if error.args else error
        print("error:", message, file=sys.stderr)
        return 2
    if args.update_screening and not args.baseline:
        print("error: --update-screening needs --baseline PATH to write to",
              file=sys.stderr)
        return 2
    if args.floor_margin < 0:
        print("error: --floor-margin must be >= 0, got %g" % args.floor_margin,
              file=sys.stderr)
        return 2

    def _progress(cell_id: str, state: str) -> None:
        marker = "resumed " if state == "resumed" else "computed"
        print("[%s] %s" % (marker, cell_id), flush=True)

    result = run_screening(plan, args.out, progress=_progress)
    print("%d cells: %d computed, %d resumed -> %s"
          % (len(result.cells), len(result.computed), len(result.resumed),
             args.out))

    rows = []
    for cell_id in sorted(result.cells):
        payload = result.cells[cell_id]
        rows.append((
            payload["scenario"],
            "%dx%d" % (payload["num_users"], payload["num_items"]),
            payload["method"],
            payload["metrics"]["spearman"],
            payload["metrics"]["kendall"],
            payload["metrics"]["pairwise"],
            payload["metrics"]["top_quarter_precision"],
        ))
    _print_table(
        ("scenario", "scale", "method", "spearman", "kendall", "pairwise",
         "top25%"),
        rows,
    )

    if not args.baseline:
        return 0
    if args.update_screening:
        payload = write_baseline(result, plan, args.baseline,
                                 floor_margin=args.floor_margin)
        print("froze %d %s floors (margin %.3f) -> %s"
              % (len(payload["floors"]), payload["metric"],
                 args.floor_margin, args.baseline))
        return 0
    try:
        baseline = load_baseline(args.baseline)
        violations = check_baseline(result, baseline)
    except (OSError, ValueError) as error:
        print("error:", error, file=sys.stderr)
        return 2
    if violations:
        print("accuracy floor violations (%s):" % GATE_METRIC, file=sys.stderr)
        for violation in violations:
            print("  " + violation, file=sys.stderr)
        return 1
    shared = len(set(result.cells) & set(baseline["floors"]))
    print("accuracy floors hold: %d/%d gated cells at or above baseline"
          % (shared, shared))
    return 0


# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the experiments of the HITSnDIFFs paper.",
    )
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the registered datasets").set_defaults(
        func=command_list
    )

    fig4 = subparsers.add_parser("fig4", help="accuracy sweeps (Figures 4 and 9)")
    fig4.add_argument("--model", default="samejima", choices=["grm", "bock", "samejima"])
    fig4.add_argument(
        "--vary",
        default="num_items",
        choices=["num_items", "num_users", "num_options", "answer_probability", "c1p"],
    )
    fig4.add_argument("--users", type=int, default=100)
    fig4.add_argument("--items", type=int, default=100)
    fig4.add_argument("--options", type=int, default=3)
    fig4.add_argument("--trials", type=int, default=3)
    fig4.add_argument("--cheating", action="store_true", help="include cheating baselines")
    fig4.add_argument("--values", type=float, nargs="*", default=None)
    fig4.set_defaults(func=command_fig4)

    fig5 = subparsers.add_parser("fig5", help="scalability experiments (Figure 5)")
    fig5.add_argument("--dimension", default="users", choices=["users", "items"])
    fig5.add_argument("--fixed-size", type=int, default=100)
    fig5.add_argument("--max-size", type=int, default=2000)
    fig5.add_argument("--repeats", type=int, default=3)
    fig5.add_argument("--timeout", type=float, default=60.0)
    fig5.add_argument("--values", type=int, nargs="*", default=None)
    fig5.set_defaults(func=command_fig5)

    fig6 = subparsers.add_parser("fig6", help="stability experiments (Figure 6)")
    fig6.add_argument("--users", type=int, default=100)
    fig6.add_argument("--items", type=int, default=100)
    fig6.add_argument("--repeats", type=int, default=3)
    fig6.add_argument("--values", type=float, nargs="*", default=None)
    fig6.set_defaults(func=command_fig6)

    fig7 = subparsers.add_parser("fig7", help="real-dataset experiments (Figures 7 and 11)")
    fig7.set_defaults(func=command_fig7)

    fig12 = subparsers.add_parser("fig12", help="American Experience simulation (Figure 12)")
    fig12.add_argument("--students", type=int, default=100)
    fig12.add_argument("--runs", type=int, default=3)
    fig12.set_defaults(func=command_fig12)

    fig13 = subparsers.add_parser("fig13", help="half-moon simulation (Figure 13)")
    fig13.add_argument("--users", type=int, default=100)
    fig13.add_argument("--items", type=int, default=100)
    fig13.add_argument("--runs", type=int, default=3)
    fig13.set_defaults(func=command_fig13)

    rank = subparsers.add_parser(
        "rank", help="rank users of a saved matrix (fused kernels + rank cache)"
    )
    rank.add_argument("input", help="saved ResponseMatrix (.npz or .csv triples)")
    rank.add_argument(
        "--method",
        default="HnD",
        help="ranking method, resolved through the repro.api registry "
             "(unknown names exit 2 with a did-you-mean hint); one of: %s"
             % ", ".join(sorted(REGISTRY.names(supervised=False))),
    )
    rank.add_argument("--repeat", type=int, default=2,
                      help="rank() calls to issue (later calls hit the cache)")
    rank.add_argument("--warm-start", action="store_true",
                      help="serve through a CrowdSession with warm-started "
                           "solvers: after an append, the solve resumes from "
                           "the cached solver state instead of recomputing "
                           "cold (requires a warm-startable method and a "
                           "deterministic configuration; exits 2 otherwise)")
    rank.add_argument("--append", type=int, default=0, metavar="COUNT",
                      help="append COUNT (>= 0) random conflict-free answers "
                           "before each rank() call after the first — pair "
                           "with --warm-start to watch incremental "
                           "re-convergence")
    rank.add_argument("--random-state", default=None, metavar="SEED",
                      help="override the method's random_state: an integer "
                           "seed or 'none' (nondeterministic; incompatible "
                           "with --warm-start and bypasses the cache); "
                           "defaults to the global --seed")
    rank.add_argument("--acceleration", default=None,
                      choices=["momentum", "none"],
                      help="power-iteration acceleration for methods that "
                           "take it (HnD): 'momentum' cuts iterations ~30%% "
                           "and falls back to the plain solve if it blows "
                           "up; exits 2 for methods without the parameter")
    rank.add_argument("--top", type=int, default=10,
                      help="how many top-ranked users to print (>= 0)")
    rank.add_argument("--cache-size", type=int, default=16,
                      help="rank-cache capacity in LRU entries (>= 1)")
    rank.add_argument("--store", default=None, metavar="DIR",
                      help="durable snapshot store directory: computed "
                           "rankings persist there and later invocations on "
                           "unchanged data are served as ~ms snapshot hits "
                           "(bit-identical scores) instead of re-solving")
    rank.set_defaults(func=command_rank)

    serve = subparsers.add_parser(
        "serve",
        help="host named crowds over TCP (the repro.serve front end)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral port; the bound "
                            "port is printed on the READY line)")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="solves admitted at once; past it, rank requests "
                            "get a typed 'overloaded' rejection (never a "
                            "silent queue)")
    serve.add_argument("--solver-threads", type=int, default=4,
                       help="worker threads executing solves off the event "
                            "loop")
    serve.add_argument("--rate", type=float, default=0.0,
                       help="per-connection rate limit in requests/s "
                            "(0 disables; excess requests get a typed "
                            "'rate_limited' rejection with retry_after)")
    serve.add_argument("--burst", type=float, default=None,
                       help="token-bucket burst capacity (defaults to one "
                            "second of --rate)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="resident-crowd LRU bound (creating past it "
                            "evicts the least recently used crowd)")
    serve.add_argument("--max-pending-answers", type=int, default=1_000_000,
                       help="per-crowd bound on queued (acked, not yet ranked) answers")
    serve.add_argument("--cache-size", type=int, default=None,
                       help="per-crowd rank-cache capacity (LRU entries)")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="durable store directory: crowds and rankings "
                            "persist there, and a restarted server "
                            "re-registers its crowds and serves the first "
                            "rank warm (see the README's durable-state "
                            "walkthrough)")
    serve.set_defaults(func=command_serve)

    screen = subparsers.add_parser(
        "screen",
        help="mass-screen ranking methods across stress scenarios "
             "(resumable; checkpoints one artifact per cell)",
    )
    screen.add_argument("--out", default="benchmarks/screening", metavar="DIR",
                        help="output directory; per-cell artifacts land in "
                             "DIR/cells and a rerun with the same arguments "
                             "resumes from them")
    screen.add_argument("--scenarios", default="",
                        help="comma-separated scenario names (default: every "
                             "registered scenario; see repro.scenarios)")
    screen.add_argument("--methods",
                        default="MajorityVote,HnD,HITS,Invest,Dawid-Skene",
                        help="comma-separated ranker registry names "
                             "(supervised methods are rejected)")
    screen.add_argument("--scales", default="240x60",
                        help="comma-separated crowd sizes as MxN user/item "
                             "counts, e.g. 240x60,1200x150")
    screen.add_argument("--trials", type=int, default=1,
                        help="independently seeded crowds per cell "
                             "(metrics are averaged)")
    screen.add_argument("--baseline", default=None, metavar="PATH",
                        help="gate the run against this floors file "
                             "(exit 1 on any breach); cells absent from "
                             "the baseline are reported but not gated")
    screen.add_argument("--update-screening", action="store_true",
                        help="refreeze the --baseline floors from this "
                             "run instead of gating against them")
    screen.add_argument("--floor-margin", type=float, default=0.05,
                        help="slack subtracted from observed accuracy when "
                             "freezing floors with --update-screening")
    screen.set_defaults(func=command_screen)

    from repro.store.cli import register_store_parser

    register_store_parser(subparsers)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-experiments`` / ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
