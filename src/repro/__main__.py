"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``experiments [names...] [--jobs N] [--json PATH] [--baseline PATH] [--profile]``
    Run the paper's tables/figures (all by default) and print reports.
    ``--jobs`` fans experiments (and sweep points) over worker
    processes; ``--json`` writes the versioned artifact (the bytes
    ``sweep NAMES --json`` writes); ``--baseline``
    diffs against a previous artifact and exits 1 on regressions;
    ``--profile`` appends a kernel event profile (events per callback
    owner, forces ``--jobs 1``).  A failed shard prints ``error:`` and
    its diagnostic, and exits 1.
``list``
    List available experiments with one-line descriptions.
``oneway --nic KIND --size BYTES``
    Measure a single one-way packet transfer and print its breakdown.
``trace SPEC.json [--out FILE]``
    Run one scenario with the per-packet span tracer on and export a
    Chrome-trace/Perfetto JSON timeline (see ``docs/observability.md``).
``trace --cluster KIND --count N [--out FILE]``
    Without a spec file: generate a synthetic Facebook-cluster trace
    (CSV to stdout or FILE).
``run-scenario SPEC.json [SPEC.json ...] [--jobs N] [--json PATH] [--trace PATH]``
    Build and run declarative scenarios (see ``examples/*.json``): the
    whole cluster in one simulator, packets live-traversing the fabric,
    per-flow latency percentiles printed and optionally written as a
    versioned artifact.  ``--trace`` additionally writes the merged
    Chrome-trace timeline of every scenario.
``run-chaos SPEC.json [...] [--drop P] [--corrupt P] [--kill LINK@NS]
[--switch-mode MODE] [--timeout-ns T] [--backoff B] [--budget N]``
    The fault-injecting twin of ``run-scenario``: every spec runs under
    a seeded :class:`~repro.faults.FaultSpec` (assembled from the flags
    given, unset ones at their FaultSpec defaults, or the spec file's
    own ``faults`` section when no fault flag is given), with
    driver-level retransmission recovering losses.
``sweep TARGET [...] [--backend B] [--jobs N] [--run-dir DIR]
[--json PATH] [--base-seed N] [--allow-partial]``
    The job-oriented front door (:func:`repro.api.submit`): run
    experiment names and/or scenario spec files as a sharded sweep on
    a named backend — ``pool`` (inline at ``--jobs 1``, else a process
    pool) or ``workers`` (``--jobs`` detached worker processes over a
    shared, resumable run directory; point extra machines at the same
    directory on a shared filesystem to distribute).  ``--run-dir``
    checkpoints every shard and writes a provenance manifest;
    ``--json`` writes the deterministic sweep artifact (byte-identical
    across backends).
``resume RUNDIR [--backend B ...] [--json PATH] [--retry-failed]``
    Pick a killed or interrupted sweep back up: stale claims re-enter
    the queue, pending shards re-execute, and the artifact comes out
    byte-identical to an uninterrupted run.
``status RUNDIR``
    One line of shard counts for a run directory (live — works while
    workers are executing elsewhere).
``sweep-worker RUNDIR [--max-tasks N]``
    Drain a run directory's task queue in this process.  What the
    ``workers`` backend spawns; also the thing you start by hand on
    another machine to join a sweep.
``calibrate SPEC.json [--targets SEL ...] [--budget N] [--out DIR]
[--backend B] [--jobs N] [--run-dir DIR] [--base-seed N] [--trace PATH]``
    Closed-loop calibration (see ``docs/calibration.md``): fit the
    ``*Calibrated*`` constants named by the search-space file to the
    paper-target bands, trial by trial over the sweep runtime.
    ``--targets`` selects registry targets by name or figure prefix
    (default: the hand-calibration's ``fig4`` + ``fig11`` set);
    ``--out`` writes the versioned calibrated-params artifact, its
    sidecar manifest, and the full trial log into a fresh directory;
    ``--run-dir`` checkpoints each search round so a killed run, re-run
    with the same arguments, resumes; ``--trace`` exports the search
    as a Chrome-trace timeline.
``targets [--markdown] [--artifact PATH]``
    Print the paper-target registry with bands.  ``--markdown`` emits
    the registry as the GitHub table ``EXPERIMENTS.md`` embeds;
    ``--artifact`` fills its measured/verdict columns from an
    experiments artifact.

Every verb that runs a sweep — ``experiments``, ``run-scenario``,
``run-chaos``, ``sweep``, ``resume`` — submits one job and ends in the
same tail: the report or shard summary, ``Job.artifact()`` for
``--json``, and exit 1 on a failed shard.

This module deliberately imports only :mod:`repro.api` (plus, on
demand, the kernel profiler for ``experiments --profile`` and the
worker loop for ``sweep-worker``) — the CLI is the facade's first
consumer.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import api

def positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NetDIMM (MICRO 2019) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("experiments", help="run experiments")
    run.add_argument("names", nargs="*", help="experiment names (default: all)")
    run.add_argument(
        "--jobs",
        type=positive_int,
        default=1,
        metavar="N",
        help="worker processes (1 = run inline, the debuggable fallback)",
    )
    run.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write the versioned JSON artifact to PATH",
    )
    run.add_argument(
        "--baseline",
        metavar="PATH",
        help="diff this run against a previous artifact and flag regressions",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="profile kernel events per callback owner (forces --jobs 1)",
    )

    commands.add_parser("list", help="list available experiments")

    oneway = commands.add_parser("oneway", help="measure one packet transfer")
    oneway.add_argument("--nic", choices=api.NIC_KINDS, default="netdimm")
    oneway.add_argument(
        "--size", type=positive_int, default=256, metavar="BYTES"
    )

    trace = commands.add_parser(
        "trace",
        help="span-trace a scenario spec (or generate a synthetic trace)",
    )
    trace.add_argument(
        "spec",
        nargs="?",
        default=None,
        metavar="SPEC",
        help="scenario spec JSON file to span-trace "
        "(omit for synthetic-trace mode)",
    )
    trace.add_argument(
        "--cluster",
        choices=[cluster.value for cluster in api.ClusterKind],
        default="webserver",
    )
    trace.add_argument("--count", type=positive_int, default=1000)
    trace.add_argument("--seed", type=int, default=2019)
    trace.add_argument("--out", default="-", help="output file ('-' = stdout)")

    def add_scenario_arguments(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "specs", nargs="+", metavar="SPEC", help="scenario spec JSON files"
        )
        subparser.add_argument(
            "--jobs",
            type=positive_int,
            default=1,
            metavar="N",
            help="worker processes (1 = run inline)",
        )
        subparser.add_argument(
            "--json",
            dest="json_path",
            metavar="PATH",
            help="write the versioned scenario artifact to PATH",
        )
        subparser.add_argument(
            "--trace",
            dest="trace_path",
            metavar="PATH",
            help="span-trace every scenario and write the merged "
            "Chrome-trace JSON to PATH",
        )

    scenario = commands.add_parser(
        "run-scenario", help="run declarative scenario spec files"
    )
    add_scenario_arguments(scenario)

    chaos = commands.add_parser(
        "run-chaos", help="run scenario spec files under fault injection"
    )
    add_scenario_arguments(chaos)
    # Fault flags default to None ("not given"): an unset field takes
    # the FaultSpec/RecoverySpec default, and with no fault flag at all
    # each spec file's own ``faults`` section applies.
    chaos.add_argument(
        "--drop",
        type=float,
        metavar="P",
        help="per-link per-attempt drop probability",
    )
    chaos.add_argument(
        "--corrupt",
        type=float,
        metavar="P",
        help="per-link per-attempt bit-error probability",
    )
    chaos.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="LINK@NS[..NS]",
        help="kill a link at a time (repeatable); e.g. 'tx->rx@5000..9000'",
    )
    chaos.add_argument(
        "--switch-mode",
        choices=api.FAULT_SWITCH_MODES,
        help="what a full switch queue does: stall ingress or drop",
    )
    chaos.add_argument(
        "--timeout-ns",
        type=float,
        metavar="T",
        help="initial retransmission timeout",
    )
    chaos.add_argument(
        "--backoff",
        type=float,
        metavar="B",
        help="exponential backoff factor between timeouts",
    )
    chaos.add_argument(
        "--budget",
        type=int,
        metavar="N",
        help="retransmit budget before a packet is declared lost",
    )

    sweep = commands.add_parser(
        "sweep",
        help="run experiments/scenarios as a sharded sweep on a backend",
    )
    sweep.add_argument(
        "targets",
        nargs="+",
        metavar="TARGET",
        help="experiment names and/or scenario spec JSON files",
    )
    sweep.add_argument(
        "--backend",
        choices=sorted(api.BACKENDS),
        default="pool",
        help="execution backend (workers = resumable/distributed)",
    )
    sweep.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="pool processes (1 = run inline) or worker processes",
    )
    sweep.add_argument(
        "--run-dir", metavar="DIR",
        help="checkpoint shards here (required for --backend workers)",
    )
    sweep.add_argument(
        "--base-seed", type=int, default=0, metavar="N",
        help="base seed for per-shard seed derivation",
    )
    sweep.add_argument(
        "--json", dest="json_path", metavar="PATH",
        help="write the sweep artifact to PATH",
    )
    sweep.add_argument(
        "--allow-partial", action="store_true",
        help="assemble surviving shards even if some failed",
    )

    resume = commands.add_parser(
        "resume", help="resume an interrupted sweep from its run directory"
    )
    resume.add_argument("run_dir", metavar="RUNDIR")
    resume.add_argument(
        "--backend", choices=sorted(api.BACKENDS), default="pool"
    )
    resume.add_argument("--jobs", type=positive_int, default=1, metavar="N")
    resume.add_argument(
        "--retry-failed", action="store_true",
        help="re-enqueue failed shards as well",
    )
    resume.add_argument("--json", dest="json_path", metavar="PATH")
    resume.add_argument("--allow-partial", action="store_true")

    status = commands.add_parser(
        "status", help="show shard counts for a sweep run directory"
    )
    status.add_argument("run_dir", metavar="RUNDIR")

    worker = commands.add_parser(
        "sweep-worker", help="drain one sweep run directory's task queue"
    )
    worker.add_argument("run_dir", metavar="RUNDIR")
    worker.add_argument(
        "--max-tasks", type=positive_int, default=None, metavar="N"
    )

    calibrate = commands.add_parser(
        "calibrate",
        help="fit the *Calibrated* constants to paper-target bands",
    )
    calibrate.add_argument(
        "space", metavar="SPEC",
        help="search-space JSON file (see docs/calibration.md)",
    )
    calibrate.add_argument(
        "--targets", nargs="+", default=None, metavar="SEL",
        help="registry target names or figure prefixes "
        "(default: fig4 fig11)",
    )
    calibrate.add_argument(
        "--budget", type=positive_int, default=16, metavar="N",
        help="maximum number of evaluated trials",
    )
    calibrate.add_argument(
        "--out", dest="out_dir", metavar="DIR",
        help="write calibrated-params artifact + sidecar manifest + "
        "trial log here (refuses to overwrite)",
    )
    calibrate.add_argument(
        "--backend", choices=sorted(api.BACKENDS), default="pool",
        help="sweep backend for the trial shards",
    )
    calibrate.add_argument(
        "--jobs", type=positive_int, default=1, metavar="N",
        help="pool processes (1 = run inline) or worker processes",
    )
    calibrate.add_argument(
        "--run-dir", metavar="DIR",
        help="checkpoint search rounds here (re-run the same command "
        "to resume a killed calibration)",
    )
    calibrate.add_argument(
        "--base-seed", type=int, default=0, metavar="N",
        help="base seed for per-trial seed derivation",
    )
    calibrate.add_argument(
        "--trace", dest="trace_path", metavar="PATH",
        help="write the search as a Chrome-trace timeline",
    )

    targets = commands.add_parser(
        "targets", help="print the paper-target registry"
    )
    targets.add_argument(
        "--markdown", action="store_true",
        help="emit the registry as the GitHub table EXPERIMENTS.md embeds",
    )
    targets.add_argument(
        "--artifact", metavar="PATH",
        help="fill the measured/verdict columns from an experiments "
        "artifact (implies --markdown)",
    )
    return parser


def _cmd_list() -> str:
    width = max(len(name) for name in api.EXPERIMENTS)
    return "\n".join(
        f"{name:<{width}}  {module.SUMMARY}"
        for name, module in api.EXPERIMENTS.items()
    )


def _cmd_oneway(nic: str, size: int) -> str:
    result = api.measure_one_way(nic, size)
    lines = [f"{nic} one-way latency for a {size} B packet: {result.total_us:.2f} us"]
    for segment, ticks in result.segments.items():
        lines.append(f"  {segment:<14}{ticks / 1000:>8.0f} ns")
    return "\n".join(lines)


def _cmd_trace(cluster: str, count: int, seed: int, out: str) -> str:
    generator = api.TraceGenerator(api.ClusterKind(cluster), seed=seed)
    packets = generator.generate(count)
    if out == "-":
        lines = ["arrival_ps,size_bytes,locality"]
        lines.extend(
            f"{p.arrival},{p.size_bytes},{p.locality.value}" for p in packets
        )
        return "\n".join(lines)
    written = api.save_trace(packets, out)
    return f"wrote {written} packets to {out}"


def _cmd_trace_spec(spec_path: str, out: str) -> str:
    """Span-trace one scenario spec and export the Chrome-trace JSON."""
    spec = api.load_spec(spec_path)
    result, trace_document = api.trace_scenario(spec)
    rendered = api.dump_trace(trace_document)
    if out == "-":
        return rendered.rstrip("\n")
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(rendered)
    return api.format_report(result) + f"\nwrote trace: {out}"


def _describe_job(job) -> List[str]:
    """Shard-count summary plus structured diagnostics for failures."""
    status = job.status()
    line = (
        f"sweep {status['state']}: {status['done']}/{status['total']} "
        f"shard(s) done"
    )
    if status["failed"]:
        line += f", {status['failed']} failed"
    lines = [line]
    lines.extend(f"  {failure.summary()}" for failure in job.failures())
    return lines


def _finish_job(
    job, json_path: str, allow_partial: bool = False, report: str = ""
) -> tuple:
    """Common tail of every sweep verb: report, emit, exit code.

    ``report`` — the text ``experiments``, ``run-scenario`` and
    ``run-chaos`` print — replaces the shard-count summary that
    ``sweep`` and ``resume`` print.
    """
    lines = [report] if report else _describe_job(job)
    if json_path:
        job.artifact(json_path, allow_partial=allow_partial)
        lines.append(f"wrote artifact: {json_path}")
        if job.config.run_dir:
            lines.append(
                f"wrote manifest: {job.config.run_dir}/manifest.json"
            )
        else:
            lines.append(f"wrote manifest: {json_path}.manifest.json")
    return "\n".join(lines), 1 if job.failures() else 0


def _cmd_experiments(args: argparse.Namespace) -> tuple:
    """``experiments``: the named experiments as one job, reported."""
    jobs = 1 if args.profile else args.jobs
    job = api.submit_experiments(
        args.names or None, config=api.SweepConfig(jobs=jobs)
    )
    profile = _profile_run(job) if args.profile else ""
    output, exit_code = _finish_job(
        job, args.json_path or "", report=api.format_report(job.run()) + profile
    )
    if args.baseline:
        diff = api.diff_artifacts(job.result(), api.load_artifact(args.baseline))
        output += "\n" + diff.format()
        if diff.has_regressions:
            exit_code = 1
    return output, exit_code


def _profile_run(job) -> str:
    """Run ``job`` with a kernel trace hook that counts events per
    callback owner; returns the profile section ``--profile`` appends to
    the report.

    The hook reaches simulators through the process-wide trace default,
    so the job must run inline: worker processes would drop the counts.
    """
    from repro.analysis.statsdump import format_profile
    from repro.sim import engine

    counts: dict = {}

    def count(_when: int, _seq: int, owner: str) -> None:
        counts[owner] = counts.get(owner, 0) + 1

    engine.set_trace_default(count)
    try:
        job.run()
    finally:
        engine.set_trace_default(None)
    return (
        f"\n{'=' * 72}\n"
        "kernel event profile (events per callback owner)\n"
        f"{format_profile(counts, top=30)}\n"
    )


def _cmd_scenarios(args: argparse.Namespace) -> tuple:
    """``run-scenario`` / ``run-chaos``: the specs as one job, reported."""
    chaos = args.command == "run-chaos"
    job = api.submit_scenarios(
        args.specs,
        config=api.SweepConfig(jobs=args.jobs),
        chaos=chaos,
        faults=_chaos_overlay(args) if chaos else None,
        trace=bool(args.trace_path),
    ).run()
    output, exit_code = _finish_job(
        job, args.json_path or "", report=api.format_report(job)
    )
    if args.trace_path:
        with open(args.trace_path, "w", encoding="utf-8") as handle:
            handle.write(api.dump_trace(api.job_trace(job)))
        output += f"\nwrote trace: {args.trace_path}"
    return output, exit_code


def _cmd_status(run_dir: str) -> str:
    state = api.RunState.load(run_dir)
    counts = state.counts()
    extra = ""
    manifest = state.read_manifest()
    if manifest is not None:
        extra = f"  [manifest: {manifest['run']['status']}]"
    return (
        f"{run_dir}: {counts['done']}/{counts['total']} done, "
        f"{counts['failed']} failed, {counts['claimed']} claimed, "
        f"{counts['queued']} queued{extra}"
    )


def _cmd_targets(markdown: bool = False, artifact: str = "") -> str:
    if artifact:
        markdown = True
    if markdown:
        measured = None
        if artifact:
            document = api.load_artifact(artifact)
            measured = {}
            for entry in document.get("experiments", {}).values():
                measured.update(entry.get("metrics", {}))
        return api.registry_markdown(measured=measured).rstrip("\n")
    lines = [f"{'target':<40}{'paper':>9}{'band':>18}"]
    for target in api.PAPER_TARGETS.values():
        band = f"[{target.low:g}, {target.high:g}]"
        lines.append(f"{target.name:<40}{target.paper_value:>9g}{band:>18}")
    return "\n".join(lines)


def _cmd_calibrate(args: argparse.Namespace) -> str:
    report = api.calibrate(
        args.space,
        targets=args.targets,
        budget=args.budget,
        backend=args.backend,
        jobs=args.jobs,
        run_dir=args.run_dir,
        base_seed=args.base_seed,
        out_dir=args.out_dir,
    )
    failed = len(report.failures())
    lines = [
        f"calibration: {len(report.trials)} trial(s) over "
        f"{report.rounds} round(s), {len(report.targets)} target(s)"
        + (f", {failed} failed trial(s)" if failed else "")
    ]
    baseline = report.baseline
    if baseline is not None and baseline.ok:
        lines.append(
            f"  defaults: loss {baseline.loss:.4f}, "
            f"{baseline.targets_passed}/{baseline.targets_total} "
            f"target(s) in band"
        )
    best = report.best
    if best is None:
        lines.append("  no successful trial; see the failure diagnostics")
        return "\n".join(lines)
    lines.append(
        f"  best:     loss {best.loss:.4f}, "
        f"{best.targets_passed}/{best.targets_total} target(s) in band"
    )
    for axis in report.space.axes:
        value = best.overrides.get(axis.param, axis.default_ticks)
        marker = "" if value == axis.default_ticks else "  (moved)"
        lines.append(
            f"    {axis.param:<32}{value:>9} ticks "
            f"(default {axis.default_ticks}){marker}"
        )
    if args.out_dir:
        lines.append(f"wrote artifact: {args.out_dir}/{api.ARTIFACT_NAME}")
        lines.append(
            f"wrote manifest: {args.out_dir}/{api.ARTIFACT_NAME}.manifest.json"
        )
    if args.trace_path:
        document = api.calibration_trace(report.to_dict())
        with open(args.trace_path, "w", encoding="utf-8") as handle:
            handle.write(api.dump_trace(document))
        lines.append(f"wrote trace: {args.trace_path}")
    return "\n".join(lines)


_JOB_VERBS = ("experiments", "run-scenario", "run-chaos", "sweep", "resume")


def _cmd_job(args: argparse.Namespace) -> tuple:
    """The verbs that run a sweep job; returns (output, exit code)."""
    if args.command == "experiments":
        return _cmd_experiments(args)
    if args.command in ("run-scenario", "run-chaos"):
        return _cmd_scenarios(args)
    if args.command == "sweep":
        job = api.submit(
            args.targets,
            backend=args.backend,
            jobs=args.jobs,
            run_dir=args.run_dir,
            base_seed=args.base_seed,
        ).run()
    else:  # resume
        job = api.resume(
            args.run_dir,
            config=api.SweepConfig(
                backend=args.backend, jobs=args.jobs, run_dir=args.run_dir
            ),
            retry_failed=args.retry_failed,
        )
    return _finish_job(job, args.json_path or "", args.allow_partial)


_FAULT_FLAGS = ("drop", "corrupt", "switch_mode", "timeout_ns", "backoff", "budget")


def _chaos_overlay(args: argparse.Namespace):
    """The FaultSpec overlay from the chaos flags, or None.

    None means "no fault flag given": each spec file's own ``faults``
    section applies (or a default FaultSpec when it has none), so
    ``run-chaos spec.json`` without flags is still a chaos run.  Any
    flag given — even at its default value — replaces the spec's
    section, and the flags left unset take the FaultSpec defaults.
    """
    if not args.kill and all(getattr(args, flag) is None for flag in _FAULT_FLAGS):
        return None
    return api.build_fault_overlay(
        drop=args.drop,
        corrupt=args.corrupt,
        switch_mode=args.switch_mode,
        kills=[api.parse_kill(text) for text in args.kill],
        timeout_ns=args.timeout_ns,
        backoff=args.backoff,
        budget=args.budget,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    exit_code = 0
    if args.command in _JOB_VERBS:
        try:
            output, exit_code = _cmd_job(args)
        except api.JobError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except (OSError, ValueError, RuntimeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.command == "list":
        output = _cmd_list()
    elif args.command == "oneway":
        output = _cmd_oneway(args.nic, args.size)
    elif args.command == "trace":
        if args.spec is not None:
            try:
                output = _cmd_trace_spec(args.spec, args.out)
            except (OSError, ValueError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        else:
            output = _cmd_trace(args.cluster, args.count, args.seed, args.out)
    elif args.command == "status":
        try:
            output = _cmd_status(args.run_dir)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.command == "sweep-worker":
        from repro.runtime import worker_identity
        from repro.runtime.worker import work

        try:
            executed = work(args.run_dir, max_tasks=args.max_tasks)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        output = f"{worker_identity()}: executed {executed} shard(s)"
    elif args.command == "calibrate":
        try:
            output = _cmd_calibrate(args)
        except FileExistsError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        except (OSError, ValueError, RuntimeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:  # targets
        try:
            output = _cmd_targets(args.markdown, args.artifact or "")
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    try:
        print(output)
    except BrokenPipeError:  # e.g. `repro targets | head`
        pass
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
