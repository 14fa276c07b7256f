"""CLI — the reference's Program.cs option surface, Ray-Data-shaped.

The reference's UX is ``codetoneo4j --input <sln> --uri bolt://…``
(``Program.cs:44-175``, ``ProgramOptions/OptionsBinder.cs``). Here the
input is a Parquet corpus and the Neo4j instance is replaced by sorted
triple tables on disk, so connection options map to ``--output``:

    python -m codetoneo4j_ray build  --input corpus.parquet --output out/
    python -m codetoneo4j_ray purge  --output out/
    python -m codetoneo4j_ray incremental --input v2.parquet \
        --prior out_v1/ --output out_v2/

Option parity:
  --input/-s            corpus parquet (InputPathResolver analog)
  --output/-o           output prefix (replaces --uri/--user/--password/
                        --database: a batch run's "database" is a
                        directory of parquet tables)
  --no-key              null repoKey: keys become ":{display}", no
                        Project edges (OptionsBinder.cs:89-99)
  --min-accessibility   accessibility gate (AccessibilityFilter.cs)
  --batch-size          stage-1 extraction batch size in rows; default
                        one batch per corpus block (Program.cs:71-73
                        flush batching analog)
  --commits             commits side table → commit subgraph and the
                        File nodes' commits/tags lists (GitService /
                        GitLogParser analog)
  --packages            package-metadata side table (nuspec analog)
  --prior               incremental: the prior run's output, rebuilt
                        against (the --diff-base analog)
  --no-resume           build: rerun stage 1 even when the output's
                        records checkpoint matches the input
  --show-supported-files  handler registry listing
  --purge-data          via the ``purge`` subcommand

Every build takes one path on any cluster: stages 1 and 2 hold their
indices in repo-keyed bucket stores that the driver never fetches, so
no option tunes them (``pipelines.build_graph``).
"""

from __future__ import annotations

import argparse
import json
import sys

from codetoneo4j_ray import __version__


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="codetoneo4j_ray")
    sub = p.add_subparsers(dest="command", required=False)

    def common(sp):
        sp.add_argument("--input", "-s", "--sln", dest="input",
                        help="corpus parquet path")
        sp.add_argument("--output", "-o", required=True)
        sp.add_argument("--no-key", action="store_true", dest="no_key")
        sp.add_argument("--min-accessibility", default="Private",
                        choices=["Private", "Protected", "Internal",
                                 "ProtectedOrInternal", "Public"])
        sp.add_argument("--batch-size", type=int, default=None)
        sp.add_argument("--commits", help="commits side-table parquet")
        sp.add_argument("--packages", help="package-metadata parquet")
        sp.add_argument("--no-resume", action="store_true")

    b = sub.add_parser("build", help="full index run (SURVEY §3.1)")
    common(b)
    inc = sub.add_parser("incremental",
                         help="rebuild against a prior run (--diff-base analog)")
    common(inc)
    inc.add_argument("--prior", required=True,
                     help="output dir of the prior run")
    pg = sub.add_parser("purge", help="delete an output prefix (PurgeData analog)")
    pg.add_argument("--output", "-o", required=True)
    pg.add_argument("--yes", action="store_true",
                    help="skip confirmation (PurgeConfirmationHandler)")
    p.add_argument("--show-supported-files", action="store_true")
    p.add_argument("--version", action="store_true")
    return p


def _show_supported_files() -> None:
    from codetoneo4j_ray.config import HANDLERS

    for h in HANDLERS:
        exts = ", ".join(h.extensions)
        print(f"{h.name:14s} {exts:28s} {h.language}/{h.technology}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.version:
        print(f"codetoneo4j_ray {__version__}")
        return 0
    if args.show_supported_files:
        _show_supported_files()
        return 0
    if args.command is None:
        _build_parser().print_help()
        return 2

    if args.command == "purge":
        import shutil

        if not args.yes:
            resp = input(f"Delete everything under {args.output}? [y/N] ")
            if resp.strip().lower() != "y":
                print("aborted")
                return 1
        shutil.rmtree(args.output, ignore_errors=True)
        print(f"purged {args.output}")
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    try:
        from codetoneo4j_ray.pipelines.commits import write_commit_graph

        if args.command == "build":
            from codetoneo4j_ray.pipelines.build_graph import build_graph

            metrics = build_graph(
                args.input, args.output,
                min_accessibility=args.min_accessibility,
                resume=not args.no_resume,
                packages_path=args.packages, no_key=args.no_key,
                batch_size=args.batch_size,
            )
            if args.commits:
                metrics.update(write_commit_graph(args.commits, args.output))
            print(json.dumps(metrics))
        elif args.command == "incremental":
            from codetoneo4j_ray.pipelines.incremental import (
                build_graph_incremental,
            )

            metrics = build_graph_incremental(
                args.input, args.prior, args.output,
                min_accessibility=args.min_accessibility,
                packages_path=args.packages, no_key=args.no_key,
                batch_size=args.batch_size,
            )
            if args.commits:
                metrics.update(write_commit_graph(args.commits, args.output))
            print(json.dumps(metrics))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
