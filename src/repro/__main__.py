"""Command-line interface: regenerate any paper table/figure and check
the paper's claims on it.

Usage::

    python -m repro list                       # show available experiments
    python -m repro run table2 [--fast]        # regenerate Table 2
    python -m repro run fig6 --out results/    # also write fig6_speedup.md/.txt/_speedup.svg
    python -m repro run all --out benchmarks/results   # the committed result set
    python -m repro run all --fast             # everything (smoke scale)

Each experiment prints its report, then one ``PASS``/``FAIL`` line per
claim of the paper it checks.  Claims are evaluated at every scale, but
only a full-scale run exits 1 on a ``FAIL``: ``--fast`` runs too little
training for the paper's shapes to hold.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
import time

from .harness import experiments as E

EXPERIMENTS = {
    "table2": (E.table2_accuracy, "Table 2 — accuracy, 5 methods × 2 datasets"),
    "table3": (E.table3_scaling, "Table 3 — CIFAR-10 scaling 1→32 workers"),
    "table4": (E.table4_imagenet_scaling, "Table 4 — ImageNet 4/16 workers"),
    "table5": (E.table5_techniques, "Table 5 — techniques matrix"),
    "fig2": (E.fig2_cifar_curves, "Figure 2 — CIFAR-10 learning curves"),
    "fig3": (E.fig3_imagenet_curves, "Figure 3 — ImageNet learning curves"),
    "fig4": (E.fig4_imagenet16_curves, "Figure 4 — ImageNet 16-worker curves"),
    "fig5": (E.fig5_low_bandwidth, "Figure 5 — loss vs wall-clock at 1 Gbps"),
    "fig6": (E.fig6_speedup, "Figure 6 — speedup vs workers"),
    "memory": (E.memory_usage, "§5.6.2 — memory accounting"),
    "ablation-momentum": (E.ablation_momentum, "§5.4 — momentum sweep"),
    "ablation-secondary": (E.ablation_secondary, "secondary compression on/off"),
    "ablation-ratio": (E.ablation_ratio, "sparsity ratio sweep"),
    "ablation-samomentum": (E.ablation_samomentum, "§5.7 — technique decomposition"),
    "ablation-combination": (E.ablation_combination, "§6 — DGS + other compressors"),
    "ablation-sync-async": (E.ablation_sync_async, "§1/§6 — SSGD barrier vs async"),
    "ablation-staleness": (E.ablation_staleness, "gap-aware damping (paper ref. [4])"),
    "ablation-bandwidth": (E.ablation_bandwidth, "bandwidth crossover of the DGS advantage"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    run_p.add_argument("--fast", action="store_true", help="quarter-scale smoke run")
    run_p.add_argument(
        "--out",
        metavar="DIR",
        help="also write each experiment's <module>.md, <module>.txt and "
        "<module>_<figure>.svg files into DIR",
    )
    run_p.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the numeric sanitizer: fail fast on NaN/Inf or dtype "
        "drift in autograd ops, optimizer steps and compression codecs",
    )
    run_p.add_argument(
        "--trace",
        metavar="PATH",
        help="trace the run with repro.obs (every exchange layer's spans): "
        "write Chrome trace JSON, or raw records if PATH ends in .jsonl, "
        "and print the per-phase summary to stderr",
    )
    run_p.add_argument(
        "--backend",
        help="execution backend for the distributed runs (process | socket "
        "| simulated | sync); default: the simulated virtual "
        "cluster.  Wall-clock backends ignore the experiments' bandwidth "
        "settings",
    )
    run_p.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="write a server checkpoint every N applied updates (process "
        "and socket backends; the others refuse it); requires "
        "--checkpoint",
    )
    run_p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="server checkpoint file (repro.ps.checkpoint flat-buffer "
        "format) written by --checkpoint-every",
    )
    run_p.add_argument(
        "--restore",
        metavar="PATH",
        help="restore server state from this checkpoint before training and "
        "fast-forward each worker's data stream by its recorded update count "
        "(the same backends as --checkpoint-every)",
    )
    run_p.add_argument(
        "--run-dir",
        metavar="DIR",
        help="write a run manifest under DIR/<run_id>/ (manifest.json + "
        "metrics.jsonl, plus trace.json when --trace is active); inspect "
        "with 'python -m repro.obs report|compare|check'",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name:22s} {desc}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.sanitize:
        from .analysis.sanitize import sanitize
        from .autograd import DEFAULT_DTYPE
    tracer = None
    obs_scope = contextlib.ExitStack()
    if getattr(args, "backend", None):
        from .exec import use_backend

        try:
            obs_scope.enter_context(use_backend(args.backend))
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.checkpoint_every is not None and not args.checkpoint:
        print("error: --checkpoint-every requires --checkpoint", file=sys.stderr)
        return 2
    if args.checkpoint_every is not None or args.restore:
        from .exec import use_config_overrides

        overrides: dict[str, object] = {}
        if args.checkpoint_every is not None:
            overrides["checkpoint_every"] = args.checkpoint_every
            overrides["checkpoint_path"] = args.checkpoint
        if args.restore:
            overrides["restore_from"] = args.restore
        obs_scope.enter_context(use_config_overrides(**overrides))
    if args.trace:
        from .obs import Tracer, use_tracer

        tracer = Tracer(meta={"experiments": " ".join(names), "fast": bool(args.fast)})
        obs_scope.enter_context(use_tracer(tracer))
    collected = []
    if args.run_dir:
        from .exec import collect_results

        collected = obs_scope.enter_context(collect_results())
    from .exec.common import UnsupportedSetting

    reports = []
    wall_t0 = time.perf_counter()
    with obs_scope:
        for name in names:
            module, desc = EXPERIMENTS[name]
            print(f"== {desc} ==", file=sys.stderr)
            t0 = time.perf_counter()
            # Pinned, not inferred: models, datasets, arenas and the wire are
            # all float32, so the first float64 array is the op that widened.
            guard = (
                sanitize(expected_dtype=DEFAULT_DTYPE)
                if args.sanitize
                else contextlib.nullcontext()
            )
            try:
                with guard:
                    report = module.run(fast=args.fast)
            except UnsupportedSetting as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            elapsed = time.perf_counter() - t0
            print(report.render())
            for text, holds in report.claims:
                print(f"{'PASS' if holds else 'FAIL'}  {name}: {text}")
            print(f"[{name}: {elapsed:.1f}s]\n", file=sys.stderr)
            if args.out:
                _write_report(args.out, module, report)
            reports.append(report)
    wall_elapsed = time.perf_counter() - wall_t0

    if tracer is not None:
        from .obs import render_summary, write_chrome_trace

        records = [{"type": "meta", **tracer.meta}, *tracer.records()]
        if str(args.trace).endswith(".jsonl"):
            tracer.dump_jsonl(args.trace)
        else:
            write_chrome_trace(args.trace, records)
        print(render_summary(records), file=sys.stderr)
        print(f"wrote trace to {args.trace}", file=sys.stderr)

    if args.run_dir:
        from .obs import write_run_dir

        if not collected:
            print("no distributed runs collected; skipping --run-dir", file=sys.stderr)
        else:
            # The manifest's headline result is the *last* distributed run
            # (experiments sweep many configs; the last is the full-scale
            # one); every collected run is summarised in run_configs.
            last_config, last_result = collected[-1]
            run_dir = write_run_dir(
                args.run_dir,
                last_result,
                config=last_config.describe(),
                records=tracer.records() if tracer is not None else None,
                extra_meta={
                    "experiments": names,
                    "fast": bool(args.fast),
                    "cli_wall_s": wall_elapsed,
                    "num_runs": len(collected),
                    "run_configs": [cfg.describe() for cfg, _ in collected],
                },
            )
            print(
                f"wrote run manifest to {run_dir} ({len(collected)} distributed runs)",
                file=sys.stderr,
            )

    if args.out:
        print(f"wrote {len(reports)} report(s) to {args.out}", file=sys.stderr)
    failed = sum(not holds for report in reports for _, holds in report.claims)
    if failed:
        scale = "smoke scale, not gating" if args.fast else "full scale"
        print(f"{failed} claim(s) FAIL ({scale})", file=sys.stderr)
    return 1 if failed and not args.fast else 0


def _write_report(out_dir: str, module, report) -> None:
    """``<module>.md``, ``<module>.txt`` and one SVG per figure, in ``out_dir``."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = module.__name__.rsplit(".", 1)[1]
    (out / f"{stem}.md").write_text(report.markdown() + "\n")
    (out / f"{stem}.txt").write_text(report.render() + "\n")
    for figure, svg in report.svgs.items():
        (out / f"{stem}_{figure}.svg").write_text(svg)


if __name__ == "__main__":
    raise SystemExit(main())
