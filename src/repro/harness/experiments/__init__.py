"""One runner module per paper table/figure (see DESIGN.md §4).

Each module exposes ``run(fast: bool = False, seeds: tuple[int, ...] = ...)``
returning an :class:`~repro.harness.report.ExperimentReport`.  The default
seeds are the ones the committed ``benchmarks/results`` files used, and the
report records the paper's shape claims (``report.claim``), evaluated on the
run's own numbers; ``python -m repro run`` prints them and, at full scale,
exits 1 on a failed one.
"""

from . import (
    ablation_bandwidth,
    ablation_combination,
    ablation_momentum,
    ablation_ratio,
    ablation_samomentum,
    ablation_secondary,
    ablation_staleness,
    ablation_sync_async,
    fig2_cifar_curves,
    fig3_imagenet_curves,
    fig4_imagenet16_curves,
    fig5_low_bandwidth,
    fig6_speedup,
    memory_usage,
    table2_accuracy,
    table3_scaling,
    table4_imagenet_scaling,
    table5_techniques,
)

__all__ = [
    "table2_accuracy",
    "table3_scaling",
    "table4_imagenet_scaling",
    "table5_techniques",
    "fig2_cifar_curves",
    "fig3_imagenet_curves",
    "fig4_imagenet16_curves",
    "fig5_low_bandwidth",
    "fig6_speedup",
    "memory_usage",
    "ablation_bandwidth",
    "ablation_combination",
    "ablation_momentum",
    "ablation_ratio",
    "ablation_samomentum",
    "ablation_secondary",
    "ablation_staleness",
    "ablation_sync_async",
]
