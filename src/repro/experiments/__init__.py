"""Per-figure experiment drivers: one module per paper figure.

Each driver regenerates the rows/series of its figure as a
:class:`~repro.experiments.common.FigureResult`, and its module also
holds the study's claims function: the paper's qualitative statements
about that figure, each checked on the result as a
:class:`~repro.experiments.common.Claim`.  ``repro run`` prints the
tables with a verdict per claim; the tier-1 suite
(``tests/test_paper_claims.py``) requires every claim to hold at test
scale.
"""

from typing import Callable, List, NamedTuple, Optional

from . import (
    ablations,
    attribution_study,
    fig01_locality,
    fig03_pollution,
    fig04_instrumentation,
    fig06_summary,
    fig07_traffic_miss,
    fig08_line_size,
    fig09_size_assoc,
    fig10_latency,
    fig11_blocking,
    fig12_prefetch,
    headroom_study,
    hierarchy_study,
    policy_study,
    related_work,
    transforms_study,
)
from .common import Claim, FigureResult


class Study(NamedTuple):
    """A study's driver, its claims function (None where the paper states
    nothing; claims never run inside a driver, callers evaluate them on
    its result) and whether it reproduces a paper figure."""

    driver: Callable[..., FigureResult]
    claims: Optional[Callable[[FigureResult, str], List[Claim]]]
    figure: bool = False


#: Every study by id: the paper's figures in paper order, then the
#: extension studies.
STUDIES = {
    "fig1a": Study(fig01_locality.reuse_distances,
                   fig01_locality.reuse_distances_claims, figure=True),
    "fig1b": Study(fig01_locality.vector_lengths,
                   fig01_locality.vector_lengths_claims, figure=True),
    "fig3a": Study(fig03_pollution.bypass_study,
                   fig03_pollution.bypass_study_claims, figure=True),
    "fig3b": Study(fig03_pollution.victim_study,
                   fig03_pollution.victim_study_claims, figure=True),
    "fig4a": Study(fig04_instrumentation.tag_fractions,
                   fig04_instrumentation.tag_fractions_claims, figure=True),
    "fig4b": Study(fig04_instrumentation.time_distribution,
                   fig04_instrumentation.time_distribution_claims, figure=True),
    "fig6a": Study(fig06_summary.amat_breakdown,
                   fig06_summary.amat_breakdown_claims, figure=True),
    "fig6b": Study(fig06_summary.hit_repartition,
                   fig06_summary.hit_repartition_claims, figure=True),
    "fig7a": Study(fig07_traffic_miss.traffic,
                   fig07_traffic_miss.traffic_claims, figure=True),
    "fig7b": Study(fig07_traffic_miss.miss_ratios,
                   fig07_traffic_miss.miss_ratios_claims, figure=True),
    "fig8a": Study(fig08_line_size.virtual_sweep,
                   fig08_line_size.virtual_sweep_claims, figure=True),
    "fig8b": Study(fig08_line_size.physical_sweep,
                   fig08_line_size.physical_sweep_claims, figure=True),
    "fig9a": Study(fig09_size_assoc.cache_size_study,
                   fig09_size_assoc.cache_size_study_claims, figure=True),
    "fig9b": Study(fig09_size_assoc.associativity_study,
                   fig09_size_assoc.associativity_study_claims, figure=True),
    "fig10a": Study(fig10_latency.kernel_study,
                    fig10_latency.kernel_study_claims, figure=True),
    "fig10b": Study(fig10_latency.latency_sweep,
                    fig10_latency.latency_sweep_claims, figure=True),
    "fig11a": Study(fig11_blocking.block_size_sweep,
                    fig11_blocking.block_size_sweep_claims, figure=True),
    "fig11b": Study(fig11_blocking.copying_study,
                    fig11_blocking.copying_study_claims, figure=True),
    "fig12": Study(fig12_prefetch.prefetch_study,
                   fig12_prefetch.prefetch_study_claims, figure=True),
    # Studies beyond the paper's figures: §5 related-work comparisons
    # and the prose-claim ablations.
    "related-work": Study(related_work.baseline_comparison,
                          related_work.baseline_comparison_claims),
    "related-work-traffic": Study(related_work.baseline_traffic,
                                  related_work.baseline_traffic_claims),
    "related-work-streams": Study(related_work.stream_buffer_study,
                                  related_work.stream_buffer_study_claims),
    "related-work-placement": Study(related_work.placement_study,
                                    related_work.placement_study_claims),
    "related-work-subblock": Study(related_work.subblock_study,
                                   related_work.subblock_study_claims),
    "transform-interchange": Study(transforms_study.interchange_study,
                                   transforms_study.interchange_study_claims),
    "transform-expansion": Study(transforms_study.expansion_study,
                                 transforms_study.expansion_study_claims),
    "attribution": Study(attribution_study.miss_concentration,
                         attribution_study.miss_concentration_claims),
    "policy": Study(policy_study.policy_comparison,
                    policy_study.policy_comparison_claims),
    "headroom": Study(headroom_study.headroom, headroom_study.headroom_claims),
    "hierarchy": Study(hierarchy_study.l2_retrospective,
                       hierarchy_study.l2_retrospective_claims),
    "ablation-bbsize": Study(ablations.bounce_back_size,
                             ablations.bounce_back_size_claims),
    "ablation-bbassoc": Study(ablations.bounce_back_associativity,
                              ablations.bounce_back_associativity_claims),
    "ablation-admission": Study(ablations.admission_policy,
                                ablations.admission_policy_claims),
    "ablation-reset": Study(ablations.temporal_reset, ablations.temporal_reset_claims),
    "ablation-physline": Study(ablations.physical_line, ablations.physical_line_claims),
    # A traffic illustration with no claim in the paper.
    "ablation-writepolicy": Study(ablations.write_policy, None),
}

#: Views of :data:`STUDIES`: the paper figures' drivers, the extension
#: studies' drivers, and every claims function by study id.
ALL_FIGURES = {name: s.driver for name, s in STUDIES.items() if s.figure}
EXTENSION_STUDIES = {name: s.driver for name, s in STUDIES.items() if not s.figure}
CLAIMS = {name: s.claims for name, s in STUDIES.items() if s.claims}

__all__ = [
    "FigureResult", "Study", "STUDIES", "ALL_FIGURES", "EXTENSION_STUDIES", "CLAIMS",
]
