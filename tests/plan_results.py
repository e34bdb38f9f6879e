"""The results of a whole plan, collected as the run's tables hold them.

``sweep.run_plan`` yields one ``MethodResult`` at a time, in plan order;
tests that look at a whole plan merge them here.
"""

from dataclasses import dataclass, field

from deferbench import sweep


@dataclass
class PlanResults:
    points: list = field(default_factory=list)  # the rows of results.csv, in order
    classification: list = field(default_factory=list)  # the rows of classification.csv
    failures: list = field(default_factory=list)  # "seed S method: reason", in plan order


def collect_plan(cfg, data_path=None) -> PlanResults:
    """Every result of sweep.run_plan(cfg, data_path), merged in plan order."""
    collected = PlanResults()
    for result in sweep.run_plan(cfg, data_path=data_path):
        collected.points.extend(result.points)
        collected.classification.extend(result.classification)
        if result.failure is not None:
            collected.failures.append(f"seed {result.seed_index} {result.method}: {result.failure}")
    return collected
